"""Coupling spectrum, communication modes, and threshold mode counting.

The SVD of the discrete coupling operator gives singular triplets
(s_n, phi_n, psi_n): transmit current patterns phi_n, received field
patterns psi_n, and coupling amplitudes s_n with

    (K phi_n)(r) = s_n psi_n(r),   n = 0, 1, 2, ...   (0-based)

The effective number of degrees of freedom at threshold gamma is

    n_edof(gamma) = min { N : s_N^2 <= gamma },

i.e. the number of modes whose squared coupling strictly exceeds gamma.
The width s_N also equals the Kolmogorov N-width of the set of receivable
fields generated by unit-power transmit currents.

When the ``sectors`` of the geometry.link_symmetry record, which assembly
builds and the operator carries, hold the receive u- and v-mirrors (two
coaxial parallel apertures, the canonical holographic-MIMO link), each
splits the matrix into an even and an odd half, so the spectrum is the
merged spectra of four parity-sector blocks of about N/4 x N/4 each, about
1/16 of a full SVD's flops.  When they also hold the u <-> v swap on both
grids (square apertures with square grids, the group D4 of the square), the
swap maps the even-odd sector onto the odd-even one, whose values are then
equal, and splits the even-even and odd-odd sectors into a symmetric and an
antisymmetric half each: one block of N/4 and four of about N/8, about
3/128 of a full SVD.  The blocks are folded from the fundamental receive
rows the operator stores, and each block's squared singular values are the
eigenvalues of its smaller Gram matrix.  Any other scene takes one full SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .geometry import QuadratureGrid
from .kernel import DiscreteOperator, row_blocks

GAMMA_MODES = ("absolute", "relative")


@dataclass(frozen=True)
class CouplingSpectrum:
    """Squared singular values of a discrete coupling operator, descending."""

    values: np.ndarray          # (N,) real, s_n^2 sorted descending
    # receive reflections the sectors used, ("u", "v") or ("u", "v", "swap");
    # () on the full SVD
    symmetry: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size == 0:
            raise NumericalError("spectrum must hold at least one value")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("spectrum values must be finite")
        if np.any(self.values < 0.0) or np.any(np.diff(self.values) > 0.0):
            raise NumericalError("spectrum values must be nonnegative and descending")
        if self.values[0] == 0.0:
            raise NumericalError("spectrum peak is zero: no mode couples")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ModeBasis:
    """Leading singular triplets of a discrete coupling operator.

    Mode arrays hold physical (de-weighted) samples at the grid nodes,
    orthonormal under the weighted inner product sum(w_i x_i conj(y_i)).
    Column n of ``tx_modes`` maps to column n of ``rx_modes`` scaled by
    ``couplings[n]``.  The common phase of each pair is fixed by making the
    largest-modulus entry of the transmit mode real and positive.
    """

    tx_modes: np.ndarray     # (N_tx, n_modes) complex
    rx_modes: np.ndarray     # (N_rx, n_modes) complex
    couplings: np.ndarray    # (n_modes,) real, descending
    tx_grid: QuadratureGrid
    rx_grid: QuadratureGrid


@dataclass(frozen=True)
class EdofReport:
    """One edof.csv row: a method's effective-DoF estimate and its threshold."""

    method: str              # "svd" | "cutset" | "landau"
    n_edof: float            # integer-valued for "svd", real for the others
    gamma_mode: str | None = None
    gamma_value: float | None = None


def _width(n: int, odd: bool) -> int:
    """Length of the even sector (ceil(n/2)) or the odd one (floor(n/2))
    along an axis of n nodes."""
    return n // 2 if odd else n - n // 2


def _fold(x: np.ndarray, axis: int, odd: bool, out=None) -> np.ndarray:
    """(lo +/- mirrored) / sqrt(2) along one tx axis, into ``out`` or a new
    array.

    The even sector keeps the centre line of an odd count unchanged; the
    odd sector has none.
    """
    n = x.shape[axis]
    half = n // 2
    width = _width(n, odd)
    lead = (slice(None),) * axis
    if out is None:
        out = np.empty(x.shape[:axis] + (width,) + x.shape[axis + 1:], dtype=x.dtype)
    lo = x[lead + (slice(0, half),)]
    hi = np.flip(x, axis)[lead + (slice(0, half),)]
    paired = out[lead + (slice(0, half),)]
    (np.subtract if odd else np.add)(lo, hi, out=paired)
    paired *= np.sqrt(0.5)
    if width > half:
        out[lead + (slice(half, None),)] = x[lead + (slice(half, half + 1),)]
    return out


def _fold_tx(x: np.ndarray, odd_u: bool, odd_v: bool) -> np.ndarray:
    """``_fold`` along both tx axes of a (rx_u, rx_v, tx_u, tx_v) slice, as a
    new array.

    One rx u-row at a time: bit for bit the two folds in turn, without
    their half-folded copy of the whole slice.
    """
    out = np.empty(x.shape[:2] + (_width(x.shape[2], odd_u), _width(x.shape[3], odd_v)),
                   dtype=x.dtype)
    for row, folded in zip(x, out):
        _fold(_fold(row, 1, odd_u), 2, odd_v, out=folded)
    return out


def _swap_half(x: np.ndarray, axis: int, odd: bool) -> np.ndarray:
    """Axes (axis, axis + 1) of x, of equal length, paired by the swap
    (i, j) <-> (j, i) into one axis, as a new array.

    The symmetric half (odd False) holds x(i, i) and, for i < j,
    (x(i, j) + x(j, i)) / sqrt(2); the antisymmetric half holds
    (x(i, j) - x(j, i)) / sqrt(2) for i < j.
    """
    i, j = np.triu_indices(x.shape[axis], 1 if odd else 0)
    lead = (slice(None),) * axis
    half = x[lead + (i, j)]
    (np.subtract if odd else np.add)(half, x[lead + (j, i)], out=half)
    scale = np.where(i == j, 0.5, np.sqrt(0.5))
    half *= scale.reshape(scale.shape + (1,) * (x.ndim - axis - 2))
    return half


def _gram(block: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of a 2-D block, B^H B, or B^T conj(B) (the
    conjugate of B B^H, with the same eigenvalues) when B is wide.

    Built one slab of its rows at a time (``row_blocks``), so no conjugate
    copy of the whole block is made.  Its eigenvalues are the block's
    squared singular values, each off by about eps * s_0^2, where an SVD's
    squares would be off by about eps * s_0 * s_n; the counts read values
    near gamma * s_0^2.
    """
    tall = block if block.shape[0] >= block.shape[1] else block.T
    gram = np.empty((tall.shape[1],) * 2, dtype=tall.dtype)
    for rows in row_blocks(len(gram), len(tall)):
        np.matmul(tall[:, rows].conj().T, tall, out=gram[rows])
    if not np.all(np.isfinite(gram)):
        raise NumericalError("spectrum values must be finite")
    return gram


def _sector_values(quarter: np.ndarray, rx_shape: tuple[int, int],
                   swap: bool) -> np.ndarray:
    """Squared singular values of the parity-sector blocks, merged descending.

    ``quarter`` holds the fundamental receive rows, as (rx_u, rx_v, tx_u,
    tx_v) with each tx axis the one its rx mirror flips.  A sector block
    takes the rx rows of the fundamental domain (the first ceil(n/2) per
    axis for even parity, floor(n/2) for odd), folds its tx axes with
    ``_fold_tx`` and scales each paired rx row by sqrt(2).  With ``swap`` the
    odd-even block is the even-odd one with its rows and columns permuted
    (and, behind an anti-diagonal swap, negated), so the even-odd values
    count twice; the even-even and odd-odd blocks split by ``_swap_half`` on
    the rx and the tx side into a symmetric and an antisymmetric half,
    which the swap does not couple.  Each block or half gives its values
    through ``_gram``.
    """
    n_u, n_v = rx_shape
    values = []
    for odd_u in (False, True):
        for odd_v in (False, True):
            if swap and (odd_u, odd_v) == (True, False):
                continue
            rows_u, rows_v = _width(n_u, odd_u), _width(n_v, odd_v)
            block = _fold_tx(quarter[:rows_u, :rows_v], odd_u, odd_v)
            block[:n_u // 2] *= np.sqrt(2.0)
            block[:, :n_v // 2] *= np.sqrt(2.0)
            if not block.size:
                continue
            if swap and odd_u == odd_v:
                halves = [_swap_half(_swap_half(block, 0, odd), 1, odd)
                          for odd in (False, True)]
            else:
                halves = [block.reshape(rows_u * rows_v, -1)]
            grams = [_gram(half) for half in halves if half.size]
            # the block and its halves are freed before eigvalsh copies each
            # Gram, and each Gram before the next sector is folded
            del block, halves
            while grams:
                s2 = np.maximum(np.linalg.eigvalsh(grams.pop()), 0.0)
                values.extend([s2, s2] if swap and odd_u != odd_v else [s2])
    return np.sort(np.concatenate(values))[::-1]


def coupling_spectrum(operator: DiscreteOperator) -> CouplingSpectrum:
    """Squared singular values of the operator matrix, descending.

    ``operator`` must be what ``assemble_operator`` built: the solver is
    chosen from the ``link_symmetry`` record it carries.  When the record
    has sectors (both grids hold the receive u- and v-mirrors, on paired
    frames), the values come from the four parity-sector blocks, folded
    from the fundamental receive rows the operator stores, without building
    its full matrix; each block's values are the eigenvalues of its smaller
    Gram matrix, and the merged values are padded with zeros to
    min(N_rx, N_tx).  Otherwise they are the squares of one full SVD of the
    stored matrix.  When the sectors also hold the swap (the receive u <-> v
    swap exchanges both grids' axes), the even-odd block's values count
    twice, for the odd-even block, and the even-even and odd-odd blocks each
    split into a symmetric and an antisymmetric half: about 3/128 of a full
    SVD's flops instead of 1/16.

    Error bound: every node then lies within about SYMMETRY_RTOL * L of its
    image under each reflection used (L the largest aperture side) and
    weights match to SYMMETRY_RTOL, so each s_n lies within 2 tau ||A||_F of
    the full SVD's (Weyl), with tau = SYMMETRY_RTOL * (1 + 4 (k0 + 1/d_min) L)
    and d_min the nearest node distance.  The swap adds no other tolerance;
    the Gram adds about eps * s_0^2 to each squared value.
    """
    a = operator.rows
    tx_grid, rx_grid = operator.tx_grid, operator.rx_grid
    axes = operator.symmetry.sectors
    try:
        if axes is None:
            s = np.linalg.svd(a, compute_uv=False)
            values = s * s
        else:
            quarter = a.reshape(a.shape[:2] + tx_grid.shape).transpose(0, 1, *axes[:2])
            values = np.zeros(min(len(rx_grid), len(tx_grid)))
            merged = _sector_values(quarter, rx_grid.shape, axes[2])
            values[:merged.size] = merged
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"spectrum solver failed to converge: {exc}") from exc
    symmetry = () if axes is None else ("u", "v", "swap") if axes[2] else ("u", "v")
    return CouplingSpectrum(values=values, symmetry=symmetry)


def resolve_threshold(gamma: float, mode: str, peak: float) -> float:
    """Absolute threshold for gamma: gamma itself, or gamma * peak in relative mode.

    The one place a threshold is read, for the spectrum count and the Landau
    support measure alike.
    """
    if mode not in GAMMA_MODES:
        raise ValueError(f"gamma mode must be one of {GAMMA_MODES}, got {mode!r}")
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if mode == "relative":
        return gamma * float(peak)
    return float(gamma)


def count_edof(spectrum: CouplingSpectrum, gamma: float,
               mode: str = "absolute") -> int:
    """Number of modes with squared coupling strictly above the threshold.

    In relative mode the threshold is gamma * s_0^2.  Counting stops at the
    first value <= threshold; if every resolved value exceeds it, the count
    saturates at the spectrum length (the grid-resolvable rank).
    """
    threshold = resolve_threshold(gamma, mode, spectrum.values[0])
    return int(np.sum(spectrum.values > threshold))


def kolmogorov_width(spectrum: CouplingSpectrum, n: int) -> float:
    """N-width d_n = s_n (0-based); zero past the resolved spectrum."""
    if not (0 <= n < np.inf and int(n) == n):
        raise ValueError(f"mode index must be a nonnegative integer, got {n}")
    if n >= len(spectrum):
        return 0.0
    return float(np.sqrt(spectrum.values[int(n)]))


def extract_modes(operator: DiscreteOperator, n_modes: int) -> ModeBasis:
    """Leading ``n_modes`` singular triplets as physical mode samples."""
    n_rx, n_tx = operator.matrix.shape
    rank = min(n_rx, n_tx)
    if not 1 <= n_modes <= rank or int(n_modes) != n_modes:
        raise DimensionError(
            f"n_modes must be an integer in [1, {rank}] for a {n_rx} x {n_tx} "
            f"operator, got {n_modes}")
    n_modes = int(n_modes)
    try:
        u, s, vh = np.linalg.svd(operator.matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    u = u[:, :n_modes]
    s = s[:n_modes]
    v = vh.conj().T[:, :n_modes]
    # de-weight: physical samples = weighted coefficients / sqrt(w)
    tx_modes = v / np.sqrt(operator.tx_grid.weights)[:, None]
    rx_modes = u / np.sqrt(operator.rx_grid.weights)[:, None]
    # common phase per pair: largest-modulus tx entry becomes real positive
    anchor_rows = np.argmax(np.abs(tx_modes), axis=0)
    anchors = tx_modes[anchor_rows, np.arange(n_modes)]
    phases = anchors / np.abs(anchors)
    tx_modes = tx_modes * phases.conj()[None, :]
    rx_modes = rx_modes * phases.conj()[None, :]
    return ModeBasis(tx_modes=tx_modes, rx_modes=rx_modes, couplings=s,
                     tx_grid=operator.tx_grid, rx_grid=operator.rx_grid)
