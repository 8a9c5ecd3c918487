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

When geometry.sector_axes finds the receive u- and v-mirrors (two coaxial
parallel apertures, the canonical holographic-MIMO link), each splits the
matrix into an even and an odd half, so the spectrum is the merged spectra
of four parity-sector blocks of about N/4 x N/4 each.  Any other scene
takes one full SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .geometry import QuadratureGrid, sector_axes
from .kernel import DiscreteOperator

GAMMA_MODES = ("absolute", "relative")


@dataclass(frozen=True)
class CouplingSpectrum:
    """Squared singular values of a discrete coupling operator, descending."""

    values: np.ndarray          # (N,) real, s_n^2 sorted descending
    symmetry: tuple[str, ...] = ()  # receive mirrors the sectors used; () on the full SVD

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


def _fold(x: np.ndarray, axis: int, odd: bool) -> np.ndarray:
    """(lo +/- mirrored) / sqrt(2) along one tx axis, as a new array.

    The even sector keeps the centre line of an odd count unchanged; the
    odd sector has none.
    """
    n = x.shape[axis]
    half = n // 2
    width = half if odd else n - half
    lead = (slice(None),) * axis
    out = np.empty(x.shape[:axis] + (width,) + x.shape[axis + 1:], dtype=x.dtype)
    lo = x[lead + (slice(0, half),)]
    hi = np.flip(x, axis)[lead + (slice(0, half),)]
    paired = out[lead + (slice(0, half),)]
    (np.subtract if odd else np.add)(lo, hi, out=paired)
    paired *= np.sqrt(0.5)
    if width > half:
        out[lead + (slice(half, None),)] = x[lead + (slice(half, half + 1),)]
    return out


def _sector_values(a4: np.ndarray) -> np.ndarray:
    """Singular values of the four parity-sector blocks, merged descending.

    A sector block takes the rx rows of the fundamental domain (the first
    ceil(n/2) per axis for even parity, floor(n/2) for odd), folds its tx
    axes with ``_fold`` and scales each paired rx row by sqrt(2).
    """
    n_u, n_v = a4.shape[:2]
    values = []
    for odd_u in (False, True):
        for odd_v in (False, True):
            rows_u = n_u // 2 if odd_u else n_u - n_u // 2
            rows_v = n_v // 2 if odd_v else n_v - n_v // 2
            block = _fold(_fold(a4[:rows_u, :rows_v], 2, odd_u), 3, odd_v)
            block[:n_u // 2] *= np.sqrt(2.0)
            block[:, :n_v // 2] *= np.sqrt(2.0)
            if block.size:
                values.append(np.linalg.svd(block.reshape(rows_u * rows_v, -1),
                                            compute_uv=False))
    return np.sort(np.concatenate(values))[::-1]


def coupling_spectrum(operator: DiscreteOperator) -> CouplingSpectrum:
    """Squared singular values of the operator matrix, descending.

    ``operator.matrix`` must be what ``assemble_operator`` built from the
    operator's grids: the solver is chosen from the grids alone.  When
    ``sector_axes`` holds (the receive u- and v-mirrors flip both grids'
    axes), the values come from the four parity-sector blocks, which read
    only the fundamental receive rows that assembly evaluated, padded with
    zeros to min(N_rx, N_tx); otherwise from one full SVD.

    Error bound: every node then lies within about SYMMETRY_RTOL * L of a
    mirror image (L the largest aperture side) and weights match to
    SYMMETRY_RTOL, so each s_n lies within 2 tau ||A||_F of the full SVD's
    (Weyl), with tau = SYMMETRY_RTOL * (1 + 4 (k0 + 1/d_min) L) and d_min the
    nearest node distance.
    """
    a = operator.matrix
    tx_grid, rx_grid = operator.tx_grid, operator.rx_grid
    axes = sector_axes(tx_grid, rx_grid)
    try:
        if axes is None:
            s = np.linalg.svd(a, compute_uv=False)
        else:
            a4 = a.reshape(rx_grid.shape + tx_grid.shape).transpose(0, 1, *axes)
            s = np.zeros(min(a.shape))
            merged = _sector_values(a4)
            s[:merged.size] = merged
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    return CouplingSpectrum(values=s * s,
                            symmetry=() if axes is None else ("u", "v"))


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
    if n < 0 or int(n) != n:
        raise ValueError(f"mode index must be a nonnegative integer, got {n}")
    if n >= len(spectrum):
        return 0.0
    return float(np.sqrt(spectrum.values[int(n)]))


def extract_modes(operator: DiscreteOperator, n_modes: int) -> ModeBasis:
    """Leading ``n_modes`` singular triplets as physical mode samples."""
    n_rx, n_tx = operator.matrix.shape
    rank = min(n_rx, n_tx)
    if n_modes < 1 or n_modes > rank:
        raise DimensionError(
            f"n_modes must be in [1, {rank}] for a {n_rx} x {n_tx} operator, "
            f"got {n_modes}")
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
