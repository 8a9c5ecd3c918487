"""Eigenvalue-concentration (Landau) estimate of effective degrees of freedom.

The receive-side correlation of the coupling kernel around a reference point
c on the receive plane,

    g(delta) = integral over tx of  k(c + delta/2, t) conj(k(c - delta/2, t)) dt,

is approximately shift-invariant for apertures small against the link
distance (the symmetric +/- delta/2 centering cancels the quadratic Fresnel
phase exactly, which is what makes the slice a faithful stationary
correlation).  Its Fourier transform H(k), with the exp(-j k . delta)
forward convention, concentrates on the same bounded wavenumber set that
the cut-set analysis predicts, and the eigenvalues of the band-limiting
problem polarize: for the aperture scaled by r, the number of eigenvalues
above any fixed level gamma grows as

    n_edof ~ area(S_rx) * measure{ k : H(k) >= gamma } / (2 pi)^2

with a transition width that vanishes relative to the count.  The lag
samples are tapered with a triangular (Bartlett) window before the DFT: the
bare truncated transform rings negative by several percent (Dirichlet
sidelobes), while the Bartlett estimate smooths with a nonnegative Fejer
kernel, keeping H >= 0 up to round-off without biasing the zero-lag sum.

g is sampled on a centered lag lattice and evaluated once per orbit of the
lattice's symmetry.  g(-delta) = conj(g(delta)) holds on every scene, so at
most half the lags are evaluated.  When the scene also holds the receive
frame's u- and v-mirrors (geometry.mirror_axes), as on a coaxial link, g
is even in both axes and therefore real, and one lag per mirror orbit is
evaluated: a quarter of the lattice, or an eighth with the u <-> v swap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .cutset import wavenumber_component
from .errors import GeometryError, NumericalError, ResourceError
from .geometry import (
    MIRRORS,
    PlanarSurface,
    QuadratureGrid,
    corners,
    discretize,
    lattice_orbits,
    mirror_axes,
)
from .kernel import WaveConfig, assemble_operator, kernel_scale, node_distances, row_blocks
from .spectrum import (
    CouplingSpectrum,
    EdofReport,
    count_edof,
    coupling_spectrum,
    resolve_threshold,
)

# Default lag-window extent in units of the coherence scale lambda*d/L_tx.
DEFAULT_EXTENT_COHERENCE_UNITS = 8.0
# Padding of the scene's wavenumber band, in Fejer main-lobe half widths
# (4 pi / extent each); the default lag spacing samples the padded band
# twice as finely as Nyquist, which is a quarter wavelength at grazing.
BAND_PAD_LOBES = 2.0

DEFAULT_STUDY_GAMMAS = (0.01, 0.5, 0.99)
DEFAULT_POINTS_PER_WAVELENGTH = 2.5
# max entries of the SVD matrix, and max lags of the Landau lag lattice
DEFAULT_MATRIX_BUDGET = 16_000_000


@dataclass(frozen=True)
class WavenumberResponse:
    """Sampled wavenumber response H(k) of the receive-side correlation,
    on the u-major grid of its two wavenumber axes ``k_axes``."""

    k_axes: tuple               # (k_u, k_v) ascending, in the rx tangent frame, rad/m
    H_values: np.ndarray        # (n_ku * n_kv,) real, clamped nonnegative; max > 0
    cell_area: float            # dku * dkv of one dual-grid cell
    shape: tuple                # (n_ku, n_kv); arrays are u-major flattened
    diagnostics: dict[str, Any]


@dataclass(frozen=True)
class PolarizationScale:
    """One row of a polarization study: spectrum of the scene scaled by r."""

    scale: float
    spectrum: CouplingSpectrum
    n_edof: dict[float, int]    # relative gamma -> mode count
    spread: float               # (n[min gamma] - n[max gamma]) / n[mid gamma]


def _lag_points(lags, reference, rx_surface):
    """Global points c +/- delta/2 for an (M, 2) array of tangent-frame lags."""
    offset = 0.5 * (lags[:, :1] * rx_surface.tangent_u[None, :]
                    + lags[:, 1:] * rx_surface.tangent_v[None, :])
    return reference[None, :] + offset, reference[None, :] - offset


def _autocorrelation_many(lags, reference, rx_surface, tx_grid, wave):
    """g(delta) for many lags at once; symmetric centering around reference."""
    p_plus, p_minus = _lag_points(lags, reference, rx_surface)
    scale = np.float64(kernel_scale(wave)) ** 2   # inf, not OverflowError, at tiny lambda
    out = np.empty(lags.shape[0], dtype=complex)
    for rows in row_blocks(lags.shape[0], len(tx_grid)):
        d_plus = node_distances(p_plus[rows], tx_grid.points, wave)
        d_minus = node_distances(p_minus[rows], tx_grid.points, wave)
        # one exp per pair: the kernel product collapses to exp(-jk(d+ - d-))
        phase = np.exp(-1j * wave.k0 * (d_plus - d_minus))
        out[rows] = scale * ((phase / (d_plus * d_minus)) @ tx_grid.weights)
    return out


def _autocorrelation_lattice(axes, mirrors, reference, rx_surface, tx_grid,
                             wave):
    """g on the u-major lattice of two lag axes, one lag per orbit.

    Every scene has g(-delta) = conj(g(delta)).  When ``mirrors`` (from
    mirror_axes) holds both the u- and the v-mirror, g is also even in each
    axis, hence real: it is folded by the mirrors (and the swap, when held)
    and its real part gathered.  Otherwise it is folded by the point
    reflection, and the mirrored half is filled with exact conjugates.
    Returns g and the fold.
    """
    fold = lattice_orbits(*axes, mirrors if {"u", "v"} <= set(mirrors) else ("point",))
    iu, iv = np.divmod(fold.nodes, len(axes[1]))
    g = _autocorrelation_many(np.column_stack([axes[0][iu], axes[1][iv]]),
                              reference, rx_surface, tx_grid, wave)
    if {"u", "v"} <= set(fold.symmetry):
        return np.real(g)[fold.gather], fold
    g = g[fold.gather]
    mirrored = fold.nodes[fold.gather] != np.arange(len(fold.gather))
    g[mirrored] = np.conj(g[mirrored])
    return g, fold


def _band_edge(rx_surface, tx_surface, wave, extent):
    """Padded per-axis in-plane wavenumber band of the correlation, rad/m.

    The largest |k_u| and |k_v| over rays from the transmit corners to the
    corners of a receive-plane box that covers the aperture and every lag
    point c +/- delta/2, each padded by BAND_PAD_LOBES Fejer half widths.
    """
    box = corners(rx_surface, max(0.5 * rx_surface.length_u, 0.25 * extent[0]),
                  max(0.5 * rx_surface.length_v, 0.25 * extent[1]))
    k = wavenumber_component(box[:, None, :], corners(tx_surface)[None, :, :],
                             rx_surface, wave)
    k_max = np.abs(k).max(axis=(0, 1))
    return tuple(float(km + BAND_PAD_LOBES * 4.0 * np.pi / e)
                 for km, e in zip(k_max, extent))


def autocorrelation_kernel(delta_r, rx_reference_point, tx_grid: QuadratureGrid,
                           wave: WaveConfig, rx_surface: PlanarSurface) -> complex:
    """Receive-plane correlation g(delta) at one 2-vector lag.

    ``delta_r`` is expressed in the receive tangent frame; the two kernel
    slices are evaluated at rx_reference_point +/- delta/2, which makes the
    Hermitian symmetry g(-delta) = conj(g(delta)) exact.
    """
    lag = np.asarray(delta_r, dtype=float).reshape(1, 2)
    ref = np.asarray(rx_reference_point, dtype=float)
    return complex(_autocorrelation_many(lag, ref, rx_surface, tx_grid, wave)[0])


def _normalize_pair(value, fallback, name):
    if value is None:
        return fallback
    if np.isscalar(value):
        return float(value), float(value)
    pair = tuple(float(x) for x in value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be a scalar or a pair")
    return pair


def _odd_count(n):
    return n if n % 2 == 1 else n + 1


def wavenumber_response(rx_surface: PlanarSurface, tx_grid: QuadratureGrid,
                        wave: WaveConfig, lag_grid=None,
                        lag_extent=None) -> WavenumberResponse:
    """Bartlett estimate of H(k) from autocorrelation samples on a lag grid.

    Defaults: per-axis extent of 8 coherence scales (lambda * d / L_tx_axis,
    d the center-to-center distance) and, per axis, a lag spacing of
    pi / (2 * k_band): k_band is the largest in-plane wavenumber of the
    rays from the transmit corners to a receive-plane box covering the
    aperture and the lag points, padded by two Fejer main-lobe half widths
    (4 pi / extent each).  The spacing is capped at a quarter wavelength,
    its value at grazing incidence (k_band >= k0).  Counts are forced odd
    so the lattice is centered and the transform is real.  A lattice of
    more than DEFAULT_MATRIX_BUDGET lags raises ResourceError before any
    lag is placed; an automatic one of fewer than 3 lags per axis raises
    GeometryError.

    g is evaluated on one lag per orbit and gathered to the rest.  When the
    scene holds both receive mirrors of ``mirror_axes``, the orbits are
    those of the mirrors, plus the swap when the lattice has equal counts
    and spacings, and g is real: 2,556 of the 19,881 lags of a 141 x 141
    lattice on a coaxial square link.  Otherwise they are the pairs
    {delta, -delta}, and conj(g(delta)) fills in -delta.  The diagnostics
    record the mirrors used (``symmetry``) and ``evaluated_lags``.
    """
    center_distance = float(np.linalg.norm(
        rx_surface.center - tx_grid.surface.center))
    coherence = (wave.wavelength * center_distance / tx_grid.surface.length_u,
                 wave.wavelength * center_distance / tx_grid.surface.length_v)
    extent_u, extent_v = _normalize_pair(
        lag_extent, tuple(DEFAULT_EXTENT_COHERENCE_UNITS * c for c in coherence),
        "lag_extent")
    if not (extent_u > 0.0 and extent_v > 0.0):
        raise ValueError("lag extents must be positive")
    k_band = _band_edge(rx_surface, tx_grid.surface, wave, (extent_u, extent_v))
    if lag_grid is None:
        # max(lambda/4, pi/(2 k_band)), written to be exactly lambda/4 at grazing
        spacing = tuple(0.25 * wave.wavelength * max(1.0, wave.k0 / kb) for kb in k_band)
        lag_grid = tuple(np.ceil(e / s) for e, s in zip((extent_u, extent_v), spacing))
        if not all(3 <= n < np.inf for n in lag_grid):
            raise GeometryError(
                f"automatic lag grid has {lag_grid[0]:g} x {lag_grid[1]:g} lags, fewer than 3 "
                f"per axis: extent {extent_u:.3g} x {extent_v:.3g} m at spacing {spacing[0]:.3g}"
                f" x {spacing[1]:.3g} m; set landau_options.lag_grid or lag_extent_m")
    counts = _normalize_pair(lag_grid, None, "lag_grid")
    if not all(n.is_integer() for n in counts):
        raise ValueError(f"lag_grid counts must be whole numbers, got {counts}")
    counts = tuple(int(n) for n in counts)
    if min(counts) < 3:
        raise ValueError(f"lag grid needs at least 3 points per axis, got {counts}")
    n_u, n_v = _odd_count(counts[0]), _odd_count(counts[1])
    if n_u * n_v > DEFAULT_MATRIX_BUDGET:
        raise ResourceError(
            f"lag lattice of {n_u} x {n_v} lags is over the budget of {DEFAULT_MATRIX_BUDGET}"
            "; reduce landau_options.lag_grid or lag_extent_m")
    du, dv = extent_u / n_u, extent_v / n_v

    iu = np.arange(n_u) - (n_u - 1) / 2.0
    iv = np.arange(n_v) - (n_v - 1) / 2.0
    g, fold = _autocorrelation_lattice((iu * du, iv * dv),
                                       mirror_axes(tx_grid, rx_surface),
                                       rx_surface.center, rx_surface, tx_grid, wave)
    g = g.reshape(n_u, n_v)

    # Bartlett taper: Fejer smoothing keeps the estimate nonnegative.
    taper_u = 1.0 - np.abs(iu) / ((n_u + 1) / 2.0)
    taper_v = 1.0 - np.abs(iv) / ((n_v + 1) / 2.0)
    tapered = g * np.outer(taper_u, taper_v)
    h = np.fft.fft2(np.fft.ifftshift(tapered)) * du * dv
    h = np.real(np.fft.fftshift(h))
    h_max = float(h.max())
    if not np.isfinite(h_max):
        raise NumericalError(f"wavenumber response is not finite (max H = {h_max})")
    if not h_max > 0.0:
        raise NumericalError(f"wavenumber response peak is not positive (max H = {h_max})")
    min_ratio = float(h.min() / h_max)
    h = np.maximum(h, 0.0)

    ku = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n_u, d=du))
    kv = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n_v, d=dv))
    cell_area = float((ku[1] - ku[0]) * (kv[1] - kv[0]))
    return WavenumberResponse(
        k_axes=(ku, kv),
        H_values=h.ravel(),
        cell_area=cell_area,
        shape=(n_u, n_v),
        diagnostics={
            "lag_spacing": (du, dv),
            "k_band": k_band,
            "lag_extent": (extent_u, extent_v),
            "pre_clamp_min_ratio": min_ratio,
            "symmetry": [name for name in fold.symmetry if name in MIRRORS],
            "evaluated_lags": len(fold.nodes),
        })


def support_measure(response: WavenumberResponse, gamma: float,
                    mode: str = "relative") -> float:
    """Lebesgue measure of { k : H(k) >= threshold } on the sampled plane.

    Relative mode thresholds against max(H).  Monotone non-increasing in
    gamma; gamma = 0 returns the whole sampled plane, gamma above the peak
    returns zero.
    """
    threshold = resolve_threshold(gamma, mode, response.H_values.max())
    return float(np.count_nonzero(response.H_values >= threshold)
                 * response.cell_area)


def landau_edof(rx_surface: PlanarSurface, support: float,
                gamma_mode: str | None = None,
                gamma_value: float | None = None) -> EdofReport:
    """Landau count area(S_rx) * m(Q) / (2 pi)^2 for a measured support m(Q).

    ``gamma_mode`` and ``gamma_value`` record the threshold the support was
    measured at.
    """
    if not support >= 0.0:
        raise ValueError(f"support measure must be nonnegative, got {support}")
    n = rx_surface.area * support / (4.0 * np.pi ** 2)
    return EdofReport(method="landau", n_edof=float(n),
                      gamma_mode=gamma_mode, gamma_value=gamma_value)


def stationarity_check(rx_surface: PlanarSurface, tx_grid: QuadratureGrid,
                       wave: WaveConfig) -> dict[str, Any]:
    """Compare |g| at the four rx corners against the center.

    The Landau construction treats the correlation as shift-invariant over
    the receive aperture; corner-to-center modulus drift beyond 10% flags
    the configuration as non-stationary.
    """
    center_distance = float(np.linalg.norm(
        rx_surface.center - tx_grid.surface.center))
    coh = wave.wavelength * center_distance / max(tx_grid.surface.length_u,
                                                  tx_grid.surface.length_v)
    probes = np.array([[0.0, 0.0], [0.5 * coh, 0.0], [0.0, 0.5 * coh]])
    ref = np.abs(_autocorrelation_many(probes, rx_surface.center, rx_surface,
                                       tx_grid, wave))
    worst = 0.0
    for corner in corners(rx_surface):
        mod = np.abs(_autocorrelation_many(probes, corner, rx_surface,
                                           tx_grid, wave))
        worst = max(worst, float(np.max(np.abs(mod - ref) / ref)))
    return {"max_modulus_deviation": worst, "stationary": worst <= 0.1}


def study_grid_counts(tx_surface: PlanarSurface, rx_surface: PlanarSurface,
                      wave: WaveConfig, scale: float,
                      max_matrix_entries: int = DEFAULT_MATRIX_BUDGET):
    """Midpoint grid counts ``((tx n_u, n_v), (rx n_u, n_v))`` of the scene
    with both aperture sides scaled by ``scale``: DEFAULT_POINTS_PER_WAVELENGTH,
    reduced uniformly when the coupling matrix would exceed
    ``max_matrix_entries``.  A ResourceError names the scale when the counts
    overflow or the grid cannot resolve twice the paraxial mode count
    k0 L_tx L_rx r^2 / (2 pi d) per axis."""
    sides = [[length * scale * DEFAULT_POINTS_PER_WAVELENGTH / wave.wavelength
              for length in (surf.length_u, surf.length_v)] for surf in (tx_surface, rx_surface)]
    if not np.isfinite(sides).all():
        raise ResourceError(f"grid counts at {DEFAULT_POINTS_PER_WAVELENGTH} points per "
                            f"wavelength overflow at scale r={scale}")
    counts = [tuple(int(np.ceil(n)) for n in pair) for pair in sides]
    entries = counts[0][0] * counts[0][1] * counts[1][0] * counts[1][1]
    if entries > max_matrix_entries:
        shrink = (max_matrix_entries / entries) ** 0.25
        counts = [(max(1, int(n_u * shrink)), max(1, int(n_v * shrink)))
                  for n_u, n_v in counts]
    d = float(np.linalg.norm(rx_surface.center - tx_surface.center))
    for axis, (l_tx, l_rx) in enumerate(((tx_surface.length_u, rx_surface.length_u),
                                          (tx_surface.length_v, rx_surface.length_v))):
        predicted = wave.k0 * l_tx * l_rx * scale * scale / (2.0 * np.pi * d)
        available = min(counts[0][axis], counts[1][axis])
        if available < 2.0 * predicted:
            raise ResourceError(
                f"matrix budget {max_matrix_entries} caps the grid at "
                f"{available} points per axis, below the ~{2 * predicted:.0f} "
                f"needed to resolve the spectrum at scale r={scale}")
    return tuple(counts)


def polarization_study(tx_surface: PlanarSurface, rx_surface: PlanarSurface,
                       wave: WaveConfig, scales, gammas=DEFAULT_STUDY_GAMMAS,
                       max_matrix_entries: int = DEFAULT_MATRIX_BUDGET) -> list[PolarizationScale]:
    """Spectra of the scene with both aperture side lengths scaled by r.

    Each scale takes the midpoint grids of ``study_grid_counts``, so the
    runs stay comparable across scales, and a scale the budget cannot
    resolve raises its ResourceError.  Counts n_edof use relative thresholds;
    ``spread`` is the transition width (n[gamma_min] - n[gamma_max]) /
    n[gamma_mid], the quantity that shrinks as the eigenvalues polarize.
    """
    scales = [float(r) for r in scales]
    if not scales or not all(1.0 <= r < np.inf for r in scales):
        raise ValueError("scales must be a nonempty list of finite values >= 1")
    gammas = tuple(sorted(float(x) for x in gammas))
    if len(gammas) < 2:
        raise ValueError("need at least two relative thresholds")
    rows = []
    for r in scales:
        counts = study_grid_counts(tx_surface, rx_surface, wave, r, max_matrix_entries)
        tx_grid, rx_grid = (
            discretize(replace(surf, length_u=surf.length_u * r, length_v=surf.length_v * r), *n)
            for surf, n in zip((tx_surface, rx_surface), counts))
        spectrum = coupling_spectrum(assemble_operator(tx_grid, rx_grid, wave))
        n_edof = {g: count_edof(spectrum, g, "relative") for g in gammas}
        mid = gammas[len(gammas) // 2]
        spread = (n_edof[gammas[0]] - n_edof[gammas[-1]]) / max(n_edof[mid], 1)
        rows.append(PolarizationScale(scale=r, spectrum=spectrum,
                                      n_edof=n_edof, spread=float(spread)))
    return rows
