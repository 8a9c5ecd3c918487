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

g is sampled on an odd, centered lag lattice, on which -delta is the flat
u-major index read backwards.  g(-delta) = conj(g(delta)) holds on every
scene, so the first half of the lattice is evaluated and the rest filled
with exact conjugates.  When the scene also holds the receive frame's u-
and v-mirrors (geometry.mirror_axes), as on a coaxial link, g is even in
both axes and therefore real, and one lag per mirror orbit is evaluated: a
quarter of the lattice, or an eighth with the u <-> v swap, which the
lattice holds when its two axes are equal.  Where the half turn the two
mirrors compose to also reverses the transmit index
(geometry.half_turn_reverses), each folded lag is a real cosine sum over
half the transmit nodes (``_two_mirror_correlation``).  Every sum reads its
distances from kernel.plane_distances, per-axis tables where the frames
pair, and takes the phase k0 (d+ - d-) in a form that does not cancel
(``_autocorrelation_many``).
Transmit nodes within 0.1 wavelengths of the lag box, the receive surface
grown to hold every lag point, refuse the scene before any lag is placed,
as svd and the cut-set do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .cutset import wavenumber_component
from .errors import GeometryError, NumericalError, ResourceError
from .geometry import (
    PlanarSurface,
    QuadratureGrid,
    box_distances,
    corners,
    discretize,
    frame_coords,
    half_turn_reverses,
    lattice_orbits,
    mirror_axes,
)
from .kernel import (
    WaveConfig,
    assemble_operator,
    check_separation,
    kernel_scale,
    plane_distances,
)
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


def _coherence_scales(rx_surface, tx_surface, wave):
    """lambda * d / L_tx per transmit axis, d the center-to-center distance."""
    d = float(np.linalg.norm(rx_surface.center - tx_surface.center))
    return tuple(wave.wavelength * d / side for side in (tx_surface.length_u, tx_surface.length_v))


def _autocorrelation_many(lags, reference, rx_surface, tx_grid, wave):
    """g(delta) for many lags at once; symmetric centering around reference.

    The kernel product collapses to exp(-j k0 (d+ - d-)) / (d+ d-), and
    the phase is taken as 2 k0 delta.(c - t) / (d+ + d-), from
    d+^2 - d-^2 = 2 delta.(c - t): the difference of two distances near the
    link length would keep about k0 d eps of rounding.  Every quantity is in
    receive-frame coordinates, and d+ and d- come from
    ``kernel.plane_distances``.
    """
    center = frame_coords(reference, rx_surface)
    half = np.column_stack([0.5 * lags, np.zeros(len(lags))])
    # delta.(c - t) = delta.(c - c0) - delta.(t - c0), c0 the receive center
    toward = np.sum(lags * center[..., :2], axis=-1)
    nodes = frame_coords(tx_grid.points, rx_surface)[:, :2].T
    scale = np.float64(kernel_scale(wave)) ** 2   # inf, not OverflowError, at tiny lambda
    out = np.empty(lags.shape[0], dtype=complex)
    for (rows, d_plus), (_, d_minus) in zip(
            plane_distances(center + half, tx_grid, rx_surface, wave),
            plane_distances(center - half, tx_grid, rx_surface, wave)):
        np.sqrt(d_plus, out=d_plus)
        np.sqrt(d_minus, out=d_minus)
        along = toward[rows, None] - lags[rows] @ nodes
        phase = np.exp(-2j * wave.k0 * along / (d_plus + d_minus))
        out[rows] = scale * ((phase / (d_plus * d_minus)) @ tx_grid.weights)
    return out


def _two_mirror_correlation(lags, rx_surface, tx_grid, wave):
    """Real g(delta) for (M, 2) lags about the receive center c, on a
    transmit grid that ``half_turn_reverses``.

    The half turn P about the receive normal through c takes c + delta/2 to
    c - delta/2 and there transmit node i to node N-1-i, of equal weight,
    so d-(delta, t_i) = d+(delta, t_(N-1-i)) and the sine parts of nodes i
    and N-1-i cancel:

        g(delta) = s^2 (2 sum_(i < N/2) w_i cos(k0 (d+ - d-)) / (d+ d-)
                        + w_m / d+^2 for the middle node m when N is odd),

    s the kernel scale, with the phase taken as 2 k0 delta.(c - t) / (d+ + d-)
    as in ``_autocorrelation_many``.  d- is d+ read backwards, so each lag
    takes N distances from ``kernel.plane_distances``, per-axis tables where
    the frames pair, and N/2 real cosines.
    """
    n, half = len(tx_grid), len(tx_grid) // 2
    pair_weights = 2.0 * tx_grid.weights[:half]
    # delta.(c - t) = -delta.(t - c) on the first half of the nodes
    nodes = -frame_coords(tx_grid.points[:half], rx_surface)[:, :2].T
    # c + delta/2 in the receive frame, whose origin is c
    points = np.column_stack([0.5 * lags, np.zeros(len(lags))])
    out = np.empty(len(lags))
    for rows, d_plus in plane_distances(points, tx_grid, rx_surface, wave):
        np.sqrt(d_plus, out=d_plus)
        near, far = d_plus[:, :half], d_plus[:, ::-1][:, :half]
        terms = lags[rows] @ nodes
        terms *= 2.0 * wave.k0
        terms /= near + far
        np.cos(terms, out=terms)
        terms /= near * far
        out[rows] = terms @ pair_weights
        if n % 2:
            out[rows] += tx_grid.weights[half] / d_plus[:, half] ** 2
    return np.float64(kernel_scale(wave)) ** 2 * out


def _autocorrelation_lattice(axes, rx_surface, tx_grid, wave):
    """g about the receive center on the odd, centered u-major lattice of
    two lag axes.

    Every scene has g(-delta) = conj(g(delta)), and -delta is the flat index
    read backwards: the first half is evaluated by ``_autocorrelation_many``,
    the rest is its conjugate.  When the transmit grid holds the receive
    frame's u- and v-mirror (``mirror_axes``, about the receive center), g
    is also even in each axis, hence real: one lag per orbit of the
    mirrors, and of the swap when the two axes are equal (equal counts and
    spacings), is evaluated and gathered.  The orbit lags are evaluated by
    ``_two_mirror_correlation`` when the transmit grid
    ``half_turn_reverses``, and as the real part of the general sum
    otherwise: on a transmit plane that contains the receive normal.
    Returns g, the mirrors folded by and the lags evaluated.
    """
    def lattice(flat):
        iu, iv = np.divmod(flat, len(axes[1]))
        return np.column_stack([axes[0][iu], axes[1][iv]])

    mirrors = mirror_axes(tx_grid, rx_surface)
    if {"u", "v"} <= set(mirrors):
        folded_by = tuple(m for m in mirrors if m != "swap" or np.array_equal(*axes))
        fold = lattice_orbits((len(axes[0]), len(axes[1])), folded_by)
        lags = lattice(fold.nodes)
        if half_turn_reverses(tx_grid, rx_surface):
            g = _two_mirror_correlation(lags, rx_surface, tx_grid, wave)
        else:
            g = np.real(_autocorrelation_many(lags, rx_surface.center, rx_surface, tx_grid,
                                              wave))
        return g[fold.gather], folded_by, len(fold.nodes)
    half = _autocorrelation_many(lattice(np.arange((len(axes[0]) * len(axes[1]) + 1) // 2)),
                                 rx_surface.center, rx_surface, tx_grid, wave)
    return np.concatenate([half, np.conj(half[-2::-1])]), (), len(half)


def _band_edge(box, tx_surface, wave, extent):
    """Padded per-axis in-plane wavenumber band of the correlation, rad/m.

    The largest |k_u| and |k_v| over rays from the transmit corners to the
    corners of the receive-plane ``box``, each padded by BAND_PAD_LOBES
    Fejer half widths.
    """
    k = wavenumber_component(corners(box)[:, None, :], corners(tx_surface)[None, :, :],
                             box, wave)
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
    rays from the transmit corners to the corners of the lag box (the
    receive surface grown to cover the lag points), padded by two Fejer
    main-lobe half widths (4 pi / extent each).  The spacing is capped at a
    quarter wavelength, its value at grazing incidence (k_band >= k0).
    Counts are forced odd so the lattice is centered and the transform is
    real.  Before any lag is placed, a transmit node within 0.1 wavelengths
    of the lag box raises SingularKernelError, a lattice over
    DEFAULT_MATRIX_BUDGET lags ResourceError, and an automatic one under 3
    lags per axis GeometryError.

    When the scene holds both receive mirrors of ``mirror_axes``, g is real
    and evaluated on one lag per orbit of the mirrors, plus the swap when
    the lattice has equal counts and spacings: 2,556 of the 19,881 lags of
    a 141 x 141 lattice on a coaxial square link, each by
    ``_two_mirror_correlation`` where the transmit grid
    ``half_turn_reverses``.  Otherwise the first half of the lattice is
    evaluated by the complex sum, and conj(g(delta)) fills in -delta.  The
    diagnostics record the mirrors used (``symmetry``) and
    ``evaluated_lags``.
    """
    coherence = _coherence_scales(rx_surface, tx_grid.surface, wave)
    extent_u, extent_v = _normalize_pair(
        lag_extent, tuple(DEFAULT_EXTENT_COHERENCE_UNITS * c for c in coherence), "lag_extent")
    if not (0.0 < extent_u < np.inf and 0.0 < extent_v < np.inf):
        raise ValueError("lag extents must be positive and finite")
    # the receive aperture grown to hold every lag point c +/- delta/2
    box = replace(rx_surface, length_u=max(rx_surface.length_u, 0.5 * extent_u),
                  length_v=max(rx_surface.length_v, 0.5 * extent_v))
    check_separation(box_distances(box, tx_grid.points).min(), wave)
    k_band = _band_edge(box, tx_grid.surface, wave, (extent_u, extent_v))
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
    g, folded_by, evaluated = _autocorrelation_lattice((iu * du, iv * dv), rx_surface,
                                                       tx_grid, wave)
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
            "symmetry": list(folded_by),
            "evaluated_lags": evaluated,
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
    the configuration as non-stationary.  The probes about all five points
    are one sweep.
    """
    coh = min(_coherence_scales(rx_surface, tx_grid.surface, wave))
    probes = np.array([[0.0, 0.0], [0.5 * coh, 0.0], [0.0, 0.5 * coh]])
    references = np.vstack([rx_surface.center, corners(rx_surface)])
    mod = np.abs(_autocorrelation_many(np.tile(probes, (5, 1)), np.repeat(references, 3, axis=0),
                                       rx_surface, tx_grid, wave)).reshape(5, 3)
    worst = float(np.max(np.abs(mod[1:] - mod[0]) / mod[0]))
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
