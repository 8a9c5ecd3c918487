"""Spatial-bandwidth (cut-set) estimate of effective degrees of freedom.

Every transmit point t seen from a receive point r contributes a local
spatial frequency: the projection of the arrival direction onto the receive
plane,

    kvec(r, t) = k0 * (rhat - n (rhat . n)),   rhat = (r - t) / |r - t|,

expressed below in the receive tangent frame as a 2-vector.  Sweeping t over
the transmit aperture fills a bounded wavenumber set whose Lebesgue measure
W(r) is the local bandwidth.  The cut-set DoF estimate integrates it over
the receive aperture:

    n_edof = (2 pi)^-2 * integral over rx of W(r) dr.

W(r) is computed two ways: integrating the |Jacobian| of the map t -> kvec
over the transmit aperture (exact for injective maps), and rasterizing the
mapped point set onto an occupancy grid (an outer measure, robust to folds).
The forward Fourier convention is exp(-j k . r); filtering a sampled field
to a wavenumber support set uses that convention on the FFT dual grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticWarning, DimensionError, GeometryError, SingularKernelError
from .geometry import PlanarSurface, QuadratureGrid, discretize, global_point
from .kernel import WaveConfig, row_blocks
from .spectrum import EdofReport


@dataclass(frozen=True)
class LocalBandwidthField:
    """Local bandwidth W(r) sampled at the nodes of a receive grid."""

    rx_grid: QuadratureGrid
    values: np.ndarray   # (N_rx,) rad^2/m^2
    method: str          # "jacobian-integral" | "set-measure"


def wavenumber_component(r_rx, r_tx, rx_surface: PlanarSurface,
                         wave: WaveConfig) -> np.ndarray:
    """In-plane wavenumber of the ray t -> r in the receive tangent frame.

    Broadcasts over leading axes of ``r_rx`` / ``r_tx``; returns (..., 2).
    The magnitude never exceeds k0 (equality at grazing incidence).
    """
    r = np.asarray(r_rx, dtype=float)
    t = np.asarray(r_tx, dtype=float)
    diff = r - t
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d == 0.0):
        raise SingularKernelError("receive and transmit points coincide")
    rhat = diff / d[..., None]
    # tangential projection: component along the normal drops out
    return wave.k0 * np.stack([rhat @ rx_surface.tangent_u,
                               rhat @ rx_surface.tangent_v], axis=-1)


def _jacobian_dets(r_rx, tx_points, tx_surface, rx_surface, wave):
    """|det d(kvec)/d(a, b)| at transmit points, vectorized.

    d(kvec)/da = -(k0/d) * u_rx . (I - rhat rhat^T) u_tx  and cyclic, so the
    determinant is (k0/d)^2 * det of the projected frame overlap matrix.
    """
    diff = np.asarray(r_rx, dtype=float) - tx_points
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d == 0.0):
        raise SingularKernelError("receive point lies on the transmit surface")
    rhat = diff / d[..., None]
    ru, rv = rx_surface.tangent_u, rx_surface.tangent_v
    tu, tv = tx_surface.tangent_u, tx_surface.tangent_v
    c_ru, c_rv = rhat @ ru, rhat @ rv
    c_tu, c_tv = rhat @ tu, rhat @ tv
    m11 = (ru @ tu) - c_ru * c_tu
    m12 = (ru @ tv) - c_ru * c_tv
    m21 = (rv @ tu) - c_rv * c_tu
    m22 = (rv @ tv) - c_rv * c_tv
    return (wave.k0 / d) ** 2 * np.abs(m11 * m22 - m12 * m21)


def jacobian_det(r_rx, tx_local, tx_surface: PlanarSurface,
                 rx_surface: PlanarSurface, wave: WaveConfig,
                 method: str = "analytic", step: float = 1e-5) -> float:
    """|Jacobian determinant| of the wavenumber map at one transmit point.

    ``method="analytic"`` uses the closed-form differential of the map;
    ``method="central-difference"`` differentiates wavenumber_component
    numerically with the given step, falling back to one-sided differences
    when a step would leave the surface.
    """
    t_point = global_point(tx_surface, tx_local)
    if method == "analytic":
        return float(_jacobian_dets(np.asarray(r_rx, dtype=float),
                                    t_point[None, :], tx_surface, rx_surface,
                                    wave)[0])
    if method != "central-difference":
        raise ValueError(f"method must be 'analytic' or 'central-difference', got {method!r}")
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    a, b = np.asarray(tx_local, dtype=float)
    half_u, half_v = 0.5 * tx_surface.length_u, 0.5 * tx_surface.length_v

    def k_at(aa, bb):
        return wavenumber_component(np.asarray(r_rx, dtype=float),
                                    global_point(tx_surface, (aa, bb)),
                                    rx_surface, wave)

    a_hi, a_lo = min(a + step, half_u), max(a - step, -half_u)
    b_hi, b_lo = min(b + step, half_v), max(b - step, -half_v)
    dk_da = (k_at(a_hi, b) - k_at(a_lo, b)) / (a_hi - a_lo)
    dk_db = (k_at(a, b_hi) - k_at(a, b_lo)) / (b_hi - b_lo)
    return float(abs(dk_da[0] * dk_db[1] - dk_da[1] * dk_db[0]))


def local_bandwidth(r_rx, tx_grid: QuadratureGrid, rx_surface: PlanarSurface,
                    wave: WaveConfig) -> float:
    """W(r): quadrature of the |Jacobian| of the wavenumber map over tx."""
    dets = _jacobian_dets(np.asarray(r_rx, dtype=float), tx_grid.points,
                          tx_grid.surface, rx_surface, wave)
    return float(dets @ tx_grid.weights)


def _occupied_cells(r_rows, tx_grid: QuadratureGrid, rx_surface: PlanarSurface,
                    wave: WaveConfig, resolution: float) -> np.ndarray:
    """Distinct occupancy cells of the mapped wavenumber set, per rx point.

    Sorts each row's (u, v) cell indices lexicographically and counts the
    changes; warns once per point whose set of nonzero spread collapsed
    into a single cell.
    """
    if not resolution > 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    k = wavenumber_component(np.asarray(r_rows, dtype=float)[:, None, :],
                             tx_grid.points[None, :, :], rx_surface, wave)
    cells = np.floor(k / resolution).astype(np.int64)
    order = np.lexsort((cells[..., 1], cells[..., 0]), axis=-1)
    ordered = np.take_along_axis(cells, order[..., None], axis=1)
    changes = np.any(np.diff(ordered, axis=1) != 0, axis=-1)
    occupied = 1 + np.count_nonzero(changes, axis=-1)
    spread = np.ptp(k, axis=1)
    for i in np.flatnonzero((occupied == 1) & np.any(spread > 0.0, axis=-1)):
        warnings.warn(
            f"wavenumber set of spread {tuple(spread[i])} rad/m collapsed into a "
            f"single cell at resolution {resolution}; measure is unresolved",
            DiagnosticWarning, stacklevel=3)
    return occupied


def set_measure_bandwidth(r_rx, tx_grid: QuadratureGrid,
                          rx_surface: PlanarSurface, wave: WaveConfig,
                          resolution: float) -> float:
    """W(r) as the rasterized outer measure of the mapped wavenumber set.

    Maps every transmit node to its wavenumber 2-vector, bins the points on
    a square grid of the given cell size, and returns occupied_cells *
    resolution^2.  Refining the resolution (with sampling dense enough to
    keep covering the set) converges to the measure from above.
    """
    occupied = _occupied_cells(np.asarray(r_rx, dtype=float)[None, :], tx_grid,
                               rx_surface, wave, resolution)
    return float(occupied[0]) * resolution ** 2


def bandwidth_field(tx_grid: QuadratureGrid, rx_grid: QuadratureGrid,
                    wave: WaveConfig, method: str = "jacobian-integral",
                    resolution: float | None = None) -> LocalBandwidthField:
    """Local bandwidth at every receive node, by either estimator."""
    rx_surface = rx_grid.surface
    values = np.empty(len(rx_grid))
    if method == "jacobian-integral":
        for rows in row_blocks(len(rx_grid), len(tx_grid)):
            dets = _jacobian_dets(rx_grid.points[rows, None, :],
                                  tx_grid.points[None, :, :],
                                  tx_grid.surface, rx_surface, wave)
            values[rows] = dets @ tx_grid.weights
    elif method == "set-measure":
        if resolution is None:
            raise ValueError("set-measure bandwidth needs an explicit resolution")
        for rows in row_blocks(len(rx_grid), len(tx_grid)):
            values[rows] = _occupied_cells(rx_grid.points[rows], tx_grid,
                                           rx_surface, wave, resolution) \
                * resolution ** 2
    else:
        raise ValueError(f"unknown bandwidth method {method!r}")
    return LocalBandwidthField(rx_grid=rx_grid, values=values, method=method)


def cutset_edof(tx_grid: QuadratureGrid, rx_grid: QuadratureGrid,
                wave: WaveConfig,
                field: LocalBandwidthField | None = None) -> EdofReport:
    """Cut-set DoF: (2 pi)^-2 times the rx-aperture integral of W(r).

    Invariant under rigid motions of the whole scene; scales with both
    aperture areas in the paraxial regime.  A precomputed bandwidth field
    on the same receive grid may be passed to avoid resampling.
    """
    if field is None:
        field = bandwidth_field(tx_grid, rx_grid, wave)
    elif field.rx_grid is not rx_grid:
        raise ValueError("precomputed bandwidth field belongs to a different receive grid")
    n = float(field.values @ rx_grid.weights) / (4.0 * np.pi ** 2)
    w_iso = isotropic_bandwidth(wave)
    return EdofReport(
        method="cutset", n_edof=n,
        diagnostics={
            "bandwidth_min": float(field.values.min()),
            "bandwidth_max": float(field.values.max()),
            "bandwidth_mean": float(field.values.mean()),
            "isotropic_bound": w_iso,
            "bandwidth_fraction_of_isotropic": float(field.values.max()) / w_iso,
        })


def isotropic_bandwidth(wave: WaveConfig) -> float:
    """Upper bound pi * k0^2: the full disk of propagating in-plane wavenumbers."""
    return float(np.pi * wave.k0 ** 2)


def full_support():
    """Wavenumber support covering the entire plane."""
    return lambda ku, kv: np.ones(np.broadcast(ku, kv).shape, dtype=bool)


def empty_support():
    """Empty wavenumber support."""
    return lambda ku, kv: np.zeros(np.broadcast(ku, kv).shape, dtype=bool)


def box_support(ku_lo, ku_hi, kv_lo, kv_hi):
    """Axis-aligned rectangular support, bounds inclusive."""
    return lambda ku, kv: ((ku >= ku_lo) & (ku <= ku_hi)
                           & (kv >= kv_lo) & (kv <= kv_hi))


def _uniform_lattice(grid: QuadratureGrid):
    """Shape and spacings of a u-major uniform midpoint lattice.

    Raises GeometryError when the grid's nodes are not the midpoint lattice
    of its shape (making FFT filtering ill-defined on it).
    """
    n_u, n_v = grid.shape
    du = grid.surface.length_u / n_u
    dv = grid.surface.length_v / n_v
    expected = discretize(grid.surface, n_u, n_v).local_coords
    if not np.allclose(grid.local_coords, expected, rtol=0.0,
                       atol=1e-9 * max(du, dv)):
        raise GeometryError("grid nodes are not a uniform u-major midpoint lattice")
    return n_u, n_v, du, dv


def filter_field(field_samples, support, rx_grid: QuadratureGrid) -> np.ndarray:
    """Band-limit a sampled receive field to a wavenumber support set.

    Transforms with the exp(-j k . r) forward convention on the FFT dual
    grid of the (uniform midpoint) receive lattice, zeroes every component
    outside ``support``, and transforms back.  The full-plane support is an
    identity; the empty support returns zero.
    """
    n_u, n_v, du, dv = _uniform_lattice(rx_grid)
    f = np.asarray(field_samples)
    if f.shape != (n_u * n_v,):
        raise DimensionError(
            f"field has shape {f.shape}, grid has {n_u * n_v} nodes")
    ku = 2.0 * np.pi * np.fft.fftfreq(n_u, d=du)
    kv = 2.0 * np.pi * np.fft.fftfreq(n_v, d=dv)
    mask = support(ku[:, None], kv[None, :])
    spectrum_2d = np.fft.fft2(f.reshape(n_u, n_v))
    return np.fft.ifft2(spectrum_2d * mask).ravel()
