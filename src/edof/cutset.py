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
from .geometry import (
    PlanarSurface,
    QuadratureGrid,
    global_point,
    lattice_orbits,
    mirror_axes,
    quadrature_rule,
)
from .kernel import WaveConfig, row_blocks
from .spectrum import EdofReport


@dataclass(frozen=True)
class LocalBandwidthField:
    """Local bandwidth W(r) sampled at the nodes of a receive grid."""

    rx_grid: QuadratureGrid
    values: np.ndarray   # (N_rx,) rad^2/m^2
    method: str          # "jacobian-integral" | "set-measure"
    symmetry: tuple[str, ...]  # mirror_axes reflections the field was folded by
    evaluated_nodes: int       # receive nodes W was computed at


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


def _jacobian_dets(points, nodes, tx_surface, rx_surface, wave):
    """|det d(kvec)/d(a, b)| for (M, 3) receive points by (N, 3) transmit
    nodes, as an (M, N) array.

    With D = r - t, d = |D|, X = D . (ru, rv), H = D . rn, Y = D . (tu, tv)
    and the frame overlap G = [[ru.tu, ru.tv], [rv.tu, rv.tv]], the
    differential is (k0/d) (G - X Y^T / d^2) up to sign, and the matrix
    determinant lemma gives, exactly,

        det = k0^2 |det(G) d^2 - Y^T adj(G) X| / d^4,   d^2 = |X|^2 + H^2.

    Y^T adj(G) X = X . Z with Z = D . (a1, a2), where a1 = G22 tu - G21 tv
    and a2 = G11 tv - G12 tu, so every pair term is an outer difference of
    per-point projections: no (M, N, 3) tensor and no square root.  The
    projections are taken about the receive center, so rounding does not
    grow with the scene's distance from the origin.
    """
    ru, rv, rn = rx_surface.tangent_u, rx_surface.tangent_v, rx_surface.normal
    tu, tv = tx_surface.tangent_u, tx_surface.tangent_v
    g11, g12, g21, g22 = ru @ tu, ru @ tv, rv @ tu, rv @ tv
    axes = np.column_stack([ru, rv, rn, g22 * tu - g21 * tv, g11 * tv - g12 * tu])
    p = ((points - rx_surface.center) @ axes).T
    # contiguous node rows: each is swept once per receive point
    t = ((nodes - rx_surface.center) @ axes).T.copy()
    x1, x2, h, z1, z2 = (p[k, :, None] - t[k, None, :] for k in range(5))
    d2 = x1 * x1
    d2 += x2 * x2
    d2 += h * h
    if np.any(d2 == 0.0):
        raise SingularKernelError("receive point lies on the transmit surface")
    z1 *= x1
    z2 *= x2
    z1 += z2
    det = np.multiply(d2, g11 * g22 - g12 * g21, out=x1)
    det -= z1
    np.abs(det, out=det)
    d2 *= d2
    det /= d2
    det *= np.float64(wave.k0) ** 2   # inf, not OverflowError, past 1e154 rad/m
    return det


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
        return float(_jacobian_dets(np.asarray(r_rx, dtype=float)[None, :],
                                    t_point[None, :], tx_surface, rx_surface,
                                    wave)[0, 0])
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
    dets = _jacobian_dets(np.asarray(r_rx, dtype=float)[None, :],
                          tx_grid.points, tx_grid.surface, rx_surface, wave)
    return float(dets[0] @ tx_grid.weights)


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
    """Local bandwidth at every receive node, by either estimator.

    The Jacobian integral is folded by the scene's symmetry: every
    ``mirror_axes`` reflection that the receive lattice also holds maps
    receive nodes onto receive nodes and leaves W unchanged, so W is
    computed at one node per orbit (820 of 6,400 on an 80 x 80 coaxial
    square link) and gathered to the rest.  A scene without symmetry
    evaluates every node, exactly as an unfolded sweep does.

    The set measure is never folded.  It floors each wavenumber onto an
    occupancy cell, and floor(-x) != -floor(x), so a mirrored node may fill
    a different number of cells; a 1-ulp move can flip one.
    """
    rx_surface = rx_grid.surface
    if method == "jacobian-integral":
        fold = lattice_orbits(rx_grid.rule_u[0], rx_grid.rule_v[0],
                              mirror_axes(tx_grid, rx_surface))
        points = rx_grid.points[fold.nodes]
        folded = np.empty(len(points))
        for rows in row_blocks(len(points), len(tx_grid)):
            dets = _jacobian_dets(points[rows], tx_grid.points,
                                  tx_grid.surface, rx_surface, wave)
            folded[rows] = dets @ tx_grid.weights
        return LocalBandwidthField(rx_grid=rx_grid, values=folded[fold.gather],
                                   method=method, symmetry=fold.symmetry,
                                   evaluated_nodes=len(points))
    if method != "set-measure":
        raise ValueError(f"unknown bandwidth method {method!r}")
    if resolution is None:
        raise ValueError("set-measure bandwidth needs an explicit resolution")
    values = np.empty(len(rx_grid))
    for rows in row_blocks(len(rx_grid), len(tx_grid)):
        values[rows] = _occupied_cells(rx_grid.points[rows], tx_grid,
                                       rx_surface, wave, resolution) \
            * resolution ** 2
    return LocalBandwidthField(rx_grid=rx_grid, values=values, method=method,
                               symmetry=(), evaluated_nodes=len(rx_grid))


def cutset_edof(field: LocalBandwidthField) -> EdofReport:
    """Cut-set DoF: (2 pi)^-2 times the rx-aperture integral of W(r).

    Invariant under rigid motions of the whole scene; scales with both
    aperture areas in the paraxial regime.
    """
    n = float(field.values @ field.rx_grid.weights) / (4.0 * np.pi ** 2)
    return EdofReport(method="cutset", n_edof=n)


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

    Raises GeometryError when either rule's nodes are not the midpoint nodes
    of its side (making FFT filtering ill-defined on the grid).
    """
    n_u, n_v = grid.shape
    du = grid.surface.length_u / n_u
    dv = grid.surface.length_v / n_v
    for (nodes, _), length in ((grid.rule_u, grid.surface.length_u),
                               (grid.rule_v, grid.surface.length_v)):
        midpoints = quadrature_rule(length, nodes.size, "midpoint")[0]
        if np.max(np.abs(nodes - midpoints)) > 1e-9 * max(du, dv):
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
