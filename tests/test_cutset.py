"""Wavenumber map, local bandwidth, and the cut-set DoF estimate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edof.cutset import (
    bandwidth_field,
    box_support,
    cutset_edof,
    empty_support,
    filter_field,
    full_support,
    isotropic_bandwidth,
    jacobian_det,
    local_bandwidth,
    set_measure_bandwidth,
    wavenumber_component,
)
from edof.errors import DiagnosticWarning, DimensionError, GeometryError, SingularKernelError
from edof.geometry import QuadratureGrid, discretize, make_surface, mirror_axes, rotation_about
from edof import kernel
from edof.kernel import WaveConfig, assemble_operator
from edof.spectrum import count_edof, coupling_spectrum

from conftest import APERTURE, DISTANCE, PARAXIAL_BANDWIDTH, PARAXIAL_EDOF, WAVELENGTH


@pytest.fixture(scope="module")
def rx_plane():
    return make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)


def test_wavenumber_vanishes_at_broadside(rx_plane, wave):
    k = wavenumber_component((0.0, 0.0, DISTANCE), (0.0, 0.0, 0.0), rx_plane, wave)
    assert np.allclose(k, 0.0, atol=1e-12)


def test_wavenumber_reaches_k0_at_grazing(rx_plane, wave):
    k = wavenumber_component((1.0, 0.0, DISTANCE), (0.0, 0.0, DISTANCE), rx_plane, wave)
    assert k[0] == pytest.approx(wave.k0, rel=1e-15)
    assert k[1] == 0.0


def test_wavenumber_at_forty_five_degrees(rx_plane, wave):
    k = wavenumber_component((1.0, 0.0, DISTANCE), (0.0, 0.0, DISTANCE - 1.0),
                             rx_plane, wave)
    assert k[0] == pytest.approx(wave.k0 / np.sqrt(2.0), rel=1e-14)
    assert abs(k[1]) < 1e-12


def test_wavenumber_magnitude_bounded_by_k0(rx_plane, wave):
    rng = np.random.default_rng(5)
    tx_points = rng.uniform(-3.0, 3.0, size=(200, 3))
    k = wavenumber_component(np.array([0.2, -0.1, DISTANCE]), tx_points,
                             rx_plane, wave)
    assert k.shape == (200, 2)
    assert np.all(np.linalg.norm(k, axis=-1) <= wave.k0 * (1.0 + 1e-12))


def test_wavenumber_rejects_coincident_points(rx_plane, wave):
    with pytest.raises(SingularKernelError):
        wavenumber_component((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), rx_plane, wave)


def test_jacobian_broadside_closed_form(anchor_surfaces, wave):
    tx, rx = anchor_surfaces
    det = jacobian_det(rx.center, (0.0, 0.0), tx, rx, wave)
    assert det == pytest.approx((wave.k0 / DISTANCE) ** 2, rel=1e-12)
    assert det == pytest.approx(3947.8417604357433, rel=1e-12)


def test_jacobian_inverse_square_distance_scaling(anchor_surfaces, wave):
    tx, _ = anchor_surfaces
    near = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    far = make_surface((0.0, 0.0, 10.0 * DISTANCE), np.eye(3), APERTURE, APERTURE)
    d_near = jacobian_det(near.center, (0.0, 0.0), tx, near, wave)
    d_far = jacobian_det(far.center, (0.0, 0.0), tx, far, wave)
    assert d_near / d_far == pytest.approx(100.0, rel=1e-12)


def test_jacobian_rejects_receive_point_on_transmit_surface(anchor_surfaces, wave):
    tx, rx = anchor_surfaces
    with pytest.raises(SingularKernelError):
        jacobian_det(tx.center, (0.0, 0.0), tx, rx, wave)


def test_jacobian_analytic_matches_central_difference(wave):
    rng = np.random.default_rng(17)
    for _ in range(20):
        tx = make_surface(rng.uniform(-1.0, 1.0, 3), rotation_about(
            rng.uniform(-1.0, 1.0, 3), rng.uniform(0.0, np.pi)), 0.4, 0.6)
        rx_center = tx.center + tx.normal * rng.uniform(5.0, 15.0) \
            + rng.uniform(-1.0, 1.0, 3)
        rx = make_surface(rx_center, rotation_about(
            rng.uniform(-1.0, 1.0, 3), rng.uniform(0.0, np.pi)), 0.5, 0.5)
        local = (rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3))
        r_rx = rx.center + 0.1 * rx.tangent_u
        analytic = jacobian_det(r_rx, local, tx, rx, wave)
        numeric = jacobian_det(r_rx, local, tx, rx, wave,
                               method="central-difference", step=1e-5)
        assert numeric == pytest.approx(analytic, rel=1e-6)


def test_jacobian_rejects_bad_method_and_step(anchor_surfaces, wave):
    tx, rx = anchor_surfaces
    with pytest.raises(ValueError):
        jacobian_det(rx.center, (0.0, 0.0), tx, rx, wave, method="forward")
    with pytest.raises(ValueError):
        jacobian_det(rx.center, (0.0, 0.0), tx, rx, wave,
                     method="central-difference", step=0.0)


def test_local_bandwidth_at_anchor_center(anchor_grids, wave):
    tx_grid, rx_grid = anchor_grids
    w = local_bandwidth(rx_grid.surface.center, tx_grid, rx_grid.surface, wave)
    assert w == pytest.approx(986.1392048334455, rel=1e-9)
    assert w == pytest.approx(PARAXIAL_BANDWIDTH, rel=0.01)


def test_local_bandwidth_scales_with_transmit_area(anchor_grids, wave):
    _, rx_grid = anchor_grids
    quarter = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE / 2.0, APERTURE / 2.0)
    w_quarter = local_bandwidth(rx_grid.surface.center, discretize(quarter, 20, 20),
                                rx_grid.surface, wave)
    w_full = local_bandwidth(rx_grid.surface.center, anchor_grids[0],
                             rx_grid.surface, wave)
    assert w_quarter == pytest.approx(w_full / 4.0, rel=0.02)


def test_local_bandwidth_single_node(anchor_surfaces, wave):
    tx, rx = anchor_surfaces
    grid = discretize(tx, 1, 1)
    w = local_bandwidth(rx.center, grid, rx, wave)
    det = jacobian_det(rx.center, (0.0, 0.0), tx, rx, wave)
    assert w == pytest.approx(det * grid.weights[0], rel=1e-14)


def test_set_measure_single_node_occupies_one_cell(anchor_surfaces, wave):
    tx, rx = anchor_surfaces
    grid = discretize(tx, 1, 1)
    w = set_measure_bandwidth(rx.center, grid, rx, wave, resolution=0.7)
    assert w == pytest.approx(0.49, rel=1e-15)


def test_set_measure_non_increasing_under_dyadic_refinement(anchor_grids, wave):
    tx_grid, rx_grid = anchor_grids
    r0 = 4.0
    measures = [set_measure_bandwidth(rx_grid.surface.center, tx_grid,
                                      rx_grid.surface, wave, r0 / 2 ** i)
                for i in range(4)]
    assert all(a >= b for a, b in zip(measures, measures[1:]))


def test_set_measure_agrees_with_jacobian_integral(anchor_surfaces, wave):
    # outer measure needs samples much denser than the occupancy cells
    tx, rx = anchor_surfaces
    dense = discretize(tx, 192, 192)
    span = wave.k0 * APERTURE / DISTANCE
    sm = set_measure_bandwidth(rx.center, dense, rx, wave, resolution=span / 64.0)
    jac = local_bandwidth(rx.center, discretize(tx, 40, 40), rx, wave)
    assert abs(sm - jac) / jac < 0.05


def test_set_measure_warns_on_unresolved_collapse(wave):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.01, 0.01)
    rx = make_surface((5.0, 5.0, 10.0), np.eye(3), 0.1, 0.1)
    with pytest.warns(DiagnosticWarning):
        set_measure_bandwidth(rx.center, discretize(tx, 2, 2), rx, wave,
                              resolution=1e6)


def _unique_cell_measure(r_rx, tx_grid, rx_surface, wave, resolution):
    """Reference: distinct occupancy cells of one rx node by np.unique."""
    k = wavenumber_component(r_rx, tx_grid.points, rx_surface, wave)
    cells = np.floor(k / resolution).astype(np.int64)
    return float(np.unique(cells, axis=0).shape[0]) * resolution ** 2


@pytest.mark.parametrize("block_pairs", [None, 3 * 63])
def test_set_measure_field_equals_node_by_node(wave, monkeypatch, block_pairs):
    if block_pairs is not None:   # two rx rows per block, last block short
        monkeypatch.setattr(kernel, "BLOCK_PAIRS", block_pairs)
    def check(tx, rx, resolutions):
        tx_grid, rx_grid = discretize(tx, 9, 7), discretize(rx, 5, 3)
        for resolution in resolutions:
            field = bandwidth_field(tx_grid, rx_grid, wave, method="set-measure",
                                    resolution=resolution)
            per_node = [set_measure_bandwidth(p, tx_grid, rx, wave, resolution)
                        for p in rx_grid.points]
            reference = [_unique_cell_measure(p, tx_grid, rx, wave, resolution)
                         for p in rx_grid.points]
            assert np.array_equal(field.values, per_node)
            assert np.array_equal(field.values, reference)
            assert field.symmetry == () and field.evaluated_nodes == len(rx_grid)
        assert len(set(field.values)) > 1
        return field

    check(make_surface((0.0, 0.0, 0.0), rotation_about((0.3, 1.0, 0.2), 0.4), 0.5, 0.4),
          make_surface((0.2, -0.1, 2.0), rotation_about((1.0, 0.1, 0.2), 0.2), 0.3, 0.3),
          (3.0, 20.0, 60.0))
    # A coaxial scene holds the u-mirror, but its set measure need not: with a
    # cell edge through the largest k_u, mirrored nodes floor differently.
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.5, 0.5)
    rx = make_surface((0.0, 0.0, 2.0), np.eye(3), 0.3, 0.3)
    tx_grid, rx_grid = discretize(tx, 9, 7), discretize(rx, 5, 3)
    k_u = wavenumber_component(rx_grid.points[:, None, :], tx_grid.points[None, :, :],
                               rx, wave)[..., 0]
    field = check(tx, rx, (3.0, 20.0, 60.0, float(k_u.max())))
    assert "u" in mirror_axes(tx_grid, rx)
    assert not np.array_equal(field.values.reshape(5, 3), field.values.reshape(5, 3)[::-1])


def test_set_measure_field_warns_once_per_collapsed_node(wave):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.01, 0.01)
    rx = make_surface((5.0, 5.0, 10.0), np.eye(3), 0.1, 0.1)
    tx_grid, rx_grid = discretize(tx, 2, 2), discretize(rx, 2, 3)
    with pytest.warns(DiagnosticWarning) as caught:
        bandwidth_field(tx_grid, rx_grid, wave, method="set-measure", resolution=1e6)
    assert len(caught) == len(rx_grid)
    assert all(w.filename == __file__ for w in caught)


def test_set_measure_rejects_non_positive_resolution(anchor_grids, wave):
    tx_grid, rx_grid = anchor_grids
    with pytest.raises(ValueError):
        set_measure_bandwidth(rx_grid.surface.center, tx_grid, rx_grid.surface,
                              wave, resolution=0.0)


def test_bandwidth_below_isotropic_bound(anchor_grids, wave):
    tx_grid, rx_grid = anchor_grids
    field = bandwidth_field(tx_grid, rx_grid, wave)
    assert np.all(field.values <= isotropic_bandwidth(wave))
    assert np.all(field.values > 0.0)


def test_bandwidth_field_input_validation(anchor_grids, wave):
    tx_grid, rx_grid = anchor_grids
    with pytest.raises(ValueError):
        bandwidth_field(tx_grid, rx_grid, wave, method="set-measure")
    with pytest.raises(ValueError):
        bandwidth_field(tx_grid, rx_grid, wave, method="histogram")


def test_bandwidth_field_rejects_coincident_nodes(wave):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    grid = discretize(tx, 4, 4)
    with pytest.raises(SingularKernelError, match="receive point lies on the transmit surface"):
        bandwidth_field(grid, grid, wave)


def test_jacobian_det_and_local_bandwidth_return_floats(anchor_grids, wave):
    tx_grid, rx_grid = anchor_grids
    center = rx_grid.surface.center
    assert type(jacobian_det(center, (0.1, -0.05), tx_grid.surface,
                             rx_grid.surface, wave)) is float
    assert type(local_bandwidth(center, tx_grid, rx_grid.surface, wave)) is float


def test_isotropic_bandwidth_closed_form():
    assert isotropic_bandwidth(WaveConfig(wavelength=2.0 * np.pi)) \
        == pytest.approx(np.pi, rel=1e-15)
    assert isotropic_bandwidth(WaveConfig(wavelength=WAVELENGTH)) \
        == pytest.approx(1240251.0672119928, rel=1e-12)


def test_cutset_edof_anchor_value(anchor_grids, wave):
    tx_grid, rx_grid = anchor_grids
    report = cutset_edof(bandwidth_field(tx_grid, rx_grid, wave))
    assert report.method == "cutset"
    assert report.n_edof == pytest.approx(6.2396118929650184, rel=1e-9)
    assert report.n_edof == pytest.approx(PARAXIAL_EDOF, rel=0.05)


def test_cutset_edof_tends_to_paraxial_closed_form():
    """Oracle: n_par = A_tx A_rx / (lambda d)^2 along a coaxial distance sweep.

    For parallel coaxial L x L squares at distance h, |det J| = k0^2 h^2 / |r - t|^4,
    so 1 - n_cut / n_par is the mean of 1 - (1 + u)^-2 = 2u - 3u^2 + ... over
    point pairs, u = |rho|^2 / h^2 with rho their lateral offset.  Its moments
    give (2/3)(1 - 1/n^2)(L/d)^2 - (17/30)(L/d)^4 on an n x n midpoint grid,
    which the sweep meets to 1.5e-3 relative (measured, at d = 2.5 m).  The gap
    is an obliquity effect: it does not depend on the wavelength.
    """
    n = 24
    gaps = []
    for d in (2.5, 5.0, 10.0, 20.0, 40.0):
        tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
        rx = make_surface((0.0, 0.0, d), np.eye(3), APERTURE, APERTURE)
        grids = discretize(tx, n, n), discretize(rx, n, n)
        n_par = APERTURE ** 4 / (WAVELENGTH * d) ** 2
        field = bandwidth_field(*grids, WaveConfig(wavelength=WAVELENGTH))
        gap = 1.0 - cutset_edof(field).n_edof / n_par
        u = (APERTURE / d) ** 2
        model = 2.0 / 3.0 * (1.0 - 1.0 / n ** 2) * u - 17.0 / 30.0 * u * u
        assert gap == pytest.approx(model, rel=2e-3)
        field = bandwidth_field(*grids, WaveConfig(wavelength=WAVELENGTH / 2.0))
        other = 1.0 - cutset_edof(field).n_edof / (4.0 * n_par)
        assert other == pytest.approx(gap, rel=1e-12)
        gaps.append(gap)
    assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1.1e-4


def test_cutset_edof_sixteen_fold_on_doubled_apertures(wave):
    tx2 = make_surface((0.0, 0.0, 0.0), np.eye(3), 2 * APERTURE, 2 * APERTURE)
    rx2 = make_surface((0.0, 0.0, DISTANCE), np.eye(3), 2 * APERTURE, 2 * APERTURE)
    doubled = cutset_edof(bandwidth_field(discretize(tx2, 40, 40), discretize(rx2, 40, 40),
                                          wave))
    assert doubled.n_edof / 6.2396118929650184 == pytest.approx(16.0, rel=0.03)


def test_cutset_edof_vanishes_with_aperture_area(wave):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.001, 0.001)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), 0.001, 0.001)
    report = cutset_edof(bandwidth_field(discretize(tx, 4, 4), discretize(rx, 4, 4), wave))
    assert report.n_edof < 1e-8


def test_cutset_edof_rigid_motion_invariant(wave):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    base = cutset_edof(bandwidth_field(discretize(tx, 12, 12), discretize(rx, 12, 12), wave))
    r = rotation_about((1.0, -0.5, 2.0), 0.9)
    shift = np.array([3.0, -7.0, 1.5])
    frame = lambda s: np.column_stack([s.tangent_u, s.tangent_v, s.normal])
    tx_m = make_surface(r @ tx.center + shift, r @ frame(tx), APERTURE, APERTURE)
    rx_m = make_surface(r @ rx.center + shift, r @ frame(rx), APERTURE, APERTURE)
    moved = cutset_edof(bandwidth_field(discretize(tx_m, 12, 12), discretize(rx_m, 12, 12),
                                         wave))
    assert moved.n_edof == pytest.approx(base.n_edof, rel=1e-9)


def test_cutset_edof_tracks_svd_count_when_modes_are_plentiful(wave):
    """At half the anchor distance the mode count is ~25 and the two
    estimates land within a fraction of a mode of each other."""
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, 5.0), np.eye(3), APERTURE, APERTURE)
    tx_grid, rx_grid = discretize(tx, 40, 40), discretize(rx, 40, 40)
    n_cut = cutset_edof(bandwidth_field(tx_grid, rx_grid, wave)).n_edof
    spec = coupling_spectrum(assemble_operator(tx_grid, rx_grid, wave))
    n_svd = count_edof(spec, 0.5, mode="relative")
    assert n_cut == pytest.approx(24.834838456088946, rel=1e-9)
    assert n_svd == 25
    assert abs(n_svd - n_cut) <= max(2.0, 0.2 * n_cut)


def test_filter_field_full_support_is_identity(wave):
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    grid = discretize(rx, 8, 8)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.allclose(filter_field(f, full_support(), grid), f, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(f)))
    assert np.allclose(filter_field(f, empty_support(), grid), 0.0, atol=1e-15)


def test_filter_field_box_support_keeps_dc_component(wave):
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    grid = discretize(rx, 8, 8)
    f = np.full(64, 2.5 + 0.5j)
    # a box around k = 0 passes the constant field untouched
    tight = box_support(-1.0, 1.0, -1.0, 1.0)
    assert np.allclose(filter_field(f, tight, grid), f, rtol=1e-12)


def test_filter_field_requires_uniform_lattice(wave):
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    gauss = discretize(rx, 8, 8, rule="gauss-legendre")
    with pytest.raises(GeometryError):
        filter_field(np.zeros(64), full_support(), gauss)


def test_filter_field_rejects_perturbed_or_misdeclared_lattice(wave):
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    grid = discretize(rx, 8, 8)
    nodes, weights = grid.rule_u
    nodes = nodes.copy()
    nodes[1] += 1e-3 * APERTURE / 8
    perturbed = QuadratureGrid(rx, (nodes, weights), grid.rule_v)
    with pytest.raises(GeometryError):
        filter_field(np.zeros(64), full_support(), perturbed)


def test_filter_field_checks_sample_count(wave):
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    grid = discretize(rx, 8, 8)
    with pytest.raises(DimensionError):
        filter_field(np.zeros(63), full_support(), grid)


def _three_vector_jacobian_dets(r_rx, tx_points, tx_surface, rx_surface, wave):
    """Reference: the Jacobian from unit ray vectors, (k0/d)^2 |det(G - c_r c_t^T)|."""
    diff = r_rx - tx_points
    d = np.linalg.norm(diff, axis=-1)
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


@st.composite
def tilted_scenes(draw):
    """Two apertures facing each other along z, each tilted up to 0.8 rad
    about an in-plane axis and turned freely about its normal."""
    sizes, counts = st.floats(0.05, 0.6), st.integers(1, 10)

    def frame():
        heading = draw(st.floats(0.0, 2.0 * np.pi))
        tilt = rotation_about((np.cos(heading), np.sin(heading), 0.0),
                              draw(st.floats(0.0, 0.8)))
        return tilt @ rotation_about((0.0, 0.0, 1.0), draw(st.floats(0.0, 2.0 * np.pi)))

    tx = make_surface((0.0, 0.0, 0.0), frame(), draw(sizes), draw(sizes))
    offset = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    rx = make_surface((*offset, draw(st.floats(1.0, 12.0))), frame(),
                      draw(sizes), draw(sizes))
    polar, azimuth = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    axis = (np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
            np.cos(polar))
    return (discretize(tx, draw(counts), draw(counts)),
            discretize(rx, draw(counts), draw(counts)),
            rotation_about(axis, draw(st.floats(0.0, 2.0 * np.pi))),
            np.array(draw(st.tuples(*[st.floats(-10.0, 10.0)] * 3))))


@given(tilted_scenes())
def test_tilted_scene_field_and_rigid_motion(wave, scene):
    tx_grid, rx_grid, rotation, shift = scene
    field = bandwidth_field(tx_grid, rx_grid, wave).values
    reference = _three_vector_jacobian_dets(
        rx_grid.points[:, None, :], tx_grid.points[None, :, :],
        tx_grid.surface, rx_grid.surface, wave) @ tx_grid.weights
    assert np.max(np.abs(field - reference) / reference) <= 1e-12

    def moved(grid):
        s = grid.surface
        frame = np.column_stack([s.tangent_u, s.tangent_v, s.normal])
        surface = make_surface(rotation @ s.center + shift, rotation @ frame,
                               s.length_u, s.length_v)
        return discretize(surface, *grid.shape)

    base = cutset_edof(bandwidth_field(tx_grid, rx_grid, wave)).n_edof
    motion = cutset_edof(bandwidth_field(moved(tx_grid), moved(rx_grid), wave)).n_edof
    assert motion == pytest.approx(base, rel=1e-12, abs=0.0)
