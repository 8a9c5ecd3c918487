"""Kernel evaluation and weighted operator assembly."""

import numpy as np
import pytest

from edof.errors import DimensionError, GeometryError, SingularKernelError
from edof.geometry import discretize, make_surface, rotation_about, sector_axes
import edof.kernel
from edof.cutset import bandwidth_field
from edof.kernel import (
    BLOCK_PAIRS,
    VACUUM_IMPEDANCE_OHM,
    WaveConfig,
    adjoint_identity_residual,
    assemble_operator,
    green_kernel,
    hilbert_schmidt_norm,
    node_distances,
    row_blocks,
)
from edof.landau import wavenumber_response

from conftest import APERTURE, DISTANCE, WAVELENGTH


def test_wave_config_derives_wavenumber_exactly():
    w = WaveConfig(wavelength=0.01)
    assert w.k0 * w.wavelength == pytest.approx(2.0 * np.pi, rel=1e-15)


@pytest.mark.parametrize("wavelength", [0.0, -1.0])
def test_wave_config_rejects_non_positive_parameters(wavelength):
    with pytest.raises(ValueError):
        WaveConfig(wavelength=wavelength)


def test_kernel_modulus_at_unit_distance():
    w = WaveConfig(wavelength=0.01)
    value = green_kernel((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), w)
    assert abs(value) == pytest.approx(VACUUM_IMPEDANCE_OHM / (2.0 * 0.01 * 1.0), rel=1e-12)
    assert abs(value) == pytest.approx(18836.5156834, rel=1e-9)


def test_kernel_phase_at_whole_wavelength_multiples():
    w = WaveConfig(wavelength=0.01)
    value = green_kernel((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), w)  # d = 100 wavelengths
    assert value.imag > 0.0
    assert abs(value.real) <= 1e-9 * abs(value)
    assert value.imag == pytest.approx(abs(value), rel=1e-12)


def test_kernel_symmetric_under_point_exchange():
    w = WaveConfig(wavelength=0.03)
    a = np.array([0.1, -0.4, 2.0])
    b = np.array([-1.0, 0.2, 0.5])
    assert green_kernel(a, b, w) == green_kernel(b, a, w)


def test_kernel_rejects_coincident_points():
    w = WaveConfig(wavelength=0.01)
    with pytest.raises(SingularKernelError):
        green_kernel((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), w)


def test_kernel_broadcasts_over_point_arrays():
    w = WaveConfig(wavelength=0.02)
    rx = np.zeros((4, 3))
    tx = np.column_stack([np.zeros(5), np.zeros(5), np.linspace(1.0, 2.0, 5)])
    values = green_kernel(rx[:, None, :], tx[None, :, :], w)
    assert values.shape == (4, 5)
    assert values[2, 3] == green_kernel(rx[2], tx[3], w)


def _point_system(distance, area_tx=1.0, area_rx=1.0):
    wave = WaveConfig(wavelength=0.01)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), area_tx, area_tx)
    rx = make_surface((0.0, 0.0, distance), np.eye(3), area_rx, area_rx)
    return discretize(tx, 1, 1), discretize(rx, 1, 1), wave


def test_single_point_operator_entry():
    g_tx, g_rx, wave = _point_system(2.0, area_tx=0.5, area_rx=0.25)
    op = assemble_operator(g_tx, g_rx, wave)
    k = green_kernel(g_rx.points[0], g_tx.points[0], wave)
    expected = np.sqrt(g_rx.weights[0]) * k * np.sqrt(g_tx.weights[0])
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0] == pytest.approx(expected, rel=1e-15)
    s = np.linalg.svd(op.matrix, compute_uv=False)
    assert s[0] ** 2 == pytest.approx(abs(k) ** 2 * g_tx.weights[0] * g_rx.weights[0],
                                      rel=1e-12)


def test_assembly_matches_direct_weighting(small_grids, small_operator, wave):
    g_tx, g_rx = small_grids
    direct = (np.sqrt(g_rx.weights)[:, None]
              * green_kernel(g_rx.points[:, None, :], g_tx.points[None, :, :], wave)
              * np.sqrt(g_tx.weights)[None, :])
    assert np.allclose(small_operator.matrix, direct, rtol=1e-13, atol=0.0)


def test_assembly_rejects_intersecting_surfaces():
    wave = WaveConfig(wavelength=0.01)
    s1 = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    # overlapping, and coincident: the coincident grids hold both receive
    # mirrors and share every node, and the intersection is still reported
    # before any kernel is evaluated
    for rx_center in ((0.2, 0.0, 0.0), (0.0, 0.0, 0.0)):
        s2 = make_surface(rx_center, np.eye(3), 1.0, 1.0)
        with pytest.raises(GeometryError):
            assemble_operator(discretize(s1, 2, 2), discretize(s2, 2, 2), wave)


def test_assembly_rejects_sub_wavelength_separation():
    # 0.05 wavelengths apart; the 6 x 5 grids hold both receive mirrors, so
    # only their fundamental rows are evaluated, and the mirrors keep every
    # distance
    wave = WaveConfig(wavelength=0.01)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    rx = make_surface((0.0, 0.0, 0.0005), np.eye(3), 1.0, 1.0)
    for counts in ((1, 1), (6, 5)):
        g_tx, g_rx = discretize(tx, *counts), discretize(rx, *counts)
        assert sector_axes(g_tx, g_rx) == (2, 3)
        with pytest.raises(SingularKernelError):
            assemble_operator(g_tx, g_rx, wave)


def test_swapped_operator_is_transpose_with_equal_spectrum(small_grids, small_operator, wave):
    g_tx, g_rx = small_grids
    swapped = assemble_operator(g_rx, g_tx, wave)
    assert np.allclose(swapped.matrix, small_operator.matrix.T, rtol=1e-13, atol=0.0)
    s_fwd = np.linalg.svd(small_operator.matrix, compute_uv=False)
    s_bwd = np.linalg.svd(swapped.matrix, compute_uv=False)
    assert np.allclose(s_fwd, s_bwd, rtol=1e-10)


def test_adjoint_residual_zero_input(small_operator):
    n_rx, n_tx = small_operator.matrix.shape
    assert adjoint_identity_residual(small_operator, np.zeros(n_tx), np.zeros(n_rx)) == 0.0


def test_adjoint_residual_dimension_check(small_operator):
    n_rx, n_tx = small_operator.matrix.shape
    with pytest.raises(DimensionError):
        adjoint_identity_residual(small_operator, np.zeros(n_rx + 1), np.zeros(n_rx))


def test_adjoint_residual_hundred_random_pairs():
    wave = WaveConfig(wavelength=0.01)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.5, 0.5)
    rx = make_surface((0.0, 0.0, 10.0), np.eye(3), 0.5, 0.5)
    op = assemble_operator(discretize(tx, 10, 10), discretize(rx, 10, 10), wave)
    norm_a = np.sqrt(hilbert_schmidt_norm(op))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        g = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        residual = adjoint_identity_residual(op, f, g)
        worst = max(worst, residual / (np.linalg.norm(f) * np.linalg.norm(g) * norm_a))
    assert worst <= 1e-12


def test_hilbert_schmidt_norm_single_point():
    g_tx, g_rx, wave = _point_system(3.0, area_tx=0.5, area_rx=2.0)
    op = assemble_operator(g_tx, g_rx, wave)
    k = green_kernel(g_rx.points[0], g_tx.points[0], wave)
    assert hilbert_schmidt_norm(op) == pytest.approx(
        abs(k) ** 2 * g_tx.weights[0] * g_rx.weights[0], rel=1e-12)


def test_hilbert_schmidt_norm_equals_singular_value_sum(small_operator):
    s = np.linalg.svd(small_operator.matrix, compute_uv=False)
    assert hilbert_schmidt_norm(small_operator) == pytest.approx(float(np.sum(s * s)),
                                                                 rel=1e-10)


def test_hilbert_schmidt_norm_converges_under_refinement(anchor_surfaces, wave):
    tx, rx = anchor_surfaces
    coarse = hilbert_schmidt_norm(assemble_operator(
        discretize(tx, 30, 30), discretize(rx, 30, 30), wave))
    fine = hilbert_schmidt_norm(assemble_operator(
        discretize(tx, 60, 60), discretize(rx, 60, 60), wave))
    assert abs(fine - coarse) / fine < 0.01


def test_top_spectrum_drift_between_coarse_grids(anchor_surfaces, wave):
    """Doubling 20x20 grids moves the top modes by under 2.5% individually.

    The tenth value converges slowest; measured drift is 1.9% on its own
    scale and under 1% of the leading value for every mode.
    """
    tx, rx = anchor_surfaces

    def top10(n):
        op = assemble_operator(discretize(tx, n, n), discretize(rx, n, n), wave)
        s = np.linalg.svd(op.matrix, compute_uv=False)
        return (s * s)[:10]

    coarse, fine = top10(20), top10(40)
    per_mode = np.abs(fine - coarse) / fine
    vs_leading = np.abs(fine - coarse) / fine[0]
    assert float(per_mode.max()) < 0.025
    assert float(vs_leading.max()) < 0.01


def test_assembly_deterministic_for_fixed_grids(small_grids, wave):
    g_tx, g_rx = small_grids
    a = assemble_operator(g_tx, g_rx, wave).matrix
    b = assemble_operator(g_tx, g_rx, wave).matrix
    assert np.array_equal(a, b)


def test_rotated_scene_has_same_singular_values(wave):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.3, 0.3)
    rx = make_surface((0.0, 0.0, 5.0), np.eye(3), 0.3, 0.3)
    r = rotation_about((0.2, 1.0, 0.4), 1.3)
    frame = lambda s: np.column_stack([s.tangent_u, s.tangent_v, s.normal])
    tx_r = make_surface(r @ tx.center, r @ frame(tx), 0.3, 0.3)
    rx_r = make_surface(r @ rx.center, r @ frame(rx), 0.3, 0.3)
    s1 = np.linalg.svd(assemble_operator(discretize(tx, 8, 8), discretize(rx, 8, 8),
                                         wave).matrix, compute_uv=False)
    s2 = np.linalg.svd(assemble_operator(discretize(tx_r, 8, 8), discretize(rx_r, 8, 8),
                                         wave).matrix, compute_uv=False)
    assert np.allclose(s1, s2, rtol=1e-10)


@pytest.mark.parametrize("n_rows,n_cols", [
    (0, 10), (1, 1), (1000, 3), (1000, 1600), (5, BLOCK_PAIRS + 1), (3, 4 * BLOCK_PAIRS),
])
def test_row_blocks_cover_every_row_once(n_rows, n_cols):
    blocks = list(row_blocks(n_rows, n_cols))
    assert [i for b in blocks for i in range(n_rows)[b]] == list(range(n_rows))
    for b in blocks:
        rows = b.stop - b.start
        assert rows >= 1
        assert rows * n_cols <= BLOCK_PAIRS or rows == 1


def test_node_distances_match_norm_and_reject_close_pairs():
    wave = WaveConfig(wavelength=0.01)
    rng = np.random.default_rng(5)
    for n_points, n_nodes in [(1, 1), (1, 40), (40, 1), (7, 5)]:
        points = rng.standard_normal((n_points, 3))
        nodes = rng.standard_normal((n_nodes, 3)) + 10.0
        d = node_distances(points, nodes, wave)
        expected = np.linalg.norm(points[:, None, :] - nodes[None, :, :], axis=-1)
        assert d.shape == (n_points, n_nodes)
        np.testing.assert_array_max_ulp(d, expected, maxulp=1)
    near = nodes[2] + np.array([0.0, 0.0, 0.05 * wave.wavelength])
    with pytest.raises(SingularKernelError):
        node_distances(np.vstack([points, near]), nodes, wave)


@pytest.mark.parametrize("n_points", [1, 9])
def test_node_distances_separation_message_on_any_block(n_points):
    wave = WaveConfig(wavelength=0.01)
    nodes = discretize(make_surface((0.0, 0.0, 0.0), np.eye(3), 0.2, 0.2), 4, 4).points
    points = nodes[:n_points] + (0.0, 0.0, 1.0)
    points[-1] = nodes[5] + (0.0, 0.0, 0.05 * wave.wavelength)
    with pytest.raises(SingularKernelError,
                       match=r"evaluation points come within 5\.000e-04 m of the grid "
                             r"nodes, below 0\.1 wavelengths \(1\.000e-03 m\)"):
        node_distances(points, nodes, wave)


def test_node_distances_sum_like_einsum():
    """The per-axis sum keeps the einsum order of the difference-tensor
    form, so assembly and the lag correlation stay bit for bit the same."""
    rng = np.random.default_rng(11)
    for n_points, n_nodes in [(1, 1), (1, 300), (81, 300), (300, 3)]:
        points = rng.uniform(-1.0, 1.0, (n_points, 3)) * 10.0 ** rng.integers(-2, 3)
        nodes = rng.uniform(-1.0, 1.0, (n_nodes, 3)) + (0.0, 0.0, 10.0)
        diff = points[:, None, :] - nodes[None, :, :]
        expected = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        assert np.array_equal(node_distances(points, nodes, WaveConfig(0.01)), expected)


def test_green_kernel_shares_the_assembly_distance():
    """One distance formula: the broadcast kernel and the assembled operator
    agree entry for entry, bit for bit."""
    wave = WaveConfig(wavelength=0.01)
    tx = make_surface((0.0, 0.0, 0.0), rotation_about((1.0, 0.0, 0.0), 0.4), 0.3, 0.2)
    rx = make_surface((0.2, -0.1, 2.0), np.eye(3), 0.2, 0.3)
    g_tx, g_rx = discretize(tx, 5, 4), discretize(rx, 3, 6)
    k = green_kernel(g_rx.points[:, None, :], g_tx.points[None, :, :], wave)
    entries = assemble_operator(g_tx, g_rx, wave).matrix
    weighted = np.sqrt(g_rx.weights)[:, None] * k * np.sqrt(g_tx.weights)[None, :]
    assert np.array_equal(entries, weighted)


def test_block_budget_changes_no_result(monkeypatch):
    """Block sizes change memory use, not values.

    Assembly is elementwise, so every entry is bitwise equal; on the coaxial
    scene the mirrored rows are copies of those entries.  The bandwidth
    field and the lag correlation end each block with a BLAS matrix-vector
    product, whose accumulation order for a row depends on how many rows
    share the call; those agree to round-off.
    """
    wave = WaveConfig(wavelength=WAVELENGTH)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.1, 0.05, 3.0), rotation_about((1.0, 1.0, 0.0), 0.3),
                      0.4, 0.3)
    coaxial = make_surface((0.0, 0.0, 3.0), np.eye(3), 0.4, 0.3)
    g_tx, g_rx = discretize(tx, 13, 11), discretize(rx, 9, 7)
    g_coaxial = discretize(coaxial, 9, 8)
    assert sector_axes(g_tx, g_coaxial) is not None  # the folded assembly

    def results():
        return (assemble_operator(g_tx, g_rx, wave).matrix,
                assemble_operator(g_tx, g_coaxial, wave).matrix,
                bandwidth_field(g_tx, g_rx, wave).values,
                wavenumber_response(rx, g_tx, wave, lag_grid=(21, 15),
                                    lag_extent=0.5).H_values)

    default = results()
    monkeypatch.setattr(edof.kernel, "BLOCK_PAIRS", 7)
    assert list(row_blocks(3, 4)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    tiny = results()
    assert np.array_equal(tiny[0], default[0])
    assert np.array_equal(tiny[1], default[1])
    for got, want in zip(tiny[2:], default[2:]):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())
