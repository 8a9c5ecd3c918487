"""Surface frames, quadrature grids, and intersection detection."""

import dataclasses

import numpy as np
import pytest

from edof.errors import GeometryError
from edof.geometry import (
    QuadratureGrid,
    discretize,
    global_point,
    local_point,
    make_surface,
    quadrature_rule,
    rotation_about,
    surfaces_intersect,
)


def test_identity_frame_surface():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    assert np.allclose(s.tangent_u, [1.0, 0.0, 0.0])
    assert np.allclose(s.normal, [0.0, 0.0, 1.0])
    assert s.area == pytest.approx(1.0, rel=1e-15)


def test_half_turn_about_u_flips_normal():
    s = make_surface((0.0, 0.0, 0.0), rotation_about((1.0, 0.0, 0.0), np.pi), 1.0, 2.0)
    assert np.allclose(s.normal, [0.0, 0.0, -1.0], atol=1e-12)


def test_reflection_matrix_rejected():
    with pytest.raises(GeometryError):
        make_surface((0.0, 0.0, 0.0), np.diag([1.0, 1.0, -1.0]), 1.0, 1.0)


def test_non_orthonormal_matrix_rejected():
    bad = np.eye(3)
    bad[0, 0] = 1.1
    with pytest.raises(GeometryError):
        make_surface((0.0, 0.0, 0.0), bad, 1.0, 1.0)


@pytest.mark.parametrize("lu,lv", [(0.0, 1.0), (1.0, -2.0)])
def test_non_positive_lengths_rejected(lu, lv):
    with pytest.raises(GeometryError):
        make_surface((0.0, 0.0, 0.0), np.eye(3), lu, lv)


def test_frame_vectors_are_orthonormal_after_construction():
    r = rotation_about((1.0, 2.0, -0.5), 0.7)
    s = make_surface((3.0, -1.0, 2.0), r, 0.4, 0.9)
    frame = np.column_stack([s.tangent_u, s.tangent_v, s.normal])
    assert np.allclose(frame.T @ frame, np.eye(3), atol=1e-12)
    assert np.allclose(np.cross(s.tangent_u, s.tangent_v), s.normal, atol=1e-12)


def test_single_cell_midpoint_grid():
    s = make_surface((1.0, 2.0, 3.0), np.eye(3), 2.0, 3.0)
    g = discretize(s, 1, 1)
    assert len(g) == 1
    assert np.allclose(g.points[0], [1.0, 2.0, 3.0])
    assert g.weights[0] == pytest.approx(6.0, rel=1e-15)


def test_four_cell_weights():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    g = discretize(s, 2, 2)
    assert np.allclose(g.weights, 0.25)


def test_gauss_rule_integrates_quartics_exactly():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.4, 0.8)
    g = discretize(s, 3, 3, rule="gauss-legendre")
    a, b = g.local_coords[:, 0], g.local_coords[:, 1]
    estimate = float(np.sum(g.weights * a ** 2 * b ** 2))
    exact = (1.4 ** 3 / 12.0) * (0.8 ** 3 / 12.0)
    assert estimate == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n_u,n_v", [(0, 4), (4, 0), (-1, 3)])
def test_non_positive_grid_counts_rejected(n_u, n_v):
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    with pytest.raises(GeometryError):
        discretize(s, n_u, n_v)


def test_unknown_rule_rejected():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    with pytest.raises(ValueError):
        discretize(s, 2, 2, rule="simpson")


@pytest.mark.parametrize("rule", ["midpoint", "gauss-legendre"])
@pytest.mark.parametrize("n_u,n_v", [(1, 1), (2, 3), (7, 5)])
def test_weights_sum_to_area_and_points_stay_in_plane(rule, n_u, n_v):
    r = rotation_about((0.3, -1.0, 0.2), 1.1)
    s = make_surface((0.5, -2.0, 4.0), r, 0.7, 1.3)
    g = discretize(s, n_u, n_v, rule=rule)
    assert len(g) == n_u * n_v
    assert np.all(g.weights > 0.0)
    assert float(np.sum(g.weights)) == pytest.approx(s.area, rel=1e-10)
    offsets = (g.points - s.center) @ s.normal
    assert np.max(np.abs(offsets)) < 1e-12


def test_node_ordering_is_u_major():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 3.0, 4.0)
    g = discretize(s, 3, 4)
    expected_a = np.array([-1.0, 0.0, 1.0])
    expected_b = np.array([-1.5, -0.5, 0.5, 1.5])
    for iu in range(3):
        for iv in range(4):
            a, b = g.local_coords[iu * 4 + iv]
            assert a == pytest.approx(expected_a[iu], abs=1e-15)
            assert b == pytest.approx(expected_b[iv], abs=1e-15)


def test_global_point_center_and_edge():
    r = rotation_about((0.0, 0.0, 1.0), 0.4)
    s = make_surface((1.0, 1.0, 1.0), r, 2.0, 1.0)
    assert np.allclose(global_point(s, (0.0, 0.0)), s.center)
    edge = global_point(s, (1.0, 0.0))
    assert np.allclose(edge, s.center + s.tangent_u)


def test_global_point_out_of_bounds():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 2.0, 1.0)
    with pytest.raises(GeometryError):
        global_point(s, (1.5, 0.0))


def test_local_global_round_trip():
    r = rotation_about((1.0, -0.3, 0.8), 2.2)
    s = make_surface((0.2, 5.0, -1.0), r, 0.9, 1.7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        local = rng.uniform(-0.5, 0.5, size=2) * np.array([0.9, 1.7])
        recovered = local_point(s, global_point(s, local))
        assert np.allclose(recovered, local, atol=1e-12)


def test_coplanar_overlapping_surfaces_intersect():
    s1 = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    s2 = make_surface((0.4, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    assert surfaces_intersect(s1, s2)


def test_parallel_offset_surfaces_do_not_intersect():
    s1 = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    s2 = make_surface((0.0, 0.0, 0.001), np.eye(3), 1.0, 1.0)
    assert not surfaces_intersect(s1, s2)


def test_perpendicular_crossing_surfaces_intersect():
    s1 = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    s2 = make_surface((0.0, 0.0, 0.0), rotation_about((1.0, 0.0, 0.0), np.pi / 2), 1.0, 1.0)
    assert surfaces_intersect(s1, s2)


def test_perpendicular_clear_surfaces_do_not_intersect():
    s1 = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    s2 = make_surface((0.0, 0.0, 2.0), rotation_about((1.0, 0.0, 0.0), np.pi / 2), 1.0, 1.0)
    assert not surfaces_intersect(s1, s2)


def test_surface_is_immutable():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.length_u = 2.0


def test_grid_invariants_enforced():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    x, w = quadrature_rule(1.0, 2, "midpoint")
    with pytest.raises(GeometryError):
        QuadratureGrid(s, (x, -w), (x, w))
    with pytest.raises(GeometryError):
        QuadratureGrid(s, (x, 2.0 * w), (x, w))


@pytest.mark.parametrize("rule", ["midpoint", "gauss-legendre"])
@pytest.mark.parametrize("n_u,n_v", [(1, 1), (1, 4), (3, 2), (6, 7), (9, 9)])
def test_grid_is_the_tensor_product_of_its_rules(rule, n_u, n_v):
    """The derived lattice is, bit for bit, the meshgrid, column stack, outer
    product and point sum of the two 1-D rules."""
    s = make_surface((0.5, -2.0, 4.0), rotation_about((0.3, -1.0, 0.2), 1.1), 0.7, 1.3)
    (xu, wu), (xv, wv) = quadrature_rule(0.7, n_u, rule), quadrature_rule(1.3, n_v, rule)
    g = QuadratureGrid(s, (xu, wu), (xv, wv))
    A, B = np.meshgrid(xu, xv, indexing="ij")
    local = np.column_stack([A.ravel(), B.ravel()])
    points = (s.center[None, :] + local[:, :1] * s.tangent_u[None, :]
              + local[:, 1:] * s.tangent_v[None, :])
    assert g.shape == (n_u, n_v) and len(g) == n_u * n_v
    assert np.array_equal(g.local_coords, local)
    assert np.array_equal(g.weights, np.outer(wu, wv).ravel())
    assert np.array_equal(g.points, points)
    assert np.array_equal(discretize(s, n_u, n_v, rule=rule).points, points)


def test_discretize_records_lattice_shape():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 2.0)
    assert discretize(s, 3, 5).shape == (3, 5)
    assert discretize(s, 4, 2, rule="gauss-legendre").shape == (4, 2)


@pytest.mark.parametrize("shape", [(2, 3), (4, 2), (1, 0), (0, 0)])
def test_grid_rejects_shape_not_matching_point_count(shape):
    """A rule needs as many weights as nodes, and at least one of each."""
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    n_nodes, n_weights = shape
    rule = (np.linspace(-0.4, 0.4, n_nodes), np.full(n_weights, 1.0 / max(n_weights, 1)))
    with pytest.raises(GeometryError, match="nodes and weights"):
        QuadratureGrid(s, rule, quadrature_rule(1.0, 2, "midpoint"))
