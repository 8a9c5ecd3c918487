"""Surface frames, quadrature grids, and intersection detection."""

import dataclasses

import numpy as np
import pytest

from edof.errors import GeometryError
from edof.geometry import (
    PlanarSurface,
    QuadratureGrid,
    corners,
    discretize,
    global_point,
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
    a, b = (x.ravel() for x in np.meshgrid(g.rule_u[0], g.rule_v[0], indexing="ij"))
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
            a, b = (g.points[iu * 4 + iv] - s.center) @ np.column_stack(
                [s.tangent_u, s.tangent_v])
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


ORIGIN, X, Y = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
DIAGONAL = (np.sqrt(0.5), np.sqrt(0.5), 0.0)
BAD_GEOMETRY = {
    "tangent-shape": (lambda: PlanarSurface(ORIGIN, (1.0, 0.0), Y, 1.0, 1.0),
                      "tangent_u must be a 3-vector"),
    "tangent-norm": (lambda: PlanarSurface(ORIGIN, X, (0.0, 2.0, 0.0), 1.0, 1.0),
                     r"tangent_v is not unit length \(\|v\| = 2\.0\)$"),
    "center-shape": (lambda: PlanarSurface((0.0, 0.0), X, Y, 1.0, 1.0),
                     "center must be a 3-vector"),
    "tangents-not-orthogonal": (lambda: PlanarSurface(ORIGIN, X, DIAGONAL, 1.0, 1.0),
                                "not orthogonal"),
    "rotation-not-3x3": (lambda: make_surface(ORIGIN, np.eye(2), 1.0, 1.0),
                         "rotation must be 3x3"),
    "zero-rotation-axis": (lambda: rotation_about(ORIGIN, 0.3),
                           "rotation axis must be a nonzero 3-vector"),
    "global-point-shape": (lambda: global_point(make_surface(ORIGIN, np.eye(3), 1.0, 1.0),
                                                ORIGIN),
                           "local coordinates must be a 2-vector"),
}


@pytest.mark.parametrize("case", sorted(BAD_GEOMETRY))
def test_malformed_geometry_arguments_rejected(case):
    build, message = BAD_GEOMETRY[case]
    with pytest.raises(GeometryError, match=message):
        build()


def test_local_global_round_trip():
    r = rotation_about((1.0, -0.3, 0.8), 2.2)
    s = make_surface((0.2, 5.0, -1.0), r, 0.9, 1.7)
    rng = np.random.default_rng(3)
    for _ in range(20):
        local = rng.uniform(-0.5, 0.5, size=2) * np.array([0.9, 1.7])
        offset = global_point(s, local) - s.center
        recovered = [offset @ s.tangent_u, offset @ s.tangent_v]
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


def _plane_line_intersect(s1, s2, tol=1e-12):
    """The earlier intersection test, kept as an oracle: clip the line where
    the two planes meet to each rectangle, or run a separating-axis test on
    the four edge axes of coplanar rectangles."""
    def interval(p0, e, surface):
        lo, hi = -np.inf, np.inf
        q = p0 - surface.center
        for tangent, length in ((surface.tangent_u, surface.length_u),
                                (surface.tangent_v, surface.length_v)):
            c0, ce, half = q @ tangent, e @ tangent, 0.5 * length
            if abs(ce) < 1e-15:
                if abs(c0) > half:
                    return None
                continue
            t0, t1 = (-half - c0) / ce, (half - c0) / ce
            lo, hi = max(lo, min(t0, t1)), min(hi, max(t0, t1))
        return None if lo > hi else (lo, hi)

    n1, n2 = s1.normal, s2.normal
    direction = np.cross(n1, n2)
    dn = np.linalg.norm(direction)
    if dn < 1e-12:
        if abs((s2.center - s1.center) @ n1) > tol:
            return False
        for ax in (s1.tangent_u, s1.tangent_v, s2.tangent_u, s2.tangent_v):
            r1 = (abs(ax @ s1.tangent_u) * s1.length_u
                  + abs(ax @ s1.tangent_v) * s1.length_v) / 2.0
            r2 = (abs(ax @ s2.tangent_u) * s2.length_u
                  + abs(ax @ s2.tangent_v) * s2.length_v) / 2.0
            if abs(ax @ (s2.center - s1.center)) > r1 + r2 + tol:
                return False
        return True
    e = direction / dn
    p0 = np.linalg.lstsq(np.vstack([n1, n2]),
                         np.array([n1 @ s1.center, n2 @ s2.center]), rcond=None)[0]
    iv1, iv2 = interval(p0, e, s1), interval(p0, e, s2)
    if iv1 is None or iv2 is None:
        return False
    return min(iv1[1], iv2[1]) - max(iv1[0], iv2[0]) >= -tol


PARALLEL_OFFSETS = (0.0, 1e-13, 5e-13, 2e-12, 1e-9, 1e-3)
EDGE_GAPS = (0.0, 1e-13, 1e-11, 1e-6)
PAIR_FAMILIES = ("random", "coplanar-turned", "parallel", "perpendicular", "edge-gap")
Z = (0.0, 0.0, 1.0)


def _pair(family, rng):
    """Two rectangles of the named family, drawn from ``rng``."""
    r1 = rotation_about(rng.normal(size=3), rng.uniform(0.0, 2.0 * np.pi))
    s1 = make_surface(rng.uniform(-1.0, 1.0, 3), r1, *rng.uniform(0.2, 1.5, 2))
    sides = rng.uniform(0.2, 1.5, 2)
    a, b = rng.uniform(-1.0, 1.0, 2)
    in_plane = s1.center + a * s1.tangent_u + b * s1.tangent_v
    turn = r1 @ rotation_about(Z, rng.uniform(0.0, 2.0 * np.pi))
    if family == "random":
        r2 = rotation_about(rng.normal(size=3), rng.uniform(0.0, 2.0 * np.pi))
        return s1, make_surface(s1.center + rng.uniform(-1.0, 1.0, 3), r2, *sides)
    if family == "coplanar-turned":
        return s1, make_surface(in_plane, turn, *sides)
    if family == "parallel":
        return s1, make_surface(in_plane + rng.choice(PARALLEL_OFFSETS) * s1.normal,
                                turn, *sides)
    if family == "perpendicular":
        phi = rng.uniform(0.0, 2.0 * np.pi)
        r2 = r1 @ rotation_about((np.cos(phi), np.sin(phi), 0.0), 0.5 * np.pi)
        return s1, make_surface(s1.center + rng.uniform(-1.0, 1.0, 3), r2, *sides)
    # coplanar, turned by a quarter-turn multiple, an edge gap apart along
    # one of s1's axes and shifted at random along the other
    quarters = int(rng.integers(4))
    reach = 0.5 * (np.array([s1.length_u, s1.length_v])
                   + (sides[::-1] if quarters % 2 else sides))
    axes, k = (s1.tangent_u, s1.tangent_v), int(rng.integers(2))
    shift = rng.choice((-1.0, 1.0)) * (reach[k] + rng.choice(EDGE_GAPS)) * axes[k] \
        + rng.uniform(-1.2, 1.2) * reach[1 - k] * axes[1 - k]
    return s1, make_surface(s1.center + shift,
                            r1 @ rotation_about(Z, 0.5 * np.pi * quarters), *sides)


@pytest.mark.parametrize("family", PAIR_FAMILIES)
def test_surfaces_intersect_matches_plane_line_oracle(family):
    rng = np.random.default_rng([10, PAIR_FAMILIES.index(family)])
    pairs = [_pair(family, rng) for _ in range(300)]
    want = [_plane_line_intersect(s1, s2) for s1, s2 in pairs]
    assert [surfaces_intersect(s1, s2) for s1, s2 in pairs] == want
    assert 0 < sum(want) < len(want)


def _square(center, rotation=np.eye(3)):
    return make_surface(center, rotation, 1.0, 1.0)


QUARTER_ABOUT_U = rotation_about((1.0, 0.0, 0.0), 0.5 * np.pi)
TOUCH_CASES = {
    # a gap up to 1e-12 m on every axis still touches
    "parallel": lambda h: _square((0.3, -0.2, h)),
    "coplanar-edge": lambda h: _square((1.0 + h, 0.4, 0.0)),
    "coplanar-corner": lambda h: _square((1.0 + h, 1.0 + h, 0.0)),
    "perpendicular-edge": lambda h: _square((0.1, 0.0, 0.5 + h), QUARTER_ABOUT_U),
    "perpendicular-t": lambda h: _square((0.0, 0.5 + h, 0.3), QUARTER_ABOUT_U),
}


@pytest.mark.parametrize("gap,touching", [(0.0, True), (5e-13, True),
                                          (2e-12, False), (1e-9, False)])
@pytest.mark.parametrize("case", sorted(TOUCH_CASES))
def test_surfaces_intersect_tolerance_is_1e12_m(case, gap, touching):
    s1, s2 = _square((0.0, 0.0, 0.0)), TOUCH_CASES[case](gap)
    assert surfaces_intersect(s1, s2) is touching
    assert surfaces_intersect(s2, s1) is touching


def test_corners_default_to_the_surface_and_take_half_sides():
    s = make_surface((1.0, 2.0, 3.0), rotation_about((0.0, 0.0, 1.0), 0.5 * np.pi), 2.0, 4.0)
    assert np.allclose(corners(s), [[3.0, 1.0, 3.0], [-1.0, 1.0, 3.0],
                                    [3.0, 3.0, 3.0], [-1.0, 3.0, 3.0]])
    assert np.allclose(corners(s, 0.5, 0.25), [[1.25, 1.5, 3.0], [0.75, 1.5, 3.0],
                                               [1.25, 2.5, 3.0], [0.75, 2.5, 3.0]])


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


@pytest.mark.parametrize("rule_u", [
    ([-5.0, 5.0], [0.5, 0.5]),         # 4.5 m off a 1 m square
    ([-0.5000001, 0.0], [0.5, 0.5]),   # just off the edge
    ([0.25, -0.25], [0.5, 0.5]),       # unsorted
    ([0.25, 0.25], [0.5, 0.5]),        # repeated
    ([-0.25, np.nan], [0.5, 0.5]),
], ids=["far-outside", "outside", "unsorted", "repeated", "nan"])
def test_grid_rejects_nodes_off_the_side_or_out_of_order(rule_u):
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    with pytest.raises(GeometryError, match="nodes must increase strictly"):
        QuadratureGrid(s, rule_u, ([-0.25, 0.25], [0.5, 0.5]))
    with pytest.raises(GeometryError, match="rule_v nodes"):
        QuadratureGrid(s, ([-0.25, 0.25], [0.5, 0.5]), rule_u)


def test_grid_accepts_nodes_on_the_edges():
    s = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.3, 0.7)
    g = QuadratureGrid(s, ([-0.15, 0.15], [0.15, 0.15]), ([-0.35, 0.35], [0.35, 0.35]))
    assert g.shape == (2, 2)


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
