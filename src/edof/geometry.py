"""Planar rectangular apertures and quadrature grids.

A surface is a flat rectangle in R^3 described by its center, an orthonormal
tangent frame (tangent_u, tangent_v) and the side lengths along the two
tangent axes; its normal n = tangent_u x tangent_v is derived from the frame.
Local coordinates (a, b) are measured from the center, so
a in [-length_u/2, length_u/2] and b in [-length_v/2, length_v/2].

A quadrature grid is a surface and two 1-D rules, one per tangent axis:
nodes and positive weights.  Their tensor product gives the 2-D nodes and
weights, so sum(w_i * f(p_i)) approximates the surface integral of f.
Supported rules are the midpoint (uniform cell) rule and Gauss-Legendre.
``surfaces_intersect`` decides from the two rectangles' ``corners`` whether
they share a point, and ``box_distances`` measures points against one.
Every rectangle is a surface, the Landau lag box included.

A link's symmetry is decided here, in one place, for all three estimators.
``mirror_axes`` names the reflections of the receive frame that map a grid
onto itself, and ``axis_pairing`` pairs the axes of parallel, aligned
planes, to the one tolerance PAIRING_TOL.  ``link_symmetry`` keeps what the
estimators read of a (transmit grid, receive grid) pair in one record: the
reflections both grids hold (the cut-set field's fold), the pairing, and
the parity-sector axes and the u <-> v swap that the fold and the pairing
give together (operator assembly and the spectrum).  ``frame_coords``
projects points into a surface frame, and on a paired link
``squared_offsets`` gives the squared offsets of receive points from
transmit nodes as one small table per axis, which kernel.plane_distances
reads for the cut-set field and every Landau sum.  ``lattice_orbits`` folds
a u-major lattice by the reflections its caller says hold.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

# Frame vectors must satisfy orthonormality to this absolute tolerance.
FRAME_TOL = 1e-12
# Largest miss of the frame overlap at which two frames pair (axis_pairing).
# The ``squared_offsets`` tables drop the overlap's off-pair entries, moving
# each offset by about the miss times the aperture size.  8 eps keeps that
# within the offsets' rounding and pairs every rigid motion (under 4 eps in
# 20,000); at FRAME_TOL, Landau sums on a 0.2 m link miss their bound 3x.
PAIRING_TOL = 8.0 * np.finfo(float).eps
# Rotation matrices supplied by callers may be slightly off; they are
# re-orthonormalized, but rejected beyond this tolerance.
ROTATION_TOL = 1e-10
# Relative tolerance for the weight-sum == area check.
WEIGHT_SUM_RTOL = 1e-10
# Separating-axis test: tangent crossings shorter than this are parallel
# tangents and give no axis, and a gap must exceed this many meters.
INTERSECT_TOL = 1e-12
# Largest node displacement, relative to the size of the apertures or the
# lattice, up to which a reflection still counts as mapping a grid onto
# itself.  Rounding leaves about 1e-13 on rigidly moved coaxial scenes; a
# 1 um shift of a 0.5 m aperture is 2e-6.
SYMMETRY_RTOL = 1e-11
# Reflections of a receive frame (ru, rv) about its center, by the unit
# normal of the mirror plane in (ru, rv) components: "u" takes a -> -a, "v"
# takes b -> -b, and "swap" exchanges a and b.
MIRRORS = {"u": (1.0, 0.0), "v": (0.0, 1.0), "swap": (np.sqrt(0.5), -np.sqrt(0.5))}


def _on_side(x, length):
    """|x| <= length / 2 elementwise, with a 1e-12 relative slack so boundary
    points survive round-off."""
    return np.abs(x) <= 0.5 * length * (1.0 + 1e-12)


def _as_unit(vec, name):
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise GeometryError(f"{name} must be a 3-vector, got shape {v.shape}")
    n = np.linalg.norm(v)
    if not abs(n - 1.0) <= FRAME_TOL:   # NaN fails
        raise GeometryError(f"{name} is not unit length (|v| = {float(n)!r})")
    return v


@dataclass(frozen=True)
class PlanarSurface:
    """Oriented rectangle: center, orthonormal tangent frame, side lengths."""

    center: np.ndarray
    tangent_u: np.ndarray
    tangent_v: np.ndarray
    length_u: float
    length_v: float
    normal: np.ndarray = field(init=False)   # tangent_u x tangent_v

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (3,) or not np.isfinite(self.center).all():
            raise GeometryError(f"center must be a 3-vector of finite coordinates, "
                                f"got {self.center}")
        for name in ("tangent_u", "tangent_v"):
            object.__setattr__(self, name, _as_unit(getattr(self, name), name))
        if abs(self.tangent_u @ self.tangent_v) > FRAME_TOL:
            raise GeometryError("tangent_u and tangent_v are not orthogonal")
        object.__setattr__(self, "normal", np.cross(self.tangent_u, self.tangent_v))
        if not (0.0 < self.length_u < np.inf and 0.0 < self.length_v < np.inf):
            raise GeometryError(f"side lengths must be positive and finite, got "
                                f"({self.length_u}, {self.length_v})")

    @property
    def area(self) -> float:
        return self.length_u * self.length_v


def make_surface(center, rotation, length_u, length_v) -> PlanarSurface:
    """Build a surface from a center and a rotation matrix.

    The columns of ``rotation`` map the reference axes to (tangent_u,
    tangent_v, normal).  The matrix must be orthonormal with determinant +1
    to within 1e-10; the frame is then re-orthonormalized so the surface
    invariants hold to machine precision.
    """
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise GeometryError(f"rotation must be 3x3, got shape {r.shape}")
    # finiteness first: a NaN matrix is not orthonormal, and det would warn
    if not (np.isfinite(r).all() and np.max(np.abs(r.T @ r - np.eye(3))) <= ROTATION_TOL):
        raise GeometryError("rotation matrix is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        raise GeometryError("rotation matrix must have determinant +1 (no reflections)")
    u = r[:, 0] / np.linalg.norm(r[:, 0])
    v = r[:, 1] - (r[:, 1] @ u) * u
    v /= np.linalg.norm(v)
    return PlanarSurface(center=np.asarray(center, dtype=float), tangent_u=u, tangent_v=v,
                         length_u=float(length_u), length_v=float(length_v))


def rotation_about(axis, angle) -> np.ndarray:
    """Rotation matrix for a right-handed rotation by ``angle`` about ``axis``."""
    a = np.asarray(axis, dtype=float)
    na = np.linalg.norm(a)
    if a.shape != (3,) or na == 0.0:
        raise GeometryError("rotation axis must be a nonzero 3-vector")
    a = a / na
    c, s = np.cos(angle), np.sin(angle)
    cross = np.array([[0.0, -a[2], a[1]],
                      [a[2], 0.0, -a[0]],
                      [-a[1], a[0], 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(a, a)


@dataclass(frozen=True)
class QuadratureGrid:
    """A surface sampled by the tensor product of two 1-D quadrature rules.

    ``rule_u`` and ``rule_v`` are (nodes, weights) pairs along tangent_u and
    tangent_v: strictly increasing local coordinates from the center, within
    the side, and positive weights.  The u-major lattice (index = iu * n_v +
    iv) is derived from them once: ``shape`` is (n_u, n_v), ``points`` the
    global 3-space positions, and ``weights`` the products w_u[iu] * w_v[iv],
    which sum to the surface area.
    """

    surface: PlanarSurface
    rule_u: tuple[np.ndarray, np.ndarray]
    rule_v: tuple[np.ndarray, np.ndarray]
    shape: tuple[int, int] = field(init=False)
    points: np.ndarray = field(init=False)        # (N, 3)
    weights: np.ndarray = field(init=False)       # (N,)

    def __post_init__(self):
        for name, length in (("rule_u", self.surface.length_u),
                             ("rule_v", self.surface.length_v)):
            nodes, weights = (np.asarray(x, dtype=float) for x in getattr(self, name))
            if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
                raise GeometryError(f"{name} needs nodes and weights of one nonzero length")
            if not (np.all(np.diff(nodes) > 0.0) and np.all(_on_side(nodes, length))):
                raise GeometryError(f"{name} nodes must increase strictly and lie "
                                    f"on the side of length {length}")
            if not np.all(weights > 0.0):
                raise GeometryError("quadrature weights must be strictly positive")
            object.__setattr__(self, name, (nodes, weights))
        (xu, wu), (xv, wv) = self.rule_u, self.rule_v
        weights = np.outer(wu, wv).ravel()
        area = self.surface.area
        if abs(weights.sum() - area) > WEIGHT_SUM_RTOL * area:
            raise GeometryError("quadrature weights do not sum to the surface area")
        a, b = (x.reshape(-1, 1) for x in np.meshgrid(xu, xv, indexing="ij"))
        s = self.surface
        points = (s.center[None, :] + a * s.tangent_u[None, :]
                  + b * s.tangent_v[None, :])
        for name, value in (("shape", (xu.size, xv.size)), ("points", points),
                            ("weights", weights)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.points.shape[0]


def quadrature_rule(length, n, rule):
    """(nodes, weights) of an n-node 1-D rule on [-length/2, length/2]."""
    if rule == "midpoint":
        x = (np.arange(n) + 0.5) * (length / n) - length / 2.0
        w = np.full(n, length / n)
    elif rule == "gauss-legendre":
        xi, wi = np.polynomial.legendre.leggauss(n)
        x = 0.5 * length * xi
        w = 0.5 * length * wi
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    return x, w


def discretize(surface: PlanarSurface, n_u: int, n_v: int,
               rule: str = "midpoint") -> QuadratureGrid:
    """Tensor-product quadrature grid with n_u x n_v nodes.

    Node ordering is u-major: index = iu * n_v + iv.
    """
    if not all(isinstance(n, numbers.Real) and 1 <= n < np.inf and int(n) == n
               for n in (n_u, n_v)):
        raise GeometryError(f"grid counts must be positive integers, got ({n_u}, {n_v})")
    return QuadratureGrid(surface, quadrature_rule(surface.length_u, int(n_u), rule),
                          quadrature_rule(surface.length_v, int(n_v), rule))


def global_point(surface: PlanarSurface, local) -> np.ndarray:
    """Map local (a, b) coordinates to a global 3-space point.

    Coordinates must lie within the rectangle (boundary included).
    """
    ab = np.asarray(local, dtype=float)
    if ab.shape != (2,):
        raise GeometryError("local coordinates must be a 2-vector")
    a, b = ab
    if not (_on_side(a, surface.length_u) and _on_side(b, surface.length_v)):
        raise GeometryError(f"local point ({a}, {b}) outside the surface")
    return surface.center + a * surface.tangent_u + b * surface.tangent_v


def corners(surface: PlanarSurface) -> np.ndarray:
    """(4, 3) corners of a surface."""
    return np.array([surface.center + su * 0.5 * surface.length_u * surface.tangent_u
                     + sv * 0.5 * surface.length_v * surface.tangent_v
                     for su in (-1.0, 1.0) for sv in (-1.0, 1.0)])


def frame_coords(points, surface: PlanarSurface) -> np.ndarray:
    """(..., 3) coordinates of (..., 3) points along tangent_u, tangent_v and
    the normal of a surface, about its center."""
    return (points - surface.center) @ np.array(
        [surface.tangent_u, surface.tangent_v, surface.normal]).T


def box_distances(surface: PlanarSurface, points) -> np.ndarray:
    """Distances from (N, 3) points to the rectangle of a surface."""
    gaps = np.abs(frame_coords(points, surface)) \
        - (0.5 * surface.length_u, 0.5 * surface.length_v, 0.0)
    return np.linalg.norm(np.maximum(gaps, 0.0), axis=1)


def surfaces_intersect(s1: PlanarSurface, s2: PlanarSurface) -> bool:
    """True when the two rectangles share at least one point (touching counts).

    Separating-axis test (Gottschalk, Lin & Manocha, SIGGRAPH 1996): two
    rectangles are disjoint exactly when their corners, projected onto one
    of the unit normals, the tangents or the tangent x tangent crossings,
    leave a gap.  Crossings of parallel tangents give no axis, and a gap
    must exceed INTERSECT_TOL meters.
    """
    tangents = np.array([s1.tangent_u, s1.tangent_v, s2.tangent_u, s2.tangent_v])
    crossings = np.cross(tangents[:2, None, :], tangents[None, 2:, :]).reshape(4, 3)
    norms = np.linalg.norm(crossings, axis=1)
    kept = norms >= INTERSECT_TOL
    axes = np.vstack([s1.normal, s2.normal, tangents,
                      crossings[kept] / norms[kept, None]])
    proj = (np.vstack([corners(s1), corners(s2)]) @ axes.T).reshape(2, 4, -1)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    return not np.any(np.maximum(lo[1] - hi[0], lo[0] - hi[1]) > INTERSECT_TOL)


def _signed_permutation(index, q):
    """Flat node map of a u-major lattice ``index`` under the local-coordinate
    map (a, b) -> q (a, b), with q rounded to a signed permutation.  None when
    q rounds to none, or to a swap of the axes of a lattice that is not square."""
    p = np.rint(q).astype(int)
    if p[0, 1] == p[1, 0] == 0 and abs(p[0, 0]) == abs(p[1, 1]) == 1:
        return index[::p[0, 0], ::p[1, 1]].ravel()
    if p[0, 0] == p[1, 1] == 0 and abs(p[0, 1]) == abs(p[1, 0]) == 1 \
            and index.shape[0] == index.shape[1]:
        # node (i, j) goes to (j or n-1-j, i or n-1-i)
        return index.T[::p[1, 0], ::p[0, 1]].ravel()
    return None


def mirror_axes(tx_grid: QuadratureGrid, rx_surface: PlanarSurface) -> tuple[str, ...]:
    """The names, in MIRRORS order, of the receive-frame reflections that map
    the transmit grid, nodes and weights, onto itself.

    Each reflection is about the receive center and maps the receive plane
    onto itself, keeping every point distance and the cut-set Jacobian.  One
    is kept when every reflected transmit node lands on a node of equal
    weight, to SYMMETRY_RTOL of the largest aperture side; nothing else is
    assumed, so a receiver turned by 45 degrees in front of a square
    transmitter keeps all three.
    """
    tx = tx_grid.surface
    tangents = np.column_stack([tx.tangent_u, tx.tangent_v])
    index = np.arange(len(tx_grid)).reshape(tx_grid.shape)
    offsets = tx_grid.points - rx_surface.center
    held = []
    for name, (cu, cv) in MIRRORS.items():
        e = cu * rx_surface.tangent_u + cv * rx_surface.tangent_v
        image = tx_grid.points - 2.0 * np.outer(offsets @ e, e)
        # the reflection in transmit local coordinates, about the tx center
        mapped = _signed_permutation(index, tangents.T @ (
            tangents - 2.0 * np.outer(e, e @ tangents)))
        if mapped is not None and _lands_on(tx_grid, rx_surface, image, mapped):
            held.append(name)
    return tuple(held)


def half_turn_reverses(tx_grid: QuadratureGrid, rx_surface: PlanarSurface) -> bool:
    """Whether the half turn about the receive normal through the receive
    center maps transmit node i onto node N-1-i of equal weight, to the
    tolerance of ``mirror_axes``.

    The half turn is the u-mirror composed with the v-mirror.  A transmit
    grid that holds both mirrors on a plane parallel to the receive plane
    reverses its flat u-major index under it.  On a transmit plane that
    contains the receive normal the half turn is a reflection within that
    plane, and a grid holds both mirrors without it.  Landau's two-mirror
    correlation is the one reader, so ``LinkSymmetry`` does not carry it.
    """
    frame = np.array([rx_surface.tangent_u, rx_surface.tangent_v])
    image = tx_grid.points - 2.0 * ((tx_grid.points - rx_surface.center) @ frame.T) @ frame
    return _lands_on(tx_grid, rx_surface, image, np.arange(len(tx_grid))[::-1])


def _lands_on(tx_grid, rx_surface, image, mapped):
    """Whether each transmit node's ``image`` lies on node ``mapped`` of
    equal weight, to SYMMETRY_RTOL of the largest aperture side."""
    tx = tx_grid.surface
    tol = SYMMETRY_RTOL * max(tx.length_u, tx.length_v,
                              rx_surface.length_u, rx_surface.length_v)
    return bool(np.max(np.abs(image - tx_grid.points[mapped])) <= tol
                and np.all(np.abs(tx_grid.weights[mapped] - tx_grid.weights)
                           <= SYMMETRY_RTOL * tx_grid.weights))


def axis_pairing(tx_surface: PlanarSurface, rx_surface: PlanarSurface):
    """The receive axis along transmit u and the one along transmit v (0 for
    u, 1 for v), or None.

    Not None exactly when the planes are parallel and the frame overlap
    G = [[ru.tu, ru.tv], [rv.tu, rv.tv]] is a signed permutation, both to
    PAIRING_TOL: frames aligned, or the receiver turned by a multiple of 90
    degrees.  Then each in-plane offset of a point pair along a receive axis
    depends on one receive and one transmit coordinate only.  The pairing is
    its own inverse, so pairing[0] is also the transmit axis along receive u.
    """
    overlap = np.array([rx_surface.tangent_u, rx_surface.tangent_v, rx_surface.normal]) \
        @ np.column_stack([tx_surface.tangent_u, tx_surface.tangent_v])
    signs = np.rint(overlap)
    if np.max(np.abs(overlap - signs)) > PAIRING_TOL or signs[2].any():
        return None
    return tuple(int(np.flatnonzero(c)[0]) for c in signs.T)


def paired_overlap(tx_surface: PlanarSurface, rx_surface: PlanarSurface, pairing):
    """(g_0, g_1), g_m the overlap of transmit axis m with its paired receive
    axis pairing[m]: the entries of G that the pairing rounds to +1 or -1."""
    rx_axes = (rx_surface.tangent_u, rx_surface.tangent_v)
    return tuple(rx_axes[k] @ t for t, k in zip((tx_surface.tangent_u, tx_surface.tangent_v),
                                                 pairing))


def squared_offsets(tx_grid: QuadratureGrid, rx_surface: PlanarSurface, rx_coords, pairing):
    """Squared in-plane offsets of receive points from transmit nodes on a
    link with an ``axis_pairing``, one table per transmit axis, the first
    also holding the squared height H^2 of the transmit center over the
    receive plane.

    ``rx_coords`` holds receive coordinates per receive axis, about the
    receive center.  Table m holds, at [i, j], the squared offset along
    receive axis k = pairing[m] from transmit coordinate j on axis m to
    receive coordinate rx_coords[k][i], so the squared distance of a pair is
    the sum of one entry of each table, (x^2 + H^2) + y^2.  Offsets are
    taken about the receive center, so rounding does not grow with the
    scene's distance from the origin.  Both tables read NaN when the largest
    squared distance overflows.
    """
    tx = tx_grid.surface
    offset = frame_coords(tx.center, rx_surface)
    a, b = (rx_coords[k][:, None] - (offset[k] + g * nodes[None, :])
            for g, (nodes, _), k in zip(paired_overlap(tx, rx_surface, pairing),
                                        (tx_grid.rule_u, tx_grid.rule_v), pairing))
    a *= a
    a += offset[2] ** 2
    b *= b
    if not np.isfinite(a.max() + b.max()):
        a.fill(np.nan)
        b.fill(np.nan)
    return a, b


@dataclass(frozen=True)
class LinkSymmetry:
    """What the estimators read of a link's symmetry; see ``link_symmetry``."""

    fold: tuple[str, ...]                  # receive reflections both grids hold
    sectors: tuple[int, int, bool] | None  # (u-mirror's tx axis, v-mirror's, swap)
    pairing: tuple[int, int] | None        # axis_pairing: rx axis along tx u, along tx v


def link_symmetry(tx_grid: QuadratureGrid, rx_grid: QuadratureGrid) -> LinkSymmetry:
    """The symmetry of the link between two grids, in one record.

    ``fold`` names the MIRRORS reflections of the receive frame that map
    both grids, nodes and weights, onto themselves, each grid tested by
    ``mirror_axes``.  Each keeps every point distance and maps receive
    nodes onto receive nodes.  The receive weights must match for the
    sectors' sake, whose rows carry sqrt(w_rx); the cut-set field, which
    folds by ``fold`` too, reads only the receive nodes, so a receive grid
    with mirrored nodes but uneven weights merely folds by less.

    ``pairing`` is the ``axis_pairing`` of the two surfaces.

    ``sectors`` is not None exactly when the fold holds both mirrors and the
    pairing is not None.  It names the axes of the (rx_u, rx_v, tx_u, tx_v)
    coupling array that the u- and the v-mirror flip, 2 + pairing[0] and
    2 + pairing[1]: row (n_u-1-i, j) is row (i, j) with the transmit axis
    along receive u reversed, and likewise along v, so the first ceil(n/2)
    receive rows per axis determine the rest.  Its swap is True when the
    fold also holds the swap, which on aligned frames exchanges the transmit
    axes: row (j, i) is then row (i, j) with the transmit axes exchanged, on
    the diagonal when the two ``paired_overlap`` signs agree and on the
    anti-diagonal when they differ.
    """
    rx = rx_grid.surface
    on_rx = mirror_axes(rx_grid, rx)
    fold = tuple(name for name in mirror_axes(tx_grid, rx) if name in on_rx)
    pairing = axis_pairing(tx_grid.surface, rx)
    return LinkSymmetry(
        fold=fold,
        sectors=(2 + pairing[0], 2 + pairing[1], "swap" in fold)
        if pairing is not None and {"u", "v"} <= set(fold) else None,
        pairing=pairing)


@dataclass(frozen=True)
class LatticeFold:
    """One node per orbit of a lattice's symmetry group, and the way back.

    Values invariant under the group satisfy values == values[nodes][gather].
    """

    nodes: np.ndarray           # flat indices of the orbit minima, ascending
    gather: np.ndarray          # (N,) position in nodes of each node's orbit


def lattice_orbits(shape, generators) -> LatticeFold:
    """Fold the u-major lattice of ``shape`` (n_u, n_v) to the first node of
    each orbit of the group ``generators`` generate.

    The generators are named as the MIRRORS reflections: "u" (node (i, j) to
    (n_u-1-i, j)), "v" and "swap" ((i, j) to (j, i), on a square lattice).
    The caller decides that each holds; an empty set folds nothing.
    """
    views = {"u": lambda a: a[::-1, :], "v": lambda a: a[:, ::-1], "swap": lambda a: a.T}
    # each generator is an involution, so the fixed point holds each orbit's
    # smallest index on all of its nodes
    rep = np.arange(shape[0] * shape[1]).reshape(shape)
    while True:
        low = rep
        for name in generators:
            low = np.minimum(low, views[name](low))
        if np.array_equal(low, rep):
            break
        rep = low
    rep = rep.ravel()
    nodes = np.flatnonzero(rep == np.arange(rep.size))
    return LatticeFold(nodes=nodes, gather=np.searchsorted(nodes, rep))
