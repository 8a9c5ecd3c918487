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
they share a point.

A scene's mirror symmetry is decided here, once, for all three estimators:
``mirror_axes`` names the reflections of the receive frame that map a grid
onto itself and how each acts on its axes, ``sector_axes`` decides from them
whether the coupling matrix splits into mirror parity sectors (operator
assembly and the spectrum both follow it), and ``lattice_orbits`` folds the
tensor lattice of two coordinate axes to one node per orbit of those
reflections, reading each reflection from the axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

# Frame vectors must satisfy orthonormality to this absolute tolerance.
FRAME_TOL = 1e-12
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
    if abs(n - 1.0) > FRAME_TOL:
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
        if self.center.shape != (3,):
            raise GeometryError("center must be a 3-vector")
        for name in ("tangent_u", "tangent_v"):
            object.__setattr__(self, name, _as_unit(getattr(self, name), name))
        if abs(self.tangent_u @ self.tangent_v) > FRAME_TOL:
            raise GeometryError("tangent_u and tangent_v are not orthogonal")
        object.__setattr__(self, "normal", np.cross(self.tangent_u, self.tangent_v))
        if not (self.length_u > 0.0 and self.length_v > 0.0):
            raise GeometryError("side lengths must be positive")

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
    if np.max(np.abs(r.T @ r - np.eye(3))) > ROTATION_TOL:
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
    if int(n_u) != n_u or int(n_v) != n_v or n_u < 1 or n_v < 1:
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


def corners(surface: PlanarSurface, half_u=None, half_v=None) -> np.ndarray:
    """(4, 3) corners of the centered 2 half_u x 2 half_v box on a surface's
    plane; the surface's own corners by default."""
    half_u = 0.5 * surface.length_u if half_u is None else half_u
    half_v = 0.5 * surface.length_v if half_v is None else half_v
    return np.array([surface.center + su * half_u * surface.tangent_u
                     + sv * half_v * surface.tangent_v
                     for su in (-1.0, 1.0) for sv in (-1.0, 1.0)])


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
    """(action, flat node map) of a u-major lattice ``index`` under the
    local-coordinate map (a, b) -> q (a, b), with q rounded to a signed
    permutation; the action is "swap" or names the axes flipped.  None when q
    rounds to none, or to a swap of the axes of a lattice that is not square."""
    p = np.rint(q).astype(int)
    if p[0, 1] == p[1, 0] == 0 and abs(p[0, 0]) == abs(p[1, 1]) == 1:
        flips = ("u" if p[0, 0] < 0 else "") + ("v" if p[1, 1] < 0 else "")
        return flips, index[::p[0, 0], ::p[1, 1]].ravel()
    if p[0, 0] == p[1, 1] == 0 and abs(p[0, 1]) == abs(p[1, 0]) == 1 \
            and index.shape[0] == index.shape[1]:
        # node (i, j) goes to (j or n-1-j, i or n-1-i)
        return "swap", index.T[::p[1, 0], ::p[0, 1]].ravel()
    return None


def mirror_axes(tx_grid: QuadratureGrid, rx_surface: PlanarSurface) -> dict[str, str]:
    """{name: action} of the receive-frame reflections in MIRRORS that map
    the transmit grid, nodes and weights, onto itself.

    Each reflection is about the receive center and maps the receive plane
    onto itself, keeping every point distance and the cut-set Jacobian.  One
    is kept when every reflected transmit node lands on a node of equal
    weight, to SYMMETRY_RTOL of the largest aperture side; nothing else is
    assumed.  Its action is the transmit axis it flips, "u" or "v" (the
    other-named one behind a receiver turned by 90 degrees), or "swap" when
    it exchanges them, as behind one turned by 45 degrees.
    """
    tx = tx_grid.surface
    tol = SYMMETRY_RTOL * max(tx.length_u, tx.length_v,
                              rx_surface.length_u, rx_surface.length_v)
    tangents = np.column_stack([tx.tangent_u, tx.tangent_v])
    index = np.arange(len(tx_grid)).reshape(tx_grid.shape)
    offsets = tx_grid.points - rx_surface.center
    held = {}
    for name, (cu, cv) in MIRRORS.items():
        e = cu * rx_surface.tangent_u + cv * rx_surface.tangent_v
        image = tx_grid.points - 2.0 * np.outer(offsets @ e, e)
        # the reflection in transmit local coordinates, about the tx center
        mapped = _signed_permutation(index, tangents.T @ (
            tangents - 2.0 * np.outer(e, e @ tangents)))
        if mapped is not None \
                and np.max(np.abs(image - tx_grid.points[mapped[1]])) <= tol \
                and np.all(np.abs(tx_grid.weights[mapped[1]] - tx_grid.weights)
                           <= SYMMETRY_RTOL * tx_grid.weights):
            held[name] = mapped[0]
    return held


# Transmit axes of the (rx_u, rx_v, tx_u, tx_v) coupling array that the
# receive u- and v-mirrors flip, keyed by their mirror_axes actions: the
# same-named axes, or the other ones behind a receiver turned by 90 degrees.
_SECTOR_AXES = {("u", "v"): (2, 3), ("v", "u"): (3, 2)}


def sector_axes(tx_grid: QuadratureGrid,
                rx_grid: QuadratureGrid) -> tuple[int, int] | None:
    """(axis flipped by the u-mirror, axis flipped by the v-mirror) of the
    (rx_u, rx_v, tx_u, tx_v) coupling array, or None.

    Not None exactly when ``mirror_axes`` holds the receive u- and
    v-mirrors as flips of the two transmit axes, in either order, and as
    flips of the receive grid's own axes, nodes and weights.  Then row
    (n_u-1-i, j) of the array is row (i, j) with the u-mirror's transmit
    axis reversed, and likewise along v, so the first ceil(n/2) receive rows
    per axis determine the rest.
    """
    on_rx = mirror_axes(rx_grid, rx_grid.surface)
    if (on_rx.get("u"), on_rx.get("v")) != ("u", "v"):
        return None
    on_tx = mirror_axes(tx_grid, rx_grid.surface)
    return _SECTOR_AXES.get((on_tx.get("u"), on_tx.get("v")))


@dataclass(frozen=True)
class LatticeFold:
    """One node per orbit of a lattice's symmetry group, and the way back.

    Values invariant under ``symmetry`` satisfy values == values[nodes][gather].
    """

    symmetry: tuple[str, ...]   # the asked-for symmetries the lattice holds
    nodes: np.ndarray           # flat indices of the orbit minima, ascending
    gather: np.ndarray          # (N,) position in nodes of each node's orbit


def lattice_orbits(axis_u, axis_v, symmetry) -> LatticeFold:
    """Fold the u-major tensor lattice of two coordinate axes to the first
    node of each orbit.

    ``symmetry`` names the generators: the MIRRORS reflections "u" (node
    (i, j) to (n_u-1-i, j)), "v" and "swap" ((i, j) to (j, i)), and "point"
    ((a, b) to (-a, -b)).  Each is read from the axes, to SYMMETRY_RTOL of
    the largest coordinate: "u" or "v" holds when that axis equals its own
    reverse, negated, "point" when both do, and "swap" when the two axes are
    equal.  Generators the lattice does not hold are dropped, and an empty
    set folds nothing.
    """
    axis_u, axis_v = np.asarray(axis_u, dtype=float), np.asarray(axis_v, dtype=float)
    tol = SYMMETRY_RTOL * max(np.abs(axis_u).max(), np.abs(axis_v).max())

    def equal(x, y):
        return x.shape == y.shape and np.max(np.abs(x - y)) <= tol

    holds = {"u": equal(-axis_u[::-1], axis_u), "v": equal(-axis_v[::-1], axis_v),
             "swap": equal(axis_u, axis_v)}
    holds["point"] = holds["u"] and holds["v"]
    kept = tuple(name for name in symmetry if holds[name])
    views = {"u": lambda a: a[::-1, :], "v": lambda a: a[:, ::-1],
             "swap": lambda a: a.T, "point": lambda a: a[::-1, ::-1]}
    # each generator is an involution, so the fixed point holds each orbit's
    # smallest index on all of its nodes
    rep = np.arange(axis_u.size * axis_v.size).reshape(axis_u.size, axis_v.size)
    while True:
        low = rep
        for name in kept:
            low = np.minimum(low, views[name](low))
        if np.array_equal(low, rep):
            break
        rep = low
    rep = rep.ravel()
    nodes = np.flatnonzero(rep == np.arange(rep.size))
    return LatticeFold(symmetry=kept, nodes=nodes,
                       gather=np.searchsorted(nodes, rep))
