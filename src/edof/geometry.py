"""Planar rectangular apertures and quadrature grids.

A surface is a flat rectangle in R^3 described by its center, an orthonormal
tangent frame (tangent_u, tangent_v), the normal n = tangent_u x tangent_v,
and the side lengths along the two tangent axes.  Local coordinates (a, b)
are measured from the center, so a in [-length_u/2, length_u/2] and
b in [-length_v/2, length_v/2].

A quadrature grid attaches nodes and positive weights to a surface so that
sum(w_i * f(p_i)) approximates the surface integral of f.  Supported rules
are the midpoint (uniform cell) rule and tensor-product Gauss-Legendre.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

# Frame vectors must satisfy orthonormality to this absolute tolerance.
FRAME_TOL = 1e-12
# Rotation matrices supplied by callers may be slightly off; they are
# re-orthonormalized, but rejected beyond this tolerance.
ROTATION_TOL = 1e-10
# Relative tolerance for the weight-sum == area check.
WEIGHT_SUM_RTOL = 1e-10
# Absolute tolerance (meters) for "grid point lies in the surface plane".
PLANE_TOL = 1e-12


def _as_unit(vec, name):
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise GeometryError(f"{name} must be a 3-vector, got shape {v.shape}")
    n = np.linalg.norm(v)
    if abs(n - 1.0) > FRAME_TOL:
        raise GeometryError(f"{name} is not unit length (|v| = {n!r})")
    return v


@dataclass(frozen=True)
class PlanarSurface:
    """Oriented rectangle: center, orthonormal tangent frame, side lengths."""

    center: np.ndarray
    tangent_u: np.ndarray
    tangent_v: np.ndarray
    normal: np.ndarray
    length_u: float
    length_v: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (3,):
            raise GeometryError("center must be a 3-vector")
        for name in ("tangent_u", "tangent_v", "normal"):
            object.__setattr__(self, name, _as_unit(getattr(self, name), name))
        if abs(self.tangent_u @ self.tangent_v) > FRAME_TOL:
            raise GeometryError("tangent_u and tangent_v are not orthogonal")
        if np.max(np.abs(np.cross(self.tangent_u, self.tangent_v) - self.normal)) > FRAME_TOL:
            raise GeometryError("normal must equal cross(tangent_u, tangent_v)")
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
    n = np.cross(u, v)
    return PlanarSurface(center=np.asarray(center, dtype=float), tangent_u=u,
                         tangent_v=v, normal=n,
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
    """Quadrature nodes and weights attached to a surface.

    ``points`` are global 3-space positions, ``local_coords`` the matching
    (a, b) surface coordinates, and ``weights`` the positive quadrature
    weights, which sum to the surface area.  ``shape`` is the (n_u, n_v)
    node lattice, with N = n_u * n_v.
    """

    surface: PlanarSurface
    points: np.ndarray       # (N, 3)
    local_coords: np.ndarray  # (N, 2)
    weights: np.ndarray      # (N,)
    shape: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "local_coords", np.asarray(self.local_coords, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        n = self.points.shape[0]
        if self.points.shape != (n, 3) or self.local_coords.shape != (n, 2) \
                or self.weights.shape != (n,) or n == 0:
            raise GeometryError("inconsistent grid array shapes")
        if len(self.shape) != 2 or min(self.shape) < 1 \
                or self.shape[0] * self.shape[1] != n:
            raise GeometryError(f"lattice shape {self.shape} does not hold {n} nodes")
        if not np.all(self.weights > 0.0):
            raise GeometryError("quadrature weights must be strictly positive")
        area = self.surface.area
        if abs(self.weights.sum() - area) > WEIGHT_SUM_RTOL * area:
            raise GeometryError("quadrature weights do not sum to the surface area")
        offsets = self.points - self.surface.center
        if np.max(np.abs(offsets @ self.surface.normal)) > PLANE_TOL:
            raise GeometryError("grid points do not lie in the surface plane")

    def __len__(self) -> int:
        return self.points.shape[0]


def _nodes_1d(length, n, rule):
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
    n_u, n_v = int(n_u), int(n_v)
    xu, wu = _nodes_1d(surface.length_u, n_u, rule)
    xv, wv = _nodes_1d(surface.length_v, n_v, rule)
    A, B = np.meshgrid(xu, xv, indexing="ij")
    local = np.column_stack([A.ravel(), B.ravel()])
    weights = np.outer(wu, wv).ravel()
    points = (surface.center[None, :]
              + local[:, :1] * surface.tangent_u[None, :]
              + local[:, 1:] * surface.tangent_v[None, :])
    return QuadratureGrid(surface=surface, points=points, local_coords=local,
                          weights=weights, shape=(n_u, n_v))


def global_point(surface: PlanarSurface, local) -> np.ndarray:
    """Map local (a, b) coordinates to a global 3-space point.

    Coordinates must lie within the rectangle (boundary included).
    """
    ab = np.asarray(local, dtype=float)
    if ab.shape != (2,):
        raise GeometryError("local coordinates must be a 2-vector")
    a, b = ab
    # tiny relative slack so boundary points survive round-off
    if abs(a) > 0.5 * surface.length_u * (1.0 + 1e-12) \
            or abs(b) > 0.5 * surface.length_v * (1.0 + 1e-12):
        raise GeometryError(f"local point ({a}, {b}) outside the surface")
    return surface.center + a * surface.tangent_u + b * surface.tangent_v


def local_point(surface: PlanarSurface, point) -> np.ndarray:
    """Project a global point onto the surface's local (a, b) coordinates."""
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise GeometryError("point must be a 3-vector")
    off = p - surface.center
    return np.array([off @ surface.tangent_u, off @ surface.tangent_v])


def _line_rect_interval(p0, e, surface):
    """Parameter interval of the line p0 + t*e inside a rectangle.

    The line is assumed to lie in the rectangle's plane.  Returns (lo, hi)
    or None when the line misses the rectangle.
    """
    lo, hi = -np.inf, np.inf
    q = p0 - surface.center
    for tangent, length in ((surface.tangent_u, surface.length_u),
                            (surface.tangent_v, surface.length_v)):
        c0 = q @ tangent
        ce = e @ tangent
        half = 0.5 * length
        if abs(ce) < 1e-15:
            if abs(c0) > half:
                return None
            continue
        t0, t1 = (-half - c0) / ce, (half - c0) / ce
        lo = max(lo, min(t0, t1))
        hi = min(hi, max(t0, t1))
    if lo > hi:
        return None
    return lo, hi


def surfaces_intersect(s1: PlanarSurface, s2: PlanarSurface, tol: float = 1e-12) -> bool:
    """True when the two rectangles share at least one point (touching counts)."""
    n1, n2 = s1.normal, s2.normal
    direction = np.cross(n1, n2)
    dn = np.linalg.norm(direction)
    if dn < 1e-12:
        # parallel planes: distinct planes never meet
        if abs((s2.center - s1.center) @ n1) > tol:
            return False
        # coplanar rectangles: separating-axis test with the four edge axes
        for ax in (s1.tangent_u, s1.tangent_v, s2.tangent_u, s2.tangent_v):
            r1 = (abs(ax @ s1.tangent_u) * s1.length_u
                  + abs(ax @ s1.tangent_v) * s1.length_v) / 2.0
            r2 = (abs(ax @ s2.tangent_u) * s2.length_u
                  + abs(ax @ s2.tangent_v) * s2.length_v) / 2.0
            if abs(ax @ (s2.center - s1.center)) > r1 + r2 + tol:
                return False
        return True
    # planes meet in the line p0 + t*e
    e = direction / dn
    lhs = np.vstack([n1, n2])
    rhs = np.array([n1 @ s1.center, n2 @ s2.center])
    p0 = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    iv1 = _line_rect_interval(p0, e, s1)
    iv2 = _line_rect_interval(p0, e, s2)
    if iv1 is None or iv2 is None:
        return False
    return min(iv1[1], iv2[1]) - max(iv1[0], iv2[0]) >= -tol
