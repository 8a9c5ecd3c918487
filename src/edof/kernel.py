"""Scalar free-space coupling kernel and its quadrature discretization.

A current distribution J on a transmit aperture produces the received field

    E(r) = integral over tx of  k(r, t) J(t) dt,
    k(r, t) = j * eta * exp(-j * k0 * |r - t|) / (2 * lambda * |r - t|),

with k0 = 2*pi/lambda and eta the wave impedance of free space.  With
quadrature grids on both apertures the operator becomes the matrix

    A[m, n] = sqrt(w_rx[m]) * k(r_m, t_n) * sqrt(w_tx[n]),

whose plain SVD approximates the singular system of the continuous operator:
the square-root weighting makes Euclidean inner products of coefficient
vectors equal the discrete weighted L2 inner products of the fields.

On a mirror-symmetric link (geometry.sector_axes: two coaxial parallel
apertures) the receive u- and v-mirrors keep every node distance, so the
kernel is evaluated on about a quarter of the receive rows and the rest are
copied from their mirror images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GeometryError, SingularKernelError
from .geometry import QuadratureGrid, sector_axes, surfaces_intersect

# Wave impedance of free space, ohms.
VACUUM_IMPEDANCE_OHM = 376.730313668

# Apertures whose closest quadrature nodes are nearer than this fraction of a
# wavelength produce a near-singular matrix the quadrature cannot resolve.
MIN_SEPARATION_WAVELENGTHS = 0.1

# Point-node pairs per block of a points-by-nodes sweep (assembly, bandwidth
# field, lag correlation); bounds each block's temporaries to a few
# multiples of 8 * BLOCK_PAIRS bytes.
BLOCK_PAIRS = 1 << 19


@dataclass(frozen=True)
class WaveConfig:
    """Free-space wavelength (m); k0 is derived as 2*pi/lambda."""

    wavelength: float

    def __post_init__(self):
        if not self.wavelength > 0.0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def k0(self) -> float:
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class DiscreteOperator:
    """Quadrature discretization of the aperture-to-aperture coupling operator."""

    matrix: np.ndarray  # complex, (N_rx, N_tx)
    tx_grid: QuadratureGrid
    rx_grid: QuadratureGrid


def row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices covering range(n_rows), each of at most
    BLOCK_PAIRS row-column pairs (one row when a row alone exceeds that)."""
    step = max(1, BLOCK_PAIRS // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _distance(r, t):
    """|r - t| over the broadcast leading axes of two (..., 3) arrays.

    Built from the per-axis differences, so no (..., 3) difference tensor is
    formed; the squares are summed as (x^2 + z^2) + y^2, which reproduces
    numpy's einsum reduction over a length-3 axis bitwise.
    """
    x, y, z = (r[..., k] - t[..., k] for k in range(3))
    return np.sqrt((x * x + z * z) + y * y)


def check_separation(nearest: float, wave: WaveConfig) -> None:
    """Raise SingularKernelError when the nearest point-node distance (m) is
    below ``MIN_SEPARATION_WAVELENGTHS`` wavelengths, where the quadrature
    cannot resolve the 1/d singularity of the kernel."""
    min_sep = MIN_SEPARATION_WAVELENGTHS * wave.wavelength
    if nearest < min_sep:
        raise SingularKernelError(
            f"evaluation points come within {nearest:.3e} m of the grid "
            f"nodes, below {MIN_SEPARATION_WAVELENGTHS} wavelengths "
            f"({min_sep:.3e} m)")


def node_distances(points, nodes, wave: WaveConfig) -> np.ndarray:
    """Distances |p_i - t_j| as an (N_points, N_nodes) array; raises as
    ``check_separation`` does."""
    d = _distance(points[:, None, :], nodes[None, :, :])
    check_separation(d.min(), wave)
    return d


def kernel_scale(wave: WaveConfig) -> float:
    """eta / (2 * lambda): the kernel's modulus at unit distance."""
    return VACUUM_IMPEDANCE_OHM / (2.0 * wave.wavelength)


def _kernel_of_distance(d, wave: WaveConfig):
    """k = j * eta * exp(-j * k0 * d) / (2 * lambda * d) at distances d."""
    return 1j * kernel_scale(wave) * np.exp(-1j * wave.k0 * d) / d


def green_kernel(r_rx, r_tx, wave: WaveConfig):
    """Evaluate the scalar coupling kernel; broadcasts over leading axes.

    Parameters
    ----------
    r_rx, r_tx : array_like, shape (..., 3)
        Observation and source points in meters.
    wave : WaveConfig

    Returns
    -------
    complex scalar or ndarray of the broadcast shape.
    """
    r = np.asarray(r_rx, dtype=float)
    t = np.asarray(r_tx, dtype=float)
    d = _distance(r, t)
    if np.any(d == 0.0):
        raise SingularKernelError("kernel evaluated at coincident points")
    value = _kernel_of_distance(d, wave)
    if np.ndim(value) == 0:
        return complex(value)
    return value


def assemble_operator(tx_grid: QuadratureGrid, rx_grid: QuadratureGrid,
                      wave: WaveConfig) -> DiscreteOperator:
    """Assemble the weighted kernel matrix between two aperture grids.

    Rejects intersecting apertures and apertures whose closest grid nodes
    are nearer than ``MIN_SEPARATION_WAVELENGTHS`` wavelengths.

    When ``sector_axes`` holds, the kernel is evaluated only on the
    fundamental receive rows, the first ceil(n/2) per receive axis, which
    are the rows the parity sectors of ``coupling_spectrum`` read; the other
    rows are their mirror images with the mirror's transmit axis reversed.
    The mirrors keep every node distance, so the separation check on the
    fundamental rows covers all of them.  Elsewhere every row is evaluated.
    """
    if surfaces_intersect(tx_grid.surface, rx_grid.surface):
        raise GeometryError("transmit and receive surfaces intersect")
    axes = sector_axes(tx_grid, rx_grid)
    n_u, n_v = rx_grid.shape
    h_u, h_v = (n_u, n_v) if axes is None else (n_u - n_u // 2, n_v - n_v // 2)
    evaluated = np.arange(len(rx_grid)).reshape(n_u, n_v)[:h_u, :h_v].ravel()
    sq_w_rx = np.sqrt(rx_grid.weights)
    sq_w_tx = np.sqrt(tx_grid.weights)
    matrix = np.empty((len(rx_grid), len(tx_grid)), dtype=complex)
    for block in row_blocks(evaluated.size, len(tx_grid)):
        rows = evaluated[block]
        # No block temporary outlives the loop: one left alive would keep
        # the allocator from returning the others while the mirror copies
        # below fill the rest of the matrix.
        d = node_distances(rx_grid.points[rows], tx_grid.points, wave)
        matrix[rows] = (sq_w_rx[rows, None] * _kernel_of_distance(d, wave)
                        * sq_w_tx[None, :])
        del d
    if axes is not None:
        # Row (n_u-1-i, j) is row (i, j) seen through the u-mirror, and row
        # (i, n_v-1-j) is row (i, j) seen through the v-mirror.  Each copy
        # reads rows that lie wholly before the rows it writes, so numpy
        # needs no temporary for it.
        a4 = matrix.reshape(rx_grid.shape + tx_grid.shape)
        for i in range(n_u // 2):
            a4[n_u - 1 - i, :h_v] = np.flip(a4[i, :h_v], axes[0] - 1)
        for i in range(n_u):
            a4[i, h_v:] = np.flip(a4[i, :n_v // 2], (0, axes[1] - 1))
    return DiscreteOperator(matrix=matrix, tx_grid=tx_grid, rx_grid=rx_grid)


def adjoint_identity_residual(operator: DiscreteOperator, f, g) -> float:
    """| <A f, g> - <f, A* g> | for the discrete weighted inner products.

    Exact adjointness holds by construction; the residual is pure round-off
    and should be at the 1e-12 * |f| * |g| * ||A|| level or below.
    """
    a = operator.matrix
    n_rx, n_tx = a.shape
    fv = np.asarray(f)
    gv = np.asarray(g)
    if fv.shape != (n_tx,) or gv.shape != (n_rx,):
        raise DimensionError(
            f"expected shapes ({n_tx},) and ({n_rx},), got {fv.shape} and {gv.shape}")
    lhs = np.vdot(gv, a @ fv)          # <A f, g> with <x, y> = sum x conj(y)
    rhs = np.vdot(a.conj().T @ gv, fv)  # <f, A* g>
    return float(abs(lhs - rhs))


def hilbert_schmidt_norm(operator: DiscreteOperator) -> float:
    """Squared Hilbert-Schmidt norm: sum over entries of |A[m, n]|^2.

    Discrete approximation of the double aperture integral of |k|^2, and
    equal to the sum of squared singular values.
    """
    return float(np.sum(np.abs(operator.matrix) ** 2))
