"""Scene symmetry: the mirror predicate, the lattice fold, and the folded
cut-set field and Landau response against direct evaluation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import edof.landau
from edof.cutset import _jacobian_dets, bandwidth_field
from edof.geometry import (
    QuadratureGrid,
    discretize,
    lattice_orbits,
    make_surface,
    mirror_axes,
    rotation_about,
)
from edof.kernel import WaveConfig
from edof.landau import _autocorrelation_lattice, _autocorrelation_many, wavenumber_response

WAVE = WaveConfig(wavelength=0.01)
Z_AXIS = (0.0, 0.0, 1.0)


def _scene(tx_size=(0.5, 0.5), tx_counts=(9, 9), rx_size=(0.3, 0.3),
           rx_counts=(7, 7), distance=2.0, rx_offset=(0.0, 0.0), rx_turn=np.eye(3),
           motion=(np.eye(3), np.zeros(3)), rule="midpoint"):
    """tx at the origin, rx ``distance`` up its normal, both moved by the
    rigid motion (R, t); ``rx_turn`` and ``rx_offset`` keep or break the
    mirrors of the coaxial link."""
    rot, shift = motion
    rx_center = np.array([rx_offset[0], rx_offset[1], distance])
    tx = make_surface(shift, rot, *tx_size)
    rx = make_surface(rot @ rx_center + shift, rot @ rx_turn, *rx_size)
    return (discretize(tx, *tx_counts, rule=rule),
            discretize(rx, *rx_counts, rule=rule))


COAXIAL = {"u": "u", "v": "v", "swap": "swap"}
MIRROR_CASES = {
    "coaxial": ({}, COAXIAL),
    "gauss-legendre": ({"rule": "gauss-legendre"}, COAXIAL),
    # each receive mirror flips the other-named transmit axis
    "rx-turned-90": ({"rx_turn": rotation_about(Z_AXIS, np.pi / 2)},
                     {"u": "v", "v": "u", "swap": "swap"}),
    "rx-turned-180": ({"rx_turn": rotation_about(Z_AXIS, np.pi)}, COAXIAL),
    # the receive mirrors are then the transmit diagonals
    "rx-turned-45": ({"rx_turn": rotation_about(Z_AXIS, np.pi / 4)},
                     {"u": "swap", "v": "swap", "swap": "u"}),
    "rx-turned-30": ({"rx_turn": rotation_about(Z_AXIS, np.pi / 6)}, {}),
    "rectangular": ({"tx_size": (0.5, 0.3)}, {"u": "u", "v": "v"}),
    "unequal-counts": ({"tx_counts": (9, 8)}, {"u": "u", "v": "v"}),
    "one-point-axis": ({"tx_counts": (1, 6)}, {"u": "u", "v": "v"}),
    "lateral-1um-u": ({"rx_offset": (1e-6, 0.0)}, {"v": "v"}),
    "lateral-1um": ({"rx_offset": (0.8e-6, 0.6e-6)}, {}),
    "diagonal-offset": ({"rx_offset": (0.1, 0.1)}, {"swap": "swap"}),
    "offset": ({"rx_offset": (0.3, -0.2)}, {}),
    "tilt-about-u": ({"rx_turn": rotation_about((1.0, 0.0, 0.0), 0.01)}, {"u": "u"}),
    "tilt": ({"rx_turn": rotation_about((1.0, 1.0, 0.0), 0.01)}, {}),
}


@pytest.mark.parametrize("name", sorted(MIRROR_CASES))
def test_mirror_axes_names_the_reflections_that_hold(name):
    kwargs, expected = MIRROR_CASES[name]
    tx_grid, rx_grid = _scene(**kwargs)
    assert mirror_axes(tx_grid, rx_grid.surface) == expected


def test_mirror_axes_reads_the_weights():
    tx_grid, rx_grid = _scene()
    a, w = tx_grid.rule_u
    weights = w * (1.0 + a)
    weights *= w.sum() / weights.sum()
    tilted = QuadratureGrid(tx_grid.surface, (a, weights), tx_grid.rule_v)
    assert mirror_axes(tilted, rx_grid.surface) == {"v": "v"}


def _integer_lattice(n_u, n_v, spacing=(1.0, 1.0)):
    """The two centered coordinate axes of an n_u x n_v lattice."""
    return ((np.arange(n_u) - (n_u - 1) / 2.0) * spacing[0],
            (np.arange(n_v) - (n_v - 1) / 2.0) * spacing[1])


def _coords(axes):
    """(N, 2) u-major node coordinates of the lattice of two axes."""
    a, b = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


@pytest.mark.parametrize("shape, symmetry, orbits", [
    ((80, 80), ("u", "v", "swap"), 820),
    ((141, 141), ("u", "v", "swap"), 2556),
    ((141, 141), ("u", "v"), 5041),
    ((7, 4), ("u", "v"), 8),
    ((7, 4), ("u",), 16),
    ((5, 5), ("swap",), 15),
    ((1, 6), ("u", "v", "swap"), 3),
    ((1, 1), ("u", "v", "swap", "point"), 1),
    # u and swap generate the whole square group, v included
    ((5, 5), ("u", "swap"), 6),
])
def test_lattice_orbits_counts_and_gathers(shape, symmetry, orbits):
    axes = _integer_lattice(*shape)
    fold = lattice_orbits(*axes, symmetry)
    assert fold.symmetry == tuple(s for s in symmetry
                                  if s != "swap" or shape[0] == shape[1])
    assert len(fold.nodes) == orbits
    assert np.all(np.diff(fold.nodes) > 0)
    assert np.array_equal(fold.nodes[fold.gather[fold.nodes]], fold.nodes)
    # a function with the symmetry of the group the generators close to is
    # rebuilt from the orbit minima; the swap turns either mirror into the other
    closure = set(fold.symmetry)
    if "swap" in closure and closure & {"u", "v"}:
        closure |= {"u", "v"}
    invariant = _invariant(_coords(axes), closure)
    assert np.array_equal(invariant[fold.nodes][fold.gather], invariant)


def _invariant(coords, symmetry):
    """A function of the node coordinates invariant under ``symmetry`` only."""
    a, b = coords[:, 0], coords[:, 1]
    if "u" in symmetry:
        a = np.abs(a)
    if "v" in symmetry:
        b = np.abs(b)
    if "swap" in symmetry:
        return np.cos(a) + np.cos(b) + (a * b) ** 2 + (a + b) ** 3
    return np.cos(a) + 2.0 * np.cos(b) + a * b ** 3


def test_point_fold_is_the_hermitian_half():
    fold = lattice_orbits(*_integer_lattice(21, 15, spacing=(0.3, 0.7)), ("point",))
    m = 21 * 15
    assert np.array_equal(fold.nodes, np.arange((m + 1) // 2))
    assert np.array_equal(fold.nodes[fold.gather],
                          np.minimum(np.arange(m), np.arange(m)[::-1]))


def test_lattice_orbits_drops_what_the_lattice_does_not_hold():
    # swap needs equal spacings as well as equal counts
    fold = lattice_orbits(*_integer_lattice(9, 9, spacing=(1.0, 1.5)),
                          ("u", "v", "swap"))
    assert fold.symmetry == ("u", "v")
    axis_u, axis_v = _integer_lattice(9, 9)
    axis_u[0] += 1e-6   # the first u-axis entry
    # the point reflection needs both axes mirrored
    fold = lattice_orbits(axis_u, axis_v, ("u", "v", "swap", "point"))
    assert fold.symmetry == ("v",)
    none = lattice_orbits(axis_u, axis_v, ())
    assert none.symmetry == ()
    assert np.array_equal(none.nodes, np.arange(81))
    assert np.array_equal(none.gather, np.arange(81))


def _direct_field(tx_grid, rx_grid):
    """The unfolded field: every receive node, in one block."""
    return _jacobian_dets(rx_grid.points, tx_grid.points, tx_grid.surface,
                          rx_grid.surface, WAVE) @ tx_grid.weights


def _unfolded(axis_u, axis_v, symmetry):
    """Stand-in for lattice_orbits that folds nothing: every lag is evaluated."""
    return lattice_orbits(axis_u, axis_v, ())


def _hermitian_half(axes, mirrors, reference, rx_surface, tx_grid, wave):
    """g as an unfolded scene gets it: the first half of the lag list, and
    exact conjugates for the rest."""
    lags = _coords(axes)
    half = _autocorrelation_many(lags[:(len(lags) + 1) // 2], reference,
                                 rx_surface, tx_grid, wave)
    return np.concatenate([half, np.conj(half[-2::-1])]), _unfolded(*axes, ())


def _response(tx_grid, rx_grid, lag_grid=(11, 11), lag_extent=0.4):
    return wavenumber_response(rx_grid.surface, tx_grid, WAVE,
                               lag_grid=lag_grid, lag_extent=lag_extent)


@pytest.mark.parametrize("name", sorted(MIRROR_CASES))
def test_field_and_response_fold_only_by_what_holds(name, monkeypatch):
    kwargs, expected = MIRROR_CASES[name]
    tx_grid, rx_grid = _scene(**kwargs)
    field = bandwidth_field(tx_grid, rx_grid, WAVE)
    direct = _direct_field(tx_grid, rx_grid)
    response = _response(tx_grid, rx_grid)
    mirrors = response.diagnostics["symmetry"]
    assert field.symmetry == tuple(expected)
    assert mirrors == (list(expected) if {"u", "v"} <= set(expected) else [])

    monkeypatch.setattr(edof.landau, "_autocorrelation_lattice", _hermitian_half)
    half = _response(tx_grid, rx_grid)
    if not expected:
        # a scene without symmetry takes the unfolded path, bit for bit
        assert field.evaluated_nodes == len(rx_grid)
        assert np.array_equal(field.values, direct)
    else:
        assert field.evaluated_nodes < len(rx_grid)
        assert np.max(np.abs(field.values - direct) / direct) <= 1e-12
    if not mirrors:
        assert response.diagnostics["evaluated_lags"] == (11 * 11 + 1) // 2
        assert np.array_equal(response.H_values, half.H_values)
    else:
        assert response.diagnostics["evaluated_lags"] < (11 * 11 + 1) // 2
        np.testing.assert_allclose(response.H_values, half.H_values, rtol=0.0,
                                   atol=1e-13 * half.H_values.max())


@st.composite
def symmetric_scenes(draw):
    """Coaxial links under a random rigid motion: square or rectangular
    apertures, odd, even and one-point axes, midpoint or Gauss-Legendre
    lattices, and the receiver turned by a multiple of 90 degrees."""
    sizes, counts = st.floats(0.05, 0.6), st.integers(1, 9)

    def pair(strategy, square):
        first = draw(strategy)
        return (first, first) if square else (first, draw(strategy))

    polar, azimuth = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    axis = (np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
            np.cos(polar))
    return dict(
        tx_size=pair(sizes, draw(st.booleans())), tx_counts=pair(counts, draw(st.booleans())),
        rx_size=pair(sizes, draw(st.booleans())), rx_counts=pair(counts, draw(st.booleans())),
        distance=draw(st.floats(0.5, 5.0)),
        rx_turn=rotation_about(Z_AXIS, 0.5 * np.pi * draw(st.integers(0, 3))),
        motion=(rotation_about(axis, draw(st.floats(0.0, 2.0 * np.pi))),
                np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))),
        rule=draw(st.sampled_from(["midpoint", "gauss-legendre"])),
    ), pair(st.integers(1, 7).map(lambda n: 2 * n + 1), draw(st.booleans()))


@given(symmetric_scenes())
def test_folds_match_direct_evaluation(scene):
    kwargs, lag_grid = scene
    tx_grid, rx_grid = _scene(**kwargs)
    mirrors = mirror_axes(tx_grid, rx_grid.surface)
    assert {"u", "v"} <= set(mirrors)
    event(f"mirrors {mirrors}")

    field = bandwidth_field(tx_grid, rx_grid, WAVE)
    direct = _direct_field(tx_grid, rx_grid)
    event(f"field folded by {field.symmetry}")
    assert np.max(np.abs(field.values - direct) / direct) <= 1e-12

    folded = _response(tx_grid, rx_grid, lag_grid)
    with mock.patch.object(edof.landau, "lattice_orbits", _unfolded):
        full = _response(tx_grid, rx_grid, lag_grid)
    assert full.diagnostics["evaluated_lags"] == np.prod(lag_grid)
    assert {"u", "v"} <= set(folded.diagnostics["symmetry"])
    # The direct evaluation rounds each phase k0 (d+ - d-) to about k0 d eps,
    # so its own mirror images differ by up to a few 1e-13 of max H on few
    # transmit nodes, while the folded response is exactly symmetric: the
    # fold can come no closer to it than that.
    h = full.H_values.reshape(lag_grid)
    images = [h[::-1], h[:, ::-1]] + ([h.T] if h.shape[0] == h.shape[1] else [])
    own_asymmetry = max(np.abs(h - image).max() for image in images)
    np.testing.assert_allclose(folded.H_values, full.H_values, rtol=0.0,
                               atol=1e-13 * full.H_values.max() + own_asymmetry)

    # the folded correlation keeps g(-delta) = conj(g(delta)) exactly
    axes = _integer_lattice(*lag_grid, spacing=[0.4 / n for n in lag_grid])
    g, _ = _autocorrelation_lattice(axes, mirrors, rx_grid.surface.center,
                                    rx_grid.surface, tx_grid, WAVE)
    assert np.array_equal(g[::-1], np.conj(g))
