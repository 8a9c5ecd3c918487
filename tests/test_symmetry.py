"""Scene symmetry: the mirror predicate, the link's symmetry record, the
lattice fold, and the folded cut-set field and Landau response against
direct evaluation."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

import edof.landau
from edof.cutset import _jacobian_dets, bandwidth_field
from edof.geometry import (
    SYMMETRY_RTOL,
    QuadratureGrid,
    axis_pairing,
    corners,
    discretize,
    half_turn_reverses,
    lattice_orbits,
    link_symmetry,
    make_surface,
    mirror_axes,
    paired_offsets,
    rotation_about,
)
from edof.kernel import WaveConfig, kernel_scale
from edof.landau import (
    TABLE_FRAME_TOL,
    _autocorrelation_lattice,
    _autocorrelation_many,
    _two_mirror_correlation,
    wavenumber_response,
)

WAVE = WaveConfig(wavelength=0.01)
Z_AXIS = (0.0, 0.0, 1.0)


def _scene(tx_size=(0.5, 0.5), tx_counts=(9, 9), rx_size=(0.3, 0.3),
           rx_counts=(7, 7), distance=2.0, rx_offset=(0.0, 0.0), rx_turn=np.eye(3),
           motion=(np.eye(3), np.zeros(3)), rule="midpoint", rx_edge_weights=None):
    """tx at the origin, rx ``distance`` up its normal, both moved by the
    rigid motion (R, t); ``rx_turn`` and ``rx_offset`` keep or break the
    mirrors of the coaxial link, and ``rx_edge_weights`` scales the weights
    of the first and last receive u-nodes."""
    rot, shift = motion
    rx_center = np.array([rx_offset[0], rx_offset[1], distance])
    tx = make_surface(shift, rot, *tx_size)
    rx = make_surface(rot @ rx_center + shift, rot @ rx_turn, *rx_size)
    rx_grid = discretize(rx, *rx_counts, rule=rule)
    if rx_edge_weights is not None:
        nodes, weights = rx_grid.rule_u
        scale = np.ones(rx_counts[0])
        scale[[0, -1]] = rx_edge_weights
        rx_grid = dataclasses.replace(rx_grid, rule_u=(nodes, weights * scale))
    return discretize(tx, *tx_counts, rule=rule), rx_grid


COAXIAL = ("u", "v", "swap")
MIRROR_CASES = {
    "coaxial": ({}, COAXIAL),
    "gauss-legendre": ({"rule": "gauss-legendre"}, COAXIAL),
    # each receive mirror flips the other-named transmit axis
    "rx-turned-90": ({"rx_turn": rotation_about(Z_AXIS, np.pi / 2)}, COAXIAL),
    "rx-turned-180": ({"rx_turn": rotation_about(Z_AXIS, np.pi)}, COAXIAL),
    # the receive mirrors are then the transmit diagonals
    "rx-turned-45": ({"rx_turn": rotation_about(Z_AXIS, np.pi / 4)}, COAXIAL),
    "rx-turned-30": ({"rx_turn": rotation_about(Z_AXIS, np.pi / 6)}, ()),
    # every node moves by under SYMMETRY_RTOL, but the frame overlap is off
    # by more than FRAME_TOL: the reflections hold, the pairing does not
    "rx-turned-3e-12": ({"rx_turn": rotation_about(Z_AXIS, 3e-12)}, COAXIAL),
    "rectangular": ({"tx_size": (0.5, 0.3)}, ("u", "v")),
    "unequal-counts": ({"tx_counts": (9, 8)}, ("u", "v")),
    "one-point-axis": ({"tx_counts": (1, 6)}, ("u", "v")),
    "lateral-1um-u": ({"rx_offset": (1e-6, 0.0)}, ("v",)),
    "lateral-1um": ({"rx_offset": (0.8e-6, 0.6e-6)}, ()),
    "diagonal-offset": ({"rx_offset": (0.1, 0.1)}, ("swap",)),
    "offset": ({"rx_offset": (0.3, -0.2)}, ()),
    "tilt-about-u": ({"rx_turn": rotation_about((1.0, 0.0, 0.0), 0.01)}, ("u",)),
    "tilt": ({"rx_turn": rotation_about((1.0, 1.0, 0.0), 0.01)}, ()),
    "tilt-offset": ({"rx_offset": (0.3, -0.2),
                     "rx_turn": rotation_about((1.0, 0.0, 0.0), 0.01)}, ()),
    # receive grids that hold less than the transmit grid: a lone node on a
    # rectangle keeps all three, and mirrored nodes whose first and last
    # u-rows weigh 1.5 and 0.5 keep only v
    "rx-one-node": ({"rx_size": (0.5, 0.25), "rx_counts": (1, 1)}, COAXIAL),
    "rx-edge-weights": ({"rx_edge_weights": (1.5, 0.5)}, COAXIAL),
    # the receiver 1 m along the transmit v-axis, facing back along it: the
    # transmit plane contains the receive normal, the v-mirror fixes every
    # transmit node and the half turn is a reflection within that plane.
    # Even receive counts keep receive nodes out of the transmit plane, where
    # the cut-set field is zero to rounding.
    "edge-on": ({"rx_offset": (0.0, 1.0), "distance": 0.0, "rx_counts": (6, 6),
                 "rx_turn": rotation_about((1.0, 0.0, 0.0), np.pi / 2)}, ("u", "v")),
}
# MIRROR_CASES whose planes are not parallel with aligned axes
UNPAIRED = {"rx-turned-30", "rx-turned-45", "rx-turned-3e-12", "tilt-about-u", "tilt",
            "tilt-offset", "edge-on"}
# MIRROR_CASES that hold both receive mirrors, and those of them whose
# transmit plane is parallel to the receive plane
TWO_MIRROR = sorted(name for name, (_, held) in MIRROR_CASES.items() if {"u", "v"} <= set(held))
PARALLEL_TWO_MIRROR = [name for name in TWO_MIRROR if name != "edge-on"]


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
    assert mirror_axes(tilted, rx_grid.surface) == ("v",)


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
    ((1, 6), ("u", "v"), 3),
    ((1, 1), ("u", "v", "swap"), 1),
    # u and swap generate the whole square group, v included
    ((5, 5), ("u", "swap"), 6),
])
def test_lattice_orbits_counts_and_gathers(shape, symmetry, orbits):
    axes = _integer_lattice(*shape)
    fold = lattice_orbits(shape, symmetry)
    assert len(fold.nodes) == orbits
    assert np.all(np.diff(fold.nodes) > 0)
    assert np.array_equal(fold.nodes[fold.gather[fold.nodes]], fold.nodes)
    # a function with the symmetry of the group the generators close to is
    # rebuilt from the orbit minima; the swap turns either mirror into the other
    closure = set(symmetry)
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


def _direct_field(tx_grid, rx_grid):
    """The unfolded field: every receive node, in one block."""
    return _jacobian_dets(rx_grid.points, tx_grid.points, tx_grid.surface,
                          rx_grid.surface, WAVE) @ tx_grid.weights


def _every_lag(axes, mirrors, reference, rx_surface, tx_grid, wave):
    """Stand-in for _autocorrelation_lattice that folds nothing: every lag is
    evaluated."""
    g = _autocorrelation_many(_coords(axes), reference, rx_surface, tx_grid, wave)
    return g, (), len(g)


def _hermitian_half(axes, mirrors, reference, rx_surface, tx_grid, wave):
    """g as a scene without both mirrors gets it: the first half of the lag
    list, and exact conjugates for the rest."""
    lags = _coords(axes)
    half = _autocorrelation_many(lags[:(len(lags) + 1) // 2], reference,
                                 rx_surface, tx_grid, wave)
    return np.concatenate([half, np.conj(half[-2::-1])]), (), len(half)


def _response(tx_grid, rx_grid, lag_grid=(11, 11), lag_extent=0.4):
    return wavenumber_response(rx_grid.surface, tx_grid, WAVE,
                               lag_grid=lag_grid, lag_extent=lag_extent)


@pytest.mark.parametrize("name", sorted(MIRROR_CASES))
def test_field_and_response_fold_only_by_what_holds(name, monkeypatch):
    kwargs, expected = MIRROR_CASES[name]
    tx_grid, rx_grid = _scene(**kwargs)
    on_rx = tuple(mirror_axes(rx_grid, rx_grid.surface))
    symmetry = link_symmetry(tx_grid, rx_grid)
    assert symmetry.fold == tuple(m for m in expected if m in on_rx)
    assert (symmetry.pairing is None) == (name in UNPAIRED)
    # the sectors need both receive mirrors on both grids and aligned frames;
    # each mirror flips the transmit axis paired with its receive axis
    pairing = symmetry.pairing
    assert symmetry.sectors == ((2 + pairing[0], 2 + pairing[1], "swap" in symmetry.fold)
                                if pairing is not None and {"u", "v"} <= set(symmetry.fold)
                                else None)
    field = bandwidth_field(tx_grid, rx_grid, WAVE)
    direct = _direct_field(tx_grid, rx_grid)
    response = _response(tx_grid, rx_grid)
    mirrors = response.diagnostics["symmetry"]
    assert field.symmetry == symmetry.fold
    assert mirrors == (list(expected) if {"u", "v"} <= set(expected) else [])

    monkeypatch.setattr(edof.landau, "_autocorrelation_lattice", _hermitian_half)
    half = _response(tx_grid, rx_grid)
    assert (field.evaluated_nodes < len(rx_grid)) == (bool(symmetry.fold) and len(rx_grid) > 1)
    if not expected and symmetry.pairing is None:
        # a scene without symmetry or aligned parallel planes takes the
        # unfolded general path, bit for bit
        assert np.array_equal(field.values, direct)
    else:
        assert np.max(np.abs(field.values - direct) / direct) <= 1e-12
    if not mirrors:
        assert response.diagnostics["evaluated_lags"] == (11 * 11 + 1) // 2
        assert np.array_equal(response.H_values, half.H_values)
    else:
        assert response.diagnostics["evaluated_lags"] < (11 * 11 + 1) // 2
        # the mirrors hold to rounding, but behind the receiver turned by
        # 3e-12 rad only to SYMMETRY_RTOL: the fold moves H by 5.8e-12 of
        # its peak there
        bound = SYMMETRY_RTOL if name == "rx-turned-3e-12" else 1e-13
        np.testing.assert_allclose(response.H_values, half.H_values, rtol=0.0,
                                   atol=bound * half.H_values.max())


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
    with mock.patch.object(edof.landau, "_autocorrelation_lattice", _every_lag):
        full = _response(tx_grid, rx_grid, lag_grid)
    assert full.diagnostics["evaluated_lags"] == np.prod(lag_grid)
    assert {"u", "v"} <= set(folded.diagnostics["symmetry"])
    # The direct evaluation rounds each lag's phases on their own, so its
    # own mirror images differ in their last bits, while the folded response
    # is exactly symmetric: the fold can come no closer to it than that.
    h = full.H_values.reshape(lag_grid)
    images = [h[::-1], h[:, ::-1]] + ([h.T] if h.shape[0] == h.shape[1] else [])
    own_asymmetry = max(np.abs(h - image).max() for image in images)
    np.testing.assert_allclose(folded.H_values, full.H_values, rtol=0.0,
                               atol=1e-13 * full.H_values.max() + own_asymmetry)

    # the folded correlation keeps g(-delta) = conj(g(delta)) exactly
    axes = _integer_lattice(*lag_grid, spacing=[0.4 / n for n in lag_grid])
    g, _, _ = _autocorrelation_lattice(axes, mirrors, rx_grid.surface.center,
                                       rx_grid.surface, tx_grid, WAVE)
    assert np.array_equal(g[::-1], np.conj(g))


def _half_turn_gaps(tx_grid, rx_surface):
    """How far the half turn P about the receive normal through the receive
    center, the u-mirror composed with the v-mirror, misses taking transmit
    node i onto node N-1-i: the largest position gap relative to the largest
    aperture side, and the largest relative weight gap."""
    frame = np.array([rx_surface.tangent_u, rx_surface.tangent_v])
    image = tx_grid.points - 2.0 * ((tx_grid.points - rx_surface.center) @ frame.T) @ frame
    tx = tx_grid.surface
    side = max(tx.length_u, tx.length_v, rx_surface.length_u, rx_surface.length_v)
    weights = tx_grid.weights
    return (np.max(np.abs(image - tx_grid.points[::-1])) / side,
            np.max(np.abs(weights[::-1] - weights) / weights))


@pytest.mark.parametrize("name", TWO_MIRROR + ["lateral-1um-u"])
def test_both_mirrors_reverse_the_transmit_index(name):
    # on parallel planes only: edge-on, the half turn fixes the transmit v-axis
    kwargs, _ = MIRROR_CASES[name]
    tx_grid, rx_grid = _scene(**kwargs)
    position, weight = _half_turn_gaps(tx_grid, rx_grid.surface)
    reverses = name in PARALLEL_TWO_MIRROR
    assert weight <= SYMMETRY_RTOL
    assert (position <= SYMMETRY_RTOL) == reverses
    assert half_turn_reverses(tx_grid, rx_grid.surface) == reverses


@pytest.mark.parametrize("name", TWO_MIRROR)
def test_two_mirror_lattice_matches_the_general_sum(name):
    # the folded lattice, by whichever kernel it picks, against the real
    # part of the complex sum on every lag
    kwargs, _ = MIRROR_CASES[name]
    tx_grid, rx_grid = _scene(**kwargs)
    rx = rx_grid.surface
    axes = _integer_lattice(11, 11, spacing=(0.4 / 11, 0.4 / 11))
    g, folded_by, _ = _autocorrelation_lattice(axes, mirror_axes(tx_grid, rx), rx.center,
                                               rx, tx_grid, WAVE)
    general = np.real(_autocorrelation_many(_coords(axes), rx.center, rx, tx_grid, WAVE))
    assert {"u", "v"} <= set(folded_by)
    bound = SYMMETRY_RTOL if name == "rx-turned-3e-12" else 1e-13
    assert np.max(np.abs(g - general)) <= bound * np.max(np.abs(general))


def _two_mirror(lags, rx, tx_grid, tables):
    """The two-mirror sum from the per-axis tables, where the frames pair,
    or with ``tables`` False from ``node_distances`` on every scene."""
    if tables:
        return _two_mirror_correlation(lags, rx, tx_grid, WAVE)
    with mock.patch.object(edof.landau, "axis_pairing", lambda *surfaces: None):
        return _two_mirror_correlation(lags, rx, tx_grid, WAVE)


def _two_mirror_gap(kwargs, lag_counts, lag_extent, tables=True):
    """max |two-mirror sum - Re(general sum)| over every lag of a centered
    lattice, relative to |g(0)| of the same scene.

    The peak, not max |Re g| over the lattice: a lattice may lack the zero
    lag, and g can be 3e-5 of g(0) on all of it, where a one-ulp difference
    in the order of summation reads as 1e-11 of max |Re g|.
    """
    tx_grid, rx_grid = _scene(**kwargs)
    rx = rx_grid.surface
    assert {"u", "v"} <= set(mirror_axes(tx_grid, rx)) and half_turn_reverses(tx_grid, rx)
    lags = _coords(_integer_lattice(*lag_counts,
                                    spacing=[e / n for e, n in zip(lag_extent, lag_counts)]))
    g = _two_mirror(lags, rx, tx_grid, tables)
    general = np.real(_autocorrelation_many(lags, rx.center, rx, tx_grid, WAVE))
    peak = abs(_autocorrelation_many(np.zeros((1, 2)), rx.center, rx, tx_grid, WAVE)[0])
    return np.max(np.abs(g - general)) / peak


@st.composite
def two_mirror_scenes(draw):
    """Coaxial links under a random rigid motion whose transmit grid holds
    both receive mirrors: the receiver turned by 0, 90, 180 or 270 degrees
    in front of a square or rectangular aperture with odd, even, one-point
    and unequal axes, or by 45 degrees in front of a square one; midpoint or
    Gauss-Legendre rules; and a lag lattice of any counts and extents."""
    eighths = draw(st.sampled_from([0, 2, 4, 6, 1]))
    square = eighths == 1 or draw(st.booleans())
    sizes, counts = st.floats(0.05, 0.6), st.integers(1, 9)

    def pair(strategy, equal):
        first = draw(strategy)
        return (first, first) if equal else (first, draw(strategy))

    polar, azimuth = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    axis = (np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
            np.cos(polar))
    event(f"receiver turned {45 * eighths} degrees")
    return dict(
        tx_size=pair(sizes, square), tx_counts=pair(counts, square),
        rx_size=pair(sizes, draw(st.booleans())),
        distance=draw(st.floats(0.5, 5.0)),
        rx_turn=rotation_about(Z_AXIS, 0.25 * np.pi * eighths),
        motion=(rotation_about(axis, draw(st.floats(0.0, 2.0 * np.pi))),
                np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))),
        rule=draw(st.sampled_from(["midpoint", "gauss-legendre"])),
    ), pair(st.integers(1, 9), False), pair(st.floats(0.01, 0.6), False)


@given(two_mirror_scenes())
def test_two_mirror_sum_matches_the_general_sum(scene):
    # from the per-axis tables where the frames pair, and from node_distances
    surfaces = (grid.surface for grid in _scene(**scene[0]))
    event(f"frames pair: {axis_pairing(*surfaces, TABLE_FRAME_TOL) is not None}")
    for tables in (True, False):
        assert _two_mirror_gap(*scene, tables=tables) <= 1e-12


@pytest.mark.parametrize("tables", [True, False])
def test_two_mirror_sum_on_a_lattice_without_the_zero_lag(tables):
    # Both lags lie where |Re g| is at most 3.1e-5 of g(0).  The gap reads
    # 3.6e-12 of max |Re g| over the lattice there, 1.1e-16 of g(0).
    scene = (dict(tx_size=(0.554, 0.554), tx_counts=(4, 4), distance=3.34,
                  rx_size=(0.2671059769097717, 0.396472759283134)),
             (1, 2), (0.11177562601641863, 0.4842635142597672))
    assert _two_mirror_gap(*scene, tables=tables) <= 1e-12


@pytest.mark.parametrize("name", TWO_MIRROR)
def test_two_mirror_tables_run_where_the_half_turn_reverses_and_the_frames_pair(
        name, monkeypatch):
    kwargs, _ = MIRROR_CASES[name]
    tx_grid, rx_grid = _scene(**kwargs)
    rx = rx_grid.surface
    calls = []

    def spy(*args):
        calls.append(args)
        return paired_offsets(*args)

    monkeypatch.setattr(edof.landau, "paired_offsets", spy)
    response = _response(tx_grid, rx_grid)
    assert {"u", "v"} <= set(response.diagnostics["symmetry"])
    takes_tables = half_turn_reverses(tx_grid, rx) \
        and axis_pairing(tx_grid.surface, rx, TABLE_FRAME_TOL) is not None
    assert bool(calls) == takes_tables
    # the receiver turned 45 degrees has no pairing, and edge-on no reversal
    assert takes_tables == (name in PARALLEL_TWO_MIRROR and name not in UNPAIRED)


def test_two_mirror_sum_behind_a_receiver_turned_3e_12_rad():
    # both mirrors hold only to SYMMETRY_RTOL there
    kwargs, _ = MIRROR_CASES["rx-turned-3e-12"]
    assert _two_mirror_gap(kwargs, (11, 11), (0.4, 0.4), tables=False) <= SYMMETRY_RTOL


def _long_double_correlation(lags, reference, rx_surface, tx_grid):
    """g(delta) summed in np.longdouble over the same float64 nodes, lags,
    frame and k0, with the phase k0 (d+ - d-) as it is defined; and the
    largest |phase|."""
    ld = np.longdouble
    frame = np.array([rx_surface.tangent_u, rx_surface.tangent_v], dtype=ld)
    offset = 0.5 * lags.astype(ld) @ frame
    center = np.asarray(reference, dtype=ld)
    nodes = tx_grid.points.astype(ld)[None, :, :]
    d_plus, d_minus = (np.sqrt(np.sum(((center + sign * offset)[:, None, :] - nodes) ** 2,
                                      axis=-1)) for sign in (1, -1))
    phase = ld(WAVE.k0) * (d_plus - d_minus)
    weights = tx_grid.weights.astype(ld) / (d_plus * d_minus)
    real, imag = (np.sum(part * weights, axis=1) for part in (np.cos(phase), -np.sin(phase)))
    g = np.float64(kernel_scale(WAVE)) ** 2 * (real.astype(float) + 1j * imag.astype(float))
    return g, float(np.max(np.abs(phase)))


def _long_double_gap(g, exact):
    """max |g - exact| over max |exact|, and the bound it is held to:
    1e-14, plus 2 eps per radian of the largest phase, since float64 holds a
    phase of p rad only to p eps / 2."""
    exact, phase = exact
    return (np.max(np.abs(g - exact)) / np.max(np.abs(exact)),
            1e-14 + 2.0 * np.finfo(float).eps * phase)


@st.composite
def long_double_scenes(draw):
    """A transmitter at the origin and a receiver over it, laterally offset
    or not and turned by a multiple of 45 degrees or by any angle, on
    midpoint or Gauss-Legendre rules, with an odd, centered lag lattice of
    any counts and extents, as Landau builds."""
    sizes, counts = st.floats(0.05, 0.6), st.integers(1, 9)
    offset = draw(st.sampled_from([(0.0, 0.0), None]))
    turn = draw(st.sampled_from([0.0, 0.25 * np.pi, 0.5 * np.pi, np.pi, 1.5 * np.pi, None]))
    return dict(
        tx_size=(draw(sizes), draw(sizes)), tx_counts=(draw(counts), draw(counts)),
        rx_size=(draw(sizes), draw(sizes)), distance=draw(st.floats(0.5, 5.0)),
        rx_offset=offset or draw(st.tuples(*[st.floats(-0.5, 0.5)] * 2)),
        rx_turn=rotation_about(Z_AXIS, draw(st.floats(0.0, 2.0 * np.pi)) if turn is None else turn),
        rule=draw(st.sampled_from(["midpoint", "gauss-legendre"])),
    ), [2 * draw(st.integers(0, 4)) + 1 for _ in range(2)], [draw(st.floats(0.01, 0.6))
                                                            for _ in range(2)]


@given(long_double_scenes())
def test_correlation_sums_match_a_long_double_sum(scene):
    # Each sum takes the phase as 2 k0 delta.(c - t) / (d+ + d-); the float64
    # difference k0 (d+ - d-) would keep about k0 d eps of rounding.
    kwargs, lag_counts, lag_extent = scene
    tx_grid, rx_grid = _scene(**kwargs)
    rx = rx_grid.surface
    lags = _coords(_integer_lattice(*lag_counts,
                                    spacing=[e / n for e, n in zip(lag_extent, lag_counts)]))
    # about the receive center, and about its corners as stationarity_check
    # takes them
    around = np.repeat(corners(rx), len(lags), axis=0)
    for reference, at in ((rx.center, lags), (around, np.tile(lags, (4, 1)))):
        gap, bound = _long_double_gap(_autocorrelation_many(at, reference, rx, tx_grid, WAVE),
                                      _long_double_correlation(at, reference, rx, tx_grid))
        assert gap <= bound
    reverses = {"u", "v"} <= set(mirror_axes(tx_grid, rx)) and half_turn_reverses(tx_grid, rx)
    event(f"two-mirror sums: {reverses}")
    if reverses:
        exact, phase = _long_double_correlation(lags, rx.center, rx, tx_grid)
        for tables in (True, False):
            gap, bound = _long_double_gap(_two_mirror(lags, rx, tx_grid, tables),
                                          (exact.real, phase))
            assert gap <= bound


def test_two_mirror_sum_behind_a_receiver_turned_5e_13_rad():
    # The frames pair to FRAME_TOL but not to TABLE_FRAME_TOL.  Tables would
    # drop the 5e-13 off-pair overlap from every phase; node_distances keeps it.
    tx_grid, rx_grid = _scene(distance=1.0, rx_turn=rotation_about(Z_AXIS, 5e-13))
    rx = rx_grid.surface
    assert link_symmetry(tx_grid, rx_grid).pairing is not None
    assert axis_pairing(tx_grid.surface, rx, TABLE_FRAME_TOL) is None
    lags = _coords(_integer_lattice(11, 11, spacing=(0.06, 0.06)))
    exact, phase = _long_double_correlation(lags, rx.center, rx, tx_grid)
    gap, bound = _long_double_gap(_two_mirror_correlation(lags, rx, tx_grid, WAVE),
                                  (exact.real, phase))
    assert gap <= bound
