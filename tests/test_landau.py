"""Autocorrelation sampling, wavenumber response, and the Landau count."""

import math
import warnings

import numpy as np
import pytest

import edof.landau
from edof.errors import NumericalError, ResourceError, SingularKernelError
from edof.geometry import discretize, lattice_orbits, make_surface, mirror_axes, rotation_about
from edof.kernel import WaveConfig, assemble_operator, green_kernel
from edof.landau import (
    _autocorrelation_lattice,
    _autocorrelation_many,
    _two_mirror_correlation,
    autocorrelation_kernel,
    landau_edof,
    polarization_study,
    stationarity_check,
    support_measure,
    wavenumber_response,
)
from edof.spectrum import coupling_spectrum

from conftest import APERTURE, DISTANCE, PARAXIAL_BANDWIDTH, WAVELENGTH

ANCHOR_LAG_GRID = 141
ANCHOR_LAG_EXTENT = 6.3


def _k_points(resp):
    """(N, 2) wavenumber of each H sample, u-major like H_values."""
    k_u, k_v = np.meshgrid(*resp.k_axes, indexing="ij")
    return np.column_stack([k_u.ravel(), k_v.ravel()])


@pytest.fixture(scope="module")
def anchor_response(anchor_surfaces, anchor_grids, wave):
    """Anchor wavenumber response: 141 x 141 lags over 6.3 m."""
    _, rx = anchor_surfaces
    tx_grid, _ = anchor_grids
    return wavenumber_response(rx, tx_grid, wave, lag_grid=ANCHOR_LAG_GRID,
                               lag_extent=ANCHOR_LAG_EXTENT)


def test_zero_lag_is_integrated_kernel_power(anchor_surfaces, anchor_grids, wave):
    _, rx = anchor_surfaces
    tx_grid, _ = anchor_grids
    g0 = autocorrelation_kernel((0.0, 0.0), rx.center, tx_grid, wave, rx)
    k = green_kernel(rx.center, tx_grid.points, wave)
    assert g0.imag == pytest.approx(0.0, abs=1e-9 * g0.real)
    assert g0.real > 0.0
    assert g0.real == pytest.approx(float(np.abs(k) ** 2 @ tx_grid.weights),
                                    rel=1e-12)


def test_autocorrelation_hermitian_symmetry(anchor_surfaces, anchor_grids, wave):
    _, rx = anchor_surfaces
    tx_grid, _ = anchor_grids
    for lag in ((0.013, -0.004), (0.2, 0.11), (-0.05, 0.31)):
        fwd = autocorrelation_kernel(lag, rx.center, tx_grid, wave, rx)
        bwd = autocorrelation_kernel((-lag[0], -lag[1]), rx.center, tx_grid,
                                     wave, rx)
        assert bwd == pytest.approx(np.conj(fwd), rel=1e-15)


def test_autocorrelation_peaks_at_zero_lag(anchor_surfaces, anchor_grids, wave):
    _, rx = anchor_surfaces
    tx_grid, _ = anchor_grids
    g0 = autocorrelation_kernel((0.0, 0.0), rx.center, tx_grid, wave, rx).real
    rng = np.random.default_rng(9)
    for lag in rng.uniform(-1.0, 1.0, size=(12, 2)):
        assert abs(autocorrelation_kernel(lag, rx.center, tx_grid, wave, rx)) \
            <= g0 * (1.0 + 1e-12)


def test_autocorrelation_matches_kernel_product(anchor_surfaces, anchor_grids, wave):
    _, rx = anchor_surfaces
    tx_grid, _ = anchor_grids
    lag = np.array([0.07, -0.02])
    p_plus = rx.center + 0.5 * (lag[0] * rx.tangent_u + lag[1] * rx.tangent_v)
    p_minus = rx.center - 0.5 * (lag[0] * rx.tangent_u + lag[1] * rx.tangent_v)
    direct = np.sum(green_kernel(p_plus, tx_grid.points, wave)
                    * np.conj(green_kernel(p_minus, tx_grid.points, wave))
                    * tx_grid.weights)
    g = autocorrelation_kernel(lag, rx.center, tx_grid, wave, rx)
    assert g == pytest.approx(complex(direct), rel=1e-12)


def test_autocorrelation_guards_minimum_separation(wave):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    tx_grid = discretize(tx, 1, 1)  # single node at the origin
    near = np.array([0.0, 0.0, 0.05 * WAVELENGTH])
    with pytest.raises(SingularKernelError):
        autocorrelation_kernel((0.0, 0.0), near, tx_grid, wave, rx)


def test_response_flat_inside_nominal_band(anchor_response, wave):
    resp = anchor_response
    half = wave.k0 * APERTURE / (2.0 * DISTANCE)
    lobe = 2.0 * np.pi / ANCHOR_LAG_EXTENT  # Fejer main-lobe half width
    ku, kv = _k_points(resp).T
    inner = (np.abs(ku) <= half - lobe) & (np.abs(kv) <= half - lobe)
    h = resp.H_values[inner]
    assert float(h.max() / h.min()) == pytest.approx(1.0734728445265576, rel=1e-9)
    assert float(h.max() / h.min()) <= 2.0


def test_response_leakage_is_bounded(anchor_response, wave):
    resp = anchor_response
    half = wave.k0 * APERTURE / (2.0 * DISTANCE)
    ku, kv = _k_points(resp).T
    outer = (np.abs(ku) > 1.5 * half) | (np.abs(kv) > 1.5 * half)
    leakage = float(resp.H_values[outer].sum() / resp.H_values.sum())
    assert leakage <= 0.05


def test_response_preserves_total_power(anchor_response, anchor_surfaces, anchor_grids,
                                        wave):
    resp = anchor_response
    _, rx = anchor_surfaces
    total = float(resp.H_values.sum()) * resp.cell_area / (4.0 * np.pi ** 2)
    g0 = autocorrelation_kernel((0.0, 0.0), rx.center, anchor_grids[0], wave, rx).real
    assert abs(total - g0) <= 1e-6 * g0


def test_explicit_lag_grid_below_three_is_a_value_error(anchor_surfaces, anchor_grids, wave):
    _, rx = anchor_surfaces
    with pytest.raises(ValueError, match=r"^lag grid needs at least 3 points per axis, "
                                         r"got \(2, 5\)$") as caught:
        wavenumber_response(rx, anchor_grids[0], wave, lag_grid=(2, 5), lag_extent=6.3)
    assert caught.type is ValueError


def test_response_nonnegative_by_construction(anchor_response):
    resp = anchor_response
    assert np.all(resp.H_values >= 0.0)
    assert resp.diagnostics["pre_clamp_min_ratio"] >= -1e-9
    assert resp.H_values.max() > 0.0


def test_response_k_axes_are_the_dft_frequencies(anchor_response):
    resp = anchor_response
    axes = [np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=d))
            for n, d in zip(resp.shape, resp.diagnostics["lag_spacing"])]
    for got, want in zip(resp.k_axes, axes):
        assert np.array_equal(got, want)
    # the (N, 2) wavenumber table the response used to carry
    k_u, k_v = np.meshgrid(*axes, indexing="ij")
    table = np.column_stack([k_u.ravel(), k_v.ravel()])
    for got, column in zip(np.meshgrid(*resp.k_axes, indexing="ij"), table.T):
        assert np.array_equal(got.ravel(), column)
    assert len(resp.H_values) == len(table)


def test_response_forces_odd_lag_counts(anchor_surfaces, wave):
    _, rx = anchor_surfaces
    tx_grid = discretize(make_surface((0.0, 0.0, 0.0), np.eye(3),
                                      APERTURE, APERTURE), 8, 8)
    resp = wavenumber_response(rx, tx_grid, wave, lag_grid=10, lag_extent=1.0)
    assert resp.shape == (11, 11)
    assert [k.shape for k in resp.k_axes] == [(11,), (11,)]


def test_response_validates_lag_arguments(anchor_surfaces, anchor_grids, wave):
    _, rx = anchor_surfaces
    tx_grid, _ = anchor_grids
    with pytest.raises(ValueError):
        wavenumber_response(rx, tx_grid, wave, lag_grid=2, lag_extent=1.0)
    with pytest.raises(ValueError):
        wavenumber_response(rx, tx_grid, wave, lag_grid=11, lag_extent=0.0)
    for extent in (np.inf, (1.0, np.inf)):
        with pytest.raises(ValueError, match="positive"):
            wavenumber_response(rx, tx_grid, wave, lag_grid=11, lag_extent=extent)
    with pytest.raises(ValueError):
        wavenumber_response(rx, tx_grid, wave, lag_grid=(5, 5, 5), lag_extent=1.0)
    with pytest.raises(ValueError):
        wavenumber_response(rx, tx_grid, wave, lag_grid=11,
                            lag_extent=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("lag_grid", [9.9, (11, 3.99)])
def test_response_rejects_fractional_lag_counts(anchor_surfaces, wave, lag_grid):
    tx, rx = anchor_surfaces
    tx_grid = discretize(tx, 8, 8)
    with pytest.raises(ValueError, match="whole numbers"):
        wavenumber_response(rx, tx_grid, wave, lag_grid=lag_grid, lag_extent=1.0)


@pytest.mark.parametrize("lag_grid", [11.0, np.int64(11), (11, 11.0)])
def test_response_accepts_integral_lag_counts(anchor_surfaces, wave, lag_grid):
    tx, rx = anchor_surfaces
    tx_grid = discretize(tx, 8, 8)
    want = wavenumber_response(rx, tx_grid, wave, lag_grid=11, lag_extent=1.0)
    got = wavenumber_response(rx, tx_grid, wave, lag_grid=lag_grid, lag_extent=1.0)
    assert got.shape == want.shape == (11, 11)
    assert np.array_equal(got.H_values, want.H_values)


def test_response_that_overflows_is_an_error(anchor_surfaces, wave):
    # the config accepts this extent; lag points 1e300 m out overflow when squared
    tx, rx = anchor_surfaces
    tx_grid = discretize(tx, 8, 8)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NumericalError, match="not finite"):
        wavenumber_response(rx, tx_grid, wave, lag_grid=11, lag_extent=1e300)


def _criterion_2_tilted_scene():
    """The tilted, offset link of acceptance criterion 2, on automatic lags."""
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.4, 0.6)
    rx = make_surface((0.5, -0.3, 8.0), rotation_about((0.3, 1.0, 0.2), 0.7),
                      0.3, 0.3)
    return rx, discretize(tx, 10, 14), {}


def _response_scene(scene, anchor_surfaces, anchor_grids):
    """rx, transmit grid and lag arguments: the reference or the tilted scene."""
    if scene == "reference":
        return anchor_surfaces[1], anchor_grids[0], {
            "lag_grid": ANCHOR_LAG_GRID, "lag_extent": ANCHOR_LAG_EXTENT}
    return _criterion_2_tilted_scene()


@pytest.mark.parametrize("scene", ["reference", "criterion-2-tilted"])
def test_response_emits_no_warning(scene, anchor_surfaces, anchor_grids, wave):
    rx, tx_grid, lags = _response_scene(scene, anchor_surfaces, anchor_grids)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wavenumber_response(rx, tx_grid, wave, **lags)


@pytest.mark.parametrize("scene,fold", [("reference", ("u", "v", "swap")),
                                        ("criterion-2-tilted", ())])
def test_lattice_evaluates_the_full_lattice_lags_of_its_fold(
        scene, fold, anchor_surfaces, anchor_grids, wave, monkeypatch):
    """The mirror orbits' first lags, or the first half of the flat lattice."""
    rx, tx_grid, lags = _response_scene(scene, anchor_surfaces, anchor_grids)
    evaluated = []

    def spy(kernel):
        def evaluate(lags, *args):
            evaluated.append(lags)
            return kernel(lags, *args)
        return evaluate

    # the two-mirror sum on the reference, the general sum on the tilted scene
    for kernel in (_autocorrelation_many, _two_mirror_correlation):
        monkeypatch.setattr(edof.landau, kernel.__name__, spy(kernel))
    resp = wavenumber_response(rx, tx_grid, wave, **lags)
    (got,) = evaluated
    assert tuple(resp.diagnostics["symmetry"]) == fold
    axes = [(np.arange(n) - (n - 1) / 2.0) * d
            for n, d in zip(resp.shape, resp.diagnostics["lag_spacing"])]
    lag_u, lag_v = np.meshgrid(*axes, indexing="ij")
    full = np.column_stack([lag_u.ravel(), lag_v.ravel()])
    nodes = lattice_orbits(resp.shape, fold).nodes if fold else np.arange((len(full) + 1) // 2)
    assert resp.diagnostics["evaluated_lags"] == len(nodes)
    assert np.array_equal(got, full[nodes])


class _LatticeReached(Exception):
    """Raised in place of lattice_orbits: the lag lattice was about to be built."""


def _reach_lattice(*args):
    raise _LatticeReached


@pytest.mark.parametrize("distance,lag_grid,outcome", [
    (5000.0, None, ResourceError),        # automatic counts: 12,813^2 lags
    (DISTANCE, 4001, ResourceError),
    (DISTANCE, 3999, _LatticeReached),    # the largest lattice within the budget
])
def test_lag_lattice_is_bounded_before_it_is_built(distance, lag_grid, outcome,
                                                   wave, monkeypatch):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, distance), np.eye(3), APERTURE, APERTURE)
    monkeypatch.setattr(edof.landau, "lattice_orbits", _reach_lattice)
    with pytest.raises(outcome) as info:
        wavenumber_response(rx, discretize(tx, 8, 8), wave, lag_grid=lag_grid,
                            lag_extent=ANCHOR_LAG_EXTENT if lag_grid else None)
    if outcome is ResourceError:
        assert "landau_options.lag_grid or lag_extent_m" in str(info.value)


@pytest.fixture(scope="module")
def rotated_scene(wave):
    """Rotated, non-square receive aperture facing a 13 x 11 transmit grid."""
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.1, 0.05, 3.0), rotation_about((1.0, 1.0, 0.0), 0.3),
                      0.4, 0.3)
    return rx, discretize(tx, 13, 11)


def _every_lag(axes, rx_surface, tx_grid, wave):
    """Stand-in for _autocorrelation_lattice that folds nothing: every lag is
    evaluated."""
    lag_u, lag_v = np.meshgrid(*axes, indexing="ij")
    g = _autocorrelation_many(np.column_stack([lag_u.ravel(), lag_v.ravel()]),
                              rx_surface.center, rx_surface, tx_grid, wave)
    return g, (), len(g)


def test_lag_lattice_folds_by_the_swap_only_on_equal_axes(wave, monkeypatch):
    """The coaxial square link holds the swap, and its lag lattice holds it
    with equal counts and equal spacings only; each fold matches every lag
    evaluated."""
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), APERTURE, APERTURE)
    tx_grid = discretize(tx, 8, 8)
    assert set(mirror_axes(tx_grid, rx)) == {"u", "v", "swap"}
    for lag_grid, lag_extent, fold in [(21, (0.5, 0.5), ("u", "v", "swap")),
                                       (21, (0.5, 0.6), ("u", "v")),
                                       ((21, 23), (0.5, 0.5), ("u", "v"))]:
        folded = wavenumber_response(rx, tx_grid, wave, lag_grid=lag_grid,
                                     lag_extent=lag_extent)
        with monkeypatch.context() as patch:
            patch.setattr(edof.landau, "_autocorrelation_lattice", _every_lag)
            full = wavenumber_response(rx, tx_grid, wave, lag_grid=lag_grid,
                                       lag_extent=lag_extent)
        assert tuple(folded.diagnostics["symmetry"]) == fold
        np.testing.assert_allclose(folded.H_values, full.H_values, rtol=0.0,
                                   atol=1e-13 * full.H_values.max())


def test_half_lattice_mirrors_exact_conjugates(rotated_scene, wave, monkeypatch):
    rx, tx_grid = rotated_scene
    axes = (np.arange(21) - 10.0) * 0.5 / 21, (np.arange(15) - 7.0) * 0.5 / 15
    lag_u, lag_v = np.meshgrid(*axes, indexing="ij")
    lags = np.column_stack([lag_u.ravel(), lag_v.ravel()])
    evaluated = []

    def spy(lags, *args):
        evaluated.append(len(lags))
        return _autocorrelation_many(lags, *args)

    monkeypatch.setattr(edof.landau, "_autocorrelation_many", spy)
    g, folded_by, n_evaluated = _autocorrelation_lattice(axes, rx, tx_grid, wave)
    monkeypatch.undo()
    assert folded_by == ()
    assert evaluated == [n_evaluated] == [(len(lags) + 1) // 2]
    assert np.array_equal(g[::-1], np.conj(g))
    full = _autocorrelation_many(lags, rx.center, rx, tx_grid, wave)
    np.testing.assert_allclose(g, full, rtol=0.0, atol=1e-13 * np.abs(full).max())


def test_half_lattice_response_matches_full_lattice(rotated_scene, wave,
                                                    monkeypatch):
    rx, tx_grid = rotated_scene
    half = wavenumber_response(rx, tx_grid, wave, lag_grid=(21, 15),
                               lag_extent=0.5)
    monkeypatch.setattr(edof.landau, "_autocorrelation_lattice", _every_lag)
    full = wavenumber_response(rx, tx_grid, wave, lag_grid=(21, 15),
                               lag_extent=0.5)
    np.testing.assert_allclose(half.H_values, full.H_values, rtol=0.0,
                               atol=1e-13 * full.H_values.max())


def _quarter_wavelength_shape(response, wave):
    """Lag shape of the former default: quarter-wavelength spacing."""
    return tuple(2 * (math.ceil(e / (0.25 * wave.wavelength)) // 2) + 1
                 for e in response.diagnostics["lag_extent"])


def _default_scene(tx_size, tx_nodes, rx_center, rx_size, rotation=np.eye(3)):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), tx_size, tx_size)
    rx = make_surface(rx_center, rotation, rx_size, rx_size)
    return rx, discretize(tx, tx_nodes, tx_nodes)


DEFAULT_GRID_SCENES = {
    "distance-2m": ((0.5, 24, (0.0, 0.0, 2.0), 0.5), {}),
    "distance-1m": ((0.5, 24, (0.0, 0.0, 1.0), 0.5), {}),
    "offset-rx": ((0.5, 24, (0.4, 0.2, 2.0), 0.5), {}),
    "tilted-rx": ((0.5, 24, (0.0, 0.0, 2.0), 0.5),
                  {"rotation": rotation_about((1.0, 0.0, 0.0), 0.4)}),
    "small-rx": ((0.5, 24, (0.0, 0.0, 3.0), 0.05), {}),
    "large-rx-small-tx": ((0.2, 10, (0.0, 0.0, 2.0), 1.0), {}),
}
# Bound on how far, relative to max H, the band-sized lattice moves a
# response sample against the quarter-wavelength lattice (up to 9.2e-3 on
# these scenes); only a sample that close to a threshold may change side,
# and every sample the smaller lattice drops lies below it.
SAMPLE_SHIFT = 1e-2


@pytest.mark.parametrize("name", sorted(DEFAULT_GRID_SCENES))
def test_default_lag_grid_matches_quarter_wavelength_grid(name, wave):
    args, kwargs = DEFAULT_GRID_SCENES[name]
    rx, tx_grid = _default_scene(*args, **kwargs)
    new = wavenumber_response(rx, tx_grid, wave)
    extent = new.diagnostics["lag_extent"]
    old = wavenumber_response(rx, tx_grid, wave,
                              lag_grid=_quarter_wavelength_shape(new, wave),
                              lag_extent=extent)
    assert new.shape[0] <= old.shape[0] and new.shape[1] <= old.shape[1]
    # same dual-grid cell, so the band-sized k lattice is a subset of the old
    assert new.cell_area == pytest.approx(old.cell_area, rel=1e-9)
    cells = np.round(_k_points(old) * np.asarray(extent) / (2.0 * np.pi))
    index = {tuple(c): i for i, c in enumerate(cells.astype(int))}
    common = np.array([index[tuple(c)] for c in np.round(
        _k_points(new) * np.asarray(extent) / (2.0 * np.pi)).astype(int)])
    outside = np.ones(len(old.H_values), dtype=bool)
    outside[common] = False
    h_new = new.H_values / new.H_values.max()
    h_old = old.H_values[common] / old.H_values.max()
    assert np.abs(h_new - h_old).max() <= SAMPLE_SHIFT
    assert old.H_values[outside].max() <= SAMPLE_SHIFT * old.H_values.max()
    for gamma in (0.25, 0.5, 0.75):
        # the counts agree unless a sample within SAMPLE_SHIFT of the
        # threshold changed side (offset-rx at 0.75: two samples 1e-3 below)
        if np.array_equal(h_new >= gamma, h_old >= gamma):
            assert support_measure(new, gamma) == pytest.approx(
                support_measure(old, gamma), rel=1e-9)


def test_default_lag_grid_is_quarter_wavelength_at_grazing(wave):
    rx, tx_grid = _default_scene(0.5, 24, (0.0, 0.0, 0.3), 0.5)
    resp = wavenumber_response(rx, tx_grid, wave)
    assert min(resp.diagnostics["k_band"]) >= wave.k0
    assert resp.shape == _quarter_wavelength_shape(resp, wave)


def test_default_lag_grid_shrinks_on_paraxial_scene(wave):
    rx, tx_grid = _default_scene(0.5, 8, (0.0, 0.0, 4.0), 0.5)
    resp = wavenumber_response(rx, tx_grid, wave)
    old_u, old_v = _quarter_wavelength_shape(resp, wave)
    assert (old_u, old_v) == (257, 257)
    assert resp.shape[0] * resp.shape[1] <= old_u * old_v / 16
    k_band = resp.diagnostics["k_band"]
    spacing = resp.diagnostics["lag_spacing"]
    assert all(k < wave.k0 for k in k_band)
    # sampled at least twice as finely as Nyquist for the padded band
    assert all(d <= np.pi / (2.0 * k) for d, k in zip(spacing, k_band))


def test_support_measure_extremes_and_monotonicity(anchor_response):
    resp = anchor_response
    full_plane = resp.shape[0] * resp.shape[1] * resp.cell_area
    assert support_measure(resp, 0.0, mode="absolute") \
        == pytest.approx(full_plane, rel=1e-12)
    assert support_measure(resp, 2.0 * resp.H_values.max(),
                           mode="absolute") == 0.0
    gammas = [1e-6, 0.01, 0.3, 0.5, 0.9, 0.999]
    measures = [support_measure(resp, g) for g in gammas]
    assert all(a >= b for a, b in zip(measures, measures[1:]))
    with pytest.raises(ValueError):
        support_measure(resp, 0.5, mode="quantile")
    with pytest.raises(ValueError):
        support_measure(resp, -1.0)


def test_support_anchor_value(anchor_response):
    resp = anchor_response
    s = support_measure(resp, 0.5, mode="relative")
    assert s == pytest.approx(955.8770299266125, rel=1e-9)
    assert s == pytest.approx(PARAXIAL_BANDWIDTH, rel=0.10)


def test_support_doubles_with_transmit_width(anchor_response, anchor_surfaces, wave):
    resp = anchor_response
    base = support_measure(resp, 0.5, mode="relative")
    _, rx = anchor_surfaces
    wide = make_surface((0.0, 0.0, 0.0), np.eye(3), 2.0 * APERTURE, APERTURE)
    resp_wide = wavenumber_response(
        rx, discretize(wide, 80, 40), wave, lag_grid=ANCHOR_LAG_GRID,
        lag_extent=(ANCHOR_LAG_EXTENT / 2.0, ANCHOR_LAG_EXTENT))
    ratio = support_measure(resp_wide, 0.5, mode="relative") / base
    assert 1.8 <= ratio <= 2.2


def test_landau_edof_closed_forms():
    unit = make_surface((0.0, 0.0, 5.0), np.eye(3), 1.0, 1.0)
    assert landau_edof(unit, 4.0 * np.pi ** 2).n_edof == pytest.approx(1.0, rel=1e-15)
    wave = WaveConfig(wavelength=WAVELENGTH)
    cell = make_surface((0.0, 0.0, 5.0), np.eye(3), WAVELENGTH, WAVELENGTH)
    iso = np.pi * wave.k0 ** 2
    assert landau_edof(cell, iso).n_edof == pytest.approx(np.pi, rel=1e-12)


def test_landau_edof_threshold_tagging():
    unit = make_surface((0.0, 0.0, 5.0), np.eye(3), 1.0, 1.0)
    plain = landau_edof(unit, 1.0)
    tagged = landau_edof(unit, 1.0, gamma_mode="relative", gamma_value=0.5)
    assert plain.method == "landau"
    assert plain.gamma_value is None
    assert tagged.method == "landau"
    assert tagged.gamma_mode == "relative"
    assert tagged.gamma_value == 0.5
    with pytest.raises(ValueError):
        landau_edof(unit, -1.0)


def test_landau_edof_anchor_chain(anchor_surfaces, anchor_response):
    _, rx = anchor_surfaces
    resp = anchor_response
    report = landau_edof(rx, support_measure(resp, 0.5, mode="relative"),
                         gamma_mode="relative", gamma_value=0.5)
    assert report.n_edof == pytest.approx(6.0531620055429194, rel=1e-9)
    assert report.n_edof == pytest.approx(6.25, rel=0.10)


def test_landau_is_whole_cells_and_misses_paraxial_by_more_than_one(
        anchor_surfaces, anchor_response):
    """Oracle: the paraxial count n_par = A_tx A_rx / (lambda d)^2.

    The Landau value is a whole number of dual-grid cells times
    A_rx * cell_area / (2 pi)^2.  A lag extent of c coherence scales
    lambda d / L per axis makes n_par exactly c^2 cells, and the measured
    count sits several cells off it: 961 = 31^2 against 992.25 = 31.5^2 on
    the reference scene (3.1 % under), and 69 against 64 = 8^2 along a
    coaxial sweep with the automatic extent (7.8 % over; 61 at 2.5 m).
    """
    def cells(rx, resp):
        """Landau count and paraxial count, in units of one cell's count."""
        per_cell = rx.area * resp.cell_area / (4.0 * np.pi ** 2)
        d = rx.center[2]
        n_par = APERTURE ** 4 / (WAVELENGTH * d) ** 2
        return landau_edof(rx, support_measure(resp, 0.5)).n_edof / per_cell, n_par / per_cell

    _, rx = anchor_surfaces
    n_lan, n_par = cells(rx, anchor_response)
    assert n_lan == pytest.approx(961.0, abs=1e-9)
    assert n_par == pytest.approx(992.25, rel=1e-12)

    measured = {2.5: 61, 5.0: 69, 10.0: 69, 20.0: 69, 40.0: 69}
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), APERTURE, APERTURE)
    tx_grid = discretize(tx, 24, 24)
    for d, expected in measured.items():
        rx = make_surface((0.0, 0.0, d), np.eye(3), APERTURE, APERTURE)
        resp = wavenumber_response(rx, tx_grid, WaveConfig(wavelength=WAVELENGTH))
        n_lan, n_par = cells(rx, resp)
        assert n_lan == pytest.approx(expected, abs=1e-9)
        assert n_par == pytest.approx(64.0, rel=1e-12)
        assert abs(n_lan - n_par) > 1.0


def test_stationarity_far_scene_passes(anchor_surfaces, anchor_grids, wave):
    _, rx = anchor_surfaces
    tx_grid, _ = anchor_grids
    result = stationarity_check(rx, tx_grid, wave)
    assert result["max_modulus_deviation"] == pytest.approx(
        0.0012468848827716325, rel=1e-9)
    assert result["stationary"] is True


def test_stationarity_near_scene_fails(anchor_grids, wave):
    tx_grid, _ = anchor_grids
    rx_near = make_surface((0.0, 0.0, 0.3), np.eye(3), APERTURE, APERTURE)
    result = stationarity_check(rx_near, tx_grid, wave)
    assert result["max_modulus_deviation"] == pytest.approx(
        0.40387312290596383, rel=1e-9)
    assert result["stationary"] is False


@pytest.fixture(scope="module")
def small_scene():
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.1, 0.1)
    rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), 0.1, 0.1)
    return tx, rx


def test_polarization_unit_scale_matches_direct_spectrum(small_scene, wave):
    tx, rx = small_scene
    rows = polarization_study(tx, rx, wave, scales=[1.0])
    assert len(rows) == 1
    row = rows[0]
    assert row.scale == 1.0
    direct = coupling_spectrum(assemble_operator(
        discretize(tx, 25, 25), discretize(rx, 25, 25), wave))
    assert np.array_equal(row.spectrum.values, direct.values)
    assert len(row.spectrum) == 625


def test_polarization_counts_monotone_in_gamma(small_scene, wave):
    tx, rx = small_scene
    row = polarization_study(tx, rx, wave, scales=[1.0])[0]
    gammas = sorted(row.n_edof)
    counts = [row.n_edof[g] for g in gammas]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_polarization_budget_overflow_names_the_scale(anchor_surfaces, wave):
    tx, rx = anchor_surfaces
    with pytest.raises(ResourceError, match="r=3"):
        polarization_study(tx, rx, wave, scales=(3.0,), max_matrix_entries=10000)


def test_polarization_validates_inputs(small_scene, wave):
    tx, rx = small_scene
    with pytest.raises(ValueError):
        polarization_study(tx, rx, wave, scales=[])
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            polarization_study(tx, rx, wave, scales=[1.0, bad])
    with pytest.raises(ValueError):
        polarization_study(tx, rx, wave, scales=[1.0], gammas=(0.5,))
