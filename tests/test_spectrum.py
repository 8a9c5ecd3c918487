"""Spectrum extraction, mode bases, and threshold counting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edof.errors import DimensionError, NumericalError
from edof.geometry import SYMMETRY_RTOL, discretize, make_surface, rotation_about
from edof.kernel import WaveConfig, assemble_operator, green_kernel, hilbert_schmidt_norm
from edof.landau import polarization_study
from edof.spectrum import (
    CouplingSpectrum,
    count_edof,
    coupling_spectrum,
    extract_modes,
    kolmogorov_width,
)

from conftest import APERTURE, DISTANCE


def _synthetic(values):
    return CouplingSpectrum(values=np.asarray(values, dtype=float))


def test_count_is_strictly_above_threshold():
    spec = _synthetic([4.0, 3.0, 1.0, 0.1])
    assert count_edof(spec, 0.5) == 3
    assert count_edof(spec, 1.0) == 2      # the value 1.0 itself is excluded
    assert count_edof(spec, 0.0) == 4      # saturates at the resolved rank


def test_count_single_value_at_its_own_level():
    assert count_edof(_synthetic([0.1]), 0.1) == 0


def test_count_relative_mode_scales_by_leading_value():
    spec = _synthetic([4.0, 3.0, 1.0, 0.1])
    assert count_edof(spec, 0.5, mode="relative") == 2  # threshold 2.0


def test_count_monotone_in_gamma():
    spec = _synthetic([4.0, 3.0, 1.0, 0.1])
    counts = [count_edof(spec, g) for g in np.linspace(0.0, 5.0, 40)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_count_rejects_bad_threshold_arguments():
    spec = _synthetic([1.0])
    with pytest.raises(ValueError):
        count_edof(spec, 0.5, mode="median")
    with pytest.raises(ValueError):
        count_edof(spec, -0.1)


def test_kolmogorov_width_reads_the_spectrum():
    spec = _synthetic([4.0, 3.0, 1.0, 0.1])
    assert kolmogorov_width(spec, 0) == pytest.approx(2.0, rel=1e-15)
    assert kolmogorov_width(spec, 2) == pytest.approx(1.0, rel=1e-15)
    assert kolmogorov_width(spec, 10) == 0.0
    with pytest.raises(ValueError):
        kolmogorov_width(spec, -1)


def test_spectrum_container_enforces_order_and_sign():
    with pytest.raises(NumericalError):
        CouplingSpectrum(values=np.array([1.0, 2.0]))
    with pytest.raises(NumericalError):
        CouplingSpectrum(values=np.array([1.0, -0.5]))
    with pytest.raises(NumericalError):
        CouplingSpectrum(values=np.array([]))
    with pytest.raises(NumericalError, match="peak is zero"):
        CouplingSpectrum(values=np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectrum_container_rejects_non_finite_values(bad):
    # both order comparisons are False for nan, and inf passes them
    with pytest.raises(NumericalError, match="finite"):
        CouplingSpectrum(values=np.array([bad, 1.0]))


def test_spectrum_sum_equals_squared_frobenius(small_operator):
    spec = coupling_spectrum(small_operator)
    assert float(np.sum(spec.values)) == pytest.approx(
        hilbert_schmidt_norm(small_operator), rel=1e-10)


def test_gram_eigenvalues_agree_between_sides(small_operator):
    a = small_operator.matrix
    tx_eigs = np.linalg.eigvalsh(a.conj().T @ a)[::-1]
    rx_eigs = np.linalg.eigvalsh(a @ a.conj().T)[::-1]
    spec = coupling_spectrum(small_operator).values
    k = min(len(tx_eigs), len(rx_eigs))
    assert np.allclose(tx_eigs[:k], rx_eigs[:k], rtol=1e-10, atol=1e-10 * spec[0])
    assert np.allclose(spec[:k], tx_eigs[:k], rtol=1e-8, atol=1e-10 * spec[0])


def test_anchor_count_in_paraxial_band(anchor_spectrum):
    n = count_edof(anchor_spectrum, 0.5, mode="relative")
    assert 4 <= n <= 9


def _fresnel_values(side, distance, wave, n=64):
    """Squared singular values, up to one factor, of the separable Fresnel
    model of two coaxial side x side squares, descending.

    The Fresnel kernel is a constant times exp(-j k0 (x_r - x_t)^2 / (2 d)) per
    axis.  Its quadratic phases are unitary factors, so each axis has the
    singular values of the finite Fourier transform exp(j k0 x_r x_t / d) on
    [-side/2, side/2], the prolate-spheroidal concentration spectrum of
    Slepian & Pollak (Bell Syst. Tech. J. 40, 1961), here on n Gauss-Legendre
    nodes.  The 2-D spectrum is the outer product of the two axes.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * side * x, 0.5 * side * w
    a = np.sqrt(w)[:, None] * np.exp(1j * wave.k0 * np.outer(x, x) / distance) \
        * np.sqrt(w)[None, :]
    s2 = np.linalg.svd(a, compute_uv=False) ** 2
    return np.sort(np.outer(s2, s2).ravel())[::-1]


def test_separable_fresnel_spectrum_matches_svd_counts(anchor_surfaces, wave):
    """Oracle: the SVD counts of the exact kernel against the Fresnel model.

    They agree to one count everywhere but at r = 2, gamma = 0.01.  There one
    1-D Fresnel value, 0.0102 of the top, times the eight axis values within
    1 % of the top puts 16 values within 2.5 % above the threshold.  The exact
    kernel holds those 16 at 0.0097 of its top, below it (the same on
    Gauss-Legendre grids of 30 to 60 nodes per axis), so the Fresnel count is
    16 higher there, and matches at a threshold 3 % higher.
    """
    tx, rx = anchor_surfaces
    gammas = (0.01, 0.5, 0.9)
    measured = {1.0: [15, 4, 3], 2.0: [143, 99, 80]}
    rows = polarization_study(tx, rx, wave, scales=list(measured), gammas=gammas,
                              max_matrix_entries=4_000_000)
    for row in rows:
        assert [row.n_edof[g] for g in gammas] == measured[row.scale]
        fresnel = CouplingSpectrum(values=_fresnel_values(APERTURE * row.scale,
                                                          DISTANCE, wave))
        for g in gammas:
            n_fresnel = count_edof(fresnel, g, "relative")
            if (row.scale, g) == (2.0, 0.01):
                assert n_fresnel - row.n_edof[g] == 16
                n_fresnel = count_edof(fresnel, 1.03 * g, "relative")
            assert abs(n_fresnel - row.n_edof[g]) <= 1


def test_modes_orthonormal_under_weighted_inner_product(small_operator):
    basis = extract_modes(small_operator, 12)
    for modes, grid in ((basis.tx_modes, basis.tx_grid),
                        (basis.rx_modes, basis.rx_grid)):
        gram = modes.conj().T @ (grid.weights[:, None] * modes)
        assert np.max(np.abs(gram - np.eye(12))) < 1e-10


def test_modes_satisfy_the_coupling_relation(small_operator):
    basis = extract_modes(small_operator, 8)
    s0 = basis.couplings[0]
    w_tx = np.sqrt(small_operator.tx_grid.weights)
    w_rx = np.sqrt(small_operator.rx_grid.weights)
    for n in range(8):
        lhs = small_operator.matrix @ (w_tx * basis.tx_modes[:, n])
        rhs = basis.couplings[n] * (w_rx * basis.rx_modes[:, n])
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * s0


def test_modes_do_not_cross_couple(small_operator):
    basis = extract_modes(small_operator, 8)
    u = np.sqrt(small_operator.rx_grid.weights)[:, None] * basis.rx_modes
    v = np.sqrt(small_operator.tx_grid.weights)[:, None] * basis.tx_modes
    coupling = u.conj().T @ small_operator.matrix @ v
    off = coupling - np.diag(basis.couplings)
    assert np.max(np.abs(off)) < 1e-8 * basis.couplings[0]


def test_mode_phase_anchored_real_positive(small_operator):
    basis = extract_modes(small_operator, 5)
    anchors = basis.tx_modes[np.argmax(np.abs(basis.tx_modes), axis=0),
                             np.arange(5)]
    assert np.all(anchors.real > 0.0)
    assert np.max(np.abs(anchors.imag)) < 1e-12 * np.max(np.abs(anchors.real))


def test_extract_modes_rejects_out_of_range_requests(small_operator):
    rank = min(small_operator.matrix.shape)
    with pytest.raises(DimensionError):
        extract_modes(small_operator, 0)
    with pytest.raises(DimensionError):
        extract_modes(small_operator, rank + 1)


def test_single_point_mode_pair():
    wave = WaveConfig(wavelength=0.01)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 1.0, 1.0)
    rx = make_surface((0.0, 0.0, 2.0), np.eye(3), 1.0, 1.0)
    op = assemble_operator(discretize(tx, 1, 1), discretize(rx, 1, 1), wave)
    basis = extract_modes(op, 1)
    k = green_kernel(op.rx_grid.points[0], op.tx_grid.points[0], wave)
    assert basis.couplings[0] == pytest.approx(abs(k), rel=1e-12)
    assert basis.tx_modes[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert abs(basis.rx_modes[0, 0]) == pytest.approx(1.0, rel=1e-12)


def test_expand_field_full_basis_reconstruction():
    """A full basis of extracted modes is complete: projecting a field onto
    the transmit modes under the weighted inner product gives it back."""
    wave = WaveConfig(wavelength=0.01)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.5, 0.5)
    rx = make_surface((0.0, 0.0, 10.0), np.eye(3), 0.5, 0.5)
    op = assemble_operator(discretize(tx, 6, 6), discretize(rx, 6, 6), wave)
    basis = extract_modes(op, 36)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(36) + 1j * rng.standard_normal(36)
    coeffs = basis.tx_modes.conj().T @ (basis.tx_grid.weights * f)
    reconstructed = basis.tx_modes @ coeffs
    assert np.linalg.norm(reconstructed - f) <= 1e-9 * np.linalg.norm(f)


# --- mirror-symmetric scenes: the parity-sector solver -------------------

def _coaxial_operator(tx_counts, rx_counts, tx_size=(0.5, 0.5), rx_size=(0.5, 0.5),
                      distance=2.0, rx_turn=np.eye(3), rx_offset=(0.0, 0.0),
                      motion=(np.eye(3), np.zeros(3)), rule="midpoint",
                      wave=WaveConfig(wavelength=0.01), rx_edge_weights=None):
    """tx at the origin, rx ``distance`` up its normal, both moved by the
    rigid motion (R, t); ``rx_turn`` and ``rx_offset`` break or keep the
    mirror symmetry of the coaxial link, and ``rx_edge_weights`` scales the
    weights of the first and last receive u-rows."""
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
    return assemble_operator(discretize(tx, *tx_counts, rule=rule), rx_grid, wave)


def _direct_matrix(operator, wave=WaveConfig(wavelength=0.01)):
    """The weighted kernel on every receive row, evaluated directly rather
    than mirrored: the reference the folded assembly and the sectors are
    held against."""
    g_tx, g_rx = operator.tx_grid, operator.rx_grid
    k = green_kernel(g_rx.points[:, None, :], g_tx.points[None, :, :], wave)
    return np.sqrt(g_rx.weights)[:, None] * k * np.sqrt(g_tx.weights)[None, :]


def _full_svd_squared(operator, wave=WaveConfig(wavelength=0.01)):
    return np.linalg.svd(_direct_matrix(operator, wave), compute_uv=False) ** 2


SECTOR_SCENES = {
    "even-counts": dict(tx_counts=(10, 12), rx_counts=(12, 10)),
    "odd-counts": dict(tx_counts=(9, 11), rx_counts=(11, 7)),
    "unequal-shapes": dict(tx_counts=(21, 23), rx_counts=(17, 19),
                           tx_size=(0.5, 0.3), rx_size=(0.4, 0.6)),
    "one-point-axis": dict(tx_counts=(1, 6), rx_counts=(5, 1)),
    "gauss-legendre": dict(tx_counts=(8, 9), rx_counts=(7, 6),
                           rule="gauss-legendre"),
    "rigid-motion": dict(tx_counts=(9, 8), rx_counts=(8, 7),
                         motion=(rotation_about((0.3, -1.0, 0.6), 0.9),
                                 np.array([0.4, -0.2, 0.7]))),
    "rx-turned-180": dict(tx_counts=(9, 8), rx_counts=(8, 7),
                          rx_turn=rotation_about((0.0, 0.0, 1.0), np.pi)),
    # the receive mirrors flip the other-named transmit axes
    "rx-turned-90": dict(tx_counts=(9, 8), rx_counts=(8, 7),
                         rx_turn=rotation_about((0.0, 0.0, 1.0), np.pi / 2)),
}


@pytest.mark.parametrize("name", sorted(SECTOR_SCENES))
def test_sector_spectrum_matches_full_svd(name):
    op = _coaxial_operator(**SECTOR_SCENES[name])
    spec = coupling_spectrum(op)
    expected = _full_svd_squared(op)
    assert spec.symmetry == ("u", "v")
    assert len(spec) == expected.size
    assert np.max(np.abs(spec.values - expected)) <= 1e-13 * expected[0]


@pytest.mark.parametrize("name", sorted(SECTOR_SCENES))
def test_sector_spectrum_keeps_parseval(name):
    op = _coaxial_operator(**SECTOR_SCENES[name])
    assert float(np.sum(coupling_spectrum(op).values)) == pytest.approx(
        float(np.sum(np.abs(_direct_matrix(op)) ** 2)), rel=1e-12)


@pytest.mark.parametrize("name", sorted(SECTOR_SCENES))
def test_folded_assembly_matches_the_direct_build(name):
    """The fundamental receive rows are the direct kernel bit for bit; every
    mirrored entry lies within the README's tau of it, relative to it."""
    op = _coaxial_operator(**SECTOR_SCENES[name])
    direct = _direct_matrix(op)
    (n_u, n_v), n_tx = op.rx_grid.shape, len(op.tx_grid)
    h_u, h_v = n_u - n_u // 2, n_v - n_v // 2
    got, want = op.matrix.reshape(n_u, n_v, n_tx), direct.reshape(n_u, n_v, n_tx)
    assert np.array_equal(got[:h_u, :h_v], want[:h_u, :h_v])

    surfaces = (op.tx_grid.surface, op.rx_grid.surface)
    side = max(max(s.length_u, s.length_v) for s in surfaces)
    d_min = np.linalg.norm(op.rx_grid.points[:, None, :]
                           - op.tx_grid.points[None, :, :], axis=-1).min()
    k0 = WaveConfig(wavelength=0.01).k0
    tau = SYMMETRY_RTOL * (1.0 + 4.0 * (k0 + 1.0 / d_min) * side)
    assert np.all(np.abs(op.matrix - direct) <= tau * np.abs(direct))


@pytest.mark.parametrize("breaker", [
    dict(rx_offset=(1e-6, 0.0)),
    dict(rx_turn=rotation_about((1.0, 0.0, 0.0), 0.01)),
    # mirror_axes holds u, v and swap, but the receive mirrors swap the
    # transmit axes instead of flipping them
    dict(rx_turn=rotation_about((0.0, 0.0, 1.0), np.pi / 4)),
    # mirrored nodes, but the first and last receive rows weigh 1.5 and 0.5
    dict(rx_edge_weights=(1.5, 0.5)),
], ids=["lateral-1um", "tilt", "turn-45", "rx-edge-weights"])
def test_asymmetric_scene_takes_the_full_svd(breaker):
    op = _coaxial_operator((8, 8), (8, 8), **breaker)
    spec = coupling_spectrum(op)
    assert spec.symmetry == ()
    assert np.array_equal(op.matrix, _direct_matrix(op))  # every row evaluated
    assert np.array_equal(spec.values, _full_svd_squared(op))


def test_sector_spectrum_pads_structural_zeros():
    # rx 3x1 against tx 1x3: the sectors hold 2 values, the matrix rank 2 of 3
    op = _coaxial_operator(tx_counts=(1, 3), rx_counts=(3, 1))
    spec = coupling_spectrum(op)
    expected = _full_svd_squared(op)
    assert spec.symmetry == ("u", "v")
    assert len(spec) == 3
    assert spec.values[-1] == 0.0
    assert np.max(np.abs(spec.values - expected)) <= 1e-13 * expected[0]


def test_coaxial_scene_moved_10m_takes_the_sectors():
    # About 10 m from the origin the phase k0 d rounds to a few 1e-13 of the
    # matrix, yet the geometry still holds both mirrors.  Measured against
    # the scene built at the origin: 2.9e-13 s0^2 on the sectors and
    # 7.0e-14 s0^2 on the full SVD; the bound leaves 3x room above the first.
    scene = dict(tx_counts=(10, 9), rx_counts=(9, 8), distance=10.0)
    at_origin = coupling_spectrum(_coaxial_operator(**scene))
    moved = coupling_spectrum(_coaxial_operator(
        **scene, motion=(rotation_about((-1.1, 0.2, -0.5), 4.0),
                         np.array([4.1, -9.0, 1.4]))))
    assert moved.symmetry == ("u", "v")
    assert np.max(np.abs(moved.values - at_origin.values)) \
        <= 1e-12 * at_origin.values[0]


def test_reference_scene_uses_sectors_and_tilted_scene_does_not(anchor_spectrum):
    assert anchor_spectrum.symmetry == ("u", "v")
    wave = WaveConfig(wavelength=0.01)
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), 0.4, 0.6)
    rx = make_surface((0.5, -0.3, 8.0), rotation_about((0.3, 1.0, 0.2), 0.7), 0.3, 0.3)
    tilted = coupling_spectrum(assemble_operator(discretize(tx, 10, 14),
                                                 discretize(rx, 12, 12), wave))
    assert tilted.symmetry == ()


@st.composite
def coaxial_scenes(draw):
    sizes = st.floats(0.05, 0.6)
    counts = st.integers(1, 12)
    polar, azimuth = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    axis = (np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
            np.cos(polar))
    motion = (rotation_about(axis, draw(st.floats(0.0, 2.0 * np.pi))),
              np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))))
    turn = rotation_about((0.0, 0.0, 1.0), 0.5 * np.pi * draw(st.integers(0, 3)))
    return dict(tx_counts=(draw(counts), draw(counts)),
                rx_counts=(draw(counts), draw(counts)),
                tx_size=(draw(sizes), draw(sizes)), rx_size=(draw(sizes), draw(sizes)),
                distance=draw(st.floats(0.5, 5.0)), rx_turn=turn, motion=motion)


@given(coaxial_scenes())
def test_coaxial_spectrum_properties(scene):
    wave = WaveConfig(wavelength=0.01)
    op = _coaxial_operator(**scene, wave=wave)
    spec = coupling_spectrum(op)
    assert spec.symmetry == ("u", "v")
    expected = _full_svd_squared(op, wave)
    s0 = expected[0]
    assert len(spec) == expected.size
    assert np.max(np.abs(spec.values - expected)) <= 1e-12 * s0

    # reciprocity: the link read backwards has the same spectrum
    back = coupling_spectrum(assemble_operator(op.rx_grid, op.tx_grid, wave))
    assert len(back) == len(spec)
    assert np.max(np.abs(back.values - spec.values)) <= 1e-12 * s0

    counts = [count_edof(spec, g, mode="relative") for g in np.linspace(0.0, 1.0, 21)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] <= len(spec)
