"""Acceptance gate: one test per release criterion, each printing a verdict.

Every test here is self-contained (no shared session fixtures) so the
stated runtime budgets measure real work, and prints a single PASS/FAIL
line straight to the terminal even when capture is on.
"""

import json
import time
import warnings

import numpy as np
import pytest

from edof.cli import main
from edof.cutset import (
    bandwidth_field,
    box_support,
    cutset_edof,
    filter_field,
    isotropic_bandwidth,
    jacobian_det,
    local_bandwidth,
    set_measure_bandwidth,
    wavenumber_component,
)
from edof.geometry import discretize, global_point, make_surface, rotation_about
from edof.kernel import (
    WaveConfig,
    adjoint_identity_residual,
    assemble_operator,
    green_kernel,
    hilbert_schmidt_norm,
)
from edof.landau import landau_edof, polarization_study, support_measure, wavenumber_response
from edof.spectrum import count_edof, coupling_spectrum, extract_modes

WAVELENGTH = 0.01
APERTURE = 0.5
DISTANCE = 10.0
WAVE = WaveConfig(wavelength=WAVELENGTH)


def _verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def _scene(length=APERTURE, distance=DISTANCE):
    tx = make_surface((0.0, 0.0, 0.0), np.eye(3), length, length)
    rx = make_surface((0.0, 0.0, distance), np.eye(3), length, length)
    return tx, rx


def test_criterion_1_oracle_internal_consistency(capsys):
    detail = "squared singular values match both Gram spectra; adjoint exact"
    t0 = time.perf_counter()
    try:
        tx, rx = _scene()
        op = assemble_operator(discretize(tx, 20, 20), discretize(rx, 20, 20), WAVE)
        a = op.matrix
        s2 = np.linalg.svd(a, compute_uv=False) ** 2
        eig_tx = np.linalg.eigvalsh(a.conj().T @ a)[::-1]
        eig_rx = np.linalg.eigvalsh(a @ a.conj().T)[::-1]
        assert np.allclose(s2, eig_tx, rtol=1e-10, atol=1e-10 * s2[0])
        assert np.allclose(s2, eig_rx, rtol=1e-10, atol=1e-10 * s2[0])

        hs = np.sqrt(hilbert_schmidt_norm(op))
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            f = rng.standard_normal(400) + 1j * rng.standard_normal(400)
            g = rng.standard_normal(400) + 1j * rng.standard_normal(400)
            res = adjoint_identity_residual(op, f, g)
            worst = max(worst, res / (hs * np.linalg.norm(f) * np.linalg.norm(g)))
        assert worst <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        detail += f" (max residual {worst:.1e}, {elapsed:.1f} s)"
    except BaseException:
        _verdict(capsys, 1, False, detail)
        raise
    _verdict(capsys, 1, True, detail)


def test_criterion_2_spectrum_laws_across_configurations(capsys):
    detail = "spectrum nonnegative/ordered/Parseval; modes orthonormal and mapped"
    try:
        r = rotation_about((0.3, 1.0, 0.2), 0.7)
        scenes = [
            (make_surface((0.0, 0.0, 0.0), np.eye(3), 0.5, 0.5), (20, 20),
             make_surface((0.0, 0.0, 10.0), np.eye(3), 0.5, 0.5), (20, 20)),
            (make_surface((0.0, 0.0, 0.0), np.eye(3), 0.4, 0.6), (10, 14),
             make_surface((0.5, -0.3, 8.0), r, 0.3, 0.3), (12, 12)),
            (make_surface((0.0, 0.0, 0.0), np.eye(3), 0.2, 0.2), (16, 16),
             make_surface((0.0, 0.0, 2.0), np.eye(3), 0.2, 0.2), (16, 16)),
        ]
        for tx, tx_counts, rx, rx_counts in scenes:
            op = assemble_operator(discretize(tx, *tx_counts),
                                   discretize(rx, *rx_counts), WAVE)
            spec = coupling_spectrum(op)
            assert np.all(spec.values >= 0.0)
            assert np.all(np.diff(spec.values) <= 0.0)
            assert float(spec.values.sum()) == pytest.approx(
                hilbert_schmidt_norm(op), rel=1e-10)

            basis = extract_modes(op, 6)
            s0 = basis.couplings[0]
            for modes, grid in ((basis.tx_modes, op.tx_grid),
                                (basis.rx_modes, op.rx_grid)):
                gram = modes.conj().T @ (grid.weights[:, None] * modes)
                assert np.max(np.abs(gram - np.eye(6))) <= 1e-8
            w_tx = np.sqrt(op.tx_grid.weights)
            w_rx = np.sqrt(op.rx_grid.weights)
            for n in range(6):
                lhs = op.matrix @ (w_tx * basis.tx_modes[:, n])
                rhs = basis.couplings[n] * (w_rx * basis.rx_modes[:, n])
                assert np.linalg.norm(lhs - rhs) <= 1e-8 * s0
        detail += f" on {len(scenes)} configurations"
    except BaseException:
        _verdict(capsys, 2, False, detail)
        raise
    _verdict(capsys, 2, True, detail)


def test_criterion_3_three_method_agreement(capsys):
    detail = "three estimates agree on the reference scene"
    t0 = time.perf_counter()
    try:
        tx, rx = _scene()
        tx_grid, rx_grid = discretize(tx, 40, 40), discretize(rx, 40, 40)

        spec = coupling_spectrum(assemble_operator(tx_grid, rx_grid, WAVE))
        n_svd = count_edof(spec, 0.5, mode="relative")

        n_cut = cutset_edof(bandwidth_field(tx_grid, rx_grid, WAVE)).n_edof

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resp = wavenumber_response(rx, tx_grid, WAVE,
                                       lag_grid=141, lag_extent=6.3)
        n_lan = landau_edof(rx, support_measure(resp, 0.5, "relative")).n_edof

        assert 4 <= n_svd <= 9
        assert abs(n_cut - n_lan) <= 0.20 * min(n_cut, n_lan)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        detail += (f": svd {n_svd}, cutset {n_cut:.3f}, landau {n_lan:.3f}"
                   f" ({elapsed:.1f} s)")
    except BaseException:
        _verdict(capsys, 3, False, detail)
        raise
    _verdict(capsys, 3, True, detail)


def test_criterion_4_jacobian_against_central_differences(capsys):
    detail = "analytic Jacobian matches finite differences at 100 configurations"
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            tx = make_surface(rng.uniform(-1.0, 1.0, 3),
                              rotation_about(rng.uniform(-1.0, 1.0, 3),
                                             rng.uniform(0.0, np.pi)),
                              rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            rx_center = (tx.center + tx.normal * rng.uniform(4.0, 12.0)
                         + rng.uniform(-0.8, 0.8, 3))
            rx = make_surface(rx_center,
                              rotation_about(rng.uniform(-1.0, 1.0, 3),
                                             rng.uniform(0.0, 0.8)),
                              0.5, 0.5)
            local = (rng.uniform(-0.4, 0.4) * tx.length_u / 2,
                     rng.uniform(-0.4, 0.4) * tx.length_v / 2)
            r_rx = global_point(rx, (rng.uniform(-0.2, 0.2),
                                     rng.uniform(-0.2, 0.2)))
            analytic = jacobian_det(r_rx, local, tx, rx, WAVE)
            numeric = jacobian_det(r_rx, local, tx, rx, WAVE,
                                   method="central-difference", step=1e-5)
            worst = max(worst, abs(numeric - analytic) / analytic)
        assert worst <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        detail += f" (max relative gap {worst:.1e}, {elapsed:.1f} s)"
    except BaseException:
        _verdict(capsys, 4, False, detail)
        raise
    _verdict(capsys, 4, True, detail)


def test_criterion_5_bandwidth_cross_check(capsys):
    detail = "set-measure bandwidth tracks the Jacobian integral and stays bounded"
    try:
        tx, rx = _scene()
        tx_grid, rx_grid = discretize(tx, 40, 40), discretize(rx, 40, 40)

        dense = discretize(tx, 192, 192)
        k = wavenumber_component(rx.center, dense.points, rx, WAVE)
        resolution = float(np.max(np.ptp(k, axis=0))) / 64.0
        w_set = set_measure_bandwidth(rx.center, dense, rx, WAVE, resolution)
        w_jac = local_bandwidth(rx.center, tx_grid, rx, WAVE)
        assert abs(w_jac - w_set) / w_set <= 0.05

        values = [set_measure_bandwidth(p, tx_grid, rx, WAVE, resolution)
                  for p in rx_grid.points]
        assert np.all(np.array(values) <= isotropic_bandwidth(WAVE))
        detail += (f": center {w_jac:.1f} vs {w_set:.1f} rad^2/m^2, "
                   f"all {len(values)} receive nodes under the disk bound")
    except BaseException:
        _verdict(capsys, 5, False, detail)
        raise
    _verdict(capsys, 5, True, detail)


def test_criterion_6_eigenvalue_polarization(capsys):
    detail = "spectrum transition sharpens and the count follows the quartic law"
    t0 = time.perf_counter()
    try:
        tx, rx = _scene()
        rows = polarization_study(tx, rx, WAVE, scales=[1.0, 2.0, 3.0])
        spreads = [row.spread for row in rows]
        counts = [row.n_edof[0.5] for row in rows]
        assert spreads[2] < spreads[0]
        growth = np.polyfit(np.log([1.0, 2.0, 3.0]), np.log(counts), 1)[0]
        assert abs(growth - 4.0) <= 1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        detail += (f": spreads {spreads[0]:.2f} -> {spreads[2]:.2f}, counts "
                   f"{counts}, growth exponent {growth:.2f} ({elapsed:.0f} s)")
    except BaseException:
        _verdict(capsys, 6, False, detail)
        raise
    _verdict(capsys, 6, True, detail)


def test_criterion_7_grid_convergence(capsys):
    detail = "top modes stable under grid doubling"
    try:
        tx, rx = _scene()

        def top10(n):
            op = assemble_operator(discretize(tx, n, n), discretize(rx, n, n), WAVE)
            return coupling_spectrum(op).values[:10]

        coarse, fine = top10(30), top10(60)
        drift = float(np.max(np.abs(fine - coarse) / fine))
        assert drift < 0.01
        detail += f" (max per-mode drift {100 * drift:.2f}%)"
    except BaseException:
        _verdict(capsys, 7, False, detail)
        raise
    _verdict(capsys, 7, True, detail)


def test_criterion_8_determinism_and_interfaces(capsys, tmp_path):
    detail = "reruns byte-identical; intersecting geometry rejected with exit 1"
    try:
        config = {
            "wave": {"wavelength_m": WAVELENGTH},
            "tx": {"center_m": [0.0, 0.0, 0.0], "size_m": [APERTURE, APERTURE],
                   "grid": [40, 40]},
            "rx": {"center_m": [0.0, 0.0, DISTANCE], "size_m": [APERTURE, APERTURE],
                   "grid": [40, 40]},
            "landau_options": {"lag_grid": 141, "lag_extent_m": 6.3},
            "seed": 7,
        }
        path = tmp_path / "anchor.json"
        path.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(path), "--out", str(out_a)]) == 0
        assert main(["run", str(path), "--out", str(out_b)]) == 0
        for name in ("spectrum.csv", "edof.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        bad = dict(config)
        bad["rx"] = {"center_m": [0.1, 0.0, 0.0], "size_m": [APERTURE, APERTURE],
                     "grid": [40, 40]}
        bad_path = tmp_path / "intersecting.json"
        bad_path.write_text(json.dumps(bad))
        assert main(["validate", str(bad_path)]) == 1
    except BaseException:
        _verdict(capsys, 8, False, detail)
        raise
    _verdict(capsys, 8, True, detail)


def _synthesize_received_field(rx_grid, tx_grid):
    """Received samples for a fixed smooth transmit current, kernel built in
    row chunks so the full matrix never materializes."""
    t_a, t_b = (x.ravel() for x in np.meshgrid(tx_grid.rule_u[0], tx_grid.rule_v[0],
                                                indexing="ij"))
    current = (1.0
               + 0.5 * np.exp(1j * WAVE.k0 * 0.01 * t_a)
               + 0.25 * np.exp(-1j * WAVE.k0 * 0.015 * (t_a - t_b)))
    weighted = current * tx_grid.weights
    out = np.empty(len(rx_grid), dtype=complex)
    chunk = 512
    for start in range(0, len(rx_grid), chunk):
        stop = min(start + chunk, len(rx_grid))
        block = green_kernel(rx_grid.points[start:stop, None, :],
                             tx_grid.points[None, :, :], WAVE)
        out[start:stop] = block @ weighted
    return out


def test_criterion_9_filtered_field_convergence(capsys):
    detail = "out-of-support field content shrinks as the scene scales"
    try:
        residuals = []
        for r in (1, 2, 3):
            length = APERTURE * r
            tx = make_surface((0.0, 0.0, 0.0), np.eye(3), length, length)
            rx = make_surface((0.0, 0.0, DISTANCE), np.eye(3), length, length)
            n = 40 * r
            rx_grid = discretize(rx, n, n)
            tx_grid = discretize(tx, n, n, rule="gauss-legendre")

            field = _synthesize_received_field(rx_grid, tx_grid)

            # support box: wavenumbers of all corner-to-corner rays, padded
            # by one aperture-diffraction width per side
            corners = [global_point(s, (su * s.length_u / 2, sv * s.length_v / 2))
                       for s in (tx, rx) for su in (-1, 1) for sv in (-1, 1)]
            pairs = np.array([wavenumber_component(rc, tc, rx, WAVE)
                              for tc in corners[:4] for rc in corners[4:]])
            margin = 2.0 * np.pi / rx.length_u
            support = box_support(pairs[:, 0].min() - margin,
                                  pairs[:, 0].max() + margin,
                                  pairs[:, 1].min() - margin,
                                  pairs[:, 1].max() + margin)

            filtered = filter_field(field, support, rx_grid)
            residuals.append(float(np.linalg.norm(filtered - field)
                                   / np.linalg.norm(field)))
        assert residuals[0] > residuals[1] > residuals[2]
        detail += ": residuals " + " -> ".join(f"{x:.4f}" for x in residuals)
    except BaseException:
        _verdict(capsys, 9, False, detail)
        raise
    _verdict(capsys, 9, True, detail)
