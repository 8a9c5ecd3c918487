"""Experiment harness: method isolation, diagnostics, persistence, sweeps."""

import dataclasses
import json

import numpy as np
import pytest

import edof.experiment
import edof.kernel
import edof.landau
from edof.config import config_from_mapping
from edof.errors import ConfigError, ResourceError
from edof.experiment import report_mapping, run_experiment, run_sweep
from edof.geometry import make_surface


def _scene_mapping(grid=16, distance=10.0, methods=None, **extra):
    mapping = {
        "wave": {"wavelength_m": 0.01},
        "tx": {"center_m": [0.0, 0.0, 0.0], "size_m": [0.5, 0.5],
               "grid": [grid, grid]},
        "rx": {"center_m": [0.0, 0.0, distance], "size_m": [0.5, 0.5],
               "grid": [grid, grid]},
        "landau_options": {"lag_grid": 41, "lag_extent_m": 6.3},
        "seed": 3,
    }
    if methods is not None:
        mapping["methods"] = methods
    mapping.update(extra)
    return mapping


@pytest.fixture(scope="module")
def full_report():
    cfg = config_from_mapping(_scene_mapping())
    return run_experiment(cfg, write=False)


def test_run_produces_one_row_per_method(full_report):
    assert full_report.status == "complete"
    assert [r.method for r in full_report.edof_reports] == ["svd", "cutset", "landau"]
    by_method = {r.method: r.n_edof for r in full_report.edof_reports}
    assert by_method["svd"] == 4
    assert by_method["cutset"] == pytest.approx(6.239645902918315, rel=1e-9)
    assert by_method["landau"] == pytest.approx(6.053162005542919, rel=1e-9)
    assert full_report.spectrum is not None
    assert full_report.bandwidth is not None
    assert full_report.response is not None


def test_run_diagnostics_flags(full_report):
    d = full_report.diagnostics
    assert "adjoint_residual" not in d
    # the half-resolution probe of a 16-point grid is genuinely coarse
    assert d["convergence"]["flag"] == "drifting"
    assert d["convergence"]["coarse_grids"] == {"tx": [8, 8], "rx": [8, 8]}
    assert d["injectivity"]["flag"] == "consistent"
    assert d["injectivity"]["relative_difference"] <= 0.05
    assert d["stationarity"]["flag"] == "stationary"
    assert d["method_errors"] == {}
    assert d["warnings"] == []


def test_report_mapping_is_json_ready(full_report):
    mapping = report_mapping(full_report)
    text = json.dumps(mapping)  # must not hit numpy scalars
    assert mapping["schema_version"] == "6"
    assert mapping["status"] == "complete"
    assert len(mapping["edof"]) == 3
    assert mapping["spectrum"]["n_values"] == 256
    assert set(mapping["bandwidth"]) == {
        "n_points", "symmetry", "evaluated_nodes", "bandwidth_min", "bandwidth_max",
        "bandwidth_mean", "isotropic_bound", "bandwidth_fraction_of_isotropic"}
    assert config_from_mapping(mapping["config"]) == full_report.config
    assert mapping["tool_version"] == edof.__version__
    assert "generated_at" not in text


def test_report_names_the_spectrum_solver(full_report):
    block = report_mapping(full_report)["spectrum"]
    assert block["solver"] == "mirror-sectors"
    assert block["symmetry"] == ["u", "v", "swap"]

    # criterion 2's tilted and offset receiver breaks both mirrors
    tilted = _scene_mapping(methods=["svd"])
    tilted["tx"].update(size_m=[0.4, 0.6], grid=[10, 14])
    tilted["rx"] = {"center_m": [0.5, -0.3, 8.0], "size_m": [0.3, 0.3],
                    "rotation": {"axis": [0.3, 1.0, 0.2], "angle_rad": 0.7},
                    "grid": [12, 12]}
    block = report_mapping(run_experiment(config_from_mapping(tilted),
                                          write=False))["spectrum"]
    assert block["solver"] == "svd"
    assert block["symmetry"] == []


def test_report_names_the_folds(full_report):
    mapping = report_mapping(full_report)
    # 16 x 16 receive nodes and 41 x 41 lags, folded by both mirrors and the swap
    assert mapping["bandwidth"]["symmetry"] == ["u", "v", "swap"]
    assert mapping["bandwidth"]["evaluated_nodes"] == 8 * 9 // 2
    assert mapping["wavenumber_response"]["symmetry"] == ["u", "v", "swap"]
    assert mapping["wavenumber_response"]["evaluated_lags"] == 21 * 22 // 2

    # criterion 2's tilted and offset receiver: nothing folds but the
    # Hermitian half of the lags
    tilted = _scene_mapping(methods=["cutset", "landau"])
    tilted["tx"].update(size_m=[0.4, 0.6], grid=[10, 14])
    tilted["rx"] = {"center_m": [0.5, -0.3, 8.0], "size_m": [0.3, 0.3],
                    "rotation": {"axis": [0.3, 1.0, 0.2], "angle_rad": 0.7},
                    "grid": [12, 12]}
    report = run_experiment(config_from_mapping(tilted), write=False)
    mapping = report_mapping(report)
    assert mapping["bandwidth"]["symmetry"] == []
    assert mapping["bandwidth"]["evaluated_nodes"] == 144
    assert mapping["wavenumber_response"]["symmetry"] == []
    assert mapping["wavenumber_response"]["evaluated_lags"] == (41 * 41 + 1) // 2


def test_run_writes_all_outputs(tmp_path):
    cfg = config_from_mapping(_scene_mapping(methods=["svd", "cutset"]))
    report = run_experiment(cfg, out_dir=str(tmp_path))
    names = sorted(p.split("/")[-1] for p in report.output_files)
    assert names == ["edof.csv", "report.json", "spectrum.csv"]
    edof_lines = (tmp_path / "edof.csv").read_text().splitlines()
    assert edof_lines[0] == "method,n_edof,gamma_mode,gamma_value"
    assert len(edof_lines) == 3
    assert edof_lines[1].startswith("svd,4,relative,0.5")
    # cutset carries no threshold: trailing columns stay empty
    assert edof_lines[2].startswith("cutset,") and edof_lines[2].endswith(",,")
    spectrum_lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert spectrum_lines[0] == "index,s_squared,s_squared_normalized"
    assert len(spectrum_lines) == 257
    assert spectrum_lines[1].split(",")[2] == "1"
    payload = json.loads((tmp_path / "report.json").read_text())
    assert "generated_at" in payload


def test_cutset_only_run_skips_spectrum_output(tmp_path):
    cfg = config_from_mapping(_scene_mapping(methods=["cutset"]))
    report = run_experiment(cfg, out_dir=str(tmp_path))
    assert not (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "edof.csv").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["spectrum"] == "not-applicable"
    assert payload["wavenumber_response"] == "not-applicable"
    assert payload["diagnostics"]["convergence"]["flag"] == "not-applicable"
    assert report.status == "complete"


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_written_files_read_back_to_the_report(tmp_path):
    cfg = config_from_mapping(_scene_mapping(grid=8, methods=["svd", "cutset"]))
    report = run_experiment(cfg, out_dir=str(tmp_path))
    assert [p.split("/")[-1] for p in report.output_files] == [
        "spectrum.csv", "edof.csv", "report.json"]

    header, rows = _csv_rows(tmp_path / "spectrum.csv")
    assert header == "index,s_squared,s_squared_normalized"
    values = report.spectrum.values
    assert [int(r[0]) for r in rows] == list(range(len(values)))
    assert np.array_equal(np.array([float(r[1]) for r in rows]), values)
    assert np.array_equal(np.array([float(r[2]) for r in rows]), values / values[0])

    header, rows = _csv_rows(tmp_path / "edof.csv")
    assert header == "method,n_edof,gamma_mode,gamma_value"
    svd, cutset = report.edof_reports
    assert rows == [["svd", "4", "relative", "0.5"], ["cutset", rows[1][1], "", ""]]
    assert (int(rows[0][1]), float(rows[1][1])) == (svd.n_edof, cutset.n_edof)

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload.pop("generated_at")
    assert payload == json.loads(json.dumps(report_mapping(report)))

    # without svd there is no spectrum to write; the other two files stay
    cutset_only = config_from_mapping(_scene_mapping(grid=8, methods=["cutset"]))
    report = run_experiment(cutset_only, out_dir=str(tmp_path / "cutset"))
    assert [p.split("/")[-1] for p in report.output_files] == ["edof.csv", "report.json"]
    assert not (tmp_path / "cutset" / "spectrum.csv").exists()

    # 0.05 wavelengths of separation: both rows fail
    result = run_sweep(cfg, "distance", [10.0, 0.0005], out_dir=str(tmp_path / "sweep"))
    header, rows = _csv_rows(tmp_path / "sweep" / "sweep.csv")
    assert header == "axis_value,method,n_edof"
    assert [r[1:] for r in rows[2:]] == [["svd", "nan"], ["cutset", "nan"]]
    assert len(rows) == len(result.rows) == 4
    for cells, row in zip(rows, result.rows):
        assert (float(cells[0]), cells[1]) == (row["axis_value"], row["method"])
        assert (cells[2] == "nan") if row["n_edof"] is None else (
            float(cells[2]) == row["n_edof"])


def test_report_records_band_edge_outside_the_csv(tmp_path):
    cfg = config_from_mapping(_scene_mapping(grid=8, methods=["landau"]))
    report = run_experiment(cfg, out_dir=str(tmp_path))
    block = json.loads((tmp_path / "report.json").read_text())["wavenumber_response"]
    assert block["lag_shape"] == list(report.response.shape) == [41, 41]
    assert len(block["k_band"]) == 2 and len(block["lag_spacing"]) == 2
    assert all(0.0 < k for k in block["k_band"])
    assert "k_band" not in (tmp_path / "edof.csv").read_text()


def test_seed_only_labels_the_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for seed, out in ((3, a), (11, b)):
        mapping = _scene_mapping(grid=8, landau_options={})
        mapping["seed"] = seed
        run_experiment(config_from_mapping(mapping), out_dir=str(out))
    for name in ("edof.csv", "spectrum.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    seeds = [json.loads((d / "report.json").read_text())["config"]["seed"]
             for d in (a, b)]
    assert seeds == [3, 11]


def test_rerun_is_deterministic(tmp_path):
    cfg = config_from_mapping(_scene_mapping(methods=["svd"]))
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=str(a))
    run_experiment(cfg, out_dir=str(b))
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    assert (a / "edof.csv").read_bytes() == (b / "edof.csv").read_bytes()
    ja = json.loads((a / "report.json").read_text())
    jb = json.loads((b / "report.json").read_text())
    ja.pop("generated_at"), jb.pop("generated_at")
    assert ja == jb


def test_method_failure_yields_partial_status():
    # 3 cm apart the automatic lag grid is too coarse and Landau refuses;
    # svd and the cut-set still run
    cfg = config_from_mapping(_scene_mapping(distance=0.03, landau_options={}))
    report = run_experiment(cfg, write=False)
    assert report.status == "partial"
    assert [r.method for r in report.edof_reports] == ["svd", "cutset"]
    assert list(report.diagnostics["method_errors"]) == ["landau"]
    assert report.diagnostics["method_errors"]["landau"].startswith(
        "GeometryError: automatic lag grid has 2 x 2 lags")


def test_failed_cross_check_leaves_its_method_complete(perpendicular_scene):
    # the stationarity probes at the receive corner come within 0.05
    # wavelengths of a transmit node; the lags around the center do not
    report = run_experiment(config_from_mapping(perpendicular_scene), write=False)
    assert report.status == "complete"
    assert [r.method for r in report.edof_reports] == ["svd", "cutset", "landau"]
    assert report.diagnostics["method_errors"] == {}
    stationarity = report.diagnostics["stationarity"]
    assert stationarity["flag"] == "unavailable"
    assert stationarity["detail"].startswith("SingularKernelError: evaluation points")
    assert report.diagnostics["convergence"]["flag"] == "drifting"
    assert report.diagnostics["injectivity"]["flag"] == "divergent"


def _raise(*args):
    raise RuntimeError("cross-check broke")


@pytest.mark.parametrize("method, check", [
    ("svd", "convergence"), ("cutset", "injectivity"), ("landau", "stationarity")])
def test_each_cross_check_fails_on_its_own(monkeypatch, method, check):
    estimate, name, _ = edof.experiment._STEPS[method]
    monkeypatch.setitem(edof.experiment._STEPS, method, (estimate, name, _raise))
    cfg = config_from_mapping(_scene_mapping(grid=8))
    report = run_experiment(cfg, write=False)
    assert report.status == "complete"
    assert report.diagnostics["method_errors"] == {}
    assert [r.method for r in report.edof_reports] == ["svd", "cutset", "landau"]
    assert report.diagnostics[check] == {"flag": "unavailable",
                                         "detail": "RuntimeError: cross-check broke"}
    others = {"convergence", "injectivity", "stationarity"} - {check}
    assert all(report.diagnostics[o]["flag"] not in ("unavailable", "not-applicable")
               for o in others)


def test_cross_checks_flag_divergent_and_non_stationary_scenes():
    # the receiver 0.6 m off axis and 0.4 m out sees a folded wavenumber map
    # and a correlation that changes across its aperture
    mapping = _scene_mapping(methods=["cutset", "landau"], landau_options={})
    mapping["rx"]["center_m"] = [0.6, 0.0, 0.4]
    report = run_experiment(config_from_mapping(mapping), write=False)
    assert report.status == "complete"
    injectivity = report.diagnostics["injectivity"]
    assert injectivity["flag"] == "divergent"
    assert injectivity["relative_difference"] == pytest.approx(0.080, abs=5e-4)
    stationarity = report.diagnostics["stationarity"]
    assert stationarity["flag"] == "non-stationary"
    assert stationarity["max_modulus_deviation"] == pytest.approx(0.473, abs=5e-4)
    assert report.diagnostics["convergence"] == {"flag": "not-applicable"}


def test_non_finite_count_is_a_method_error():
    # past the config checks: distances to a center at 1e308 overflow when squared
    cfg = config_from_mapping(_scene_mapping(grid=8, methods=["cutset", "landau"]))
    far = make_surface((1e308, 0.0, 10.0), np.eye(3), 0.5, 0.5)
    report = run_experiment(dataclasses.replace(cfg, rx_surface=far), write=False)
    assert report.status == "partial"
    assert all(np.isfinite(rep.n_edof) for rep in report.edof_reports)
    assert "cutset" not in {rep.method for rep in report.edof_reports}
    assert report.diagnostics["method_errors"]["cutset"].startswith(
        "NumericalError: n_edof is nan")


def test_non_finite_response_is_a_method_error():
    # past the config checks: lag points 1e300 m out overflow when squared
    cfg = config_from_mapping(_scene_mapping(
        grid=8, methods=["cutset", "landau"],
        landau_options={"lag_grid": 11, "lag_extent_m": 1e300}))
    report = run_experiment(cfg, write=False)
    assert report.status == "partial"
    assert [rep.method for rep in report.edof_reports] == ["cutset"]
    assert report.diagnostics["method_errors"]["landau"].startswith(
        "NumericalError: wavenumber response is not finite")
    assert any(w.startswith("landau: overflow") for w in report.diagnostics["warnings"])


def test_overflowing_spectrum_is_a_method_error():
    # k0 = 2 pi / 1e-300 m overflows the SVD to a spectrum of inf, whose
    # count would otherwise read 0, and k0^2 and (eta / 2 lambda)^2 overflow
    # the cut-set field and the Landau correlation to inf
    report = run_experiment(config_from_mapping(_scene_mapping(
        grid=4, wave={"wavelength_m": 1e-300})), write=False)
    assert report.status == "partial"
    assert report.edof_reports == ()
    assert report.diagnostics["method_errors"] == {
        "svd": "NumericalError: spectrum values must be finite",
        "cutset": "NumericalError: n_edof is inf, not a finite count",
        "landau": "NumericalError: wavenumber response is not finite (max H = nan)"}
    warned = report.diagnostics["warnings"]
    assert "cutset: overflow encountered in scalar power" in warned
    assert "landau: overflow encountered in scalar power" in warned


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_underflowing_field_counts_zero_and_writes_strict_json(tmp_path):
    # at lambda = 1e300 m, 0.1 wavelengths exceed the 10 m link: every
    # method refuses, and the report stays strict JSON
    report = run_experiment(config_from_mapping(_scene_mapping(
        grid=4, wave={"wavelength_m": 1e300})), out_dir=str(tmp_path / "far"))
    assert report.edof_reports == ()
    errors = report.diagnostics["method_errors"]
    assert sorted(errors) == ["cutset", "landau", "svd"]
    assert all(e.startswith("SingularKernelError: ") for e in errors.values())
    json.loads((tmp_path / "far" / "report.json").read_text(), parse_constant=_reject_constant)
    # at lambda = 1e100 m over a 1e100 m link, d^4 overflows and W reads 0
    report = run_experiment(config_from_mapping(_scene_mapping(
        grid=4, distance=1e100, methods=["cutset"], wave={"wavelength_m": 1e100})),
        out_dir=str(tmp_path))
    assert [(rep.method, rep.n_edof) for rep in report.edof_reports] == [("cutset", 0.0)]
    assert (tmp_path / "edof.csv").read_text().splitlines()[1] == "cutset,0,,"
    mapping = json.loads((tmp_path / "report.json").read_text(),
                         parse_constant=_reject_constant)
    assert mapping["bandwidth"]["bandwidth_max"] == 0.0
    assert mapping["bandwidth"]["bandwidth_fraction_of_isotropic"] == 0.0
    injectivity = mapping["diagnostics"]["injectivity"]
    assert injectivity["flag"] == "divergent"
    assert injectivity["relative_difference"] is None


def _refuse_lattice(*args):
    raise AssertionError("lattice_orbits called on a lag lattice over the budget")


def test_lag_lattice_over_the_budget_is_a_landau_error(monkeypatch):
    # 5 km with automatic lags asks for 12,813^2 lags, over the 16M budget
    cfg = config_from_mapping(_scene_mapping(grid=8, distance=5000.0,
                                             landau_options={}))
    monkeypatch.setattr(edof.landau, "lattice_orbits", _refuse_lattice)
    report = run_experiment(cfg, write=False)
    assert report.status == "partial"
    assert [rep.method for rep in report.edof_reports] == ["svd", "cutset"]
    assert report.diagnostics["method_errors"]["landau"].startswith(
        "ResourceError: lag lattice of 12813 x 12813 lags is over the budget")


def test_matrix_budget_guards_svd_runs():
    cfg = config_from_mapping(_scene_mapping(methods=["svd"]))
    with pytest.raises(ResourceError, match="budget"):
        run_experiment(cfg, write=False, max_matrix_entries=1000)
    # without svd the matrix is never built, so the budget does not apply
    cheap = config_from_mapping(_scene_mapping(methods=["cutset"]))
    report = run_experiment(cheap, write=False, max_matrix_entries=1000)
    assert report.status == "complete"


def test_distance_sweep_follows_inverse_square(tmp_path):
    cfg = config_from_mapping(_scene_mapping(grid=40, methods=["cutset"]))
    result = run_sweep(cfg, "distance", [5.0, 10.0, 20.0], out_dir=str(tmp_path))
    assert result.failures == ()
    values = {row["axis_value"]: row["n_edof"] for row in result.rows}
    assert values[5.0] / values[20.0] == pytest.approx(16.0, rel=0.05)
    assert values[10.0] == pytest.approx(6.2396118929650184, rel=1e-9)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis_value,method,n_edof"
    assert len(lines) == 4


def test_single_value_sweep_matches_direct_run():
    cfg = config_from_mapping(_scene_mapping(methods=["cutset"]))
    direct = run_experiment(cfg, write=False).edof_reports[0].n_edof
    swept = run_sweep(cfg, "distance", [10.0], write=False)
    assert swept.rows[0]["n_edof"] == direct


def test_sweep_records_failed_rows(tmp_path):
    cfg = config_from_mapping(_scene_mapping(methods=["cutset"]))
    result = run_sweep(cfg, "distance", [0.0, 10.0], out_dir=str(tmp_path))
    assert len(result.failures) == 1
    assert "distance=0" in result.failures[0]
    assert result.rows[0]["n_edof"] is None
    assert result.rows[1]["n_edof"] is not None
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].endswith(",nan")


def test_sweep_records_methods_that_fail_inside_a_run(tmp_path):
    # at 0.5 mm, 0.05 wavelengths, all three methods refuse the
    # near-singular kernel with one message: Landau before it sizes its lags
    cfg = config_from_mapping(_scene_mapping(grid=8, landau_options={}))
    result = run_sweep(cfg, "distance", [10.0, 0.0005], out_dir=str(tmp_path))
    values = [(row["axis_value"], row["method"], row["n_edof"]) for row in result.rows]
    assert [v[:2] for v in values] == [(d, m) for d in (10.0, 0.0005)
                                       for m in ("svd", "cutset", "landau")]
    assert [n is None for _, _, n in values] == [False] * 3 + [True] * 3
    assert len(result.failures) == 3
    singular = ("SingularKernelError: evaluation points come within 5.000e-04 m of the "
                "grid nodes, below 0.1 wavelengths (1.000e-03 m)")
    assert result.failures == tuple(f"distance=0.0005 {method}: {singular}"
                                    for method in ("svd", "cutset", "landau"))
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    cells = [line.split(",")[1:] for line in lines[4:]]
    assert cells == [["svd", "nan"], ["cutset", "nan"], ["landau", "nan"]]


def test_near_field_scene_fails_landau_as_it_fails_svd_and_the_cutset():
    # 12^2 grids 0.5 mm apart with 141^2 lags over 6.3 m: every lag point
    # stays over 0.1 wavelengths from the transmit nodes, but the receive
    # plane that holds them passes 0.05 wavelengths above them
    cfg = config_from_mapping(_scene_mapping(
        grid=12, distance=0.0005, landau_options={"lag_grid": 141, "lag_extent_m": 6.3}))
    report = run_experiment(cfg, write=False)
    assert report.edof_reports == ()
    errors = report.diagnostics["method_errors"]
    assert list(errors) == ["svd", "cutset", "landau"]
    assert errors["landau"] == errors["svd"] == errors["cutset"] == (
        "SingularKernelError: evaluation points come within 5.000e-04 m of the "
        "grid nodes, below 0.1 wavelengths (1.000e-03 m)")


def test_automatic_lag_lattice_too_small_names_its_extent_and_spacing():
    # 3 cm apart the automatic extent is 8 lambda d / L = 4.8 mm and the
    # spacing lambda / 4 = 2.5 mm: two lags per axis, and no lag_grid was set
    cfg = config_from_mapping(_scene_mapping(grid=12, distance=0.03, landau_options={}))
    report = run_experiment(cfg, write=False)
    assert report.status == "partial"
    assert [rep.method for rep in report.edof_reports] == ["svd", "cutset"]
    assert report.diagnostics["method_errors"] == {"landau": (
        "GeometryError: automatic lag grid has 2 x 2 lags, fewer than 3 per axis: "
        "extent 0.0048 x 0.0048 m at spacing 0.0025 x 0.0025 m; "
        "set landau_options.lag_grid or lag_extent_m")}


def _counting(monkeypatch, name, calls):
    real = getattr(edof.experiment, name)

    def spy(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(edof.experiment, name, spy)


def test_sweep_runs_the_estimates_only(monkeypatch):
    names = ("stationarity_check", "set_measure_bandwidth", "coupling_spectrum")
    calls = dict.fromkeys(names, 0)
    for name in names:
        _counting(monkeypatch, name, calls)
    cfg = config_from_mapping(_scene_mapping(grid=8))
    result = run_sweep(cfg, "distance", [10.0, 20.0], write=False)
    assert result.failures == ()
    assert len(result.rows) == 6
    assert calls == {"stationarity_check": 0, "set_measure_bandwidth": 0,
                     "coupling_spectrum": 2}


def test_size_and_wavelength_sweeps_shift_the_scene():
    cfg = config_from_mapping(_scene_mapping(methods=["cutset"]))
    by_size = run_sweep(cfg, "tx_size", [0.25, 0.5], write=False)
    n_small, n_base = [row["n_edof"] for row in by_size.rows]
    assert n_small == pytest.approx(n_base / 4.0, rel=0.02)
    by_wl = run_sweep(cfg, "wavelength", [0.01, 0.02], write=False)
    n1, n2 = [row["n_edof"] for row in by_wl.rows]
    assert n1 / n2 == pytest.approx(4.0, rel=0.02)


def test_scale_r_sweep_reports_svd_rows(tmp_path):
    mapping = _scene_mapping()
    mapping["tx"]["size_m"] = [0.1, 0.1]
    mapping["rx"]["size_m"] = [0.1, 0.1]
    cfg = config_from_mapping(mapping)
    result = run_sweep(cfg, "scale_r", [1.0], out_dir=str(tmp_path))
    assert [row["method"] for row in result.rows] == ["svd"]
    assert result.rows[0]["axis_value"] == 1.0
    assert result.rows[0]["n_edof"] >= 0
    assert (tmp_path / "sweep.csv").exists()


def test_scale_r_sweep_records_an_unresolvable_scale_and_goes_on(tmp_path):
    mapping = _scene_mapping(grid=10, methods=["svd"])
    mapping["tx"]["size_m"] = [0.1, 0.1]
    mapping["rx"]["size_m"] = [0.1, 0.1]
    cfg = config_from_mapping(mapping)
    # at r = 40 the default budget caps the grid below the predicted count;
    # at r = 1e308 the grid counts themselves overflow
    result = run_sweep(cfg, "scale_r", [1.0, 40.0, 1e308], out_dir=str(tmp_path))
    assert [row["axis_value"] for row in result.rows] == [1.0, 40.0, 1e308]
    assert result.rows[0]["n_edof"] >= 1
    assert result.rows[1]["n_edof"] is None
    assert result.rows[2]["n_edof"] is None
    assert len(result.failures) == 2
    assert result.failures[0].startswith("scale_r=40: ResourceError:")
    assert result.failures[1] == ("scale_r=1e+308: ResourceError: grid counts at 2.5 points "
                                  "per wavelength overflow at scale r=1e+308")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("1,svd,")
    assert lines[2] == "40,svd,nan"
    assert lines[3] == "1e+308,svd,nan"


def test_scale_r_sweep_requires_relative_threshold():
    cfg = config_from_mapping(_scene_mapping(
        gamma={"mode": "absolute", "value": 1.0}))
    with pytest.raises(ConfigError, match="relative"):
        run_sweep(cfg, "scale_r", [1.0], write=False)


def test_sweep_validates_axis_and_values():
    cfg = config_from_mapping(_scene_mapping(methods=["cutset"]))
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(cfg, "frequency", [1.0], write=False)
    with pytest.raises(ConfigError, match="at least one"):
        run_sweep(cfg, "distance", [], write=False)


def test_svd_estimate_never_builds_a_full_matrix(monkeypatch):
    """The run's operators, the estimate's and the convergence rerun's,
    reach the spectrum with only their fundamental rows stored."""
    operators = []

    def spy(*args):
        operators.append(edof.kernel.assemble_operator(*args))
        return operators[-1]

    monkeypatch.setattr(edof.experiment, "assemble_operator", spy)
    report = run_experiment(config_from_mapping(_scene_mapping(methods=["svd"])),
                            write=False)
    assert report.status == "complete"
    assert report.diagnostics["convergence"]["flag"] in ("converged", "drifting")
    assert len(operators) == 2
    for op in operators:
        assert op.symmetry.sectors is not None
        assert "matrix" not in vars(op)
