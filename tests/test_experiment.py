"""Experiment harness: method isolation, diagnostics, persistence, sweeps."""

import dataclasses
import json

import numpy as np
import pytest

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
    assert any("landau" in w for w in d["warnings"])


def test_report_mapping_is_json_ready(full_report):
    mapping = report_mapping(full_report)
    text = json.dumps(mapping)  # must not hit numpy scalars
    assert mapping["schema_version"] == "3"
    assert mapping["status"] == "complete"
    assert len(mapping["edof"]) == 3
    assert mapping["spectrum"]["n_values"] == 256
    assert config_from_mapping(mapping["config"]) == full_report.config
    assert "generated_at" not in text


def test_report_names_the_spectrum_solver(full_report):
    block = report_mapping(full_report)["spectrum"]
    assert block["solver"] == "mirror-sectors"
    assert block["symmetry"] == ["u", "v"]

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


def test_json_only_format_filter(tmp_path):
    cfg = config_from_mapping(_scene_mapping(
        methods=["cutset"], output={"directory": "unused", "formats": ["json"]}))
    run_experiment(cfg, out_dir=str(tmp_path))
    assert not (tmp_path / "edof.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_report_records_band_edge_outside_the_csv(tmp_path):
    cfg = config_from_mapping(_scene_mapping(grid=8, methods=["landau"]))
    run_experiment(cfg, out_dir=str(tmp_path))
    block = json.loads((tmp_path / "report.json").read_text())["wavenumber_response"]
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
    # 0.05 wavelengths of separation: assembly refuses, the others still run
    cfg = config_from_mapping(_scene_mapping(distance=0.0005,
                                             methods=["svd", "cutset"]))
    report = run_experiment(cfg, write=False)
    assert report.status == "partial"
    assert [r.method for r in report.edof_reports] == ["cutset"]
    assert "svd" in report.diagnostics["method_errors"]
    assert "SingularKernelError" in report.diagnostics["method_errors"]["svd"]


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
    # at r = 40 the default budget caps the grid below the predicted count
    result = run_sweep(cfg, "scale_r", [1.0, 40.0], out_dir=str(tmp_path))
    assert [row["axis_value"] for row in result.rows] == [1.0, 40.0]
    assert result.rows[0]["n_edof"] >= 1
    assert result.rows[1]["n_edof"] is None
    assert len(result.failures) == 1
    assert result.failures[0].startswith("scale_r=40: ResourceError:")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("1,svd,")
    assert lines[2] == "40,svd,nan"


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
