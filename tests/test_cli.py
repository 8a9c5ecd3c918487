"""Command-line interface: subcommands, overrides, and exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from edof.cli import main

BASE = {
    "wave": {"wavelength_m": 0.01},
    "tx": {"center_m": [0.0, 0.0, 0.0], "size_m": [0.5, 0.5], "grid": [16, 16]},
    "rx": {"center_m": [0.0, 0.0, 10.0], "size_m": [0.5, 0.5], "grid": [16, 16]},
    "methods": ["cutset"],
    "seed": 1,
}


def _config_file(tmp_path, name="scene.json", **overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_accepts_good_config(tmp_path, capsys):
    path = _config_file(tmp_path)
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_intersecting_surfaces(tmp_path, capsys):
    data = json.loads(json.dumps(BASE))
    data["rx"]["center_m"] = [0.1, 0.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert "intersect" in capsys.readouterr().err


@pytest.mark.parametrize("rx", [
    {"center_m": [0.0, 0.0, 1e308], "size_m": [0.5, 0.5], "grid": [16, 16]},
    {"center_m": [1e308, 0.0, 10.0], "size_m": [0.5, 0.5], "grid": [16, 16]},
    {"center_m": [0.0, 0.0, 10.0], "size_m": [1e308, 1e308], "grid": [16, 16]},
])
def test_validate_rejects_overflowing_geometry(tmp_path, capsys, rx):
    assert main(["validate", _config_file(tmp_path, rx=rx)]) == 1
    assert "error: rx." in capsys.readouterr().err


def test_validate_missing_file_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_validate_unreadable_config_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file cannot be read")
    assert "Traceback" not in err


def test_run_writes_outputs_and_reports(tmp_path, capsys):
    path = _config_file(tmp_path)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "cutset: n_edof =" in captured.out
    assert (out / "edof.csv").exists()
    assert (out / "report.json").exists()


def test_run_method_and_gamma_overrides(tmp_path, capsys):
    path = _config_file(tmp_path)
    out = tmp_path / "out"
    code = main(["run", path, "--methods", "svd", "--gamma", "relative:0.9",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["methods"] == ["svd"]
    assert payload["config"]["gamma"] == {"mode": "relative", "value": 0.9}
    assert (out / "spectrum.csv").exists()


@pytest.mark.parametrize("args_tail", [
    ["--methods", "qr"],
    ["--methods", ","],
    ["--gamma", "median:0.5"],
    ["--gamma", "relative:abc"],
    ["--gamma", "0.5"],
])
def test_run_rejects_bad_overrides(tmp_path, capsys, args_tail):
    path = _config_file(tmp_path)
    assert main(["run", path] + args_tail) == 1
    assert "error:" in capsys.readouterr().err


def test_run_partial_failure_exits_2(tmp_path, capsys):
    # 3 cm apart the automatic lag grid has 2 x 2 lags and Landau refuses
    path = _config_file(tmp_path, name="close.json",
                        methods=["svd", "cutset", "landau"],
                        rx={"center_m": [0.0, 0.0, 0.03],
                            "size_m": [0.5, 0.5], "grid": [16, 16]})
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "landau: FAILED" in captured.err
    assert "svd: n_edof =" in captured.out
    assert "cutset: n_edof =" in captured.out


def test_run_failed_cross_check_exits_0(tmp_path, capsys, perpendicular_scene):
    path = tmp_path / "perpendicular.json"
    path.write_text(json.dumps(perpendicular_scene))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "FAILED" not in captured.out + captured.err
    assert "landau: n_edof =" in captured.out
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "complete"
    assert report["diagnostics"]["stationarity"]["flag"] == "unavailable"
    assert [line.split(",")[0] for line in (out / "edof.csv").read_text().splitlines()] \
        == ["method", "svd", "cutset", "landau"]


def test_run_lag_lattice_over_the_budget_exits_2(tmp_path, capsys):
    path = _config_file(tmp_path, name="far.json", methods=["cutset", "landau"],
                        rx={"center_m": [0.0, 0.0, 5000.0], "size_m": [0.5, 0.5],
                            "grid": [8, 8]})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "landau: FAILED: ResourceError: lag lattice" in captured.err
    assert "cutset: n_edof =" in captured.out


def test_run_resource_overflow_exits_3(tmp_path, capsys):
    path = _config_file(tmp_path, name="huge.json",
                        methods=["svd"],
                        tx={"center_m": [0.0, 0.0, 0.0], "size_m": [0.5, 0.5],
                            "grid": [200, 200]},
                        rx={"center_m": [0.0, 0.0, 10.0], "size_m": [0.5, 0.5],
                            "grid": [200, 200]})
    assert main(["run", path]) == 3
    assert "resource error" in capsys.readouterr().err


def test_sweep_writes_table(tmp_path, capsys):
    path = _config_file(tmp_path)
    out = tmp_path / "out"
    code = main(["sweep", path, "--axis", "distance", "--values", "5,10",
                 "--out", str(out)])
    assert code == 0
    assert (out / "sweep.csv").exists()
    assert "distance=5" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "distance", "--values", "10"]])
def test_unwritable_output_directory_exits_1(tmp_path, capsys, command):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = str(blocker / "sub")
    path = _config_file(tmp_path)
    assert main([command[0], path, *command[1:], "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err
    assert "Traceback" not in err


def test_sweep_rejects_bad_values(tmp_path, capsys):
    path = _config_file(tmp_path)
    assert main(["sweep", path, "--axis", "distance", "--values", "5,abc"]) == 1
    assert main(["sweep", path, "--axis", "distance", "--values", ","]) == 1


@pytest.mark.parametrize("value", ["0.5", "nan", "inf"])
def test_sweep_rejects_scale_r_below_one_or_not_finite(tmp_path, capsys, value):
    path = _config_file(tmp_path)
    assert main(["sweep", path, "--axis", "scale_r", "--values", value]) == 1
    assert "error: scale_r values must be finite and >= 1" in capsys.readouterr().err


def test_sweep_unresolvable_scale_r_exits_2_and_keeps_the_other_rows(tmp_path, capsys):
    small = {"size_m": [0.1, 0.1], "grid": [10, 10]}
    path = _config_file(tmp_path, methods=["svd"],
                        tx={**BASE["tx"], **small}, rx={**BASE["rx"], **small})
    out = tmp_path / "out"
    code = main(["sweep", path, "--axis", "scale_r", "--values", "1,40",
                 "--out", str(out)])
    assert code == 2
    assert "FAILED: scale_r=40: ResourceError" in capsys.readouterr().err
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis_value,method,n_edof"
    assert lines[1].startswith("1,svd,") and lines[1] != "1,svd,nan"
    assert lines[2] == "40,svd,nan"


def test_sweep_partial_failure_exits_2(tmp_path, capsys):
    path = _config_file(tmp_path)
    code = main(["sweep", path, "--axis", "distance", "--values", "0,10",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


def test_sweep_method_failure_inside_a_run_exits_2(tmp_path, capsys):
    path = _config_file(tmp_path, methods=["svd", "cutset"])
    code = main(["sweep", path, "--axis", "distance", "--values", "10,0.0005",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert "FAILED: distance=0.0005 svd: SingularKernelError" in captured.err
    assert "FAILED: distance=0.0005 cutset: SingularKernelError" in captured.err
    assert "distance=0.0005 cutset: n_edof = nan" in captured.out


@pytest.mark.parametrize("argv", [
    [],                                  # missing subcommand
    ["run"],                             # missing config path
    ["sweep", "x.json", "--values", "1"],   # missing --axis
    ["sweep", "x.json", "--axis", "bogus", "--values", "1"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "error" in capsys.readouterr().err


def test_entry_wraps_main(tmp_path, monkeypatch, capsys):
    from edof.cli import entry
    path = _config_file(tmp_path)
    monkeypatch.setattr("sys.argv", ["edof", "validate", path])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0


def _cli(*args):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "edof.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _extreme_scene(wavelength, distance, grid, lags):
    square = {"size_m": [0.5, 0.5], "grid": [grid, grid]}
    return {"wave": {"wavelength_m": wavelength},
            "tx": {"center_m": [0.0, 0.0, 0.0], **square},
            "rx": {"center_m": [0.0, 0.0, distance], **square},
            "methods": ["svd", "cutset", "landau"],
            "landau_options": {"lag_grid": lags, "lag_extent_m": 6.3}}


@pytest.mark.parametrize("scene", [
    *(_extreme_scene(lam, d, 4, 41) for lam in (1e-300, 1e-100, 1e100, 1e300)
      for d in (10.0, lam)),
    _extreme_scene(0.01, 0.0005, 12, 141),
], ids=lambda s: f"lambda={s['wave']['wavelength_m']:g},d={s['rx']['center_m'][2]:g}")
def test_extreme_scenes_exit_cleanly_with_strict_json(tmp_path, scene):
    # at lambda = 1e100 m over 1e100 m every coupling underflows to 0: svd and
    # Landau refuse the zero peak instead of counting it
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    done = _cli("run", str(path), "--out", str(tmp_path / "out"))
    assert done.returncode in (0, 1, 2), done.stderr
    assert "Traceback" not in done.stderr
    report = tmp_path / "out" / "report.json"
    if report.exists():
        json.loads(report.read_text(), parse_constant=_reject_constant)


def test_module_runs_the_cli(tmp_path):
    path = _config_file(tmp_path)
    done = _cli("validate", path)
    assert (done.returncode, done.stdout) == (0, f"{path}: ok\n")
    done = _cli("run", path, "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "edof.csv").exists()
