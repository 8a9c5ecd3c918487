"""Tests of the benchmark itself, on miniature (8 x 8 grid) workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import edof  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

MINI = workloads.MINI_GRID


def _mini(name, seed=1):
    return workloads.make_workload(name, seed, grid=MINI)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_every_metric_printed_by_name_with_unit(capsys):
    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        argv = ["--workload", "cutset_wide", "--seed", "3", "--seconds", "0",
                "--trace", str(trace)]
        assert run.main(argv, grid=MINI) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(declared)
        for name, unit in declared:
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                       for line in lines[:-1]), name


def test_wrong_expected_value_makes_runs_fail(tmp_path):
    for name in ("cutset_wide", "scale_r"):
        work = _mini(name)
        rows, _, _, _ = worker.run_once(edof, work, str(tmp_path))
        method = rows[-1]["method"]
        right = [row["n_edof"] for row in rows if row["method"] == method]
        wrong = right[:-1] + [right[-1] + 1]
        good = worker.measure(dataclasses.replace(work, expected={method: right}),
                              0.0, False, str(tmp_path))
        bad = worker.measure(dataclasses.replace(work, expected={method: wrong}),
                             0.0, False, str(tmp_path))
        assert good["failed"] == 0, good["problems"]
        assert bad["failed"] == bad["attempted"] > 0
        assert "recorded" in bad["problems"][0]


def test_band_miss_is_reported():
    work = _mini("reference")
    rows = [{"axis_value": None, "method": "cutset", "n_edof": 6.2},
            {"axis_value": None, "method": "landau", "n_edof": 4.0}]
    assert workloads.check(work, rows, []) != []
    rows[1]["n_edof"] = 6.0
    assert workloads.check(work, rows, []) == []


def test_timed_runs_execute_with_no_span_wrapper(tmp_path, monkeypatch):
    seen = []
    original = worker.run_once

    def probe(*args):
        seen.append(spans.installed_wrappers())
        return original(*args)

    monkeypatch.setattr(worker, "run_once", probe)
    out = worker.measure(_mini("reference"), 0.0, True, str(tmp_path))
    warmup, *timed, traced = seen
    assert warmup == [] and timed and all(w == [] for w in timed)
    assert "edof.experiment.assemble_operator" in traced
    assert "edof.run_experiment" in traced
    assert spans.installed_wrappers() == []
    assert {span["run"] for span in out["traced"]["spans"]} == {"traced"}


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    traced = worker.measure(_mini("reference"), 0.0, True, str(tmp_path))["traced"]
    metrics, wall = traced["metrics"], traced["wall_s"]
    layer_total = sum(metrics[f"{name}.self_s"] for name in spans.TRACED)
    assert abs(layer_total - sum(spans.self_times(traced["spans"]))) < 1e-9
    assert 0.9 * wall <= layer_total <= wall
    assert metrics["spectrum.coupling_spectrum.calls"] == 2  # full grid and half grid
    assert metrics["kernel.assemble_operator.bytes"] == 16 * (64 * 64 + 16 * 16)


def test_absent_function_is_recorded_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delattr(edof.kernel, "hilbert_schmidt_norm")
    traced = worker.measure(_mini("cutset_wide"), 0.0, True, str(tmp_path))["traced"]
    assert traced["absent"] == ["kernel.hilbert_schmidt_norm"]
    assert traced["metrics"]["kernel.hilbert_schmidt_norm.self_s"] == 0
    assert traced["metrics"]["cutset.bandwidth_field.calls"] == 1


def test_jittered_seeds_keep_the_work_and_seed_zero_keeps_the_scene():
    base = workloads.make_workload("distance_sweep", 0)
    assert base.mapping["rx"]["center_m"][2] == workloads.DISTANCE_M
    assert base.sweep_values == (2.0, 3.0, 4.0) and base.expected
    for seed in (1, 2, 3):
        work = workloads.make_workload("distance_sweep", seed)
        assert work.expected == {}
        tx = work.mapping["tx"]["size_m"][0]
        assert abs(tx / workloads.APERTURE_M - 1) <= workloads.JITTER
        assert work.mapping["tx"]["grid"] == base.mapping["tx"]["grid"]
        # automatic lag-grid size follows distance / tx size
        for value, base_value in zip(work.sweep_values, base.sweep_values):
            assert abs(value / tx - base_value / workloads.APERTURE_M) < 1e-9
        assert work == workloads.make_workload("distance_sweep", seed)
