"""Append one point to the benchmark trajectory from the results of run.py.

    python3 perfbench/record.py --tag <name>

Reads the ``result-*.json`` files run.py left in ``perfbench/out`` for the
current source tree, and appends to ``perfbench/trajectory.json`` one point
holding, per workload, the median and quartiles of every end-to-end metric
over the untraced runs, the median of every per-layer metric over the
traced runs, and the traced reference layers next to the ROADMAP Baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's own modules, found via sys.path)

TRAJECTORY = HERE / "trajectory.json"


def _summary(values: list[float]) -> dict:
    q1, _, q3 = run.quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)

    digest = run.source_digest(run.ROOT / "src")
    results = [json.loads(path.read_text()) for path in sorted(run.OUT_DIR.glob("result-*.json"))]
    results = [r for r in results if r["environment"]["source_sha256"] == digest]
    if not results:
        print(f"error: no results for source {digest} in {run.OUT_DIR}", file=sys.stderr)
        return 1

    point_workloads = {}
    for name in run.workloads.WORKLOADS:
        mine = [r for r in results if r["environment"]["workload"] == name]
        untraced = [r for r in mine if not r["environment"]["trace"]]
        traced = [r for r in mine if r["environment"]["trace"]]
        entry = {"attempted": sum(r["attempted"] for r in mine),
                 "failed": sum(r["failed"] for r in mine),
                 "seeds": sorted({r["environment"]["seed"] for r in mine})}
        if untraced:
            entry["end_to_end"] = {
                metric: dict(_summary([r["metrics"][metric]["value"] for r in untraced]),
                             unit=unit)
                for metric, unit in run.END_TO_END}
        if traced:
            entry["per_layer"] = {
                metric: statistics.median(r["metrics"][metric]["value"] for r in traced)
                for metric, _ in run.PER_LAYER}
        point_workloads[name] = entry

    reference = point_workloads["reference"].get("per_layer")
    environment = results[0]["environment"]
    point = {
        "tag": args.tag,
        "commit": environment["commit"],
        "source_sha256": digest,
        "environment": {key: environment[key] for key in
                        ("python", "numpy", "blas", "blas_threads", "nproc", "seconds")},
        "workloads": point_workloads,
        "reference_vs_baseline_s": None if reference is None else {
            label: {"baseline": seconds,
                    "traced": sum(reference[f"{n}.self_s"] for n in names)}
            for label, names, seconds in run.BASELINE},
    }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended point {args.tag!r} ({len(results)} results) to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
