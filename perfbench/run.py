"""Benchmark of the edof package on four fixed workloads.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout; the benchmark imports edof from the
checkout's ``src``.  Load is a closed loop: one caller runs the workload
back to back in one fresh worker process, with at most MAX_BLAS_THREADS
BLAS threads.  Set-up is timed in further fresh processes.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
no span wrapper installed.  With ``--trace 1`` it holds the per-layer
metrics from one extra traced run.  Every run's outputs are checked; a run
that raises, ends ``partial``, loses a sweep row or fails a check counts as
failed.  The last line of standard output is the JSON result; the lines
before it give the environment, the sample quartiles and, when traced, the
layer table.  Results and spans are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (the benchmark's own modules, found via sys.path)
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = tuple(
    [(f"landau.wavenumber_response.{q}", u) for q, u in
     (("calls", "count"), ("self_s", "s"), ("lags", "count"), ("pairs", "count"),
      ("pairs_per_s", "1/s"))]
    + [(f"spectrum.coupling_spectrum.{q}", u) for q, u in
       (("calls", "count"), ("self_s", "s"), ("entries", "count"))]
    + [(f"kernel.assemble_operator.{q}", u) for q, u in
       (("calls", "count"), ("self_s", "s"), ("entries", "count"), ("bytes", "B"),
        ("entries_per_s", "1/s"))]
    + [(f"cutset.bandwidth_field.{q}", u) for q, u in
       (("calls", "count"), ("self_s", "s"), ("pairs", "count"), ("pairs_per_s", "1/s"))]
    + [("kernel.adjoint_identity_residual.calls", "count"),
       ("kernel.adjoint_identity_residual.self_s", "s"),
       ("kernel.hilbert_schmidt_norm.self_s", "s"),
       ("cutset.set_measure_bandwidth.self_s", "s"),
       ("landau.stationarity_check.self_s", "s"),
       ("landau.polarization_study.self_s", "s"),
       ("experiment.run_experiment.self_s", "s"),
       ("experiment.run_sweep.self_s", "s"),
       ("config.config_from_mapping.calls", "count"),
       ("config.config_from_mapping.self_s", "s"),
       ("geometry.discretize.calls", "count"),
       ("geometry.discretize.self_s", "s"),
       ("trace_overhead_s", "s")])

# Layer rows of the ROADMAP Baseline table for the reference scene, in s.
BASELINE = (
    ("wavenumber_response, 141^2 lags", ("landau.wavenumber_response",), 5.4),
    ("coupling_spectrum (SVD)", ("spectrum.coupling_spectrum",), 2.7),
    ("assemble_operator", ("kernel.assemble_operator",), 0.36),
    ("bandwidth_field", ("cutset.bandwidth_field",), 0.29),
    ("adjoint diagnostic", ("kernel.adjoint_identity_residual",
                            "kernel.hilbert_schmidt_norm"), 0.26),
)

SETUP_SAMPLES = 7
MAX_BLAS_THREADS = 2
# Worker time limits; together they keep a run under three minutes.
RUN_TIMEOUT_S = 140.0
SETUP_TIMEOUT_S = 4.0


class WorkerError(RuntimeError):
    pass


def _worker(mode: str, job: dict, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, json.dumps(job)],
        env=env, capture_output=True, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _layer_table(traced: dict) -> list[str]:
    metrics, wall = traced["metrics"], traced["wall_s"]
    selfs = sorted(((metrics[f"{name}.self_s"], name) for name in spans.TRACED),
                   reverse=True)
    lines = [f"traced wall {wall:.3f} s; self time by layer:"]
    lines += [f"  {name:<36} {value:9.3f} s  {value / wall:6.1%}"
              for value, name in selfs if value > 0]
    if traced["absent"]:
        lines.append(f"  absent: {', '.join(traced['absent'])}")
    return lines


def _baseline_table(traced: dict) -> list[str]:
    metrics = traced["metrics"]
    lines = ["reference layers against the ROADMAP Baseline:",
             f"  {'layer':<34} {'baseline':>9} {'traced':>9}"]
    for label, names, seconds in BASELINE:
        value = sum(metrics[f"{name}.self_s"] for name in names)
        lines.append(f"  {label:<34} {seconds:8.2f}s {value:8.2f}s")
    return lines


def main(argv: list[str] | None = None, grid: int | None = None) -> int:
    """Run the benchmark; ``grid`` shrinks the workload (tests only)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "edof" / "__init__.py").is_file():
        print(f"error: no edof package under {src}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    job = {"workload": args.workload, "seed": args.seed, "grid": grid,
           "seconds": args.seconds, "trace": bool(args.trace), "tmp_root": str(OUT_DIR)}
    try:
        run = _worker("run", job, env, timeout=RUN_TIMEOUT_S)
        # Timed after the run, while the processor is still as busy as it is
        # between back-to-back runs: from idle, import times read slower.
        setups = [_worker("setup", job, env, timeout=SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not Path(run["edof_file"]).resolve().is_relative_to(src):
        print(f"error: edof imported from {run['edof_file']}, not {src}", file=sys.stderr)
        return 1

    samples = run["samples"]
    if args.trace:
        traced = run["traced"]
        values = dict(traced["metrics"],
                      trace_overhead_s=traced["wall_s"] - statistics.median(samples))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {"wall_s": statistics.median(samples),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    environment = {
        "commit": _commit(), "source_sha256": source_digest(src),
        "python": run["python"], "numpy": run["numpy"], "blas": run["blas"],
        "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "closed loop, 1 caller, runs back to back",
        "wall_s": {"samples": len(samples), "quartiles": quartiles(samples)},
        "setup_s": {"samples": len(setups), "quartiles": quartiles(setups)},
    }
    print("environment " + json.dumps(environment))
    for problem in run["problems"]:
        print(f"check failed: {problem}")
    print(f"runs attempted {run['attempted']}, failed {run['failed']}, "
          f"failed_fraction {run['failed'] / run['attempted']:.3f}")
    if args.trace:
        print("\n".join(_layer_table(traced)))
        if args.workload == "reference" and grid is None:
            print("\n".join(_baseline_table(traced)))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": environment, "metrics": metrics, "samples": samples,
              "setups": setups, "attempted": run["attempted"], "failed": run["failed"],
              "problems": run["problems"]}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(traced["spans"]) + "\n")

    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
