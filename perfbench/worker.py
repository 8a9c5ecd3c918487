"""Benchmark worker: one fresh process that sets up or runs one workload.

run.py starts it with the source tree on PYTHONPATH and the BLAS thread
count fixed, as

    python3 perfbench/worker.py setup '<job json>'
    python3 perfbench/worker.py run '<job json>'

and reads the JSON object it prints on its last line.  ``setup`` times the
import of edof and the building of the workload's config; ``run`` repeats
the workload, untraced, for the job's seconds, checks every output, records
the process's peak resident memory and, when the job asks for it, adds one
traced run.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (the benchmark's own modules, found via sys.path)


def setup_seconds(work: workloads.Workload) -> float:
    """Time to import edof and build the workload's config in this process."""
    start = time.perf_counter()
    import edof
    edof.config_from_mapping(work.mapping)
    return time.perf_counter() - start


def run_once(edof, work: workloads.Workload, tmp_root: str):
    """One workload run through the public API.

    Returns the output rows, the rank bounding each svd row, the output
    table as text (for the same-seed rerun check) and the problems the
    run reported itself.
    """
    config = edof.config_from_mapping(work.mapping)
    budget = ({} if work.max_matrix_entries is None
              else {"max_matrix_entries": work.max_matrix_entries})
    if work.sweep_axis is None:
        with tempfile.TemporaryDirectory(dir=tmp_root) as out:
            report = edof.run_experiment(config, out_dir=out, write=work.write, **budget)
            text = Path(out, "edof.csv").read_text(encoding="utf-8") if work.write else None
        rows = [{"axis_value": None, "method": rep.method, "n_edof": rep.n_edof}
                for rep in report.edof_reports]
        ranks = [] if report.spectrum is None else [len(report.spectrum.values)]
        problems = [f"{method}: {detail}"
                    for method, detail in report.diagnostics["method_errors"].items()]
        if report.status != "complete":
            problems.append(f"status {report.status}")
    else:
        result = edof.run_sweep(config, work.sweep_axis, work.sweep_values,
                                write=False, **budget)
        rows = [dict(row) for row in result.rows]
        if work.sweep_axis == "scale_r":
            # the budget caps both grids, so it caps the rank
            rank = math.isqrt(work.max_matrix_entries)
        else:
            rank = min(math.prod(config.tx_grid_counts), math.prod(config.rx_grid_counts))
        ranks = [rank] * sum(row["method"] == "svd" for row in rows)
        text = None
        problems = list(result.failures)
    if text is None:
        text = "".join(f"{row['axis_value']!r},{row['method']},{row['n_edof']!r}\n"
                       for row in rows)
    return rows, ranks, text, problems


class _Runs:
    """Attempted runs of one workload and the problems found in them."""

    def __init__(self, edof, work, tmp_root):
        self.edof, self.work, self.tmp_root = edof, work, tmp_root
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self._first_text = None

    def attempt(self) -> float:
        """Run once, check the outputs outside the timed region, return the time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            rows, ranks, text, problems = run_once(self.edof, self.work, self.tmp_root)
        except Exception as exc:  # a failing run is counted, the loop goes on
            elapsed = time.perf_counter() - start
            self._fail([f"{type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - start
        problems += workloads.check(self.work, rows, ranks)
        if self._first_text is None:
            self._first_text = text
        elif text != self._first_text:
            problems.append("output differs from the first run with the same seed")
        if problems:
            self._fail(problems)
        return elapsed

    def _fail(self, problems):
        self.failed += 1
        self.problems.extend(f"run {self.attempted}: {p}" for p in problems)


def measure(work: workloads.Workload, seconds: float, trace: bool,
            tmp_root: str) -> dict:
    """Untraced runs for ``seconds`` (at least one), then one traced run if asked.

    A run starts only while the median run so far, and with ``trace`` the
    traced run after it too, still fits in ``seconds``.  Peak resident
    memory is read after the first run.
    """
    import edof
    import spans

    # The miniature of the workload starts the BLAS threads and fills
    # numpy's lazy caches before anything is timed.
    run_once(edof, workloads.make_workload(work.name, 0, grid=workloads.MINI_GRID), tmp_root)
    runs = _Runs(edof, work, tmp_root)
    samples = [runs.attempt()]
    # one run in a fresh process; later runs only add allocator noise
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    start = time.perf_counter() - samples[0]
    while True:
        typical = statistics.median(samples)
        if time.perf_counter() - start + typical * (2 if trace else 1) > seconds:
            break
        samples.append(runs.attempt())
    out = {"samples": samples, "peak_rss_mb": peak_rss_mb, "traced": None}
    if trace:
        tracer = spans.Tracer()
        with tracer.installed("traced"):
            traced_wall = runs.attempt()
        out["traced"] = {"wall_s": traced_wall, "metrics": spans.layer_metrics(tracer),
                         "absent": tracer.absent, "spans": tracer.spans}
    out.update(attempted=runs.attempted, failed=runs.failed, problems=runs.problems)
    return out


def _library_versions() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv: list[str]) -> int:
    mode, job = argv[0], json.loads(argv[1])
    work = workloads.make_workload(job["workload"], job["seed"], job.get("grid"))
    if mode == "setup":
        out = {"setup_s": setup_seconds(work)}
    else:
        out = measure(work, job["seconds"], job["trace"], job["tmp_root"])
        import edof
        out.update(_library_versions(), edof_file=edof.__file__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
