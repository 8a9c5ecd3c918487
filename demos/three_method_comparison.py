"""All three estimators on one scene, through the experiment harness.

The harness runs whichever methods the config selects, isolates failures,
attaches cross-checking diagnostics, and persists spectrum.csv, edof.csv,
and report.json. This script is the library-call twin of:

    edof run scene.json --out comparison_out

Usage:
    python3 demos/three_method_comparison.py
"""

import json

from edof.config import config_from_mapping
from edof.experiment import run_experiment

SCENE = {
    "wave": {"wavelength_m": 0.01},
    "tx": {"center_m": [0.0, 0.0, 0.0], "size_m": [0.5, 0.5], "grid": [40, 40]},
    "rx": {"center_m": [0.0, 0.0, 10.0], "size_m": [0.5, 0.5], "grid": [40, 40]},
    "methods": ["svd", "cutset", "landau"],
    "gamma": {"mode": "relative", "value": 0.5},
    "landau_options": {"lag_grid": 141, "lag_extent_m": 6.3},
    "output": {"directory": "comparison_out", "formats": ["csv", "json"]},
    "seed": 7,
}


def main():
    config = config_from_mapping(SCENE)
    report = run_experiment(config)

    print(f"status: {report.status}")
    print("\nmethod        n_edof   threshold")
    for rep in report.edof_reports:
        gamma = (f"{rep.gamma_mode} {rep.gamma_value}"
                 if rep.gamma_mode is not None else "-")
        print(f"{rep.method:10} {rep.n_edof:9.4f}   {gamma}")

    d = report.diagnostics
    print("\ncross checks:")
    print(f"  grid convergence: {d['convergence']['flag']} "
          f"(top-mode drift {d['convergence']['top_mode_relative_drift']:.2%} "
          f"vs half resolution)")
    print(f"  bandwidth estimators: {d['injectivity']['flag']} "
          f"({d['injectivity']['relative_difference']:.2%} apart)")
    print(f"  correlation shift-invariance: {d['stationarity']['flag']}")
    for w in d["warnings"]:
        print(f"  note: {w}")

    print("\nfiles:")
    for path in report.output_files:
        print(f"  {path}")
    with open(report.output_files[-1], encoding="utf-8") as fh:
        payload = json.load(fh)
    print(f"\nreport.json schema {payload['schema_version']}, "
          f"written {payload['generated_at']}")


if __name__ == "__main__":
    main()
