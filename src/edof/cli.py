"""Command-line entry points: run, sweep, and validate.

Exit codes: 0 success, 1 validation failure, 2 partial method failure,
3 resource limit.
"""

from __future__ import annotations

import argparse
import sys

from .config import config_from_mapping, load_config
from .errors import ConfigError, DimensionError, GeometryError, ResourceError
from .experiment import SWEEP_AXES, run_experiment, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARTIAL = 2
EXIT_RESOURCE = 3

_VALIDATION_ERRORS = (ConfigError, GeometryError, DimensionError)


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation failures: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edof",
        description="Effective degrees of freedom of a planar-aperture link, "
                    "estimated by SVD, cut-set, and Landau support methods.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the selected methods on one scene")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--out", help="output directory (overrides the config)")
    run_p.add_argument("--methods",
                       help="comma-separated subset of svd,cutset,landau")
    run_p.add_argument("--gamma", metavar="MODE:VALUE",
                       help="threshold override, e.g. relative:0.5")

    sweep_p = sub.add_parser("sweep", help="rerun while varying one scene parameter")
    sweep_p.add_argument("config", help="path to a JSON experiment config")
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")
    sweep_p.add_argument("--out", help="output directory (overrides the config)")

    val_p = sub.add_parser("validate",
                           help="parse and geometry-check a config, no computation")
    val_p.add_argument("config", help="path to a JSON experiment config")
    return parser


def _apply_overrides(config, args):
    mapping = config.to_mapping()
    if getattr(args, "out", None):
        mapping["output"]["directory"] = args.out
    if getattr(args, "methods", None):
        mapping["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    if getattr(args, "gamma", None):
        mode, sep, raw = args.gamma.partition(":")
        if not sep:
            raise ConfigError("--gamma: expected MODE:VALUE")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"--gamma: {raw!r} is not a number") from exc
        mapping["gamma"] = {"mode": mode, "value": value}
    return config_from_mapping(mapping)


def _parse_values(raw: str) -> list[float]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError as exc:
            raise ConfigError(f"--values: {piece!r} is not a number") from exc
    if not out:
        raise ConfigError("--values: expected at least one number")
    return out


def _cmd_run(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    report = run_experiment(config)
    for rep in report.edof_reports:
        gamma = (f" (gamma {rep.gamma_mode} {rep.gamma_value:g})"
                 if rep.gamma_mode is not None else "")
        print(f"{rep.method}: n_edof = {rep.n_edof:g}{gamma}")
    for method, message in report.diagnostics["method_errors"].items():
        print(f"{method}: FAILED: {message}", file=sys.stderr)
    for path in report.output_files:
        print(f"wrote {path}")
    return EXIT_PARTIAL if report.status == "partial" else EXIT_OK


def _cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    values = _parse_values(args.values)
    result = run_sweep(config, args.axis, values)
    for row in result.rows:
        n = "nan" if row["n_edof"] is None else f"{row['n_edof']:g}"
        print(f"{args.axis}={row['axis_value']:g} {row['method']}: n_edof = {n}")
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for path in result.output_files:
        print(f"wrote {path}")
    return EXIT_PARTIAL if result.failures else EXIT_OK


def _cmd_validate(args) -> int:
    load_config(args.config)
    print(f"{args.config}: ok")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "sweep": _cmd_sweep, "validate": _cmd_validate}[args.command]
    try:
        return handler(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())
