"""Experiment harness: single runs, sweeps, and comparison-table persistence."""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any

import numpy as np

from .config import ExperimentConfig, config_from_mapping
from .cutset import (
    LocalBandwidthField,
    bandwidth_field,
    cutset_edof,
    local_bandwidth,
    set_measure_bandwidth,
    wavenumber_component,
)
from .errors import ConfigError, NumericalError, ResourceError
from .geometry import QuadratureGrid, discretize
from .kernel import assemble_operator
from .landau import (
    DEFAULT_MATRIX_BUDGET,
    DEFAULT_STUDY_GAMMAS,
    WavenumberResponse,
    landau_edof,
    polarization_study,
    stationarity_check,
    support_measure,
    wavenumber_response,
)
from .spectrum import CouplingSpectrum, EdofReport, count_edof, coupling_spectrum

SCHEMA_VERSION = "3"
SWEEP_AXES = ("distance", "tx_size", "rx_size", "wavelength", "scale_r")

# run-diagnostic thresholds; each flag stays informational, never fatal
CONVERGENCE_DRIFT_TOL = 0.05
INJECTIVITY_DIVERGENCE_TOL = 0.05
SET_MEASURE_CELLS_PER_AXIS = 64


@dataclass(frozen=True)
class ComparisonReport:
    """Per-method eDoF table plus the evidence each method produced."""

    config: ExperimentConfig
    edof_reports: tuple[EdofReport, ...]
    spectrum: CouplingSpectrum | None
    bandwidth: LocalBandwidthField | None
    response: WavenumberResponse | None
    diagnostics: dict[str, Any]
    status: str                      # "complete" | "partial"
    tool_version: str
    output_files: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    """Aggregate of one run per axis value; failed rows carry n_edof None."""

    axis: str
    rows: tuple[dict, ...]           # {"axis_value", "method", "n_edof"}
    failures: tuple[str, ...]
    output_files: tuple[str, ...] = ()


def _fmt(x) -> str:
    """CSV cell: 17 significant digits round-trips doubles exactly."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return f"{float(x):.17g}"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _not_applicable() -> dict:
    return {"flag": "not-applicable"}


def _collect_warnings(recorded, method: str, sink: list[str]) -> None:
    for item in recorded:
        sink.append(f"{method}: {item.message}")


def _convergence_diagnostic(config: ExperimentConfig, spectrum: CouplingSpectrum) -> dict:
    """Top-mode drift against a half-resolution rerun of the same scene."""
    half_tx = tuple(max(1, n // 2) for n in config.tx_grid_counts)
    half_rx = tuple(max(1, n // 2) for n in config.rx_grid_counts)
    try:
        tx_grid = discretize(config.tx_surface, *half_tx)
        rx_grid = discretize(config.rx_surface, *half_rx)
        coarse = coupling_spectrum(assemble_operator(tx_grid, rx_grid, config.wave))
    except Exception as exc:
        return {"flag": "unavailable", "detail": f"{type(exc).__name__}: {exc}"}
    k = min(10, len(coarse.values), len(spectrum.values))
    drift = float(np.max(np.abs(coarse.values[:k] - spectrum.values[:k])
                         / spectrum.values[:k]))
    return {
        "flag": "converged" if drift <= CONVERGENCE_DRIFT_TOL else "drifting",
        "top_mode_relative_drift": drift,
        "modes_compared": k,
        "coarse_grids": {"tx": list(half_tx), "rx": list(half_rx)},
    }


def _injectivity_diagnostic(config: ExperimentConfig, tx_grid: QuadratureGrid) -> dict:
    """Jacobian-integral vs set-measure bandwidth at the receive center.

    The set-measure value is authoritative: the jacobian integral double
    counts wavenumber cells whenever the map folds.  The raster needs
    several wavenumber samples per occupancy cell, so the set is resampled
    on a dense dedicated grid instead of the quadrature nodes.
    """
    center = config.rx_surface.center
    w_jac = local_bandwidth(center, tx_grid, config.rx_surface, config.wave)
    n_dense = 3 * SET_MEASURE_CELLS_PER_AXIS
    dense = discretize(config.tx_surface, n_dense, n_dense)
    k = wavenumber_component(center, dense.points, config.rx_surface, config.wave)
    span = float(np.max(np.ptp(k, axis=0)))
    if span <= 0.0:
        resolution = config.wave.k0 / SET_MEASURE_CELLS_PER_AXIS
    else:
        resolution = span / SET_MEASURE_CELLS_PER_AXIS
    w_set = set_measure_bandwidth(center, dense, config.rx_surface,
                                  config.wave, resolution)
    diff = abs(w_jac - w_set) / w_set if w_set > 0 else float("inf")
    return {
        "flag": "consistent" if diff <= INJECTIVITY_DIVERGENCE_TOL else "divergent",
        "jacobian_center": w_jac,
        "set_measure_center": w_set,
        "set_measure_resolution": resolution,
        "relative_difference": diff,
    }


def _finite(report: EdofReport) -> EdofReport:
    """The report; a count that is not finite is an error, not a result."""
    if not np.isfinite(report.n_edof):
        raise NumericalError(f"n_edof is {report.n_edof}, not a finite count")
    return report


def _run_methods(config: ExperimentConfig,
                 max_matrix_entries: int) -> tuple[list[EdofReport], dict, dict]:
    """Execute each selected method in isolation; one failure never aborts the rest."""
    tx_grid = discretize(config.tx_surface, *config.tx_grid_counts)
    rx_grid = discretize(config.rx_surface, *config.rx_grid_counts)
    if "svd" in config.methods:
        entries = len(tx_grid) * len(rx_grid)
        if entries > max_matrix_entries:
            raise ResourceError(
                f"coupling matrix would hold {entries} entries, over the "
                f"budget of {max_matrix_entries}; reduce the grids")

    reports: list[EdofReport] = []
    evidence: dict[str, Any] = {"spectrum": None, "bandwidth": None, "response": None}
    diagnostics: dict[str, Any] = {
        "convergence": _not_applicable(),
        "injectivity": _not_applicable(),
        "stationarity": _not_applicable(),
        "method_errors": {},
        "warnings": [],
    }
    warn_sink: list[str] = diagnostics["warnings"]

    for method in config.methods:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if method == "svd":
                    spectrum = coupling_spectrum(
                        assemble_operator(tx_grid, rx_grid, config.wave))
                    evidence["spectrum"] = spectrum
                    n = count_edof(spectrum, config.gamma_value, config.gamma_mode)
                    reports.append(EdofReport(
                        method="svd", n_edof=n,
                        gamma_mode=config.gamma_mode, gamma_value=config.gamma_value))
                    diagnostics["convergence"] = _convergence_diagnostic(
                        config, spectrum)
                elif method == "cutset":
                    bw = bandwidth_field(tx_grid, rx_grid, config.wave)
                    evidence["bandwidth"] = bw
                    reports.append(_finite(cutset_edof(tx_grid, rx_grid, config.wave,
                                                       field=bw)))
                    diagnostics["injectivity"] = _injectivity_diagnostic(config, tx_grid)
                elif method == "landau":
                    response = wavenumber_response(
                        config.rx_surface, tx_grid, config.wave,
                        lag_grid=config.lag_grid, lag_extent=config.lag_extent)
                    evidence["response"] = response
                    support = support_measure(response, config.gamma_value,
                                              config.gamma_mode)
                    rep = landau_edof(config.rx_surface, support,
                                      config.gamma_mode, config.gamma_value)
                    reports.append(_finite(rep))
                    stat = stationarity_check(config.rx_surface, tx_grid, config.wave)
                    diagnostics["stationarity"] = {
                        "flag": "stationary" if stat["stationary"] else "non-stationary",
                        "max_modulus_deviation": stat["max_modulus_deviation"],
                    }
            _collect_warnings(caught, method, warn_sink)
        except Exception as exc:
            _collect_warnings(caught, method, warn_sink)
            diagnostics["method_errors"][method] = f"{type(exc).__name__}: {exc}"
    return reports, evidence, diagnostics


def _spectrum_summary(spectrum: CouplingSpectrum | None):
    if spectrum is None:
        return "not-applicable"
    return {
        "n_values": len(spectrum.values),
        "s0_squared": float(spectrum.values[0]),
        "sum_s_squared": float(spectrum.values.sum()),
        "solver": spectrum.solver,
        "symmetry": list(spectrum.symmetry),
    }


def _bandwidth_summary(bw: LocalBandwidthField | None, report: EdofReport | None):
    if bw is None:
        return "not-applicable"
    out = {"method": bw.method, "n_points": len(bw.values),
           "symmetry": list(bw.symmetry), "evaluated_nodes": bw.evaluated_nodes}
    if report is not None:
        out.update(report.diagnostics)
    return out


def _response_summary(response: WavenumberResponse | None):
    if response is None:
        return "not-applicable"
    diag = dict(response.diagnostics)
    diag.pop("zero_lag", None)
    return {
        "op_norm_estimate": response.op_norm_estimate,
        "cell_area": response.cell_area,
        "n_samples": len(response.H_values),
        **diag,
    }


def report_mapping(report: ComparisonReport) -> dict:
    """JSON-ready view of the report; everything but the timestamp."""
    by_method = {rep.method: rep for rep in report.edof_reports}
    return _jsonable({
        "schema_version": SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "status": report.status,
        "config": report.config.to_mapping(),
        "edof": [
            {"method": rep.method, "n_edof": rep.n_edof,
             "gamma_mode": rep.gamma_mode, "gamma_value": rep.gamma_value}
            for rep in report.edof_reports
        ],
        "spectrum": _spectrum_summary(report.spectrum),
        "bandwidth": _bandwidth_summary(report.bandwidth, by_method.get("cutset")),
        "wavenumber_response": _response_summary(report.response),
        "diagnostics": report.diagnostics,
    })


def _write_spectrum_csv(path: str, spectrum: CouplingSpectrum) -> None:
    s0 = float(spectrum.values[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,s_squared,s_squared_normalized\n")
        for i, value in enumerate(spectrum.values):
            fh.write(f"{i},{_fmt(float(value))},{_fmt(float(value) / s0)}\n")


def _write_edof_csv(path: str, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,n_edof,gamma_mode,gamma_value\n")
        for rep in reports:
            mode = rep.gamma_mode if rep.gamma_mode is not None else ""
            fh.write(f"{rep.method},{_fmt(rep.n_edof)},{mode},{_fmt(rep.gamma_value)}\n")


def _write_json(path: str, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config: ExperimentConfig,
                   out_dir: str | None = None,
                   write: bool = True,
                   max_matrix_entries: int = DEFAULT_MATRIX_BUDGET) -> ComparisonReport:
    """Run every selected method on one scene and persist the comparison.

    Methods are isolated: an error in one is recorded in the diagnostics
    and the others still run (the report is then flagged "partial").  A
    coupling matrix over ``max_matrix_entries`` raises ResourceError before
    any work starts.  Output is deterministic for a fixed config, and the
    config's seed is only a label; the report timestamp alone differs
    between reruns.
    """
    from . import __version__

    reports, evidence, diagnostics = _run_methods(config, max_matrix_entries)
    status = "partial" if diagnostics["method_errors"] else "complete"
    result = ComparisonReport(
        config=config,
        edof_reports=tuple(reports),
        spectrum=evidence["spectrum"],
        bandwidth=evidence["bandwidth"],
        response=evidence["response"],
        diagnostics=_jsonable(diagnostics),
        status=status,
        tool_version=__version__,
    )
    if not write:
        return result

    directory = out_dir if out_dir is not None else config.output_directory
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    if "csv" in config.output_formats:
        if result.spectrum is not None:
            path = os.path.join(directory, "spectrum.csv")
            _write_spectrum_csv(path, result.spectrum)
            written.append(path)
        path = os.path.join(directory, "edof.csv")
        _write_edof_csv(path, result.edof_reports)
        written.append(path)
    if "json" in config.output_formats:
        mapping = report_mapping(result)
        mapping["generated_at"] = datetime.now(timezone.utc).isoformat()
        path = os.path.join(directory, "report.json")
        _write_json(path, mapping)
        written.append(path)
    return dataclasses.replace(result, output_files=tuple(written))


def _shifted_mapping(config: ExperimentConfig, axis: str, value: float) -> dict:
    mapping = config.to_mapping()
    if axis == "distance":
        tx_c = np.asarray(mapping["tx"]["center_m"], dtype=float)
        rx_c = np.asarray(mapping["rx"]["center_m"], dtype=float)
        offset = rx_c - tx_c
        norm = float(np.linalg.norm(offset))
        if norm == 0.0:
            raise ConfigError("distance sweep needs distinct surface centers")
        mapping["rx"]["center_m"] = [float(x) for x in tx_c + offset / norm * value]
    elif axis in ("tx_size", "rx_size"):
        key = axis[:2]
        size = mapping[key]["size_m"]
        factor = value / size[0]
        mapping[key]["size_m"] = [value, size[1] * factor]
    elif axis == "wavelength":
        mapping["wave"]["wavelength_m"] = value
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return mapping


def _sweep_scale_r(config: ExperimentConfig, values,
                   max_matrix_entries: int) -> tuple[list[dict], list[str]]:
    if config.gamma_mode != "relative":
        raise ConfigError("scale_r sweeps report thresholds relative to the "
                          "top mode; set gamma.mode to 'relative'")
    if not all(1.0 <= r < np.inf for r in values):
        raise ConfigError(f"scale_r values must be finite and >= 1, got {values}")
    gammas = tuple(sorted(set(DEFAULT_STUDY_GAMMAS) | {config.gamma_value}))
    rows, failures = [], []
    for r in values:
        try:
            (row,) = polarization_study(config.tx_surface, config.rx_surface,
                                        config.wave, scales=[r], gammas=gammas,
                                        max_matrix_entries=max_matrix_entries)
            n_edof = row.n_edof[config.gamma_value]
        except Exception as exc:
            failures.append(f"scale_r={r:g}: {type(exc).__name__}: {exc}")
            n_edof = None
        rows.append({"axis_value": r, "method": "svd", "n_edof": n_edof})
    return rows, failures


def run_sweep(config: ExperimentConfig, axis: str, values,
              out_dir: str | None = None,
              write: bool = True,
              max_matrix_entries: int = DEFAULT_MATRIX_BUDGET) -> SweepResult:
    """One run per axis value, aggregated into a single table.

    Row failures are recorded (n_edof None, "nan" in the CSV) and the sweep
    continues.  The scale_r axis recomputes the spectrum at fixed points
    per wavelength instead of rerunning every method, so its rows are
    svd-only.  Rows follow the input value order.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one axis value")

    rows: list[dict] = []
    failures: list[str] = []
    if axis == "scale_r":
        rows, failures = _sweep_scale_r(config, values, max_matrix_entries)
    else:
        for value in values:
            try:
                shifted = config_from_mapping(_shifted_mapping(config, axis, value))
                report = run_experiment(shifted, write=False,
                                        max_matrix_entries=max_matrix_entries)
            except Exception as exc:
                failures.append(f"{axis}={value:g}: {type(exc).__name__}: {exc}")
                rows.extend({"axis_value": value, "method": m, "n_edof": None}
                            for m in config.methods)
                continue
            done = {rep.method: rep.n_edof for rep in report.edof_reports}
            for method in config.methods:
                if method in done:
                    rows.append({"axis_value": value, "method": method,
                                 "n_edof": done[method]})
                else:
                    detail = report.diagnostics["method_errors"].get(method, "failed")
                    failures.append(f"{axis}={value:g} {method}: {detail}")
                    rows.append({"axis_value": value, "method": method, "n_edof": None})

    result = SweepResult(axis=axis, rows=tuple(rows), failures=tuple(failures))
    if not write:
        return result
    directory = out_dir if out_dir is not None else config.output_directory
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("axis_value,method,n_edof\n")
        for row in rows:
            n = row["n_edof"]
            cell = "nan" if n is None else _fmt(n)
            fh.write(f"{_fmt(row['axis_value'])},{row['method']},{cell}\n")
    return dataclasses.replace(result, output_files=(path,))
