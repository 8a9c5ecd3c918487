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
    isotropic_bandwidth,
    local_bandwidth,
    set_measure_bandwidth,
    wavenumber_component,
)
from .errors import ConfigError, NumericalError, ResourceError
from .geometry import discretize
from .kernel import assemble_operator
from .landau import (
    DEFAULT_MATRIX_BUDGET,
    WavenumberResponse,
    landau_edof,
    stationarity_check,
    study_grid_counts,
    support_measure,
    wavenumber_response,
)
from .spectrum import CouplingSpectrum, EdofReport, count_edof, coupling_spectrum

SCHEMA_VERSION = "6"
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
    output_files: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    """Each method's estimate per axis value; failed rows carry n_edof None."""

    rows: tuple[dict, ...]           # {"axis_value", "method", "n_edof"}
    failures: tuple[str, ...]
    output_files: tuple[str, ...] = ()


def _fmt(x) -> str:
    """CSV cell: text as is, None empty, numbers to 17 digits (exact for doubles)."""
    if x is None:
        return ""
    return x if isinstance(x, str) else f"{x:.17g}"


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _write_files(directory: str, texts: dict[str, str]) -> tuple[str, ...]:
    """Write each ``{file name: text}`` into ``directory``, which is created
    if missing; the paths written, in the order given."""
    os.makedirs(directory, exist_ok=True)
    paths = tuple(os.path.join(directory, name) for name in texts)
    for path, text in zip(paths, texts.values()):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return paths


def _svd_estimate(config: ExperimentConfig, tx_grid, rx_grid):
    spectrum = coupling_spectrum(assemble_operator(tx_grid, rx_grid, config.wave))
    n = count_edof(spectrum, config.gamma_value, config.gamma_mode)
    return EdofReport(method="svd", n_edof=n, gamma_mode=config.gamma_mode,
                      gamma_value=config.gamma_value), spectrum


def _cutset_estimate(config: ExperimentConfig, tx_grid, rx_grid):
    bw = bandwidth_field(tx_grid, rx_grid, config.wave)
    return cutset_edof(bw), bw


def _landau_estimate(config: ExperimentConfig, tx_grid, rx_grid):
    response = wavenumber_response(config.rx_surface, tx_grid, config.wave,
                                   lag_grid=config.lag_grid, lag_extent=config.lag_extent)
    support = support_measure(response, config.gamma_value, config.gamma_mode)
    return landau_edof(config.rx_surface, support, config.gamma_mode,
                       config.gamma_value), response


def _convergence_check(config: ExperimentConfig, tx_grid, spectrum: CouplingSpectrum) -> dict:
    """Top-mode drift against a half-resolution rerun of the same scene."""
    half_tx = tuple(max(1, n // 2) for n in config.tx_grid_counts)
    half_rx = tuple(max(1, n // 2) for n in config.rx_grid_counts)
    coarse = coupling_spectrum(assemble_operator(discretize(config.tx_surface, *half_tx),
                                                 discretize(config.rx_surface, *half_rx),
                                                 config.wave))
    k = min(10, len(coarse.values), len(spectrum.values))
    drift = float(np.max(np.abs(coarse.values[:k] - spectrum.values[:k])
                         / spectrum.values[:k]))
    return {
        "flag": "converged" if drift <= CONVERGENCE_DRIFT_TOL else "drifting",
        "top_mode_relative_drift": drift,
        "modes_compared": k,
        "coarse_grids": {"tx": list(half_tx), "rx": list(half_rx)},
    }


def _injectivity_check(config: ExperimentConfig, tx_grid, bw) -> dict:
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
    diff = abs(w_jac - w_set) / w_set if w_set > 0 else None   # null, not Infinity
    return {
        "flag": "consistent" if diff is not None and diff <= INJECTIVITY_DIVERGENCE_TOL
        else "divergent",
        "jacobian_center": w_jac,
        "set_measure_center": w_set,
        "set_measure_resolution": resolution,
        "relative_difference": diff,
    }


def _stationarity_check(config: ExperimentConfig, tx_grid, response) -> dict:
    stat = stationarity_check(config.rx_surface, tx_grid, config.wave)
    return {"flag": "stationary" if stat["stationary"] else "non-stationary",
            "max_modulus_deviation": stat["max_modulus_deviation"]}


# method -> (estimate, diagnostics key, cross-check): (config, tx_grid, rx_grid)
# -> (EdofReport, evidence), and (config, tx_grid, evidence) -> flag dict
_STEPS = {
    "svd": (_svd_estimate, "convergence", _convergence_check),
    "cutset": (_cutset_estimate, "injectivity", _injectivity_check),
    "landau": (_landau_estimate, "stationarity", _stationarity_check),
}


def _step(method: str, caught: list[str], fn, *args):
    """``(fn(*args), None)``, or ``(None, exc)`` if it raised ``exc``; the
    warnings raised meanwhile are appended to ``caught`` as "method: message"."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            return fn(*args), None
        except Exception as exc:
            return None, exc
        finally:
            caught.extend(f"{method}: {item.message}" for item in seen)


def _estimate(method: str, config: ExperimentConfig, grids, caught: list[str]):
    """``(report, evidence, error)`` of a method's estimate step.  A count
    that is not finite is an error, not a result; its evidence is kept."""
    found, error = _step(method, caught, _STEPS[method][0], config, *grids)
    report, evidence = found or (None, None)
    if error is None and not np.isfinite(report.n_edof):
        report, error = None, NumericalError(f"n_edof is {report.n_edof}, not a finite count")
    return report, evidence, error


def _grids(config: ExperimentConfig, max_matrix_entries: int):
    grids = (discretize(config.tx_surface, *config.tx_grid_counts),
             discretize(config.rx_surface, *config.rx_grid_counts))
    entries = len(grids[0]) * len(grids[1])
    if "svd" in config.methods and entries > max_matrix_entries:
        raise ResourceError(f"coupling matrix would hold {entries} entries, over the "
                            f"budget of {max_matrix_entries}; reduce the grids")
    return grids


def _spectrum_summary(spectrum: CouplingSpectrum | None):
    if spectrum is None:
        return "not-applicable"
    return {
        "n_values": len(spectrum.values),
        "s0_squared": float(spectrum.values[0]),
        "sum_s_squared": float(spectrum.values.sum()),
        "solver": "mirror-sectors" if spectrum.symmetry == ("u", "v") else "svd",
        "symmetry": list(spectrum.symmetry),
    }


def _bandwidth_summary(report: ComparisonReport):
    """The field, and its statistics once it gave the cut-set row; null fraction if pi k0^2 is 0."""
    bw = report.bandwidth
    if bw is None:
        return "not-applicable"
    out = {"n_points": len(bw.values), "symmetry": list(bw.symmetry),
           "evaluated_nodes": bw.evaluated_nodes}
    if any(rep.method == "cutset" for rep in report.edof_reports):
        w_max, w_iso = float(bw.values.max()), isotropic_bandwidth(report.config.wave)
        out.update(bandwidth_min=float(bw.values.min()), bandwidth_max=w_max,
                   bandwidth_mean=float(bw.values.mean()), isotropic_bound=w_iso,
                   bandwidth_fraction_of_isotropic=w_max / w_iso if w_iso > 0.0 else None)
    return out


def _response_summary(response: WavenumberResponse | None):
    if response is None:
        return "not-applicable"
    return {
        "op_norm_estimate": float(response.H_values.max()),
        "cell_area": response.cell_area,
        "n_samples": len(response.H_values),
        "lag_shape": response.shape,
        **response.diagnostics,
    }


def report_mapping(report: ComparisonReport) -> dict:
    """JSON-ready view of the report; everything but the timestamp."""
    from . import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "status": report.status,
        "config": report.config.to_mapping(),
        "edof": [
            {"method": rep.method, "n_edof": rep.n_edof,
             "gamma_mode": rep.gamma_mode, "gamma_value": rep.gamma_value}
            for rep in report.edof_reports
        ],
        "spectrum": _spectrum_summary(report.spectrum),
        "bandwidth": _bandwidth_summary(report),
        "wavenumber_response": _response_summary(report.response),
        "diagnostics": report.diagnostics,
    }


def run_experiment(config: ExperimentConfig,
                   out_dir: str | None = None,
                   write: bool = True,
                   max_matrix_entries: int = DEFAULT_MATRIX_BUDGET) -> ComparisonReport:
    """Run every selected method on one scene and persist the comparison.

    A method's estimate and its cross-check fail on their own: a failed
    estimate is recorded as a method error and the report is "partial", a
    failed cross-check is flagged "unavailable" and its method stays
    complete.  A coupling matrix over ``max_matrix_entries`` raises
    ResourceError before any work starts.  Output is deterministic for a
    fixed config, and the config's seed is only a label; the report
    timestamp alone differs between reruns.
    """
    grids = _grids(config, max_matrix_entries)
    reports: list[EdofReport] = []
    evidence: dict[str, Any] = {}
    caught: list[str] = []
    diagnostics: dict[str, Any] = {name: {"flag": "not-applicable"}
                                   for _, name, _ in _STEPS.values()}
    diagnostics.update(method_errors={}, warnings=caught)
    for method in config.methods:
        report, evidence[method], error = _estimate(method, config, grids, caught)
        if error is not None:
            diagnostics["method_errors"][method] = f"{type(error).__name__}: {error}"
            continue
        reports.append(report)
        _, name, check = _STEPS[method]
        flags, error = _step(method, caught, check, config, grids[0], evidence[method])
        if error is not None:
            flags = {"flag": "unavailable", "detail": f"{type(error).__name__}: {error}"}
        diagnostics[name] = flags

    result = ComparisonReport(
        config=config, edof_reports=tuple(reports), spectrum=evidence.get("svd"),
        bandwidth=evidence.get("cutset"), response=evidence.get("landau"),
        diagnostics=diagnostics,
        status="partial" if diagnostics["method_errors"] else "complete")
    if not write:
        return result

    texts: dict[str, str] = {}
    if result.spectrum is not None:
        values = result.spectrum.values.tolist()
        texts["spectrum.csv"] = _csv("index,s_squared,s_squared_normalized",
                                     ((i, v, v / values[0]) for i, v in enumerate(values)))
    texts["edof.csv"] = _csv("method,n_edof,gamma_mode,gamma_value",
                             ((rep.method, rep.n_edof, rep.gamma_mode, rep.gamma_value)
                              for rep in result.edof_reports))
    mapping = {**report_mapping(result), "generated_at": datetime.now(timezone.utc).isoformat()}
    texts["report.json"] = json.dumps(mapping, indent=2, sort_keys=True) + "\n"
    files = _write_files(out_dir if out_dir is not None else config.output_directory, texts)
    return dataclasses.replace(result, output_files=files)


def _shifted_mapping(config: ExperimentConfig, axis: str, value: float,
                     max_matrix_entries: int) -> dict:
    mapping = config.to_mapping()
    if axis == "distance":
        tx_c = np.asarray(mapping["tx"]["center_m"], dtype=float)
        rx_c = np.asarray(mapping["rx"]["center_m"], dtype=float)
        offset = rx_c - tx_c
        norm = float(np.linalg.norm(offset))
        mapping["rx"]["center_m"] = [float(x) for x in tx_c + offset / norm * value]
    elif axis in ("tx_size", "rx_size"):
        key = axis[:2]
        size = mapping[key]["size_m"]
        factor = value / size[0]
        mapping[key]["size_m"] = [value, size[1] * factor]
    elif axis == "wavelength":
        mapping["wave"]["wavelength_m"] = value
    elif axis == "scale_r":
        counts = study_grid_counts(config.tx_surface, config.rx_surface, config.wave,
                                   value, max_matrix_entries)
        for key, grid in zip(("tx", "rx"), counts):
            mapping[key]["size_m"] = [x * value for x in mapping[key]["size_m"]]
            mapping[key]["grid"] = list(grid)
        mapping["methods"] = ["svd"]
    return mapping


def run_sweep(config: ExperimentConfig, axis: str, values,
              out_dir: str | None = None,
              write: bool = True,
              max_matrix_entries: int = DEFAULT_MATRIX_BUDGET) -> SweepResult:
    """Each selected method's estimate per axis value, in one table.

    No cross-check runs.  Failures are recorded (n_edof None, "nan" in the
    CSV) and the sweep continues.  A scale_r point scales both apertures by
    r on the grids of ``study_grid_counts`` and runs the svd estimate only.
    Rows follow the input value order.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    methods = config.methods
    if axis == "scale_r":
        if config.gamma_mode != "relative":
            raise ConfigError("scale_r sweeps report thresholds relative to the "
                              "top mode; set gamma.mode to 'relative'")
        if not all(1.0 <= r < np.inf for r in values):
            raise ConfigError(f"scale_r values must be finite and >= 1, got {values}")
        methods = ("svd",)

    rows: list[dict] = []
    failures: list[str] = []
    for value in values:
        try:
            shifted = config_from_mapping(
                _shifted_mapping(config, axis, value, max_matrix_entries))
            grids = _grids(shifted, max_matrix_entries)
        except Exception as exc:
            failures.append(f"{axis}={value:g}: {type(exc).__name__}: {exc}")
            rows.extend({"axis_value": value, "method": m, "n_edof": None} for m in methods)
            continue
        for method in methods:
            report, _, error = _estimate(method, shifted, grids, [])
            if error is not None:
                failures.append(f"{axis}={value:g} {method}: {type(error).__name__}: {error}")
            rows.append({"axis_value": value, "method": method,
                         "n_edof": None if report is None else report.n_edof})

    result = SweepResult(rows=tuple(rows), failures=tuple(failures))
    if not write:
        return result
    cells = ((row["axis_value"], row["method"], "nan" if row["n_edof"] is None else row["n_edof"])
             for row in rows)
    files = _write_files(out_dir if out_dir is not None else config.output_directory,
                         {"sweep.csv": _csv("axis_value,method,n_edof", cells)})
    return dataclasses.replace(result, output_files=files)
