"""Experiment configuration: JSON loading, validation, and canonical echo."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import ConfigError
from .geometry import (
    ROTATION_TOL,
    PlanarSurface,
    make_surface,
    rotation_about,
    surfaces_intersect,
)
from .kernel import WaveConfig
from .spectrum import GAMMA_MODES as VALID_GAMMA_MODES

VALID_METHODS = ("svd", "cutset", "landau")

_DEFAULTS: dict[str, Any] = {
    "methods": list(VALID_METHODS),
    "gamma": {"mode": "relative", "value": 0.5},
    "output": {"directory": "edof_out"},
    "seed": 0,
}

_TOP_KEYS = ("wave", "tx", "rx", "methods", "gamma", "landau_options", "output", "seed")
_SURFACE_KEYS = ("center_m", "rotation", "size_m", "grid")


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _require_mapping(value: Any, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise _fail(path or "top level", "expected an object")
    for key in value:
        if key not in allowed:
            raise _fail(f"{path}.{key}" if path else key, "unknown key")
    return value


def _number(value: Any, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, "expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise _fail(path, "must be finite")
    if positive and out <= 0:
        raise _fail(path, "must be positive")
    return out


def _integer(value: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise _fail(path, f"must be >= {minimum}")
    return value


def _vector(value: Any, path: str, length: int, positive: bool = False) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise _fail(path, f"expected {length} numbers")
    return [_number(v, f"{path}[{i}]", positive=positive) for i, v in enumerate(value)]


def _rotation_matrix(value: Any, path: str) -> tuple[np.ndarray, Any]:
    """Accept a 3x3 matrix or {"axis", "angle_rad"}; return (matrix, echo form)."""
    if isinstance(value, dict):
        _require_mapping(value, path, ("axis", "angle_rad"))
        if "axis" not in value or "angle_rad" not in value:
            raise _fail(path, "axis-angle form needs both 'axis' and 'angle_rad'")
        axis = _vector(value["axis"], f"{path}.axis", 3)
        angle = _number(value["angle_rad"], f"{path}.angle_rad")
        if not 0.0 < sum(x * x for x in axis) < math.inf:
            raise _fail(f"{path}.axis", "must be nonzero, with a finite squared norm")
        matrix = rotation_about(np.asarray(axis), angle)
        return matrix, {"axis": axis, "angle_rad": angle}
    if isinstance(value, (list, tuple)) and len(value) == 3:
        rows = [_vector(row, f"{path}[{i}]", 3) for i, row in enumerate(value)]
        if max(abs(x) for row in rows for x in row) > 1.0 + ROTATION_TOL:
            raise _fail(path, "entries of a rotation matrix lie in [-1, 1]")
        matrix = np.asarray(rows, dtype=float)
        return matrix, rows
    raise _fail(path, "expected a 3x3 matrix or {'axis', 'angle_rad'}")


def _parse_surface(value: Any, path: str) -> tuple[PlanarSurface, tuple[int, int], dict]:
    _require_mapping(value, path, _SURFACE_KEYS)
    for key in ("center_m", "size_m", "grid"):
        if key not in value:
            raise _fail(f"{path}.{key}", "missing required key")
    center = _vector(value["center_m"], f"{path}.center_m", 3)
    size = _vector(value["size_m"], f"{path}.size_m", 2, positive=True)
    if not math.isfinite(size[0] * size[1]):
        raise _fail(f"{path}.size_m", "area overflows")
    grid_raw = value["grid"]
    if not isinstance(grid_raw, (list, tuple)) or len(grid_raw) != 2:
        raise _fail(f"{path}.grid", "expected 2 integers")
    grid = tuple(_integer(g, f"{path}.grid[{i}]", minimum=1) for i, g in enumerate(grid_raw))
    if "rotation" in value:
        matrix, rotation_echo = _rotation_matrix(value["rotation"], f"{path}.rotation")
    else:
        matrix = np.eye(3)
        rotation_echo = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    try:
        surface = make_surface(np.asarray(center), matrix, size[0], size[1])
    except ValueError as exc:
        raise _fail(f"{path}.rotation", str(exc)) from exc
    echo = {"center_m": center, "rotation": rotation_echo, "size_m": size, "grid": list(grid)}
    return surface, grid, echo


def _choices(value: Any, path: str, valid: tuple[str, ...], kind: str) -> list[str]:
    """A nonempty list of values from ``valid``, duplicates dropped in
    first-seen order."""
    if not isinstance(value, (list, tuple)) or not value:
        raise _fail(path, "expected a nonempty list")
    out: list[str] = []
    for i, x in enumerate(value):
        if x not in valid:
            raise _fail(f"{path}[{i}]", f"unknown {kind} {x!r}")
        if x not in out:
            out.append(x)
    return out


def _parse_pair(value: Any, path: str, item: Callable[[Any, str], Any]) -> Any:
    """A scalar or length-2 list, each entry checked by ``item(value, path)``,
    or None for auto."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise _fail(path, "expected a scalar or 2 values")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    x = item(value, path)
    return (x, x)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description with derived geometry objects.

    The ``seed`` key is a label of the run: it appears in the echo only, and
    no computation reads it.
    """

    wave: WaveConfig
    tx_surface: PlanarSurface
    rx_surface: PlanarSurface
    tx_grid_counts: tuple[int, int]
    rx_grid_counts: tuple[int, int]
    methods: tuple[str, ...]
    gamma_mode: str
    gamma_value: float
    lag_extent: tuple[float, float] | None
    lag_grid: tuple[int, int] | None
    output_directory: str
    resolved: dict = field(repr=False)

    def to_mapping(self) -> dict:
        """Plain-data echo; feeding it back to config_from_mapping reproduces self."""
        return json.loads(json.dumps(self.resolved))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self.to_mapping() == other.to_mapping()


def config_from_mapping(data: Any) -> ExperimentConfig:
    _require_mapping(data, "", _TOP_KEYS)
    for key in ("wave", "tx", "rx"):
        if key not in data:
            raise _fail(key, "missing required key")

    wave_raw = _require_mapping(data["wave"], "wave", ("wavelength_m",))
    if "wavelength_m" not in wave_raw:
        raise _fail("wave.wavelength_m", "missing required key")
    wavelength = _number(wave_raw["wavelength_m"], "wave.wavelength_m", positive=True)
    wave = WaveConfig(wavelength=wavelength)

    tx_surface, tx_grid, tx_echo = _parse_surface(data["tx"], "tx")
    rx_surface, rx_grid, rx_echo = _parse_surface(data["rx"], "rx")
    # kernel distances square the coordinate differences
    offset = [r - t for r, t in zip(rx_echo["center_m"], tx_echo["center_m"])]
    if not math.isfinite(sum(x * x for x in offset)):
        raise ConfigError("rx.center_m: squared offset from tx.center_m overflows")
    if surfaces_intersect(tx_surface, rx_surface):
        raise ConfigError("tx/rx: surfaces intersect")

    methods = _choices(data.get("methods", _DEFAULTS["methods"]), "methods",
                       VALID_METHODS, "method")

    gamma_raw = _require_mapping(data.get("gamma", _DEFAULTS["gamma"]), "gamma", ("mode", "value"))
    gamma_mode = gamma_raw.get("mode", _DEFAULTS["gamma"]["mode"])
    if gamma_mode not in VALID_GAMMA_MODES:
        raise _fail("gamma.mode", f"expected one of {VALID_GAMMA_MODES}")
    gamma_value = _number(gamma_raw.get("value", _DEFAULTS["gamma"]["value"]), "gamma.value")
    if gamma_value < 0:
        raise _fail("gamma.value", "must be >= 0")

    landau_raw = _require_mapping(
        data.get("landau_options", {}), "landau_options", ("lag_extent_m", "lag_grid")
    )
    lag_extent = _parse_pair(landau_raw.get("lag_extent_m"), "landau_options.lag_extent_m",
                             lambda x, path: _number(x, path, positive=True))
    lag_grid = _parse_pair(landau_raw.get("lag_grid"), "landau_options.lag_grid",
                           lambda x, path: _integer(x, path, minimum=3))

    output_raw = _require_mapping(data.get("output", _DEFAULTS["output"]), "output", ("directory",))
    directory = output_raw.get("directory", _DEFAULTS["output"]["directory"])
    if not isinstance(directory, str) or not directory:
        raise _fail("output.directory", "expected a nonempty string")

    resolved = {
        "wave": {"wavelength_m": wavelength},
        "tx": tx_echo,
        "rx": rx_echo,
        "methods": methods,
        "gamma": {"mode": gamma_mode, "value": gamma_value},
        "landau_options": {
            "lag_extent_m": list(lag_extent) if lag_extent is not None else None,
            "lag_grid": list(lag_grid) if lag_grid is not None else None,
        },
        "output": {"directory": directory},
        "seed": _integer(data.get("seed", _DEFAULTS["seed"]), "seed"),
    }
    return ExperimentConfig(
        wave=wave,
        tx_surface=tx_surface,
        rx_surface=rx_surface,
        tx_grid_counts=tuple(tx_grid),
        rx_grid_counts=tuple(rx_grid),
        methods=tuple(methods),
        gamma_mode=gamma_mode,
        gamma_value=gamma_value,
        lag_extent=lag_extent,
        lag_grid=lag_grid,
        output_directory=directory,
        resolved=resolved,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON config file, validate it, and fill defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file cannot be read: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_mapping(data)
