"""Config parsing, validation paths, and round-tripping."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edof.config import ExperimentConfig, config_from_mapping, load_config
from edof.errors import ConfigError

MINIMAL = {
    "wave": {"wavelength_m": 0.01},
    "tx": {"center_m": [0.0, 0.0, 0.0], "size_m": [0.5, 0.5], "grid": [40, 40]},
    "rx": {"center_m": [0.0, 0.0, 10.0], "size_m": [0.5, 0.5], "grid": [40, 40]},
}


def _mapping(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return data


def test_minimal_mapping_fills_defaults():
    cfg = config_from_mapping(_mapping())
    assert cfg.methods == ("svd", "cutset", "landau")
    assert cfg.gamma_mode == "relative"
    assert cfg.gamma_value == 0.5
    assert cfg.lag_extent is None and cfg.lag_grid is None
    assert cfg.output_directory == "edof_out"
    assert cfg.output_formats == ("csv", "json")
    assert cfg.to_mapping()["seed"] == 0
    assert cfg.tx_grid_counts == (40, 40)
    assert cfg.wave.wavelength == 0.01
    # identity rotation is echoed explicitly
    assert cfg.to_mapping()["tx"]["rotation"] == [[1.0, 0.0, 0.0],
                                                  [0.0, 1.0, 0.0],
                                                  [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("wave"), "wave: missing required key"),
    (lambda d: d["wave"].pop("wavelength_m"), "wave.wavelength_m"),
    (lambda d: d["wave"].update(wavelength_m=-0.01), "wave.wavelength_m: must be positive"),
    (lambda d: d["wave"].update(wavelength_m="x"), "wave.wavelength_m: expected a number"),
    (lambda d: d["tx"].update(polarisation="linear"), "tx.polarisation: unknown key"),
    (lambda d: d["tx"].pop("size_m"), "tx.size_m: missing required key"),
    (lambda d: d["tx"].update(size_m=[0.5]), "tx.size_m: expected 2 numbers"),
    (lambda d: d["tx"].update(size_m=[0.5, 0.0]), "tx.size_m[1]: must be positive"),
    (lambda d: d["rx"].update(center_m=[0.0, 0.0]), "rx.center_m: expected 3 numbers"),
    (lambda d: d["rx"].update(grid=[10, 10, 10]), "rx.grid: expected 2 integers"),
    (lambda d: d["rx"].update(center_m=[0.0, 0.0, 1e308]), "rx.center_m: squared offset"),
    (lambda d: d["rx"].update(center_m=[1e308, 0.0, 10.0]),
     "rx.center_m: squared offset from tx.center_m overflows"),
    (lambda d: d["rx"].update(size_m=[1e308, 1e308]), "rx.size_m: area overflows"),
    (lambda d: d["tx"].update(rotation=[[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     "tx.rotation: entries of a rotation matrix lie in"),
    (lambda d: d["tx"].update(rotation={"axis": [1e308, 1.0, 0.0], "angle_rad": 0.1}),
     "tx.rotation.axis: must be nonzero"),
    (lambda d: d["rx"].update(grid=[10, 0]), "rx.grid[1]: must be >= 1"),
    (lambda d: d["rx"].update(grid=[10, 2.5]), "rx.grid[1]: expected an integer"),
    (lambda d: d.update(methods=[]), "methods: expected a nonempty list"),
    (lambda d: d.update(methods=["svd", "qr"]), "methods[1]: unknown method"),
    (lambda d: d.update(gamma={"mode": "median"}), "gamma.mode"),
    (lambda d: d.update(gamma={"value": -0.5}), "gamma.value: must be >= 0"),
    (lambda d: d.update(landau_options={"scales": [1.0, 2.0]}),
     "landau_options.scales: unknown"),
    (lambda d: d.update(landau_options={"lag_grid": 2}),
     "landau_options.lag_grid: must be >= 3"),
    (lambda d: d.update(landau_options={"lag_extent_m": [1.0, 2.0, 3.0]}),
     "landau_options.lag_extent_m: expected a scalar or 2 values"),
    (lambda d: d.update(landau_options={"lag_extent_m": -1.0}),
     "landau_options.lag_extent_m: must be positive"),
    (lambda d: d.update(output={"directory": ""}),
     "output.directory: expected a nonempty string"),
    (lambda d: d.update(output={"formats": []}),
     "output.formats: expected a nonempty list"),
    (lambda d: d.update(output={"formats": ["csv", "yaml"]}),
     "output.formats[1]: unknown format"),
    (lambda d: d.update(seed=1.5), "seed: expected an integer"),
    (lambda d: d.update(seed=True), "seed: expected an integer"),
    (lambda d: d.update(comment="hi"), "comment: unknown key"),
])
def test_validation_error_names_the_field(mutate, fragment):
    data = _mapping()
    mutate(data)
    with pytest.raises(ConfigError, match=fragment.replace("[", r"\[").replace("]", r"\]")):
        config_from_mapping(data)


def test_non_mapping_input_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping([1, 2, 3])


def test_intersecting_surfaces_rejected():
    data = _mapping()
    data["rx"]["center_m"] = [0.2, 0.0, 0.0]
    with pytest.raises(ConfigError, match="surfaces intersect"):
        config_from_mapping(data)


def test_rotation_axis_angle_form():
    data = _mapping()
    data["rx"]["rotation"] = {"axis": [0.0, 1.0, 0.0], "angle_rad": np.pi}
    cfg = config_from_mapping(data)
    # half turn about y flips the receive normal toward the transmitter
    assert np.allclose(cfg.rx_surface.normal, [0.0, 0.0, -1.0], atol=1e-12)
    assert cfg.to_mapping()["rx"]["rotation"] == {"axis": [0.0, 1.0, 0.0],
                                                  "angle_rad": np.pi}


def test_rotation_matrix_form():
    data = _mapping()
    rot = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    data["tx"]["rotation"] = rot
    cfg = config_from_mapping(data)
    assert np.allclose(cfg.tx_surface.tangent_u, [0.0, 1.0, 0.0], atol=1e-12)
    assert cfg.to_mapping()["tx"]["rotation"] == rot


def test_rotation_rejects_reflection_and_garbage():
    data = _mapping()
    data["tx"]["rotation"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]
    with pytest.raises(ConfigError, match="tx.rotation"):
        config_from_mapping(data)
    data = _mapping()
    data["tx"]["rotation"] = {"axis": [0.0, 0.0, 0.0], "angle_rad": 1.0}
    with pytest.raises(ConfigError, match="tx.rotation.axis"):
        config_from_mapping(data)
    data = _mapping()
    data["tx"]["rotation"] = "none"
    with pytest.raises(ConfigError, match="tx.rotation"):
        config_from_mapping(data)
    data = _mapping()
    data["tx"]["rotation"] = {"axis": [0.0, 0.0, 1.0]}
    with pytest.raises(ConfigError, match="needs both"):
        config_from_mapping(data)


def test_methods_deduplicated_in_order():
    cfg = config_from_mapping(_mapping(methods=["landau", "svd", "landau"]))
    assert cfg.methods == ("landau", "svd")


def test_formats_deduplicated_in_order():
    cfg = config_from_mapping(_mapping(output={"formats": ["json", "csv", "json"]}))
    assert cfg.output_formats == ("json", "csv")


def test_lag_options_scalar_and_pair_forms():
    cfg = config_from_mapping(_mapping(
        landau_options={"lag_grid": 141, "lag_extent_m": [6.3, 3.15]}))
    assert cfg.lag_grid == (141, 141)
    assert cfg.lag_extent == (6.3, 3.15)
    echo = cfg.to_mapping()["landau_options"]
    assert echo["lag_grid"] == [141, 141]
    assert echo["lag_extent_m"] == [6.3, 3.15]


def test_round_trip_preserves_equality():
    cfg = config_from_mapping(_mapping(
        methods=["svd", "cutset"],
        gamma={"mode": "absolute", "value": 2.0},
        landau_options={"lag_grid": [15, 21]},
        output={"directory": "out", "formats": ["json"]},
        seed=42,
    ))
    again = config_from_mapping(cfg.to_mapping())
    assert again == cfg
    assert config_from_mapping(_mapping()) != cfg
    assert cfg.__eq__(42) is NotImplemented


def test_config_is_frozen():
    cfg = config_from_mapping(_mapping())
    with pytest.raises(AttributeError):
        cfg.gamma_value = 0.9


def test_load_config_reads_json_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_mapping(seed=7)))
    cfg = load_config(str(path))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.to_mapping()["seed"] == 7


def test_load_config_wraps_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot be read"):
        load_config(str(tmp_path))          # a directory
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"wave": "\xe9"}')  # not UTF-8
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(latin))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)   # nested past the parser's stack
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(deep))


def test_top_level_value_must_be_an_object():
    with pytest.raises(ConfigError, match="^top level: expected an object$"):
        config_from_mapping([1, 2])


# every key the parser reads, with both rotation forms
FULL = {
    "wave": {"wavelength_m": 0.01},
    "tx": {"center_m": [0.0, 0.0, 0.0], "size_m": [0.5, 0.4], "grid": [8, 6],
           "rotation": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
    "rx": {"center_m": [0.1, 0.0, 10.0], "size_m": [0.3, 0.5], "grid": [5, 7],
           "rotation": {"axis": [0.0, 1.0, 0.0], "angle_rad": 0.2}},
    "methods": ["svd", "cutset", "landau"],
    "gamma": {"mode": "relative", "value": 0.5},
    "landau_options": {"lag_extent_m": [6.3, 3.15], "lag_grid": [15, 21]},
    "output": {"directory": "out", "formats": ["csv", "json"]},
    "seed": 3,
}
DELETE = object()
BAD_VALUES = ["x", "", None, True, False, {}, [], float("nan"), float("inf"),
              -float("inf"), 0, 0.0, -1, -2.5, 1e308, [1.0], [1.0, 2.0, 3.0, 4.0],
              [[1.0, 0.0], [0.0, 1.0]], DELETE]


def _paths(node, prefix=()):
    """Index paths to every key and list element of a nested mapping."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@settings(max_examples=1000)
@given(path=st.sampled_from(list(_paths(FULL))), bad=st.sampled_from(BAD_VALUES))
def test_config_fuzz_raises_only_config_error(path, bad):
    """A wrong type, non-finite, zero or negative value, wrong-length list or
    missing entry anywhere is either accepted or a ConfigError."""
    data = copy.deepcopy(FULL)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if bad is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(bad)
    try:
        cfg = config_from_mapping(data)
    except ConfigError:
        return
    assert config_from_mapping(cfg.to_mapping()) == cfg
