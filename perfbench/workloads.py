"""Workload scenes of the edof benchmark and the checks on their outputs.

Every workload is built on the README reference scene: two parallel 0.5 m
square apertures 10 m apart at a wavelength of 1 cm.  Seed 0 runs that scene
exactly and its outputs are compared with recorded values.  Any other seed
scales the transmit aperture and every distance by one common factor and the
receive aperture by another, each within JITTER of 1.  Distance and transmit
size move together so that the automatic Landau lag grid, whose size follows
distance / transmit size, does the same amount of work on every seed; grid
counts are fixed, so no seed changes the cost of the other layers either.
Outputs of jittered scenes are checked by invariants instead of values.

This module imports neither numpy nor edof: the worker builds the workload
before it starts timing the import of edof.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

WORKLOADS = ("reference", "distance_sweep", "scale_r", "cutset_wide")

WAVELENGTH_M = 0.01
APERTURE_M = 0.5
DISTANCE_M = 10.0
JITTER = 0.03
# Grid of the miniature workloads that warm up the worker and run the tests.
MINI_GRID = 8

# Relative tolerance for comparing a seed-0 output with its recorded value.
VALUE_RTOL = 1e-9
# Criterion 3 of the acceptance gate: cut-set and Landau counts of one scene
# agree within this fraction of the smaller one.
BAND = 0.20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a config mapping and the API call made on it.

    ``expected`` holds the recorded seed-0 outputs, one list per method in
    row order: ``svd`` counts match exactly, ``cutset`` and ``landau`` values
    to VALUE_RTOL.  A method missing from it is checked by invariants only.
    """

    name: str
    mapping: dict
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    max_matrix_entries: int | None = None
    write: bool = False
    expected: dict = dataclasses.field(default_factory=dict)


def _scene(grid, tx_scale, rx_scale, seed, **extra):
    tx_size = APERTURE_M * tx_scale
    rx_size = APERTURE_M * rx_scale
    mapping = {
        "wave": {"wavelength_m": WAVELENGTH_M},
        "tx": {"center_m": [0.0, 0.0, 0.0], "size_m": [tx_size, tx_size],
               "grid": [grid, grid]},
        "rx": {"center_m": [0.0, 0.0, DISTANCE_M * tx_scale],
               "size_m": [rx_size, rx_size], "grid": [grid, grid]},
        "seed": seed,
    }
    mapping.update(extra)
    return mapping


def make_workload(name: str, seed: int, grid: int | None = None) -> Workload:
    """The named workload for ``seed``; ``grid`` shrinks every grid for tests.

    Recorded values belong to the full-size seed-0 scenes, so a workload
    built with another seed or a ``grid`` override carries none.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if seed == 0:
        tx_scale = rx_scale = 1.0
    else:
        rng = random.Random(seed)
        tx_scale = 1.0 + rng.uniform(-JITTER, JITTER)
        rx_scale = 1.0 + rng.uniform(-JITTER, JITTER)
    recorded = seed == 0 and grid is None

    if name == "reference":
        work = Workload(
            name, _scene(grid or 40, tx_scale, rx_scale, seed,
                         gamma={"mode": "relative", "value": 0.5},
                         landau_options={"lag_grid": 141, "lag_extent_m": 6.3}),
            write=True,
            expected={"svd": [4], "cutset": [6.239611892965018],
                      "landau": [6.053162005542919]})
    elif name == "distance_sweep":
        work = Workload(
            name, _scene(grid or 24, tx_scale, rx_scale, seed),
            sweep_axis="distance",
            sweep_values=tuple(d * tx_scale for d in (2.0, 3.0, 4.0)),
            # Landau values here come from the automatic lag grid, whose
            # sizing is meant to change; they are held to the band only.
            expected={"svd": [144, 64, 36],
                      "cutset": [150.0757248518922, 68.19011622496774,
                                 38.66160710141463]})
    elif name == "scale_r":
        work = Workload(
            name, _scene(grid or 40, tx_scale, rx_scale, seed),
            sweep_axis="scale_r", sweep_values=(1.0, 2.0),
            # The budget shrinks both scales to 44 x 44 grids; the miniature
            # keeps 25 x 25, still enough to resolve the r = 2 spectrum.
            max_matrix_entries=4_000_000 if grid is None else 400_000,
            expected={"svd": [4, 99]})
    else:
        work = Workload(
            name, _scene(grid or 80, tx_scale, rx_scale, seed, methods=["cutset"]),
            expected={"cutset": [6.239607034452382]})
    return work if recorded else dataclasses.replace(work, expected={})


def check(work: Workload, rows: list[dict], svd_ranks: list[int]) -> list[str]:
    """Problems found in one run's output rows; an empty list means correct.

    ``rows`` are ``{"axis_value", "method", "n_edof"}`` in output order
    (``axis_value`` None for a single run) and ``svd_ranks`` bounds each svd
    row's count by the rank its grids allow.
    """
    missing = [row for row in rows if row["n_edof"] is None]
    if missing:
        return [f"{row['method']}: no value at {row['axis_value']}" for row in missing]
    problems = []
    by_method: dict[str, list] = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row["n_edof"])
    for method, want in work.expected.items():
        got = by_method.get(method, [])
        if len(got) != len(want):
            problems.append(f"{method}: {len(got)} rows, expected {len(want)}")
            continue
        for value, ref in zip(got, want):
            ok = (value == ref if method == "svd"
                  else math.isclose(value, ref, rel_tol=VALUE_RTOL))
            if not ok:
                problems.append(f"{method}: got {value!r}, recorded {ref!r}")
    for count, rank in zip(by_method.get("svd", []), svd_ranks):
        if not 0 <= count <= rank:
            problems.append(f"svd: count {count} outside [0, rank {rank}]")
    for cut, lan in zip(by_method.get("cutset", []), by_method.get("landau", [])):
        if not abs(cut - lan) <= BAND * min(cut, lan):
            problems.append(f"cutset {cut!r} and landau {lan!r} differ by more "
                            f"than {BAND:.0%} of the smaller")
    return problems
