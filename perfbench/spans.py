"""Span recorder for the traced benchmark run.

The recorder wraps public edof functions from outside the package: while
``Tracer.installed`` is active, every name under which the harness or the
benchmark looks one of the TRACED functions up (in the package namespace
and in each module that imports it) points to a wrapper that records one
span per call.  A span holds its name, start, end, parent span and run id;
spans stay in memory until the benchmark writes them out.  Leaving the
context restores the original functions, so untraced runs call edof
exactly as a user does.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# Layer functions, named "<module>.<function>" after the module defining them.
TRACED = (
    "experiment.run_experiment",
    "experiment.run_sweep",
    "config.config_from_mapping",
    "geometry.discretize",
    "kernel.assemble_operator",
    "kernel.adjoint_identity_residual",
    "kernel.hilbert_schmidt_norm",
    "spectrum.coupling_spectrum",
    "cutset.bandwidth_field",
    "cutset.set_measure_bandwidth",
    "landau.wavenumber_response",
    "landau.stationarity_check",
    "landau.polarization_study",
)

# Namespaces the traced functions are looked up in.
LOOKUP_MODULES = ("edof", "edof.experiment", "edof.landau", "edof.cutset",
                  "edof.kernel", "edof.spectrum", "edof.geometry", "edof.config")


def _response_work(args, result):
    lags = result.H_values.size
    return {"lags": lags, "pairs": lags * len(args["tx_grid"])}


def _spectrum_work(args, result):
    return {"entries": args["operator"].matrix.size}


def _assembly_work(args, result):
    return {"entries": result.matrix.size, "bytes": result.matrix.nbytes}


def _field_work(args, result):
    return {"pairs": len(args["tx_grid"]) * len(args["rx_grid"])}


# Work done per call, counted from the call's arguments and result.
WORK = {
    "landau.wavenumber_response": (("lags", "pairs"), _response_work),
    "spectrum.coupling_spectrum": (("entries",), _spectrum_work),
    "kernel.assemble_operator": (("entries", "bytes"), _assembly_work),
    "cutset.bandwidth_field": (("pairs",), _field_work),
}
# The count reported also per second spent in the function.
RATES = {
    "landau.wavenumber_response": "pairs",
    "kernel.assemble_operator": "entries",
    "cutset.bandwidth_field": "pairs",
}


class Tracer:
    """Records spans and work counts of the TRACED functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.work = {name: dict.fromkeys(keys, 0) for name, (keys, _) in WORK.items()}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._run_id = None

    def _wrap(self, name, fn):
        counter = WORK.get(name, (None, None))[1]
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self._run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                totals = self.work[name]
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    totals[key] += int(value)
            return result

        wrapper.bench_span = name
        return wrapper

    @contextmanager
    def installed(self, run_id: str):
        """Swap wrappers in for the TRACED functions; restore them on exit.

        A function its module no longer defines is listed in ``absent``
        and left untraced.
        """
        wrappers = {}
        for name in TRACED:
            module, func = name.split(".")
            fn = getattr(sys.modules.get(f"edof.{module}"), func, None)
            if fn is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        patched = []
        for module_name in LOOKUP_MODULES:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        self._run_id = run_id
        try:
            yield self
        finally:
            self._run_id = None
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)


def installed_wrappers() -> list[str]:
    """Names in the lookup namespaces that currently hold a span wrapper."""
    found = []
    for module_name in LOOKUP_MODULES:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        for attr, value in vars(module).items():
            if getattr(value, "bench_span", None) is not None:
                found.append(f"{module_name}.{attr}")
    return found


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - c for span, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """``<module>.<function>.<quantity>`` for every TRACED function.

    Quantities: ``calls``, ``self_s``, each work count and, where RATES names
    one, that count per second spent in the function.  A function that was
    never called, or is absent, reads 0 throughout.
    """
    selfs = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in TRACED:
        mine = [i for i, span in enumerate(tracer.spans) if span["name"] == name]
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.self_s"] = sum(selfs[i] for i in mine)
        out.update({f"{name}.{key}": total
                    for key, total in tracer.work.get(name, {}).items()})
        if name in RATES:
            busy = sum(tracer.spans[i]["end"] - tracer.spans[i]["start"] for i in mine)
            work = tracer.work[name][RATES[name]]
            out[f"{name}.{RATES[name]}_per_s"] = work / busy if busy > 0 else 0.0
    return out
