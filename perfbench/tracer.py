"""Span tracing from outside the program, by wrapping its public functions.

A `Tracer` replaces each layer function at every binding site: every
attribute of every loaded ``nctheta`` module that holds the function, and
every value of a module-level dict that holds it (``report._SUITE_FUNCS``
dispatches the suites that way).  Each call records one span: name id,
parent span, op id, start and end.  Spans stay in memory, in ``array``
buffers, and are written once, by `dump`, when the traced work ends.
`summarize` turns span files into per-layer calls and self time.

The program is serial, so spans nest strictly and self time (a span's
duration minus the time its child spans cover) is busy time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# Layer functions, as "<module>.<function>" with the module relative to the
# ``nctheta`` package.  The suite functions are added by `Tracer.install`.
LAYER_FUNCTIONS = (
    "config.load_config",
    "report.run_suite",
    "report.write_report",
    "embedding.cocycle_identity_max_residual",
    "embedding.enumerate_indices",
    "embedding.lattice_element",
    "special.jacobi_theta",
    "special.mode_factor",
    "special.gaussian_quadrature_oracle",
    "special.gaussian_quadrature_oracle_2d",
    "heisenberg.apply_pi",
    "structures.holomorphic_feasibility",
    "qtheta.inner_product_closed",
    "qtheta.inner_product_oracle",
    "qtheta.quantum_theta_series",
    "qtheta.series_tail_bound",
    "qtheta.verify_functional_equation",
    "qtheta.verify_consistency_condition",
    "qtheta.additivity_gap",
    "export.export_coefficients",
    "export.load_series",
)

FE_NAME = "qtheta.verify_functional_equation"
ROOT_NAME = "op"


def _file_size(path) -> int:
    return Path(path).stat().st_size


# Counters taken at the layer boundary: (before call, after call).  Each
# receives the counters dict, the call arguments and (after) the result.
def _count_written(counters, args, kwargs, result):
    counters["export.bytes_written"] += _file_size(result)


def _count_read(counters, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counters["export.bytes_read"] += _file_size(path)


def _count_checks(counters, args, kwargs, result):
    summary = result.summary()
    counters["report.checks"] += summary["checks"]
    counters["report.checks_failed"] += summary["failed"]


def _count_coefficients(counters, args, kwargs, result):
    counters["qtheta.coefficients"] += len(result.coefficients)


def _count_fe_residuals(counters, args, kwargs, result):
    counters["qtheta.fe_residuals"] += len(result.residuals)


HOOKS = {
    "export.export_coefficients": (None, _count_written),
    "export.load_series": (_count_read, None),
    "report.run_suite": (None, _count_checks),
    "qtheta.quantum_theta_series": (None, _count_coefficients),
    "qtheta.verify_functional_equation": (None, _count_fe_residuals),
}
COUNTERS = ("export.bytes_written", "export.bytes_read", "report.checks",
            "report.checks_failed", "qtheta.coefficients", "qtheta.fe_residuals")


def _program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nctheta" or name.startswith("nctheta."))]


class Tracer:
    """Wraps the layer functions of an already imported ``nctheta``."""

    def __init__(self):
        self.names: list[str] = [ROOT_NAME]
        self.op = -1
        self._originals: dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (the wrappers stay installed)."""
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, nid: int, fn, pre, post):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(tracer.counters, args, kwargs)
            stack = tracer._stack
            starts = tracer.starts
            i = len(starts)
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1])
            tracer.ops.append(tracer.op)
            tracer.ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = clock()
                stack.pop()
            if post is not None:
                post(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function of the loaded modules at every binding site."""
        modules = {m.__name__: m for m in _program_modules()}
        targets = {}
        for qual in LAYER_FUNCTIONS:
            mod, fn_name = qual.rsplit(".", 1)
            if "nctheta." + mod in modules:
                targets[qual] = getattr(modules["nctheta." + mod], fn_name)
        if "nctheta.report" in modules:
            for suite, fn in modules["nctheta.report"]._SUITE_FUNCS.items():
                targets[f"report.suite.{suite}"] = fn

        wrappers = {}
        for qual, fn in targets.items():
            nid = len(self.names)
            self.names.append(qual)
            pre, post = HOOKS.get(qual, (None, None))
            wrappers[id(fn)] = self._wrap(nid, fn, pre, post)
            self._originals[qual] = fn

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]

    def unwrapped_bindings(self) -> list[str]:
        """Binding sites that still hold an original layer function."""
        originals = {id(fn): qual for qual, fn in self._originals.items()}
        left = []
        for mod in _program_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    left.append(f"{mod.__name__}.{attr} ({originals[id(value)]})")
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in originals:
                            left.append(f"{mod.__name__}.{attr}[{key!r}]"
                                        f" ({originals[id(item)]})")
        return left

    @contextmanager
    def root(self, op: int):
        """Root span of one op; layer spans opened inside it are its children."""
        self.op = op
        i = len(self.starts)
        self.name_ids.append(0)
        self.parents.append(-1)
        self.ops.append(op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()
            self.op = -1

    def dump(self, path) -> None:
        """Write the spans and counters as one ``.npz`` file."""
        import numpy as np

        np.savez(path,
                 names=np.array(self.names),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 ops=np.frombuffer(self.ops, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64),
                 counters=np.array(json.dumps(self.counters, sort_keys=True)))


def summarize(paths) -> dict:
    """Per-layer totals over span files: calls, self and total seconds, counters.

    Returns ``{"layers": {name: {"calls", "self_s", "total_s"}},
    "counters": {...}, "spans": n, "fe_jacobi_calls": n}`` where
    ``fe_jacobi_calls`` counts ``special.jacobi_theta`` spans that have a
    functional-equation span among their ancestors.
    """
    import numpy as np

    layers: dict[str, dict] = {}
    counters = dict.fromkeys(COUNTERS, 0)
    spans = 0
    fe_jacobi = 0
    for path in paths:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            nid = data["name_ids"]
            parents = data["parents"].astype(np.int64)
            dur = data["ends"] - data["starts"]
            for key, value in json.loads(str(data["counters"])).items():
                counters[key] = counters.get(key, 0) + value
        n = len(nid)
        spans += n
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        calls = np.bincount(nid, minlength=len(names))
        self_by = np.bincount(nid, weights=self_time, minlength=len(names))
        total_by = np.bincount(nid, weights=dur, minlength=len(names))
        for j, name in enumerate(names):
            row = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += int(calls[j])
            row["self_s"] += float(self_by[j])
            row["total_s"] += float(total_by[j])
        if FE_NAME in names and "special.jacobi_theta" in names:
            # Parents precede children, so repeated parent lookups reach a
            # fixed point within the nesting depth.
            under = nid == names.index(FE_NAME)
            safe_parent = np.where(has_parent, parents, 0)
            while True:
                spread = under | (has_parent & under[safe_parent])
                if np.array_equal(spread, under):
                    break
                under = spread
            fe_jacobi += int(np.count_nonzero(
                under & (nid == names.index("special.jacobi_theta"))))
    return {"layers": layers, "counters": counters, "spans": spans,
            "fe_jacobi_calls": fe_jacobi}
