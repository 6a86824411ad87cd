"""Outside-in span tracer for the ``hinterland`` package.

``Tracer.install`` replaces every public function of every ``hinterland``
module with a timing wrapper, at every module that binds it (so
``hinterland.equilibrium.assign_labels`` is wrapped as well as
``hinterland.geometry.assign_labels``). Each call records a span
``[name, parent, start_ns, end_ns, error, attr]`` in memory; ``uninstall``
restores the originals. The package itself is not modified on disk.

``layer_metrics`` reduces the spans to the per-layer metrics of the
benchmark. A function that is never called reports zero calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import statistics
import time

NAME, PARENT, START, END, ERROR, ATTR = range(6)
ROOT = -1


def _cells(args, kwargs, result):
    return result.n_sites * result.labels.size


def _market_iterations(args, kwargs, result):
    return result.iterations


def _exited_feasible(args, kwargs, result):
    return bool(result.exited_feasible)


def _written_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# values recorded on a span when the call returns normally
_HOOKS = {
    "geometry.assign_labels": _cells,
    "equilibrium.market_equilibrium_solve": _market_iterations,
    "equilibrium.fixed_point_solve": _exited_feasible,
    "equilibrium.solve_knife_edge_system": _exited_feasible,
}


def _hook_for(name: str):
    if name.startswith("io_formats.write_"):
        return _written_bytes
    return _HOOKS.get(name)


class Tracer:
    """Collects spans from wrapped package functions, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else ROOT
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter_ns(), 0, None,
                           None])
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[ERROR] = error
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = _hook_for(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, error=type(exc).__name__)
                raise
            tracer.close(index)
            if hook is not None:
                tracer.spans[index][ATTR] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "hinterland") -> None:
        """Wrap each public package function at every binding site."""
        root = importlib.import_module(package)
        modules = [root] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith(package + ".")):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__[len(package) + 1:]
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}",
                                                   obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (times in ns from the first span)."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end, error, attr) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "parent": parent, "start": start - t0,
                                     "end": end - t0, "error": error,
                                     "attr": attr}) + "\n")


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

def _durations(spans, name):
    return [(s[END] - s[START]) / 1e9 for s in spans if s[NAME] == name]


def _self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] != ROOT:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) / 1e9 for s, c in zip(spans, child)]


def _busy(spans, name):
    """Inclusive time of outermost spans of ``name`` (recursion counted once)."""
    total = 0
    for s in spans:
        if s[NAME] != name:
            continue
        parent = s[PARENT]
        while parent != ROOT and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent == ROOT:
            total += s[END] - s[START]
    return total / 1e9


def _p50_us(durations):
    return statistics.median(durations) * 1e6 if durations else 0.0


SOLVERS = ("equilibrium.fixed_point_solve",
           "equilibrium.solve_knife_edge_system")
MAP = "equilibrium.transformed_weight_map"


_UNIT_SUFFIXES = ((".busy_s", "s"), (".self_s", "s"), (".p50_us", "us"),
                  (".bytes", "bytes"), ("_ratio", "ratio"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric; everything not timed or a ratio counts."""
    for suffix, unit in _UNIT_SUFFIXES:
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> value) from a list of spans."""
    selfs = _self_times(spans)
    m: dict[str, float] = {}

    def calls(name):
        m[f"{name}.calls"] = sum(1 for s in spans if s[NAME] == name)

    def self_s(name):
        m[f"{name}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                  if s[NAME] == name)

    for name in ("geometry.assign_labels", "integrals.aggregate_amenities",
                 "equilibrium.market_equilibrium_solve"):
        calls(name)
        m[f"{name}.busy_s"] = _busy(spans, name)
        m[f"{name}.p50_us"] = _p50_us(_durations(spans, name))
    m["geometry.assign_labels.cells"] = sum(
        s[ATTR] or 0 for s in spans if s[NAME] == "geometry.assign_labels")
    m["equilibrium.market_equilibrium_solve.iterations"] = sum(
        s[ATTR] or 0 for s in spans
        if s[NAME] == "equilibrium.market_equilibrium_solve")

    for name in ("integrals.resident_density",
                 "sustainability.sustainability_check", "config.load_config"):
        calls(name)
        m[f"{name}.busy_s"] = _busy(spans, name)

    calls(MAP)
    self_s(MAP)
    m[f"{MAP}.p50_us"] = _p50_us(_durations(spans, MAP))

    # map evaluations attributed to the nearest enclosing solver span
    evals = {i: 0 for i, s in enumerate(spans) if s[NAME] in SOLVERS}
    for i, s in enumerate(spans):
        if s[NAME] != MAP:
            continue
        parent = s[PARENT]
        while parent != ROOT and spans[parent][NAME] not in SOLVERS:
            parent = spans[parent][PARENT]
        if parent != ROOT:
            evals[parent] += 1
    for name in SOLVERS:
        calls(name)
        self_s(name)
        m[f"{name}.map_evals"] = sum(n for i, n in evals.items()
                                     if spans[i][NAME] == name)
    wasted = sum(n for i, n in evals.items() if spans[i][ERROR] is not None)
    total_evals = m[f"{MAP}.calls"]
    m["equilibrium.wasted_map_eval_ratio"] = (wasted / total_evals
                                              if total_evals else 0.0)
    for error in ("NotConverged", "LeftFeasibleSet"):
        m[f"equilibrium.fail.{error}"] = sum(
            1 for i in evals if spans[i][ERROR] == error)
    m["equilibrium.reprojections"] = sum(
        1 for i in evals if spans[i][ATTR] is True)

    calls("analysis.multistart_probe")
    self_s("analysis.multistart_probe")

    writes = [s for s in spans if s[NAME].startswith("io_formats.write_")]
    m["io_formats.write.calls"] = len(writes)
    m["io_formats.write.busy_s"] = sum(s[END] - s[START] for s in writes) / 1e9
    m["io_formats.write.bytes"] = sum(s[ATTR] or 0 for s in writes)

    # time inside the CLI layer that no other layer's span covers
    m["cli.main.self_s"] = sum(t for s, t in zip(spans, selfs)
                               if s[NAME].startswith("cli."))
    return m


SHARES = {"labeling": "geometry.assign_labels",
          "aggregation": "integrals.aggregate_amenities",
          "market": "equilibrium.market_equilibrium_solve"}


def layer_shares(spans) -> dict:
    """Share of traced operation time (root spans) spent in SHARES layers."""
    total = sum(s[END] - s[START] for s in spans if s[PARENT] == ROOT) / 1e9
    return {key: _busy(spans, name) / total if total else 0.0
            for key, name in SHARES.items()}
