"""Per-layer tracing for the trialscope benchmark, applied from outside the
package.

``traced(tracer)`` wraps every public module-level function of the layer
modules in a timing span and restores the original functions on exit.  The
wrapper replaces *every* binding of a function in the ``trialscope.*``
module namespaces, so names imported with ``from .x import y`` (for example
``cli.build_design`` or ``decompose.fit_logit``) are traced too.  Module
objects are never rebound: ``trialscope.decompose`` stays the module even
though it holds a function of the same name.

Spans are kept in flat arrays while the traced code runs and written out
afterwards with ``Tracer.write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "simulate", "registry", "pz", "density", "discontinuity",
    "linker", "selection", "decompose", "svg",
)

SPAN_COLUMNS = ("run_id", "span_id", "parent_id", "name", "start_s", "end_s",
                "rows_in", "rows_out", "error")


class _Span:
    """One open span; the caller may set ``rows_out`` before it closes."""

    __slots__ = ("tracer", "name", "rows_in", "rows_out", "span_id", "parent_id",
                 "start", "child_s")

    def __init__(self, tracer: "Tracer", name: str, rows_in: int, rows_out: int):
        self.tracer, self.name = tracer, name
        self.rows_in, self.rows_out = rows_in, rows_out

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.span_id = t._next_id
        t._next_id += 1
        self.parent_id = t._stack[-1].span_id if t._stack else -1
        self.child_s = 0.0
        t._stack.append(self)
        self.start = t.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self.tracer
        end = t.clock()
        t._stack.pop()
        t._record(self, end, exc_type is not None)
        return False


class Tracer:
    """Collects spans (name, start, end, parent, run id) and per-name totals.

    ``stats[name]`` holds ``[calls, busy_s, self_s, errors, rows_out]``, where
    self time is a span's duration minus the time its child spans cover.
    ``top_level_s`` sums the spans that have no parent.
    """

    def __init__(self, run_id: str = "run", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.origin = clock()
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.top_level_s = 0.0
        self._stack: list[_Span] = []
        self._next_id = 0
        self._names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self._id, self._parent, self._name = array("q"), array("q"), array("l")
        self._start, self._end = array("d"), array("d")
        self._rows_in, self._rows_out = array("q"), array("q")
        self._error = array("b")

    def declare(self, name: str) -> list:
        """Start the totals of ``name`` at zero, so that a layer that is
        traced but never called reports 0 calls rather than nothing."""
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0, 0, 0]
            self._name_ix[name] = len(self._names)
            self._names.append(name)
            for key in OBSERVERS.get(name, ((),))[0]:
                self.counters[key] += 0
        return self.stats[name]

    def span(self, name: str, rows_in: int = -1, rows_out: int = -1) -> _Span:
        """Context manager timing one call of layer ``name``; a row count
        of -1 means "not measured"."""
        return _Span(self, name, rows_in, rows_out)

    def _record(self, s: _Span, end: float, failed: bool) -> None:
        dur = end - s.start
        if self._stack:
            self._stack[-1].child_s += dur
        else:
            self.top_level_s += dur
        st = self.stats.get(s.name) or self.declare(s.name)
        st[0] += 1
        st[1] += dur
        st[2] += dur - s.child_s
        st[3] += failed
        if s.rows_out >= 0:
            st[4] += s.rows_out
        self._id.append(s.span_id)
        self._parent.append(s.parent_id)
        self._name.append(self._name_ix[s.name])
        self._start.append(s.start - self.origin)
        self._end.append(end - self.origin)
        self._rows_in.append(s.rows_in)
        self._rows_out.append(s.rows_out)
        self._error.append(failed)

    def write_spans(self, path) -> None:
        """Write one CSV line per closed span, in completion order; times
        are seconds since the tracer was created."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(SPAN_COLUMNS) + "\n")
            names, rid = self._names, self.run_id
            fh.writelines(
                f"{rid},{i},{p},{names[n]},{a:.9f},{b:.9f},{ri},{ro},{e}\n"
                for i, p, n, a, b, ri, ro, e in zip(
                    self._id, self._parent, self._name, self._start, self._end,
                    self._rows_in, self._rows_out, self._error,
                )
            )


def _rows(x) -> int:
    """Outcome rows carried by a registry or design value, -1 otherwise."""
    if isinstance(x, tuple) and x:
        x = x[0]  # (registry, truth) and (registry, audit) results
    if hasattr(x, "outcomes") and hasattr(x, "trials"):
        return len(x.outcomes)
    if hasattr(x, "n_obs") and hasattr(x, "kind"):
        return x.n_obs
    if isinstance(x, list):
        return len(x)  # link results, sweep rows
    return -1


# counters read off a layer's return value: layer -> (counter names, values)
OBSERVERS = {
    "density.sj_bandwidth": (
        ("density.sj_bandwidth.fallbacks",), lambda r: (bool(r.fallback),)),
    "selection.fit_logit": (
        ("selection.fit_logit.not_converged",), lambda model: (not model.converged,)),
    "decompose.decompose": (
        ("decompose.reps_attempted", "decompose.reps_dropped"),
        lambda report: (report.bootstrap_reps, report.dropped_reps)),
}

# layers whose inputs or outputs carry a row count worth recording
ROW_LAYERS = frozenset({
    "registry.ingest", "registry.apply_sample_filters", "simulate.generate",
    "linker.link_all", "selection.build_design", "decompose.phase_scores",
    "decompose.sponsor_split_sweep",
})


def public_functions(module) -> dict:
    """Module-level functions defined in ``module`` whose names do not
    start with an underscore."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _wrap(tracer: Tracer, name: str, fn):
    keys, observe = OBSERVERS.get(name, ((), None))
    rows = name in ROW_LAYERS
    tracer.declare(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, _rows(args[0]) if rows and args else -1) as s:
            result = fn(*args, **kwargs)
            if rows:
                s.rows_out = _rows(result)
            if observe is not None:
                for key, value in zip(keys, observe(result)):
                    tracer.counters[key] += value
        return result

    return wrapper


def _import_all(package: str) -> None:
    # Every submodule must be loaded before wrapping: a module first imported
    # while wrappers are installed would copy them into its own namespace
    # through "from .x import y" and keep them after restore.
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
        importlib.import_module(f"{package}.{info.name}")


@contextlib.contextmanager
def traced(tracer: Tracer, package: str = "trialscope", layers=LAYERS):
    """Route every binding of the layers' public functions through
    ``tracer`` for the duration of the block, then restore the originals."""
    _import_all(package)
    wrappers: dict[int, tuple] = {}
    for layer in layers:
        module = importlib.import_module(f"{package}.{layer}")
        for fname, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{layer}.{fname}", fn))
    rebound: list[tuple] = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                rebound.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(rebound):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flat per-layer metrics of one traced operation."""
    out: dict[str, float] = {}
    for name, (calls, busy, self_s, errors, rows_out) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = self_s
        out[f"{name}.errors"] = errors
        if name in ROW_LAYERS:
            out[f"{name}.rows_out"] = rows_out
    out.update(tracer.counters)
    return out
