"""In-memory span tracer that instruments isacbeam from outside the library.

`instrumented` replaces every public function of the traced layers with a
wrapper that records one span (name, start, end, parent span) per call,
at every module attribute that holds the function: `rcg` imports
`retract` and `project_tangent` by name, `design` reaches `crlb.*` and
`comm.*` through module attributes, and the package re-exports most of
them. The originals are put back when the block ends, even on error.

Spans live in flat arrays so that a traced run of a few hundred
thousand calls stays small; `save` writes them out once, at the end.
"""

import contextlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("crlb", "comm", "manifold", "rcg", "design", "radar", "config", "cli")


class Tracer:
    """Span recorder with per-call counter hooks.

    ``clock`` is injectable so that tests can drive span boundaries.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._index = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = defaultdict(float)

    def _intern(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx):
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.end[sid] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name, func, on_return=None):
        """Traced stand-in for ``func``; ``on_return(counters, args, kwargs,
        result)`` runs after each call that returns."""
        idx = self._intern(name)

        def traced(*args, **kwargs):
            sid = self._open(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid)
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    def _columns(self):
        return (np.asarray(self.name, dtype=np.int64), np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start, dtype=float), np.asarray(self.end, dtype=float))

    def roots(self):
        """Index of each span's outermost ancestor (parents precede children)."""
        root = np.empty(len(self.parent), dtype=np.int64)
        for sid, par in enumerate(self.parent):
            root[sid] = sid if par < 0 else root[par]
        return root

    def self_times(self):
        """Per span: duration minus the part of it that child spans cover.

        Spans come from one call stack, so the children of a span are
        disjoint and lie inside it: the covered part is their summed
        duration.
        """
        _, parent, start, end = self._columns()
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        return duration - covered

    def table(self, root_prefix=None):
        """{span name: {calls, self_s, total_s}}; with ``root_prefix`` only
        spans under a root span whose name starts with it."""
        names, _, start, end = self._columns()
        keep = np.ones(len(names), dtype=bool)
        if root_prefix is not None and len(names):
            root_ok = np.array([n.startswith(root_prefix) for n in self.names])
            keep = root_ok[names[self.roots()]]
        size = len(self.names)
        calls = np.bincount(names[keep], minlength=size)
        own = np.bincount(names[keep], weights=self.self_times()[keep], minlength=size)
        total = np.bincount(names[keep], weights=(end - start)[keep], minlength=size)
        return {name: {"calls": int(calls[i]), "self_s": float(own[i]), "total_s": float(total[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        name, parent, start, end = self._columns()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_fisher(counters, args, kwargs, result):
    counters["crlb.fisher_matrix.bytes_computed"] += _arg(args, kwargs, 1, "coupling").nbytes


def _count_f2(counters, args, kwargs, result):
    counters["comm.f2_and_grad.bytes_computed"] += sum(
        inst.matrix.nbytes for inst in _arg(args, kwargs, 1, "instances"))


def _count_soc(counters, args, kwargs, result):
    counters["comm.soc_assemble.bytes_computed"] += sum(inst.matrix.nbytes for inst in result)


def _count_linesearch(counters, args, kwargs, result):
    # the library drops evals and wolfe_ok after the call; read them here
    if result is None:
        counters["rcg.linesearch.failed"] += 1
        return
    counters["rcg.linesearch.steps"] += 1
    counters["rcg.linesearch.probes"] += result.evals
    counters["rcg.linesearch.fallbacks"] += not result.wolfe_ok


def _count_design(counters, args, kwargs, result):
    for stage in ("sp1", "sp2"):
        trace = result.traces.get(stage)
        if trace is not None:
            counters[f"rcg.{stage}.iterations"] += trace.iterations


def _count_monte_carlo(counters, args, kwargs, result):
    counters["radar.degraded_trials"] += result.degraded_trials


HOOKS = {
    "crlb.fisher_matrix": _count_fisher,
    "comm.f2_and_grad": _count_f2,
    "comm.soc_assemble": _count_soc,
    "rcg.wolfe_linesearch": _count_linesearch,
    "design.run": _count_design,
    "radar.monte_carlo": _count_monte_carlo,
}


def layer_functions():
    """{function object: 'layer.name'} for every public function defined in
    the traced layers."""
    import isacbeam  # noqa: F401  (loads every layer module)
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"isacbeam.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                out[obj] = f"{layer}.{attr}"
    return out


@contextlib.contextmanager
def instrumented(tracer):
    """Patch every name under which an isacbeam module holds a traced
    function; restore all of them on exit."""
    targets = layer_functions()
    wrappers = {func: tracer.wrap(name, func, HOOKS.get(name))
                for func, name in targets.items()}
    patched = []
    try:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "isacbeam" or modname.startswith("isacbeam.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


COUNTERS = (
    "crlb.fisher_matrix.bytes_computed",
    "comm.f2_and_grad.bytes_computed",
    "comm.soc_assemble.bytes_computed",
    "rcg.sp1.iterations",
    "rcg.sp2.iterations",
    "rcg.linesearch.steps",
    "rcg.linesearch.probes",
    "rcg.linesearch.fallbacks",
    "rcg.linesearch.failed",
    "radar.degraded_trials",
)


def layer_metrics(tracer, num_ops):
    """Per-operation layer metrics from the spans under operation spans
    ("op.*") and from the counter hooks."""
    table = tracer.table(root_prefix="op.")
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    out = {}
    for name in layer_functions().values():
        for key, value in table.get(name, empty).items():
            out[f"{name}.{key}"] = value / num_ops
    for key in COUNTERS:
        out[key] = tracer.counters[key] / num_ops
    steps = tracer.counters["rcg.linesearch.steps"]
    out["rcg.linesearch.probes_per_step"] = \
        tracer.counters["rcg.linesearch.probes"] / steps if steps else 0.0
    return out


def shape(tracer, top=3):
    """{op kind: (largest self-time layers with their share, radar.* share)}."""
    out = {}
    for kind in sorted({n for n in tracer.names if n.startswith("op.")}):
        table = tracer.table(root_prefix=kind)
        total = table[kind]["total_s"]
        layers = sorted(((row["self_s"], name) for name, row in table.items()
                         if not name.startswith("op.")), reverse=True)
        radar_s = sum(row["self_s"] for name, row in table.items() if name.startswith("radar."))
        out[kind] = ([(name, s / total) for s, name in layers[:top]], radar_s / total)
    return out
