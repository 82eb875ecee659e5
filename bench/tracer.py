"""Span tracing of the package's public functions, from outside ``src``.

:meth:`Tracer.install` rebinds every reference the package holds to the
traced functions (module globals, dispatch dicts, the ``graph_at``
method) to a recording wrapper, and :meth:`Tracer.uninstall` restores
them.  Spans (name, start, end, parent) are appended to flat in-memory
arrays and written out once, at exit.  A layer's self time is its spans'
durations minus the part covered by their child spans, so the self times
of all layers, the benchmark's own included, add up to the root span.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

def traced_functions(mods: dict) -> list[tuple[str, str, object, str]]:
    """(span name, layer, owner, attribute) of every traced function."""
    protocol = mods["protocol"]
    fns = [
        ("graph_at", "graph", mods["graph"].DynamicSchedule, "graph_at"),
        ("is_c_in_connected", "graph", mods["graph"], "is_c_in_connected"),
    ]
    for tag in ("min", "r", "rbar", "rbard"):
        fns.append((f"{tag}_apply", "protocol", protocol, f"{tag}_apply"))
        fns.append((f"{tag}_outbox", "protocol", protocol, f"{tag}_outbox"))
    fns += [
        ("dequantize_array", "quantization", mods["quantization"], "dequantize_array"),
        ("sample_exponentials", "sampling", mods["sampling"], "sample_exponentials"),
        ("params_r", "sampling", mods["sampling"], "params_r"),
        ("params_rbar", "sampling", mods["sampling"], "params_rbar"),
        ("params_rbard", "sampling", mods["sampling"], "params_rbard"),
        ("run_trial", "engine", mods["engine"], "run_trial"),
        ("trial_config", "harness", mods["harness"], "trial_config"),
        ("evaluate_trial", "harness", mods["harness"], "evaluate_trial"),
        ("summary_from_records", "harness", mods["harness"], "summary_from_records"),
        # The trace dump lives in engine but is the output step of `avgcons run`.
        ("dump_trace_jsonl", "cli", mods["engine"], "dump_trace_jsonl"),
    ]
    return fns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = True
        # Work counts observed at the wrappers: entries dequantized,
        # exponentials drawn, c_connected rounds, passing c-checks, and
        # c_connected rounds that took the complete-graph fallback.
        self.counts: Counter = Counter()
        self._undo: list = []

    def _nid(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        idx = self._open(self._nid(name, layer))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run the benchmark's own calls into the package untraced and uncounted."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, name: str, layer: str, fn, before=None, after=None):
        nid = self._nid(name, layer)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                close(idx)

        return wrapper

    def _hooks(self, name: str):
        counts = self.counts
        if name == "dequantize_array":
            return (lambda a: counts.update(dequantize_entries=np.size(a[0]))), None
        if name == "sample_exponentials":
            return (lambda a: counts.update(exp_draws=a[1])), None
        if name == "is_c_in_connected":
            return None, (lambda a, ok: counts.update(c_pass=int(ok)))
        if name == "graph_at":
            marks = []

            def before(a):
                marks.append(counts["c_pass"])

            def after(a, g):
                # Forced here so neighbour-list building is charged to graph.
                g.in_neighbor_lists
                mark = marks.pop()
                if a[0].kind == "c_connected":
                    counts["c_rounds"] += 1
                    counts["c_fallbacks"] += counts["c_pass"] == mark

            return before, after
        return None, None

    def install(self, mods: dict) -> None:
        package = [m for key, m in mods.items() if key != "avgcons"] + [mods["avgcons"]]
        for name, layer, owner, attr in traced_functions(mods):
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, layer, fn, *self._hooks(name))
            self._rebind(package, owner, attr, fn, wrapper)

    def _rebind(self, package, owner, attr, fn, wrapper) -> None:
        self._set(owner, attr, wrapper)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if v is fn:
                            self._undo.append((value.__setitem__, k, fn))
                            value[k] = wrapper

    def _set(self, obj, attr, value) -> None:
        self._undo.append((lambda k, v, o=obj: setattr(o, k, v), attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            restore, key, value = self._undo.pop()
            restore(key, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self, upto: int | None = None) -> dict:
        """Views of the span arrays; no span may be recorded after this."""
        n = len(self.name_id) if upto is None else upto
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[:n],
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n],
            "start": np.frombuffer(self.start, dtype=np.float64)[:n],
            "end": np.frombuffer(self.end, dtype=np.float64)[:n],
        }

    def totals(self, upto: int | None = None) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        a = self.arrays(upto)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i]),
                   "layer": self.layers[i]}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays())
