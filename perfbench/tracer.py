"""Timing spans around the public functions of qdotsim, applied from outside.

`Tracer.install()` replaces every public function and public method defined in
the traced modules by a wrapper that records one span per call: trace id (one
per op), span id, parent span id, name, start and end. A function is rebound in
every module namespace that holds it by name, so `from .qstate import
apply_gate` in `device` and `noise` reaches the wrapper too. Private helpers
are not wrapped: their time is self time of their public caller.

Span names are `<module>.<function>` for functions and methods, and
`<module>.<Class>` for a hand-written constructor (`device.DotArray`). Spans
live in flat arrays until `write()` dumps them; `summary()` derives calls and
self time (duration minus the time covered by child spans) per name.
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "qdotsim"
LAYERS = ("scenario", "report", "device", "qstate", "noise", "channels", "qec", "cli")
ROOT = "bench.op"  # one root span per op; its self time is harness glue


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.trace = array("i")
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.trace_id = -1
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []
        self.peak_qubits = 0
        self.peak_state_bytes = 0

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.trace.append(self.trace_id)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn, *args):
        """Run one op under a new trace id and a root span."""
        self.trace_id += 1
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def _observe(self, state) -> None:
        self.peak_qubits = max(self.peak_qubits, state.n_qubits)
        self.peak_state_bytes = max(self.peak_state_bytes, state.data.nbytes)

    def _wrap(self, fn, span: str):
        if span in self.names:
            raise ValueError(f"two traced callables share the span name {span}")
        name_id = len(self.names)
        self.names.append(span)
        state_type = sys.modules[f"{PACKAGE}.qstate"].QuantumState
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args and type(args[0]) is state_type:
                self._observe(args[0])
            sid = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        return traced

    # -- installing -------------------------------------------------------

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, owner.__dict__[attr], wrapper))

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call."""
        if not self._bindings:
            self._plan()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def _plan(self) -> None:
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._plan_class(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind(namespace, attr, hit[1])

    def _plan_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                self._bind(cls, attr, self._wrap(raw, f"{layer}.{cls.__name__}"))
            elif attr.startswith("_"):
                continue
            elif isinstance(raw, (staticmethod, classmethod)):
                wrapped = self._wrap(raw.__func__, f"{layer}.{attr}")
                self._bind(cls, attr, type(raw)(wrapped))
            elif callable(raw):
                self._bind(cls, attr, self._wrap(raw, f"{layer}.{attr}"))

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid in range(n):
            stats = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            stats["calls"] += 1
            stats["total_s"] += dur
            stats["self_s"] += dur - child[sid]
        return dict(out)

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """How many `child_name` spans sit directly under a `parent_name` span."""
        pid, cid = self.names.index(parent_name), self.names.index(child_name)
        return sum(1 for sid in range(len(self.start))
                   if self.name[sid] == cid and self.parent[sid] >= 0
                   and self.name[self.parent[sid]] == pid)

    def write(self, path) -> None:
        """Dump every span as CSV, gzip-compressed, names in a header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names: " + ",".join(self.names) + "\n")
            fh.write("trace,span,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(f"{self.trace[sid]},{sid},{self.parent[sid]},{self.name[sid]},"
                         f"{self.start[sid]:.9f},{self.end[sid]:.9f}\n")
