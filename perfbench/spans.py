"""Per-layer tracing from outside the program.

Every public function of the layer modules is replaced, in every
``clique_splitter`` module that holds a reference to it, by a wrapper
that records one span: (name, start, end, parent). Spans live in flat
arrays in memory; self time is derived from them afterwards.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "clique_splitter"
LAYERS = ("graphs", "kernels", "cliques", "partition", "oracle")
# Bit-set helpers called in inner loops: a span would cost more than the
# work it measures, so their time stays in the caller's self time.
UNWRAPPED = frozenset({"kernels.to_mask", "kernels.from_mask", "kernels.backend"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.stuck = 0               # exchange_refine calls that returned ExchangeStuck
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patched: list[tuple] = []

    def clear(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent, self.outermost):
            del arr[:]
        self.stuck = 0

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self._depth.append(0)
        name, start, end, parent, outermost = (
            self.name, self.start, self.end, self.parent, self.outermost)
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(depth[nid] == 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[nid] -= 1

        if qualname == "partition.exchange_refine":
            def counted(*args, **kwargs):
                result = traced(*args, **kwargs)
                if type(result).__name__ == "ExchangeStuck":
                    self.stuck += 1
                return result
            return counted
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module that exists."""
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in vars(mod).items():
                qualname = f"{layer}.{attr}"
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or qualname in UNWRAPPED):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(qualname, obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def totals(self) -> dict[str, list]:
        """Per function: [calls, busy seconds, self seconds]. Busy time
        counts outermost spans only, so recursion is not counted twice;
        self time is a span's length less that of its direct children."""
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name):
            rec = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            rec[0] += 1
            if self.outermost[i]:
                rec[1] += dur
            rec[2] += dur - child[i]
        return out

    def write(self, fh, phase: str) -> None:
        """Append the spans to a binary file: one JSON header line (phase,
        span count, names), then the name, start, end, parent and
        outermost arrays in that order, in native byte order. ``parent``
        indexes spans of the same phase; -1 means none."""
        header = {"phase": phase, "spans": len(self.start), "names": self.names,
                  "arrays": [a.typecode for a in (self.name, self.start, self.end,
                                                  self.parent, self.outermost)]}
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in (self.name, self.start, self.end, self.parent, self.outermost):
            arr.tofile(fh)
