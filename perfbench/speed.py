"""Machine speed, measured with a fixed reference task between operations.

On a shared host the CPU speed one process gets drifts by tens of
percent within seconds and by more between minutes, and a fixed
pure-Python loop slows down with it. A run therefore times a fixed task
of its own every ``EVERY_S`` seconds between operations, and after every
operation longer than that, and scales each operation's time by
``REFERENCE_S`` over the median task time of the ``WINDOW`` probes
nearest to it. Runs made at different times then compare the program,
not the host. The task is the benchmark's own clique test on a fixed
graph: integer bit operations and calls, like the program's kernels, and
no container allocation, so the program's heap does not change its cost.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

import checks

# Median time of the task on the reference machine (2 vCPUs, Python
# 3.11.7) when the host was quiet; it only sets the scale of the figures.
REFERENCE_S = 0.0033
EVERY_S = 0.1
WINDOW = 5
_N, _P, _SEED = 72, 0.5, 20231


class Speed:
    def __init__(self):
        rng = random.Random(_SEED)
        adj = [0] * _N
        for u in range(_N):
            for v in range(u + 1, _N):
                if rng.random() < _P:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        self._adj = adj
        self._full = (1 << _N) - 1
        omega = 1
        while checks.has_clique(adj, self._full, omega + 1):
            omega += 1
        # Refuting a clique one larger than the largest explores the whole
        # search tree, so every probe does the same work.
        self._size = omega + 1
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.last = perf_counter()

    def probe(self) -> float:
        """Time the task once, with the garbage collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            checks.has_clique(self._adj, self._full, self._size)
            self.last = perf_counter()
        finally:
            if enabled:
                gc.enable()
        took = self.last - started
        self.samples.append(took)
        self.stamps.append(started)
        return took

    def due(self, op_s: float) -> float:
        """Probe after an operation of ``op_s`` seconds if it or the time
        since the last probe exceeds ``EVERY_S``; return the time the
        probe took, or 0."""
        if op_s >= EVERY_S or perf_counter() - self.last >= EVERY_S:
            return self.probe()
        return 0.0

    def factor(self, at: float | None = None) -> float:
        """Multiplier from seconds to reference seconds: from the probes
        nearest to time ``at``, or from all probes."""
        if at is None:
            return REFERENCE_S / statistics.median(self.samples)
        i = bisect.bisect(self.stamps, at)
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return REFERENCE_S / statistics.median(self.samples[lo:lo + WINDOW])
