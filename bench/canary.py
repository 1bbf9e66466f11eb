"""A machine-speed canary for a box whose speed changes under the run.

The sandbox this benchmark runs in slows down by 20–30 % for a minute or
two at a time (another tenant's load): server CPU per request rises and
throughput falls by the same factor, on every workload, with no change
to the code under test.  Ten same-code runs then straddle "fast" and
"slow" and no run length that fits the driver's budget averages that out.

The canary is a thread in the load generator that runs one small fixed
kernel — a pure-Python arithmetic loop plus a NumPy sort, nothing from
``src/`` — every 50 ms and records the *thread CPU time* it took.  CPU
time, not wall-clock: waiting for a core or for the GIL does not count,
only how fast the machine retires the kernel's instructions.
:meth:`Canary.slowdown` is the median kernel cost over an interval
divided by :data:`REFERENCE_S`; ``run.py`` reports the CPU-bound metrics
both as measured and scaled to the reference speed.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

import numpy

#: Kernel cost on this sandbox at its usual speed (median over quiet
#: runs); pinned so that normalised numbers read "at reference speed".
REFERENCE_S = 0.91e-3

PERIOD_S = 0.05


class Canary(threading.Thread):
    """Samples ``(perf_counter, kernel CPU seconds)`` until stopped."""

    def __init__(self) -> None:
        super().__init__(name="bench-canary", daemon=True)
        self.samples: List[Tuple[float, float]] = []
        self._stop_event = threading.Event()
        self._array = numpy.random.default_rng(1).random(60_000)

    def run(self) -> None:
        while not self._stop_event.wait(PERIOD_S):
            begin = time.thread_time()
            total = 0
            for i in range(10_000):
                total += i * i
            numpy.sort(self._array)
            self.samples.append(
                (time.perf_counter(), time.thread_time() - begin)
            )

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel cost in ``[start, end]`` over the reference cost."""
        costs = [cost for at, cost in self.samples if start <= at <= end]
        if not costs:
            raise RuntimeError("no canary samples in the interval")
        return statistics.median(costs) / REFERENCE_S
