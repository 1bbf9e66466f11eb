"""Bridge from the kernels' :class:`KernelTrace` seam to telemetry.

The oblivious kernels already expose a level-granular schedule recorder
(:class:`repro.oblivious.kernels.KernelTrace`): every sort level,
compaction layer, and scan slot calls ``trace.record(...)`` with public
quantities.  :class:`TimedKernelTrace` subclasses it to stamp each event
with ``time.monotonic()`` — the schedule seen by obliviousness tests is
untouched (``events`` stays the same list of tuples), the timestamps
ride alongside.

:func:`flush_kernel_trace` then turns a timed trace into registry
metrics:

* ``kernel_ops_total{op=...}`` — one counter increment per event kind
  (``sort`` / ``sort_level`` / ``compact`` / ``compact_level``).  Pure
  schedule counts, hence public.  The subORAM increments the same
  counter's ``scan`` / ``scan_slot`` series itself, without a trace
  event per object.
* ``kernel_level_seconds{op=sort|compact}`` — the inter-event delta
  ending at each ``*_level`` event, observed as one histogram sample.
  Only level events get duration samples (per-slot scan samples would
  make histogram memory proportional to N·B for no analytical value).

Caveat: the python reference kernel records all sort levels *upfront*
(the schedule is computed before execution), so its level deltas are
near zero and meaningless; per-level timings are meaningful on the
numpy kernel, which records each level as it executes.  The counters
are meaningful on both.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from repro.oblivious.kernels import KernelTrace

from .registry import MetricsRegistry

#: Event kinds whose inter-event delta is worth a histogram sample.
_LEVEL_EVENTS = {"sort_level": "sort", "compact_level": "compact"}


class TimedKernelTrace(KernelTrace):
    """A :class:`KernelTrace` that also timestamps every event.

    ``events`` behaves exactly as in the base class (tuples of public
    quantities, order-comparable against an untimed trace);
    ``timestamps[i]`` is the ``time.monotonic()`` instant event ``i``
    was recorded.
    """

    def __init__(self):
        super().__init__()
        self.timestamps: List[float] = []

    def record(self, *event) -> None:
        """Append the event and stamp the current monotonic time."""
        super().record(*event)
        self.timestamps.append(time.monotonic())


def flush_kernel_trace(
    registry: MetricsRegistry, trace: TimedKernelTrace, kernel: str
) -> None:
    """Fold one finished timed trace into ``registry``.

    ``kernel`` labels the series (``python`` / ``numpy``) so the two
    paths stay comparable side by side.  Safe to call with an empty
    trace; plain untimed traces (no ``timestamps``) contribute counters
    only.
    """
    timestamps: List[float] = getattr(trace, "timestamps", [])
    prev_ts = timestamps[0] if timestamps else 0.0
    for index, event in enumerate(trace.events):
        op = str(event[0])
        registry.counter("kernel_ops_total", kernel=kernel, op=op).inc()
        if index < len(timestamps):
            ts = timestamps[index]
            phase = _LEVEL_EVENTS.get(op)
            if phase is not None:
                registry.histogram(
                    "kernel_level_seconds", kernel=kernel, op=phase
                ).observe(max(0.0, ts - prev_ts))
            prev_ts = ts


def timed_trace_pair() -> Tuple[TimedKernelTrace, TimedKernelTrace]:
    """Convenience: two fresh timed traces (e.g. sort + compact legs)."""
    return TimedKernelTrace(), TimedKernelTrace()
