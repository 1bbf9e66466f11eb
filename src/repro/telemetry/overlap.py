"""Per-stage overlap and occupancy metrics for the pipelined scheduler.

The §6 performance model only holds if epoch stages genuinely overlap:
the load balancers must be building batch ``e+1`` *while* the subORAMs
execute batch ``e``.  This module makes that claim measurable.

:class:`StageIntervalRecorder` collects ``(stage, epoch, start, end)``
wall-clock intervals from the pipeline's stage threads (thread-safe; the
pipeline records one interval per stage per epoch).  Two pure functions
turn the interval log into the numbers
:meth:`~repro.core.pipeline.EpochPipeline.overlap` and
:meth:`~repro.core.pipeline.EpochPipeline.occupancy` report:

* :func:`overlap_seconds` — total wall-clock during which a ``stage_a``
  interval of a *later* epoch ran concurrently with a ``stage_b``
  interval of an earlier epoch (e.g. build of ``e+1`` overlapping
  execute of ``e``).  Strictly positive overlap is the witness that the
  pipeline is more than sequential stages behind a lock.
* :func:`occupancy_table` — per-stage busy seconds, wall-clock span, and
  occupancy fraction (busy/span); the stage-occupancy table the
  ``demo --pipelined`` verb prints.

Everything here is public information: stage timings are wall-clock
facts the host already observes (SECURITY.md "Telemetry is public
information"); no interval depends on request contents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.telemetry import resolve_telemetry


@dataclass(frozen=True)
class StageInterval:
    """One stage execution: ``stage`` of epoch ``epoch`` ran [start, end).

    Attributes:
        stage: pipeline stage name (``"build"``, ``"execute"``,
            ``"match"``).
        epoch: the trusted-counter value of the epoch the stage served.
        start: ``time.monotonic()`` at stage start.
        end: ``time.monotonic()`` at stage end.
    """

    stage: str
    epoch: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        """The interval's duration in seconds."""
        return max(0.0, self.end - self.start)


class StageIntervalRecorder:
    """Thread-safe collector of :class:`StageInterval` rows.

    The pipeline's stage threads call :meth:`record` as each stage of
    each epoch finishes; analysis helpers read :attr:`intervals`.  When
    a telemetry handle is attached, each interval also feeds
    ``pipeline_stage_busy_seconds_total{stage=...}`` (a counter of busy
    seconds per stage) and ``pipeline_stage_seconds{stage=...}`` (a
    histogram of per-epoch stage durations).
    """

    def __init__(self, telemetry=None):
        self._lock = threading.Lock()
        self._intervals: List[StageInterval] = []
        self.telemetry = resolve_telemetry(telemetry)

    def record(
        self, stage: str, epoch: int, start: float, end: float
    ) -> StageInterval:
        """Append one stage interval; returns the stored row."""
        interval = StageInterval(stage=stage, epoch=epoch, start=start, end=end)
        with self._lock:
            self._intervals.append(interval)
        self.telemetry.counter(
            "pipeline_stage_busy_seconds_total", stage=stage
        ).inc(interval.seconds)
        self.telemetry.histogram(
            "pipeline_stage_seconds", stage=stage
        ).observe(interval.seconds)
        return interval

    @property
    def intervals(self) -> List[StageInterval]:
        """A snapshot of every recorded interval (record order)."""
        with self._lock:
            return list(self._intervals)


def overlap_seconds(
    intervals: Sequence[StageInterval],
    stage_a: str,
    stage_b: str,
    require_later_epoch: bool = True,
) -> float:
    """Total seconds ``stage_a`` intervals overlapped ``stage_b`` ones.

    With ``require_later_epoch`` (the default) only pairs where the
    ``stage_a`` interval belongs to a *strictly later* epoch than the
    ``stage_b`` interval count — the §6 shape: build of ``e+1``
    concurrent with execute of ``e``.  Pass ``False`` to measure any
    cross-stage concurrency regardless of epoch order.
    """
    a_rows = [i for i in intervals if i.stage == stage_a]
    b_rows = [i for i in intervals if i.stage == stage_b]
    total = 0.0
    for a in a_rows:
        for b in b_rows:
            if require_later_epoch and a.epoch <= b.epoch:
                continue
            total += max(0.0, min(a.end, b.end) - max(a.start, b.start))
    return total


def occupancy_table(
    intervals: Sequence[StageInterval],
    stages: Optional[Sequence[str]] = None,
) -> List[Dict[str, float]]:
    """Per-stage busy time, span, and occupancy fraction.

    For each stage: ``busy_s`` is the sum of its interval durations,
    ``span_s`` the wall-clock from the earliest start to the latest end
    across *all* recorded intervals (the pipeline's makespan — using a
    common span makes occupancies comparable across stages), and
    ``occupancy`` is ``busy_s / span_s``.  Stages listed in ``stages``
    (default: every stage seen, in first-appearance order) each get one
    row; a stage with no intervals reports zeros.
    """
    if stages is None:
        seen: List[str] = []
        for interval in intervals:
            if interval.stage not in seen:
                seen.append(interval.stage)
        stages = seen
    if intervals:
        span_start = min(i.start for i in intervals)
        span_end = max(i.end for i in intervals)
        span = max(0.0, span_end - span_start)
    else:
        span = 0.0
    rows = []
    for stage in stages:
        busy = sum(i.seconds for i in intervals if i.stage == stage)
        rows.append({
            "stage": stage,
            "count": float(sum(1 for i in intervals if i.stage == stage)),
            "busy_s": busy,
            "span_s": span,
            "occupancy": busy / span if span > 0 else 0.0,
        })
    return rows
