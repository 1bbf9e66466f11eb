"""The pipelined epoch scheduler: overlap build, execute, and match (§6).

Snoopy's performance model assumes epochs are *pipelined*: load
balancers batch and route epoch ``e+1`` while the subORAMs execute epoch
``e`` and responses for ``e-1`` are matched back — that is why
equations (1)–(3) bound latency at ~2 epoch durations while throughput
scales with ``R/T``.  :class:`EpochPipeline` brings that architecture to
the functional system (the same move Obladi makes for its trusted proxy
and TaoStore for its asynchronous proxy scheduling):

* a **background epoch clock** with period
  :attr:`~repro.core.config.SnoopyConfig.epoch_duration` closes the
  current batch on the load balancers (``submit`` stays fully
  non-blocking: tickets are resolved by the pipeline's match thread);
* three **stage threads** — builder, executor, matcher — each run one
  step of the shared epoch body
  (:class:`~repro.core.epoch.EpochLifecycle`, the same steps
  ``Snoopy.run_epoch`` runs inline), so the build of epoch ``e+1`` runs
  concurrently with the execute of ``e`` and the match of ``e-1``.
  Execute fans out over the deployment's execution backend; build and
  match run inline on their own threads;
* a **depth semaphore** caps in-flight epochs at
  :attr:`~repro.core.config.SnoopyConfig.pipeline_depth` (default 2,
  the paper's latency <= 2T claim).  When the limit is reached the
  clock skips its tick and requests keep accumulating on the balancers
  — backpressure grows the next batch instead of queueing epochs.

**Ordering and fault tolerance.**  Epochs serialize in close order:
the trusted counter is bumped under the intake lock at close, each
queue stage is a single FIFO thread, and the execute step — the only
one that mutates subORAM state, and the one that crosses the sealed
worker links, whose replay counters therefore stay ordered — processes
one epoch at a time.  Its retry loop re-executes a
failed epoch *in place* on the already-built batches, so queued
successor epochs are never reordered, preserving the Appendix C
linearization argument.

**Fatal failures** (exhausted retry budget, security aborts, batch
overflow) poison the pipeline: the failing epoch and every epoch behind
it are rolled back — requests requeued at the front of their balancers
and ticket cuts restored, latest epoch first, tickets left pending — and
the original error is re-raised by the next :meth:`EpochPipeline.flush`
/ :meth:`EpochPipeline.close_epoch` call.  After
:meth:`EpochPipeline.stop` the deployment's ``run_epoch`` can re-serve
the requeued requests.

**What is public.**  Epoch cadence, pipeline depth, in-flight counts
and per-stage occupancy are scheduling facts the host already observes;
none of them depends on request contents (SECURITY.md).  Stage overlap
is recorded through :mod:`repro.telemetry.overlap` so benchmarks can
*prove* the overlap instead of asserting wall-clock alone.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional

from repro.core.epoch import _EpochJob
from repro.core.tickets import Ticket
from repro.errors import ConfigurationError
from repro.telemetry import resolve_telemetry
from repro.telemetry.overlap import (
    StageIntervalRecorder,
    occupancy_table,
    overlap_seconds,
)
from repro.oblivious.soa import Batch
from repro.types import Request

#: Queue sentinel shutting a stage thread down.
_STOP = object()


class EpochPipeline:
    """Double-buffered epoch execution over a :class:`~repro.core.snoopy.Snoopy`.

    Construct through :meth:`Snoopy.start_pipeline
    <repro.core.snoopy.Snoopy.start_pipeline>` rather than directly::

        with store.start_pipeline() as pipeline:   # clock running
            tickets = [store.submit(r) for r in requests]
            pipeline.flush()                        # drain in-flight epochs
        responses = [t.result() for t in tickets]

    Tests and benchmarks that need deterministic epoch composition pass
    ``clock=False`` and call :meth:`close_epoch` themselves.

    Args:
        store: the deployment to schedule (its balancers, subORAMs,
            ticket book, retry controller, and backend are shared — the
            pipeline is the deployment's scheduler, not a copy).
        depth: max in-flight epochs; defaults to
            ``store.config.pipeline_depth``.
        clock_period: period of the background epoch clock in seconds,
            or ``None`` for manual :meth:`close_epoch` pacing.
    """

    def __init__(self, store, depth: Optional[int] = None,
                 clock_period: Optional[float] = None):
        if depth is None:
            depth = store.config.pipeline_depth
        if depth < 1:
            raise ConfigurationError("pipeline depth must be >= 1")
        if clock_period is not None and clock_period <= 0:
            raise ConfigurationError("clock_period must be positive")
        self._store = store
        self.depth = depth
        self.clock_period = clock_period
        self.telemetry = resolve_telemetry(store.telemetry)
        self.recorder = StageIntervalRecorder(telemetry=self.telemetry)
        self._epochs = store.epochs

        self._cv = threading.Condition(threading.Lock())
        self._slots = threading.BoundedSemaphore(depth)
        self._to_build: "queue.Queue" = queue.Queue()
        self._to_execute: "queue.Queue" = queue.Queue()
        self._to_match: "queue.Queue" = queue.Queue()
        self._inflight = 0
        self._failed_jobs: List[_EpochJob] = []
        self._error: Optional[BaseException] = None
        self._epochs_completed = 0
        self._max_inflight = 0
        self._stop_event = threading.Event()
        self._threads: List[threading.Thread] = []
        self._clock_thread: Optional[threading.Thread] = None
        self._started = False
        self._active = False
        self._epoch_observers: List = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EpochPipeline":
        """Launch the stage threads (and the clock, if configured)."""
        if self._started:
            raise ConfigurationError("pipeline already started")
        self._started = True
        self._active = True
        self.telemetry.gauge("pipeline_depth").set(self.depth)
        for name, target in (
            ("build", self._build_worker),
            ("execute", self._execute_worker),
            ("match", self._match_worker),
        ):
            thread = threading.Thread(
                target=target, name=f"repro-pipeline-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        if self.clock_period is not None:
            self._clock_thread = threading.Thread(
                target=self._clock_main, name="repro-pipeline-clock",
                daemon=True,
            )
            self._clock_thread.start()
        return self

    @property
    def active(self) -> bool:
        """True while the pipeline accepts submissions and closes epochs."""
        return self._active

    @property
    def error(self) -> Optional[BaseException]:
        """The fatal error that poisoned the pipeline, if any."""
        with self._cv:
            return self._error

    def stop(self) -> None:
        """Drain in-flight work, then shut the stage threads down.

        Flushes first unless the pipeline is already poisoned (a stored
        fatal error means the remaining work was rolled back; the error
        stays retrievable via :attr:`error` and the requests stay queued
        for a sequential ``run_epoch``).  Idempotent.
        """
        if not self._started or not self._active:
            return
        try:
            if self.error is None:
                self.flush()
        finally:
            self._active = False
            self._stop_event.set()
            if self._clock_thread is not None:
                self._clock_thread.join()
            for stage_queue in (
                self._to_build, self._to_execute, self._to_match
            ):
                stage_queue.put(_STOP)
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "EpochPipeline":
        """Context-manager entry: returns the (running) pipeline."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: stops the pipeline (flushing first)."""
        self.stop()

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, rows: Batch, load_balancer: int,
               request: Optional[Request] = None) -> Ticket:
        """Queue a chunk of rows without blocking; the clock closes the epoch.

        Called by :meth:`Snoopy.submit <repro.core.snoopy.Snoopy.submit>`
        while the pipeline is active, once per chunk and balancer
        (``request``: the one row's record, if known).  Holding the
        intake lock once keeps the chunk's (arrival range, ticket) pair
        consistent with a concurrent epoch close.

        Raises:
            The stored fatal error, when the pipeline is poisoned.
        """
        with self._cv:
            if self._error is not None:
                raise self._error
            arrival = self._store.load_balancers[load_balancer].submit(rows)
            ticket = self._store.tickets.issue(
                load_balancer, arrival, len(rows), request
            )
        self.telemetry.counter("snoopy_requests_total").inc(len(rows))
        return ticket

    def add_epoch_observer(self, observer) -> None:
        """Register ``observer(epoch, resolved, latency_s)`` for epoch closes.

        Called on the match thread after each epoch completes — the seam
        the TCP service uses for service-level metrics.  Observer
        exceptions are swallowed (counted in
        ``pipeline_observer_errors_total``) so instrumentation can never
        poison the pipeline.
        """
        self._epoch_observers.append(observer)

    def close_epoch(self, wait: bool = True) -> Optional[int]:
        """Close the current batch into an in-flight epoch.

        Runs the lifecycle's close step under the intake lock and hands
        the epoch to the builder thread.  Returns the epoch number, or
        ``None`` when there was nothing queued — or when ``wait=False``
        and all ``depth`` slots are occupied (the clock's backpressure
        path: the tick is skipped and requests keep accumulating).

        Raises:
            The stored fatal error, when the pipeline is poisoned (after
            waiting for the rollback of in-flight epochs to finish).
        """
        if not self._active:
            raise ConfigurationError("pipeline is not running")
        if wait:
            self._slots.acquire()
        elif not self._slots.acquire(blocking=False):
            self.telemetry.counter("pipeline_backpressure_skips_total").inc()
            return None
        job = None
        try:
            with self._cv:
                if self._error is not None:
                    while self._inflight:
                        self._cv.wait()
                    raise self._error
                job = self._epochs.close()
                if job is None:
                    return None
                self._inflight += 1
                self._max_inflight = max(self._max_inflight, self._inflight)
                self.telemetry.gauge("pipeline_inflight_epochs").set(
                    self._inflight
                )
        finally:
            if job is None:
                self._slots.release()
        self._to_build.put(job)
        return job.epoch

    def flush(self) -> None:
        """Close any queued requests, then wait for every in-flight epoch.

        Raises:
            The stored fatal error, when an in-flight epoch failed.
        """
        self.close_epoch(wait=True)
        with self._cv:
            while self._inflight:
                self._cv.wait()
            if self._error is not None:
                raise self._error

    # ------------------------------------------------------------------
    # Stage threads
    # ------------------------------------------------------------------
    def _run_step(self, stage: str, step, job: _EpochJob) -> bool:
        """Run one lifecycle step on this stage thread; False if it failed."""
        start = time.monotonic()
        try:
            step(job)
        except BaseException as exc:
            job.failure = exc
        finally:
            self.recorder.record(stage, job.epoch, start, time.monotonic())
        return job.failure is None

    def _build_worker(self) -> None:
        """Builder thread: the build step of each epoch, in close order.

        A failed build is passed on and aborted by the executor thread,
        behind every earlier epoch still executing.
        """
        for job in iter(self._to_build.get, _STOP):
            if self._error is None:
                self._run_step("build", self._epochs.build, job)
            self._to_execute.put(job)

    def _execute_worker(self) -> None:
        """Executor thread: the execute step, one epoch at a time.

        The serialization point: epochs execute strictly in close order,
        and a retried epoch re-runs here without touching the queued
        successors waiting behind it.
        """
        for job in iter(self._to_execute.get, _STOP):
            if (
                self._error is None
                and job.failure is None
                and self._run_step("execute", self._epochs.execute, job)
            ):
                self._to_match.put(job)
            else:
                self._abort(job)

    def _match_worker(self) -> None:
        """Matcher thread: the match step + observers, in close order."""
        for job in iter(self._to_match.get, _STOP):
            if self._error is None and self._run_step(
                "match", self._match_and_notify, job
            ):
                self._finish()
            else:
                self._abort(job)

    def _match_and_notify(self, job: _EpochJob) -> None:
        resolved, latency = self._epochs.match(job)
        for observer in self._epoch_observers:
            try:
                observer(job.epoch, resolved, latency)
            except Exception:
                self.telemetry.counter(
                    "pipeline_observer_errors_total"
                ).inc()

    # ------------------------------------------------------------------
    # Completion and rollback
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """Mark one epoch complete and free its depth slot."""
        with self._cv:
            self._inflight -= 1
            self._epochs_completed += 1
            self.telemetry.gauge("pipeline_inflight_epochs").set(
                self._inflight
            )
            self._cv.notify_all()
        self._slots.release()

    def _abort(self, job: _EpochJob) -> None:
        """Collect one epoch for rollback after a fatal failure.

        The first aborted job's failure poisons the pipeline; every
        in-flight job (the failed one and the successors closed after
        it) is collected, and once the last one arrives they are rolled
        back together.
        """
        with self._cv:
            if self._error is None and job.failure is not None:
                self._error = job.failure
            self._failed_jobs.append(job)
            self._inflight -= 1
            self.telemetry.gauge("pipeline_inflight_epochs").set(
                self._inflight
            )
            if self._inflight == 0:
                self._epochs.rollback(self._failed_jobs)
                self._failed_jobs = []
            self._cv.notify_all()
        self._slots.release()

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def _clock_main(self) -> None:
        """Background epoch clock: one non-blocking close per period."""
        while not self._stop_event.wait(self.clock_period):
            try:
                self.close_epoch(wait=False)
            except BaseException:
                # Poisoned (or racing a stop): the error is surfaced to
                # the caller via flush/close_epoch, not the clock.
                break

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Scheduling counters: epochs completed, in flight, max depth seen."""
        with self._cv:
            return {
                "epochs_completed": self._epochs_completed,
                "inflight": self._inflight,
                "max_inflight": self._max_inflight,
                "depth": self.depth,
            }

    def occupancy(self) -> List[dict]:
        """Per-stage busy/span/occupancy rows (see
        :func:`repro.telemetry.overlap.occupancy_table`)."""
        return occupancy_table(
            self.recorder.intervals, stages=("build", "execute", "match")
        )

    def overlap(self, stage_a: str = "build", stage_b: str = "execute") -> float:
        """Seconds ``stage_a`` of later epochs overlapped ``stage_b`` of
        earlier ones — the §6 overlap witness (see
        :func:`repro.telemetry.overlap.overlap_seconds`)."""
        return overlap_seconds(self.recorder.intervals, stage_a, stage_b)
