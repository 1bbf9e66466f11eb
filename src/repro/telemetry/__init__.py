"""Telemetry: metrics, trace spans, and profiling hooks for the pipeline.

The planner's equations (1)-(3) need *measured* per-stage costs, and the
differential tests need a machine-checkable statement of "behaviour
identical across configurations".  This package provides both with zero
dependencies beyond the stdlib.

Quick start::

    from repro.telemetry import Telemetry
    from repro.telemetry.sinks import PrometheusTextSink

    telemetry = Telemetry(sinks=[PrometheusTextSink("metrics.prom")])
    config = SnoopyConfig(..., telemetry=telemetry)
    snoopy = Snoopy(config, keychain)
    ...
    snoopy.run_epoch()
    telemetry.flush()          # push registry + spans to every sink

    stage = telemetry.registry.histograms("snoopy_epoch_stage_seconds")
    for hist in stage:
        print(dict(hist.labels)["stage"], hist.count, hist.p50)

Three layers:

* **Metrics registry** (``repro.telemetry.registry``) — labelled
  counters, gauges, and sample-keeping histograms with exact
  nearest-rank p50/p95/p99 (the same percentile implementation the
  simulator's ``LatencyStats`` uses).  ``prometheus_text()`` serializes
  the whole registry in the Prometheus text exposition format.
* **Trace spans** (``repro.telemetry.spans``) — hierarchical named
  regions timed with ``time.monotonic()``; per-thread stacks mean spans
  opened on pool workers nest correctly.  ``tracer.name_counts()`` is
  the public shape of a trace.
* **Sinks** (``repro.telemetry.sinks``) — ``InMemorySink``,
  ``JsonLinesSink`` (append; what the chaos-soak CI job uploads), and
  ``PrometheusTextSink`` (whole-file replace, scrape semantics).
  ``flush()`` pushes the current registry and finished span trees to
  every attached sink.

What gets instrumented when a ``Telemetry`` handle is threaded through
``SnoopyConfig(telemetry=...)``:

* epoch stages — ``snoopy_epoch_seconds`` and
  ``snoopy_epoch_stage_seconds{stage=collect|build|execute|match|respond}``,
  plus load-balancer sub-stages
  (``snoopy_lb_stage_seconds{stage=route|pad|sort|dedupe}``), subORAM
  phases (``snoopy_suboram_phase_seconds{phase=table|scan|extract}``;
  ``table`` and ``extract`` once per stage-➋ group, ``scan`` once per
  batch) and one ``snoopy_suboram_epoch_seconds{unit=i}`` per stage-➋
  unit, ``i`` the lowest subORAM index it serves (a group's first
  member; see :func:`repro.core.epoch.stage_groups`);
* exec backends — ``exec_task_queue_seconds`` vs ``exec_task_run_seconds``
  per task on the thread pool;
* oblivious kernels — per-level sort/compact timings through the
  existing ``KernelTrace`` seam (``repro.telemetry.kernelbridge``;
  meaningful on the numpy kernel, which records levels as it executes);
* store crypto (``crypto="vector"``'s batch path) —
  ``snoopy_store_batch_seals_total`` /
  ``snoopy_store_batch_opens_total`` (one increment per whole-store
  AES-GCM pass, each reseal under a fresh nonce) and
  ``snoopy_store_bytes_moved_total{op}``.  These are throughput
  diagnostics: the differential harness excludes them from the
  workload-invariant public slice it compares across configurations;
* retry/replication — ``retry_epochs_failed_total`` /
  ``retry_epochs_retried_total`` / ``replication_recoveries_total``,
  mirroring the retry controller's stats dict;
* fault injection — one ``fault_injected_total{kind=...}`` for the
  epoch and link seams alike, mirroring ``FaultInjector.stats``.

CLI: ``python -m repro demo --metrics-out metrics.prom --trace-out
trace.jsonl`` writes the Prometheus exposition and the JSON-lines trace,
and the demo always prints an epoch-stage breakdown table.  The
benchmarks emit the same spans, so ``BENCH_kernels.json`` gains a
``stages`` section.

Off by default, cheap when off: every instrumentation point goes through
a handle that defaults to :data:`NULL_TELEMETRY`, whose methods return
shared no-op objects without allocating.

Security: exported counters, gauges, histogram *counts*, and span
names/counts are pure functions of the public configuration and batch
shape — never of request contents (SECURITY.md "Telemetry is public
information"; ``tests/test_telemetry_obliviousness.py`` asserts exact
equality for same-shape different-content workloads).  Histogram
*values* are wall-clock timings, public under the same argument as
arrival timing (§2.1).

Copy semantics: a ``Telemetry`` handle pickles to
:data:`NULL_TELEMETRY`, so a subORAM restored inside a worker process
silently no-ops instead of recording into a registry the parent never
sees — worker-side metrics are recorded host-side where the protocol
outcome is known.  ``copy.deepcopy`` returns the same handle, so atomic
epoch attempts (which deep-copy subORAM state) keep reporting to the
live registry.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "resolve_telemetry",
    "stage_breakdown",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
]

#: Canonical epoch-stage order for breakdown tables (pipeline order, not
#: alphabetical): how ``snoopy_epoch_stage_seconds`` rows should print.
STAGE_ORDER = ("collect", "build", "execute", "match", "respond")


def stage_breakdown(
    registry: MetricsRegistry,
    metric: str = "snoopy_epoch_stage_seconds",
    label: str = "stage",
) -> List[dict]:
    """Per-stage timing summary rows from one labelled histogram family.

    Returns a list of dicts ``{label, count, mean_s, p95_s, total_s}``,
    one per distinct ``label`` value of ``metric``, ordered by
    :data:`STAGE_ORDER` first (pipeline order) and alphabetically for
    any other label values.  The CLI renders this as the demo's
    epoch-stage table; the benchmarks serialize it as the ``stages``
    section of their BENCH JSONs.
    """
    rows = []
    for hist in registry.histograms(metric):
        value = dict(hist.labels).get(label, "")
        rows.append({
            label: value,
            "count": hist.count,
            "mean_s": hist.mean,
            "p95_s": hist.p95,
            "total_s": hist.sum,
        })
    order = {stage: index for index, stage in enumerate(STAGE_ORDER)}
    rows.sort(key=lambda row: (order.get(row[label], len(order)), row[label]))
    return rows


class _Timer:
    """Context manager that observes its elapsed time into a histogram."""

    __slots__ = ("_histogram", "_t0", "elapsed")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._t0 = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.monotonic() - self._t0
        self._histogram.observe(self.elapsed)


class Telemetry:
    """The live telemetry handle: one registry, one tracer, n sinks.

    Pass it as ``SnoopyConfig(telemetry=...)`` (or directly to the
    lower-level components) and call :meth:`flush` when you want sinks
    to see the state.  See the package docstring for the full guide.
    """

    #: True on live handles, False on :class:`NullTelemetry` — lets hot
    #: paths skip building label dicts entirely when telemetry is off.
    enabled = True

    def __init__(self, sinks: Sequence[object] = ()):  # noqa: D107
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.sinks: List[object] = list(sinks)

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter on the registry."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create a gauge on the registry."""
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create a histogram on the registry."""
        return self.registry.histogram(name, **labels)

    def span(self, name: str, **attrs):
        """Open a trace span: ``with telemetry.span("epoch", n=3): ...``."""
        return self.tracer.span(name, **attrs)

    def time(self, name: str, **labels) -> _Timer:
        """Time a block into histogram ``name``:
        ``with telemetry.time("snoopy_epoch_stage_seconds", stage="build"): ...``."""
        return _Timer(self.registry.histogram(name, **labels))

    def add_sink(self, sink: object) -> None:
        """Attach another sink; it sees state at the next :meth:`flush`."""
        self.sinks.append(sink)

    def flush(self) -> None:
        """Push the registry and all finished span trees to every sink."""
        roots = self.tracer.roots
        for sink in self.sinks:
            sink.emit(self.registry, roots)

    def __reduce__(self):
        """Pickle to the null handle: worker processes must not record
        into a registry the parent process never merges."""
        return (_null_telemetry, ())

    def __deepcopy__(self, memo) -> "Telemetry":
        """Deep copies share the handle: atomic epoch attempts run on
        copied state but report to the live registry."""
        return self


class _NullMetric:
    """Shared no-op stand-in for Counter/Gauge/Histogram when disabled."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def set_max(self, value: float) -> None:
        """Discard the peak."""

    def observe(self, value: float) -> None:
        """Discard the sample."""


class _NullContext:
    """Shared no-op span/timer context manager."""

    __slots__ = ()
    elapsed = 0.0
    span = None

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_METRIC = _NullMetric()
_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """The off-by-default handle: every operation is a shared no-op.

    No registry, no tracer, no allocation per call — instrumented hot
    paths cost two attribute lookups when telemetry is off.  Use the
    :data:`NULL_TELEMETRY` singleton rather than instantiating.
    """

    enabled = False

    def counter(self, name: str, **labels) -> _NullMetric:
        """Return the shared no-op metric."""
        return _NULL_METRIC

    def gauge(self, name: str, **labels) -> _NullMetric:
        """Return the shared no-op metric."""
        return _NULL_METRIC

    def histogram(self, name: str, **labels) -> _NullMetric:
        """Return the shared no-op metric."""
        return _NULL_METRIC

    def span(self, name: str, **attrs) -> _NullContext:
        """Return the shared no-op context manager."""
        return _NULL_CONTEXT

    def time(self, name: str, **labels) -> _NullContext:
        """Return the shared no-op context manager."""
        return _NULL_CONTEXT

    def add_sink(self, sink: object) -> None:
        """Ignore the sink."""

    def flush(self) -> None:
        """Nothing to flush."""

    def __reduce__(self):
        """All null handles unpickle to the singleton."""
        return (_null_telemetry, ())

    def __deepcopy__(self, memo) -> "NullTelemetry":
        """Deep copies are the singleton too."""
        return self


#: Module-level singleton used wherever no telemetry handle was supplied.
NULL_TELEMETRY = NullTelemetry()


def _null_telemetry() -> NullTelemetry:
    """Pickle target: resolve to the process-local null singleton."""
    return NULL_TELEMETRY


def resolve_telemetry(handle: Optional[object]) -> object:
    """``handle`` if given, else :data:`NULL_TELEMETRY`.

    The one-liner every constructor uses so ``telemetry=None`` (the
    default everywhere) means "off, for free"."""
    return handle if handle is not None else NULL_TELEMETRY
