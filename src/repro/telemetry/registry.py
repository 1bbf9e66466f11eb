"""The metrics registry: counters, gauges, and sample histograms.

Zero-dependency (stdlib only) and thread-safe: epoch stages running on a
thread-pool backend record into the same registry the driver uses.  A
metric is identified by its name plus a fixed label set, e.g.
``registry.histogram("snoopy_epoch_stage_seconds", stage="build")`` —
the Prometheus data model, so the text export
(:meth:`MetricsRegistry.prometheus_text`) is a straight serialization.

**Percentiles.**  :func:`nearest_rank_percentile` is the single
percentile implementation shared by :class:`Histogram` and the
simulator's :class:`~repro.sim.metrics.LatencyStats` (they previously
risked drifting apart; ``tests/test_telemetry_properties.py``
cross-checks both against a sorted-list oracle).

**Public values.**  Exported metric *values* fall in two classes (see
SECURITY.md):

* counters, gauges, and histogram observation **counts** are pure
  functions of the public configuration and batch shape — two workloads
  of the same shape produce identical values
  (``tests/test_telemetry_obliviousness.py`` asserts this);
* histogram **sums/quantiles** are wall-clock measurements.  Timing is
  already public information in the threat model (§2.1 allows arrival
  and response timing to leak); telemetry adds no data-dependent
  quantity on top.

:meth:`MetricsRegistry.public_snapshot` returns exactly the first class,
which is what the differential harness compares across configurations.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Tuple

#: A metric's identity: ``(name, (("label", "value"), ...))`` with the
#: label pairs sorted, so keyword order at the call site never matters.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def nearest_rank_percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample list.

    ``p`` is in ``[0, 100]``.  Returns ``ordered[ceil(p/100 * n) - 1]``
    clamped to the valid index range, and ``0.0`` for an empty list —
    the exact historical behaviour of ``LatencyStats.percentile``, now
    the single shared implementation.
    """
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1))
    return ordered[rank]


def _labels_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Normalize a label dict into the sorted, stringified key tuple."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (requests served, cache hits...).

    Thread-safe; float increments are allowed (e.g. accumulated stage
    busy seconds).  Merging counters adds their values, which is
    associative and commutative — the property that makes per-worker
    registries safe to aggregate in any order
    (``tests/test_telemetry_properties.py``).
    """

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1; must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current counter value."""
        return self._value

    def merge(self, other: "Counter") -> None:
        """Fold another counter's value into this one (addition)."""
        self.inc(other.value)


class Gauge:
    """A value that can go up and down (queue depth, live workers)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (peak tracking).

        Atomic under the gauge lock, so concurrent observers of a
        high-water mark (e.g. peak open tickets) never regress it.
        """
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in (last-writer-wins: takes other's value)."""
        self.set(other.value)


class Histogram:
    """A sample-keeping distribution with nearest-rank percentiles.

    Keeps every observation (these are per-stage timings in a
    reproduction, not an unbounded production firehose), so percentiles
    are exact — computed by the same :func:`nearest_rank_percentile` the
    simulator's latency stats use.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self._samples.append(value)

    @property
    def count(self) -> int:
        """Number of recorded samples (a public, shape-determined value)."""
        return len(self._samples)

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return math.fsum(self._samples)

    @property
    def mean(self) -> float:
        """Mean sample, 0.0 when empty."""
        samples = self._samples
        return math.fsum(samples) / len(samples) if samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over all samples (``p`` in [0, 100])."""
        return nearest_rank_percentile(sorted(self._samples), p)

    @property
    def p50(self) -> float:
        """Median sample."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile sample."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th-percentile sample."""
        return self.percentile(99)

    @property
    def samples(self) -> List[float]:
        """A copy of the recorded samples, in observation order."""
        return list(self._samples)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one."""
        with self._lock:
            self._samples.extend(other.samples)


#: Quantiles serialized by the Prometheus text export.
_EXPORT_QUANTILES = (0.5, 0.95, 0.99)


class MetricsRegistry:
    """A process-local family of named metrics.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create the metric for
    a ``(name, labels)`` identity; asking for an existing name with a
    different metric kind raises ``ValueError`` (one name, one kind, as
    in Prometheus).  Registries from worker processes can be folded
    together with :meth:`merge`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[MetricKey, object] = {}

    def _get_or_create(self, cls, name: str, labels: Dict[str, object]):
        key = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                for (other_name, _), other in self._metrics.items():
                    if other_name == name and other.kind != cls.kind:
                        raise ValueError(
                            f"metric {name!r} already registered as "
                            f"{other.kind}, cannot re-register as {cls.kind}"
                        )
                metric = cls(name, key[1])
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, cannot re-register as {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get_or_create(Histogram, name, labels)

    def metrics(self) -> List[object]:
        """Every registered metric, sorted by (name, labels)."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def find(self, name: str, **labels) -> Optional[object]:
        """The metric at ``(name, labels)``, or ``None`` if unregistered."""
        return self._metrics.get((name, _labels_key(labels)))

    def histograms(self, name: str) -> List[Histogram]:
        """Every histogram series registered under ``name``."""
        return [
            m for m in self.metrics()
            if isinstance(m, Histogram) and m.name == name
        ]

    # ------------------------------------------------------------------
    # Snapshots and exports
    # ------------------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """Full dump (one dict per metric) for the JSON-lines sink."""
        rows = []
        for metric in self.metrics():
            row = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                row.update(
                    count=metric.count,
                    sum=metric.sum,
                    p50=metric.p50,
                    p95=metric.p95,
                    p99=metric.p99,
                )
            else:
                row["value"] = metric.value
            rows.append(row)
        return rows

    @staticmethod
    def _timing_valued(name: str) -> bool:
        """Counters/gauges whose *value* is wall-clock time.

        ``*_seconds`` / ``*_seconds_total`` series (stage busy time)
        carry measured durations, not shape-determined
        counts — the byte-exact public export must omit them just like
        histogram sums and quantiles.
        """
        base = name[:-len("_total")] if name.endswith("_total") else name
        return base.endswith("_seconds")

    def public_snapshot(self) -> Dict[str, float]:
        """The shape-determined values only: counters, gauges, histogram
        counts — the quantities SECURITY.md declares to be pure functions
        of configuration and batch shape.  Wall-clock-valued series
        (``*_seconds``/``*_seconds_total``) are omitted.  Keys are
        rendered series names (``name{label="value",...}``)."""
        snap: Dict[str, float] = {}
        for metric in self.metrics():
            series = _render_series(metric.name, metric.labels)
            if isinstance(metric, Histogram):
                snap[series + "#count"] = metric.count
            elif not self._timing_valued(metric.name):
                snap[series] = metric.value
        return snap

    def prometheus_text(self, public_only: bool = False) -> str:
        """Serialize the registry in the Prometheus text exposition format.

        Histograms export as Prometheus *summaries* (quantile series plus
        ``_sum``/``_count``), matching the p50/p95/p99 the registry
        computes.  With ``public_only=True`` the wall-clock-valued lines
        (quantiles and sums) are omitted, leaving exactly the
        shape-determined series of :meth:`public_snapshot` — the export
        the obliviousness regression test compares byte-for-byte.
        """
        lines: List[str] = []
        typed = set()
        for metric in self.metrics():
            if (
                public_only
                and not isinstance(metric, Histogram)
                and self._timing_valued(metric.name)
            ):
                continue
            if metric.name not in typed:
                kind = "summary" if metric.kind == "histogram" else metric.kind
                lines.append(f"# TYPE {metric.name} {kind}")
                typed.add(metric.name)
            if isinstance(metric, Histogram):
                if not public_only:
                    for q in _EXPORT_QUANTILES:
                        q_labels = metric.labels + (("quantile", str(q)),)
                        lines.append(
                            f"{_render_series(metric.name, q_labels)} "
                            f"{metric.percentile(q * 100):.9f}"
                        )
                    lines.append(
                        f"{_render_series(metric.name + '_sum', metric.labels)} "
                        f"{metric.sum:.9f}"
                    )
                lines.append(
                    f"{_render_series(metric.name + '_count', metric.labels)} "
                    f"{metric.count}"
                )
            else:
                lines.append(
                    f"{_render_series(metric.name, metric.labels)} "
                    f"{_render_value(metric.value)}"
                )
        return "\n".join(lines) + "\n" if lines else ""

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in, metric by metric.

        Counters add, histograms concatenate samples, gauges take the
        other's value; metrics missing here are created.  Counter/
        histogram merging is associative and order-insensitive up to
        sample order, so per-worker registries aggregate safely.
        """
        for metric in other.metrics():
            labels = dict(metric.labels)
            if isinstance(metric, Counter):
                self.counter(metric.name, **labels).merge(metric)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, **labels).merge(metric)
            else:
                self.histogram(metric.name, **labels).merge(metric)


def _render_series(name: str, labels: Iterable[Tuple[str, str]]) -> str:
    """``name{k="v",...}`` (or bare ``name`` without labels)."""
    labels = tuple(labels)
    if not labels:
        return name
    rendered = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{rendered}}}"


def _render_value(value: float) -> str:
    """Integers without a trailing ``.0``; floats at full precision."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
