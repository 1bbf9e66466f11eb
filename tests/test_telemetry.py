"""Unit tests for the telemetry package and its pipeline instrumentation.

Covers the three layers directly (registry, spans, sinks), the handle
semantics that make instrumentation safe across process boundaries and
atomic epoch copies, the kernel-trace bridge, and the end-to-end
instrumentation each deployment layer records.
"""

import copy
import json
import pickle
import random
import threading

import pytest

from repro.core.config import SnoopyConfig
from repro.core.deployment import DistributedSnoopy
from repro.core.faults import FaultEvent, FaultPlan
from repro.core.snoopy import Snoopy
from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    resolve_telemetry,
    stage_breakdown,
)
from repro.telemetry.kernelbridge import TimedKernelTrace, flush_kernel_trace
from repro.telemetry.registry import MetricsRegistry, nearest_rank_percentile
from repro.telemetry.sinks import InMemorySink, JsonLinesSink, PrometheusTextSink
from repro.telemetry.spans import Tracer
from repro.types import OpType, Request


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", route="a")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5

        hist = registry.histogram("latency_seconds")
        for sample in (0.3, 0.1, 0.2):
            hist.observe(sample)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.6)
        assert hist.mean == pytest.approx(0.2)
        assert hist.p50 == 0.2

    def test_same_name_labels_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", kind="x")
        b = registry.counter("hits_total", kind="x")
        assert a is b
        c = registry.counter("hits_total", kind="y")
        assert c is not a

    def test_one_name_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")

    def test_find_and_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("stage_seconds", stage="build").observe(1.0)
        registry.histogram("stage_seconds", stage="match").observe(2.0)
        assert registry.find("stage_seconds", stage="match").count == 1
        assert registry.find("stage_seconds", stage="nope") is None
        assert len(registry.histograms("stage_seconds")) == 2

    def test_public_snapshot_exposes_counts_not_values(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(4)
        registry.histogram("h_seconds").observe(0.123)
        public = registry.public_snapshot()
        assert public["c_total"] == 4
        assert public["h_seconds#count"] == 1
        # No timing values leak into the public view.
        assert not any(v == 0.123 for v in public.values())

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", op="sort").inc(2)
        registry.histogram("dur_seconds").observe(0.5)
        text = registry.prometheus_text()
        assert '# TYPE ops_total counter' in text
        assert 'ops_total{op="sort"} 2' in text
        assert '# TYPE dur_seconds summary' in text
        assert 'dur_seconds{quantile="0.5"}' in text
        assert 'dur_seconds_count 1' in text
        public = registry.prometheus_text(public_only=True)
        assert 'quantile' not in public
        assert 'dur_seconds_sum' not in public
        assert 'dur_seconds_count 1' in public

    def test_merge_combines_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(1)
        b.counter("n_total").inc(2)
        b.histogram("t_seconds").observe(1.5)
        a.merge(b)
        assert a.find("n_total").value == 3
        assert a.find("t_seconds").count == 1

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.counter("contended_total").inc()
                registry.histogram("contended_seconds").observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.find("contended_total").value == 8000
        assert registry.find("contended_seconds").count == 8000


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("epoch", epoch=1):
            with tracer.span("stage", stage="build"):
                pass
            with tracer.span("stage", stage="execute"):
                pass
        [root] = tracer.roots
        assert root.name == "epoch"
        assert root.attrs == {"epoch": 1}
        assert [c.attrs["stage"] for c in root.children] == [
            "build", "execute",
        ]
        assert root.duration >= sum(c.duration for c in root.children) >= 0
        assert tracer.name_counts() == {"epoch": 1, "stage": 2}

    def test_per_thread_stacks(self):
        tracer = Tracer()

        def worker():
            with tracer.span("worker-span"):
                pass

        with tracer.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        names = sorted(root.name for root in tracer.roots)
        # The worker's span is a root of its own thread, not a child of
        # the main thread's open span.
        assert names == ["main-span", "worker-span"]

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert tracer.roots == []


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class TestSinks:
    def test_in_memory_sink(self):
        telemetry = Telemetry(sinks=[InMemorySink()])
        telemetry.counter("a_total").inc()
        with telemetry.span("s"):
            pass
        telemetry.flush()
        [sink] = telemetry.sinks
        assert sink.flush_count == 1
        assert any(row["name"] == "a_total" for row in sink.metric_rows)
        assert [tree["name"] for tree in sink.span_trees] == ["s"]

    def test_json_lines_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(sinks=[JsonLinesSink(str(path))])
        telemetry.counter("a_total").inc(2)
        with telemetry.span("epoch", epoch=1):
            pass
        telemetry.flush()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {row["kind"] for row in rows}
        assert "counter" in kinds and "span" in kinds
        [span_row] = [r for r in rows if r["kind"] == "span"]
        assert span_row["name"] == "epoch"

    def test_prometheus_text_sink_replaces_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        telemetry = Telemetry(sinks=[PrometheusTextSink(str(path))])
        telemetry.counter("a_total").inc()
        telemetry.flush()
        first = path.read_text()
        assert "a_total 1" in first
        telemetry.counter("a_total").inc()
        telemetry.flush()
        assert "a_total 2" in path.read_text()  # replaced, not appended


# ---------------------------------------------------------------------------
# Handle semantics
# ---------------------------------------------------------------------------
class TestHandleSemantics:
    def test_resolve_telemetry(self):
        telemetry = Telemetry()
        assert resolve_telemetry(telemetry) is telemetry
        assert resolve_telemetry(None) is NULL_TELEMETRY

    def test_live_handle_pickles_to_null(self):
        telemetry = Telemetry()
        revived = pickle.loads(pickle.dumps(telemetry))
        assert revived is NULL_TELEMETRY

    def test_deepcopy_returns_same_handle(self):
        telemetry = Telemetry()
        assert copy.deepcopy(telemetry) is telemetry
        assert copy.deepcopy(NULL_TELEMETRY) is NULL_TELEMETRY

    def test_null_telemetry_is_inert(self):
        null = NullTelemetry()
        null.counter("x").inc()
        null.gauge("y").set(1)
        null.histogram("z").observe(1)
        with null.span("s"):
            with null.time("t"):
                pass
        null.add_sink(object())
        null.flush()
        assert null.counter("x") is null.histogram("z")
        assert not null.enabled

    def test_timer_records_elapsed(self):
        telemetry = Telemetry()
        with telemetry.time("t_seconds", stage="x") as timer:
            pass
        assert timer.elapsed >= 0
        assert telemetry.registry.find("t_seconds", stage="x").count == 1


# ---------------------------------------------------------------------------
# Kernel bridge
# ---------------------------------------------------------------------------
class TestKernelBridge:
    def test_flush_counts_ops_and_level_timings(self):
        trace = TimedKernelTrace()
        trace.record("sort", 8)
        trace.record("sort_level", 0)
        trace.record("sort_level", 1)
        trace.record("compact", 8)
        registry = MetricsRegistry()
        flush_kernel_trace(registry, trace, "numpy")
        assert registry.find(
            "kernel_ops_total", kernel="numpy", op="sort"
        ).value == 1
        assert registry.find(
            "kernel_ops_total", kernel="numpy", op="sort_level"
        ).value == 2
        # Inter-event deltas: one per level event.
        assert registry.find(
            "kernel_level_seconds", kernel="numpy", op="sort"
        ).count == 2


# ---------------------------------------------------------------------------
# Pipeline instrumentation, end to end
# ---------------------------------------------------------------------------
def _run_epochs(backend, *, kernel="python", epochs=2, plan=None,
                max_attempts=1, distributed=False):
    telemetry = Telemetry()
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=2,
        value_size=8,
        security_parameter=16,
        execution_backend=backend,
        kernel=kernel,
        epoch_max_attempts=max_attempts,
        telemetry=telemetry,
    )
    cls = DistributedSnoopy if distributed else Snoopy
    rng = random.Random(4)
    with cls(config, rng=random.Random(4), fault_plan=plan) as store:
        store.initialize({k: bytes([k]) * 8 for k in range(24)})
        for _ in range(epochs):
            for i in range(6):
                store.submit(Request(OpType.READ, rng.randrange(24), seq=i))
            store.run_epoch()
    return telemetry


class TestPipelineInstrumentation:
    @pytest.mark.parametrize("backend", ["serial", "thread:2"])
    def test_epoch_stage_histograms(self, backend):
        telemetry = _run_epochs(backend)
        stages = {
            dict(h.labels)["stage"]: h.count
            for h in telemetry.registry.histograms(
                "snoopy_epoch_stage_seconds"
            )
        }
        assert stages == {
            "collect": 2, "build": 2, "execute": 2, "match": 2, "respond": 2,
        }
        assert telemetry.registry.find("snoopy_epoch_seconds").count == 2
        assert telemetry.tracer.name_counts()["epoch"] == 2

    def test_lb_stages_and_kernel_ops(self):
        telemetry = _run_epochs("serial", kernel="numpy")
        lb_stages = {
            dict(h.labels)["stage"]
            for h in telemetry.registry.histograms("snoopy_lb_stage_seconds")
        }
        assert lb_stages == {"route", "pad", "sort", "dedupe"}
        ops = {
            dict(c.labels)["op"]
            for c in telemetry.registry.metrics()
            if c.name == "kernel_ops_total"
        }
        assert {"sort", "compact", "scan"} <= ops
        assert telemetry.registry.find(
            "kernel_level_seconds", kernel="numpy", op="sort"
        ).count > 0

    def test_suboram_phases_on_shared_state_backends(self):
        telemetry = _run_epochs("thread:2")
        phases = {
            dict(h.labels)["phase"]: h.count
            for h in telemetry.registry.histograms(
                "snoopy_suboram_phase_seconds"
            )
        }
        # 2 subORAMs x 2 LB batches x 2 epochs = 8 per phase.
        assert phases == {"table": 8, "scan": 8, "extract": 8}

    def test_thread_backend_queue_and_run_timings(self):
        telemetry = _run_epochs("thread:2")
        queue = telemetry.registry.find(
            "exec_task_queue_seconds", backend="thread"
        )
        run = telemetry.registry.find(
            "exec_task_run_seconds", backend="thread"
        )
        assert queue is not None and run is not None
        assert queue.count == run.count > 0

    def test_fault_and_retry_counters(self):
        plan = FaultPlan([
            FaultEvent(epoch=2, kind="worker_crash", unit=1),
        ])
        telemetry = _run_epochs("thread:2", plan=plan, max_attempts=3)
        registry = telemetry.registry
        assert registry.find(
            "fault_injected_total", kind="worker_crash"
        ).value == 1
        assert registry.find(
            "retry_epochs_failed_total", stage="execute"
        ).value == 1
        assert registry.find("retry_epochs_retried_total").value == 1

    def test_distributed_deployment_is_instrumented(self):
        telemetry = _run_epochs("serial", distributed=True)
        assert telemetry.registry.find("snoopy_epochs_total").value == 2
        assert telemetry.registry.find("snoopy_requests_total").value == 12
        assert telemetry.tracer.name_counts()["epoch"] == 2

    def test_stage_breakdown_rows(self):
        telemetry = _run_epochs("serial")
        rows = stage_breakdown(telemetry.registry)
        assert [row["stage"] for row in rows] == [
            "collect", "build", "execute", "match", "respond",
        ]
        for row in rows:
            assert row["count"] == 2
            assert row["total_s"] >= row["mean_s"] >= 0

    def test_telemetry_off_records_nothing(self):
        config = SnoopyConfig(
            num_load_balancers=1, num_suborams=2, value_size=8,
            security_parameter=16,
        )
        with Snoopy(config, rng=random.Random(0)) as store:
            store.initialize({k: bytes(8) for k in range(10)})
            store.submit(Request(OpType.READ, 3))
            store.run_epoch()
            assert store.telemetry is NULL_TELEMETRY


# ---------------------------------------------------------------------------
# sim.metrics unification
# ---------------------------------------------------------------------------
class TestLatencyStatsUnification:
    def test_latency_stats_and_histogram_agree(self):
        from repro.sim.metrics import LatencyStats

        rng = random.Random(17)
        samples = [rng.random() for _ in range(257)]
        stats = LatencyStats()
        stats.extend(samples)
        registry = MetricsRegistry()
        hist = registry.histogram("x_seconds")
        for sample in samples:
            hist.observe(sample)
        for p in (0, 1, 50, 90, 95, 99, 100):
            assert stats.percentile(p) == hist.percentile(p)
        assert stats.p50 == hist.p50
        assert stats.p95 == hist.p95
        assert stats.p99 == hist.p99

    def test_both_use_the_shared_nearest_rank(self):
        from repro.sim.metrics import LatencyStats

        stats = LatencyStats()
        stats.extend([3.0, 1.0, 2.0])
        assert stats.percentile(50) == nearest_rank_percentile(
            [1.0, 2.0, 3.0], 50
        )
        assert LatencyStats().percentile(95) == 0.0
