"""The pipelined epoch scheduler: equivalence, linearizability, rollback.

The pipeline overlaps build/execute/match across epochs, so its proof
obligations are exactly the sequential scheduler's plus ordering: every
configuration cell must serve byte-identical responses to the sequential
reference, retried mid-pipeline epochs must preserve Appendix C's
linearization, and a fatally failed epoch must roll every in-flight
successor back without reordering the balancer queues.
"""

import threading
import time

import pytest

from repro.core.client import Client
from repro.core.faults import FaultEvent, FaultPlan
from repro.core.linearizability import History, check_snoopy_history
from repro.core.tickets import TicketBook
from repro.errors import ConfigurationError, TicketPendingError, WorkerCrashError
from repro.sim.latency import latency_suboram_factory
from repro.telemetry.overlap import (
    StageInterval,
    StageIntervalRecorder,
    occupancy_table,
    overlap_seconds,
)
from repro.types import OpType, Request, Response

from tests.harness import (
    assert_equivalent,
    attested_cluster,
    build_store,
    differential_run,
    matched_rows,
    run_workload,
    seeded_workload,
)

MASTER = b"pipeline-test-master-key-0123456"[:32]
NUM_KEYS = 40
WORKLOAD = seeded_workload(5, 8, seed=31, num_keys=NUM_KEYS, num_balancers=3)
OBJECTS = {k: bytes([k % 256]) * 8 for k in range(NUM_KEYS)}

#: Stage-➋ chaos hitting two distinct mid-pipeline epochs.
CHAOS_PLAN = FaultPlan([
    FaultEvent(epoch=2, kind="worker_crash", unit=1),
    FaultEvent(epoch=4, kind="task_timeout", unit=0),
])


def _plan():
    return FaultPlan(CHAOS_PLAN.events)


# ---------------------------------------------------------------------------
# Differential matrix: pipelined == sequential, cell by cell
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sequential_reference():
    """The fault-free serial/python sequential cell every run must match."""
    runs = differential_run(
        WORKLOAD, OBJECTS, master=MASTER,
        backends=("serial",), kernels=("python",),
        num_load_balancers=3,
    )
    return runs[0]


@pytest.fixture(scope="module")
def pipelined_matrix():
    """Every (backend, kernel, plan) cell driven through the pipeline."""
    return differential_run(
        WORKLOAD, OBJECTS, master=MASTER,
        backends=("serial", "thread:4"),
        kernels=("python", "numpy"),
        fault_plans=(("fault-free", None), ("chaos", _plan)),
        num_load_balancers=3,
        pipelined=True,
    )


@pytest.fixture(scope="module")
def attested_matrix():
    """The attested deployment through the pipeline: every cell's
    subORAMs sit behind one loopback cluster's sealed worker links
    (stage ➋ crosses them one epoch at a time)."""
    with attested_cluster(3, kernel="numpy") as cluster:
        return differential_run(
            WORKLOAD, OBJECTS, master=MASTER,
            backends=("serial", "thread:4"),
            kernels=("numpy",),
            fault_plans=(("fault-free", None), ("chaos", _plan)),
            num_load_balancers=3,
            pipelined=True,
            suboram_factory=cluster.factory,
        )


class TestPipelinedDifferentialMatrix:
    def test_matrix_covers_every_cell(self, pipelined_matrix, attested_matrix):
        assert len({run.key for run in pipelined_matrix}) == 8
        assert len({run.key for run in attested_matrix}) == 4

    def test_every_cell_matches_the_sequential_reference(
        self, pipelined_matrix, attested_matrix, sequential_reference
    ):
        """Responses, ticket results, and invariant metrics all match."""
        assert_equivalent(
            list(pipelined_matrix) + list(attested_matrix)
            + [sequential_reference],
            reference=sequential_reference,
        )

    def test_chaos_cells_actually_injected_faults(
        self, pipelined_matrix, attested_matrix
    ):
        for run in list(pipelined_matrix) + list(attested_matrix):
            if run.plan_name != "chaos":
                continue
            assert run.fault_stats["worker_crashes"] == 1, run.key
            assert run.fault_stats["tasks_timed_out"] == 1, run.key
            assert run.fault_stats["epochs_failed"] == 2, run.key

    def test_depth_does_not_change_served_bytes(self, sequential_reference):
        for depth in (1, 3):
            store = build_store(
                "thread:4", master=MASTER, objects=dict(OBJECTS),
                num_load_balancers=3,
            )
            try:
                responses, _ = run_workload(
                    store, WORKLOAD, pipelined=True, pipeline_depth=depth
                )
                assert responses == sequential_reference.responses
            finally:
                store.close()


# ---------------------------------------------------------------------------
# Linearizability of a retried mid-pipeline epoch
# ---------------------------------------------------------------------------
class TestLinearizabilityOfRetriedMidPipelineEpoch:
    def test_history_with_retried_epochs_is_linearizable(self):
        """Appendix C survives an epoch retried while successors queue.

        Clients submit across six pipelined epochs while the chaos plan
        fails two of them mid-pipeline; completion goes through
        :meth:`Client.complete_ticket`, whose ``end_epoch`` is the exact
        epoch each ticket resolved in (the trusted counter has already
        advanced past it under pipelining).
        """
        import random

        rng = random.Random(13)
        initial = {k: bytes([k]) * 8 for k in range(20)}
        store = build_store(
            "thread:4", master=MASTER, objects=dict(initial),
            num_load_balancers=3, num_suborams=2,
            plan=_plan(), max_attempts=3,
        )
        clients = [Client(store, client_id=i) for i in range(4)]
        issued = []
        original_submit = store.submit

        def recording_submit(request, load_balancer=None):
            ticket = original_submit(request, load_balancer)
            issued.append(ticket)
            return ticket

        store.submit = recording_submit
        pipeline = store.start_pipeline(clock=False)
        try:
            for _ in range(6):
                for client in clients:
                    for _ in range(rng.randrange(3)):
                        key = rng.randrange(20)
                        if rng.random() < 0.5:
                            client.submit_write(
                                key, bytes([rng.randrange(256)]) * 8
                            )
                        else:
                            client.submit_read(key)
                pipeline.close_epoch()
            pipeline.flush()
        finally:
            pipeline.stop()
            store.close()
        assert store.fault_stats["epochs_failed"] == 2
        for ticket in issued:
            assert ticket.done
            for client in clients:
                client.complete_ticket(ticket)
        operations = [o for c in clients for o in c.history]
        assert operations, "history should be non-empty"
        assert len(operations) == len(issued)
        check_snoopy_history(History(initial=initial, operations=operations))


# ---------------------------------------------------------------------------
# Clock-driven pipelining
# ---------------------------------------------------------------------------
class TestEpochClock:
    def test_clock_closes_epochs_without_manual_pacing(self):
        store = build_store(
            "thread:4", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=3,
        )
        try:
            pipeline = store.start_pipeline(epoch_duration=0.02)
            tickets = [
                store.submit(Request(OpType.READ, key))
                for key in (1, 5, 9, 13)
            ]
            deadline = time.monotonic() + 10.0
            while (
                any(not t.done for t in tickets)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            pipeline.stop()
            for ticket in tickets:
                response = ticket.result()
                assert response.value == OBJECTS[response.key]
            assert store.counter.value >= 1
        finally:
            store.close()

    def test_config_epoch_duration_is_the_default_period(self):
        store = build_store(
            "serial", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=3,
        )
        try:
            pipeline = store.start_pipeline(epoch_duration=0.015)
            assert pipeline.clock_period == 0.015
            pipeline.stop()
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Backpressure, poisoning, and rollback
# ---------------------------------------------------------------------------
class TestBackpressureAndRollback:
    def test_nonblocking_close_skips_when_depth_exhausted(self):
        store = build_store(
            "thread:4", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=3,
            suboram_factory=latency_suboram_factory(0.15),
        )
        try:
            pipeline = store.start_pipeline(depth=1, clock=False)
            store.submit(Request(OpType.READ, 1))
            assert pipeline.close_epoch(wait=False) is not None
            store.submit(Request(OpType.READ, 2))
            # The single slot is still held by the in-flight epoch.
            assert pipeline.close_epoch(wait=False) is None
            pipeline.flush()
            pipeline.stop()
        finally:
            store.close()

    def test_empty_close_returns_none_and_preserves_epoch_counters(self):
        store = build_store(
            "serial", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=3,
        )
        try:
            # One rule for both schedulers: inline first, then pipelined.
            assert store.run_epoch() == []
            pipeline = store.start_pipeline(clock=False)
            assert pipeline.close_epoch() is None
            assert store.counter.value == 0
            assert all(
                b.epochs_processed == 0 for b in store.load_balancers
            )
            pipeline.stop()
        finally:
            store.close()

    def test_balancer_stages_stay_off_the_shared_state_pool(self, monkeypatch):
        """A match queued behind the next epoch's units would answer late."""
        from repro.core import epoch
        real, ran_on = epoch.match_responses, []

        def recording(*args, **kwargs):
            ran_on.append(threading.current_thread().name)
            return real(*args, **kwargs)
        monkeypatch.setattr(epoch, "match_responses", recording)
        store = build_store("thread:2", master=MASTER, objects=dict(OBJECTS))
        with store.start_pipeline(clock=False) as pipeline:
            store.submit(Request(OpType.READ, 1))
            pipeline.close_epoch()
        store.close()
        assert ran_on and set(ran_on) == {"repro-pipeline-match"}

    def test_fatal_failure_poisons_and_rolls_back_all_inflight_epochs(self):
        """Exhausted retries roll back the failed epoch AND successors."""
        plan = FaultPlan([
            FaultEvent(epoch=1, kind="worker_crash", unit=0),
        ])
        store = build_store(
            "serial", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=2, plan=plan, max_attempts=1,
        )
        try:
            pipeline = store.start_pipeline(depth=3, clock=False)
            first = [
                store.submit(Request(OpType.READ, k, seq=i))
                for i, k in enumerate((1, 3, 5))
            ]
            pipeline.close_epoch()
            second = [
                store.submit(Request(OpType.READ, k, seq=i))
                for i, k in enumerate((2, 4))
            ]
            pipeline.close_epoch()
            with pytest.raises(WorkerCrashError):
                pipeline.flush()
            assert isinstance(pipeline.error, WorkerCrashError)
            # Poisoned: new submissions and closes re-raise.
            with pytest.raises(WorkerCrashError):
                store.submit(Request(OpType.READ, 7))
            with pytest.raises(WorkerCrashError):
                pipeline.close_epoch()
            for ticket in first + second:
                assert not ticket.done
            pipeline.stop()
            assert not pipeline.active
            # Requests were requeued in close order; the sequential
            # scheduler now serves them exactly once, oldest first.
            assert sum(b.pending for b in store.load_balancers) == 5
            responses = store.run_epoch()
            assert len(responses) == 5
            for ticket in first + second:
                assert ticket.result().value == OBJECTS[
                    ticket.result().key
                ]
        finally:
            store.close()

    def test_close_releases_the_backend_when_the_final_flush_fails(self):
        """A fatal last epoch must not leak the deployment's own pool."""
        plan = FaultPlan([FaultEvent(epoch=1, kind="worker_crash", unit=0)])
        store = build_store(
            "thread:2", master=MASTER, objects=dict(OBJECTS),
            plan=plan, max_attempts=1,
        )
        store.start_pipeline(clock=False)
        ticket = store.submit(Request(OpType.READ, 1))
        with pytest.raises(WorkerCrashError):
            store.close()  # its flush runs the epoch on the pool and fails
        assert store.backend._executor is None
        assert not store.pipeline.active and not ticket.done

    def test_stop_is_idempotent_and_context_manager_stops(self):
        store = build_store(
            "serial", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=3,
        )
        try:
            with store.start_pipeline(clock=False) as pipeline:
                store.submit(Request(OpType.READ, 1))
            assert not pipeline.active
            pipeline.stop()  # second stop is a no-op
            # The context-manager exit flushed the queued request.
            assert store.counter.value == 1
        finally:
            store.close()

    def test_run_epoch_is_guarded_while_pipeline_is_active(self):
        store = build_store(
            "serial", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=3,
        )
        try:
            pipeline = store.start_pipeline(clock=False)
            with pytest.raises(ConfigurationError):
                store.run_epoch()
            with pytest.raises(ConfigurationError):
                store.start_pipeline(clock=False)
            pipeline.stop()
            # After stop the sequential path works again.
            store.submit(Request(OpType.READ, 2))
            assert len(store.run_epoch()) == 1
        finally:
            store.close()

    def test_stats_and_occupancy_report_real_overlap_shape(self):
        store = build_store(
            "thread:4", master=MASTER, objects=dict(OBJECTS),
            num_load_balancers=3,
        )
        try:
            responses, _ = run_workload(store, WORKLOAD, pipelined=True)
            pipeline = store.pipeline
            stats = pipeline.stats
            assert stats["epochs_completed"] == len(WORKLOAD)
            assert stats["inflight"] == 0
            assert 1 <= stats["max_inflight"] <= stats["depth"]
            rows = {row["stage"]: row for row in pipeline.occupancy()}
            assert set(rows) == {"build", "execute", "match"}
            for row in rows.values():
                assert row["count"] == len(WORKLOAD)
                assert row["busy_s"] > 0
                assert row["span_s"] >= row["busy_s"] - 1e-9
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Ticket cuts
# ---------------------------------------------------------------------------
class TestTicketCuts:
    def test_cut_snapshots_and_clears_pending(self):
        book = TicketBook(2)
        t0 = book.issue(0, 0)
        t1 = book.issue(1, 0, count=2)
        cut = book.cut()
        assert cut == [[t0], [t1]]
        # New issues land in a fresh pending epoch.
        t2 = book.issue(0, 0)
        second = book.cut()
        assert second == [[t2], []]

    def test_resolve_cut_resolves_only_the_cut_epoch(self):
        book = TicketBook(2)
        t0 = book.issue(0, 0)
        cut = book.cut()
        t1 = book.issue(0, 0)  # next epoch's ticket stays pending
        resolved = TicketBook.resolve_cut(
            cut, [matched_rows([Response(key=1, value=b"x")]),
                  matched_rows([])], epoch=7
        )
        assert resolved == 1
        assert t0.done and t0.epoch == 7
        assert not t1.done
        with pytest.raises(TicketPendingError):
            t1.result()

    def test_restore_prepends_cut_before_newer_tickets(self):
        book = TicketBook(1)
        t0 = book.issue(0, 0)
        cut = book.cut()
        t1 = book.issue(0, 0)
        book.restore(cut)
        # A later resolve sees the restored ticket first (arrival order).
        resolved = TicketBook.resolve_cut(
            book.cut(),
            [matched_rows([Response(key=1, value=b"a"),
                           Response(key=2, value=b"b")])],
            epoch=3,
        )
        assert resolved == 2
        assert t0.result().value == b"a"
        assert t1.result().value == b"b"


# ---------------------------------------------------------------------------
# Overlap/occupancy pure functions
# ---------------------------------------------------------------------------
class TestOverlapMetrics:
    def test_overlap_requires_later_epoch_by_default(self):
        intervals = [
            StageInterval("execute", epoch=1, start=0.0, end=1.0),
            StageInterval("build", epoch=2, start=0.5, end=1.5),
        ]
        assert overlap_seconds(intervals, "build", "execute") == (
            pytest.approx(0.5)
        )
        # Same-epoch concurrency does not count as pipelining.
        same = [
            StageInterval("execute", epoch=1, start=0.0, end=1.0),
            StageInterval("build", epoch=1, start=0.5, end=1.5),
        ]
        assert overlap_seconds(same, "build", "execute") == 0.0
        assert overlap_seconds(
            same, "build", "execute", require_later_epoch=False
        ) == pytest.approx(0.5)

    def test_occupancy_table_uses_common_span(self):
        intervals = [
            StageInterval("build", epoch=1, start=0.0, end=1.0),
            StageInterval("execute", epoch=1, start=1.0, end=4.0),
        ]
        rows = {r["stage"]: r for r in occupancy_table(intervals)}
        assert rows["build"]["span_s"] == pytest.approx(4.0)
        assert rows["build"]["occupancy"] == pytest.approx(0.25)
        assert rows["execute"]["occupancy"] == pytest.approx(0.75)

    def test_empty_recorder_reports_zero_rows(self):
        recorder = StageIntervalRecorder()
        assert recorder.intervals == []
        rows = occupancy_table([], stages=("build",))
        assert rows == [{
            "stage": "build", "count": 0.0, "busy_s": 0.0,
            "span_s": 0.0, "occupancy": 0.0,
        }]

    def test_recorder_is_thread_safe_and_feeds_telemetry(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        recorder = StageIntervalRecorder(telemetry=telemetry)

        def record_many(stage):
            for i in range(50):
                recorder.record(stage, i, float(i), float(i) + 0.5)

        threads = [
            threading.Thread(target=record_many, args=(stage,))
            for stage in ("build", "execute")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder.intervals) == 100
        # Busy time is wall-clock-valued, so it is *not* in the public
        # snapshot; read the counter directly.
        busy = telemetry.registry.counter(
            "pipeline_stage_busy_seconds_total", stage="build"
        ).value
        assert busy == pytest.approx(25.0)
