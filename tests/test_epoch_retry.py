"""Atomic epoch failure, rollback/requeue, and the retry policy."""

import random

import pytest

from repro.core.client import Client
from repro.core.config import SnoopyConfig
from repro.core.faults import FaultEvent, FaultInjector, FaultPlan
from repro.core.linearizability import History, check_snoopy_history
from repro.core.resilience import EpochRetryController
from repro.core.snoopy import Snoopy
from repro.crypto.keys import KeyChain
from repro.errors import (
    EpochFailedError,
    IntegrityError,
    TaskTimeoutError,
    TicketPendingError,
    WorkerCrashError,
)
from repro.loadbalancer.balancer import LoadBalancer
from repro.oblivious.soa import Batch
from repro.suboram.suboram import SubOram
from repro.telemetry import Telemetry
from repro.types import OpType, Request
from tests import harness

MASTER = b"epoch-retry-test-master-key-0123"[:32]


def build_store(**config_overrides):
    defaults = dict(
        num_load_balancers=2,
        num_suborams=2,
        value_size=4,
        security_parameter=16,
    )
    defaults.update(config_overrides)
    fault_plan = defaults.pop("fault_plan", None)
    store = Snoopy(
        SnoopyConfig(**defaults),
        keychain=KeyChain(master=MASTER),
        rng=random.Random(1),
        fault_plan=fault_plan,
    )
    store.initialize({k: bytes([k]) * 4 for k in range(20)})
    return store


def crash_plan(epoch=1, unit=0, kind="worker_crash"):
    return FaultPlan([FaultEvent(epoch=epoch, kind=kind, unit=unit)])


def live_state(store):
    """What each live subORAM holds: host ciphertexts and plaintexts."""
    return [
        (
            [unit.store.host_ciphertext(s) for s in range(unit.num_objects)],
            {k: unit.peek(k) for k in unit.object_keys()},
        )
        for unit in store.suborams
    ]


class TestEpochFailedError:
    def test_carries_stage_unit_and_cause(self):
        store = build_store(fault_plan=crash_plan(unit=1))
        ticket = store.submit(Request(OpType.READ, 3))
        with pytest.raises(WorkerCrashError) as excinfo:
            store.run_epoch()
        failure = excinfo.value.__cause__
        assert isinstance(failure, EpochFailedError)
        assert failure.stage == "execute"
        assert failure.unit == 1
        assert isinstance(failure.cause, WorkerCrashError)
        assert failure.retryable
        assert not ticket.done
        store.close()

    def test_security_abort_is_not_retryable(self):
        err = EpochFailedError("execute", 0, IntegrityError("tampered"))
        assert not err.retryable
        assert EpochFailedError(
            "execute", 0, TaskTimeoutError("slow")
        ).retryable


class TestRollbackAndRequeue:
    def test_failed_epoch_requeues_requests_in_order(self):
        store = build_store(fault_plan=crash_plan())
        t1 = store.submit(Request(OpType.WRITE, 3, b"aaaa"), load_balancer=0)
        t2 = store.submit(Request(OpType.READ, 3), load_balancer=0)
        with pytest.raises(WorkerCrashError):
            store.run_epoch()
        # Requests back in their balancer, arrival order preserved;
        # tickets still pending.
        assert store.load_balancers[0].pending == 2
        assert not t1.done and not t2.done
        with pytest.raises(TicketPendingError):
            t1.result()
        # The next epoch serves them (plan's only event was consumed).
        store.run_epoch()
        assert t1.result().value == bytes([3]) * 4  # write: prior value
        # Batch semantics: same-epoch requests observe the pre-epoch
        # value; the write is visible from the next epoch on.
        assert t2.result().value == bytes([3]) * 4
        assert store.read(3) == b"aaaa"
        store.close()

    def test_failed_epoch_does_not_mutate_suboram_state(self):
        store = build_store(fault_plan=crash_plan())
        before = live_state(store)
        store.submit(Request(OpType.WRITE, 5, b"zzzz"))
        with pytest.raises(WorkerCrashError):
            store.run_epoch()
        assert live_state(store) == before
        store.close()

    def test_requeue_rolls_back_the_epoch_counter(self):
        balancer = LoadBalancer(0, 2, b"k" * 16, value_size=4, security_parameter=16)
        balancer.submit(Batch.from_requests([Request(OpType.READ, 1)], 4))
        drained = balancer.drain()
        assert balancer.epochs_processed == 1
        balancer.requeue(drained)
        assert balancer.epochs_processed == 0
        assert balancer.pending == 1

    def test_requeued_requests_go_ahead_of_new_submissions(self):
        balancer = LoadBalancer(0, 2, b"k" * 16, value_size=4, security_parameter=16)
        balancer.submit(Batch.from_requests([Request(OpType.READ, 1, seq=1)], 4))
        drained = balancer.drain()
        balancer.submit(Batch.from_requests([Request(OpType.READ, 2, seq=2)], 4))
        balancer.requeue(drained)
        redrained = balancer.drain()
        assert Batch.concat(redrained).seq.tolist() == [1, 2]


def stage_runs(store, stage):
    """How many times one epoch stage ran, from the store's telemetry."""
    return store.telemetry.registry.find(
        "snoopy_epoch_stage_seconds", stage=stage
    ).count


class TestRetryLoop:
    def test_retry_succeeds_within_budget(self):
        store = build_store(
            fault_plan=crash_plan(), epoch_max_attempts=2,
            telemetry=Telemetry(),
        )
        ticket = store.submit(Request(OpType.READ, 4))
        store.run_epoch()
        assert ticket.result().value == bytes([4]) * 4
        assert store.fault_stats["epochs_failed"] == 1
        assert store.fault_stats["epochs_retried"] == 1
        # Execute is retried in place: the one build is reused.
        assert stage_runs(store, "build") == 1
        assert stage_runs(store, "execute") == 2
        store.close()

    @pytest.mark.parametrize("backend", ["serial", "thread:4"])
    def test_retry_reexecutes_the_very_same_batches(self, backend, monkeypatch):
        """No batch copy per attempt: execute never modifies its input, so
        the retry is handed the same Batch objects, still byte-equal."""
        seen = []
        inner = SubOram.run_epoch

        def spy(self, batches):
            before = [batch.to_bytes() for batch in batches]
            replies = inner(self, batches)
            for batch, prior in zip(batches, before):
                seen.append(
                    (self.suboram_id, id(batch), prior, batch.to_bytes())
                )
            return replies

        monkeypatch.setattr(SubOram, "run_epoch", spy)
        # SubORAM 1 crashes after subORAM 0 served the first attempt.
        store = build_store(
            fault_plan=crash_plan(unit=1), epoch_max_attempts=2,
            execution_backend=backend,
        )
        tickets = [
            store.submit(Request(OpType.WRITE, k, b"zzzz"), load_balancer=k % 2)
            for k in range(8)
        ]
        store.run_epoch()
        assert store.fault_stats["epochs_retried"] == 1
        unit0 = [call for call in seen if call[0] == 0]
        assert len(unit0) == 4  # L = 2 batches, two attempts
        assert all(before == after for _, _, before, after in unit0)
        assert [call[1:3] for call in unit0[:2]] == (
            [call[1:3] for call in unit0[2:]]
        )
        # The retry ran against pristine state: every write saw the
        # pre-epoch value, not the failed attempt's.
        assert [t.result().value for t in tickets] == [
            bytes([k]) * 4 for k in range(8)
        ]
        store.close()

    def test_exhausted_retries_reraise_the_original_cause(self):
        # Two crash events on the same (epoch, unit) coordinate: the
        # retried attempt consumes the duplicate and fails again,
        # exhausting the 2-attempt budget.
        plan = FaultPlan([
            FaultEvent(epoch=1, kind="worker_crash", unit=0),
            FaultEvent(epoch=1, kind="worker_crash", unit=0),
        ])
        store = build_store(
            fault_plan=plan, epoch_max_attempts=2, telemetry=Telemetry()
        )
        ticket = store.submit(Request(OpType.READ, 4), load_balancer=1)
        with pytest.raises(WorkerCrashError):
            store.run_epoch()
        assert not ticket.done
        assert stage_runs(store, "build") == 1
        # Rolled back: the request is requeued, its ticket cut restored.
        assert store.load_balancers[1].pending == 1
        assert store.tickets.pending(1) == 1
        # The requests survived both failures; a later epoch serves them.
        store.run_epoch()
        assert ticket.result().value == bytes([4]) * 4
        assert stage_runs(store, "build") == 2
        store.close()

    def test_retried_attempt_does_not_replay_consumed_faults(self):
        injector = FaultInjector(crash_plan())
        injector.begin_epoch(1)
        assert injector.stage_fault(0) == "worker_crash"
        assert injector.stage_fault(0) is None  # consumed exactly once
        assert injector.stats["worker_crashes"] == 1

    def test_exhausted_budget_runs_exactly_max_attempts(self):
        controller = EpochRetryController(max_attempts=3)
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            raise EpochFailedError(
                "execute", 0, WorkerCrashError("injected")
            )

        with pytest.raises(WorkerCrashError):
            controller.run_with_retry(attempt)
        assert calls["n"] == 3
        assert controller.stats["epochs_failed"] == 3
        assert controller.stats["epochs_retried"] == 2

    def test_non_retryable_failure_stops_immediately(self):
        controller = EpochRetryController(max_attempts=5)
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            raise EpochFailedError("execute", 0, IntegrityError("tampered"))

        with pytest.raises(IntegrityError):
            controller.run_with_retry(attempt)
        assert calls["n"] == 1


class TestRetryPolicy:
    def test_config_validates_retry_fields(self):
        with pytest.raises(Exception):
            SnoopyConfig(epoch_max_attempts=0)
        with pytest.raises(Exception):
            EpochRetryController(max_attempts=0)
        with pytest.raises(Exception):
            SnoopyConfig(replication=(0, 0))
        with pytest.raises(Exception):
            SnoopyConfig(replication=(1,))


class TestLinearizabilityAcrossRetriedEpochs:
    def test_history_with_a_failed_and_retried_epoch_is_linearizable(self):
        """Appendix C must survive an epoch that fails and is retried."""
        rng = random.Random(13)
        plan = FaultPlan([
            FaultEvent(epoch=2, kind="worker_crash", unit=0),
            FaultEvent(epoch=4, kind="task_timeout", unit=1),
        ])
        store = build_store(
            num_load_balancers=3,
            num_suborams=2,
            fault_plan=plan,
            epoch_max_attempts=3,
            execution_backend="thread:4",
        )
        initial = {k: bytes([k]) * 4 for k in range(20)}
        clients = [Client(store, client_id=i) for i in range(4)]
        for _ in range(6):
            for client in clients:
                for _ in range(rng.randrange(3)):
                    key = rng.randrange(20)
                    if rng.random() < 0.5:
                        client.submit_write(
                            key, bytes([rng.randrange(256)]) * 4
                        )
                    else:
                        client.submit_read(key)
            responses = store.run_epoch()
            for client in clients:
                client.complete(responses)
        assert store.fault_stats["epochs_failed"] == 2
        operations = [o for c in clients for o in c.history]
        assert operations, "history should be non-empty"
        check_snoopy_history(History(initial=initial, operations=operations))
        store.close()


# ---------------------------------------------------------------------------
# One store session per subORAM per epoch
# ---------------------------------------------------------------------------
EPOCH_MIXES = {
    "reads": [Request(OpType.READ, k, seq=k) for k in range(12)],
    "writes": [Request(OpType.WRITE, k, b"w" * 8, seq=k) for k in range(12)],
    # One request: every other subORAM batch of the epoch is all dummies.
    "one": [Request(OpType.READ, 3, seq=1)],
    "absent": [Request(OpType.READ, 500 + k, seq=k) for k in range(12)],
}


class TestOneStoreSessionPerEpoch:
    @pytest.mark.parametrize("scheduler", ["inline", "pipelined"])
    def test_one_open_and_one_seal_whatever_the_epoch_holds(
        self, scheduler, monkeypatch
    ):
        telemetry = Telemetry()
        store = harness.build_store(
            "thread:2", master=MASTER,
            objects={k: bytes([k]) * 8 for k in range(40)},
            telemetry=telemetry, num_load_balancers=3, num_suborams=2,
        )
        calls = harness.spy_on_store_passes(monkeypatch)
        seals = telemetry.registry.counter("snoopy_store_batch_seals_total")
        opens = telemetry.registry.counter("snoopy_store_batch_opens_total")
        try:
            for name, requests in EPOCH_MIXES.items():
                calls.clear()
                before = (opens.value, seals.value)
                epoch = [(r, i % 3) for i, r in enumerate(requests)]
                harness.run_workload(
                    store, [epoch], pipelined=scheduler == "pipelined"
                )
                per_store = {}
                for store_pass, store_id in calls:
                    per_store.setdefault(store_id, []).append(store_pass)
                # L = 3 batches (1 for the single request) per subORAM,
                # one open then one seal each.
                assert sorted(per_store.values()) == (
                    [["get_batch", "put_batch"]] * 2
                ), name
                assert (opens.value - before[0], seals.value - before[1]) == (
                    2, 2
                ), name
        finally:
            store.close()

    def test_fault_in_the_second_batch_seals_nothing(self, monkeypatch):
        """An unarmed deployment executes in place: a fault after the
        first table's scan must leave the faulted unit's sealed
        partition byte for byte what it was."""
        store = build_store(num_load_balancers=3)
        calls = fault_after_the_first_scan(monkeypatch, suboram_id=0)
        unit = store.suborams[0]
        before = [
            unit.store.host_ciphertext(s) for s in range(unit.num_objects)
        ]
        values = {k: unit.peek(k) for k in unit.object_keys()}
        for k in range(9):
            store.submit(Request(OpType.WRITE, k, b"zzzz"), load_balancer=k % 3)
        with pytest.raises(WorkerCrashError):
            store.run_epoch()
        assert calls == {"epochs": 1, "scans": 2}
        assert [
            unit.store.host_ciphertext(s) for s in range(unit.num_objects)
        ] == before
        assert {k: unit.peek(k) for k in unit.object_keys()} == values
        store.close()

    def test_retry_after_a_second_batch_fault_equals_a_fault_free_twin(
        self, monkeypatch
    ):
        replies = {}
        for armed in (True, False):
            monkeypatch.undo()
            calls = {"epochs": 0, "scans": 0}
            if armed:
                calls = fault_after_the_first_scan(monkeypatch, suboram_id=1)
            store = build_store(num_load_balancers=3, epoch_max_attempts=2)
            tickets = []
            for epoch in range(2):
                for k in range(10):
                    op = OpType.WRITE if (k + epoch) % 2 else OpType.READ
                    value = bytes([epoch + 1, k, 0, 0]) if op is OpType.WRITE else None
                    tickets.append(store.submit(
                        Request(op, k, value), load_balancer=k % 3
                    ))
                store.run_epoch()
            replies[armed] = [t.result().value for t in tickets]
            assert store.fault_stats["epochs_retried"] == int(armed)
            store.close()
            if armed:
                # The faulted attempt, its retry, and the second epoch.
                assert calls["epochs"] == 3 and calls["scans"] > 2
        assert replies[True] == replies[False]


def fault_after_the_first_scan(monkeypatch, suboram_id):
    """Crash ``suboram_id``'s first ``run_epoch`` in its second table's
    scan — after the first table's scan wrote the resident partition.
    Returns the live ``{"epochs", "scans"}`` call counts of that unit."""
    calls = {"epochs": 0, "scans": 0}
    run_epoch, scan = SubOram.run_epoch, SubOram._scan_vectorized

    def counting_epoch(self, batches):
        if self.suboram_id == suboram_id:
            calls["epochs"] += 1
        return run_epoch(self, batches)

    def faulty_scan(self, *args):
        if self.suboram_id == suboram_id:
            calls["scans"] += 1
            if calls["epochs"] == 1 and calls["scans"] == 2:
                raise WorkerCrashError(
                    "crash in the second table's scan", unit=suboram_id
                )
        return scan(self, *args)

    monkeypatch.setattr(SubOram, "run_epoch", counting_epoch)
    monkeypatch.setattr(SubOram, "_scan_vectorized", faulty_scan)
    return calls
