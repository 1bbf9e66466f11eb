"""Chaos tests: seeded fault plans must never change what the system serves.

The acceptance bar for the fault-tolerance layer: a deterministic
`FaultPlan` injecting worker crashes, task timeouts, and replica
crash+rollback events across a 10-epoch run must yield **byte-identical
responses** to the fault-free serial run — no request dropped, every
ticket resolved — on the thread backend with both oblivious kernels and
with the subORAMs in their own worker processes (`WorkerCluster`), and
`fault_stats` must report the injected events exactly.

The plan and injector themselves are pinned here too: the seeded
schedules CI soaks replay, exactly-once firing under concurrent
stage-➋ probes, and the link seam driven directly.

Failure handling is public information (SECURITY.md): the slot-access
trace of the state the deployment *keeps* is also asserted identical to
the fault-free run, because failed atomic attempts execute on discarded
copies.

The drivers (tracing subORAMs, seeded workload, store builder) are the
shared ones from :mod:`tests.harness`.
"""

import contextlib
import random
import sys
import threading

import pytest

from repro.core.config import SnoopyConfig
from repro.core.deployment import DistributedSnoopy
from repro.core.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    NetFaultEvent,
)
from repro.crypto.keys import KeyChain
from repro.errors import TransportError
from repro.serve.chaos import build_soak_plan
from repro.serve.workers import WorkerCluster

from tests.harness import (
    access_traces,
    build_store as harness_build_store,
    run_workload,
    seeded_workload,
    tracing_factory,
)

MASTER = b"chaos-test-master-key-0123456789"[:32]
EPOCHS = 10
NUM_KEYS = 48
VALUE = 8

#: The acceptance-criteria schedule: one worker crash, one task timeout,
#: one replica crash, one replica rollback, spread over a 10-epoch run.
ACCEPTANCE_PLAN = FaultPlan([
    FaultEvent(epoch=2, kind="worker_crash", unit=1),
    FaultEvent(epoch=3, kind="replica_crash", unit=2, replica=1),
    FaultEvent(epoch=5, kind="task_timeout", unit=0),
    FaultEvent(epoch=6, kind="replica_rollback", unit=1, replica=0),
])

#: Backend-seam-only schedule for deployments without replica groups.
BACKEND_PLAN = FaultPlan([
    FaultEvent(epoch=2, kind="worker_crash", unit=1),
    FaultEvent(epoch=5, kind="task_timeout", unit=0),
])

#: The injector's counters, zero-filled over every epoch and link kind.
NO_FAULTS_FIRED = {
    "worker_crashes": 0,
    "tasks_timed_out": 0,
    "replica_crashes": 0,
    "replica_rollbacks": 0,
    "transport_errors": 0,
    "net_conn_drops": 0,
    "net_frame_delays": 0,
    "net_partitions": 0,
    "net_frames_truncated": 0,
    "net_frames_duplicated": 0,
    "net_slow_handshakes": 0,
}

WORKLOAD = seeded_workload(
    EPOCHS, 6, seed=7, num_keys=NUM_KEYS, value_size=VALUE, value_offset=1
)


def build_store(backend, kernel="python", plan=None, replication=None,
                max_attempts=4, suboram_factory=None):
    """The chaos-suite deployment: 2 LB x 3 subORAMs over 48 objects."""
    return harness_build_store(
        backend,
        master=MASTER,
        objects={k: bytes([k % 251]) * VALUE for k in range(NUM_KEYS)},
        kernel=kernel,
        plan=plan,
        replication=replication,
        max_attempts=max_attempts,
        suboram_factory=suboram_factory,
        value_size=VALUE,
    )


@pytest.fixture(scope="module")
def baseline():
    """The fault-free, unreplicated, legacy-config serial run."""
    store = build_store("serial", max_attempts=1)
    responses, tickets = run_workload(store, WORKLOAD)
    results = [ticket.result() for ticket in tickets]
    store.close()
    return responses, results


class TestAcceptance:
    """The ISSUE's acceptance criteria, verbatim."""

    @pytest.mark.parametrize("backend", ["thread:4", "process-workers"])
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_fault_plan_is_byte_identical_to_fault_free_serial(
        self, baseline, backend, kernel
    ):
        """``thread:4`` runs the full plan over (1, 1) replica groups; the
        ``process-workers`` cell runs ``BACKEND_PLAN`` on ``thread:4`` with
        every subORAM in its own `WorkerCluster` worker process."""
        baseline_responses, baseline_results = baseline
        replicated = backend == "thread:4"
        with contextlib.ExitStack() as stack:
            if replicated:
                store = build_store(
                    backend, kernel=kernel, plan=ACCEPTANCE_PLAN,
                    replication=(1, 1),
                )
            else:
                cluster = stack.enter_context(WorkerCluster(
                    3, value_size=VALUE, security_parameter=16, kernel=kernel
                ))
                cluster.start()
                store = build_store(
                    "thread:4", kernel=kernel, plan=BACKEND_PLAN,
                    suboram_factory=cluster.factory,
                )
            responses, tickets = run_workload(store, WORKLOAD)
            results = [ticket.result() for ticket in tickets]
            stats = store.fault_stats
            store.close()

        # Byte-identical responses, epoch by epoch: no request dropped.
        assert responses == baseline_responses
        # Every ticket resolves, with the same response the fault-free
        # run produced.
        assert results == baseline_results

        # fault_stats reports the injected events exactly. The crash and
        # the timeout each failed (and retried) one epoch; the crashed and
        # the rolled-back replica were each healed at the next epoch
        # boundary.
        assert stats == {
            **NO_FAULTS_FIRED,
            "epochs_failed": 2,
            "epochs_retried": 2,
            "replicas_recovered": 2 if replicated else 0,
            "worker_crashes": 1,
            "tasks_timed_out": 1,
            "replica_crashes": 1 if replicated else 0,
            "replica_rollbacks": 1 if replicated else 0,
        }

    def test_injector_consumed_every_scheduled_event(self):
        store = build_store("serial", plan=ACCEPTANCE_PLAN,
                            replication=(1, 1))
        run_workload(store, WORKLOAD)
        assert store._injector.pending == []
        store.close()


class TestGeneratedPlans:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(seed=11, epochs=10, num_suborams=3,
                               num_replicas=3)
        b = FaultPlan.generate(seed=11, epochs=10, num_suborams=3,
                               num_replicas=3)
        assert a.events == b.events
        c = FaultPlan.generate(seed=12, epochs=10, num_suborams=3,
                               num_replicas=3)
        assert a.events != c.events

    def test_generated_plan_runs_clean(self):
        plan = FaultPlan.generate(seed=11, epochs=EPOCHS, num_suborams=3,
                                  num_replicas=3)
        assert len(plan) == 4  # crash, timeout, replica crash + rollback
        store = build_store("thread:4", plan=plan, replication=(1, 1))
        responses, tickets = run_workload(store, WORKLOAD)
        for ticket in tickets:
            ticket.result()  # every ticket resolves
        # Every scheduled event fired and was counted.
        fired = {
            counter: store.fault_stats[counter] for counter in NO_FAULTS_FIRED
        }
        assert fired == plan.counts()
        assert store.injector.stats == plan.counts()
        store.close()

    def test_unreplicated_plans_skip_replica_faults(self):
        plan = FaultPlan.generate(seed=3, epochs=5, num_suborams=2)
        assert all(not e.kind.startswith("replica") for e in plan)
        assert all(e.kind != "transport_error" for e in plan)


class TestTraceUnderFaults:
    """Obliviousness under faults: the kept state's access trace is the
    fault-free trace — failed atomic attempts ran on discarded copies."""

    def test_kept_trace_matches_fault_free_run(self):
        quiet = build_store("serial", max_attempts=1,
                            suboram_factory=tracing_factory)
        quiet_responses, _ = run_workload(quiet, WORKLOAD)
        quiet_traces = access_traces(quiet)
        quiet.close()

        chaotic = build_store("thread:4", plan=BACKEND_PLAN,
                              suboram_factory=tracing_factory)
        chaotic_responses, _ = run_workload(chaotic, WORKLOAD)
        chaotic_traces = access_traces(chaotic)
        chaotic.close()

        assert chaotic_responses == quiet_responses
        assert chaotic_traces == quiet_traces
        assert all(len(trace) > 0 for trace in quiet_traces)


class TestDistributedChaos:
    def test_transport_faults_are_retried_transparently(self):
        def build(plan, max_attempts):
            config = SnoopyConfig(
                num_load_balancers=2,
                num_suborams=3,
                value_size=VALUE,
                security_parameter=16,
                execution_backend="serial",
                epoch_max_attempts=max_attempts,
            )
            store = DistributedSnoopy(
                config, keychain=KeyChain(master=MASTER),
                rng=random.Random(5), fault_plan=plan,
            )
            store.initialize(
                {k: bytes([k % 251]) * VALUE for k in range(NUM_KEYS)}
            )
            return store

        quiet = build(plan=None, max_attempts=1)
        quiet_responses, _ = run_workload(quiet, WORKLOAD)
        quiet.close()

        plan = FaultPlan([
            FaultEvent(epoch=2, kind="transport_error", unit=1),
            FaultEvent(epoch=7, kind="transport_error", unit=0),
        ])
        chaotic = build(plan=plan, max_attempts=3)
        chaotic_responses, tickets = run_workload(chaotic, WORKLOAD)
        assert chaotic_responses == quiet_responses
        for ticket in tickets:
            ticket.result()
        assert chaotic.fault_stats["transport_errors"] == 2
        assert chaotic.fault_stats["epochs_failed"] == 2
        assert chaotic.fault_stats["epochs_retried"] == 2
        chaotic.close()

    def test_distributed_replication_with_replica_faults(self):
        config = SnoopyConfig(
            num_load_balancers=2,
            num_suborams=3,
            value_size=VALUE,
            security_parameter=16,
            execution_backend="thread:4",
            epoch_max_attempts=3,
            replication=(1, 1),
        )
        plan = FaultPlan([
            FaultEvent(epoch=2, kind="replica_crash", unit=0, replica=2),
            FaultEvent(epoch=4, kind="replica_rollback", unit=1, replica=1),
        ])
        store = DistributedSnoopy(
            config, keychain=KeyChain(master=MASTER),
            rng=random.Random(5), fault_plan=plan,
        )
        store.initialize(
            {k: bytes([k % 251]) * VALUE for k in range(NUM_KEYS)}
        )
        responses, tickets = run_workload(store, WORKLOAD)
        assert [r for epoch in responses for r in epoch]  # served requests
        for ticket in tickets:
            ticket.result()
        assert store.fault_stats["replica_crashes"] == 1
        assert store.fault_stats["replica_rollbacks"] == 1
        assert store.fault_stats["replicas_recovered"] == 2
        store.close()


class TestFaultStatsSurface:
    def test_fault_free_run_reports_zero_everywhere(self):
        store = build_store("serial", max_attempts=1)
        run_workload(store, WORKLOAD)
        assert store.fault_stats == {
            "epochs_failed": 0,
            "epochs_retried": 0,
            "replicas_recovered": 0,
        }
        store.close()

    def test_plan_without_faults_extends_stats_with_injector_counters(self):
        store = build_store("serial", plan=FaultPlan())
        run_workload(store, WORKLOAD)
        assert store.fault_stats == {
            "epochs_failed": 0,
            "epochs_retried": 0,
            "replicas_recovered": 0,
            **NO_FAULTS_FIRED,
        }
        store.close()


#: ``demo --faults SEED --epochs 10 --suborams 3``: the CI soak schedules.
DEMO_SCHEDULES = {
    11: (FaultEvent(8, "task_timeout", 1), FaultEvent(8, "worker_crash", 2)),
    23: (FaultEvent(1, "task_timeout", 2), FaultEvent(5, "worker_crash", 0)),
    37: (FaultEvent(10, "task_timeout", 2), FaultEvent(10, "worker_crash", 0)),
}

#: ``chaos-net --seed SEED --epochs EPOCHS [--worker-processes]`` with the
#: CLI's 8 requests per epoch and 2 subORAMs: the CI network soak plans.
SOAK_SCHEDULES = {
    (3, 12, False): (
        NetFaultEvent("client", 1, "slow_handshake",
                      delay_s=0.01146490819344139),
        NetFaultEvent("client", 48, "frame_delay",
                      delay_s=0.01840295142288864),
        NetFaultEvent("client", 61, "frame_duplicate"),
        NetFaultEvent("client", 76, "conn_drop"),
        NetFaultEvent("client", 78, "frame_truncate"),
        NetFaultEvent("client", 81, "partition", span=2),
    ),
    (11, 12, False): (
        NetFaultEvent("client", 1, "slow_handshake",
                      delay_s=0.006764623989865984),
        NetFaultEvent("client", 13, "frame_duplicate"),
        NetFaultEvent("client", 24, "partition", span=2),
        NetFaultEvent("client", 58, "frame_delay",
                      delay_s=0.01064898418818315),
        NetFaultEvent("client", 72, "conn_drop"),
        NetFaultEvent("client", 81, "frame_truncate"),
    ),
    (23, 12, False): (
        NetFaultEvent("client", 1, "slow_handshake",
                      delay_s=0.001267443360386372),
        NetFaultEvent("client", 11, "conn_drop"),
        NetFaultEvent("client", 17, "frame_truncate"),
        NetFaultEvent("client", 35, "frame_duplicate"),
        NetFaultEvent("client", 68, "partition", span=2),
        NetFaultEvent("client", 76, "frame_delay",
                      delay_s=0.0068281343955636075),
    ),
    (7, 10, True): (
        NetFaultEvent("client", 1, "slow_handshake",
                      delay_s=0.009239267989585333),
        NetFaultEvent("client", 5, "frame_duplicate"),
        NetFaultEvent("client", 7, "frame_delay",
                      delay_s=0.0023762894466833125),
        NetFaultEvent("client", 20, "conn_drop"),
        NetFaultEvent("client", 47, "partition", span=2),
        NetFaultEvent("client", 65, "frame_truncate"),
        NetFaultEvent("worker-0", 1, "slow_handshake",
                      delay_s=0.008613494509425015),
        NetFaultEvent("worker-0", 2, "partition", span=2),
        NetFaultEvent("worker-0", 4, "frame_truncate"),
        NetFaultEvent("worker-0", 6, "conn_drop"),
        NetFaultEvent("worker-1", 3, "frame_delay",
                      delay_s=0.004669216307934534),
    ),
}


class TestPinnedSchedules:
    """A seed names the same schedule forever, so every CI soak keeps the
    fault coverage it was written against."""

    @pytest.mark.parametrize("seed", sorted(DEMO_SCHEDULES))
    def test_demo_soak_schedules(self, seed):
        plan = FaultPlan.generate(seed=seed, epochs=10, num_suborams=3)
        assert plan.events == DEMO_SCHEDULES[seed]

    @pytest.mark.parametrize("soak", sorted(SOAK_SCHEDULES))
    def test_network_soak_schedules(self, soak):
        seed, epochs, worker_links = soak
        plan = build_soak_plan(seed, epochs, 8, 2, worker_links=worker_links)
        assert plan.events == SOAK_SCHEDULES[soak]

    def test_one_generate_draws_epoch_kinds_then_link_kinds(self):
        epoch_args = dict(epochs=6, num_suborams=3, num_replicas=2,
                          with_transport=True)
        link_args = dict(links=["a", "b"], messages=9)
        both = FaultPlan.generate(4, **epoch_args, **link_args)
        epoch_only = FaultPlan.generate(4, **epoch_args)
        assert both.events[:len(epoch_only)] == epoch_only.events
        assert all(
            isinstance(event, NetFaultEvent)
            for event in both.events[len(epoch_only):]
        )


class TestInjectorConcurrency:
    def test_concurrent_transport_probes_fire_each_event_exactly_once(self):
        """On ``thread:N`` the stage-➋ units probe ``transport_fault``
        concurrently; none may lose, misfire or double-count an event."""
        units, trials = 8, 20_000
        plan = FaultPlan(
            [FaultEvent(1, "transport_error", unit) for unit in range(units)]
        )
        injectors = [FaultInjector(plan) for _ in range(trials)]
        for injector in injectors:
            injector.begin_epoch(1)
        fired = [[None] * units for _ in range(trials)]
        start = threading.Barrier(units, timeout=30)

        def probe(unit):
            start.wait()
            for trial, injector in enumerate(injectors):
                fired[trial][unit] = injector.transport_fault(unit)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=probe, args=(unit,))
                for unit in range(units)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        broken = [
            trial for trial, injector in enumerate(injectors)
            if fired[trial] != [True] * units
            or injector.pending != []
            or injector.stats["transport_errors"] != units
        ]
        assert broken == []


class TestLinkSeam:
    """The serve layer's link seam, driven without sockets."""

    def test_partition_refuses_exactly_span_operations_then_clears(self):
        plan = FaultPlan([NetFaultEvent("a", 2, "partition", span=3)])
        injector = FaultInjector(plan)
        assert injector.on_send("a") is None
        with pytest.raises(TransportError, match="partitioned for 3"):
            injector.on_send("a")
        assert not injector.exhausted  # nothing pending, partition in force
        for operation in (injector.on_send, injector.on_connect,
                          injector.on_send):
            assert injector.on_send("b") is None  # other links unaffected
            with pytest.raises(TransportError, match="is partitioned"):
                operation("a")
        assert injector.exhausted
        assert injector.on_connect("a") is None
        assert injector.on_send("a") is None
        assert injector.stats == plan.counts()
        assert injector.stats["net_partitions"] == 1

    def test_unarmed_injector_neither_counts_nor_fires(self):
        plan = FaultPlan([
            FaultEvent(1, "worker_crash", 0),
            FaultEvent(1, "transport_error", 0),
            NetFaultEvent("a", 1, "conn_drop"),
            NetFaultEvent("a", 1, "slow_handshake", delay_s=0.01),
        ])
        injector = FaultInjector(plan, armed=False)
        injector.begin_epoch(1)
        assert injector.stage_fault(0) is None
        assert injector.transport_fault(0) is False
        for _ in range(3):
            assert injector.on_connect("a") is None
            assert injector.on_send("a") is None
        assert injector.stats == NO_FAULTS_FIRED
        assert injector.pending == list(plan.events)
        # Unarmed operations were not counted: once armed, the next
        # connect and send are operation 1 again.
        injector.armed = True
        assert injector.stage_fault(0) == "worker_crash"
        assert injector.transport_fault(0) is True
        assert injector.on_connect("a").kind == "slow_handshake"
        assert injector.on_send("a").kind == "conn_drop"
        assert injector.stats == plan.counts()

    def test_slow_handshake_fires_only_on_connect_one_of_its_link(self):
        event = NetFaultEvent("a", 1, "slow_handshake", delay_s=0.01)
        injector = FaultInjector(FaultPlan([event]))
        assert injector.on_send("a") is None  # sends never fire it
        assert injector.on_connect("b") is None  # nor another link
        assert injector.on_connect("a") == event
        assert injector.on_connect("a") is None
        assert injector.stats["net_slow_handshakes"] == 1
        generated = FaultPlan.generate(
            5, links=["a", "b", "c"], messages=4, intensity=3,
            kinds=["slow_handshake"],
        )
        assert sorted(event.link for event in generated) == ["a", "b", "c"]
        assert {event.message for event in generated} == {1}

    def test_frame_delay_sleeps_delay_s_and_returns_none(self):
        slept = []
        plan = FaultPlan([NetFaultEvent("a", 2, "frame_delay", delay_s=0.25)])
        injector = FaultInjector(plan, sleep=slept.append)
        assert injector.on_send("a") is None
        assert slept == []
        assert injector.on_send("a") is None
        assert slept == [0.25]
        assert injector.stats == plan.counts()

    def test_mixed_plan_stats_equal_counts_once_fully_fired(self):
        plan = FaultPlan.generate(
            9, epochs=4, num_suborams=2, num_replicas=2,
            with_transport=True,
            links=["a"], messages=6,
        )
        # One event of every kind, epoch and link seam alike.
        assert plan.counts() == dict.fromkeys(FAULT_KINDS.values(), 1)
        injector = FaultInjector(plan, sleep=lambda seconds: None)
        for epoch in range(1, 5):
            injector.begin_epoch(epoch)
            injector.replica_faults("replica_crash")
            injector.replica_faults("replica_rollback")
            for unit in range(2):
                while injector.stage_fault(unit) is not None:
                    pass
                injector.transport_fault(unit)
        injector.on_connect("a")
        for _ in range(20):
            try:
                injector.on_send("a")
            except TransportError:
                pass
        assert injector.exhausted
        assert injector.pending == []
        assert injector.stats == plan.counts()
