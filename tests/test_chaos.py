"""Chaos tests: seeded fault plans must never change what the system serves.

The acceptance bar for the fault-tolerance layer: a deterministic
`FaultPlan` injecting worker crashes, task timeouts, and replica
crash+rollback events across a 10-epoch run must yield **byte-identical
responses** to the fault-free serial run — no request dropped, every
ticket resolved — on the thread backend with both oblivious kernels and
with the subORAMs in their own worker processes (`WorkerCluster`), and
`fault_stats` must report the injected events exactly.

Failure handling is public information (SECURITY.md): the slot-access
trace of the state the deployment *keeps* is also asserted identical to
the fault-free run, because failed atomic attempts execute on discarded
copies.

The drivers (tracing subORAMs, seeded workload, store builder) are the
shared ones from :mod:`tests.harness`.
"""

import contextlib
import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.deployment import DistributedSnoopy
from repro.core.faults import FaultEvent, FaultPlan
from repro.crypto.keys import KeyChain
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
            "epochs_failed": 2,
            "epochs_retried": 2,
            "replicas_recovered": 2 if replicated else 0,
            "worker_crashes": 1,
            "tasks_timed_out": 1,
            "replica_crashes": 1 if replicated else 0,
            "replica_rollbacks": 1 if replicated else 0,
            "transport_errors": 0,
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
            kind: store.fault_stats[counter]
            for kind, counter in (
                ("worker_crash", "worker_crashes"),
                ("task_timeout", "tasks_timed_out"),
                ("replica_crash", "replica_crashes"),
                ("replica_rollback", "replica_rollbacks"),
                ("transport_error", "transport_errors"),
            )
        }
        assert fired == plan.counts()
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
            "worker_crashes": 0,
            "tasks_timed_out": 0,
            "replica_crashes": 0,
            "replica_rollbacks": 0,
            "transport_errors": 0,
        }
        store.close()
