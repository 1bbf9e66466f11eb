"""Parallel backends must be byte-for-byte equivalent to serial execution.

The tentpole guarantee of the execution engine: switching backends changes
wall-clock, never results.  These tests run identical seeded workloads
through the ``serial`` and ``thread`` backends and require

* identical responses (same order, same bytes),
* identical per-subORAM memory traces — each subORAM sees the same
  batches in the same fixed balancer order and touches its encrypted
  store's slots in the same sequence,
* linearizable histories under the thread backend (Appendix C survives
  real concurrency).

The drivers (tracing subORAMs, seeded workload, store builder) are the
shared ones from :mod:`tests.harness`.
"""

import random

import pytest

from repro.core.client import Client
from repro.core.config import SnoopyConfig
from repro.core.linearizability import History, check_snoopy_history
from repro.core.snoopy import Snoopy

from tests.harness import (
    access_traces,
    build_store,
    run_workload,
    seeded_workload,
    tracing_factory,
)

MASTER = b"equivalence-test-master-key-....."[:32]
BACKENDS = ["serial", "thread:4"]
NUM_KEYS = 60


def equivalence_store(backend_spec):
    """One deployment with fixed keys; identical across backend specs."""
    return build_store(
        backend_spec,
        master=MASTER,
        objects={k: bytes([k % 256]) * 8 for k in range(NUM_KEYS)},
        suboram_factory=tracing_factory,
        rng_seed=42,
    )


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def runs(self):
        """The same workload executed once under each backend."""
        epochs = seeded_workload(3, 12, seed=99, num_keys=NUM_KEYS)
        results = {}
        for spec in BACKENDS:
            with equivalence_store(spec) as store:
                responses, tickets = run_workload(store, epochs)
                results[spec] = (responses, access_traces(store), tickets)
        return results

    @pytest.mark.parametrize("spec", BACKENDS[1:])
    def test_responses_identical(self, runs, spec):
        serial_responses = runs["serial"][0]
        assert runs[spec][0] == serial_responses

    @pytest.mark.parametrize("spec", BACKENDS[1:])
    def test_memory_traces_identical(self, runs, spec):
        serial_traces = runs["serial"][1]
        assert runs[spec][1] == serial_traces
        # Sanity: the traces are non-trivial.
        assert all(len(trace) > 0 for trace in serial_traces)

    @pytest.mark.parametrize("spec", BACKENDS)
    def test_tickets_resolve_with_matching_responses(self, runs, spec):
        responses_per_epoch, _, tickets = runs[spec]
        flat = [r for epoch in responses_per_epoch for r in epoch]
        assert len(tickets) == len(flat)
        for ticket in tickets:
            assert ticket.done
            assert ticket.result() in flat


class TestLinearizabilityUnderThreads:
    @pytest.mark.parametrize("spec", ["thread:4"])
    def test_random_history_linearizable(self, spec):
        """Appendix C's argument must survive a concurrent engine."""
        rng = random.Random(13)
        config = SnoopyConfig(
            num_load_balancers=3,
            num_suborams=3,
            value_size=4,
            security_parameter=16,
            execution_backend=spec,
        )
        with Snoopy(config, rng=random.Random(3)) as store:
            initial = {k: bytes([k]) * 4 for k in range(15)}
            store.initialize(dict(initial))
            clients = [Client(store, client_id=i) for i in range(4)]

            for _ in range(10):
                for client in clients:
                    for _ in range(rng.randrange(3)):
                        key = rng.randrange(15)
                        if rng.random() < 0.5:
                            client.submit_write(
                                key, bytes([rng.randrange(256)]) * 4
                            )
                        else:
                            client.submit_read(key)
                responses = store.run_epoch()
                for client in clients:
                    client.complete(responses)

            operations = [o for c in clients for o in c.history]
            assert operations, "history should be non-empty"
            check_snoopy_history(
                History(initial=initial, operations=operations)
            )
