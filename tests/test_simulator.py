"""Real-vs-ideal experiments (Appendix B), run as tests.

The adversary's distinguishing game, mechanized: execute the real
protocol on adversarially chosen requests, execute the simulator on
public information only, compare the traces.  Equality means the
distinguishing advantage is zero for the access-pattern channel.
"""

import random

import pytest

from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.oblivious.memory import AccessTrace, TracedMemory
from repro.oblivious.soa import Batch
from repro.security.simulator import (
    simulate_batching_trace,
    simulate_matching_trace,
    simulate_suboram_store_sequence,
)
from repro.suboram.suboram import SubOram
from repro.types import OpType, Request

KEY = b"sharding-key-0123456789abcdef..."


class _Collector:
    def __init__(self):
        self.trace = AccessTrace()

    def __call__(self, items):
        return TracedMemory(items, trace=self.trace)


def adversarial_workloads(rng):
    """A few 'adversarially chosen' request batches of equal size R=18."""
    uniform = [
        Request(OpType.READ, k, seq=i)
        for i, k in enumerate(rng.sample(range(10**6), 18))
    ]
    all_same = [Request(OpType.READ, 7, seq=i) for i in range(18)]
    writes = [
        Request(OpType.WRITE, k, b"w", seq=i)
        for i, k in enumerate(rng.sample(range(10**6), 18))
    ]
    return [uniform, all_same, writes]


class TestRealVsIdealLoadBalancer:
    def test_batching_real_equals_ideal(self, rng):
        ideal = simulate_batching_trace(18, 3, KEY, 16)
        for workload in adversarial_workloads(rng):
            collector = _Collector()
            generate_batches(workload, 3, KEY, 16, mem_factory=collector,
                             value_size=1)
            assert collector.trace == ideal

    def test_matching_real_equals_ideal(self, rng):
        ideal = simulate_matching_trace(18, 3, KEY, 16)
        for workload in adversarial_workloads(rng):
            batches, originals, _ = generate_batches(workload, 3, KEY, 16,
                                                     value_size=1)
            responses = [e for batch in batches for e in batch.entries()]
            for entry in responses:
                entry.value = b"real-secret-data"
            responses = Batch.from_entries(responses, 16)
            collector = _Collector()
            match_responses(originals, responses, mem_factory=collector)
            assert collector.trace == ideal

    def test_ideal_depends_only_on_public_params(self):
        assert simulate_batching_trace(18, 3, KEY, 16) == (
            simulate_batching_trace(18, 3, KEY, 16)
        )
        assert simulate_batching_trace(18, 3, KEY, 16) != (
            simulate_batching_trace(19, 3, KEY, 16)
        )


class TestRealVsIdealSubOram:
    def test_store_sequence_real_equals_ideal(self, rng):
        ideal = simulate_suboram_store_sequence(30)
        for trial in range(2):
            suboram = SubOram(
                0, value_size=4, security_parameter=16, kernel="python"
            )
            suboram.initialize({k: bytes([k]) * 4 for k in range(30)})
            log = []
            store = suboram.store
            orig_get, orig_put = store.get, store.put
            store.get = lambda slot, _o=orig_get: (log.append(("get", slot)), _o(slot))[1]
            store.put = lambda slot, key, value, _o=orig_put: (
                log.append(("put", slot)),
                _o(slot, key, value),
            )[1]
            keys = rng.sample(range(30), 7)
            suboram.batch_access(Batch.from_requests(
                [Request(OpType.READ, k) for k in keys], 4
            ))
            assert log == ideal


class TestHonestClientAmongAdversaries:
    """§B.7: one honest client's requests among adversarial clients."""

    def test_trace_hides_honest_clients_key(self, rng):
        """Fix the adversary's 17 requests; vary only the honest client's
        single read — the trace is identical, so the adversary (who also
        controls the cloud) learns nothing about the honest key."""
        adversarial = [
            Request(OpType.READ, k, client_id=666, seq=i)
            for i, k in enumerate(rng.sample(range(10**6), 17))
        ]
        traces = []
        for honest_key in (5, 99999):
            workload = adversarial + [
                Request(OpType.READ, honest_key, client_id=1, seq=0)
            ]
            collector = _Collector()
            generate_batches(workload, 3, KEY, 16, mem_factory=collector,
                             value_size=1)
            traces.append(collector.trace)
        assert traces[0] == traces[1]

    def test_responses_routed_to_correct_clients(self, rng):
        """The client-id/seq routing that §B.7's multi-client extension
        requires: every client gets exactly its own answers."""
        import random as _random

        from repro.core.config import SnoopyConfig
        from repro.core.snoopy import Snoopy

        store = Snoopy(
            SnoopyConfig(num_suborams=2, value_size=4, security_parameter=16),
            rng=_random.Random(1),
        )
        store.initialize({k: bytes([k]) * 4 for k in range(20)})
        for client in (1, 2, 3):
            store.submit(Request(OpType.READ, client, client_id=client, seq=7))
        responses = store.run_epoch()
        for response in responses:
            assert response.key == response.client_id  # own answer only
            assert response.seq == 7
