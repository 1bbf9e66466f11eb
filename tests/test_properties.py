"""Hypothesis property suite over the full request pipeline and core
invariants.

These complement the per-module property tests: they drive randomized
*workloads* (generated by hypothesis) through complete components and
check the end-to-end contracts the paper proves.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.balls_bins import batch_size
from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.oblivious.soa import Batch
from repro.types import OpType, Request

KEY = b"property-sharding-key-0123456789"

# A workload: list of (key, is_write) pairs over a small key space.
workloads = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.booleans()),
    min_size=1,
    max_size=40,
)


def to_requests(workload):
    return [
        Request(
            OpType.WRITE if is_write else OpType.READ,
            key,
            bytes([seq % 256]) * 4 if is_write else None,
            seq=seq,
        )
        for seq, (key, is_write) in enumerate(workload)
    ]


class TestBatchPipelineProperties:
    @given(workloads, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_no_request_dropped_and_batches_uniform(self, workload, suborams):
        requests = to_requests(workload)
        batches, originals, size = generate_batches(
            requests, suborams, KEY, security_parameter=32, value_size=4
        )
        assert size == batch_size(len(requests), suborams, 32)
        assert all(len(b) == size for b in batches)
        sent = {
            e.key for b in batches for e in b.entries() if not e.is_dummy
        }
        assert sent == {r.key for r in requests}
        assert len(originals) == len(requests)

    @given(workloads, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_distinctness_per_batch(self, workload, suborams):
        requests = to_requests(workload)
        batches, _, _ = generate_batches(
            requests, suborams, KEY, security_parameter=32, value_size=4
        )
        for batch in batches:
            keys = batch.key.tolist()
            assert len(keys) == len(set(keys))

    @given(workloads, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_match_round_trips_every_request(self, workload, suborams):
        requests = to_requests(workload)
        store = {k: bytes([k % 256]) * 4 for k in range(31)}
        batches, originals, _ = generate_batches(
            requests, suborams, KEY, security_parameter=32, value_size=4
        )
        responses = [e for batch in batches for e in batch.entries()]
        for entry in responses:
            entry.value = store.get(entry.key)
        results = match_responses(
            originals, Batch.from_entries(responses, 4)
        ).responses()
        assert [r.key for r in results] == [r.key for r in requests]
        for result in results:
            assert result.value == store[result.key]


class TestSystemProperties:
    @given(workloads)
    @settings(max_examples=15, deadline=None)
    def test_epoch_responses_are_pre_epoch_values(self, workload):
        """Single-balancer epochs: every response = pre-epoch value."""
        store = Snoopy(
            SnoopyConfig(num_load_balancers=1, num_suborams=2, value_size=4,
                         security_parameter=16),
            rng=random.Random(0),
        )
        contents = {k: bytes([k]) * 4 for k in range(31)}
        store.initialize(dict(contents))
        responses = store.batch(to_requests(workload))
        for response in responses:
            assert response.value == contents[response.key]

    @given(workloads)
    @settings(max_examples=15, deadline=None)
    def test_last_write_wins_state(self, workload):
        """Post-epoch state = initial + last write per key."""
        store = Snoopy(
            SnoopyConfig(num_load_balancers=1, num_suborams=2, value_size=4,
                         security_parameter=16),
            rng=random.Random(0),
        )
        contents = {k: bytes([k]) * 4 for k in range(31)}
        store.initialize(dict(contents))
        requests = to_requests(workload)
        store.batch(requests)
        expected = dict(contents)
        for request in requests:
            if request.op is OpType.WRITE:
                expected[request.key] = request.value
        for key in contents:
            assert store.read(key) == expected[key]


class TestTheorem3Property:
    @given(
        st.integers(min_value=1, max_value=50_000),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=120, deadline=None)
    def test_bound_monotone_in_bins_total(self, requests, bins):
        """Total padded volume S*B never decreases when S grows."""
        if bins >= 2:
            total_small = (bins - 1) * batch_size(requests, bins - 1, 128)
            total_large = bins * batch_size(requests, bins, 128)
            assert total_large >= total_small or total_small == requests
