"""Access-pattern obliviousness tests — the mechanical analogue of §B.

Each test runs one oblivious component twice with identical *public*
parameters but different *secret* inputs (request contents, object ids,
flags) and asserts the recorded address traces are identical.  This is the
checkable core of the simulation argument: a simulator knowing only public
information could replay the trace.
"""

import random

import numpy
import pytest

from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.oblivious.compact import goodrich_compact
from repro.oblivious.memory import AccessTrace, TracedMemory
from repro.oblivious.soa import Batch
from repro.oblivious.sort import bitonic_sort
from repro.types import OpType, Request
from tests.harness import table_layouts

KEY = b"sharding-key-0123456789abcdef..."


class TraceCollector:
    """A mem_factory that accumulates all accesses onto a single trace."""

    def __init__(self):
        self.trace = AccessTrace()

    def __call__(self, items):
        return TracedMemory(items, trace=self.trace)


def batching_trace(requests, num_suborams=3):
    collector = TraceCollector()
    generate_batches(
        requests, num_suborams, KEY, security_parameter=16,
        mem_factory=collector, value_size=1,
    )
    return collector.trace


def matching_trace(requests, num_suborams=3):
    batches, originals, _ = generate_batches(
        requests, num_suborams, KEY, security_parameter=16, value_size=1
    )
    responses = Batch.concat(batches)
    responses = responses.replace(  # every row answered with b"v"
        value=numpy.full_like(responses.value, ord("v")),
        has_value=numpy.ones(len(responses), dtype=bool),
    )
    collector = TraceCollector()
    match_responses(originals, responses, mem_factory=collector)
    return collector.trace


class TestPrimitiveTraces:
    def test_sort_trace_data_independent(self, rng):
        n = 30
        runs = []
        for _ in range(2):
            collector = TraceCollector()
            bitonic_sort(
                [rng.randrange(10**6) for _ in range(n)],
                mem_factory=collector,
            )
            runs.append(collector.trace)
        assert runs[0] == runs[1]

    def test_compact_trace_flag_independent(self, rng):
        n = 30
        runs = []
        for _ in range(2):
            collector = TraceCollector()
            goodrich_compact(
                list(range(n)),
                [rng.randrange(2) for _ in range(n)],
                mem_factory=collector,
            )
            runs.append(collector.trace)
        assert runs[0] == runs[1]


class TestLoadBalancerTraces:
    def test_batching_trace_independent_of_keys(self, rng):
        """Same R, S: different requested objects leave the same trace."""
        t1 = batching_trace(
            [Request(OpType.READ, k, seq=i) for i, k in
             enumerate(rng.sample(range(10**6), 20))]
        )
        t2 = batching_trace(
            [Request(OpType.READ, k, seq=i) for i, k in
             enumerate(rng.sample(range(10**6), 20))]
        )
        assert t1 == t2
        assert len(t1) > 0

    def test_batching_trace_independent_of_ops(self, rng):
        keys = rng.sample(range(10**6), 15)
        t_reads = batching_trace(
            [Request(OpType.READ, k, seq=i) for i, k in enumerate(keys)]
        )
        t_writes = batching_trace(
            [Request(OpType.WRITE, k, b"v", seq=i) for i, k in enumerate(keys)]
        )
        assert t_reads == t_writes

    def test_batching_trace_independent_of_skew(self, rng):
        uniform = [
            Request(OpType.READ, k, seq=i)
            for i, k in enumerate(rng.sample(range(10**6), 20))
        ]
        skewed = [Request(OpType.READ, 7, seq=i) for i in range(20)]
        assert batching_trace(uniform) == batching_trace(skewed)

    def test_matching_trace_independent_of_contents(self, rng):
        t1 = matching_trace(
            [Request(OpType.READ, k, seq=i) for i, k in
             enumerate(rng.sample(range(10**6), 12))]
        )
        t2 = matching_trace(
            [Request(OpType.READ, k, seq=i) for i, k in
             enumerate(rng.sample(range(10**6), 12))]
        )
        assert t1 == t2

    def test_trace_differs_for_different_public_params(self, rng):
        """Sanity: the trace is allowed to (and does) depend on R."""
        t_small = batching_trace(
            [Request(OpType.READ, 1, seq=0)]
        )
        t_large = batching_trace(
            [Request(OpType.READ, k, seq=i) for i, k in
             enumerate(rng.sample(range(10**6), 20))]
        )
        assert t_small != t_large


class TestHashTableLayout:
    def test_slot_layout_public(self, rng):
        """Table dimensions and slot count depend only on capacity, at
        both tier-2 layouts."""
        from repro.oblivious.hashtable import TwoTierHashTable

        for params in (None, table_layouts(50)[1]):
            def build(keys):
                return TwoTierHashTable.build(keys, b"batch-key", params)

            t1 = build(rng.sample(range(10**9), 50))
            t2 = build(rng.sample(range(10**9), 50))
            assert t1.params == t2.params
            assert len(t1.slot_items) == len(t2.slot_items)

    def test_lookup_touches_fixed_slot_count(self, rng):
        from repro.oblivious.hashtable import TwoTierHashTable

        keys = rng.sample(range(10**9), 40)
        for params in table_layouts(40):
            table = TwoTierHashTable.build(keys, b"batch-key", params)
            counts = {
                len(table.bucket_slot_indices(k))
                for k in list(keys) + [123456789, 42]
            }
            assert counts == {table.params.lookup_scan_slots}


class TestSubOramScanOrder:
    def test_store_access_sequence_fixed(self, rng):
        """The subORAM fetches and rewrites slots 0..N-1 in order, with
        identical (get, put) sequences for any batch contents."""
        from repro.suboram.suboram import SubOram

        sequences = []
        for trial in range(2):
            suboram = SubOram(
                0, value_size=4, security_parameter=16, kernel="python"
            )
            suboram.initialize({k: bytes([k]) * 4 for k in range(25)})
            log = []
            store = suboram.store
            original_get, original_put = store.get, store.put

            def spy_get(slot, _orig=original_get, _log=log):
                _log.append(("get", slot))
                return _orig(slot)

            def spy_put(slot, key, value, _orig=original_put, _log=log):
                _log.append(("put", slot))
                return _orig(slot, key, value)

            store.get, store.put = spy_get, spy_put
            keys = rng.sample(range(25), 6)
            batch = Batch.from_requests(
                [
                    Request(OpType.WRITE, k, b"wwww") if i % 2
                    else Request(OpType.READ, k)
                    for i, k in enumerate(keys)
                ],
                4,
            )
            suboram.batch_access(batch)
            sequences.append(log)
        assert sequences[0] == sequences[1]
        # Strictly interleaved get/put over slots 0..N-1.
        expected = []
        for slot in range(25):
            expected.extend([("get", slot), ("put", slot)])
        assert sequences[0] == expected


class TestHashTableConstructionTrace:
    def test_construction_trace_data_independent(self, rng):
        """The full oblivious construction (both tiers) leaves the same
        trace for any set of 60 distinct keys, with tier 2 in one bucket
        (the derived layout) or in Theorem-3 buckets."""
        from repro.oblivious.hashtable import TwoTierHashTable

        one_bucket, buckets = table_layouts(60)
        assert one_bucket.tier2_buckets == 1 < buckets.tier2_buckets
        for params in (None, buckets):
            traces = []
            for _ in range(2):
                collector = TraceCollector()
                TwoTierHashTable.build(
                    rng.sample(range(10**9), 60),
                    b"batch-key",
                    params,
                    mem_factory=collector,
                )
                traces.append(collector.trace)
            assert traces[0] == traces[1]
            assert len(traces[0]) > 0
