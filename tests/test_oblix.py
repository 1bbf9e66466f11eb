"""Tests for the Oblix-lite baseline."""

import random

import pytest

from repro.baselines.oblix import OblixMap
from repro.oblivious.soa import Batch
from repro.types import BatchEntry, OpType


class TestBasics:
    def test_write_then_read(self):
        oblix = OblixMap(100, rng=random.Random(1))
        oblix.write(5, b"v")
        assert oblix.read(5) == b"v"

    def test_recursion_depth_grows_with_size(self):
        shallow = OblixMap(100, rng=random.Random(1))
        deep = OblixMap(2_000_000, rng=random.Random(1))
        assert shallow.recursion_depth == 1
        assert deep.recursion_depth > shallow.recursion_depth

    def test_recursion_step_at_pack_boundary(self):
        """The Fig. 10 step: sharding below pack^2*threshold drops a level."""
        full = OblixMap(2_000_000)
        shard = OblixMap(250_000)
        assert shard.recursion_depth == full.recursion_depth - 1

    def test_randomized_against_model(self):
        rng = random.Random(2)
        oblix = OblixMap(64, rng=random.Random(3))
        model = {}
        for _ in range(400):
            key = rng.randrange(64)
            if rng.random() < 0.5:
                value = bytes([rng.randrange(256)])
                assert oblix.write(key, value) == model.get(key)
                model[key] = value
            else:
                assert oblix.read(key) == model.get(key)


class TestSubOramAdapter:
    def test_batch_access_serves_snoopy_batches(self):
        oblix = OblixMap(64, rng=random.Random(4))
        oblix.initialize({k: bytes([k]) for k in range(64)})
        batch = Batch.from_entries([
            BatchEntry(op=OpType.READ, key=5, is_dummy=False),
            BatchEntry(op=OpType.WRITE, key=6, value=b"w", is_dummy=False),
            BatchEntry(op=OpType.READ, key=-(10**9), is_dummy=True),
        ], 1)
        before = batch.to_bytes()
        responses = oblix.batch_access(batch).entries()
        assert batch.to_bytes() == before
        assert len(responses) == 3
        by_key = {e.key: e for e in responses if not e.is_dummy}
        assert by_key[5].value == bytes([5])
        assert by_key[6].value == bytes([6])  # prior value
        assert oblix.read(6) == b"w"

    def test_dummy_requests_cost_real_accesses(self):
        oblix = OblixMap(64, rng=random.Random(5))
        oblix.initialize({k: bytes([k]) for k in range(64)})
        before = oblix.data_oram.accesses
        oblix.batch_access(Batch.from_entries(
            [BatchEntry(op=OpType.READ, key=-(10**9 + i), is_dummy=True)
             for i in range(4)], 1
        ))
        assert oblix.data_oram.accesses - before == 4
