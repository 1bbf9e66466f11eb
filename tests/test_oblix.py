"""Tests for the Oblix-lite baseline."""

import random

import pytest

from repro.baselines.oblix import OblixMap, OblixSubOram
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
    @staticmethod
    def adapter(seed):
        oblix = OblixSubOram(0, rng=random.Random(seed))
        oblix.initialize({k: bytes([k]) for k in range(64)})
        return oblix

    @staticmethod
    def read(oblix, key):
        [reply] = oblix.run_epoch([Batch.from_entries(
            [BatchEntry(op=OpType.READ, key=key, is_dummy=False)], 1
        )])
        return reply.entries()[0].value

    def test_run_epoch_serves_snoopy_batches(self):
        oblix = self.adapter(4)
        batch = Batch.from_entries([
            BatchEntry(op=OpType.READ, key=5, is_dummy=False),
            BatchEntry(op=OpType.WRITE, key=6, value=b"w", is_dummy=False),
            BatchEntry(op=OpType.READ, key=-(10**9), is_dummy=True),
        ], 1)
        before = batch.to_bytes()
        [reply] = oblix.run_epoch([batch])
        assert batch.to_bytes() == before
        responses = reply.entries()
        assert len(responses) == 3
        by_key = {e.key: e for e in responses if not e.is_dummy}
        assert by_key[5].value == bytes([5])
        assert by_key[6].value == bytes([6])  # prior value
        assert self.read(oblix, 6) == b"w"

    def test_batches_served_in_order(self):
        """Batch 1 of an epoch reads batch 0's write."""
        oblix = self.adapter(4)
        write, read = (Batch.from_entries([BatchEntry(
            op=op, key=9, value=value, is_dummy=False
        )], 1) for op, value in ((OpType.WRITE, b"x"), (OpType.READ, None)))
        replies = oblix.run_epoch([write, read])
        assert [r.entries()[0].value for r in replies] == [bytes([9]), b"x"]

    def test_denied_write_is_not_applied(self):
        """§D: a write whose permitted bit is clear leaves the object
        unchanged, and its reply carries the prior value."""
        oblix = self.adapter(6)
        [reply] = oblix.run_epoch([Batch.from_entries([BatchEntry(
            op=OpType.WRITE, key=7, value=b"d", is_dummy=False, permitted=0,
        )], 1)])
        assert reply.entries()[0].value == bytes([7])
        assert self.read(oblix, 7) == bytes([7])

    def test_dummy_requests_cost_real_accesses(self):
        oblix = self.adapter(5)
        before = oblix._map.data_oram.accesses
        oblix.run_epoch([Batch.from_entries(
            [BatchEntry(op=OpType.READ, key=-(10**9 + i), is_dummy=True)
             for i in range(4)], 1
        )])
        assert oblix._map.data_oram.accesses - before == 4
