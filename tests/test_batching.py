"""Tests for oblivious batch generation (Figure 5 / Figure 25)."""

import random

import pytest

from repro.analysis.balls_bins import batch_size
from repro.crypto.prf import Prf
from repro.errors import BatchOverflowError
from repro.loadbalancer import batching
from repro.loadbalancer.batching import dummy_key
from repro.types import OpType, Request

KEY = b"sharding-key-0123456789abcdef..."
VS = 6  # value_size of every write below


def generate_batches(requests, *args, **kwargs):
    """``generate_batches`` with each Batch also readable as records."""
    batches, originals, size = batching.generate_batches(
        requests, *args, value_size=VS, **kwargs
    )
    return [b.entries() for b in batches], originals.entries(), size


def reads(keys, client=0):
    return [Request(OpType.READ, k, client_id=client, seq=i) for i, k in enumerate(keys)]


class TestBatchShape:
    def test_every_batch_exactly_b(self, rng):
        requests = reads(rng.sample(range(10_000), 40))
        batches, originals, size = generate_batches(requests, 4, KEY, 16)
        assert len(batches) == 4
        assert all(len(b) == size for b in batches)
        assert len(originals) == 40

    def test_batch_size_matches_theorem(self):
        requests = reads(range(100))
        _, _, size = generate_batches(requests, 5, KEY, 32)
        assert size == batch_size(100, 5, 32)

    def test_batch_size_public_across_contents(self, rng):
        """Same (R, S, lambda) -> same shape, any request contents."""
        a = generate_batches(reads(rng.sample(range(10**6), 30)), 3, KEY, 16)
        b = generate_batches(reads(rng.sample(range(10**6), 30)), 3, KEY, 16)
        assert a[2] == b[2]
        assert [len(x) for x in a[0]] == [len(x) for x in b[0]]

    def test_empty_epoch(self):
        batches, originals, size = generate_batches([], 3, KEY, 16)
        assert size == 0
        assert all(len(b) == 0 for b in batches)


class TestRouting:
    def test_requests_routed_to_hash_suboram(self, rng):
        prf = Prf(KEY)
        keys = rng.sample(range(10_000), 25)
        batches, _, _ = generate_batches(reads(keys), 4, KEY, 16)
        for s, batch in enumerate(batches):
            for entry in batch:
                if not entry.is_dummy:
                    assert prf.range(entry.key, 4) == s

    def test_no_request_dropped(self, rng):
        keys = rng.sample(range(10_000), 50)
        batches, _, _ = generate_batches(reads(keys), 4, KEY, 16)
        sent = {e.key for b in batches for e in b if not e.is_dummy}
        assert sent == set(keys)

    def test_dummies_fill_remainder(self):
        requests = reads([1, 2, 3])
        batches, _, size = generate_batches(requests, 2, KEY, 16)
        total_real = sum(1 for b in batches for e in b if not e.is_dummy)
        total_dummy = sum(1 for b in batches for e in b if e.is_dummy)
        assert total_real == 3
        assert total_dummy == 2 * size - 3

    def test_dummy_keys_unique(self):
        batches, _, _ = generate_batches(reads([1]), 3, KEY, 16)
        dummy_keys = [e.key for b in batches for e in b if e.is_dummy]
        assert len(set(dummy_keys)) == len(dummy_keys)
        assert all(k < 0 for k in dummy_keys)

    def test_batch_keys_distinct_within_suboram(self, rng):
        """Definition 2's precondition: every batch has distinct keys."""
        keys = [rng.randrange(20) for _ in range(60)]  # heavy duplication
        batches, _, _ = generate_batches(reads(keys), 3, KEY, 16)
        for batch in batches:
            batch_keys = [e.key for e in batch]
            assert len(set(batch_keys)) == len(batch_keys)


class TestDeduplication:
    def test_duplicate_reads_collapse(self):
        requests = reads([7, 7, 7, 7])
        batches, _, _ = generate_batches(requests, 2, KEY, 16)
        real = [e for b in batches for e in b if not e.is_dummy]
        assert len(real) == 1
        assert real[0].key == 7

    def test_last_write_wins(self):
        requests = [
            Request(OpType.WRITE, 7, b"first ", seq=0),
            Request(OpType.WRITE, 7, b"second", seq=1),
        ]
        batches, _, _ = generate_batches(requests, 2, KEY, 16)
        [entry] = [e for b in batches for e in b if not e.is_dummy]
        assert entry.op is OpType.WRITE
        assert entry.value == b"second"

    def test_write_beats_read_in_representative(self):
        requests = [
            Request(OpType.WRITE, 7, b"w" * VS, seq=0),
            Request(OpType.READ, 7, seq=1),
        ]
        batches, _, _ = generate_batches(requests, 2, KEY, 16)
        [entry] = [e for b in batches for e in b if not e.is_dummy]
        assert entry.op is OpType.WRITE

    def test_skew_cannot_overflow(self, rng):
        """All requests for one object still fit (dedup absorbs skew)."""
        requests = reads([5] * 500)
        batches, _, size = generate_batches(requests, 10, KEY, 32)
        assert all(len(b) == size for b in batches)

    def test_permissions_attached(self):
        requests = [
            Request(OpType.READ, 1, client_id=9, seq=3),
            Request(OpType.READ, 2, client_id=9, seq=4),
        ]
        _, originals, _ = generate_batches(
            requests, 2, KEY, 16, permissions={(9, 3): 0}
        )
        perms = {(o.client_id, o.seq): o.permitted for o in originals}
        assert perms[(9, 3)] == 0
        assert perms[(9, 4)] == 1


class TestOverflow:
    def test_overflow_raises_not_drops(self):
        """Forcing lambda=0 (B = ceil(R/S)) makes skewed hashing overflow."""
        rng = random.Random(5)
        with pytest.raises(BatchOverflowError):
            for _ in range(50):  # some trial will unbalance a 2-way split
                keys = rng.sample(range(10**6), 9)
                generate_batches(reads(keys), 2, KEY, security_parameter=0)

    def test_dummy_key_space_disjoint(self):
        assert dummy_key(0, 0) != dummy_key(1, 0)
        assert dummy_key(0, 0) != dummy_key(0, 1)
        assert dummy_key(5, 9) < -(2**60)
