"""Tests for the subORAM batch-access engine (Figure 19)."""

import random

import pytest

from repro.errors import DuplicateRequestError, NotInitializedError
from repro.oblivious.soa import Batch
from repro.suboram.suboram import SubOram
from repro.types import BatchEntry, OpType


class _RecordSubOram(SubOram):
    """A SubOram driven with record lists: each call packs them into a
    Batch, checks the argument comes back byte-equal, and unpacks the
    response batch."""

    def batch_access(self, entries, *args, **kwargs):
        batch = Batch.from_entries(entries, self.value_size)
        before = batch.to_bytes()
        response = super().batch_access(batch, *args, **kwargs)
        assert batch.to_bytes() == before
        return response.entries()


def make_suboram(num_objects=50, value_size=4, **kw):
    so = _RecordSubOram(suboram_id=0, value_size=value_size,
                        security_parameter=16, **kw)
    so.initialize({k: bytes([k % 256]) * value_size for k in range(num_objects)})
    return so


def read_entry(key, **kw):
    return BatchEntry(op=OpType.READ, key=key, is_dummy=False, **kw)


def write_entry(key, value, **kw):
    return BatchEntry(op=OpType.WRITE, key=key, value=value, is_dummy=False, **kw)


def dummy_entry(index):
    return BatchEntry(op=OpType.READ, key=-(1000 + index), is_dummy=True)


class TestReads:
    def test_single_read(self):
        so = make_suboram()
        [resp] = so.batch_access([read_entry(7)])
        assert resp.value == bytes([7]) * 4

    def test_batch_of_reads(self):
        so = make_suboram()
        responses = so.batch_access([read_entry(k) for k in (3, 1, 4, 15, 9)])
        values = {r.key: r.value for r in responses}
        assert values == {k: bytes([k]) * 4 for k in (3, 1, 4, 15, 9)}

    def test_unknown_key_returns_none(self):
        so = make_suboram()
        [resp] = so.batch_access([read_entry(9999)])
        assert resp.value is None

    def test_dummies_come_back(self):
        """Responses include dummy entries (the LB filters them)."""
        so = make_suboram()
        responses = so.batch_access([read_entry(1), dummy_entry(0), dummy_entry(1)])
        assert len(responses) == 3
        assert sum(1 for r in responses if r.is_dummy) == 2


class TestWrites:
    def test_write_returns_prior_value(self):
        so = make_suboram()
        [resp] = so.batch_access([write_entry(5, b"aaaa")])
        assert resp.value == bytes([5]) * 4
        assert so.peek(5) == b"aaaa"

    def test_write_then_read_across_batches(self):
        so = make_suboram()
        so.batch_access([write_entry(2, b"zzzz")])
        [resp] = so.batch_access([read_entry(2)])
        assert resp.value == b"zzzz"

    def test_read_in_same_batch_sees_prior_value(self):
        """All responses reflect batch-start state (reads-before-writes)."""
        so = make_suboram()
        responses = so.batch_access(
            [write_entry(2, b"zzzz"), read_entry(3)]
        )
        by_key = {r.key: r.value for r in responses}
        assert by_key[2] == bytes([2]) * 4  # prior value
        assert so.peek(2) == b"zzzz"

    def test_write_to_unknown_key_is_noop(self):
        so = make_suboram()
        [resp] = so.batch_access([write_entry(9999, b"aaaa")])
        assert resp.value is None
        assert so.peek(9999) is None

    def test_denied_write_not_applied(self):
        """§D: permitted=0 writes never modify the store."""
        so = make_suboram()
        entry = write_entry(4, b"xxxx")
        entry.permitted = 0
        so.batch_access([entry])
        assert so.peek(4) == bytes([4]) * 4

    def test_untouched_objects_unchanged(self, rng):
        so = make_suboram()
        so.batch_access([write_entry(10, b"qqqq"), read_entry(20)])
        for k in range(50):
            expected = b"qqqq" if k == 10 else bytes([k % 256]) * 4
            assert so.peek(k) == expected


class TestProtocolInvariants:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_duplicate_keys_rejected(self, kernel):
        so = make_suboram(kernel=kernel)
        with pytest.raises(DuplicateRequestError):
            so.batch_access([read_entry(1), write_entry(1, b"aaaa")])

    def test_empty_batch(self):
        so = make_suboram()
        assert so.batch_access([]) == []

    def test_uninitialized_rejected(self):
        so = _RecordSubOram(suboram_id=0, value_size=4)
        with pytest.raises(NotInitializedError):
            so.batch_access([read_entry(1)])

    def test_every_object_reencrypted_even_without_writes(self):
        """The scan rewrites every slot so write sets are invisible."""
        so = make_suboram(num_objects=5)
        before = [so.store.host_ciphertext(i) for i in range(5)]
        so.batch_access([read_entry(0)])
        after = [so.store.host_ciphertext(i) for i in range(5)]
        assert all(b != a for b, a in zip(before, after))

    @pytest.mark.parametrize("kernel,crypto", [
        ("numpy", "vector"), ("numpy", "scalar"), ("python", "scalar"),
    ])
    def test_large_random_batch_matches_model(self, rng, kernel, crypto):
        so = make_suboram(num_objects=40, kernel=kernel, crypto=crypto)
        model = {k: bytes([k % 256]) * 4 for k in range(40)}
        for _ in range(10):
            keys = rng.sample(range(40), rng.randrange(1, 15))
            batch, writes = [], {}
            for k in keys:
                if rng.random() < 0.5:
                    v = bytes([rng.randrange(256)]) * 4
                    batch.append(write_entry(k, v))
                    writes[k] = v
                else:
                    batch.append(read_entry(k))
            responses = so.batch_access(batch)
            for r in responses:
                assert r.value == model[r.key]
            model.update(writes)
