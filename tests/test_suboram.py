"""Tests for the subORAM batch-access engine (Figure 19)."""

import copy
import hashlib
import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyChain
from repro.crypto.prf import Prf
from repro.errors import (
    DuplicateRequestError,
    IntegrityError,
    NotInitializedError,
)
from repro.extensions.replication import ReplicatedSubOram
from repro.oblivious.hashtable import TwoTierHashTable
from repro.oblivious.soa import Batch
from repro.sim.latency import LatencySubOram
from repro.suboram.suboram import SubOram
from repro.types import BatchEntry, OpType
from tests.harness import spy_on_store_passes


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


# ---------------------------------------------------------------------------
# Epoch sessions: one store open and one reseal for a chain of batches
# ---------------------------------------------------------------------------
#: The python kernel runs the scalar store only (``store_crypto``).
ALL_CELLS = pytest.mark.parametrize("kernel,crypto", [
    ("numpy", "vector"), ("numpy", "scalar"), ("python", "scalar"),
])


def session_twins(kernel="numpy", crypto="vector", num_objects=30):
    """Two identically keyed subORAMs (same batch keys, same row order)."""
    twins = []
    for _ in range(2):
        so = SubOram(0, 4, keychain=KeyChain(master=b"m" * 32),
                     security_parameter=16, kernel=kernel, crypto=crypto)
        so.initialize({k: bytes([k]) * 4 for k in range(num_objects)})
        twins.append(so)
    return twins


def chain_of(length, rng, num_objects=30):
    """``length`` batches over one key range, so later ones see earlier
    ones' writes."""
    chain = []
    for b in range(length):
        entries = [
            write_entry(k, bytes([b + 1, k, 0, 0])) if rng.random() < 0.5
            else read_entry(k)
            for k in rng.sample(range(num_objects + 5), 9)
        ]
        entries += [dummy_entry(i) for i in range(3)]
        chain.append(Batch.from_entries(entries, 4))
    return chain


def host_view(so):
    return [so.store.host_ciphertext(slot) for slot in range(so.num_objects)]


def store_passes(calls):
    """The pass names a ``harness.spy_on_store_passes`` log holds."""
    return [name for name, _ in calls]


class TestEpochSession:
    @ALL_CELLS
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_session_equals_separate_calls(self, kernel, crypto, length, rng):
        inside, apart = session_twins(kernel, crypto)
        chain = chain_of(length, rng)
        sealed = host_view(inside)
        with inside.epoch(length):
            together = [inside.batch_access(batch) for batch in chain]
        separately = [apart.batch_access(batch) for batch in chain]
        assert [r.to_bytes() for r in together] == (
            [r.to_bytes() for r in separately]
        )
        assert [inside.peek(k) for k in range(30)] == (
            [apart.peek(k) for k in range(30)]
        )
        # The session resealed every slot, as the separate calls did.
        assert all(a != b for a, b in zip(sealed, host_view(inside)))

    def test_later_batch_reads_earlier_batch_write(self):
        """Appendix C's order inside one epoch: balancer 0's read returns
        the pre-epoch value, balancer 1's read balancer 0's write."""
        so, _ = session_twins()
        first = Batch.from_entries(
            [write_entry(7, b"new!"), read_entry(8)], 4
        )
        second = Batch.from_entries(
            [read_entry(7), write_entry(8, b"late")], 4
        )
        with so.epoch(2):
            reply0 = {e.key: e.value for e in so.batch_access(first).entries()}
            reply1 = {e.key: e.value for e in so.batch_access(second).entries()}
        assert reply0 == {7: bytes([7]) * 4, 8: bytes([8]) * 4}
        assert reply1 == {7: b"new!", 8: bytes([8]) * 4}
        assert so.peek(7) == b"new!" and so.peek(8) == b"late"

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_one_open_and_one_seal_per_session(self, length, rng, monkeypatch):
        so, _ = session_twins()
        calls = spy_on_store_passes(monkeypatch)
        before = host_view(so)
        with so.epoch(length):
            for index, batch in enumerate(chain_of(length, rng)):
                so.batch_access(batch)
                # Opened by the first call, sealed only by the last.
                sealed = index == length - 1
                assert store_passes(calls) == (
                    ["get_batch"] + ["put_batch"] * sealed
                )
                assert (host_view(so) != before) == sealed
        assert all(b != a for b, a in zip(before, host_view(so)))
        # Outside a session every call is a session of one.
        calls.clear()
        so.batch_access(chain_of(1, rng)[0])
        assert store_passes(calls) == ["get_batch", "put_batch"]

    def test_store_passes_do_not_depend_on_the_mix(self, monkeypatch):
        so, _ = session_twins()
        calls = spy_on_store_passes(monkeypatch)
        mixes = {
            "reads": [read_entry(k) for k in range(6)],
            "writes": [write_entry(k, b"wwww") for k in range(6)],
            "dummies": [dummy_entry(i) for i in range(6)],
            "absent": [read_entry(900 + i) for i in range(6)],
        }
        for entries in mixes.values():
            calls.clear()
            with so.epoch(2):
                so.batch_access(Batch.from_entries(entries, 4))
                so.batch_access(Batch.from_entries(entries[::-1], 4))
            assert store_passes(calls) == ["get_batch", "put_batch"]

    @ALL_CELLS
    def test_per_slot_paths_keep_their_schedule_per_batch(
        self, kernel, crypto, monkeypatch
    ):
        """Only the vectorized whole-store path has anything to keep
        resident; the oracle cells seal every slot after every batch."""
        so, _ = session_twins(kernel, crypto)
        bulk = (kernel, crypto) == ("numpy", "vector")
        calls = spy_on_store_passes(monkeypatch)
        with so.epoch(2):
            before = host_view(so)
            so.batch_access(Batch.from_entries([read_entry(1)], 4))
            assert (host_view(so) == before) == bulk
            so.batch_access(Batch.from_entries([read_entry(2)], 4))
        assert all(b != a for b, a in zip(before, host_view(so)))
        assert store_passes(calls).count("get_batch") == (1 if bulk else 0)

    def test_abandoned_session_leaves_the_sealed_partition_untouched(self):
        so, twin = session_twins()
        before = host_view(so)
        first = Batch.from_entries([write_entry(3, b"lost")], 4)
        second = Batch.from_entries([read_entry(3)], 4)
        with pytest.raises(RuntimeError, match="injected"):
            with so.epoch(2):
                so.batch_access(first)
                raise RuntimeError("injected fault before the second batch")
        assert host_view(so) == before
        assert so.peek(3) == bytes([3]) * 4
        # Re-running the epoch answers like a subORAM that never faulted.
        with so.epoch(2), twin.epoch(2):
            for batch in (first, second):
                reply, expected = so.batch_access(batch), twin.batch_access(batch)
                assert sorted(e.value for e in reply.entries()) == (
                    sorted(e.value for e in expected.entries())
                )
        assert so.peek(3) == twin.peek(3) == b"lost"

    def test_duplicates_rejected_per_batch_inside_a_session(self):
        so, _ = session_twins()
        before = host_view(so)
        with pytest.raises(DuplicateRequestError):
            with so.epoch(2):
                so.batch_access(Batch.from_entries([write_entry(1, b"aaaa")], 4))
                so.batch_access(
                    Batch.from_entries([read_entry(2), read_entry(2)], 4)
                )
        assert host_view(so) == before and so.peek(1) == bytes([1]) * 4

    @pytest.mark.parametrize("attack", ["tamper", "rollback"])
    def test_host_attack_between_epochs_fails_the_next_open(self, attack):
        so, _ = session_twins()
        batch = Batch.from_entries([read_entry(1)], 4)
        old = so.store.host_ciphertext(4)
        with so.epoch(1):
            so.batch_access(batch)
        if attack == "rollback":
            so.store.host_rollback(4, old)
        else:
            nonce, blob = so.store.host_ciphertext(4)
            so.store.host_tamper(4, blob[:-1] + bytes([blob[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            with so.epoch(2):
                so.batch_access(batch)

    def test_open_session_is_never_copied_or_shipped(self):
        so, _ = session_twins()
        with so.epoch(2):
            so.batch_access(Batch.from_entries([read_entry(1)], 4))
            for clone in (copy.deepcopy, pickle.dumps):
                with pytest.raises(RuntimeError, match="open epoch session"):
                    clone(so)
            so.batch_access(Batch.from_entries([read_entry(2)], 4))
        assert copy.deepcopy(so).peek(1) == bytes([1]) * 4
        assert pickle.loads(pickle.dumps(so)).peek(2) == bytes([2]) * 4

    def test_miscounted_session_is_refused(self):
        so, _ = session_twins()
        with pytest.raises(RuntimeError, match="unsealed"):
            with so.epoch(2):
                so.batch_access(Batch.from_entries([read_entry(1)], 4))

    def test_wrappers_forward_the_session(self, monkeypatch):
        group = ReplicatedSubOram(
            0, 4, crash_tolerance=1, rollback_tolerance=0,
            keychain=KeyChain(master=b"m" * 32), security_parameter=16,
        )
        group.initialize({k: bytes([k]) * 4 for k in range(12)})
        slow = LatencySubOram(session_twins(num_objects=12)[0], batch_delay=0)
        calls = spy_on_store_passes(monkeypatch)
        for wrapper, stores in ((group, 2), (slow, 1)):
            calls.clear()
            with wrapper.epoch(2):
                wrapper.batch_access(Batch.from_entries([write_entry(1, b"abcd")], 4))
                reply = wrapper.batch_access(Batch.from_entries([read_entry(1)], 4))
            assert [e.value for e in reply.entries()] == [b"abcd"]
            assert sorted(store_passes(calls)) == (
                ["get_batch"] * stores + ["put_batch"] * stores
            )


# ---------------------------------------------------------------------------
# The deployed scan against the python reference
# ---------------------------------------------------------------------------
def _twin(kernel, crypto, num_objects, value_size):
    so = SubOram(0, value_size, keychain=KeyChain(master=b"d" * 32),
                 security_parameter=16, kernel=kernel, crypto=crypto)
    so.initialize({k: bytes([k % 251]) * value_size
                   for k in range(num_objects)})
    return so


@st.composite
def _epochs(draw):
    """(N, V, epochs): each epoch L in {1, 2, 3} batches of distinct keys,
    some absent from the partition, with reads, writes and denied writes."""
    num_objects = draw(st.integers(1, 40))
    value_size = draw(st.integers(1, 24))
    epochs = []
    for _ in range(draw(st.integers(1, 2))):
        chain = []
        for _ in range(draw(st.integers(1, 3))):
            keys = draw(st.lists(st.integers(0, num_objects + 8), min_size=1,
                                 max_size=12, unique=True))
            entries = []
            for key in keys:
                op = draw(st.sampled_from(["read", "write", "denied"]))
                if op == "read":
                    entries.append(read_entry(key))
                else:
                    fill = draw(st.integers(0, 255))
                    entries.append(write_entry(
                        key, bytes([fill]) * value_size,
                        permitted=int(op == "write"),
                    ))
            chain.append(Batch.from_entries(entries, value_size))
        epochs.append(chain)
    return num_objects, value_size, epochs


class TestBucketScanDifferential:
    @given(case=_epochs())
    @settings(max_examples=40, deadline=None)
    def test_numpy_equals_python_byte_for_byte(self, case):
        num_objects, value_size, epochs = case
        runs = {}
        for kernel, crypto in (("python", "scalar"), ("numpy", "vector"),
                               ("numpy", "scalar")):
            so = _twin(kernel, crypto, num_objects, value_size)
            replies = []
            for chain in epochs:
                with so.epoch(len(chain)):
                    replies += [so.batch_access(b).to_bytes() for b in chain]
            peeks = [so.peek(k) for k in range(num_objects + 9)]
            runs[kernel, crypto] = replies, peeks
        reference = runs["python", "scalar"]
        assert runs["numpy", "vector"] == reference
        assert runs["numpy", "scalar"] == reference

    @pytest.mark.parametrize("crypto, value_size, sealed", [
        # Re-pinned once when the vector store became one AES-GCM message
        # per partition: each slot region lost its 32-byte lane tag (a
        # public, one-time layout change); the scan output is unchanged,
        # as the scalar pin below shows.
        ("vector", 7, "1d6e5d31ab8b1179"),
        ("vector", 160, "1b0027948686e936"),
        # The scalar store seals through AeadKey, so this pin moves with
        # the channel cipher (SHAKE-256 keystream); the scan output it
        # seals is the same one the vector pins cover.
        ("scalar", 12, "c42b5d16ed66a8ed"),
    ])
    def test_sealed_partition_is_pinned_under_a_fixed_nonce(
        self, monkeypatch, crypto, value_size, sealed
    ):
        """With every nonce fixed, an epoch's reseal is a pure function of
        the scan's output: the digest pins it across scan rewrites."""
        monkeypatch.setattr(os, "urandom", lambda n: bytes(range(n)))
        so = _twin("numpy", crypto, 40, value_size)
        chain = [
            Batch.from_entries([
                write_entry(k, bytes([b + 1]) * value_size,
                            permitted=int(k % 3 != 0))
                if (k + b) % 2 else read_entry(k)
                for k in range(b, 44, 3)
            ], value_size)
            for b in range(2)
        ]
        with so.epoch(2):
            for batch in chain:
                so.batch_access(batch)
        view = b"".join(
            nonce + blob for nonce, blob in host_view(so)
        )
        assert hashlib.sha256(view).hexdigest()[:16] == sealed


class TestNoIndexMatrixOnTheDeployedPath:
    @ALL_CELLS
    def test_only_the_reference_builds_the_index_matrix(
        self, monkeypatch, kernel, crypto, rng
    ):
        calls, prf_inputs = [], []
        real_matrix = TwoTierHashTable.lookup_matrix
        real_range_many = Prf.range_many
        monkeypatch.setattr(
            TwoTierHashTable, "lookup_matrix",
            lambda self, keys: calls.append(len(keys))
            or real_matrix(self, keys),
        )
        monkeypatch.setattr(
            Prf, "range_many",
            lambda self, keys, n: prf_inputs.append(len(keys))
            or real_range_many(self, keys, n),
        )
        so, _ = session_twins(kernel, crypto)
        chain = chain_of(2, rng)
        with so.epoch(2):
            for batch in chain:
                so.batch_access(batch)
        assert calls == ([] if kernel == "numpy" else [30, 30])
        # Per batch: one build over batch rows + spill fillers, and one
        # routing of the N = 30 object keys; N * L object inputs in all.
        assert prf_inputs[1::2] == [30, 30]
        assert sum(prf_inputs) == 2 * 30 + sum(prf_inputs[::2])
