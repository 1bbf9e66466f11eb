"""Tests for the encrypted, integrity-protected subORAM store."""

import numpy as np
import pytest

from repro.errors import CapacityError, IntegrityError
from repro.suboram.store import CRYPTO_MODES, EncryptedStore


def _filled(crypto):
    s = EncryptedStore(
        b"storage-key-0123456789abcdef....", num_slots=8, value_size=4,
        crypto=crypto,
    )
    s.put_batch(
        [slot * 10 for slot in range(8)],
        [bytes([slot]) * 4 for slot in range(8)],
    )
    return s


def _write(store, slot, key, value):
    """Overwrite one slot through its mode's write path: a per-slot
    ``put`` (scalar) or a whole-partition reseal (vector)."""
    if not store.supports_batch:
        store.put(slot, key, value)
        return
    keys, values = store.get_batch()
    keys[slot] = key
    values[slot] = np.frombuffer(value, dtype=np.uint8)
    store.put_batch(keys, values)


@pytest.fixture(params=CRYPTO_MODES)
def store(request):
    """A filled store under both ciphers (oracle and deployed)."""
    return _filled(request.param)


class TestRoundtrip:
    def test_get_returns_put(self, store):
        for slot in range(8):
            key, value = store.get(slot)
            assert key == slot * 10
            assert value == bytes([slot]) * 4

    def test_overwrite(self, store):
        _write(store, 3, 30, b"zzzz")
        assert store.get(3) == (30, b"zzzz")

    def test_negative_keys_roundtrip(self):
        s = EncryptedStore(b"k" * 32, num_slots=1, value_size=2)
        s.put_batch([-(2**61)], [b"ab"])
        assert s.get(0) == (-(2**61), b"ab")

    def test_wrong_value_size_rejected(self, store):
        with pytest.raises(CapacityError):
            store.put_batch(list(range(8)), [b"too-long-value"] * 8)

    def test_capacity_error_is_still_a_value_error(self, store):
        """Deprecation-cycle compatibility for legacy except clauses."""
        with pytest.raises(ValueError):
            store.put_batch(list(range(8)), [b"x"] * 8)

    def test_unwritten_slot_rejected(self):
        s = EncryptedStore(b"k" * 32, num_slots=2, value_size=4)
        with pytest.raises(IntegrityError):
            s.get(0)

    def test_vector_store_has_no_per_slot_put(self):
        """Per-slot writes exist only under the scalar oracle."""
        with pytest.raises(RuntimeError, match="scalar"):
            _filled("vector").put(0, key=1, value=b"abcd")


class TestFreshness:
    def test_rewrites_produce_new_ciphertexts(self, store):
        """Unchanged plaintext re-encrypts differently — hides write sets."""
        before = store.host_ciphertext(0)
        key, value = store.get(0)
        _write(store, 0, key, value)
        assert store.host_ciphertext(0) != before


class TestTamperDetection:
    def test_bit_flip_detected(self, store):
        _, blob = store.host_ciphertext(2)
        store.host_tamper(2, blob[:-1] + bytes([blob[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            store.get(2)

    def test_rollback_detected(self, store):
        old = store.host_ciphertext(4)
        key, _ = store.get(4)
        _write(store, 4, key, b"newv")
        store.host_rollback(4, old)
        with pytest.raises(IntegrityError):
            store.get(4)

    def test_cross_slot_swap_detected(self, store):
        """Moving a valid ciphertext to another slot fails (slot-bound
        AAD under scalar, slot position in the tagged buffer under
        vector)."""
        store.host_rollback(1, store.host_ciphertext(0))
        with pytest.raises(IntegrityError):
            store.get(1)


class TestBatchPath:
    """put_batch/get_batch (the vector store's batch path) move the same
    bytes the per-slot ``get`` reads back."""

    @pytest.fixture
    def store(self):
        return _filled("vector")

    def test_scalar_store_has_no_batch_path(self):
        """``crypto="scalar"`` is per-slot by definition: ``put_batch``
        is the ``put`` loop and ``get_batch`` refuses."""
        oracle = _filled("scalar")
        assert not oracle.supports_batch
        oracle.put_batch(list(range(8)), [b"loop"] * 8)
        assert oracle.get(5) == (5, b"loop")
        with pytest.raises(RuntimeError, match="vector") as refused:
            oracle.get_batch()
        # NumPy is a hard dependency, not a prerequisite to name.
        assert "NumPy" not in str(refused.value)

    def test_roundtrip_matches_scalar_reads(self, store):
        keys = [slot * 100 for slot in range(8)]
        values = [bytes([slot + 1]) * 4 for slot in range(8)]
        store.put_batch(keys, values)
        got_keys, got_values = store.get_batch()
        assert got_keys.tolist() == keys
        assert [bytes(row) for row in got_values] == values
        # The per-slot path reads the very same bytes back.
        for slot in range(8):
            assert store.get(slot) == (keys[slot], values[slot])

    def test_matrix_input_equals_list_input(self, store):
        keys = list(range(8))
        matrix = np.arange(32, dtype=np.uint8).reshape(8, 4)
        store.put_batch(keys, matrix)
        _, got = store.get_batch()
        assert (got == matrix).all()

    @pytest.mark.parametrize("crypto", ["vector", "scalar"])
    def test_key_column_goes_back_in_as_it_came_out(self, crypto):
        """The subORAM hands ``put_batch`` the int64 column ``get_batch``
        returned — no list round trip — on the per-slot loop as well."""
        store = _filled(crypto)
        keys = np.asarray([-5, 0, 9, 2**40, -(2**61), 3, 4, 5], dtype=np.int64)
        matrix = np.arange(32, dtype=np.uint8).reshape(8, 4)
        store.put_batch(keys, matrix)
        for slot in range(8):
            assert store.get(slot) == (int(keys[slot]), bytes(matrix[slot]))
        if store.supports_batch:
            got_keys, got = store.get_batch()
            assert got_keys.dtype == np.int64
            assert (got_keys == keys).all() and (got == matrix).all()

    def test_resident_values_reseal_in_place(self, store):
        """The matrix ``get_batch`` returned, updated in place, is what
        the next ``put_batch`` seals."""
        keys, values = store.get_batch()
        values[2] = 0xAB
        store.put_batch(keys, values)
        assert store.get(2) == (20, b"\xab" * 4)

    def test_negative_keys_roundtrip(self):
        s = EncryptedStore(b"k" * 32, num_slots=2, value_size=2)
        s.put_batch([-(2**61), -1], [b"ab", b"cd"])
        keys, values = s.get_batch()
        assert keys.tolist() == [-(2**61), -1]
        assert s.get(0) == (-(2**61), b"ab")

    def test_rewrites_produce_new_ciphertexts(self, store):
        before = bytes(store._host_blobs)
        keys, values = store.get_batch()
        store.put_batch(keys.tolist(), values)
        assert bytes(store._host_blobs) != before

    def test_unwritten_slot_rejected(self):
        s = EncryptedStore(b"k" * 32, num_slots=3, value_size=4)
        with pytest.raises(IntegrityError, match="never sealed"):
            s.get_batch()

    def test_bit_flip_detected(self, store):
        store.put_batch(list(range(8)), [b"vvvv"] * 8)
        _, blob = store.host_ciphertext(5)
        store.host_tamper(5, blob[:-1] + bytes([blob[-1] ^ 1]))
        with pytest.raises(IntegrityError, match="authentication"):
            store.get_batch()

    def test_rollback_detected(self, store):
        old = store.host_ciphertext(4)
        store.put_batch(list(range(8)), [b"flip"] * 8)
        store.host_rollback(4, old)
        with pytest.raises(IntegrityError, match="authentication"):
            store.get_batch()

    def test_odd_length_blob_detected(self, store):
        store.host_tamper(6, b"short")
        with pytest.raises(IntegrityError, match="expected"):
            store.get_batch()

    def test_wrong_shapes_rejected(self, store):
        with pytest.raises(ValueError):
            store.put_batch([1, 2], [b"aaaa", b"bbbb"])
        with pytest.raises(CapacityError):
            store.put_batch(list(range(8)), [b"xx"] * 8)

    def test_batch_telemetry_counters(self, store):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        store.telemetry = telemetry
        store.put_batch(list(range(8)), [b"tttt"] * 8)
        store.get_batch()
        values = {
            (m.name, m.labels): m.value
            for m in telemetry.registry.metrics()
        }
        # One sealed partition: every row plus the one GCM tag.
        moved = 8 * store.slot_size + 16
        assert moved == len(store._host_blobs)
        assert values[("snoopy_store_batch_seals_total", ())] == 1
        assert values[("snoopy_store_batch_opens_total", ())] == 1
        assert values[
            ("snoopy_store_bytes_moved_total", (("op", "seal"),))
        ] == moved
        assert values[
            ("snoopy_store_bytes_moved_total", (("op", "open"),))
        ] == moved


class TestOutOfBandPickle:
    """Protocol-5 pickling ships buffers out of band and copies on rebuild."""

    def test_roundtrip_preserves_contents(self, store):
        import pickle

        clone = pickle.loads(pickle.dumps(store, protocol=5))
        for slot in range(8):
            assert clone.get(slot) == store.get(slot)

    def test_out_of_band_buffers_are_emitted(self, store):
        import pickle

        buffers = []
        pickle.dumps(store, protocol=5, buffer_callback=buffers.append)
        raw = sum(b.raw().nbytes for b in buffers)
        assert raw >= 8 * store.slot_size  # blobs ride out of band

    def test_rebuilt_store_does_not_alias_transport_memory(self, store):
        import pickle

        buffers = []
        payload = pickle.dumps(
            store, protocol=5, buffer_callback=buffers.append
        )
        # A stand-in for a shared-memory segment: the transport's own
        # copies of the out-of-band buffers.
        segment = [bytearray(b.raw()) for b in buffers]
        views = [memoryview(chunk) for chunk in segment]
        clone = pickle.loads(payload, buffers=views)
        # Scribble over the transport buffers, as a sender reusing its
        # segment for the next message would; the clone must own copies.
        for view in views:
            view[:] = b"\x00" * view.nbytes
        for slot in range(8):
            assert clone.get(slot) == store.get(slot)

    def test_legacy_protocol_still_works(self, store):
        import pickle

        clone = pickle.loads(pickle.dumps(store, protocol=4))
        assert clone.get(3) == store.get(3)
