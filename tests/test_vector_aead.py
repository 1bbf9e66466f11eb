"""Property tests for the vectorized counter-mode AEAD kernel.

:class:`~repro.crypto.vector.VectorAead` is the crypto layer's answer to
the execute-stage bottleneck: one nonce-derived keystream and one
vectorized polynomial MAC per batch instead of one HMAC pipeline per
slot.  That only helps if it is *the same cipher* under both backends,
so the tests here pin:

* bit-identical NumPy vs pure-Python output across value sizes, keys,
  nonces, lane bases, and AAD;
* lane interoperability — sealing one lane scalar-style produces the
  exact bytes of that lane's slice of a batch seal (the store mixes the
  two freely);
* authentication: tamper, truncation, and lane-splice rejection;
* the keystream-reuse invariant's observable — every batch derives a
  fresh keystream from a fresh nonce, never reusing (key, nonce) across
  epochs (see SECURITY.md);
* store integration for ``crypto="vector"`` including pickle
  round-trips and mixed scalar/batch states.
"""

import os
import pickle

import pytest

from repro.crypto.aead import NONCE_LEN, TAG_LEN
from repro.crypto.vector import VectorAead
from repro.errors import ConfigurationError, IntegrityError
from repro.suboram.store import (
    CRYPTO_MODES,
    DEFAULT_CRYPTO,
    EncryptedStore,
    resolve_crypto,
)

KEY = b"vector-aead-test-key-0123456789ab"[:32]


def nonce_for(i: int) -> bytes:
    return bytes([i % 256]) * NONCE_LEN


def lane_plain(size: int, lane: int, salt: int = 0) -> bytes:
    return bytes((lane * 31 + j * 7 + salt) % 256 for j in range(size))


class TestSelector:
    def test_crypto_modes(self):
        assert CRYPTO_MODES == ("scalar", "vector")
        assert resolve_crypto(None) == DEFAULT_CRYPTO == "vector"
        assert resolve_crypto("scalar") == "scalar"
        with pytest.raises(ConfigurationError, match="scalar.*vector"):
            resolve_crypto("chacha")


class TestBackendBitIdentity:
    """The NumPy fast path and the pure-Python reference are one cipher."""

    @pytest.mark.parametrize("plain_size", [1, 7, 8, 16, 33, 1024])
    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_seal_identical_across_backends(self, plain_size, count):
        fast = VectorAead(KEY, backend="numpy")
        slow = VectorAead(KEY, backend="py")
        nonce = nonce_for(plain_size + count)
        plain = b"".join(lane_plain(plain_size, i) for i in range(count))
        sealed_fast = bytes(fast.seal_lanes(nonce, plain, count, plain_size))
        sealed_slow = bytes(slow.seal_lanes(nonce, plain, count, plain_size))
        assert sealed_fast == sealed_slow
        assert len(sealed_fast) == count * (plain_size + TAG_LEN)
        # And both backends open each other's output.
        assert bytes(
            slow.open_lanes(nonce, sealed_fast, count, plain_size)
        ) == plain
        assert bytes(
            fast.open_lanes(nonce, sealed_slow, count, plain_size)
        ) == plain

    @pytest.mark.parametrize("count", [1, 3])
    def test_lane_wider_than_one_matmul_block(self, count):
        """8200 bytes = 2054 limbs: past the 2^11-limb exactness bound,
        so the MAC sums two column blocks — same tag as the reference."""
        plain_size = 8200
        fast = VectorAead(KEY, backend="numpy")
        slow = VectorAead(KEY, backend="py")
        nonce = nonce_for(77)
        plain = b"".join(lane_plain(plain_size, i) for i in range(count))
        for aad in (b"", b"odd"):
            sealed = bytes(
                fast.seal_lanes(nonce, plain, count, plain_size, aad=aad)
            )
            assert sealed == bytes(
                slow.seal_lanes(nonce, plain, count, plain_size, aad=aad)
            )
            assert bytes(
                fast.open_lanes(nonce, sealed, count, plain_size, aad=aad)
            ) == plain

    @pytest.mark.parametrize("plain_size", [8176, 32768])
    def test_mac_is_exact_on_saturated_limbs(self, plain_size):
        """All-ones ciphertext at exactly 2^11 limbs (one full block, the
        largest sums a uint64 matmul may hold) and at 2^13 limbs (which
        one unblocked matmul would wrap): still the exact-integer tag."""
        import numpy as np

        fast = VectorAead(KEY, backend="numpy")
        slow = VectorAead(KEY, backend="py")
        ts = (0x0123456789ABCDEF, 0xFEDCBA9876543210)
        ct = b"\xff" * plain_size
        matrix = np.frombuffer(ct * 2, dtype=np.uint8).reshape(2, plain_size)
        tags = fast._lane_tags_np(ts, 2, plain_size, 5, b"", matrix, None)
        assert [bytes(row) for row in tags] == [
            slow._lane_tag_py(ts, lane, ct, b"", plain_size)
            for lane in (5, 6)
        ]

    @pytest.mark.parametrize("lane_base", [0, 5, 1 << 33])
    def test_lane_base_and_aad_identical(self, lane_base):
        fast = VectorAead(KEY, backend="numpy")
        slow = VectorAead(KEY, backend="py")
        nonce = nonce_for(9)
        plain = b"".join(lane_plain(24, i) for i in range(4))
        for aad in (b"", b"slot-aad", b"a", b"5byte", b"seven b"):
            a = bytes(fast.seal_lanes(
                nonce, plain, 4, 24, lane_base=lane_base, aad=aad
            ))
            b = bytes(slow.seal_lanes(
                nonce, plain, 4, 24, lane_base=lane_base, aad=aad
            ))
            assert a == b

    def test_different_keys_and_nonces_differ(self):
        plain = lane_plain(64, 0)
        base = bytes(
            VectorAead(KEY).seal_lanes(nonce_for(1), plain, 1, 64)
        )
        other_key = bytes(
            VectorAead(os.urandom(32)).seal_lanes(nonce_for(1), plain, 1, 64)
        )
        other_nonce = bytes(
            VectorAead(KEY).seal_lanes(nonce_for(2), plain, 1, 64)
        )
        assert base != other_key
        assert base != other_nonce

    def test_empty_batch(self):
        aead = VectorAead(KEY, backend="py")
        nonce = nonce_for(0)
        assert bytes(aead.seal_lanes(nonce, b"", 0, 16)) == b""
        assert bytes(aead.open_lanes(nonce, b"", 0, 16)) == b""


class TestLaneInterop:
    """Scalar seal_one/open_one interoperate with whole-batch lanes."""

    def test_seal_one_matches_batch_slice(self):
        aead = VectorAead(KEY)
        nonce = nonce_for(3)
        count, size = 6, 40
        plain = b"".join(lane_plain(size, i) for i in range(count))
        sealed = bytes(aead.seal_lanes(nonce, plain, count, size))
        slot = size + TAG_LEN
        for lane in range(count):
            single = bytes(aead.seal_one(
                nonce, lane_plain(size, lane), lane=lane
            ))
            assert single == sealed[lane * slot:(lane + 1) * slot]
            assert bytes(aead.open_one(nonce, single, lane=lane)) == (
                lane_plain(size, lane)
            )

    def test_lane_splice_rejected(self):
        """A blob sealed for lane i must not open at lane j."""
        aead = VectorAead(KEY)
        nonce = nonce_for(4)
        blob = bytes(aead.seal_one(nonce, lane_plain(32, 0), lane=0))
        with pytest.raises(IntegrityError):
            aead.open_one(nonce, blob, lane=1)


class TestAuthentication:
    @pytest.mark.parametrize("backend", ["numpy", "py"])
    def test_tamper_rejected_every_byte_region(self, backend):
        aead = VectorAead(KEY, backend=backend)
        nonce = nonce_for(5)
        sealed = bytearray(aead.seal_lanes(
            nonce, lane_plain(48, 0) + lane_plain(48, 1), 2, 48
        ))
        slot = 48 + TAG_LEN
        for offset in (0, 47, 48, slot - 1, slot, 2 * slot - 1):
            broken = bytearray(sealed)
            broken[offset] ^= 0x01
            with pytest.raises(IntegrityError):
                aead.open_lanes(nonce, bytes(broken), 2, 48)

    @pytest.mark.parametrize("backend", ["numpy", "py"])
    def test_truncation_rejected(self, backend):
        aead = VectorAead(KEY, backend=backend)
        nonce = nonce_for(6)
        sealed = bytes(aead.seal_lanes(nonce, lane_plain(32, 0), 1, 32))
        with pytest.raises(IntegrityError):
            aead.open_lanes(nonce, sealed[:-1], 1, 32)
        with pytest.raises(IntegrityError):
            aead.open_one(nonce, sealed[:TAG_LEN], lane=0)

    def test_wrong_aad_rejected(self):
        aead = VectorAead(KEY, backend="py")
        nonce = nonce_for(7)
        sealed = bytes(aead.seal_lanes(
            nonce, lane_plain(16, 0), 1, 16, aad=b"right"
        ))
        with pytest.raises(IntegrityError):
            aead.open_lanes(nonce, sealed, 1, 16, aad=b"wrong")


class TestKeystreamUniqueness:
    """One fresh keystream per batch — the SECURITY.md invariant."""

    def test_store_derives_one_keystream_per_batch_with_fresh_nonces(self):
        store = EncryptedStore(
            KEY, num_slots=32, value_size=24, crypto="vector"
        )
        values = [lane_plain(24, i) for i in range(32)]
        seen_nonces = set()
        for epoch in range(5):
            before = store._vec.keystream_derivations
            store.put_batch(list(range(32)), values)
            # Exactly one seal keystream derivation for the whole batch
            # (plus nothing per slot).
            assert store._vec.keystream_derivations - before <= 2
            nonce = bytes(store._host_nonces[:NONCE_LEN])
            assert nonce not in seen_nonces, "nonce reused across epochs"
            seen_nonces.add(nonce)
        assert len(seen_nonces) == 5

    def test_batch_nonce_replicated_per_slot(self):
        """All slots of one batch share the batch nonce (lane-separated)."""
        store = EncryptedStore(
            KEY, num_slots=8, value_size=16, crypto="vector"
        )
        store.put_batch(
            list(range(8)), [lane_plain(16, i) for i in range(8)]
        )
        nonces = {
            bytes(store._host_nonces[i * NONCE_LEN:(i + 1) * NONCE_LEN])
            for i in range(8)
        }
        assert len(nonces) == 1


class TestPickling:
    def test_aead_roundtrip_is_equivalent(self):
        aead = VectorAead(KEY, backend="py")
        clone = pickle.loads(pickle.dumps(aead))
        nonce = nonce_for(8)
        plain = lane_plain(20, 0)
        assert bytes(clone.seal_lanes(nonce, plain, 1, 20)) == bytes(
            aead.seal_lanes(nonce, plain, 1, 20)
        )

    def test_vector_store_roundtrip(self):
        store = EncryptedStore(
            KEY, num_slots=16, value_size=32, crypto="vector"
        )
        store.put_batch(
            list(range(16)), [lane_plain(32, i) for i in range(16)]
        )
        clone = pickle.loads(pickle.dumps(store))
        assert clone.crypto == "vector"
        for slot in (0, 7, 15):
            assert clone.get(slot) == store.get(slot)
        # The clone keeps working in both batch and scalar modes.
        clone.put(3, key=3, value=b"\x99" * 32)
        assert clone.get(3) == (3, b"\x99" * 32)


class TestStoreIntegration:
    def test_mixed_scalar_and_batch_state(self):
        store = EncryptedStore(
            KEY, num_slots=12, value_size=16, crypto="vector"
        )
        store.put_batch(
            list(range(12)), [lane_plain(16, i) for i in range(12)]
        )
        # Scalar overwrite gives slot 4 its own nonce; the next batch
        # read must take the mixed (per-slot) open path and still agree.
        store.put(4, key=4, value=b"\x42" * 16)
        keys, values = store.get_batch()
        assert bytes(values[4]) == b"\x42" * 16
        assert bytes(values[0]) == lane_plain(16, 0)
        assert list(keys) == list(range(12))

    def test_store_tamper_detected(self):
        store = EncryptedStore(
            KEY, num_slots=4, value_size=16, crypto="vector"
        )
        store.put_batch(list(range(4)), [lane_plain(16, i) for i in range(4)])
        store._host_blobs[3] ^= 0x01
        with pytest.raises(IntegrityError):
            store.get_batch()
