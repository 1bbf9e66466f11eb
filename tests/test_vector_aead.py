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
  round-trips and mixed scalar/batch states;
* fixed work: the NumPy calls a seal or an open makes are a function of
  the batch shape, never of the plaintext, key or nonce.
"""

import itertools
import os
import pickle

import pytest

from repro.crypto import vector as vector_module
from repro.crypto.aead import NONCE_LEN, TAG_LEN
from repro.crypto.vector import VectorAead
from repro.errors import ConfigurationError, IntegrityError
from repro.suboram.store import (
    CRYPTO_MODES,
    DEFAULT_CRYPTO,
    EncryptedStore,
    resolve_crypto,
)
from tests.harness import array_ops

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
        """Lanes of 257, 504 and 2054 limbs: past the 256-limb block whose
        float64 sums stay exact, so the MAC sums two or more column
        blocks (with and without aad) — same bytes as the reference."""
        fast = VectorAead(KEY, backend="numpy")
        slow = VectorAead(KEY, backend="py")
        nonce = nonce_for(77)
        for plain_size, aad in itertools.product(
            (1012, 2000, 8200), (b"", b"odd")
        ):
            plain = b"".join(lane_plain(plain_size, i) for i in range(count))
            sealed = bytes(
                fast.seal_lanes(nonce, plain, count, plain_size, aad=aad)
            )
            assert sealed == bytes(
                slow.seal_lanes(nonce, plain, count, plain_size, aad=aad)
            )
            assert bytes(
                fast.open_lanes(nonce, sealed, count, plain_size, aad=aad)
            ) == plain

    @pytest.mark.parametrize("plain_size", [1008, 1012, 8176, 32768])
    def test_mac_is_exact_on_saturated_limbs(self, plain_size):
        """All-ones ciphertext at exactly 256 limbs (one full column
        block: the largest sums a float64 product keeps exact, 256
        products below 2^45 each), at 257 (one limb into a second
        block), and at 2^11 and ~2^13 limbs (many blocks, each
        cast and reduced before it joins the total): still the
        exact-integer tag."""
        import numpy as np

        fast = VectorAead(KEY, backend="numpy")
        slow = VectorAead(KEY, backend="py")
        ts = (0x0123456789ABCDEF, 0xFEDCBA9876543210)
        ct = b"\xff" * plain_size
        matrix = np.frombuffer(ct * 2, dtype=np.uint8).reshape(2, plain_size)
        tags = fast._lane_tags_np(ts, 2, plain_size, 5, b"", matrix, None)
        assert [row.tobytes() for row in tags] == [
            slow._lane_tag_py(ts, lane, ct, b"", plain_size)
            for lane in (5, 6)
        ]

    @pytest.mark.parametrize("count", [1, 511, 512, 513, 1025, 16384])
    def test_row_blocks_identical_across_backends(self, count):
        """Lane counts around the 512-lane row block: a batch of one,
        the remainder product alone, stacked full blocks alone, and
        stacked blocks plus a remainder — every lane the reference's
        bytes, and the NumPy open accepts them."""
        fast = VectorAead(KEY, backend="numpy")
        slow = VectorAead(KEY, backend="py")
        nonce = nonce_for(count)
        plain_size = 8
        plain = b"".join(lane_plain(plain_size, i) for i in range(count))
        sealed = bytes(fast.seal_lanes(
            nonce, plain, count, plain_size, lane_base=3
        ))
        assert sealed == bytes(slow.seal_lanes(
            nonce, plain, count, plain_size, lane_base=3
        ))
        assert bytes(fast.open_lanes(
            nonce, sealed, count, plain_size, lane_base=3
        )) == plain

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


class TestFixedWork:
    """The lane MAC and keystream run the same whole-array operations —
    names, operand shapes, dtypes — whatever the data."""

    def test_seal_and_open_do_the_same_work_whatever_the_data(
        self, monkeypatch
    ):
        count, size = 1030, 24  # two stacked 512-lane blocks + 6 more
        cases = [
            (KEY, nonce_for(1), bytes(count * size)),
            (b"another key", nonce_for(2), b"\xff" * (count * size)),
            (KEY, nonce_for(3), b"".join(
                lane_plain(size, i, salt=5) for i in range(count)
            )),
        ]
        logs = []
        for key, nonce, plain in cases:
            aead = VectorAead(key)
            sealed = bytes(aead.seal_lanes(nonce, plain, count, size))
            logs.append((
                array_ops(monkeypatch, vector_module, lambda: aead.seal_lanes(
                    nonce, plain, count, size
                )),
                array_ops(monkeypatch, vector_module, lambda: aead.open_lanes(
                    nonce, sealed, count, size
                )),
            ))
        assert all(log == logs[0] for log in logs[1:])
        width = 2 + size // 4 + 2
        for log in logs[0]:
            assert [op[1] for op in log if op[0] == "matmul"] == [
                ((2, 512, width), (width, 10), (2, 512, 10)),
                ((6, width), (width, 10), (6, 10)),
            ]

    def test_seal_one_is_one_unpadded_row(self, monkeypatch):
        aead = VectorAead(KEY)
        log = array_ops(monkeypatch, vector_module, lambda: aead.seal_one(
            nonce_for(4), lane_plain(40, 0), lane=7
        ))
        width = 2 + 40 // 4 + 2
        assert [op[1] for op in log if op[0] == "matmul"] == [
            ((1, width), (width, 10), (1, 10))
        ]


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
        for size in (48, 13):  # tags 8-byte aligned in the slot, or not
            sealed = bytearray(aead.seal_lanes(
                nonce, lane_plain(size, 0) + lane_plain(size, 1), 2, size
            ))
            slot = size + TAG_LEN
            for offset in (0, size - 1, size, slot - 1, slot, 2 * slot - 1):
                broken = bytearray(sealed)
                broken[offset] ^= 0x01
                with pytest.raises(IntegrityError):
                    aead.open_lanes(nonce, bytes(broken), 2, size)

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
