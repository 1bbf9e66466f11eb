"""The store's AES-GCM partition cipher and the vector store it seals.

:class:`~repro.crypto.vector.VectorAead` seals a whole subORAM partition
as one AES-256-GCM message under one fresh nonce.  The tests here pin:

* known answers: McGrew–Viega / NIST GCM test cases 1, 2, 14 and 15,
  through the installed library and through the wrapper;
* the wrapper's zero-copy seal and open equal the library's one-shot
  calls for any row count and width;
* authentication: tamper and truncation rejection, and no plaintext left
  behind by a failed open;
* the vector store against a hostile host — tamper, rollback, splice,
  truncation and a cross-partition swap each raise IntegrityError;
* nonce freshness: a fresh random nonce per reseal, pinned by the
  enclave;
* fixed work: one ``encrypt_into`` per ``put_batch`` and one
  ``decrypt_into`` per ``get_batch``, whatever the slot count and data.
"""

import copy
import pickle

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.crypto import aead as aead_module
from repro.crypto.aead import NONCE_LEN
from repro.crypto.keys import KeyChain
from repro.crypto.vector import TAG_LEN, VectorAead
from repro.errors import ConfigurationError, IntegrityError
from repro.suboram.store import (
    CRYPTO_MODES,
    DEFAULT_CRYPTO,
    EncryptedStore,
    resolve_crypto,
)
from repro.suboram.suboram import SubOram

KEY = b"vector-aead-test-key-0123456789ab"[:32]


def nonce_for(i: int) -> bytes:
    return bytes([i % 256]) * NONCE_LEN


def rows(count: int, size: int, salt: int = 0):
    """A ``(count, size)`` uint8 matrix of distinct-looking rows."""
    flat = (np.arange(count * size) * 31 + salt) % 251
    return flat.astype(np.uint8).reshape(count, size)


def sealed_store(num_slots=8, value_size=16):
    store = EncryptedStore(KEY, num_slots, value_size, crypto="vector")
    store.put_batch(
        list(range(num_slots)),
        [bytes([slot + 1]) * value_size for slot in range(num_slots)],
    )
    return store


class TestSelector:
    def test_crypto_modes(self):
        assert CRYPTO_MODES == ("scalar", "vector")
        assert resolve_crypto(None) == DEFAULT_CRYPTO == "vector"
        assert resolve_crypto("scalar") == "scalar"
        with pytest.raises(ConfigurationError, match="scalar.*vector"):
            resolve_crypto("chacha")


class TestKnownAnswer:
    """McGrew–Viega, "The Galois/Counter Mode of Operation (GCM)", test
    cases 1, 2 and 14: an all-zero key and 96-bit IV."""

    @pytest.mark.parametrize("key_len, plain_len, sealed", [
        (16, 0, "58e2fccefa7e3061367f1d57a4e7455a"),
        (16, 16, "0388dace60b6a392f328c2b971b2fe78"
                 "ab6e47d42cec13bdf53a67b21257bddf"),
        (32, 16, "cea7403d4d606b6e074ec5d3baf39d18"
                 "d0d1c8a799996bf0265b98b5d48ab919"),
    ], ids=["case1", "case2", "case14"])
    def test_gcm_test_vectors(self, key_len, plain_len, sealed):
        key, nonce, plain = bytes(key_len), bytes(NONCE_LEN), bytes(plain_len)
        expected = bytes.fromhex(sealed)
        assert AESGCM(key).encrypt(nonce, plain, None) == expected
        aead = VectorAead(key)
        count, width = (1, plain_len) if plain_len else (0, 1)
        assert bytes(aead.seal_lanes(nonce, plain, count, width)) == expected
        assert bytes(aead.open_lanes(nonce, expected, count, width)) == plain

    def test_case15_nonzero_key_as_four_rows(self):
        """Test case 15: AES-256 under a non-zero key and IV, no AAD, the
        64-byte plaintext sealed as 4 rows of 16 bytes."""
        aead = VectorAead(bytes.fromhex("feffe9928665731c6d6a8f9467308308" * 2))
        nonce = bytes.fromhex("cafebabefacedbaddecaf888")
        plain = np.frombuffer(bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
        ), dtype=np.uint8).reshape(4, 16)
        expected = bytes.fromhex(
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
            "b094dac5d93471bdec1a502270e3cc6c"
        )
        assert bytes(aead.seal_lanes(nonce, plain, 4, 16)) == expected
        opened = np.empty((4, 16), dtype=np.uint8)
        aead.open_lanes(nonce, expected, 4, 16, out=opened)
        assert (opened == plain).all()


class TestBackendBitIdentity:
    """The wrapper's zero-copy path (a row matrix in, the caller's
    buffer out) is byte for byte the library's one-shot encrypt and
    decrypt."""

    @pytest.mark.parametrize("plain_size", [1, 7, 8, 16, 33, 1024])
    @pytest.mark.parametrize("count", [1, 3, 17])
    def test_seal_identical_across_backends(self, plain_size, count):
        aead = VectorAead(KEY)
        nonce = nonce_for(plain_size + count)
        plain = rows(count, plain_size)
        out = bytearray(VectorAead.sealed_len(count, plain_size))
        assert aead.seal_lanes(nonce, plain, count, plain_size, out=out) is out
        assert bytes(out) == AESGCM(KEY).encrypt(nonce, plain.tobytes(), None)
        assert len(out) == count * plain_size + TAG_LEN
        opened = np.empty((count, plain_size), dtype=np.uint8)
        aead.open_lanes(nonce, out, count, plain_size, out=opened)
        assert (opened == plain).all()

    def test_different_keys_and_nonces_differ(self):
        plain = rows(4, 16)
        base = bytes(VectorAead(KEY).seal_lanes(nonce_for(1), plain, 4, 16))
        assert base != bytes(
            VectorAead(KEY[::-1]).seal_lanes(nonce_for(1), plain, 4, 16)
        )
        assert base != bytes(
            VectorAead(KEY).seal_lanes(nonce_for(2), plain, 4, 16)
        )

    def test_empty_batch(self):
        aead = VectorAead(KEY)
        sealed = aead.seal_lanes(nonce_for(0), b"", 0, 16)
        assert len(sealed) == TAG_LEN
        assert bytes(aead.open_lanes(nonce_for(0), sealed, 0, 16)) == b""


class TestAuthentication:
    def test_tamper_rejected_every_byte_region(self):
        """A flip in the first row, a middle row, the last row or the
        tag fails the one tag check."""
        aead = VectorAead(KEY)
        count, size = 5, 24
        sealed = bytes(aead.seal_lanes(nonce_for(5), rows(count, size),
                                       count, size))
        for offset in (0, 2 * size + 5, count * size - 1, count * size,
                       len(sealed) - 1):
            broken = bytearray(sealed)
            broken[offset] ^= 0x01
            with pytest.raises(IntegrityError, match="authentication"):
                aead.open_lanes(nonce_for(5), broken, count, size)

    def test_truncation_rejected(self):
        aead = VectorAead(KEY)
        sealed = bytes(aead.seal_lanes(nonce_for(6), rows(2, 32), 2, 32))
        for bad in (sealed[:-1], sealed + b"\x00", sealed[:TAG_LEN]):
            with pytest.raises(IntegrityError, match="expected"):
                aead.open_lanes(nonce_for(6), bad, 2, 32)

    def test_failed_open_releases_no_plaintext(self):
        """The library leaves the tampered decryption in its output
        buffer; the store zeroes its resident plaintext before raising."""
        store = sealed_store()
        _, values = store.get_batch()  # a view of the resident plaintext
        assert values.any()
        store._host_blobs[3 * store.slot_size] ^= 0x01
        with pytest.raises(IntegrityError):
            store.get_batch()
        assert not store._resident.any()


class TestStoreIntegration:
    """Each host attack on a sealed vector partition fails the open."""

    def test_store_tamper_detected(self):
        store = sealed_store()
        _, blob = store.host_ciphertext(5)
        store.host_tamper(5, blob[:-1] + bytes([blob[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            store.get_batch()

    def test_rollback_detected(self):
        """An older buffer replayed whole, with its old nonce."""
        store = sealed_store()
        old_nonce, old_buffer = bytes(store._host_nonces), bytes(store._host_blobs)
        store.put_batch(*store.get_batch())
        store._host_nonces[:] = old_nonce
        store._host_blobs[:] = old_buffer
        with pytest.raises(IntegrityError):
            store.get_batch()

    def test_truncation_detected(self):
        store = sealed_store()
        store.host_tamper(7, b"short")
        with pytest.raises(IntegrityError, match="expected"):
            store.get_batch()

    def test_cross_partition_swap_detected(self):
        """Another subORAM's sealed buffer, its nonce included."""
        keychain = KeyChain(master=b"x" * 32)
        units = [
            SubOram(i, 16, keychain=keychain, security_parameter=16)
            for i in range(2)
        ]
        for unit in units:
            unit.initialize({k: bytes([k]) * 16 for k in range(8)})
        mine, theirs = (unit.store for unit in units)
        mine._host_nonces[:] = theirs._host_nonces
        mine._host_blobs[:] = theirs._host_blobs
        with pytest.raises(IntegrityError):
            mine.get_batch()


class TestLaneInterop:
    def test_lane_splice_rejected(self):
        """Two slot regions swapped: every byte is genuine, but slot
        position inside the tagged buffer is not."""
        store = sealed_store()
        (_, first), (_, second) = store.host_ciphertext(1), store.host_ciphertext(6)
        store.host_tamper(1, second)
        store.host_tamper(6, first)
        with pytest.raises(IntegrityError):
            store.get_batch()


class TestKeystreamUniqueness:
    """One fresh nonce — so one fresh GCM keystream — per reseal."""

    def test_store_derives_one_keystream_per_batch_with_fresh_nonces(self):
        store = EncryptedStore(KEY, num_slots=32, value_size=24, crypto="vector")
        seen = set()
        for epoch in range(5):
            store.put_batch(list(range(32)), [bytes([epoch]) * 24] * 32)
            nonce = bytes(store._pinned_nonces)
            assert nonce == bytes(store._host_nonces)
            assert nonce not in seen, "nonce reused across epochs"
            seen.add(nonce)

    def test_batch_nonce_replicated_per_slot(self):
        """Every slot's host view carries the one partition nonce."""
        store = sealed_store()
        assert len({store.host_ciphertext(s)[0] for s in range(8)}) == 1


class TestPickling:
    def test_aead_roundtrip_is_equivalent(self):
        aead = VectorAead(KEY)
        plain = rows(2, 20)
        expected = bytes(aead.seal_lanes(nonce_for(8), plain, 2, 20))
        for clone in (pickle.loads(pickle.dumps(aead)), copy.deepcopy(aead)):
            assert bytes(clone.seal_lanes(nonce_for(8), plain, 2, 20)) == expected

    def test_vector_store_roundtrip(self):
        store = sealed_store(num_slots=16, value_size=32)
        clone = pickle.loads(pickle.dumps(store, protocol=5))
        assert clone.crypto == "vector"
        for slot in (0, 7, 15):
            assert clone.get(slot) == store.get(slot)
        # The clone reseals and reopens on its own.
        clone.put_batch(list(range(16)), [b"\x99" * 32] * 16)
        assert clone.get(3) == (3, b"\x99" * 32)


class _CountingGcm:
    """Stands in for ``AESGCM``: logs each in-place call, then delegates."""

    def __init__(self, key, log):
        self._inner, self._log = AESGCM(key), log

    def encrypt_into(self, *args):
        self._log.append("encrypt_into")
        return self._inner.encrypt_into(*args)

    def decrypt_into(self, *args):
        self._log.append("decrypt_into")
        return self._inner.decrypt_into(*args)


class TestFixedWork:
    def test_seal_and_open_do_the_same_work_whatever_the_data(
        self, monkeypatch
    ):
        """One ``encrypt_into`` per reseal and one ``decrypt_into`` per
        open, for any slot count and content."""
        log = []
        monkeypatch.setattr(
            aead_module, "AESGCM", lambda key: _CountingGcm(key, log)
        )
        for num_slots in (0, 1, 7, 300):
            for fill in (0x00, 0xFF, None):
                store = EncryptedStore(KEY, num_slots, 24, crypto="vector")
                values = (
                    rows(num_slots, 24, salt=num_slots) if fill is None
                    else np.full((num_slots, 24), fill, dtype=np.uint8)
                )
                log.clear()
                store.put_batch(np.arange(num_slots), values)
                assert log == ["encrypt_into"]
                log.clear()
                store.get_batch()
                assert log == ["decrypt_into"]
