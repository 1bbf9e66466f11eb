"""Unit tests for repro.crypto: PRF, AEAD, channels, key chain."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import (
    AeadKey, NONCE_LEN, TAG_LEN, SecureChannel, SecureChannelPair,
)
from repro.crypto.keys import KeyChain, derive_key, random_key
from repro.crypto.prf import Prf, suboram_of
from repro.errors import CapacityError, IntegrityError, ReplayError
from repro.loadbalancer.batching import dummy_key
from repro.types import INT64_MAX, INT64_MIN


class TestPrf:
    def test_deterministic(self):
        prf = Prf(b"k" * 32)
        assert prf.value(42) == prf.value(42)

    def test_key_separation(self):
        assert Prf(b"a" * 32).value(1) != Prf(b"b" * 32).value(1)

    def test_range_bounds(self):
        prf = Prf(b"k" * 32)
        for x in range(200):
            assert 0 <= prf.range(x, 7) < 7

    def test_range_roughly_uniform(self):
        prf = Prf(b"k" * 32)
        counts = [0] * 4
        for x in range(4000):
            counts[prf.range(x, 4)] += 1
        for c in counts:
            assert 800 < c < 1200

    def test_negative_inputs_ok(self):
        prf = Prf(b"k" * 32)
        assert prf.range(-5, 10) != prf.range(5, 10) or True  # no crash
        assert 0 <= prf.range(-(2**61), 10) < 10

    def test_rejects_bad_key(self):
        with pytest.raises(ValueError):
            Prf(b"")

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            Prf(b"k" * 32).range(1, 0)

    def test_suboram_of_consistent(self):
        key = b"s" * 32
        assert suboram_of(key, 99, 5) == suboram_of(key, 99, 5)
        assert 0 <= suboram_of(key, 99, 5) < 5


def siphash_2_4(key: bytes, message: bytes) -> int:
    """Byte-string SipHash-2-4, written from the paper (the test oracle)."""
    mask = (1 << 64) - 1

    def rotl(x, b):
        return ((x << b) | (x >> (64 - b))) & mask

    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:16], "little")
    v = [k0 ^ 0x736F6D6570736575, k1 ^ 0x646F72616E646F6D,
         k0 ^ 0x6C7967656E657261, k1 ^ 0x7465646279746573]

    def sip_round():
        v[0] = (v[0] + v[1]) & mask
        v[1] = rotl(v[1], 13) ^ v[0]
        v[0] = rotl(v[0], 32)
        v[2] = (v[2] + v[3]) & mask
        v[3] = rotl(v[3], 16) ^ v[2]
        v[0] = (v[0] + v[3]) & mask
        v[3] = rotl(v[3], 21) ^ v[0]
        v[2] = (v[2] + v[1]) & mask
        v[1] = rotl(v[1], 17) ^ v[2]
        v[2] = rotl(v[2], 32)

    body = len(message) - len(message) % 8
    blocks = [
        int.from_bytes(message[i : i + 8], "little")
        for i in range(0, body, 8)
    ]
    blocks.append(
        (len(message) & 0xFF) << 56 | int.from_bytes(message[body:], "little")
    )
    for block in blocks:
        v[3] ^= block
        sip_round()
        sip_round()
        v[0] ^= block
    v[2] ^= 0xFF
    for _ in range(4):
        sip_round()
    return v[0] ^ v[1] ^ v[2] ^ v[3]


#: Ids the deployment itself hashes, at the edges of the int64 domain.
EDGE_IDS = [
    0, -1, 1, INT64_MIN, INT64_MAX,
    -(2**62), -(2**62 + 4095),        # hash-table spill fillers
    dummy_key(0, 0), dummy_key(63, 2**20 - 1),
]


class TestSipHashRange:
    """``Prf.range``/``range_many`` are SipHash-2-4 of the int64 id."""

    def test_reference_reproduces_the_published_vectors(self):
        key = bytes(range(16))
        assert siphash_2_4(key, b"") == 0x726FDB47DD0E0E31
        assert siphash_2_4(key, bytes(range(15))) == 0xA129CA6149BE45E5

    @staticmethod
    def reference(prf_key: bytes, x: int, n: int) -> int:
        sip_key = derive_key(prf_key, "snoopy/prf/siphash")[:16]
        return siphash_2_4(sip_key, x.to_bytes(8, "little", signed=True)) % n

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.binary(min_size=1, max_size=48),
        xs=st.lists(
            st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(EDGE_IDS),
            max_size=40,
        ),
        n=st.integers(1, 2**63 - 1),
    )
    def test_column_equals_scalar_equals_reference(self, key, xs, n):
        prf = Prf(key)
        column = prf.range_many(np.asarray(xs, dtype=np.int64), n)
        assert isinstance(column, np.ndarray) and column.dtype == np.int64
        assert len(column) == len(xs)
        assert column.tolist() == prf.range_many(xs, n).tolist()
        assert column.tolist() == [prf.range(x, n) for x in xs]
        assert column.tolist() == [self.reference(key, x, n) for x in xs]
        assert all(0 <= tag < n for tag in column.tolist())

    def test_edge_ids(self):
        prf = Prf(b"k" * 32)
        assert prf.range_many(EDGE_IDS, 1000).tolist() == [
            self.reference(b"k" * 32, x, 1000) for x in EDGE_IDS
        ]

    @pytest.mark.parametrize("x", [INT64_MAX + 1, INT64_MIN - 1, 2**70])
    def test_ids_outside_int64_raise_the_intake_error(self, x):
        prf = Prf(b"k" * 32)
        with pytest.raises(CapacityError):
            prf.range(x, 8)
        with pytest.raises(CapacityError):
            prf.range_many([1, x], 8)

    def test_rejects_bad_range_size(self):
        with pytest.raises(ValueError):
            Prf(b"k" * 32).range_many([1], 0)

    def test_two_keys_give_different_assignments(self):
        xs = np.arange(256, dtype=np.int64)
        a = Prf(b"a" * 32).range_many(xs, 64)
        b = Prf(b"b" * 32).range_many(xs, 64)
        # Independent uniform assignments agree on ~1/64 of the ids.
        assert int((a == b).sum()) < 32

    def test_survives_pickling(self):
        import pickle

        prf = Prf(b"k" * 32)
        before = prf.range_many(EDGE_IDS, 97).tolist()
        assert pickle.loads(pickle.dumps(prf)).range_many(
            EDGE_IDS, 97
        ).tolist() == before

    def test_chi_square_over_64_buckets(self):
        """Sequential ids under a fixed key look uniform over 64 buckets:
        the statistic stays under the chi-square(63) 2^-20 upper quantile
        (131.54), so a correct PRF fails this with probability 2^-20."""
        n, buckets = 1 << 16, 64
        tags = Prf(b"chi-square-key").range_many(
            np.arange(n, dtype=np.int64), buckets
        )
        counts = np.bincount(tags, minlength=buckets)
        expected = n / buckets
        assert float(((counts - expected) ** 2 / expected).sum()) < 131.55


class TestAead:
    def test_roundtrip(self):
        key = AeadKey(b"k" * 32)
        nonce = bytes(NONCE_LEN)
        ct = key.seal(nonce, b"hello", aad=b"ctx")
        assert key.open(nonce, ct, aad=b"ctx") == b"hello"

    def test_empty_plaintext(self):
        key = AeadKey(b"k" * 32)
        nonce = bytes(NONCE_LEN)
        assert key.open(nonce, key.seal(nonce, b"")) == b""

    def test_tamper_detected(self):
        key = AeadKey(b"k" * 32)
        nonce = bytes(NONCE_LEN)
        ct = bytearray(key.seal(nonce, b"hello"))
        ct[0] ^= 1
        with pytest.raises(IntegrityError):
            key.open(nonce, bytes(ct))

    def test_wrong_aad_detected(self):
        key = AeadKey(b"k" * 32)
        nonce = bytes(NONCE_LEN)
        ct = key.seal(nonce, b"hello", aad=b"a")
        with pytest.raises(IntegrityError):
            key.open(nonce, ct, aad=b"b")

    def test_wrong_nonce_detected(self):
        key = AeadKey(b"k" * 32)
        ct = key.seal(bytes(NONCE_LEN), b"hello")
        with pytest.raises(IntegrityError):
            key.open(b"\x01" * NONCE_LEN, ct)

    def test_ciphertext_differs_across_nonces(self):
        key = AeadKey(b"k" * 32)
        c1 = key.seal(bytes(NONCE_LEN), b"hello")
        c2 = key.seal(b"\x01" * NONCE_LEN, b"hello")
        assert c1 != c2

    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            AeadKey(b"short")

    def test_rejects_truncated_ciphertext(self):
        key = AeadKey(b"k" * 32)
        with pytest.raises(IntegrityError):
            key.open(bytes(NONCE_LEN), b"tiny")


    def test_survives_pickle(self):
        """A key that crossed a process boundary still seals identically."""
        import pickle

        key = AeadKey(b"k" * 32)
        clone = pickle.loads(pickle.dumps(key))
        nonce = bytes(NONCE_LEN)
        assert clone.seal(nonce, b"hello", b"ctx") == key.seal(
            nonce, b"hello", b"ctx"
        )

    @pytest.mark.parametrize("length, sealed_sha256", [
        (0, "e66665b0767f0273"),
        (1, "5669965880fe137d"),
        (31, "028681691eafa1fe"),
        (32, "e36d55113358f325"),
        (33, "5e69b6b00841e91a"),
        (4096, "0e8a56bc128ef3a2"),
        (65536, "2179fe7ce3abf5a7"),
    ])
    def test_sealed_digest_across_block_edges(self, length, sealed_sha256):
        """AES-256-GCM output pinned across the 16-byte block edges and
        at multi-block lengths; every sealed length is ``n + TAG_LEN``."""
        key = AeadKey(b"known-answer-key-0123456789abcde")
        plaintext = bytes(i * 7 % 256 for i in range(length))
        sealed = key.seal(bytes(range(NONCE_LEN)), plaintext, b"kat/aad")
        assert len(sealed) == length + TAG_LEN
        assert hashlib.sha256(sealed).hexdigest()[:16] == sealed_sha256
        assert key.open(bytes(range(NONCE_LEN)), sealed, b"kat/aad") == plaintext

    def test_gcm_test_case_16(self):
        """McGrew–Viega GCM test case 16: AES-256 under a non-zero key,
        with AAD, over a 60-byte (non-block-multiple) plaintext."""
        key = AeadKey(bytes.fromhex("feffe9928665731c6d6a8f9467308308" * 2))
        nonce = bytes.fromhex("cafebabefacedbaddecaf888")
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        plaintext = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
        )
        sealed = bytes.fromhex(
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            "76fc6ece0f4e1768cddf8853bb2d551b"
        )
        assert key.seal(nonce, plaintext, aad) == sealed
        assert len(sealed) == len(plaintext) + TAG_LEN == 60 + 16
        assert key.open(nonce, sealed, aad) == plaintext
        with pytest.raises(IntegrityError):
            key.open(nonce, sealed, aad[:-1])

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(0, 1 << 16),
        seed=st.integers(0, 2**32 - 1),
        flip=st.integers(0, 2**40),
    )
    def test_round_trip_and_any_bit_flip_fails(self, length, seed, flip):
        rng = random.Random(seed)
        key = AeadKey(rng.randbytes(32))
        nonce, aad = rng.randbytes(NONCE_LEN), rng.randbytes(rng.randrange(9))
        plaintext = rng.randbytes(length)
        sealed = key.seal(nonce, plaintext, aad)
        assert len(sealed) == length + TAG_LEN
        assert key.open(nonce, sealed, aad) == plaintext
        bit = flip % (8 * len(sealed))
        tampered = bytearray(sealed)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityError):
            key.open(nonce, bytes(tampered), aad)


class TestSecureChannel:
    def test_roundtrip(self):
        a = SecureChannel(b"k" * 32, "ab")
        b = SecureChannel(b"k" * 32, "ab")
        nonce, ct = a.send(b"msg")
        assert b.receive(nonce, ct) == b"msg"

    def test_replay_rejected(self):
        a = SecureChannel(b"k" * 32, "ab")
        b = SecureChannel(b"k" * 32, "ab")
        nonce, ct = a.send(b"msg")
        b.receive(nonce, ct)
        with pytest.raises(ReplayError):
            b.receive(nonce, ct)

    def test_forgery_does_not_burn_nonce(self):
        a = SecureChannel(b"k" * 32, "ab")
        b = SecureChannel(b"k" * 32, "ab")
        nonce, ct = a.send(b"msg")
        with pytest.raises(IntegrityError):
            b.receive(nonce, ct[:-1] + bytes([ct[-1] ^ 1]))
        assert b.receive(nonce, ct) == b"msg"

    def test_channel_name_binds(self):
        a = SecureChannel(b"k" * 32, "ab")
        c = SecureChannel(b"k" * 32, "other")
        nonce, ct = a.send(b"msg")
        with pytest.raises(IntegrityError):
            c.receive(nonce, ct)

    def test_directions_never_share_a_keystream(self):
        """Both directions of a link count nonces from 0; each keys its
        own cipher, so record i each way never reuses (key, nonce)."""
        lb = SecureChannelPair(b"k" * 32, "lb0-so0", initiator=True)
        so = SecureChannelPair(b"k" * 32, "lb0-so0", initiator=False)
        same = b"the same record, sealed both ways"
        (n1, fwd), (n2, rev) = lb.tx.send(same), so.tx.send(same)
        assert n1 == n2
        assert fwd[:-TAG_LEN] != rev[:-TAG_LEN]
        req, rep = b"request record 1" * 4, b"reply record #01" * 4
        (n1, ct1), (n2, ct2) = lb.tx.send(req), so.tx.send(rep)
        assert n1 == n2
        ct_xor = bytes(x ^ y for x, y in zip(ct1[:-TAG_LEN], ct2[:-TAG_LEN]))
        assert ct_xor != bytes(x ^ y for x, y in zip(req, rep))
        # Each direction still opens at its own receiver.
        assert so.rx.receive(n1, ct1) == req
        assert lb.rx.receive(n2, ct2) == rep


class TestKeyChain:
    def test_subkeys_stable(self):
        chain = KeyChain(b"m" * 32)
        assert chain.subkey("x") == chain.subkey("x")

    def test_subkeys_independent(self):
        chain = KeyChain(b"m" * 32)
        assert chain.subkey("x") != chain.subkey("y")

    def test_batch_keys_fresh_per_epoch(self):
        chain = KeyChain(b"m" * 32)
        assert chain.batch_key(0, 1) != chain.batch_key(0, 2)
        assert chain.batch_key(0, 1) != chain.batch_key(1, 1)

    def test_random_key_deterministic_with_rng(self):
        assert random_key(random.Random(1)) == random_key(random.Random(1))
        assert random_key(random.Random(1)) != random_key(random.Random(2))

    def test_derive_key_depends_on_label(self):
        assert derive_key(b"m" * 32, "a") != derive_key(b"m" * 32, "b")


class TestReplayWindow:
    """The channel's replay state is O(1), not a grow-forever seen-set."""

    def _pair(self):
        key = b"window-key-0123456789abcdef01234"
        return SecureChannel(key, "w"), SecureChannel(key, "w")

    def test_memory_stays_bounded(self):
        from repro.crypto.aead import REPLAY_WINDOW

        sender, receiver = self._pair()
        for i in range(3 * REPLAY_WINDOW):
            nonce, sealed = sender.send(b"m%d" % i)
            receiver.receive(nonce, sealed)
        # The entire replay state is one int bitmap plus one watermark.
        assert receiver._recv_window.bit_length() <= REPLAY_WINDOW
        assert not hasattr(receiver, "_seen")

    def test_out_of_order_within_window_accepted(self):
        sender, receiver = self._pair()
        messages = [sender.send(b"m%d" % i) for i in range(6)]
        order = [5, 2, 4, 0, 3, 1]
        for i in order:
            nonce, sealed = messages[i]
            assert receiver.receive(nonce, sealed) == b"m%d" % i

    def test_replay_within_window_rejected(self):
        sender, receiver = self._pair()
        messages = [sender.send(b"m%d" % i) for i in range(4)]
        for nonce, sealed in messages:
            receiver.receive(nonce, sealed)
        with pytest.raises(ReplayError, match="replayed"):
            receiver.receive(*messages[1])

    def test_older_than_window_rejected(self):
        from repro.crypto.aead import REPLAY_WINDOW

        sender, receiver = self._pair()
        messages = [
            sender.send(b"x") for _ in range(REPLAY_WINDOW + 1)
        ]
        receiver.receive(*messages[-1])  # hwm jumps to REPLAY_WINDOW
        # Message 0 was never received, but it fell off the window: the
        # bounded tracker must fail closed rather than accept it.
        with pytest.raises(ReplayError, match="older than"):
            receiver.receive(*messages[0])
