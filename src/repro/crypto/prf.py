"""Keyed pseudorandom functions for sharding and oblivious hashing.

The paper assigns objects to subORAMs with "a keyed cryptographic hash
whose key the attacker does not know" (§4.1) and batch requests to hash
buckets under a fresh per-batch key (§5); Theorem 3 needs those choices
to look uniform and independent.  Both are :meth:`Prf.range`:
**SipHash-2-4** (Aumasson–Bernstein 2012, the PRF designed for keyed
hash-table bucketing) of the id.

* key: ``derive_key(prf_key, "snoopy/prf/siphash")[:16]``, two
  little-endian 64-bit words — every ``prf_key`` (every batch) hashes
  under an independent key;
* message: the id as 8 little-endian two's-complement bytes (ids outside
  int64 raise the :class:`~repro.errors.CapacityError` intake refuses
  them with; dummies and spill fillers are inside);
* output: the 64-bit tag ``% n`` — modulo bias at most ``n / 2^64``,
  irrelevant to the balls-into-bins analysis.

SipHash is add/rotate/xor on four 64-bit lanes, so
:meth:`Prf.range_many` evaluates a whole int64 *column* in ~210
whole-array NumPy operations with no per-key Python work — or, for a
PRF over a list of L keys, an ``(L, W)`` id matrix whose row ℓ hashes
under key ℓ (the four state words become ``(L, 1)`` columns), which is
how a subORAM routes its L per-batch tables in one pass;
:meth:`Prf.range` is the pure-Python scalar of the same function (the
python kernel's reference, pinned to the published vectors).
:meth:`Prf.digest`/:meth:`Prf.value` stay HMAC-SHA256 (the oblivious
shuffle's tags).
"""

from __future__ import annotations

import hmac
import hashlib

import numpy as np

from repro.crypto.keys import derive_key
from repro.errors import CapacityError
from repro.types import INT64_MAX, INT64_MIN

_MASK64 = (1 << 64) - 1

#: "somepseudorandomlygeneratedbytes": SipHash's initialization constants.
_SIP_INIT = (
    0x736F6D6570736575, 0x646F72616E646F6D,
    0x6C7967656E657261, 0x7465646279746573,
)

#: The final message block of an 8-byte message: its length in the top byte.
_SIP_LAST = 8 << 56


def _sip_rounds(v0, v1, v2, v3, rounds, rotl, add):
    """``rounds`` SipRounds over four 64-bit lanes (ints or uint64 columns)."""
    for _ in range(rounds):
        v0 = add(v0, v1)
        v1 = rotl(v1, 13) ^ v0
        v0 = rotl(v0, 32)
        v2 = add(v2, v3)
        v3 = rotl(v3, 16) ^ v2
        v0 = add(v0, v3)
        v3 = rotl(v3, 21) ^ v0
        v2 = add(v2, v1)
        v1 = rotl(v1, 17) ^ v2
        v2 = rotl(v2, 32)
    return v0, v1, v2, v3


def _siphash_2_4(state, m, last, ff, rotl, add):
    """SipHash-2-4 of one 8-byte block ``m`` from a keyed ``state``: an
    int, or a uint64 column (``np.add`` wraps without a warning)."""
    v0, v1, v2, v3 = state
    for block in (m, last):
        v0, v1, v2, v3 = _sip_rounds(v0, v1, v2, v3 ^ block, 2, rotl, add)
        v0 = v0 ^ block
    v0, v1, v2, v3 = _sip_rounds(v0, v1, v2 ^ ff, v3, 4, rotl, add)
    return v0 ^ v1 ^ v2 ^ v3


def _rotl_int(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & _MASK64


def _rotl_np(x, b: int):
    return (x << np.uint64(b)) | (x >> np.uint64(64 - b))


class Prf:
    """A keyed PRF: SipHash-2-4 range reduction, HMAC-SHA256 digests."""

    __slots__ = ("_key", "_base", "_sip")

    def __init__(self, key):
        """``key``: non-empty bytes, or a list of them — L keys whose
        :meth:`range_many` hashes row ℓ of an ``(L, W)`` id matrix under
        key ℓ (the other methods take one key)."""
        keys = key if isinstance(key, list) else [key]
        if not keys or not all(
            isinstance(k, (bytes, bytearray)) and k for k in keys
        ):
            raise ValueError("PRF key must be non-empty bytes")
        self.__setstate__(
            [bytes(k) for k in keys] if isinstance(key, list) else bytes(key)
        )

    # A pre-keyed HMAC context is not picklable; rebuild lazily.
    def __getstate__(self):
        return self._key

    def __setstate__(self, state) -> None:
        self._key = state
        self._base = None
        words = []
        for key in state if isinstance(state, list) else [state]:
            raw = derive_key(key, "snoopy/prf/siphash")
            k0, k1 = (int.from_bytes(raw[i : i + 8], "little") for i in (0, 8))
            words.append([k ^ c for k, c in zip((k0, k1, k0, k1), _SIP_INIT)])
        #: SipHash's four-word initial state under this key (under L keys,
        #: one ``(L, 1)`` uint64 column per word).
        if isinstance(state, list):
            self._sip = tuple(np.array(words, dtype=np.uint64).T[:, :, None])
        else:
            self._sip = tuple(words[0])

    def digest(self, message: bytes) -> bytes:
        """Raw 32-byte HMAC-SHA256 output for a byte-string input."""
        if self._base is None:
            self._base = hmac.new(self._key, digestmod=hashlib.sha256)
        h = self._base.copy()
        h.update(message)
        return h.digest()

    def value(self, x: int) -> int:
        """HMAC-SHA256 output for integer input, as a 256-bit integer."""
        encoded = x.to_bytes(16, "big", signed=True)
        return int.from_bytes(self.digest(encoded), "big")

    def range(self, x: int, n: int) -> int:
        """SipHash-2-4 of the int64 ``x`` reduced into ``[0, n)`` (scalar)."""
        if n <= 0:
            raise ValueError(f"range size must be positive, got {n}")
        x = int(x)
        if not INT64_MIN <= x <= INT64_MAX:
            raise CapacityError(f"id {x} is outside int64")
        return _siphash_2_4(
            self._sip, x & _MASK64, _SIP_LAST, 0xFF,
            _rotl_int, lambda a, b: (a + b) & _MASK64,
        ) % n

    def range_many(self, xs, n):
        """:meth:`range` over a whole id column, as an int64 ndarray.

        ``xs`` is an int64 ndarray or a sequence of ints (ids outside
        int64 raise :class:`~repro.errors.CapacityError`); the result has
        ``xs``'s shape, entries in ``[0, n)``.  A fixed number of
        whole-column uint64 operations, whatever the ids are.  Under L
        keys ``xs`` is an ``(L, W)`` matrix and ``n`` may be an ``(L, 1)``
        column of per-row range sizes.
        """
        if np.any(np.asarray(n) <= 0):
            raise ValueError(f"range size must be positive, got {n}")
        try:
            column = np.asarray(xs, dtype=np.int64)
        except OverflowError as exc:
            raise CapacityError(f"id column is outside int64: {exc}") from None
        tag = _siphash_2_4(
            [np.uint64(v) for v in self._sip],
            column.view(np.uint64), np.uint64(_SIP_LAST), np.uint64(0xFF),
            _rotl_np, np.add,
        )
        return (tag % np.uint64(n)).astype(np.int64)


def suboram_of(key: bytes, object_id: int, num_suborams: int) -> int:
    """The subORAM owning ``object_id`` under sharding key ``key`` (§4.1)."""
    return Prf(key).range(object_id, num_suborams)
