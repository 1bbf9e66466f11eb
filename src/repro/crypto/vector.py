"""Vectorized counter-mode AEAD: one keystream, one MAC pass per batch.

The HMAC scheme in :mod:`repro.crypto.aead` is the audited per-slot
oracle: one SHAKE-256 keystream and one HMAC tag per slot — O(slots)
Python-level calls per epoch.  This module is the store's batch
cipher (``crypto="vector"``, see :mod:`repro.suboram.store`): a
counter-mode AEAD whose whole-batch seal and open run as a fixed number
of NumPy passes, independent of slot count and value size.

Construction
============

Encrypt-then-MAC over a splitmix64 counter keystream and a two-lane
Carter-Wegman polynomial MAC modulo the Mersenne prime ``p = 2^61 - 1``:

* **Keystream.**  One PRF call per batch derives two 64-bit seeds from
  the batch nonce (``Prf(stream_key).digest(nonce || 0x00)``).  Block
  ``b`` of the keystream is ``mix64((s0 + (b+1)*GAMMA) ^ s1)`` — the
  splitmix64 finalizer over a Weyl counter sequence — so the entire
  batch keystream materializes as a single ``uint64`` NumPy array from
  one ``arange``.  Lane ``i`` (a slot) owns the block range
  ``[(lane_base+i)*L, (lane_base+i+1)*L)`` where ``L`` is the per-slot
  word count: distinct lanes under one nonce never share a block, and a
  fresh nonce per batch makes every (key, nonce, block) triple unique —
  the keystream-reuse invariant SECURITY.md states.
* **Tags.**  Per lane, a polynomial MAC over 32-bit message limbs
  ``[lane_hi, lane_lo, aad limbs, ciphertext limbs, len(aad), len(ct)]``
  evaluated at two independent points ``r1, r2`` derived from the key,
  masked by four per-lane pad words from a second nonce-derived seed.
  Both polynomials are **one exact float64 matmul**: each power
  ``r^k mod p`` (61 bits) is split once into five 13-bit pieces, and
  ``limbs @ pieces`` — ``(lanes, width) @ (width, 10)`` in float64 —
  gives five partial sums per lane and point.  A 32-bit limb times a
  13-bit piece is below 2^45, so 256 of them sum below 2^53: every
  partial sum of a column block of at most 256 limbs is an exact
  integer in float64 whatever the summation order (BLAS blocking and
  FMA included).  Each block's sums cast to uint64 and reduce mod p
  (lanes over ~1 KiB sum several blocks — never a rounded product);
  the partial sums fold with four 61-bit rotations (``x * 2^13``,
  ``2^26``, ``2^39``, ``2^52 mod p``) and one reduction — a fixed
  number of whole-array operations for any batch.  Rows run in blocks
  of 512 lanes, all full blocks through one stacked ``matmul`` and the
  rest through one 2-D product (a batch of one is an unpadded
  ``(1, width)`` product).  OpenBLAS keeps a product on the calling
  thread while ``rows * width * 10 <= 2^18``, so a 512-lane block does
  so only for lanes of at most 51 limbs — the store's ``value_size``
  up to 172, which covers every served width (48 limbs at 160) — where one
  ``(16384, 48)`` call fans out over BLAS threads that contend with the
  epoch's own stage threads.  Wider lanes run threaded BLAS again.
  Binding the lane index into the MAC replaces the slot-id associated
  data of the HMAC scheme: a blob spliced to another slot fails its
  tag.  Tags are :data:`TAG_LEN` bytes, so sealed-slot sizes
  match the HMAC scheme exactly and ciphertext lengths stay functions
  of public shape only.

The pure-Python reference (``backend="py"``) computes the same formulas
with exact integer arithmetic; the NumPy path is **bit-identical** to it
(``tests/test_vector_aead.py`` pins this property across sizes, keys,
nonces, and lane bases).  As with the rest of this repo's crypto, the
point is faithful *system* behaviour — tamper/truncation rejection,
nonce discipline, uniform lengths — not a production cipher: splitmix64
is not a vetted PRF and the 2x61-bit Wegman-Carter tag is below a
production security margin (see SECURITY.md).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Union

import numpy as np

from repro.crypto.aead import NONCE_LEN, TAG_LEN
from repro.crypto.keys import derive_key
from repro.crypto.prf import Prf
from repro.errors import IntegrityError
from repro.oblivious import soa

__all__ = ["VectorAead"]

#: The Mersenne prime the polynomial MAC works over.
_P = (1 << 61) - 1
_MASK61 = _P
_MASK13 = (1 << 13) - 1
_MASK64 = (1 << 64) - 1

#: Weyl-sequence increment and splitmix64 finalizer multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64x4 = struct.Struct(">QQQQ")

#: Bit offsets of the five 13-bit pieces of a 61-bit power.
_PIECE_SHIFTS = (0, 13, 26, 39, 52)

#: Most limbs one exact float64 matmul may sum: 256 products of a 32-bit
#: limb and a 13-bit power piece stay below 2^53.
_MAX_BLOCK = 256

#: Lanes per BLAS product (see "Tags" above).
_ROW_BLOCK = 512

def _mix64(z: int) -> int:
    """The splitmix64 finalizer over one 64-bit word (exact-int path)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _seed_pair(raw: bytes) -> tuple:
    """Two big-endian uint64 seeds from a 32-byte PRF output."""
    return (
        int.from_bytes(raw[:8], "big"),
        int.from_bytes(raw[8:16], "big"),
    )


def _limbs_of_bytes(data: bytes) -> List[int]:
    """Big-endian 32-bit limbs of ``data`` zero-padded to 4 bytes."""
    pad = (-len(data)) % 4
    if pad:
        data = data + b"\x00" * pad
    return [
        int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)
    ]


class VectorAead:
    """Counter-mode AEAD sealing N uniform lanes per call.

    One instance wraps one key.  ``seal_lanes``/``open_lanes`` process a
    whole batch of fixed-size slots under a single nonce;
    ``seal_one``/``open_one`` are the per-slot entry points the store's
    ``put``/``get`` use (the same scheme, a batch of one, at any
    ``lane``) — so per-slot writes interoperate with later batch reads
    and vice versa.

    Args:
        key: AEAD key material (any non-empty byte string).
        backend: ``"numpy"`` (also ``None``) or ``"py"``, the pure-Python
            reference.  Both backends produce bit-identical bytes; the
            property tests enforce it.
    """

    def __init__(self, key: bytes, backend: Optional[str] = None):
        if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
            raise ValueError("AEAD key must be non-empty bytes")
        if backend not in (None, "numpy", "py"):
            raise ValueError(f"unknown VectorAead backend {backend!r}")
        self._key = bytes(key)
        #: The backend lanes run on (``"numpy"`` or ``"py"``).
        self.backend = backend or "numpy"
        self._setup()

    def _setup(self) -> None:
        self._stream_prf = Prf(derive_key(self._key, "snoopy/vector/stream"))
        poly = derive_key(self._key, "snoopy/vector/poly")
        # Evaluation points in [1, p-1]: zero would void the whole MAC.
        self._r1 = (int.from_bytes(poly[:8], "big") % (_P - 1)) + 1
        self._r2 = (int.from_bytes(poly[8:16], "big") % (_P - 1)) + 1
        #: Power-table cache: (r, width) -> ints, width -> 13-bit pieces.
        self._powers: dict = {}
        #: Fresh-keystream derivations (one per sealed batch/lane group).
        self.keystream_derivations = 0

    # Pre-keyed contexts, power tables, and scratch don't cross pickles.
    def __getstate__(self):
        return (self._key, self.backend)

    def __setstate__(self, state) -> None:
        self._key, self.backend = state
        self._setup()

    # ------------------------------------------------------------------
    # Per-message derivations (shared by both backends)
    # ------------------------------------------------------------------
    def _message_seeds(self, nonce: bytes) -> tuple:
        if len(nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        ks = _seed_pair(self._stream_prf.digest(nonce + b"\x00"))
        ts = _seed_pair(self._stream_prf.digest(nonce + b"\x01"))
        self.keystream_derivations += 1
        return ks, ts

    def _power_table(self, r: int, width: int) -> List[int]:
        """Cached ``[r^width, ..., r^1] mod p`` as exact ints."""
        cached = self._powers.get((r, width))
        if cached is None:
            cached = [0] * width
            acc = 1
            for j in range(width):
                acc = (acc * r) % _P
                cached[width - 1 - j] = acc
            self._powers[(r, width)] = cached
        return cached

    def _power_pieces(self, width: int):
        """Both points' power tables as one ``(width, 10)`` float64
        matrix: column ``2*j + i`` holds bits ``[13*j, 13*j + 13)`` of
        point ``i``'s powers."""
        cached = self._powers.get(width)
        if cached is None:
            tables = [self._power_table(r, width) for r in (self._r1, self._r2)]
            cached = self._powers[width] = np.asarray(
                [
                    [(power >> shift) & _MASK13
                     for shift in _PIECE_SHIFTS for power in row]
                    for row in zip(*tables)
                ],
                dtype=np.float64,
            )
        return cached

    @staticmethod
    def _limb_width(plain_size: int, aad_len: int) -> int:
        return 2 + (aad_len + 3) // 4 + (plain_size + 3) // 4 + 2

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def seal_lanes(
        self,
        nonce: bytes,
        plain,
        count: int,
        plain_size: int,
        *,
        lane_base: int = 0,
        aad: bytes = b"",
        out=None,
        scratch: Optional[dict] = None,
    ):
        """Seal ``count`` uniform lanes under one nonce.

        ``plain`` is either a buffer of ``count * plain_size`` bytes or a
        ``(count, plain_size)`` uint8 NumPy matrix.  Returns the sealed
        buffer of ``count * (plain_size + TAG_LEN)`` bytes — written into
        ``out`` (a writable buffer of exactly that size) when given, so
        epoch write-backs land straight in the host blob buffer with no
        intermediate copy.  ``scratch`` is an optional dict of reusable
        arrays (see :func:`repro.oblivious.soa.scratch_array`) that the
        kernel keys by shape — pass the same dict every epoch to skip
        allocation churn.
        """
        if count < 0 or plain_size <= 0:
            raise ValueError("count must be >= 0 and plain_size positive")
        if count == 0:
            return out if out is not None else b""
        if self.backend == "numpy":
            return self._seal_np(
                nonce, plain, count, plain_size, lane_base, aad, out, scratch
            )
        return self._seal_py(
            nonce, plain, count, plain_size, lane_base, aad, out
        )

    def open_lanes(
        self,
        nonce: bytes,
        sealed,
        count: int,
        plain_size: int,
        *,
        lane_base: int = 0,
        aad: bytes = b"",
        scratch: Optional[dict] = None,
        as_matrix: bool = False,
    ):
        """Authenticate and decrypt ``count`` lanes sealed under ``nonce``.

        Verifies every lane's tag before releasing any plaintext; raises
        :class:`~repro.errors.IntegrityError` naming the first failing
        lane on any tamper, splice, or truncation.  Returns the plaintext
        as bytes, or as a ``(count, plain_size)`` uint8 matrix with
        ``as_matrix=True`` (NumPy backend only).
        """
        if count < 0 or plain_size <= 0:
            raise ValueError("count must be >= 0 and plain_size positive")
        slot_size = plain_size + TAG_LEN
        view = memoryview(sealed)
        if len(view) != count * slot_size:
            raise IntegrityError(
                f"sealed buffer is {len(view)} bytes; expected "
                f"{count * slot_size} ({count} lanes of {slot_size})"
            )
        if count == 0:
            if as_matrix:
                return np.empty((0, plain_size), dtype=np.uint8)
            return b""
        if self.backend == "numpy":
            return self._open_np(
                nonce, view, count, plain_size, lane_base, aad,
                scratch, as_matrix,
            )
        if as_matrix:
            raise ValueError("as_matrix requires the numpy backend")
        return self._open_py(nonce, view, count, plain_size, lane_base, aad)

    def seal_one(
        self, nonce: bytes, plaintext: bytes, *,
        lane: int = 0, aad: bytes = b"",
    ) -> bytes:
        """Seal a single lane (the scalar oracle for this scheme)."""
        return bytes(
            self.seal_lanes(
                nonce, plaintext, 1, len(plaintext),
                lane_base=lane, aad=aad,
            )
        )

    def open_one(
        self, nonce: bytes, blob: bytes, *,
        lane: int = 0, aad: bytes = b"",
    ) -> bytes:
        """Open a single lane; raises IntegrityError on any tampering."""
        if len(blob) < TAG_LEN + 1:
            raise IntegrityError(
                f"lane {lane} ciphertext is truncated ({len(blob)} bytes)"
            )
        return bytes(
            self.open_lanes(
                nonce, blob, 1, len(blob) - TAG_LEN,
                lane_base=lane, aad=aad,
            )
        )

    # ------------------------------------------------------------------
    # Pure-Python reference (exact integer arithmetic)
    # ------------------------------------------------------------------
    def _lane_tag_py(
        self, ts: tuple, lane: int, ct: bytes, aad: bytes, plain_size: int
    ) -> bytes:
        limbs = (
            [(lane >> 32) & 0xFFFFFFFF, lane & 0xFFFFFFFF]
            + _limbs_of_bytes(aad)
            + _limbs_of_bytes(ct)
            + [len(aad), plain_size]
        )
        width = len(limbs)
        pw1 = self._power_table(self._r1, width)
        pw2 = self._power_table(self._r2, width)
        t1 = sum(m * w for m, w in zip(limbs, pw1)) % _P
        t2 = sum(m * w for m, w in zip(limbs, pw2)) % _P
        ts0, ts1 = ts
        masks = [
            _mix64(((ts0 + (((lane * 4 + k + 1) * _GAMMA) & _MASK64))
                    & _MASK64) ^ ts1)
            for k in range(4)
        ]
        return _U64x4.pack(
            (t1 + (masks[0] & _MASK61)) % _P,
            (t2 + (masks[1] & _MASK61)) % _P,
            masks[2],
            masks[3],
        )

    def _keystream_py(self, ks: tuple, lane: int, plain_size: int) -> bytes:
        ks0, ks1 = ks
        words_per_lane = (plain_size + 7) // 8
        base = lane * words_per_lane
        out = bytearray()
        for j in range(words_per_lane):
            b = base + j
            z = ((ks0 + (((b + 1) * _GAMMA) & _MASK64)) & _MASK64) ^ ks1
            out += _mix64(z).to_bytes(8, "big")
        return bytes(out[:plain_size])

    def _seal_py(
        self, nonce, plain, count, plain_size, lane_base, aad, out
    ):
        ks, ts = self._message_seeds(nonce)
        if hasattr(plain, "tobytes") and not isinstance(
            plain, (bytes, bytearray, memoryview)
        ):  # ndarray input on the py backend
            view = memoryview(plain.tobytes())
        else:
            view = memoryview(plain)
        if len(view) != count * plain_size:
            raise ValueError(
                f"plaintext buffer is {len(view)} bytes; expected "
                f"{count * plain_size}"
            )
        slot_size = plain_size + TAG_LEN
        result = bytearray(count * slot_size)
        for i in range(count):
            lane = lane_base + i
            p = bytes(view[i * plain_size : (i + 1) * plain_size])
            stream = self._keystream_py(ks, lane, plain_size)
            ct = bytes(a ^ b for a, b in zip(p, stream))
            tag = self._lane_tag_py(ts, lane, ct, aad, plain_size)
            result[i * slot_size : i * slot_size + plain_size] = ct
            result[i * slot_size + plain_size : (i + 1) * slot_size] = tag
        if out is not None:
            memoryview(out)[:] = result
            return out
        return bytes(result)

    def _open_py(self, nonce, view, count, plain_size, lane_base, aad):
        ks, ts = self._message_seeds(nonce)
        slot_size = plain_size + TAG_LEN
        plains = bytearray(count * plain_size)
        for i in range(count):
            lane = lane_base + i
            blob = bytes(view[i * slot_size : (i + 1) * slot_size])
            ct, tag = blob[:plain_size], blob[plain_size:]
            expect = self._lane_tag_py(ts, lane, ct, aad, plain_size)
            if expect != tag:
                raise IntegrityError(f"lane {lane} failed authentication")
            stream = self._keystream_py(ks, lane, plain_size)
            plains[i * plain_size : (i + 1) * plain_size] = bytes(
                a ^ b for a, b in zip(ct, stream)
            )
        return bytes(plains)

    # ------------------------------------------------------------------
    # NumPy kernel (O(1) array passes per batch)
    # ------------------------------------------------------------------
    @staticmethod
    def _mix64_np(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    @staticmethod
    def _mod_p_np(x):
        """Reduce ``x < 2^64`` mod p: two folds + one conditional subtract
        (branch-free: below p, ``x - p`` wraps above ``x``)."""
        m = np.uint64(_MASK61)
        x = (x & m) + (x >> np.uint64(61))
        x = (x & m) + (x >> np.uint64(61))
        return np.minimum(x, x - np.uint64(_P))

    @staticmethod
    def _rot61_np(x, bits: int):
        """``x * 2^bits mod p`` for ``x < 2^61``: a 61-bit left rotation."""
        return ((x << np.uint64(bits)) & np.uint64(_MASK61)) | (
            x >> np.uint64(61 - bits)
        )

    def _keystream_np(
        self, ks, count, plain_size, lane_base, scratch
    ):
        """The whole batch keystream as a ``(count, L*8)`` uint8 matrix."""
        ks0, ks1 = ks
        words_per_lane = (plain_size + 7) // 8
        total = count * words_per_lane
        # The Weyl ramp (j+1)*GAMMA depends only on the batch shape;
        # cache it across epochs and shift by the per-nonce offset.
        key = ("vec_weyl", total)
        ramp = None if scratch is None else scratch.get(key)
        if ramp is None:
            ramp = np.arange(1, total + 1, dtype=np.uint64) * np.uint64(
                _GAMMA
            )
            if scratch is not None:
                scratch[key] = ramp
        offset = np.uint64(
            (ks0 + lane_base * words_per_lane * _GAMMA) & _MASK64
        )
        words = self._mix64_np((ramp + offset) ^ np.uint64(ks1))
        return (
            words.astype(">u8")
            .view(np.uint8)
            .reshape(count, words_per_lane * 8)
        )

    def _lane_tags_np(
        self, ts, count, plain_size, lane_base, aad, ct_matrix, scratch
    ):
        """All lane tags as a ``(count, TAG_LEN)`` uint8 matrix."""
        ts0, ts1 = ts
        aad_limbs = _limbs_of_bytes(aad)
        width = self._limb_width(plain_size, len(aad))
        limbs = soa.scratch_array(
            scratch, "vec_limbs", (count, width), np.float64
        )
        lanes = np.arange(
            lane_base, lane_base + count, dtype=np.uint64
        )
        limbs[:, 0] = lanes >> np.uint64(32)
        limbs[:, 1] = lanes & np.uint64(0xFFFFFFFF)
        col = 2
        if aad_limbs:
            limbs[:, col : col + len(aad_limbs)] = np.asarray(
                aad_limbs, dtype=np.float64
            )
            col += len(aad_limbs)
        # Ciphertext limbs: one memcpy into a contiguous padded scratch
        # row, then a single big-endian-u32 -> float64 conversion pass —
        # no per-limb shifts, no (N, limbs, 4) intermediate.
        pad = (-plain_size) % 4
        padded = soa.scratch_array(
            scratch, "vec_ct_pad", (count, plain_size + pad), np.uint8
        )
        padded[:, :plain_size] = ct_matrix
        if pad:
            padded[:, plain_size:] = 0
        quads = padded.view(np.dtype(">u4"))
        ct_limb_count = quads.shape[1]
        limbs[:, col : col + ct_limb_count] = quads
        limbs[:, -2] = len(aad)
        limbs[:, -1] = plain_size

        # Both polynomials as one exact float64 matmul per column block
        # (see "Tags" in the module docstring): full 512-lane row blocks
        # in one stacked product, the remaining lanes in one 2-D product.
        pieces = self._power_pieces(width)
        part = soa.scratch_array(
            scratch, "vec_parts", (count, 2 * len(_PIECE_SHIFTS)), np.float64
        )
        stacked = count // _ROW_BLOCK
        full = stacked * _ROW_BLOCK
        sums = None
        for start in range(0, width, _MAX_BLOCK):
            block = slice(start, start + _MAX_BLOCK)
            if stacked:
                np.matmul(
                    limbs[:full, block].reshape(stacked, _ROW_BLOCK, -1),
                    pieces[block],
                    out=part[:full].reshape(stacked, _ROW_BLOCK, -1),
                )
            if full < count:
                np.matmul(limbs[full:, block], pieces[block], out=part[full:])
            # A block's exact sums are below 2^53 < p: reduce only the
            # running total.  Transposed, each piece's sums for both
            # points are one contiguous (2, count) row pair.
            exact = part.T.astype(np.uint64, order="C")
            sums = exact if sums is None else self._mod_p_np(sums + exact)
        # Fold the five partial sums per point: x * 2^(13 j) mod p is a
        # 61-bit rotation of x < 2^61, and the five rotations plus the
        # pad word stay below 6 * 2^61 < 2^64 — one reduction.
        sums = sums.reshape(len(_PIECE_SHIFTS), 2, count)
        folded = sums[0].copy()
        for j in range(1, len(_PIECE_SHIFTS)):
            folded += self._rot61_np(sums[j], _PIECE_SHIFTS[j])
        idx = np.arange(1, 5, dtype=np.uint64)[:, None] + lanes * np.uint64(4)
        tag_words = self._mix64_np(
            (np.uint64(ts0) + idx * np.uint64(_GAMMA)) ^ np.uint64(ts1)
        )
        tag_words[:2] = self._mod_p_np(
            folded + (tag_words[:2] & np.uint64(_MASK61))
        )
        return tag_words.T.astype(">u8", order="C").view(np.uint8)

    @staticmethod
    def _as_plain_matrix(plain, count, plain_size):
        if isinstance(plain, np.ndarray):
            if plain.shape != (count, plain_size) or plain.dtype != np.uint8:
                raise ValueError(
                    f"plaintext matrix must be uint8 of shape "
                    f"({count}, {plain_size}), got {plain.dtype} "
                    f"{plain.shape}"
                )
            return plain
        view = memoryview(plain)
        if len(view) != count * plain_size:
            raise ValueError(
                f"plaintext buffer is {len(view)} bytes; expected "
                f"{count * plain_size}"
            )
        return np.frombuffer(view, dtype=np.uint8).reshape(count, plain_size)

    def _seal_np(
        self, nonce, plain, count, plain_size, lane_base, aad, out, scratch
    ):
        ks, ts = self._message_seeds(nonce)
        matrix = self._as_plain_matrix(plain, count, plain_size)
        slot_size = plain_size + TAG_LEN
        if out is not None:
            blobs = np.frombuffer(memoryview(out), dtype=np.uint8)
            if blobs.size != count * slot_size:
                raise ValueError(
                    f"out buffer is {blobs.size} bytes; expected "
                    f"{count * slot_size}"
                )
            blobs = blobs.reshape(count, slot_size)
        else:
            blobs = np.empty((count, slot_size), dtype=np.uint8)
        stream = self._keystream_np(
            ks, count, plain_size, lane_base, scratch
        )
        np.bitwise_xor(
            matrix, stream[:, :plain_size], out=blobs[:, :plain_size]
        )
        blobs[:, plain_size:] = self._lane_tags_np(
            ts, count, plain_size, lane_base, aad,
            blobs[:, :plain_size], scratch,
        )
        if out is not None:
            return out
        return blobs.tobytes()

    def _open_np(
        self, nonce, view, count, plain_size, lane_base, aad,
        scratch, as_matrix,
    ):
        ks, ts = self._message_seeds(nonce)
        slot_size = plain_size + TAG_LEN
        blobs = np.frombuffer(view, dtype=np.uint8).reshape(count, slot_size)
        ct = blobs[:, :plain_size]
        tags = blobs[:, plain_size:]
        expect = self._lane_tags_np(
            ts, count, plain_size, lane_base, aad, ct, scratch
        )
        ok = (tags == expect).all(axis=1)
        if not bool(ok.all()):
            bad = int(np.argmin(ok))
            raise IntegrityError(
                f"lane {lane_base + bad} failed authentication"
            )
        stream = self._keystream_np(
            ks, count, plain_size, lane_base, scratch
        )
        plain = soa.scratch_array(
            scratch, "vec_plain", (count, plain_size), np.uint8
        )
        np.bitwise_xor(ct, stream[:, :plain_size], out=plain)
        if as_matrix:
            return plain
        return plain.tobytes()
