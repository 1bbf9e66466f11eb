"""Encrypted, integrity-protected object storage outside the enclave (§7).

The paper keeps bulk data in untrusted memory: "The enclave encrypts
objects (for confidentiality) and stores digests of the contents inside
the enclave (for integrity)."  :class:`EncryptedStore` models exactly
that: host-side AEAD ciphertexts plus enclave-side integrity metadata.
Reads authenticate; any host tampering raises
:class:`~repro.errors.IntegrityError`.

Zero-copy layout
================

The store is a structure of arrays: the host side is two contiguous
buffers (all nonces back to back, all fixed-size ``ciphertext || tag``
blobs back to back) rather than a Python list of per-slot tuples.  That
single decision is what the whole batch hot path hangs off:

* :meth:`EncryptedStore.get_batch` authenticates and decrypts the entire
  store in one pass — one SHA-256 over the whole ciphertext buffer
  (instead of one digest per slot), one
  :meth:`~repro.crypto.vector.VectorAead.open_lanes` call, one NumPy
  view as the ``(num_slots, value_size)`` value matrix the vectorized
  scan kernel consumes.  No per-slot Python call, no per-object tuples.
* :meth:`EncryptedStore.put_batch` is the mirror image for the
  write-back: one fresh batch nonce, one
  :meth:`~repro.crypto.vector.VectorAead.seal_lanes` call straight into
  the host buffer, one whole-buffer digest pinned in the enclave.
* The subORAM calls each **once per epoch**, not once per batch
  (:meth:`~repro.suboram.suboram.SubOram.epoch`): one authenticated open
  and one fresh-nonce reseal of every slot, a function of ``num_slots``.
* Pickling (protocol 5) hands the contiguous buffers over as
  :class:`pickle.PickleBuffer` views and drops the scratch and
  telemetry fields, so a subORAM worker's sealed snapshot
  (:mod:`repro.serve.workers`) holds the host buffers and integrity
  metadata only, with no per-object pickle opcodes.

The crypto axis
===============

``crypto`` selects the store's cipher and, with it, whether a batch path
exists — this module is the one place the axis is defined
(:data:`CRYPTO_MODES`, :data:`DEFAULT_CRYPTO`, :func:`resolve_crypto`):

* ``"scalar"`` — the audited oracle: the SHAKE-256/HMAC scheme of
  :mod:`repro.crypto.aead`, one ``seal``/``open`` per slot, the slot
  index bound as associated data.  No batch path
  (``supports_batch`` is False).
* ``"vector"`` — the deployed path: the counter-mode kernel of
  :mod:`repro.crypto.vector`, the slot index bound as the keystream
  lane; ``put_batch``/``get_batch`` move the whole store per call, and
  the per-slot ``put``/``get`` seal a batch of one.

Integrity bookkeeping across both paths
=======================================

The enclave pins, per slot, the last nonce *it* wrote; freshness never
depends on host-held data.  Per-slot writes additionally keep a per-slot
SHA-256 digest; batch writes keep one digest of the whole ciphertext
buffer instead.  Reads then verify, in order: the pinned nonce (rollback
detection), the freshest digest covering the slot (tamper detection at
memcmp cost), and finally the AEAD tag bound to the slot index
(cross-slot splicing detection).  A batch read counts the bytes it
verified into the ``snoopy_store_verified_bytes_total`` telemetry
counter.

Instrumented subclasses that override ``put``/``get`` (e.g. the test
harness's ``TracingStore``) automatically disable the batch fast path
(``supports_batch`` is False), so per-slot access traces keep meaning
what they always meant.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

import numpy as np

from repro.crypto.aead import AeadKey, NONCE_LEN, digest
from repro.crypto.vector import VectorAead
from repro.errors import CapacityError, IntegrityError
from repro.oblivious import soa
from repro.telemetry import NULL_TELEMETRY
from repro.utils.validation import require

_DIGEST_LEN = 32

#: Valid store-crypto selectors (see "The crypto axis" above).
CRYPTO_MODES = ("scalar", "vector")

#: The crypto axis' one default: what ``SnoopyConfig`` and every
#: constructor that is not told otherwise resolve to.
DEFAULT_CRYPTO = "vector"


def resolve_crypto(crypto: Optional[str]) -> str:
    """Validate a store-crypto selector; ``None`` means the default."""
    if crypto is None:
        return DEFAULT_CRYPTO
    require(
        crypto in CRYPTO_MODES,
        f"unknown crypto mode {crypto!r}; valid modes: {list(CRYPTO_MODES)}",
    )
    return crypto


#: Store attributes held as contiguous buffers and pickled out-of-band.
_BUFFER_FIELDS = (
    "_host_nonces",
    "_host_blobs",
    "_pinned_nonces",
    "_written",
    "_slot_digests",
    "_digest_fresh",
)

#: Ephemeral attributes rebuilt (empty) after any pickle round-trip.
_EPHEMERAL_FIELDS = ("telemetry", "_scratch")


def _rebuild_store(cls, state: dict, *buffers):
    """Reassemble a store from its pickled state and buffers.

    Each buffer is copied into a fresh ``bytearray``, so the rebuilt
    store owns its memory whatever the unpickler handed over.
    """
    store = cls.__new__(cls)
    store.__dict__.update(state)
    for name, buf in zip(_BUFFER_FIELDS, buffers):
        store.__dict__[name] = bytearray(buf)
    store._scratch = {}
    store.telemetry = NULL_TELEMETRY
    return store


class EncryptedStore:
    """Fixed-slot encrypted store over contiguous host buffers.

    Slot payloads are ``(key, value)`` pairs serialized as
    ``key(16 bytes, signed) || value``.  Every write re-encrypts under a
    fresh nonce so ciphertexts never repeat even for unchanged plaintext —
    this is what lets the subORAM's write-back scan hide which objects a
    batch modified.  ``put``/``get`` are the per-slot path;
    ``put_batch``/``get_batch`` move the same bytes through one
    vectorized pass per epoch under ``crypto="vector"`` (see the module
    docstring).
    """

    def __init__(
        self,
        encryption_key: bytes,
        num_slots: int,
        value_size: int,
        crypto: Optional[str] = None,
    ):
        require(num_slots >= 0, "num_slots must be >= 0")
        require(value_size > 0, "value_size must be positive")
        #: Store-crypto mode (see "The crypto axis" in the module
        #: docstring); exactly one of the two ciphers below is built.
        self.crypto = resolve_crypto(crypto)
        self._aead = self._vec = None
        if self.crypto == "vector":
            self._vec = VectorAead(encryption_key)
        else:
            self._aead = AeadKey(encryption_key)
        #: Epoch-reused scratch arrays for the batch crypto path (keyed
        #: by shape; see :func:`repro.oblivious.soa.scratch_array`).
        #: Never pickled — a shipped store re-grows its own.
        self._scratch: dict = {}
        self.num_slots = num_slots
        self.value_size = value_size
        #: Plaintext bytes per slot: 16-byte signed key prefix + value.
        self.plain_size = 16 + value_size
        #: Host ciphertext bytes per slot (uniform: plaintext + tag).
        self.slot_size = self.plain_size + 32
        # Host-visible contiguous buffers (untrusted memory).
        self._host_nonces = bytearray(num_slots * NONCE_LEN)
        self._host_blobs = bytearray(num_slots * self.slot_size)
        # Host tampering with a non-uniform-length blob cannot live in the
        # fixed-width buffer; it is tracked here and rejected on read.
        self._odd_blobs: dict = {}
        # Enclave-held integrity metadata.
        self._pinned_nonces = bytearray(num_slots * NONCE_LEN)
        self._written = bytearray(num_slots)
        self._slot_digests = bytearray(num_slots * _DIGEST_LEN)
        self._digest_fresh = bytearray(num_slots)
        self._buffer_digest: Optional[bytes] = None
        #: Telemetry handle; the owning subORAM attaches its live handle.
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Per-slot path (under ``crypto="scalar"``: the audited oracle)
    # ------------------------------------------------------------------
    def put(self, slot: int, key: int, value: bytes) -> None:
        """Encrypt and store an object, refreshing the slot digest.

        Raises:
            CapacityError: ``value`` is not exactly ``value_size`` bytes
                (fixed-size slots are what keep ciphertext lengths
                uniform; a ``ValueError`` subclass for compatibility).
        """
        if len(value) != self.value_size:
            raise CapacityError(
                f"value must be exactly {self.value_size} bytes, got {len(value)}"
            )
        require(0 <= slot < self.num_slots, f"slot {slot} out of range")
        plaintext = key.to_bytes(16, "big", signed=True) + value
        nonce = os.urandom(NONCE_LEN)
        if self._vec is not None:
            # The lane index binds the slot (splice detection); a batch
            # of one under a fresh nonce.
            blob = self._vec.seal_one(nonce, plaintext, lane=slot)
        else:
            blob = self._aead.seal(
                nonce, plaintext, aad=slot.to_bytes(8, "big")
            )
        nrow = slot * NONCE_LEN
        self._host_nonces[nrow : nrow + NONCE_LEN] = nonce
        brow = slot * self.slot_size
        self._host_blobs[brow : brow + self.slot_size] = blob
        self._odd_blobs.pop(slot, None)
        self._pinned_nonces[nrow : nrow + NONCE_LEN] = nonce
        self._written[slot] = 1
        drow = slot * _DIGEST_LEN
        self._slot_digests[drow : drow + _DIGEST_LEN] = digest(blob)
        self._digest_fresh[slot] = 1
        # A per-slot write invalidates the whole-buffer digest; the next
        # batch read falls back to per-slot verification and re-pins it.
        self._buffer_digest = None

    def get(self, slot: int) -> tuple:
        """Fetch, authenticate, and decrypt slot contents; returns (key, value)."""
        require(0 <= slot < self.num_slots, f"slot {slot} out of range")
        if not self._written[slot]:
            raise IntegrityError(f"slot {slot} was never written")
        nonce, blob = self._host_slot(slot)
        self._verify_slot(slot, nonce, blob)
        if self._vec is not None:
            plaintext = self._vec.open_one(nonce, blob, lane=slot)
        else:
            plaintext = self._aead.open(
                nonce, blob, aad=slot.to_bytes(8, "big")
            )
        key = int.from_bytes(plaintext[:16], "big", signed=True)
        return key, plaintext[16:]

    def _host_slot(self, slot: int) -> tuple:
        """The (nonce, blob) pair currently held by the untrusted host."""
        nrow = slot * NONCE_LEN
        nonce = bytes(self._host_nonces[nrow : nrow + NONCE_LEN])
        if slot in self._odd_blobs:
            return nonce, self._odd_blobs[slot]
        brow = slot * self.slot_size
        return nonce, bytes(self._host_blobs[brow : brow + self.slot_size])

    def _verify_slot(self, slot: int, nonce: bytes, blob: bytes) -> None:
        """Enclave-side freshness + integrity checks for one slot."""
        nrow = slot * NONCE_LEN
        if nonce != bytes(self._pinned_nonces[nrow : nrow + NONCE_LEN]):
            raise IntegrityError(
                f"slot {slot} nonce does not match the enclave-pinned nonce"
            )
        if self._digest_fresh[slot]:
            drow = slot * _DIGEST_LEN
            if digest(blob) != bytes(
                self._slot_digests[drow : drow + _DIGEST_LEN]
            ):
                raise IntegrityError(
                    f"slot {slot} ciphertext digest mismatch"
                )

    # ------------------------------------------------------------------
    # Batch path (one vectorized pass over the whole store)
    # ------------------------------------------------------------------
    @property
    def supports_batch(self) -> bool:
        """Whether the batch fast path preserves this instance's semantics.

        False under ``crypto="scalar"`` (the oracle is per-slot by
        definition), for subclasses or instances that override
        ``put``/``get`` (instrumented stores must see every per-slot
        access).  Callers fall back to the per-slot loop.
        """
        if "get" in self.__dict__ or "put" in self.__dict__:
            return False
        cls = type(self)
        return (
            self._vec is not None
            and cls.get is EncryptedStore.get
            and cls.put is EncryptedStore.put
        )

    def put_batch(self, keys, values) -> None:
        """Re-encrypt and store every slot in one batch pass.

        ``keys`` is the per-slot object key column (an int64 ndarray or
        a list, one entry per slot, in slot order) and ``values`` either a ``(num_slots, value_size)``
        uint8 matrix or a list of ``value_size``-byte strings.  One fresh
        nonce seeds the whole batch keystream and each slot owns its own
        lane of it (:meth:`~repro.crypto.vector.VectorAead.seal_lanes`),
        sealed straight into the contiguous host buffer; the enclave
        pins one digest of the whole buffer.  Byte movement:
        ``num_slots * slot_size`` through one vectorized pass, counted in
        ``snoopy_store_bytes_moved_total{op="seal"}``.  Without a batch
        path (``supports_batch`` False) this is the per-slot ``put`` loop.
        """
        n = self.num_slots
        if len(keys) != n:
            raise ValueError(f"{len(keys)} keys for {n} slots")
        if not self.supports_batch:
            for slot, key in enumerate(keys):
                value = values[slot]
                self.put(slot, int(key), bytes(value))
            return
        if isinstance(values, np.ndarray):
            matrix = values
            if matrix.shape != (n, self.value_size):
                raise CapacityError(
                    f"value matrix shape {matrix.shape} != "
                    f"({n}, {self.value_size})"
                )
        else:
            try:
                matrix, has = soa.values_to_matrix(
                    list(values), self.value_size
                )
            except ValueError as exc:
                raise CapacityError(str(exc)) from None
            if not bool(has.all()) and n:
                raise CapacityError("put_batch values must all be present")
        plain = soa.scratch_array(
            self._scratch, "store_plain", (n, self.plain_size), np.uint8
        )
        plain[:, :16] = soa.keys_to_prefix(keys)
        plain[:, 16:] = matrix
        nonce = os.urandom(NONCE_LEN)
        raw_nonces = nonce * n
        self._vec.seal_lanes(
            nonce,
            plain,
            n,
            self.plain_size,
            out=memoryview(self._host_blobs),
            scratch=self._scratch,
        )
        self.telemetry.counter("snoopy_keystream_derivations_total").inc()
        self._host_nonces[:] = raw_nonces
        self._odd_blobs.clear()
        self._pinned_nonces[:] = raw_nonces
        self._written[:] = b"\x01" * n
        self._digest_fresh[:] = b"\x00" * n
        self._buffer_digest = digest(self._host_blobs)
        self.telemetry.counter("snoopy_store_batch_seals_total").inc()
        self.telemetry.counter(
            "snoopy_store_bytes_moved_total", op="seal"
        ).inc(n * self.slot_size)

    def get_batch(self) -> tuple:
        """Authenticate and decrypt the whole store in one batch pass.

        Returns ``(keys, values)``: the int64 key column and the
        ``(num_slots, value_size)`` uint8 value matrix, both in slot
        order — exactly the SoA inputs of
        :meth:`~repro.oblivious.kernels.NumpyKernel.scan_soa`.  Integrity
        comes from (in order) the enclave-pinned nonces (rollback), one
        digest pass over the contiguous ciphertext buffer — or the
        per-slot digests where fresher — (tamper at memcmp cost, counted
        in ``snoopy_store_verified_bytes_total``), and every slot's
        per-lane tag (splicing).  Raises :class:`IntegrityError` on any
        deviation, including non-uniform ciphertext lengths.
        """
        if not self.supports_batch:
            raise RuntimeError(
                "get_batch requires crypto='vector' and an uninstrumented "
                "per-slot get/put; use per-slot get()"
            )
        n = self.num_slots
        missing = self._written.find(0)
        if missing >= 0:
            raise IntegrityError(f"slot {missing} was never written")
        if self._odd_blobs:
            raise IntegrityError(
                f"slot {min(self._odd_blobs)} ciphertext length deviates "
                "from the uniform slot size"
            )
        raw_nonces = bytes(self._host_nonces)
        if raw_nonces != bytes(self._pinned_nonces):
            bad = next(
                slot
                for slot in range(n)
                if raw_nonces[slot * NONCE_LEN : (slot + 1) * NONCE_LEN]
                != bytes(
                    self._pinned_nonces[
                        slot * NONCE_LEN : (slot + 1) * NONCE_LEN
                    ]
                )
            )
            raise IntegrityError(
                f"slot {bad} nonce does not match the enclave-pinned nonce"
            )
        # One snapshot: the digest, the tags and the decryption all see
        # the same bytes, whatever the host writes meanwhile.
        blob_buf = bytes(self._host_blobs)
        if self._buffer_digest is not None:
            if digest(blob_buf) != self._buffer_digest:
                raise IntegrityError("store ciphertext buffer digest mismatch")
            self.telemetry.counter("snoopy_store_verified_bytes_total").inc(
                len(blob_buf)
            )
        else:
            # Mixed state after per-slot writes: verify the slots that
            # still carry fresh per-slot digests one by one.
            for slot in range(n):
                if self._digest_fresh[slot]:
                    brow = slot * self.slot_size
                    blob = blob_buf[brow : brow + self.slot_size]
                    drow = slot * _DIGEST_LEN
                    if digest(blob) != bytes(
                        self._slot_digests[drow : drow + _DIGEST_LEN]
                    ):
                        raise IntegrityError(
                            f"slot {slot} ciphertext digest mismatch"
                        )
        plain = self._open_lanes(raw_nonces, blob_buf)
        self.telemetry.counter("snoopy_store_batch_opens_total").inc()
        self.telemetry.counter(
            "snoopy_store_bytes_moved_total", op="open"
        ).inc(len(blob_buf))
        keys = soa.prefix_to_keys(plain[:, :16])
        return keys, plain[:, 16:]

    def _open_lanes(self, raw_nonces: bytes, blob_buf: bytes):
        """Whole-store open, as a plaintext matrix.

        The fast path applies when every slot shares the batch nonce of
        the last ``put_batch`` — one ``open_lanes`` call for the whole
        store.  After interleaved per-slot writes (mixed nonces)
        each slot opens individually under its own stored nonce; both
        paths verify every tag before releasing plaintext.
        """
        n = self.num_slots
        nonce0 = raw_nonces[:NONCE_LEN]
        if raw_nonces == nonce0 * n:
            return self._vec.open_lanes(
                nonce0,
                blob_buf,
                n,
                self.plain_size,
                scratch=self._scratch,
                as_matrix=True,
            )
        plain = soa.scratch_array(
            self._scratch, "store_plain_mixed", (n, self.plain_size), np.uint8
        )
        for slot in range(n):
            nonce = raw_nonces[slot * NONCE_LEN : (slot + 1) * NONCE_LEN]
            blob = blob_buf[slot * self.slot_size : (slot + 1) * self.slot_size]
            row = self._vec.open_one(nonce, blob, lane=slot)
            plain[slot] = np.frombuffer(row, dtype=np.uint8)
        return plain

    # ------------------------------------------------------------------
    # Pickling (protocol 5): the host buffers as buffer views.
    # ------------------------------------------------------------------
    def __reduce_ex__(self, protocol):
        """Pickle the buffers as :class:`pickle.PickleBuffer` views.

        The scratch and telemetry fields are dropped and rebuilt empty,
        so a worker snapshot carries only the sealed state.  Below
        protocol 5 (``copy.deepcopy``) the default reduction applies.
        """
        if protocol < 5:
            return super().__reduce_ex__(protocol)
        state = {
            name: value
            for name, value in self.__dict__.items()
            if name not in _BUFFER_FIELDS
            and name not in _EPHEMERAL_FIELDS
        }
        buffers = tuple(
            pickle.PickleBuffer(self.__dict__[name])
            for name in _BUFFER_FIELDS
        )
        return (_rebuild_store, (type(self), state) + buffers)

    # ------------------------------------------------------------------
    # Host-attack surface, used by integrity tests.
    # ------------------------------------------------------------------
    def host_ciphertext(self, slot: int) -> Optional[tuple]:
        """What the untrusted host sees for a slot."""
        if not self._written[slot] and slot not in self._odd_blobs:
            return None
        return self._host_slot(slot)

    def host_tamper(self, slot: int, blob: bytes) -> None:
        """Simulate the host overwriting a ciphertext."""
        blob = bytes(blob)
        if len(blob) == self.slot_size:
            brow = slot * self.slot_size
            self._host_blobs[brow : brow + self.slot_size] = blob
            self._odd_blobs.pop(slot, None)
        else:
            self._odd_blobs[slot] = blob

    def host_rollback(self, slot: int, old: tuple) -> None:
        """Simulate the host replaying an old (nonce, blob) pair."""
        nonce, blob = old
        nrow = slot * NONCE_LEN
        self._host_nonces[nrow : nrow + NONCE_LEN] = nonce
        self.host_tamper(slot, blob)
