"""Encrypted, integrity-protected object storage outside the enclave (§7).

The paper keeps bulk data in untrusted memory: "The enclave encrypts
objects (for confidentiality) and stores digests of the contents inside
the enclave (for integrity)."  :class:`EncryptedStore` models exactly
that: host-side AEAD ciphertexts plus the nonces the enclave last wrote,
pinned inside the enclave.  Reads authenticate; any host tampering
raises :class:`~repro.errors.IntegrityError`.

The crypto axis
===============

``crypto`` selects the store's cipher and its host layout — this module
is the one place the axis is defined (:data:`CRYPTO_MODES`,
:data:`DEFAULT_CRYPTO`, :func:`resolve_crypto`):

Both layouts seal with the one AES-256-GCM cipher of
:mod:`repro.crypto.aead`; the store holds one
:class:`~repro.crypto.vector.VectorAead` for either.

* ``"scalar"`` — the audited oracle: one ``seal``/``open`` per slot
  under the slot's own fresh random nonce, the slot index bound as
  associated data.  The host holds a nonce and a ``plain_size + 16``
  byte ``ciphertext || tag`` blob per slot, and the enclave pins every
  slot's nonce (rollback detection).  ``put``/``get`` work per slot,
  ``put_batch`` is the ``put`` loop, and there is no ``get_batch``.
* ``"vector"`` — the deployed path: the partition is one AES-GCM
  message (``seal_lanes``/``open_lanes``).  ``put_batch`` seals the whole
  ``(num_slots, plain_size)`` plaintext under one fresh random nonce
  straight into the host buffer of ``num_slots * plain_size + 16``
  bytes, and the enclave pins that one nonce.  ``get_batch`` is one
  ``decrypt_into`` under the pinned nonce into the store's resident
  plaintext.  The GCM tag is the tamper check — a truncation, or two
  slot regions swapped, fails it too, since slot position inside the
  tagged buffer binds each row — and the pinned nonce is the rollback
  check: a replayed older buffer fails under it.  A failed open zeroes
  the resident plaintext before raising, so no unauthenticated byte is
  ever released.  There is no per-slot ``put``; ``get`` reads one row
  of a whole-store open.

The subORAM calls ``get_batch`` and ``put_batch`` **once per epoch**
(:meth:`~repro.suboram.suboram.SubOram.run_epoch`): one authenticated open
and one fresh-nonce reseal of every slot, a function of ``num_slots``.

Both layouts offer the same per-slot host view for attack tests:
``host_ciphertext``/``host_tamper``/``host_rollback`` address a slot's
region of the host buffer and the nonce that covers it.  Pickling
(protocol 5) hands the host buffers over as :class:`pickle.PickleBuffer`
views and drops the resident plaintext and the telemetry handle, so a
subORAM worker's sealed snapshot (:mod:`repro.serve.workers`) holds the
sealed state only.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

import numpy as np

from repro.crypto.aead import NONCE_LEN, TAG_LEN
from repro.crypto.vector import VectorAead
from repro.errors import CapacityError, IntegrityError
from repro.oblivious import soa
from repro.telemetry import NULL_TELEMETRY
from repro.utils.validation import require

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
_BUFFER_FIELDS = ("_host_nonces", "_host_blobs", "_pinned_nonces", "_written")

#: Ephemeral attributes rebuilt (empty) after any pickle round-trip.
_EPHEMERAL_FIELDS = ("telemetry", "_resident")


def _rebuild_store(cls, state: dict, *buffers):
    """Reassemble a store from its pickled state and buffers.

    Each buffer is copied into a fresh ``bytearray``, so the rebuilt
    store owns its memory whatever the unpickler handed over.
    """
    store = cls.__new__(cls)
    store.__dict__.update(state)
    for name, buf in zip(_BUFFER_FIELDS, buffers):
        store.__dict__[name] = bytearray(buf)
    store._resident = None
    store.telemetry = NULL_TELEMETRY
    return store


def _decode(row) -> tuple:
    """``(key, value)`` of one ``key(16 bytes, signed) || value`` row."""
    row = bytes(row)
    return int.from_bytes(row[:16], "big", signed=True), row[16:]


class EncryptedStore:
    """Fixed-slot encrypted store over contiguous host buffers.

    Slot payloads are ``(key, value)`` pairs serialized as
    ``key(16 bytes, signed) || value``.  Every write re-encrypts under a
    fresh nonce so ciphertexts never repeat even for unchanged plaintext —
    this is what lets the subORAM's write-back scan hide which objects a
    batch modified.  The two host layouts are described in the module
    docstring.
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
        #: docstring): which host layout the one cipher below seals.
        self.crypto = resolve_crypto(crypto)
        self.num_slots = num_slots
        self.value_size = value_size
        #: Plaintext bytes per slot: 16-byte signed key prefix + value.
        self.plain_size = 16 + value_size
        self._cipher = VectorAead(encryption_key)
        if self.supports_batch:
            nonces = 1
            #: Host bytes per slot region (vector: the row's ciphertext;
            #: the one GCM tag trails the buffer).
            self.slot_size = self.plain_size
            sealed = VectorAead.sealed_len(num_slots, self.plain_size)
        else:
            nonces = num_slots
            self.slot_size = self.plain_size + TAG_LEN
            sealed = num_slots * self.slot_size
        # Host-visible buffers (untrusted memory).
        self._host_nonces = bytearray(nonces * NONCE_LEN)
        self._host_blobs = bytearray(sealed)
        # Enclave-held freshness state: the nonce(s) it last wrote.
        self._pinned_nonces = bytearray(nonces * NONCE_LEN)
        self._written = bytearray(nonces)
        #: The enclave-side plaintext matrix ``get_batch`` decrypts into
        #: and ``put_batch`` seals from (vector only; never pickled).
        self._resident = None
        #: Telemetry handle; the owning subORAM attaches its live handle.
        self.telemetry = NULL_TELEMETRY

    def _nonce_row(self, slot: int) -> int:
        """The nonce covering ``slot``: its own, or the partition's."""
        return 0 if self.supports_batch else slot

    # ------------------------------------------------------------------
    # Per-slot path (``put`` exists only under ``crypto="scalar"``)
    # ------------------------------------------------------------------
    def put(self, slot: int, key: int, value: bytes) -> None:
        """Encrypt and store one object under a fresh nonce.

        Raises:
            CapacityError: ``value`` is not exactly ``value_size`` bytes
                (fixed-size slots are what keep ciphertext lengths
                uniform; a ``ValueError`` subclass for compatibility).
            RuntimeError: the store is ``crypto="vector"``, which reseals
                whole partitions only (``put_batch``).
        """
        if self.supports_batch:
            raise RuntimeError(
                "per-slot put requires crypto='scalar'; the vector store "
                "reseals whole partitions (put_batch)"
            )
        if len(value) != self.value_size:
            raise CapacityError(
                f"value must be exactly {self.value_size} bytes, got {len(value)}"
            )
        require(0 <= slot < self.num_slots, f"slot {slot} out of range")
        nonce = os.urandom(NONCE_LEN)
        blob = self._cipher.seal(
            nonce,
            key.to_bytes(16, "big", signed=True) + value,
            aad=slot.to_bytes(8, "big"),
        )
        nrow = slot * NONCE_LEN
        self._host_nonces[nrow : nrow + NONCE_LEN] = nonce
        self._pinned_nonces[nrow : nrow + NONCE_LEN] = nonce
        brow = slot * self.slot_size
        self._host_blobs[brow : brow + self.slot_size] = blob
        self._written[slot] = 1

    def get(self, slot: int) -> tuple:
        """Fetch, authenticate, and decrypt slot contents; returns (key, value).

        Under ``crypto="vector"`` this is one row of a whole-store open,
        decrypted into a fresh buffer so the resident plaintext of an
        epoch in progress is left alone.
        """
        require(0 <= slot < self.num_slots, f"slot {slot} out of range")
        if self.supports_batch:
            plain = np.empty((self.num_slots, self.plain_size), np.uint8)
            return _decode(self._open(plain)[slot])
        if not self._written[slot]:
            raise IntegrityError(f"slot {slot} was never written")
        if len(self._host_blobs) != self.num_slots * self.slot_size:
            raise IntegrityError(
                "host ciphertext buffer deviates from the uniform slot size"
            )
        nonce, blob = self.host_ciphertext(slot)
        nrow = slot * NONCE_LEN
        if nonce != self._pinned_nonces[nrow : nrow + NONCE_LEN]:
            raise IntegrityError(
                f"slot {slot} nonce does not match the enclave-pinned nonce"
            )
        return _decode(
            self._cipher.open(nonce, blob, aad=slot.to_bytes(8, "big"))
        )

    # ------------------------------------------------------------------
    # Batch path (one AES-GCM pass over the whole store)
    # ------------------------------------------------------------------
    @property
    def supports_batch(self) -> bool:
        """Whether this store moves whole partitions (``crypto="vector"``).

        The scalar oracle is per-slot by definition: its ``put_batch``
        is the ``put`` loop and it has no ``get_batch``.
        """
        return self.crypto == "vector"

    def put_batch(self, keys, values) -> None:
        """Re-encrypt and store every slot.

        ``keys`` is the per-slot object key column (an int64 ndarray or
        a list, in slot order) and ``values`` either a ``(num_slots,
        value_size)`` uint8 matrix or a list of ``value_size``-byte
        strings.  Under ``crypto="vector"`` this is one AES-GCM seal of
        the whole plaintext under a fresh nonce, straight into the host
        buffer; the enclave pins the nonce.  The value matrix
        ``get_batch`` returned (updated in place by the scan) is already
        resident and is not copied.  Counted in
        ``snoopy_store_batch_seals_total`` and
        ``snoopy_store_bytes_moved_total{op="seal"}``.  Under
        ``crypto="scalar"`` this is the per-slot ``put`` loop.
        """
        n = self.num_slots
        if len(keys) != n:
            raise ValueError(f"{len(keys)} keys for {n} slots")
        if not self.supports_batch:
            for slot, key in enumerate(keys):
                self.put(slot, int(key), bytes(values[slot]))
            return
        if isinstance(values, np.ndarray):
            matrix = values
            if matrix.shape != (n, self.value_size):
                raise CapacityError(
                    f"value matrix shape {matrix.shape} != "
                    f"({n}, {self.value_size})"
                )
        else:
            matrix, has = soa.values_to_matrix(list(values), self.value_size)
            if not bool(has.all()):
                raise CapacityError("put_batch values must all be present")
        plain = self._plain()
        if not np.may_share_memory(matrix, plain):
            plain[:, 16:] = matrix
        plain[:, :16] = soa.keys_to_prefix(keys)
        nonce = os.urandom(NONCE_LEN)
        self._cipher.seal_lanes(
            nonce, plain, n, self.plain_size, out=self._host_blobs
        )
        self._host_nonces[:] = nonce
        self._pinned_nonces[:] = nonce
        self._written[0] = 1
        self.telemetry.counter("snoopy_store_batch_seals_total").inc()
        self.telemetry.counter(
            "snoopy_store_bytes_moved_total", op="seal"
        ).inc(len(self._host_blobs))

    def get_batch(self) -> tuple:
        """Authenticate and decrypt the whole store in one pass.

        Returns ``(keys, values)``: the int64 key column and the
        ``(num_slots, value_size)`` uint8 value matrix, both in slot
        order — exactly the SoA inputs of
        :meth:`~repro.oblivious.kernels.NumpyKernel.scan_soa`.
        ``values`` is a view of the resident plaintext, which the scan
        may update in place before handing it back to ``put_batch``.
        One ``decrypt_into`` under the enclave-pinned nonce; raises
        :class:`IntegrityError` on a never-sealed store, a wrong-length
        host buffer, or a failed tag (tamper, splice, rollback), with
        the resident plaintext zeroed.  Counted in
        ``snoopy_store_batch_opens_total`` and
        ``snoopy_store_bytes_moved_total{op="open"}``.
        """
        if not self.supports_batch:
            raise RuntimeError(
                "get_batch requires crypto='vector'; the scalar oracle "
                "reads per slot (get)"
            )
        plain = self._open(self._plain())
        self.telemetry.counter("snoopy_store_batch_opens_total").inc()
        self.telemetry.counter(
            "snoopy_store_bytes_moved_total", op="open"
        ).inc(len(self._host_blobs))
        return soa.prefix_to_keys(plain[:, :16]), plain[:, 16:]

    def _plain(self):
        """The resident plaintext matrix, allocated once per store."""
        if self._resident is None:
            self._resident = np.empty(
                (self.num_slots, self.plain_size), dtype=np.uint8
            )
        return self._resident

    def _open(self, out):
        """Decrypt the sealed partition into ``out`` under the pinned nonce."""
        if not self._written[0]:
            raise IntegrityError("the partition was never sealed")
        return self._cipher.open_lanes(
            bytes(self._pinned_nonces),
            self._host_blobs,
            self.num_slots,
            self.plain_size,
            out=out,
        )

    # ------------------------------------------------------------------
    # Pickling (protocol 5): the host buffers as buffer views.
    # ------------------------------------------------------------------
    def __reduce_ex__(self, protocol):
        """Pickle the buffers as :class:`pickle.PickleBuffer` views.

        The resident plaintext and the telemetry handle are dropped and
        rebuilt empty, so a worker snapshot carries only the sealed
        state.  Below protocol 5 (``copy.deepcopy``) the default
        reduction applies.
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
        """What the untrusted host holds for a slot: ``(nonce, region)``.

        ``nonce`` is the one covering the slot (its own under scalar,
        the partition's under vector) and ``region`` the slot's bytes of
        the host buffer.
        """
        row = self._nonce_row(slot)
        if not self._written[row]:
            return None
        nrow = row * NONCE_LEN
        brow = slot * self.slot_size
        return (
            bytes(self._host_nonces[nrow : nrow + NONCE_LEN]),
            bytes(self._host_blobs[brow : brow + self.slot_size]),
        )

    def host_tamper(self, slot: int, blob: bytes) -> None:
        """Simulate the host overwriting a slot's region.

        A ``blob`` of another length resizes the host buffer, shifting
        every later byte: the truncation/extension attack.
        """
        brow = slot * self.slot_size
        self._host_blobs[brow : brow + self.slot_size] = bytes(blob)

    def host_rollback(self, slot: int, old: tuple) -> None:
        """Simulate the host replaying an old ``(nonce, region)`` pair."""
        nonce, blob = old
        nrow = self._nonce_row(slot) * NONCE_LEN
        self._host_nonces[nrow : nrow + NONCE_LEN] = nonce
        self.host_tamper(slot, blob)
