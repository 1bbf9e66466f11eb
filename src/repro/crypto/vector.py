"""The store's partition cipher: one AES-256-GCM call per store pass.

The HMAC scheme in :mod:`repro.crypto.aead` is the audited per-slot
oracle: one SHAKE-256 keystream and one HMAC tag per slot — O(slots)
Python-level calls per epoch.  This module is the store's batch cipher
(``crypto="vector"``, see :mod:`repro.suboram.store`): a whole partition
— ``count`` uniform ``plain_size``-byte rows back to back — is sealed as
**one** AES-GCM message under one fresh random 96-bit nonce, and opened
with one tag-verified decrypt.

* The GCM tag covers every byte of the partition, so a bit flip, a
  truncation, or two slot regions swapped (a splice: slot position
  inside the tagged buffer is what binds a row to its slot) fails the
  one tag check.
* The caller pins the nonce; a replayed older buffer was sealed under an
  older nonce and fails the same check.
* The sealed length is ``count * plain_size + TAG_LEN``: a function of
  public shape only.

:class:`VectorAead` is a thin wrapper over ``cryptography``'s
``AESGCM``: it keeps positional ``(nonce, buffer, count, plain_size)``
entry points and pickles as its key, since an ``AESGCM`` context can be
neither pickled nor deep-copied.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.crypto.aead import NONCE_LEN
from repro.errors import IntegrityError

__all__ = ["TAG_LEN", "VectorAead"]

#: GCM tag bytes appended to every sealed partition.
TAG_LEN = 16


class VectorAead:
    """AES-GCM over ``count`` uniform rows, one library call per pass.

    Args:
        key: a 16-, 24- or 32-byte AES key (the store's storage subkey
            is 32 bytes: AES-256).
    """

    def __init__(self, key: bytes):
        self._key = bytes(key)
        self._gcm = AESGCM(self._key)

    # An AESGCM context neither pickles nor deep-copies: ship the key.
    def __getstate__(self):
        return self._key

    def __setstate__(self, key) -> None:
        self.__init__(key)

    @staticmethod
    def sealed_len(count: int, plain_size: int) -> int:
        """Bytes one sealed pass of ``count`` rows occupies."""
        return count * plain_size + TAG_LEN

    def seal_lanes(self, nonce: bytes, plain, count: int, plain_size: int,
                   *, out=None):
        """Seal ``count`` rows of ``plain_size`` bytes under ``nonce``.

        ``plain`` is any C-contiguous buffer of ``count * plain_size``
        bytes (a ``(count, plain_size)`` uint8 matrix included).  The
        sealed ``ciphertext || tag`` lands in ``out`` (a writable buffer
        of :meth:`sealed_len` bytes) when given, else in a new bytearray;
        either is returned.
        """
        with memoryview(plain) as view:
            size = view.nbytes
        if len(nonce) != NONCE_LEN or size != count * plain_size:
            raise ValueError(
                f"need a {NONCE_LEN}-byte nonce and {count * plain_size} "
                f"plaintext bytes, got {len(nonce)} and {size}"
            )
        if out is None:
            out = bytearray(self.sealed_len(count, plain_size))
        self._gcm.encrypt_into(nonce, plain, None, out)
        return out

    def open_lanes(self, nonce: bytes, sealed, count: int, plain_size: int,
                   *, out=None):
        """Authenticate and decrypt a pass sealed by :meth:`seal_lanes`.

        ``sealed`` is a bytes-like buffer.  The plaintext lands in
        ``out`` (a writable C-contiguous buffer of ``count *
        plain_size`` bytes) when given, else in a new bytearray; either
        is returned.  Raises :class:`~repro.errors.IntegrityError` on a
        wrong length or a failed tag, and then zeroes ``out`` first: the
        library leaves the unauthenticated plaintext there.
        """
        expected = self.sealed_len(count, plain_size)
        if len(sealed) != expected:
            raise IntegrityError(
                f"sealed buffer is {len(sealed)} bytes; expected {expected} "
                f"({count} rows of {plain_size} + a {TAG_LEN}-byte tag)"
            )
        if out is None:
            out = bytearray(count * plain_size)
        try:
            self._gcm.decrypt_into(nonce, sealed, None, out)
        except InvalidTag:
            with memoryview(out) as view, view.cast("B") as flat:
                flat[:] = bytes(len(flat))
            raise IntegrityError(
                "sealed partition failed GCM authentication"
            ) from None
        return out
