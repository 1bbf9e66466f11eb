"""The store's partition entry points: one AES-256-GCM call per store pass.

:class:`VectorAead` is :class:`~repro.crypto.aead.AeadKey` — the one
AES-GCM cipher — plus positional whole-partition methods for the store's
batch layout (``crypto="vector"``, see :mod:`repro.suboram.store`): a
whole partition — ``count`` uniform ``plain_size``-byte rows back to
back — is sealed as **one** AES-GCM message under one fresh random
96-bit nonce, and opened with one tag-verified decrypt.

* The GCM tag covers every byte of the partition, so a bit flip, a
  truncation, or two slot regions swapped (a splice: slot position
  inside the tagged buffer is what binds a row to its slot) fails the
  one tag check.
* The caller pins the nonce; a replayed older buffer was sealed under an
  older nonce and fails the same check.
* The sealed length is ``count * plain_size + TAG_LEN``: a function of
  public shape only.

Both methods take an ``out=`` buffer (``encrypt_into`` /
``decrypt_into``); the store passes its host buffer and resident
plaintext, so its pass allocates nothing per epoch.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag

from repro.crypto.aead import NONCE_LEN, TAG_LEN, AeadKey
from repro.errors import IntegrityError

__all__ = ["TAG_LEN", "VectorAead"]


class VectorAead(AeadKey):
    """AES-GCM over ``count`` uniform rows, one library call per pass."""

    __slots__ = ()

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
