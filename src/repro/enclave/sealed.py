"""Sealed storage and trusted monotonic counters (§9 rollback defense).

Enclaves persist state by *sealing* it (encrypting under a hardware key).
A malicious host can replay an older sealed blob — the rollback attack.
The standard defense the paper cites (ROTE / SGX counters) is a trusted
monotonic counter bumped once per epoch; on unsealing, the embedded epoch
must match the counter.  Snoopy "only invokes the trusted counter once per
epoch", which is what :class:`repro.core.snoopy.Snoopy` does.
"""

from __future__ import annotations

import os

from repro.crypto.aead import AeadKey, NONCE_LEN
from repro.errors import RollbackError


class MonotonicCounter:
    """A trusted, strictly increasing counter (ROTE / SGX counter analogue)."""

    def __init__(self) -> None:
        self._value = 0

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    def increment(self) -> int:
        """Advance the counter; returns the new value."""
        self._value += 1
        return self._value


class SealedStore:
    """Seal/unseal enclave state with rollback detection.

    Blobs are AES-GCM-sealed (:class:`~repro.crypto.aead.AeadKey`) under
    a fresh random nonce, with the counter value as associated data; the
    host stores the blob, the enclave only the (hardware) counter.  An old
    blob fails authentication against the current counter value.
    """

    def __init__(self, sealing_key: bytes, counter: MonotonicCounter | None = None):
        self._aead = AeadKey(sealing_key)
        self.counter = counter if counter is not None else MonotonicCounter()

    def seal(self, state: bytes) -> tuple[bytes, bytes]:
        """Seal ``state`` at the *next* counter epoch; returns (nonce, blob)."""
        epoch = self.counter.increment()
        nonce = os.urandom(NONCE_LEN)
        blob = self._aead.seal(nonce, state, aad=epoch.to_bytes(8, "big"))
        return nonce, blob

    def unseal(self, nonce: bytes, blob: bytes) -> bytes:
        """Unseal against the current counter; stale blobs raise RollbackError."""
        epoch = self.counter.value
        try:
            return self._aead.open(nonce, blob, aad=epoch.to_bytes(8, "big"))
        except Exception as exc:
            raise RollbackError(
                f"sealed blob does not match trusted counter epoch {epoch}"
            ) from exc
