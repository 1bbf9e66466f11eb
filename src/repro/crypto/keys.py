"""Key generation and the per-deployment key chain.

Snoopy derives several independent keys from one master secret: the sharding
PRF key (stable across epochs, §4.1), the per-batch hash-table key (fresh for
every subORAM batch, §5), and channel keys for each enclave pair.  We use
HKDF-style expansion with HMAC-SHA256.
"""

from __future__ import annotations

import hmac
import hashlib
import os

KEY_LEN = 32


def random_key(rng=None) -> bytes:
    """Sample a fresh 256-bit key.

    Args:
        rng: optional ``random.Random`` for deterministic tests; defaults to
            the OS CSPRNG.
    """
    if rng is None:
        return os.urandom(KEY_LEN)
    return bytes(rng.getrandbits(8) for _ in range(KEY_LEN))


def derive_key(master: bytes, label: str) -> bytes:
    """Derive an independent subkey from ``master`` for the given label."""
    return hmac.new(master, label.encode("utf-8"), hashlib.sha256).digest()


class KeyChain:
    """Holds the deployment master secret and hands out labelled subkeys.

    The chain caches derivations so repeated lookups are cheap and stable.
    """

    def __init__(self, master: bytes | None = None, rng=None):
        self._master = master if master is not None else random_key(rng)
        self._cache: dict[str, bytes] = {}

    @property
    def master(self) -> bytes:
        """The deployment master secret."""
        return self._master

    def subkey(self, label: str) -> bytes:
        """Return the subkey for ``label``, deriving it on first use."""
        if label not in self._cache:
            self._cache[label] = derive_key(self._master, label)
        return self._cache[label]

    def sharding_key(self) -> bytes:
        """The keyed-hash key mapping object ids to subORAMs (fixed, §4.1)."""
        return self.subkey("snoopy/sharding")

    def batch_key(self, suboram: int, epoch: int) -> bytes:
        """Fresh hash-table key for one subORAM batch (resampled per batch, §5)."""
        return self.subkey(f"snoopy/batch/{suboram}/{epoch}")
