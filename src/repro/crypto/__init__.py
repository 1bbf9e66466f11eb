"""Cryptographic substrate: keyed PRFs, AEAD channels, and digests.

The PRFs, keys and the channel AEAD are built on the standard library
(``hmac``/``hashlib``).  That AEAD is an encrypt-then-MAC scheme over a
SHAKE-256 keystream; it models the *system behaviour* of authenticated
encrypted channels (nonce handling, replay rejection, tamper detection),
which is what Snoopy's protocol relies on, and is the store's per-slot
oracle.  The store's deployed cipher, :class:`VectorAead`, is AES-256-GCM
from the ``cryptography`` package: one call per partition per epoch.
"""

from repro.crypto.keys import KeyChain, random_key
from repro.crypto.prf import Prf, suboram_of
from repro.crypto.aead import AeadKey, SecureChannel
from repro.crypto.vector import VectorAead

__all__ = [
    "AeadKey",
    "KeyChain",
    "Prf",
    "SecureChannel",
    "VectorAead",
    "random_key",
    "suboram_of",
]
