"""Cryptographic substrate: keyed PRFs, AEAD channels, and digests.

Built entirely on the standard library (``hmac``/``hashlib``) since the
reproduction environment is offline.  The AEAD construction here is an
encrypt-then-MAC scheme over an HMAC-derived keystream; it exists to model
the *system behaviour* of authenticated encrypted channels (nonce handling,
replay rejection, tamper detection), which is what Snoopy's protocol relies
on.
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
