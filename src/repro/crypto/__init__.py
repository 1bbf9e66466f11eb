"""Cryptographic substrate: keyed PRFs, key derivation, and one AEAD.

The PRFs and key derivation are built on the standard library
(``hmac``/``hashlib``).  Every sealed byte — channel records, enclave
sealing, and the store — goes through one AEAD, AES-GCM from the
``cryptography`` package: :class:`AeadKey` per message, and its subclass
:class:`VectorAead` for the store's one call per partition per epoch.
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
