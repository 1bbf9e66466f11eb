"""Simulated remote attestation (§3.1).

Clients "establish all communication channels using remote attestation so
that clients are confident that they are interacting with legitimate
enclaves running Snoopy".  We model the essentials: an attestation service
holding a signing key, quotes binding an enclave measurement to a fresh
channel key share, and verification that rejects unknown measurements or
tampered quotes.
"""

from __future__ import annotations

import hmac
import hashlib
import os
from dataclasses import dataclass

from repro.errors import AttestationError
from repro.enclave.model import Enclave


@dataclass(frozen=True)
class Quote:
    """An attestation quote: measurement + channel key share + MAC."""

    enclave_name: str
    measurement: bytes
    key_share: bytes
    signature: bytes


class AttestationService:
    """Verifies enclave quotes against a set of trusted measurements.

    Plays the role of Intel's attestation service: it knows a signing key
    (provisioned into genuine enclaves) and the expected measurements of
    the Snoopy load-balancer and subORAM programs.
    """

    def __init__(self, signing_key: bytes | None = None):
        self._signing_key = signing_key if signing_key is not None else os.urandom(32)
        self._trusted: set[bytes] = set()

    @property
    def signing_key(self) -> bytes:
        """Provisioning secret; in reality burned into genuine hardware."""
        return self._signing_key

    def trust(self, measurement: bytes) -> None:
        """Whitelist a program measurement (e.g. the Snoopy release build)."""
        self._trusted.add(measurement)

    def quote(self, enclave: Enclave, key_share: bytes) -> Quote:
        """Produce a quote for ``enclave`` binding ``key_share``."""
        mac = hmac.new(
            self._signing_key,
            enclave.name.encode() + enclave.measurement + key_share,
            hashlib.sha256,
        ).digest()
        return Quote(enclave.name, enclave.measurement, key_share, mac)

    def verify(self, quote: Quote) -> bytes:
        """Verify a quote; returns the bound key share or raises."""
        expect = hmac.new(
            self._signing_key,
            quote.enclave_name.encode() + quote.measurement + quote.key_share,
            hashlib.sha256,
        ).digest()
        if not hmac.compare_digest(expect, quote.signature):
            raise AttestationError(f"quote signature invalid for {quote.enclave_name}")
        if quote.measurement not in self._trusted:
            raise AttestationError(
                f"measurement for {quote.enclave_name} is not a trusted Snoopy build"
            )
        return quote.key_share

