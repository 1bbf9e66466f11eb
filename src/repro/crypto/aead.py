"""Authenticated encryption and replay-protected channels.

All communication in Snoopy "is encrypted using an authenticated encryption
scheme with a nonce to prevent replay attacks" (§3.1).  This module models
that behaviour with a stdlib-only encrypt-then-MAC AEAD:

* keystream: ``SHAKE-256(key_enc || nonce)`` squeezed to the plaintext's
  length and XORed in as one big integer (``key_enc`` is always 32
  bytes and the nonce always :data:`NONCE_LEN`, so the encoding is
  unambiguous),
* tag: ``HMAC-SHA256(key_mac, nonce || len(aad) || aad || ciphertext)``,
  checked in constant time before any plaintext is released.

Seal and open are a fixed handful of C calls whatever the message
length — no per-block or per-byte Python loop — so a coalesced 16 KiB
channel record costs about as much as hashing it.  The goal is faithful
*system* behaviour — tamper detection, nonce uniqueness, replay
rejection — not a new cipher design.  This per-message scheme seals the
channels and is the store's audited per-slot oracle
(``crypto="scalar"``); the store's batch path is the AES-GCM partition
cipher of :mod:`repro.crypto.vector`.

Replay protection
=================

:class:`SecureChannel` tracks received nonces with a bounded
high-watermark + sliding-window bitmap (``REPLAY_WINDOW`` messages wide,
one *bit* per in-window message) instead of an unbounded seen-set, so a
long-lived channel's memory stays constant.  Messages older than the
window are rejected as replays — the paper's channels are FIFO transports
where that deep a reordering never happens legitimately.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import IntegrityError, ReplayError

NONCE_LEN = 12
TAG_LEN = 32

#: Sliding replay-window width (messages) for :class:`SecureChannel`.
REPLAY_WINDOW = 1024


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data ^ stream`` for equal-length inputs, as one big-int operation."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


class AeadKey:
    """An AEAD key pair (encryption + MAC subkeys) derived from one secret."""

    __slots__ = ("_enc", "_mac")

    def __init__(self, key: bytes):
        if len(key) < 16:
            raise ValueError("AEAD key must be at least 128 bits")
        self._enc = hmac.new(key, b"enc", hashlib.sha256).digest()
        self._mac = hmac.new(key, b"mac", hashlib.sha256).digest()

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._enc + nonce).digest(length)

    def _tag(self, nonce: bytes, aad: bytes, ct: bytes) -> bytes:
        return hmac.digest(
            self._mac, nonce + len(aad).to_bytes(8, "big") + aad + ct, "sha256"
        )

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate ``plaintext``; returns ciphertext||tag."""
        if len(nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        ct = _xor(plaintext, self._keystream(nonce, len(plaintext)))
        return ct + self._tag(nonce, aad, ct)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on tamper."""
        if len(sealed) < TAG_LEN:
            raise IntegrityError("ciphertext shorter than tag")
        ct, tag = sealed[:-TAG_LEN], sealed[-TAG_LEN:]
        if not hmac.compare_digest(tag, self._tag(nonce, aad, ct)):
            raise IntegrityError("AEAD tag mismatch")
        return _xor(ct, self._keystream(nonce, len(ct)))


class SecureChannel:
    """A replay-protected, authenticated, encrypted message channel.

    Each direction keeps a monotonically increasing send counter used as
    the nonce; the receiver tracks seen nonces with a high-watermark plus
    a :data:`REPLAY_WINDOW`-wide sliding bitmap, so memory stays bounded
    no matter how long the channel lives.  Replays inside the window are
    detected by their bit; anything older than the window is rejected
    outright (the transports these channels ride are FIFO — a message
    ``REPLAY_WINDOW`` sends stale is an attack, not reordering).  This
    mirrors the paper's "authenticated encryption with a nonce to prevent
    replay attacks".
    """

    def __init__(self, key: bytes, name: str = "chan"):
        self._aead = AeadKey(key)
        self._name = name.encode("utf-8")
        self._send_counter = 0
        # Sliding receive window: _recv_hwm is the highest authenticated
        # counter (-1 before any), bit (1 << (hwm - c)) of _recv_window
        # marks counter c as seen.  Both are O(1) memory forever.
        self._recv_hwm = -1
        self._recv_window = 0

    def send(self, plaintext: bytes) -> tuple[bytes, bytes]:
        """Seal ``plaintext``; returns (nonce, ciphertext)."""
        nonce = self._send_counter.to_bytes(NONCE_LEN, "big")
        self._send_counter += 1
        return nonce, self._aead.seal(nonce, plaintext, aad=self._name)

    def receive(self, nonce: bytes, sealed: bytes) -> bytes:
        """Open a message, rejecting replays and tampering."""
        counter = int.from_bytes(nonce, "big")
        if counter <= self._recv_hwm - REPLAY_WINDOW:
            raise ReplayError(
                f"nonce {counter} on {self._name!r} is older than the "
                f"{REPLAY_WINDOW}-message replay window"
            )
        if (
            counter <= self._recv_hwm
            and (self._recv_window >> (self._recv_hwm - counter)) & 1
        ):
            raise ReplayError(f"replayed nonce {counter} on {self._name!r}")
        plaintext = self._aead.open(nonce, sealed, aad=self._name)
        # Only mark the nonce as seen after authentication succeeds, so a
        # forged message cannot block the legitimate one.
        if counter > self._recv_hwm:
            shift = counter - self._recv_hwm
            self._recv_window = (
                ((self._recv_window << shift) | 1)
                & ((1 << REPLAY_WINDOW) - 1)
            )
            self._recv_hwm = counter
        else:
            self._recv_window |= 1 << (self._recv_hwm - counter)
        return plaintext


class SecureChannelPair:
    """One endpoint's view of a full-duplex attested link.

    A link between an initiator (the side that connected: a client or a
    load balancer) and an acceptor (the side that listened: a server or
    a subORAM worker) is two independent :class:`SecureChannel`
    directions keyed off one shared secret.  Direction is bound into
    the AAD (``name/fwd`` = initiator→acceptor, ``name/rev`` = the
    reverse), so a frame reflected back at its sender fails
    authentication instead of decrypting.

    Both endpoints construct the pair from the same ``key`` and
    ``name``; the ``initiator`` flag picks which direction is ``tx``.
    """

    def __init__(self, key: bytes, name: str = "chan", *, initiator: bool):
        fwd = f"{name}/fwd"
        rev = f"{name}/rev"
        self.tx = SecureChannel(key, fwd if initiator else rev)
        self.rx = SecureChannel(key, rev if initiator else fwd)
        self.initiator = initiator


def digest(data: bytes) -> bytes:
    """Content digest used for the out-of-enclave block integrity map (§7)."""
    return hashlib.sha256(data).digest()
