"""Authenticated encryption and replay-protected channels.

All communication in Snoopy "is encrypted using an authenticated encryption
scheme with a nonce to prevent replay attacks" (§3.1).  Every sealed byte
in this codebase — channel records, enclave sealing, and the store in both
layouts — goes through one AEAD: AES-GCM from the ``cryptography``
package, via :class:`AeadKey`, with a 96-bit nonce and a 16-byte tag.
The store's whole-partition entry points live on its subclass
:class:`~repro.crypto.vector.VectorAead`.

Channels
========

A :class:`SecureChannel` is one direction of a link.  It keys its cipher
with ``derive_key(key, name)``, so the two directions of a
:class:`SecureChannelPair` (``name/fwd`` and ``name/rev``) hold distinct
keys: both count nonces from 0, and one shared key would repeat
(key, nonce) across them — under GCM that XORs two plaintexts and exposes
the authentication key.  Counter nonces under a per-direction key are
unique for 2^96 records.

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

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.crypto.keys import derive_key
from repro.errors import IntegrityError, ReplayError

NONCE_LEN = 12
#: GCM tag bytes appended to every sealed message.
TAG_LEN = 16

#: Sliding replay-window width (messages) for :class:`SecureChannel`.
REPLAY_WINDOW = 1024


class AeadKey:
    """AES-GCM under one 16-, 24- or 32-byte key (32 bytes: AES-256).

    Pickles as its key, since an ``AESGCM`` context can be neither
    pickled nor deep-copied.
    """

    __slots__ = ("_key", "_gcm")

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AEAD key must be 16, 24 or 32 bytes")
        self._key = bytes(key)
        self._gcm = AESGCM(self._key)

    def __getstate__(self):
        return self._key

    def __setstate__(self, key) -> None:
        self.__init__(key)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate ``plaintext``; returns ciphertext||tag."""
        if len(nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        return self._gcm.encrypt(nonce, plaintext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on tamper."""
        if len(nonce) != NONCE_LEN:
            raise IntegrityError(f"nonce must be {NONCE_LEN} bytes")
        try:
            return self._gcm.decrypt(nonce, sealed, aad)
        except InvalidTag:
            raise IntegrityError("AEAD tag mismatch") from None


class SecureChannel:
    """A replay-protected, authenticated, encrypted message channel.

    The channel keys its cipher with ``derive_key(key, name)`` and uses
    a monotonically increasing send counter as the nonce; the receiver
    tracks seen nonces with a high-watermark plus a
    :data:`REPLAY_WINDOW`-wide sliding bitmap, so memory stays bounded
    no matter how long the channel lives.  Replays inside the window are
    detected by their bit; anything older than the window is rejected
    outright (the transports these channels ride are FIFO — a message
    ``REPLAY_WINDOW`` sends stale is an attack, not reordering).  This
    mirrors the paper's "authenticated encryption with a nonce to prevent
    replay attacks".
    """

    def __init__(self, key: bytes, name: str = "chan"):
        self._aead = AeadKey(derive_key(key, name))
        self._name = name
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
        return nonce, self._aead.seal(nonce, plaintext)

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
        plaintext = self._aead.open(nonce, sealed)
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
    directions keyed off one shared secret: ``name/fwd`` =
    initiator→acceptor, ``name/rev`` = the reverse.  Each direction
    derives its own key from its name, so the two never share a
    keystream, and a frame reflected back at its sender fails
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
