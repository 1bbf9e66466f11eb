"""Attested, sealed transport for the serve layer (§3.1 over real TCP).

The paper's threat model requires every channel to be established via
remote attestation so clients "know they are communicating with
legitimate enclaves".  This module gives every TCP hop — the front
door (:mod:`repro.serve.server`, :mod:`repro.serve.netclient`) and
the balancer↔subORAM worker links
(:mod:`repro.serve.workers`) — those guarantees:

1. **Hello** — the fixed-size v2 hello
   (:func:`repro.core.wire.encode_hello`) with the
   :data:`~repro.core.wire.HELLO_FLAG_ATTESTED` capability bit.  There
   is no plaintext mode: a peer whose hello lacks the bit is refused at
   the handshake with a :class:`~repro.core.wire.WireError`.
2. **Quote exchange** — one fixed-size ATTEST frame each way
   (:data:`~repro.core.wire.ATTEST_SIZE` payload bytes regardless of
   role or enclave name).  Enclave roles (server, worker, balancer)
   send an :class:`~repro.enclave.attestation.AttestationService` quote
   binding their measurement to a fresh 32-byte key share; the peer
   verifies it against the trusted Snoopy build measurements.  Plain
   clients send a bare key share (all-zero measurement/signature) —
   per the paper, clients authenticate *enclaves*, not vice versa;
   client authorization is an out-of-band concern.
3. **Sealed frames** — both shares derive one channel secret
   (``H(label || initiator_share || acceptor_share)``) keying a
   :class:`~repro.crypto.aead.SecureChannelPair`: two directed
   :class:`~repro.crypto.aead.SecureChannel` instances, each under its
   own key derived from the secret, with counter nonces and a sliding
   replay window.  Every subsequent frame rides the sealed outer format
   ``nonce(12) | len(4) | sealed`` where ``sealed`` is the AES-GCM
   encryption of an ordinary inner frame (its length + a 16-byte
   tag).  Inner frame shapes are unchanged and all sealing overhead is
   constant per frame, so ciphertext lengths remain functions of public
   quantities only — the transport stays oblivious (see SECURITY.md).

**Coalesced sealing.**  The async transport
(:class:`AsyncFrameTransport`, used by the server's response path and
the served benchmark's load generator) does not seal each inner frame
separately: frames queued within one event-loop iteration — e.g. a whole epoch's response
fan-out to one connection — are concatenated and sealed as *one* outer
record, greedily packed up to the outer record size limit.  One AEAD
pass and one replay-window nonce replace one per response.  The receiving
side (both transports) splits a record back into inner frames, so the
wire format is unchanged and either side may batch or not.  Record
sizes are sums of inner-frame sizes — still functions of public batch
shape only (see SECURITY.md).

**What the host still sees** — connection lifecycle, frame timing, and
frame counts.  All are public in the paper's model (epoch boundaries
and batch sizes are public functions of load), but they are real
observables; SECURITY.md's "Network-layer attestation" section
enumerates them.

**Chaos seam.**  :class:`FrameTransport` (the blocking transport used
by the sync client and the balancer→worker links) and
:func:`connect_transport` consult an optional
:class:`~repro.core.faults.FaultInjector` before every send and
connect, which is how the link events of the seeded fault plan (drops,
delays, partitions, truncation, duplication, slow-loris handshakes)
reach real sockets deterministically.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import socket
import struct
import time
from collections import deque
from typing import Iterable, List, Optional, Tuple

from repro.core.wire import (
    ATTEST_SIZE,
    FRAME_HEADER_SIZE,
    FrameKind,
    HELLO_FLAG_ATTESTED,
    HELLO_SIZE,
    MAX_FRAME_PAYLOAD,
    Role,
    WireError,
    VersionMismatchError,
    decode_attest,
    decode_frame_header,
    decode_hello,
    decode_version_reject,
    encode_attest,
    encode_frame,
    encode_hello,
    split_record,
)
from repro.crypto.aead import NONCE_LEN, TAG_LEN, SecureChannelPair
from repro.crypto.keys import derive_key
from repro.enclave.attestation import AttestationService, Quote
from repro.enclave.model import Enclave
from repro.errors import ConfigurationError, TransportError
from repro.serve.protocol import (
    recv_exact,
    recv_frame,
    send_all,
    send_frame,
)
from repro.utils.validation import require

#: Domain-separation label mixed into every serve-layer channel secret.
CHANNEL_KEY_LABEL = b"snoopy/serve/channel"

#: Attestation-service key derivation label (from the deployment secret).
ATTEST_KEY_LABEL = "snoopy/serve/attest"

#: The program each enclave role runs (measurement = H(program name)).
#: All workers run the same subORAM program, so one measurement covers
#: every worker instance — exactly how MRENCLAVE works.
ROLE_PROGRAMS = {
    Role.SERVER: "snoopy-serve-frontend",
    Role.WORKER: "snoopy-serve-suboram",
    Role.BALANCER: "snoopy-serve-balancer",
}

#: Roles that must present (and verify) quotes.  CLIENT is absent:
#: clients contribute a bare key share and verify the enclave side only.
ENCLAVE_ROLES = frozenset(ROLE_PROGRAMS)

#: Roles that initiate connections (everyone else accepts).  Initiator
#: status picks the key-share ordering and the channel direction labels.
_INITIATOR_ROLES = frozenset((Role.CLIENT, Role.BALANCER))

_SEAL_LEN = struct.Struct(">I")

#: Ceiling on one sealed outer record: inner frame bytes + AEAD tag.
#: A record may carry *several* coalesced inner frames (see
#: :meth:`AsyncFrameTransport.send`) as long as their combined size
#: stays under this cap, so one AEAD seal amortizes over a whole
#: response flush.
_MAX_SEALED = MAX_FRAME_PAYLOAD + 64 + TAG_LEN

#: Inner-bytes budget for one coalesced sealed record.  Chosen so the
#: sealed ciphertext (``inner + TAG_LEN``) never exceeds
#: :data:`_MAX_SEALED`, and large enough that a single maximum-size
#: inner frame always fits on its own.
_RECORD_BUDGET = MAX_FRAME_PAYLOAD + 64


class ServeTrust:
    """The serve layer's attestation root, shared by all participants.

    Wraps an :class:`~repro.enclave.attestation.AttestationService`
    keyed from a deployment secret and pre-trusts the measurements of
    the three Snoopy serve programs (front end, subORAM worker, load
    balancer).  Every server, worker, and *client* of one deployment
    holds the same ``ServeTrust`` — for clients this models "the
    attestation service's verification key and the expected release
    measurements are public knowledge"; the simulation's HMAC quotes
    make the verifier hold the signing secret too, which a production
    deployment would replace with asymmetric quotes (see SECURITY.md).

    Construct from any >= 16-byte secret::

        trust = ServeTrust(b"deployment-provisioning-secret")
        server = ServerThread(store, trust=trust)
        client = NetworkSnoopyClient(host, port, trust=trust)
    """

    def __init__(self, secret: bytes):
        require(isinstance(secret, (bytes, bytearray)),
                "ServeTrust secret must be bytes")
        secret = bytes(secret)
        require(len(secret) >= 16, "ServeTrust secret must be >= 16 bytes")
        self._secret = secret
        self.service = AttestationService(
            derive_key(secret, ATTEST_KEY_LABEL)
        )
        self._measurements = {}
        for role, program in ROLE_PROGRAMS.items():
            measurement = hashlib.sha256(
                f"snoopy-program:{program}".encode()
            ).digest()
            self._measurements[role] = measurement
            self.service.trust(measurement)

    @property
    def secret(self) -> bytes:
        """The deployment secret (to provision workers/clients)."""
        return self._secret

    def enclave(self, role: int, instance: int = 0) -> Enclave:
        """The enclave identity an instance of ``role`` attests as.

        The name carries the instance index (public deployment fact);
        the measurement is the *program* hash shared by every instance
        of the role, so trusting one release build admits all its
        replicas.
        """
        require(role in ROLE_PROGRAMS,
                f"role {role} is not an enclave role")
        program = ROLE_PROGRAMS[role]
        return Enclave(
            f"{program}-{instance}", measurement=self._measurements[role]
        )

    def quote_payload(self, enclave: Enclave, key_share: bytes) -> bytes:
        """Encode this enclave's ATTEST payload binding ``key_share``."""
        quote = self.service.quote(enclave, key_share)
        return encode_attest(
            quote.enclave_name, quote.measurement,
            quote.key_share, quote.signature,
        )

    def verify_payload(self, payload: bytes) -> bytes:
        """Verify a peer enclave's ATTEST payload; returns its key share.

        Raises :class:`~repro.errors.AttestationError` on a bad
        signature or an untrusted measurement.
        """
        name, measurement, key_share, signature = decode_attest(payload)
        return self.service.verify(
            Quote(name, measurement, key_share, signature)
        )

    @classmethod
    def for_store(cls, store) -> "ServeTrust":
        """Derive trust from an in-process store's keychain master.

        Convenience for single-operator deployments and tests: the
        party holding the store secrets can mint the serve trust root.
        """
        return cls(derive_key(store.keychain.master, "snoopy/serve/trust"))


def _client_attest_payload(key_share: bytes) -> bytes:
    """A plain client's ATTEST payload: bare share, zero quote fields."""
    return encode_attest("snoopy-client", b"\x00" * 32, key_share, b"\x00" * 32)


def derive_channel_pair(
    my_share: bytes,
    peer_share: bytes,
    *,
    initiator: bool,
    link_name: str = "serve",
) -> SecureChannelPair:
    """Derive one endpoint's channel pair from the exchanged shares."""
    i_share, a_share = (
        (my_share, peer_share) if initiator else (peer_share, my_share)
    )
    key = hashlib.sha256(CHANNEL_KEY_LABEL + i_share + a_share).digest()
    return SecureChannelPair(key, link_name, initiator=initiator)


def _check_peer(
    peer_role: int,
    peer_flags: int,
    expected_roles: Optional[Iterable[int]],
) -> None:
    if expected_roles is not None and peer_role not in tuple(expected_roles):
        raise WireError(f"unexpected peer role {peer_role}")
    if not peer_flags & HELLO_FLAG_ATTESTED:
        raise WireError(
            "peer offered a plaintext channel; every serve-layer channel "
            "is attested"
        )


def _finish_attest(
    role: int,
    peer_role: int,
    peer_kind: int,
    peer_payload: bytes,
    trust: ServeTrust,
    my_share: bytes,
    link_name: str,
) -> SecureChannelPair:
    """Common tail of the quote exchange once the peer's frame arrived."""
    if peer_kind == FrameKind.VERSION_REJECT:
        offered, supported = decode_version_reject(peer_payload)
        raise VersionMismatchError(offered, supported)
    if peer_kind == FrameKind.ERROR:
        raise WireError(
            f"peer rejected handshake: {peer_payload.decode('utf-8', 'replace')}"
        )
    if peer_kind != FrameKind.ATTEST:
        raise WireError(
            f"expected ATTEST frame during handshake, got kind {peer_kind}"
        )
    if len(peer_payload) != ATTEST_SIZE:
        raise WireError("attest payload has the wrong size")
    if peer_role in ENCLAVE_ROLES:
        peer_share = trust.verify_payload(peer_payload)
    else:
        # Clients are not attested; take the bare share.
        _name, _measurement, peer_share, _sig = decode_attest(peer_payload)
    return derive_channel_pair(
        my_share, peer_share,
        initiator=role in _INITIATOR_ROLES,
        link_name=link_name,
    )


def _my_attest_payload(
    role: int,
    trust: ServeTrust,
    enclave: Optional[Enclave],
    my_share: bytes,
) -> bytes:
    if role in ENCLAVE_ROLES:
        if enclave is None:
            enclave = trust.enclave(role)
        return trust.quote_payload(enclave, my_share)
    return _client_attest_payload(my_share)


def _dribble_hello(sock: socket.socket, hello: bytes, delay_s: float) -> None:
    """Send a hello in four fragments with pauses (slow-loris chaos)."""
    step = max(1, len(hello) // 4)
    for offset in range(0, len(hello), step):
        send_all(sock, hello[offset:offset + step])
        time.sleep(delay_s)


def secure_handshake(
    sock: socket.socket,
    role: int,
    *,
    trust: ServeTrust,
    enclave: Optional[Enclave] = None,
    expected_roles: Optional[Iterable[int]] = None,
    link_name: str = "serve",
    dribble_s: float = 0.0,
) -> Tuple[int, int, SecureChannelPair]:
    """Run the attested handshake on a blocking socket.

    Both sides send their hello eagerly, then their ATTEST frame
    eagerly too (all fixed-size, so no ordering deadlock).  Returns
    ``(version, peer_role, channel_pair)``.

    Raises:
        VersionMismatchError: version skew (either detected locally
            from the peer's hello, or relayed from the peer's
            structured ``VERSION_REJECT``).
        WireError: malformed peer, role mismatch, or a hello without
            the attested flag (refused — there is no plaintext mode).
        AttestationError: the peer's quote did not verify.
        TransportError: the peer vanished mid-handshake.
    """
    hello = encode_hello(role, flags=HELLO_FLAG_ATTESTED)
    if dribble_s > 0.0:
        _dribble_hello(sock, hello, dribble_s)
    else:
        send_all(sock, hello)
    version, peer_role, peer_flags = decode_hello(
        recv_exact(sock, HELLO_SIZE)
    )
    _check_peer(peer_role, peer_flags, expected_roles)
    my_share = os.urandom(32)
    send_frame(
        sock, FrameKind.ATTEST,
        _my_attest_payload(role, trust, enclave, my_share),
    )
    peer_kind, peer_payload = recv_frame(sock)
    pair = _finish_attest(
        role, peer_role, peer_kind, peer_payload, trust, my_share, link_name
    )
    return version, peer_role, pair


async def secure_handshake_async(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    role: int,
    *,
    trust: ServeTrust,
    enclave: Optional[Enclave] = None,
    attested: bool = True,
    expected_roles: Optional[Iterable[int]] = None,
    link_name: str = "serve",
    timeout: Optional[float] = None,
) -> Tuple[int, int, SecureChannelPair]:
    """Asyncio variant of :func:`secure_handshake`.

    ``timeout`` bounds each read so a slow-loris peer (dribbling its
    hello byte by byte) ties up one coroutine for at most ``timeout``
    seconds instead of forever; expiry raises
    :class:`~repro.errors.TransportError`.

    ``attested`` accepts only ``True`` (``False`` raises
    :class:`~repro.errors.ConfigurationError`; there is no plaintext
    mode).  It stays only because the served benchmark's load generator
    (``bench/loadgen.py``) passes ``attested=True``; it goes when the
    benchmark's pinned deployment drops the setting.
    """
    if not attested:
        raise ConfigurationError(
            "every serve-layer channel is attested; attested must be True"
        )
    writer.write(encode_hello(role, flags=HELLO_FLAG_ATTESTED))
    await writer.drain()

    async def _read(n: int) -> bytes:
        try:
            if timeout is not None:
                return await asyncio.wait_for(reader.readexactly(n), timeout)
            return await reader.readexactly(n)
        except asyncio.TimeoutError as exc:
            raise TransportError("handshake timed out") from exc
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise TransportError(
                f"connection lost mid-handshake: {exc}"
            ) from exc

    version, peer_role, peer_flags = decode_hello(await _read(HELLO_SIZE))
    _check_peer(peer_role, peer_flags, expected_roles)
    my_share = os.urandom(32)
    writer.write(encode_frame(
        FrameKind.ATTEST,
        _my_attest_payload(role, trust, enclave, my_share),
    ))
    await writer.drain()
    peer_kind, length = decode_frame_header(await _read(FRAME_HEADER_SIZE))
    peer_payload = await _read(length) if length else b""
    pair = _finish_attest(
        role, peer_role, peer_kind, peer_payload, trust, my_share, link_name
    )
    return version, peer_role, pair


# ---------------------------------------------------------------------------
# Transports: frame I/O over a sealed connection
# ---------------------------------------------------------------------------
class FrameTransport:
    """Blocking sealed framed connection, optionally chaotic.

    Owns the socket after the handshake.  ``send``/``recv`` move whole
    inner frames; each frame travels under the handshake's
    :class:`~repro.crypto.aead.SecureChannelPair` as
    ``nonce | len | sealed``, and tampering/replay surface as
    :class:`~repro.errors.IntegrityError` /
    :class:`~repro.errors.ReplayError` (never retried).

    When a :class:`~repro.core.faults.FaultInjector` and link name are
    attached, every send consults the seeded plan first — the single
    choke point all serve-layer chaos flows through.
    """

    def __init__(self, sock: socket.socket, pair: SecureChannelPair,
                 injector=None, link: Optional[str] = None):
        self._sock = sock
        self._pair = pair
        self._injector = injector
        self._link = link if link is not None else "link"
        # Inner frames already unsealed from a coalesced record but not
        # yet handed to the caller (the peer may pack several frames
        # into one sealed record).
        self._rx_pending: deque = deque()

    @property
    def socket(self) -> socket.socket:
        """The underlying TCP socket (for address introspection)."""
        return self._sock

    def _encode(self, kind: int, payload: bytes) -> bytes:
        nonce, sealed = self._pair.tx.send(encode_frame(kind, payload))
        return nonce + _SEAL_LEN.pack(len(sealed)) + sealed

    def send(self, kind: int, payload: bytes = b"") -> None:
        """Send one frame, applying any scheduled network fault."""
        event = None
        if self._injector is not None:
            try:
                event = self._injector.on_send(self._link)
            except TransportError:
                self.close()
                raise
        data = self._encode(kind, payload)
        if event is None:
            send_all(self._sock, data)
            return
        if event.kind == "conn_drop":
            self.close()
            raise TransportError(
                f"injected fault: connection on {self._link!r} dropped"
            )
        if event.kind == "frame_truncate":
            try:
                send_all(self._sock, data[: max(1, len(data) // 2)])
            finally:
                self.close()
            raise TransportError(
                f"injected fault: frame on {self._link!r} truncated"
            )
        if event.kind == "frame_duplicate":
            send_all(self._sock, data)
            send_all(self._sock, data)
            return
        send_all(self._sock, data)

    def recv(self) -> Tuple[int, bytes]:
        """Receive one frame; returns ``(kind, payload)``.

        A sealed record may carry several coalesced inner frames; the
        extras are buffered and returned by subsequent calls without
        touching the socket.
        """
        if self._rx_pending:
            return self._rx_pending.popleft()
        nonce = recv_exact(self._sock, NONCE_LEN)
        (length,) = _SEAL_LEN.unpack(recv_exact(self._sock, _SEAL_LEN.size))
        if length > _MAX_SEALED:
            raise WireError(f"sealed frame of {length} bytes exceeds cap")
        sealed = recv_exact(self._sock, length)
        record = self._pair.rx.receive(nonce, sealed)
        self._rx_pending.extend(split_record(record))
        return self._rx_pending.popleft()

    def settimeout(self, timeout: Optional[float]) -> None:
        """Set the socket timeout for subsequent blocking calls."""
        self._sock.settimeout(timeout)

    def close(self) -> None:
        """Close the connection, waking any reader blocked on recv()."""
        # shutdown() first so a recv() blocked on another thread wakes
        # with EOF instead of hanging on a silently-deallocated fd.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


def connect_transport(
    host: str,
    port: int,
    role: int,
    *,
    trust: ServeTrust,
    enclave: Optional[Enclave] = None,
    expected_roles: Optional[Iterable[int]] = None,
    link_name: str = "serve",
    timeout: Optional[float] = None,
    injector=None,
    link: Optional[str] = None,
) -> Tuple[FrameTransport, int, int]:
    """Dial, handshake, and wrap a serve-layer connection.

    Consults the fault injector for connect-time events (partition
    refusals, slow-loris handshakes) before dialing.
    Returns ``(transport, version, peer_role)``.
    """
    dribble_s = 0.0
    if injector is not None:
        event = injector.on_connect(link if link is not None else "link")
        if event is not None and event.kind == "slow_handshake":
            dribble_s = event.delay_s
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
    try:
        version, peer_role, pair = secure_handshake(
            sock, role,
            trust=trust, enclave=enclave,
            expected_roles=expected_roles, link_name=link_name,
            dribble_s=dribble_s,
        )
    except BaseException:
        sock.close()
        raise
    return FrameTransport(sock, pair, injector=injector, link=link), version, peer_role


class AsyncFrameTransport:
    """Asyncio counterpart of :class:`FrameTransport` (the server).

    ``send`` buffers on the writer (callers drain when they need
    flow-control); ``recv`` awaits one whole frame.  The wire format is
    compatible with the blocking transport, so either end of a link may
    be sync or async.

    **Coalesced sealing.**  ``send`` does not seal per frame: it queues
    the encoded inner frame and schedules one flush on the event loop
    (``call_soon``).  Every frame queued in the
    same loop iteration — e.g. the whole response fan-out when an epoch
    completes — is packed into as few sealed records as the
    :data:`_RECORD_BUDGET` allows and sealed *once per record* instead
    of once per frame.  ``drain``/``close`` flush eagerly, so callers
    that await :meth:`drain` keep their flow-control semantics.
    Observable flush sizes remain functions of public quantities only
    (batch size and epoch boundaries are public in the paper's model;
    see SECURITY.md).  ``sealed_flushes``/``sealed_frames`` count the
    amortization achieved.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 pair: SecureChannelPair):
        self._reader = reader
        self._writer = writer
        self._pair = pair
        self._rx_pending: deque = deque()
        self._tx_frames: List[bytes] = []
        self._flush_scheduled = False
        #: Number of sealed records written (one AEAD call each).
        self.sealed_flushes = 0
        #: Number of queued frame buffers (one frame, or an encoded array
        #: of them) those records carried.
        self.sealed_frames = 0

    @property
    def writer(self) -> asyncio.StreamWriter:
        """The underlying asyncio stream writer."""
        return self._writer

    def is_closing(self) -> bool:
        """True once the underlying writer has started closing."""
        return self._writer.is_closing()

    def send(self, kind: int, payload: bytes = b"") -> None:
        """Queue one frame (coalesced into sealed records)."""
        self.send_frames(encode_frame(kind, payload))

    def send_frames(self, frames: bytes) -> None:
        """Queue already encoded frames, back to back (one or more).

        An epoch's replies to one connection arrive here as one array
        (:func:`~repro.core.wire.encode_responses`) and are sealed with
        whatever else this loop iteration queued.
        """
        self._tx_frames.append(frames)
        if self._flush_scheduled:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            # No running loop (sync test harness): seal immediately.
            self._flush_tx()
            return
        self._flush_scheduled = True
        loop.call_soon(self._flush_tx)

    def _flush_tx(self) -> None:
        """Seal all queued inner frames into records and write them."""
        self._flush_scheduled = False
        frames = self._tx_frames
        if not frames:
            return
        self._tx_frames = []
        group: List[bytes] = []
        group_size = 0
        for frame in frames:
            if group and group_size + len(frame) > _RECORD_BUDGET:
                self._seal_record(group)
                group, group_size = [], 0
            group.append(frame)
            group_size += len(frame)
        if group:
            self._seal_record(group)

    def _seal_record(self, group: List[bytes]) -> None:
        nonce, sealed = self._pair.tx.send(b"".join(group))
        self._writer.write(nonce + _SEAL_LEN.pack(len(sealed)) + sealed)
        self.sealed_flushes += 1
        self.sealed_frames += len(group)

    async def drain(self) -> None:
        """Flush the write buffer; raises TransportError on a dead peer."""
        self._flush_tx()
        try:
            await self._writer.drain()
        except ConnectionError as exc:
            raise TransportError(f"connection lost mid-write: {exc}") from exc

    async def _read(self, n: int) -> bytes:
        try:
            return await self._reader.readexactly(n)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise TransportError(f"connection lost mid-read: {exc}") from exc

    async def recv_record(self) -> bytes:
        """Receive one record's inner frames as one buffer.

        That is one opened sealed record — every frame the peer
        coalesced into it.  Split it with
        :func:`~repro.core.wire.split_record`.  Do not mix with
        :meth:`recv` on one transport: frames ``recv`` buffered are not
        returned here.
        """
        head = await self._read(NONCE_LEN + _SEAL_LEN.size)
        (length,) = _SEAL_LEN.unpack_from(head, NONCE_LEN)
        if length > _MAX_SEALED:
            raise WireError(f"sealed frame of {length} bytes exceeds cap")
        sealed = await self._read(length)
        return self._pair.rx.receive(head[:NONCE_LEN], sealed)

    async def recv(self) -> Tuple[int, bytes]:
        """Receive one frame; returns ``(kind, payload)``.

        Extra frames from a coalesced sealed record are buffered and
        returned by subsequent calls without touching the stream.
        """
        if not self._rx_pending:
            self._rx_pending.extend(split_record(await self.recv_record()))
        return self._rx_pending.popleft()

    def close(self) -> None:
        """Close the underlying writer, ignoring teardown races."""
        try:
            if not self._writer.is_closing():
                self._flush_tx()
        except (OSError, RuntimeError):  # pragma: no cover - best-effort
            pass
        try:
            self._writer.close()
        except (OSError, RuntimeError):  # pragma: no cover - best-effort
            pass
