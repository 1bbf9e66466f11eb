"""The asyncio load-balancer front door: ``SnoopyServer``.

One server process hosts a full :class:`~repro.core.snoopy.Snoopy`
deployment behind TCP.  Client connections speak the versioned
:mod:`repro.core.wire` protocol: a fixed-size hello handshake and the
attested quote exchange of :mod:`repro.serve.secure`, after which every
frame rides a sealed replay-protected channel — then a stream of
fixed-size REQUEST frames in and RESPONSE frames out.  A client whose
hello lacks the attested flag is refused with an ERROR frame; there is
no plaintext mode.

**Columns in, columns out.**  The server reads one sealed record at a
time (:meth:`AsyncFrameTransport.recv_record
<repro.serve.secure.AsyncFrameTransport.recv_record>`); its run of
REQUEST frames decodes in one ``np.frombuffer`` into the rows of one
:class:`~repro.oblivious.soa.Batch` (:func:`~repro.core.wire.decode_requests`),
and a bad frame refuses the whole record before any row is queued.  The
chunk is admitted by row masks (:func:`intake_masks`), then queued and
ticketed once per balancer it touches: one non-blocking ``submit()``
into the deployment's :class:`~repro.core.pipeline.EpochPipeline`,
returning one :class:`~repro.core.tickets.Ticket` for its rows — the server
never blocks on an epoch.  The pipeline's match thread resolves each
range in one call, and the range's one done-callback only queues it;
one wake-up per resolved burst — a single ``loop.call_soon_threadsafe``
from the epoch observer once the whole cut has resolved — drains the
queue on the loop, where one connection's resolved rows encode as one
array of RESPONSE frames (:func:`~repro.core.wire.encode_responses`)
and go out in one sealed record.

**Epoch pacing.**  In production mode (``clock=True``) the pipeline's
background clock closes epochs on the fixed public period
``epoch_duration`` — arrival timing never shapes when traffic flows,
the property Cloak-style timing leakage arguments require.  Tests and
differential runs pass ``clock=False`` and drive epochs explicitly with
the CLOSE_EPOCH admin frame, keeping epoch composition deterministic.

**Backpressure and load shedding.**  Each connection counts its rows in
flight against ``max_pending_per_connection``: the next record is only
read off the socket once the current chunk fits the window (a chunk
larger than the whole window waits for an empty one), and rows free
their slots when their RESPONSEs go out.  A client that outruns the
epoch pipeline therefore stops being *read* — TCP flow control pushes
back to the sender; no busy signal is sent for flow control — while the
pipeline's own :class:`~threading.BoundedSemaphore` depth cap
independently skips clock ticks and lets batches grow (§6's
backpressure-by-bigger-batches, not queueing).  A server-wide
``max_open_tickets`` ceiling additionally *sheds* load with a typed
BUSY frame once the whole deployment (not just one connection) is
saturated, so overload degrades into fast rejections instead of
unbounded queueing.  Which rows of a chunk are shed is a function of
public state only: the open-ticket count, the draining flag and the
session's own request ids.

**Resumable sessions.**  A client that sends a SESSION frame gets a
server-held session: accepted request ids are tracked for
deduplication, and resolved responses are buffered (with a per-session
delivery sequence number) until the client acknowledges them with
RESPONSE_ACK.  If the connection drops, the client reconnects, resumes
the session, and the server replays every undelivered response —
:class:`~repro.serve.netclient.NetworkSnoopyClient` builds its
exactly-once reconnect story on this.  Connections that never send
SESSION (e.g. the served benchmark's load generator) remain cheap and
sessionless.

**Graceful shutdown.**  ``aclose()`` drains: the listener closes, new
REQUESTs are answered with a typed SHUTTING_DOWN frame, in-flight
epochs flush so every accepted ticket resolves and is delivered, then
every connection receives a final SHUTTING_DOWN broadcast before the
sockets close — no silently dropped work.

**What the network layer makes public** (see SECURITY.md): connection
counts and lifetimes, the fixed epoch cadence, and message sizes — all
of which are functions of public configuration, never of keys or values
(request/response frames are fixed-size per the store's value size, and
the sealed channel adds a constant overhead per frame).
"""

from __future__ import annotations

import asyncio
import functools
import threading
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.tickets import Ticket
from repro.core.wire import (
    FrameKind,
    Role,
    SUPPORTED_WIRE_VERSIONS,
    VersionMismatchError,
    WireError,
    decode_session,
    decode_u32,
    decode_u64,
    encode_session,
    encode_u32,
    encode_u64,
    encode_u64_frames,
    encode_version_reject,
    split_record,
)
# The columnar codec, bound under the one-row names the benchmark's
# tracer wraps (bench/tracing.py::TARGETS): one call decodes a record's
# run of REQUEST frames, one encodes a connection's replies.
from repro.core.wire import decode_requests as decode_request
from repro.core.wire import encode_responses as encode_response
from repro.errors import (
    ConfigurationError,
    IntegrityError,
    ReplayError,
    TransportError,
)
from repro.serve.protocol import write_frame
from repro.serve.secure import (
    AsyncFrameTransport,
    ServeTrust,
    secure_handshake_async,
)


class _Session:
    """Server-side state of one resumable client session."""

    __slots__ = (
        "session_id", "seen", "buffer", "buffered", "next_seq", "transport",
    )

    def __init__(self, session_id: int):
        self.session_id = session_id
        #: Request ids accepted and not yet acknowledged (dedupe set for
        #: resent requests after a reconnect).
        self.seen: Set[int] = set()
        #: Undelivered/unacknowledged replies, one entry per delivery:
        #: ``(first delivery seq, req_ids, encoded RESPONSE frames)``.
        self.buffer = deque()
        #: Responses held in :attr:`buffer`.
        self.buffered = 0
        #: Next delivery sequence number (1-based; 0 means "nothing").
        self.next_seq = 1
        #: The currently attached transport, if any.
        self.transport: Optional[AsyncFrameTransport] = None

    def ack(self, seq: int) -> None:
        """Drop buffered responses delivered through ``seq``."""
        while self.buffer:
            first, req_ids, frames = self.buffer[0]
            acked = min(len(req_ids), seq - first + 1)
            if acked <= 0:
                return
            self.seen.difference_update(req_ids[:acked])
            self.buffered -= acked
            if acked < len(req_ids):
                size = len(frames) // len(req_ids)
                self.buffer[0] = (
                    first + acked, req_ids[acked:], frames[acked * size:]
                )
                return
            self.buffer.popleft()


class _Connection:
    """One client connection and its in-flight window (backpressure)."""

    __slots__ = ("transport", "inflight", "room")

    def __init__(self, transport: AsyncFrameTransport):
        self.transport = transport
        #: Rows submitted on this connection and not yet answered.
        self.inflight = 0
        #: Set whenever replies free part of the window.
        self.room = asyncio.Event()


def intake_masks(
    req_ids: List[int],
    *,
    draining: bool,
    room: Optional[int],
    seen: Optional[Set[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Which rows of one chunk are admitted and which are shed.

    Returns ``(admit, shed)`` boolean row masks.  They are a function of
    public state only — the draining flag, the server's open-ticket
    ``room`` (``None``: no ceiling) and the session's own accepted
    request ids (``seen``; ``None`` when sessionless) — never of a row's
    key, value or op, which this function is not handed.  While
    draining every row is shed (SHUTTING_DOWN).  Otherwise a row whose
    req_id the session accepted before, or an earlier row of the chunk
    carries, is a duplicate (neither admitted nor shed: dropped without
    a frame, exactly-once); and once ``room`` fresh rows were admitted,
    every later row is shed (BUSY).
    """
    count = len(req_ids)
    if draining:
        return np.zeros(count, dtype=bool), np.ones(count, dtype=bool)
    fresh = np.ones(count, dtype=bool)
    if seen is not None:
        first: Dict[int, int] = {}
        for row, req_id in enumerate(req_ids):
            first.setdefault(req_id, row)
        fresh = np.fromiter(
            (
                req_id not in seen and first[req_id] == row
                for row, req_id in enumerate(req_ids)
            ),
            dtype=bool, count=count,
        )
    busy = np.zeros(count, dtype=bool)
    if room is not None:
        busy = np.cumsum(fresh) - fresh >= room
    return fresh & ~busy, busy


class SnoopyServer:
    """Serve a :class:`~repro.core.snoopy.Snoopy` deployment over TCP.

    Args:
        store: an initialized deployment.  Its backend must support
            shared state (``serial``/``thread``) — the pipeline and any
            :class:`~repro.serve.workers.RemoteSubOram` proxies live in
            this process.
        host / port: bind address (port 0 picks a free port; the bound
            port is on :attr:`port` after :meth:`start`).
        clock: run the pipeline's background epoch clock (production).
            With ``False``, epochs close only on CLOSE_EPOCH admin
            frames — the deterministic mode tests use.
        epoch_duration: clock period override in seconds.
        pipeline_depth: max in-flight epochs (default from config).
        max_pending_per_connection: per-connection in-flight row cap; the
            backpressure window described in the module docstring.
        attested: accepts only ``True`` (``False`` raises
            :class:`~repro.errors.ConfigurationError`): every connection
            runs the attested quote exchange and sealed frames.  It
            stays only because the served benchmark
            (``bench/server_main.py``) passes its pinned
            ``attested=True``; it goes when that pin is dropped.
        trust: the deployment's :class:`~repro.serve.secure.ServeTrust`.
            Defaults to ``ServeTrust.for_store(store)`` — hand the same
            object (or its secret) to clients and workers.
        handshake_timeout: seconds a connection may spend in the
            handshake before being cut (slow-loris defence).
        max_open_tickets: server-wide open-ticket ceiling; beyond it new
            requests are shed with BUSY frames.  ``None`` = no shedding
            (per-connection backpressure still applies).
        session_buffer_cap: per-session cap on buffered undelivered
            responses; a session that exceeds it (client gone for many
            epochs without acking) is expired.
        max_sessions: cap on concurrently held sessions; creating one
            past the cap evicts the oldest detached session.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        clock: bool = True,
        epoch_duration: Optional[float] = None,
        pipeline_depth: Optional[int] = None,
        max_pending_per_connection: int = 1024,
        attested: bool = True,
        trust: Optional[ServeTrust] = None,
        handshake_timeout: Optional[float] = 10.0,
        max_open_tickets: Optional[int] = None,
        session_buffer_cap: int = 4096,
        max_sessions: int = 256,
    ):
        if not attested:
            raise ConfigurationError(
                "every serve-layer channel is attested; attested must be True"
            )
        if max_pending_per_connection < 1:
            raise ConfigurationError(
                "max_pending_per_connection must be >= 1"
            )
        if max_open_tickets is not None and max_open_tickets < 1:
            raise ConfigurationError("max_open_tickets must be >= 1")
        if session_buffer_cap < 1:
            raise ConfigurationError("session_buffer_cap must be >= 1")
        self._store = store
        self._host = host
        self._requested_port = port
        self._clock = clock
        self._epoch_duration = epoch_duration
        self._pipeline_depth = pipeline_depth
        self.max_pending_per_connection = max_pending_per_connection
        self.trust = (
            trust if trust is not None else ServeTrust.for_store(store)
        )
        self._enclave = self.trust.enclave(Role.SERVER)
        self.handshake_timeout = handshake_timeout
        self.max_open_tickets = max_open_tickets
        self.session_buffer_cap = session_buffer_cap
        self.max_sessions = max_sessions
        self.telemetry = store.telemetry
        self.pipeline = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._open_tickets = 0
        #: Resolved tickets awaiting delivery on the loop, and whether a
        #: drain of them is already scheduled (see :meth:`_wake_drain`).
        self._resolved = deque()
        self._drain_scheduled = False
        self._draining = False
        self._sessions: Dict[int, _Session] = {}
        self._next_session_id = 1
        self._transports: Set[AsyncFrameTransport] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self.stats = {
            "connections": 0,
            "requests": 0,
            "responses": 0,
            "epochs": 0,
            "version_mismatches": 0,
            "peak_open_tickets": 0,
            "sessions": 0,
            "session_resumes": 0,
            "replayed_responses": 0,
            "duplicate_requests": 0,
            "busy_rejections": 0,
            "shed_while_draining": 0,
            "channel_violations": 0,
            "handshake_failures": 0,
        }

    @property
    def value_size(self) -> int:
        """The store's fixed object size (sets every frame's length)."""
        return self._store.config.value_size

    @property
    def draining(self) -> bool:
        """True once shutdown started (new requests are shed)."""
        return self._draining

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SnoopyServer":
        """Start the epoch pipeline and begin accepting connections."""
        self._loop = asyncio.get_running_loop()
        self.pipeline = self._store.start_pipeline(
            depth=self._pipeline_depth,
            clock=self._clock,
            epoch_duration=self._epoch_duration,
        )
        self.pipeline.add_epoch_observer(self._observe_epoch)
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled/closed."""
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, notify, close.

        With ``drain`` (default): requests arriving from here on are
        answered with SHUTTING_DOWN frames; the pipeline stops *and
        flushes*, so every already-accepted ticket resolves and its
        response is written (or buffered for a resumed session); then
        every live connection gets a final SHUTTING_DOWN broadcast and
        is closed.  With ``drain=False`` the pipeline still flushes
        (that is what ``EpochPipeline.stop`` does) but no notification
        frames are sent — the PR 6 behaviour.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.pipeline is not None and self.pipeline.active:
            # stop() flushes; run it off-loop so pending ticket
            # callbacks can still land on the loop while it drains.
            await asyncio.get_running_loop().run_in_executor(
                None, self.pipeline.stop
            )
        # The executor result arrives on the loop *after* every drain of
        # resolved tickets the matcher scheduled, so all deliverable
        # responses are in the write buffers by now.
        if drain:
            for transport in list(self._transports):
                if transport.is_closing():
                    continue
                try:
                    transport.send(FrameKind.SHUTTING_DOWN)
                    await transport.drain()
                except (TransportError, ConnectionError, OSError):
                    pass
        for transport in list(self._transports):
            transport.close()
        if self._conn_tasks:
            # Let the per-connection tasks observe their closed sockets
            # and exit cleanly instead of dying cancelled at loop close.
            await asyncio.wait(self._conn_tasks, timeout=5)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        transport: Optional[AsyncFrameTransport] = None
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            try:
                _version, _role, pair = await secure_handshake_async(
                    reader, writer, Role.SERVER,
                    trust=self.trust,
                    enclave=self._enclave,
                    expected_roles=(Role.CLIENT,),
                    timeout=self.handshake_timeout,
                )
            except VersionMismatchError as exc:
                self.stats["version_mismatches"] += 1
                self.telemetry.counter(
                    "serve_version_mismatches_total"
                ).inc()
                # Structured reject: the client learns what it offered
                # *and* what this server supports (plaintext frame — no
                # channel exists yet).
                await self._send_plain(
                    writer, FrameKind.VERSION_REJECT,
                    encode_version_reject(
                        exc.offered, SUPPORTED_WIRE_VERSIONS
                    ),
                )
                return
            except WireError as exc:
                self.stats["handshake_failures"] += 1
                await self._send_plain(
                    writer, FrameKind.ERROR,
                    str(exc).encode("utf-8", "replace"),
                )
                return
            except TransportError:
                # Vanished or slow-loris'd past the handshake timeout.
                self.stats["handshake_failures"] += 1
                self.telemetry.counter(
                    "serve_handshake_timeouts_total"
                ).inc()
                return
            transport = AsyncFrameTransport(reader, writer, pair)
            self._transports.add(transport)
            self.stats["connections"] += 1
            self.telemetry.counter("serve_connections_total").inc()
            self.telemetry.gauge("serve_connections_open").inc()
            # Public deployment shape, so clients need no out-of-band
            # configuration: value size (frame geometry) + balancer count.
            transport.send(
                FrameKind.INIT,
                encode_u32(self.value_size)
                + encode_u32(self._store.config.num_load_balancers),
            )
            await transport.drain()
            try:
                await self._serve_frames(transport)
            finally:
                self.telemetry.gauge("serve_connections_open").inc(-1)
        finally:
            self._conn_tasks.discard(task)
            if transport is not None:
                self._transports.discard(transport)
                for session in self._sessions.values():
                    if session.transport is transport:
                        session.transport = None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_frames(self, transport: AsyncFrameTransport) -> None:
        """The per-connection record loop (post-handshake)."""
        conn = _Connection(transport)
        session: Optional[_Session] = None
        while True:
            try:
                items = self._decode_record(await transport.recv_record())
            except TransportError:
                return  # client went away; its submitted epochs still run
            except (ReplayError, IntegrityError):
                # Sealed-channel violation: a replayed or tampered frame.
                # Fail closed — drop the connection; a legitimate client
                # re-establishes a fresh attested channel and resumes.
                self.stats["channel_violations"] += 1
                self.telemetry.counter(
                    "serve_channel_violations_total"
                ).inc()
                return
            except WireError as exc:
                # Any bad frame refuses the whole record: none of its
                # rows was queued.
                await self._send_error(transport, str(exc))
                return
            for kind, payload in items:
                if kind == FrameKind.REQUEST:
                    if not await self._take_requests(conn, session, *payload):
                        return
                elif kind == FrameKind.SESSION:
                    session = await self._handle_session(
                        transport, payload, session
                    )
                    if session is None:
                        return
                elif kind == FrameKind.RESPONSE_ACK:
                    if session is not None:
                        try:
                            session.ack(decode_u64(payload))
                        except WireError as exc:
                            await self._send_error(transport, str(exc))
                            return
                elif kind == FrameKind.CLOSE_EPOCH:
                    if self._draining:
                        transport.send(
                            FrameKind.SHUTTING_DOWN, encode_u64(0)
                        )
                        await transport.drain()
                        continue
                    flush = bool(payload and decode_u32(payload) & 1)
                    try:
                        epoch = await self._loop.run_in_executor(
                            None, self._close_epoch_blocking, flush
                        )
                    except Exception as exc:
                        await self._send_error(transport, repr(exc))
                        return
                    transport.send(
                        FrameKind.EPOCH_CLOSED,
                        encode_u64(epoch if epoch is not None else 0),
                    )
                    await transport.drain()
                elif kind == FrameKind.PING:
                    transport.send(FrameKind.PONG)
                    await transport.drain()
                else:
                    await self._send_error(
                        transport,
                        f"unexpected frame kind {kind} on the front door",
                    )
                    return

    def _decode_record(self, record) -> list:
        """Split and decode a whole record before acting on any of it.

        Each REQUEST run becomes ``(req_id, load_balancer, rows,
        balancers)``: its columns and the set of balancer choices they
        hold.  Raises :class:`WireError` for any malformed frame or a row
        naming a balancer the deployment does not have.
        """
        value_size = self.value_size
        items = []
        for kind, payload in split_record(record):
            if kind == FrameKind.REQUEST:
                req_id, balancer, rows = decode_request(payload, value_size)
                chosen = set(balancer.tolist())
                if max(chosen) >= self._store.config.num_load_balancers:
                    raise WireError("request names an unknown load balancer")
                payload = req_id, balancer, rows, chosen
            items.append((kind, payload))
        return items

    async def _take_requests(
        self, conn: _Connection, session: Optional[_Session],
        req_id, balancer, rows, chosen: Set[int],
    ) -> bool:
        """Admit, queue and ticket one chunk of decoded request rows.

        Returns ``False`` once the connection must close (a fatal error
        was sent, or the peer is gone).
        """
        count = len(rows)
        # Backpressure: stop reading this socket while the chunk does not
        # fit the connection's window (a chunk larger than the whole
        # window waits for an empty one).
        while conn.inflight and (
            conn.inflight + count > self.max_pending_per_connection
        ):
            conn.room.clear()
            await conn.room.wait()
        room = None
        if self.max_open_tickets is not None:
            room = self.max_open_tickets - self._open_tickets
        verdicts = b""
        if self._draining or session is not None or (
            room is not None and room < count
        ):
            admit, shed = intake_masks(
                req_id.tolist(), draining=self._draining, room=room,
                seen=None if session is None else session.seen,
            )
            kind, stat, metric = (
                (FrameKind.SHUTTING_DOWN, "shed_while_draining",
                 "serve_shutting_down_total") if self._draining
                else (FrameKind.BUSY, "busy_rejections", "serve_busy_total")
            )
            rejected, admitted = int(shed.sum()), int(admit.sum())
            if rejected:
                self.stats[stat] += rejected
                self.telemetry.counter(metric).inc(rejected)
                verdicts = encode_u64_frames(kind, req_id[shed])
            if count - admitted - rejected:
                # Resent after a reconnect; the original is pending or
                # buffered — exactly-once holds, drop the copy.
                self.stats["duplicate_requests"] += count - admitted - rejected
                self.telemetry.counter("serve_duplicate_requests_total").inc(
                    count - admitted - rejected
                )
            if admitted < count:
                keep = np.flatnonzero(admit)
                req_id, balancer, rows = (
                    req_id[keep], balancer[keep], rows.take(keep)
                )
                chosen = set(balancer.tolist())
        for choice in sorted(chosen):
            ids, part = req_id, rows
            if len(chosen) > 1:
                keep = np.flatnonzero(balancer == choice)
                ids, part = req_id[keep], rows.take(keep)
            try:
                ticket = self._store.submit(
                    part, choice if choice >= 0 else None
                )
            except Exception as exc:
                await self._send_error(conn.transport, repr(exc))
                return False
            self._admitted(conn, session, ids, ticket)
        if verdicts:
            conn.transport.send_frames(verdicts)
            try:
                await conn.transport.drain()
            except TransportError:
                return False
        return True

    def _admitted(self, conn, session, req_id, ticket: Ticket) -> None:
        """Account one submitted ticket and hook its reply delivery."""
        conn.inflight += ticket.count
        self._open_tickets += ticket.count
        self.stats["requests"] += ticket.count
        self.stats["peak_open_tickets"] = max(
            self.stats["peak_open_tickets"], self._open_tickets
        )
        self.telemetry.counter("serve_requests_total").inc(ticket.count)
        self.telemetry.gauge("serve_open_tickets").set(self._open_tickets)
        self.telemetry.gauge("serve_open_tickets_peak").set_max(
            self._open_tickets
        )
        if session is not None:
            session.seen.update(req_id.tolist())
        ticket.add_done_callback(
            functools.partial(self._queue_reply, conn, session, req_id)
        )
        if ticket.done:
            # Resolved before the callback was registered: it ran inline,
            # possibly after its epoch's wake-up.
            self._wake_drain()

    def _queue_reply(self, conn, session, req_id, ticket: Ticket) -> None:
        """Done-callback of one ticket (match thread): queue it, no work."""
        self._resolved.append((conn, session, req_id, ticket))

    async def _handle_session(
        self,
        transport: AsyncFrameTransport,
        payload: bytes,
        current: Optional[_Session],
    ) -> Optional[_Session]:
        """SESSION frame: open a new session or resume an existing one.

        Returns the attached session, or ``None`` after sending a fatal
        error (unknown/expired session id).
        """
        try:
            session_id, last_seq = decode_session(payload)
        except WireError as exc:
            await self._send_error(transport, str(exc))
            return None
        if current is not None and session_id != current.session_id:
            await self._send_error(
                transport, "connection is already bound to a session"
            )
            return None
        if session_id == 0:
            session = _Session(self._next_session_id)
            self._next_session_id += 1
            self._evict_sessions()
            self._sessions[session.session_id] = session
            session.transport = transport
            self.stats["sessions"] += 1
            self.telemetry.counter("serve_sessions_total").inc()
            transport.send(
                FrameKind.SESSION_ACK,
                encode_session(session.session_id, 0),
            )
            await transport.drain()
            return session
        session = self._sessions.get(session_id)
        if session is None:
            await self._send_error(
                transport,
                f"session {session_id} expired or unknown; open tickets "
                f"cannot be resumed",
            )
            return None
        if session.transport is not None and session.transport is not transport:
            # The old connection may be half-dead; the newest wins.
            session.transport.close()
        session.transport = transport
        session.ack(last_seq)
        self.stats["session_resumes"] += 1
        self.telemetry.counter("serve_session_resumes_total").inc()
        transport.send(
            FrameKind.SESSION_ACK,
            encode_session(session.session_id, session.next_seq - 1),
        )
        # Replay everything the client missed, in delivery order.
        for _first, req_ids, frames in session.buffer:
            self.stats["replayed_responses"] += len(req_ids)
            self.telemetry.counter("serve_replayed_responses_total").inc(
                len(req_ids)
            )
            transport.send_frames(frames)
        await transport.drain()
        return session

    def _evict_sessions(self) -> None:
        """Keep the session table at ``max_sessions`` (evict detached)."""
        while len(self._sessions) >= self.max_sessions:
            for sid, session in self._sessions.items():
                if session.transport is None:
                    del self._sessions[sid]
                    break
            else:
                # Every session is attached to a live connection; admit
                # anyway rather than refusing service.
                return

    def _close_epoch_blocking(self, flush: bool) -> Optional[int]:
        """CLOSE_EPOCH admin path (runs in the default executor)."""
        epoch = self.pipeline.close_epoch(wait=True)
        if flush:
            self.pipeline.flush()
        return epoch

    def _wake_drain(self) -> None:
        """Schedule one :meth:`_drain_resolved` unless one is pending."""
        if self._resolved and not self._drain_scheduled:
            self._drain_scheduled = True
            self._loop.call_soon_threadsafe(self._drain_resolved)

    def _drain_resolved(self) -> None:
        """Deliver every queued resolved ticket: one encoded array per
        connection (and session), in resolution order."""
        self._drain_scheduled = False
        resolved = self._resolved
        by_connection: Dict[tuple, list] = {}
        while resolved:
            conn, session, req_id, ticket = resolved.popleft()
            by_connection.setdefault((conn, session), []).append(
                (req_id, ticket)
            )
        for (conn, session), replies in by_connection.items():
            self._deliver(conn, session, replies)
        self.telemetry.gauge("serve_open_tickets").set(self._open_tickets)

    def _deliver(self, conn: _Connection, session: Optional[_Session],
                 replies: list) -> None:
        """Encode and send one connection's resolved tickets (loop thread).

        Counts the responses when they resolve; sessionless responses to
        a closed connection are dropped (PR 6 behaviour), session-bound
        ones are buffered and replayed on resume.
        """
        tickets = [ticket for _, ticket in replies]
        counts = [ticket.count for ticket in tickets]
        count = sum(counts)
        self._open_tickets -= count
        conn.inflight -= count
        conn.room.set()
        rows = Ticket.gather(tickets)
        first = delivery_seq = 0
        if session is not None:
            first = delivery_seq = session.next_seq
            session.next_seq += count
            delivery_seq = np.arange(first, first + count)
        req_id = np.concatenate([req_id for req_id, _ in replies])
        frames = encode_response(
            req_id, rows,
            load_balancer=np.repeat(
                [ticket.load_balancer for ticket in tickets], counts
            ),
            arrival=rows.arrival,
            epoch=np.repeat([ticket.epoch for ticket in tickets], counts),
            delivery_seq=delivery_seq,
        )
        self.stats["responses"] += count
        self.telemetry.counter("serve_responses_total").inc(count)
        transport = conn.transport
        if session is not None:
            session.buffer.append((first, req_id.tolist(), frames))
            session.buffered += count
            if session.buffered > self.session_buffer_cap:
                # The client is not acking (or gone for good): expire
                # the session so memory stays bounded.  A later resume
                # attempt gets a typed "expired" error.
                self._sessions.pop(session.session_id, None)
                if session.transport is not None:
                    session.transport.close()
                    session.transport = None
                return
            transport = session.transport
        if transport is not None and not transport.is_closing():
            transport.send_frames(frames)

    async def _send_plain(self, writer, kind: int, payload: bytes) -> None:
        """Best-effort plaintext frame (pre-channel handshake errors)."""
        if writer.is_closing():
            return
        try:
            write_frame(writer, kind, payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _send_error(self, transport, message: str) -> None:
        """Best-effort ERROR frame (error text is public protocol state)."""
        if transport.is_closing():
            return
        try:
            transport.send(
                FrameKind.ERROR, message.encode("utf-8", "replace")
            )
            await transport.drain()
        except (TransportError, ConnectionError, OSError):
            pass

    def _observe_epoch(self, epoch, resolved, latency_s) -> None:
        """Pipeline epoch observer: epoch accounting and the wake-up.

        Runs on the match thread once the epoch's whole ticket cut has
        resolved (and queued its replies), so the loop wakes once per
        epoch.  Waking per ticket instead would hand the GIL to the loop
        at every self-pipe write, mid-cut.
        """
        self.stats["epochs"] += 1
        self.telemetry.counter("serve_epochs_total").inc()
        self._wake_drain()


class ServerThread:
    """Host a :class:`SnoopyServer` on a background event-loop thread.

    The shape tests and benchmarks need: start the
    server, learn its bound port, drive it from ordinary blocking code,
    and tear it down deterministically::

        handle = ServerThread(store, clock=False).start()
        client = NetworkSnoopyClient(
            "127.0.0.1", handle.port, trust=handle.trust
        )
        ...
        handle.stop()

    ``stop()`` drains gracefully (see :meth:`SnoopyServer.aclose`); the
    store itself stays open (the caller owns it).
    """

    def __init__(self, store, **server_kwargs):
        self._store = store
        self._server_kwargs = server_kwargs
        self.server: Optional[SnoopyServer] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stop_requested: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def trust(self):
        """The server's :class:`~repro.serve.secure.ServeTrust` (``None``
        until :meth:`start`)."""
        return self.server.trust if self.server is not None else None

    def start(self) -> "ServerThread":
        """Launch the loop thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=self._main, name="snoopy-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Shut the server down and join the loop thread; idempotent."""
        if self._thread is None:
            return
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        try:
            self.server = SnoopyServer(self._store, **self._server_kwargs)
            await self.server.start()
            self.port = self.server.port
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            await self.server.aclose()
