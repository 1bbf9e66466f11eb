"""``NetworkSnoopyClient`` — the TCP implementation of ``SnoopyClient``.

The in-process :class:`~repro.core.snoopy.Snoopy` deployment and this
client expose the same surface (the :class:`~repro.core.client.SnoopyClient`
protocol): ``submit`` returns a ticket that resolves when the request's
epoch closes, and ``read``/``write``/``batch`` wrap it synchronously.
Code written against the protocol runs unchanged against either.

A background reader thread owns the receive side of the connection and
resolves :class:`NetworkTicket` objects as RESPONSE frames arrive, so
``submit`` never blocks on the epoch cadence — mirroring how the
in-process pipeline resolves tickets from its match thread.

**Resilience.**  The reader thread also owns recovery: when the
connection drops (a real network fault or an injected chaos event) it
redials under a :class:`ReconnectPolicy` — exponential backoff with
*seeded* jitter, so two runs of the same seed back off identically —
re-runs the attested handshake, resumes the server-side session, and
resends every unresolved request in ``req_id`` order.  The server
deduplicates resent requests and replays undelivered responses, so
every ticket resolves **exactly once** across any number of drops.  A
:class:`CircuitBreaker` fast-fails ``submit`` during an outage instead
of letting callers pile onto a dead connection, and per-request
deadlines (``request_timeout``) bound how long a caller can be parked
on a ticket regardless of how recovery goes.

Typed degradation: a server shedding load answers BUSY
(:class:`~repro.errors.ServerBusyError` — retryable), a draining server
answers SHUTTING_DOWN (:class:`~repro.errors.ServerShuttingDownError`
— *not* retryable; fail over instead), and a lost session surfaces as
:class:`~repro.errors.SessionExpiredError`.

Two epoch modes, matching the server's:

* Against a clocked server (the production default) tickets resolve on
  the server's fixed epoch period; ``read``/``write`` simply wait.
* Against an unclocked server, pass ``manual_epochs=True`` and the
  synchronous helpers drive the CLOSE_EPOCH admin frame themselves —
  the deterministic mode the differential tests rely on.
"""

from __future__ import annotations

import itertools
import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.wire import (
    FrameKind,
    Role,
    WireError,
    decode_response,
    decode_session,
    decode_u32,
    decode_u64,
    encode_request,
    encode_session,
    encode_u32,
    encode_u64,
)
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    IntegrityError,
    ReplayError,
    ReproError,
    ServerBusyError,
    ServerShuttingDownError,
    ServiceUnavailableError,
    SessionExpiredError,
    TaskTimeoutError,
    TransportError,
)
from repro.serve.secure import ServeTrust, connect_transport
from repro.types import OpType, Request, Response

_CLIENT_IDS = itertools.count(1)


@dataclass(frozen=True)
class ReconnectPolicy:
    """Backoff schedule for redialing a dropped connection.

    Exponential with *deterministic* jitter: the jitter factors come
    from ``random.Random(seed)``, so a chaos run and its replay back
    off identically — reconnect timing never makes a seeded run
    diverge.

    ``max_attempts`` bounds one outage's dial attempts; exhausting them
    fails every pending ticket with the last transport error.
    """

    max_attempts: int = 8
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delays(self) -> Iterator[float]:
        """The per-attempt sleep schedule (fresh iterator per outage)."""
        rng = random.Random(self.seed)
        delay = self.base_delay_s
        for _ in range(self.max_attempts):
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, min(self.max_delay_s, delay) * factor)
            delay *= self.multiplier


class CircuitBreaker:
    """Per-connection circuit breaker (closed → open → half-open).

    ``failure_threshold`` consecutive connection failures open the
    circuit: ``allow()`` turns False so callers fail fast with
    :class:`~repro.errors.CircuitOpenError` instead of queueing on a
    dead link.  After ``reset_after_s`` the circuit half-opens —
    ``probe()`` admits exactly one dial attempt; its success closes the
    circuit, its failure reopens it for another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current breaker state: ``closed``, ``open``, or ``half-open``."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a *request* proceed right now?"""
        with self._lock:
            if self._state != "open":
                return True
            if self._clock() - self._opened_at >= self.reset_after_s:
                return True  # cooldown over; let traffic probe
            return False

    def probe(self) -> bool:
        """May a *dial attempt* proceed right now? (half-opens on cooldown)"""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "half-open":
                return False  # one probe already in flight
            if self._clock() - self._opened_at >= self.reset_after_s:
                self._state = "half-open"
                return True
            return False

    def record_success(self) -> None:
        """Report a successful call: reset the failure count, close the breaker."""
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        """Report a failed call; trips the breaker open at the threshold."""
        with self._lock:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = self._clock()


class NetworkTicket:
    """Client-side handle for one in-flight request.

    Mirrors :class:`~repro.core.tickets.Ticket`: ``result()`` blocks
    until the epoch containing the request closes, ``done()`` polls, and
    ``add_done_callback`` fires on the reader thread at resolution.  The
    server's RESPONSE frame carries the authoritative linearizability
    coordinates, so :attr:`load_balancer`, :attr:`arrival`, and
    :attr:`epoch` are ``None`` until the ticket resolves.

    A ticket may carry a deadline (monotonic-clock instant); waiting
    past it raises :class:`~repro.errors.DeadlineExceededError` even if
    the caller passed a longer explicit timeout.
    """

    __slots__ = (
        "request", "req_id", "load_balancer", "arrival", "epoch",
        "deadline", "pinned", "_response", "_error", "_event",
        "_callbacks", "_lock",
    )

    def __init__(
        self, req_id: int, request: Request,
        deadline: Optional[float] = None, pinned: int = -1,
    ):
        self.req_id = req_id
        self.request = request
        self.deadline = deadline
        #: Balancer pin from submit (resends must preserve it).
        self.pinned = pinned
        self.load_balancer: Optional[int] = None
        self.arrival: Optional[int] = None
        self.epoch: Optional[int] = None
        self._response: Optional[Response] = None
        self._error: Optional[BaseException] = None
        self._event = threading.Event()
        self._callbacks: Optional[List[Callable]] = []
        self._lock = threading.Lock()

    def done(self) -> bool:
        """True once a RESPONSE arrived (or the request failed)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block up to ``timeout`` seconds; True if the ticket settled."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Response:
        """The response, blocking until the request's epoch closes.

        Raises:
            DeadlineExceededError: the ticket's per-request deadline
                passed first (the ticket stays pending server-side).
            TaskTimeoutError: ``timeout`` elapsed first.  The ticket
                stays pending — the request is still queued server-side
                and the ticket resolves normally if the epoch later
                closes (the client-timeout fault semantics).
            TransportError: the connection died (beyond recovery)
                before resolution.
        """
        effective = timeout
        if self.deadline is not None:
            remaining = self.deadline - time.monotonic()
            if effective is None or remaining < effective:
                effective = max(0.0, remaining)
        if not self._event.wait(effective):
            if (
                self.deadline is not None
                and time.monotonic() >= self.deadline
                and (timeout is None or effective < timeout)
            ):
                raise DeadlineExceededError(
                    f"request {self.req_id} missed its deadline "
                    "(still queued for a future epoch)"
                )
            raise TaskTimeoutError(
                f"request {self.req_id} unresolved after {timeout}s "
                "(still queued for a future epoch)"
            )
        if self._error is not None:
            raise self._error
        return self._response

    def add_done_callback(self, callback: Callable[["NetworkTicket"], None]) -> None:
        """Run ``callback(ticket)`` at settlement (reader thread), or now."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _settle(
        self,
        response: Optional[Response],
        coords: Optional[Tuple[int, int, int]],
        error: Optional[BaseException],
    ) -> None:
        with self._lock:
            if self._event.is_set():
                return  # exactly-once: replayed duplicates are no-ops
            self._response = response
            self._error = error
            if coords is not None:
                self.load_balancer, self.arrival, self.epoch = coords
            callbacks, self._callbacks = self._callbacks, None
            self._event.set()
        for callback in callbacks or ():
            callback(self)


class NetworkSnoopyClient:
    """Blocking TCP client for a :class:`~repro.serve.server.SnoopyServer`.

    Implements the :class:`~repro.core.client.SnoopyClient` protocol over
    the versioned wire format.  The deployment's geometry (object size,
    balancer count) is learned from the server's INIT frame right after
    the handshake, so construction needs only an address — and, against
    an attested server, the shared trust.

    Args:
        host / port: server address.
        timeout: default seconds the synchronous helpers wait for a
            response (``None`` waits forever).  The connect itself uses
            the same bound.
        manual_epochs: drive epochs with CLOSE_EPOCH from the
            synchronous helpers (for servers started with ``clock=False``).
        client_id: id stamped into generated requests; unique per client
            by default so responses are attributable.
        trust: the deployment's :class:`~repro.serve.secure.ServeTrust`
            (or its raw secret ``bytes``).  Enables the attested
            handshake and sealed channel; the client verifies the
            server's quote against the trusted front-end measurement.
        attested: explicit channel mode; defaults to ``trust is not
            None``.  A mode mismatch with the server fails closed.
        resume: open a server-side resumable session (default), the
            exactly-once reconnect story above.  ``False`` keeps the
            connection sessionless (a drop fails pending tickets).
        reconnect: :class:`ReconnectPolicy` (default policy if omitted).
        breaker: :class:`CircuitBreaker` (default breaker if omitted).
        request_timeout: per-request deadline in seconds; each submitted
            ticket inherits ``now + request_timeout``.
        ack_interval: acknowledge delivered responses every N frames so
            the server can trim its session replay buffer.
        injector: a :class:`~repro.core.faults.FaultInjector` consulted
            on every connect and send (chaos runs).
        link: this connection's link name in the injector's plan.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: Optional[float] = 30.0,
        manual_epochs: bool = False,
        client_id: Optional[int] = None,
        trust=None,
        attested: Optional[bool] = None,
        resume: bool = True,
        reconnect: Optional[ReconnectPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        request_timeout: Optional[float] = None,
        ack_interval: int = 64,
        injector=None,
        link: str = "client",
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.manual_epochs = manual_epochs
        self.client_id = (
            client_id if client_id is not None else next(_CLIENT_IDS)
        )
        if isinstance(trust, (bytes, bytearray)):
            trust = ServeTrust(bytes(trust))
        self.trust: Optional[ServeTrust] = trust
        self.attested = attested if attested is not None else trust is not None
        self.resume = resume
        self.reconnect_policy = (
            reconnect if reconnect is not None else ReconnectPolicy()
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.request_timeout = request_timeout
        self.ack_interval = ack_interval
        self._injector = injector
        self._link = link
        # req_id 0 is reserved: SHUTTING_DOWN frames use it for
        # connection-level (not per-request) notices.
        self._seq = itertools.count()
        self._req_ids = itertools.count(1)
        self._pending = {}
        self._send_lock = threading.Lock()
        self._admin_lock = threading.Lock()
        self._admin_replies = queue.Queue()
        self._closed = False
        self._conn_error: Optional[BaseException] = None
        self._conn_ok = threading.Event()
        #: Bumped on every successful reconnect; admin round trips poll
        #: it so a reply lost in a drop is resent instead of timing out.
        self._conn_gen = 0
        self._session_id = 0
        self._last_delivery_seq = 0
        self._unacked = 0
        self.stats = {
            "reconnects": 0,
            "resent_requests": 0,
            "busy_rejections": 0,
            "shutdown_notices": 0,
            "acks_sent": 0,
            "duplicate_responses": 0,
            "channel_violations": 0,
        }

        self._transport = self._dial()
        if self.resume:
            self._open_session()
        self._conn_ok.set()
        self._reader = threading.Thread(
            target=self._read_loop, name="snoopy-netclient-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # SnoopyClient protocol
    # ------------------------------------------------------------------
    def submit(
        self, request: Request, load_balancer: Optional[int] = None
    ) -> NetworkTicket:
        """Send one request; returns a ticket resolving at epoch close.

        ``load_balancer`` pins the request to a specific balancer (the
        differential tests need submission order to fix balancer
        assignment); by default the server's deployment picks one.

        Raises:
            CircuitOpenError: the breaker is open (recent outage; fail
                fast instead of queueing on a dead connection).
            ServiceUnavailableError: reconnection did not complete
                within the client timeout.
        """
        if self._closed:
            raise TransportError("client is closed")
        if not self.breaker.allow():
            raise CircuitOpenError(
                "connection circuit is open after repeated failures"
            )
        self._await_connected(self.timeout)
        deadline = (
            time.monotonic() + self.request_timeout
            if self.request_timeout is not None else None
        )
        pinned = load_balancer if load_balancer is not None else -1
        with self._send_lock:
            req_id = next(self._req_ids)
            ticket = NetworkTicket(req_id, request, deadline, pinned)
            self._pending[req_id] = ticket
            try:
                self._transport.send(
                    FrameKind.REQUEST,
                    encode_request(
                        req_id,
                        request,
                        self.value_size,
                        load_balancer=pinned,
                    ),
                )
            except TransportError:
                if not self.resume:
                    self._pending.pop(req_id, None)
                    raise
                # The reader thread notices the dead socket and
                # reconnects; the resumed session resends this ticket.
        return ticket

    def read(self, key: int) -> Optional[bytes]:
        """Read one object (one request, one epoch round trip)."""
        return self._sync_op(Request(
            op=OpType.READ, key=key,
            client_id=self.client_id, seq=next(self._seq),
        ))

    def write(self, key: int, value: bytes) -> Optional[bytes]:
        """Write one object; returns the prior contents."""
        return self._sync_op(Request(
            op=OpType.WRITE, key=key, value=value,
            client_id=self.client_id, seq=next(self._seq),
        ))

    def batch(self, requests: Sequence[Request]) -> List[Response]:
        """Submit ``requests`` together and wait for all responses."""
        tickets = [self.submit(request) for request in requests]
        if self.manual_epochs and tickets:
            self.close_epoch()
        return [t.result(self.timeout) for t in tickets]

    def close(self) -> None:
        """Close the connection; unresolved tickets fail with TransportError."""
        if self._closed:
            return
        self._closed = True
        if self.resume and self._last_delivery_seq and self._conn_ok.is_set():
            try:  # parting ack lets the server trim its replay buffer
                with self._send_lock:
                    self._transport.send(
                        FrameKind.RESPONSE_ACK,
                        encode_u64(self._last_delivery_seq),
                    )
            except TransportError:
                pass
        self._conn_ok.set()  # release any waiter; they will see _closed
        self._transport.close()
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=10)

    def kill_connection(self) -> None:
        """Drop the TCP connection *without* closing the client (chaos).

        The reader thread observes the dead socket and runs the
        reconnect-and-resume path, exactly as for a real network fault.
        """
        self._transport.close()

    def __enter__(self) -> "NetworkSnoopyClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admin frames
    # ------------------------------------------------------------------
    def close_epoch(self, flush: bool = False) -> int:
        """Ask the server to close the current epoch; returns its number.

        With ``flush`` the server also drains every in-flight pipeline
        epoch before replying, so all earlier tickets are resolved.
        Retried transparently across a connection drop (the server may
        then close one extra — empty — epoch, which is harmless).
        """
        return decode_u64(
            self._admin_round_trip(
                FrameKind.CLOSE_EPOCH,
                encode_u32(1 if flush else 0),
                FrameKind.EPOCH_CLOSED,
            )
        )

    def ping(self) -> None:
        """Liveness round trip."""
        self._admin_round_trip(FrameKind.PING, b"", FrameKind.PONG)

    def _admin_round_trip(
        self, kind: int, payload: bytes, expect: int
    ) -> bytes:
        with self._admin_lock:
            attempts = self.reconnect_policy.max_attempts + 1
            for _ in range(attempts):
                self._await_connected(self.timeout)
                generation = self._conn_gen
                try:
                    with self._send_lock:
                        transport = self._transport
                        transport.send(kind, payload)
                except TransportError:
                    if not self.resume:
                        raise
                    # Retrying immediately would race the reader thread:
                    # _conn_ok is still set until it notices the dead
                    # socket, so a tight loop here can exhaust every
                    # attempt on the same broken connection before
                    # recovery even starts.  Force the drop to be
                    # observable, then wait for the *next* connection.
                    transport.close()
                    self._await_generation_change(generation)
                    continue  # the reader reconnected; resend
                reply_kind, reply = self._await_admin_reply(
                    kind, generation
                )
                if reply is None:
                    continue  # connection bounced mid-wait; resend
                if isinstance(reply, BaseException):
                    if self.resume and isinstance(reply, TransportError):
                        continue  # connection died mid-wait; retry
                    raise reply
                if reply_kind != expect:
                    raise WireError(
                        f"expected admin reply {expect}, got {reply_kind}"
                    )
                return reply
            raise ServiceUnavailableError(
                f"admin frame {kind} kept failing across "
                f"{attempts} reconnect attempts"
            )

    def _await_admin_reply(self, kind: int, generation: int):
        """Wait for an admin reply, polling for connection bounces.

        Returns ``(reply_kind, reply)``, or ``(None, None)`` when the
        connection was re-established mid-wait — the reply may have
        been lost with the old connection, so the caller must resend
        (admin frames are idempotent: a duplicate CLOSE_EPOCH closes
        one extra, empty, epoch).
        """
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None else None
        )
        while True:
            try:
                return self._admin_replies.get(timeout=0.2)
            except queue.Empty:
                if self._conn_gen != generation:
                    return None, None
                if deadline is not None and time.monotonic() >= deadline:
                    raise TaskTimeoutError(
                        f"no reply to admin frame {kind} within "
                        f"{self.timeout}s"
                    ) from None

    def _await_generation_change(self, generation: int) -> None:
        """Block until the reader has replaced the dead connection.

        Raises the terminal connection error if recovery failed, or
        :class:`~repro.errors.ServiceUnavailableError` if no new
        connection appears within the client timeout.
        """
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None else None
        )
        while self._conn_gen == generation:
            if self._closed:
                raise TransportError("client is closed")
            if self._conn_error is not None:
                raise self._conn_error
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceUnavailableError(
                    f"connection not re-established within {self.timeout}s"
                )
            time.sleep(0.02)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _dial(self):
        """Dial + handshake + INIT; returns the live transport."""
        transport, _version, _peer_role = connect_transport(
            self.host, self.port, Role.CLIENT,
            trust=self.trust, attested=self.attested,
            expected_roles=(Role.SERVER,),
            timeout=self.timeout,
            injector=self._injector, link=self._link,
        )
        try:
            kind, payload = transport.recv()
            if kind == FrameKind.ERROR:
                raise WireError(payload.decode("utf-8", "replace"))
            if kind == FrameKind.VERSION_REJECT:
                raise WireError(
                    "server rejected our wire version: "
                    + payload.hex()
                )
            if kind == FrameKind.SHUTTING_DOWN:
                raise ServerShuttingDownError(
                    "server is shutting down; connect elsewhere"
                )
            if kind != FrameKind.INIT:
                raise WireError(
                    f"expected INIT after handshake, got kind {kind}"
                )
            value_size = decode_u32(payload[:4])
            num_load_balancers = decode_u32(payload[4:8])
        except BaseException:
            transport.close()
            raise
        if hasattr(self, "value_size"):
            if (value_size, num_load_balancers) != (
                self.value_size, self.num_load_balancers
            ):
                transport.close()
                raise WireError(
                    "server geometry changed across reconnect"
                )
        else:
            self.value_size = value_size
            self.num_load_balancers = num_load_balancers
        return transport

    def _open_session(self) -> None:
        """SESSION(0,0) on a fresh connection → adopt the server's id."""
        self._transport.send(FrameKind.SESSION, encode_session(0, 0))
        kind, payload = self._transport.recv()
        if kind == FrameKind.ERROR:
            raise WireError(payload.decode("utf-8", "replace"))
        if kind != FrameKind.SESSION_ACK:
            raise WireError(f"expected SESSION_ACK, got kind {kind}")
        self._session_id, _ = decode_session(payload)

    def _resume_session(self) -> None:
        """SESSION(id, last_seq) on a redialed connection.

        The ack implicitly trims everything we already delivered; the
        server replays the rest (the reader loop consumes the replayed
        RESPONSE frames after this returns).  Then every still-pending
        request is resent in ``req_id`` order — the server deduplicates
        the ones it already accepted, so per-balancer batch composition
        is unchanged and every ticket resolves exactly once.
        """
        self._transport.send(
            FrameKind.SESSION,
            encode_session(self._session_id, self._last_delivery_seq),
        )
        kind, payload = self._transport.recv()
        if kind == FrameKind.ERROR:
            message = payload.decode("utf-8", "replace")
            if "expired or unknown" in message:
                raise SessionExpiredError(message)
            raise WireError(message)
        if kind != FrameKind.SESSION_ACK:
            raise WireError(f"expected SESSION_ACK, got kind {kind}")
        for req_id in sorted(self._pending):
            ticket = self._pending[req_id]
            self._transport.send(
                FrameKind.REQUEST,
                encode_request(
                    req_id, ticket.request, self.value_size,
                    load_balancer=ticket.pinned,
                ),
            )
            self.stats["resent_requests"] += 1

    def _reconnect(self) -> bool:
        """Reader-thread recovery loop; True when a session is live again."""
        self._conn_ok.clear()
        self._transport.close()
        self.breaker.record_failure()
        last_error: Optional[BaseException] = None
        for delay in self.reconnect_policy.delays():
            if self._closed:
                return False
            time.sleep(delay)
            if not self.breaker.probe():
                continue
            try:
                with self._send_lock:
                    self._transport = self._dial()
                    self._resume_session()
                    # Drop stale admin markers queued before the outage.
                    while True:
                        try:
                            self._admin_replies.get_nowait()
                        except queue.Empty:
                            break
                    self.breaker.record_success()
                    self.stats["reconnects"] += 1
                    self._conn_gen += 1
                    self._conn_ok.set()
                return True
            except (SessionExpiredError, ServerShuttingDownError) as exc:
                self.breaker.record_failure()
                self._conn_error = exc
                return False
            except (TransportError, WireError, OSError) as exc:
                self.breaker.record_failure()
                last_error = exc
        self._conn_error = (
            last_error
            if last_error is not None
            else TransportError("reconnect attempts exhausted")
        )
        return False

    def _await_connected(self, timeout: Optional[float]) -> None:
        if not self._conn_ok.wait(timeout):
            raise ServiceUnavailableError(
                f"connection not re-established within {timeout}s"
            )
        if self._closed:
            raise TransportError("client is closed")
        if self._conn_error is not None:
            raise self._conn_error

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sync_op(self, request: Request) -> Optional[bytes]:
        ticket = self.submit(request)
        if self.manual_epochs:
            self.close_epoch()
        return ticket.result(self.timeout).value

    def _read_loop(self) -> None:
        while True:
            try:
                kind, payload = self._transport.recv()
            except (ReplayError, IntegrityError):
                # Sealed-channel violation: fail closed on this
                # connection, then recover on a fresh attested channel.
                self.stats["channel_violations"] += 1
                if self._handle_drop():
                    continue
                return
            except (TransportError, OSError) as exc:
                if self._handle_drop(exc):
                    continue
                return
            try:
                if self._dispatch(kind, payload):
                    continue
                return
            except (TransportError, OSError) as exc:
                # e.g. an ack write hit a (possibly injected) drop.
                if self._handle_drop(exc):
                    continue
                return
            except BaseException as exc:
                self._fail_pending(exc)
                return

    def _handle_drop(self, exc: Optional[BaseException] = None) -> bool:
        """Connection lost: recover (True) or settle everything (False)."""
        if self._closed:
            self._fail_pending(
                TransportError("client closed with requests in flight")
            )
            return False
        if self.resume and self._reconnect():
            return True
        error = self._conn_error
        if error is None:
            error = exc if exc is not None else TransportError(
                "connection lost"
            )
        self._fail_pending(error)
        return False

    def _dispatch(self, kind: int, payload: bytes) -> bool:
        """Handle one frame on the reader thread; False ends the loop."""
        if kind == FrameKind.RESPONSE:
            req_id, response, coords, delivery_seq = decode_response(
                payload, self.value_size
            )
            ticket = self._pending.pop(req_id, None)
            if ticket is not None:
                ticket._settle(response, coords, None)
            else:
                self.stats["duplicate_responses"] += 1
            if self.resume and delivery_seq:
                if delivery_seq > self._last_delivery_seq:
                    self._last_delivery_seq = delivery_seq
                self._unacked += 1
                if self._unacked >= self.ack_interval:
                    self._unacked = 0
                    self.stats["acks_sent"] += 1
                    with self._send_lock:
                        self._transport.send(
                            FrameKind.RESPONSE_ACK,
                            encode_u64(self._last_delivery_seq),
                        )
            return True
        if kind == FrameKind.BUSY:
            req_id = decode_u64(payload)
            ticket = self._pending.pop(req_id, None)
            self.stats["busy_rejections"] += 1
            if ticket is not None:
                ticket._settle(None, None, ServerBusyError(
                    f"server shed request {req_id} under load"
                ))
            return True
        if kind == FrameKind.SHUTTING_DOWN:
            req_id = decode_u64(payload) if payload else 0
            self.stats["shutdown_notices"] += 1
            ticket = self._pending.pop(req_id, None) if req_id else None
            if ticket is not None:
                ticket._settle(None, None, ServerShuttingDownError(
                    f"server is draining; request {req_id} was not accepted"
                ))
                return True
            # Connection-level notice: the server is going away for
            # good — not a retryable fault, so no reconnect.
            raise ServerShuttingDownError("server is shutting down")
        if kind in (FrameKind.EPOCH_CLOSED, FrameKind.PONG):
            self._admin_replies.put((kind, payload))
            return True
        if kind == FrameKind.SESSION_ACK:
            return True  # late ack from an overlapping resume; ignore
        if kind == FrameKind.ERROR:
            raise ReproError(
                "server error: " + payload.decode("utf-8", "replace")
            )
        raise WireError(f"unexpected frame kind {kind}")

    def _fail_pending(self, exc: BaseException) -> None:
        """Connection is gone: settle every outstanding wait with ``exc``."""
        self._conn_error = exc
        self._conn_ok.set()  # wake submitters; they observe _conn_error
        pending, self._pending = dict(self._pending), {}
        for ticket in pending.values():
            ticket._settle(None, None, exc)
        self._admin_replies.put((FrameKind.ERROR, exc))
