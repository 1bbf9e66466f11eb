"""Open-loop and closed-loop load over the attested sealed TCP channel.

One single-threaded asyncio generator drives ``config.CONNECTIONS``
sessionless connections built on the public ``secure_handshake_async``,
``AsyncFrameTransport``, ``encode_request`` and ``decode_response``.

* :meth:`LoadGen.closed_phase` runs a fixed population of users per
  connection; each sends a request, waits for the reply, pauses, and sends
  the next, which keeps about ``window`` requests per connection in
  flight whatever the server's speed.
* :meth:`LoadGen.open_phase` sends on a precomputed Poisson schedule
  whatever the server does, and times every request from the instant it
  was *due*, so a stall is charged to the requests queued behind it; how
  late the generator itself ran is reported beside the latencies.

Every request's outcome is recorded: its reply value and the
``(load_balancer, arrival, epoch)`` placement the response frame
carries, or a typed failure (``busy``, ``error``, ``shutting_down``,
``timeout``, ``mismatch``).  Failures are counted, never raised, and
``history.py`` replays the whole record after timing ends.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.wire import (
    FrameKind,
    Role,
    WireError,
    decode_response,
    decode_u32,
    decode_u64,
    encode_request,
)
from repro.errors import ReproError
from repro.telemetry.registry import nearest_rank_percentile
from repro.serve.secure import (
    AsyncFrameTransport,
    ServeTrust,
    secure_handshake_async,
)
from repro.types import Request
from repro.workloads.generators import WorkloadSpec, generate_requests

import config

#: Requests generated per call when the list has to grow.
_CHUNK = 1024

#: Seed stride between request chunks (any odd constant keeps them apart).
_CHUNK_SEED_STRIDE = 1_000_003

_FAILURE_KINDS = {
    FrameKind.BUSY: "busy",
    FrameKind.SHUTTING_DOWN: "shutting_down",
}


@dataclass
class PhaseResult:
    """What one measured phase saw, window by window."""

    windows: List[dict] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)   # open phase only
    backlog_end: int = 0                                  # open phase only


class LoadGen:
    """The benchmark's client side for one server launch."""

    def __init__(self, port: int, workload: config.Workload, seed: int):
        self.port = port
        self.workload = workload
        self.seed = seed
        self.spec = WorkloadSpec(
            distribution=workload.distribution,
            num_keys=workload.num_objects,
            write_fraction=workload.write_fraction,
            value_size=workload.value_size,
            zipf_exponent=workload.zipf_exponent,
        )
        self.trust = ServeTrust(config.TRUST_SECRET)
        self.handshake_ms: List[float] = []
        self._transports: List[AsyncFrameTransport] = []
        self._readers: List[asyncio.Task] = []
        # Per-request record, indexed by request number (req_id - 1).
        self.requests: List[Request] = []
        self.due: List[float] = []         # open loop: scheduled send time
        self.sent: List[float] = []        # 0.0 = never sent
        self.done: List[float] = []        # 0.0 = no reply (yet)
        self.outcome: List[Optional[str]] = []   # None | "ok" | failure kind
        self.reply: List[Optional[bytes]] = []
        self.placement: List[Optional[tuple]] = []
        self.seen_epoch: List[int] = []    # newest epoch seen before the send
        self._conn_of: List[int] = []
        self._cursor = 0
        self._outstanding = 0
        self._newest_epoch = 0
        self._loop = asyncio.get_running_loop()
        self._refill = False               # closed loop: reply => think, send
        self._think = random.Random(seed ^ 0x7417).expovariate
        self._replies = 0
        self._probe = None
        # (time, replies before it, probe()) at the first reply of each epoch
        self._marks: List[tuple] = []
        self._idle = asyncio.Event()

    # ------------------------------------------------------------------
    # Inputs: requests come from --seed through repro.workloads
    # ------------------------------------------------------------------
    def ensure_requests(self, count: int) -> None:
        """Grow the request list to at least ``count`` (seeded chunks)."""
        while len(self.requests) < count:
            chunk = len(self.requests) // _CHUNK
            self.requests.extend(generate_requests(
                self.spec, _CHUNK,
                self.seed + chunk * _CHUNK_SEED_STRIDE,
                start_seq=len(self.requests),
            ))
        grow = len(self.requests) - len(self.sent)
        self.due.extend([0.0] * grow)
        self.sent.extend([0.0] * grow)
        self.done.extend([0.0] * grow)
        self.outcome.extend([None] * grow)
        self.reply.extend([None] * grow)
        self.placement.extend([None] * grow)
        self.seen_epoch.extend([0] * grow)
        self._conn_of.extend([0] * grow)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _open(self) -> AsyncFrameTransport:
        """One connection: attested handshake, then the server's INIT."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            _version, _role, pair = await secure_handshake_async(
                reader, writer, Role.CLIENT,
                trust=self.trust, attested=True,
                expected_roles=(Role.SERVER,),
                timeout=config.REQUEST_DEADLINE_S,
            )
            transport = AsyncFrameTransport(reader, writer, pair)
            kind, payload = await transport.recv()
            if kind != FrameKind.INIT:
                raise WireError(f"expected INIT, got frame kind {kind}")
            if decode_u32(payload[:4]) != self.workload.value_size:
                raise WireError("server announced another value size")
        except BaseException:
            writer.close()
            raise
        return transport

    @staticmethod
    async def _shut(transport: AsyncFrameTransport) -> None:
        transport.close()
        try:
            await transport.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def connect(self) -> None:
        """Open the load connections and start their readers."""
        for index in range(config.CONNECTIONS):
            started = time.perf_counter()
            transport = await self._open()
            self.handshake_ms.append((time.perf_counter() - started) * 1e3)
            self._transports.append(transport)
            self._readers.append(
                asyncio.create_task(self._read(index, transport))
            )

    async def ping(self) -> None:
        """One PING round trip on a fresh attested connection."""
        transport = await self._open()
        try:
            transport.send(FrameKind.PING)
            await transport.drain()
            kind, _payload = await transport.recv()
            if kind != FrameKind.PONG:
                raise WireError(f"expected PONG, got frame kind {kind}")
        finally:
            await self._shut(transport)

    async def close(self) -> None:
        """Stop the readers and close the sockets."""
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for transport in self._transports:
            await self._shut(transport)

    # ------------------------------------------------------------------
    # Send / receive
    # ------------------------------------------------------------------
    def _send(self, conn: int) -> int:
        """Send the next request on connection ``conn``; returns its index."""
        index = self._cursor
        if index >= len(self.requests):
            self.ensure_requests(index + 1)
        self._cursor = index + 1
        self._conn_of[index] = conn
        self.seen_epoch[index] = self._newest_epoch
        self._outstanding += 1
        self._transports[conn].send(
            FrameKind.REQUEST,
            encode_request(
                index + 1, self.requests[index], self.workload.value_size
            ),
        )
        self.sent[index] = time.perf_counter()
        return index

    def _user_send(self, conn: int) -> None:
        if self._refill:
            self._send(conn)

    def _finish(self, index: int, outcome: str) -> None:
        if self.outcome[index] is not None:
            # A second reply to one request is itself a failure.
            self.outcome[index] = "mismatch"
            return
        self.outcome[index] = outcome
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()

    async def _read(self, conn: int, transport: AsyncFrameTransport) -> None:
        value_size = self.workload.value_size
        recv = transport.recv
        perf_counter = time.perf_counter
        try:
            while True:
                kind, payload = await recv()
                if kind == FrameKind.RESPONSE:
                    req_id, response, placement, _seq = decode_response(
                        payload, value_size
                    )
                    index = req_id - 1
                    now = self.done[index] = perf_counter()
                    request = self.requests[index]
                    self.reply[index] = response.value
                    self.placement[index] = placement
                    if placement[2] > self._newest_epoch:
                        self._newest_epoch = placement[2]
                        if self._probe is not None:
                            self._marks.append(
                                (now, self._replies, self._probe())
                            )
                    self._replies += 1
                    matches = (
                        response.ok
                        and response.key == request.key
                        and response.seq == request.seq
                        and self._conn_of[index] == conn
                    )
                    self._finish(index, "ok" if matches else "mismatch")
                    if self._refill:
                        self._loop.call_later(
                            (now - self.sent[index]) * self._think(1.0),
                            self._user_send, conn,
                        )
                elif kind in _FAILURE_KINDS:
                    if payload:
                        self._finish(
                            decode_u64(payload) - 1, _FAILURE_KINDS[kind]
                        )
                    else:
                        # The server's final drain broadcast: no request.
                        self._fail_connection(conn, "shutting_down")
                        return
                else:
                    # ERROR (or anything unexpected) is fatal for the
                    # connection: everything in flight on it has failed.
                    self._fail_connection(conn, "error")
                    return
        except ReproError:
            # TransportError, WireError, IntegrityError, ReplayError.
            self._fail_connection(conn, "error")

    def _fail_connection(self, conn: int, outcome: str) -> None:
        for index in range(self._cursor):
            if self.outcome[index] is None and self._conn_of[index] == conn:
                self._finish(index, outcome)

    async def _drain(self) -> None:
        """Wait for every outstanding reply, up to the request deadline."""
        for transport in self._transports:
            await transport.drain()
        if self._outstanding:
            self._idle.clear()
            try:
                await asyncio.wait_for(
                    self._idle.wait(), config.REQUEST_DEADLINE_S
                )
            except asyncio.TimeoutError:
                for index in range(self._cursor):
                    if self.outcome[index] is None:
                        self._finish(index, "timeout")

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    async def closed_phase(
        self, seconds: float, warmup: float, probe=None
    ) -> PhaseResult:
        """``2 * workload.window`` users per connection, ``warmup`` discarded.

        A user sends one request, waits for its reply, pauses for an
        exponentially distributed time whose mean is the latency it just
        saw, and sends the next.  On average half the users are waiting
        for a reply, so ``window`` requests per connection are in flight
        at any server speed, as with a plain full window — but a plain
        window refills in one burst per epoch, the clock splits and
        merges those bursts at random, and the split decides the batch
        sizes (hence the throughput) of the whole run.  The pauses spread
        each burst over the following epochs.

        Replies still arrive in one burst per epoch, several hundred at a
        time, so a rate counted between fixed instants is off by up to a
        burst at either end.  Each window therefore runs from the first
        reply of the first epoch at or after its nominal start to the
        first reply of the first epoch at or after its nominal end, and
        ``probe()`` (the caller's server-CPU reading) is sampled at those
        same instants.
        """
        width = seconds / config.WINDOWS
        self._marks = []
        self._probe = probe if probe is not None else (lambda: None)
        stagger = random.Random(self.seed ^ 0x57A6)
        self._refill = True
        for conn in range(len(self._transports)):
            for _ in range(2 * self.workload.window):
                # Users join over most of the warm-up: all at once would
                # queue one oversized first epoch, and that epoch would
                # set the server's peak memory.
                self._loop.call_later(
                    stagger.random() * warmup * 0.75,
                    self._user_send, conn,
                )
        start = time.perf_counter() + warmup
        await asyncio.sleep(warmup + seconds)
        self._refill = False
        await self._drain()
        self._probe = None
        result = PhaseResult()
        marks = self._marks
        edges = []
        for boundary in range(config.WINDOWS + 1):
            nominal = start + boundary * width
            edges.append(next(
                (mark for mark in marks if mark[0] >= nominal),
                marks[-1] if marks else None,
            ))
        for begin, end in zip(edges, edges[1:]):
            if begin is None or end[0] <= begin[0]:
                result.windows.append({"replies": 0, "rps": None})
                continue
            result.windows.append({
                "begin": begin[0],
                "end": end[0],
                "replies": end[1] - begin[1],
                "rps": (end[1] - begin[1]) / (end[0] - begin[0]),
                "probe": (begin[2], end[2]),
            })
        return result

    async def open_phase(
        self, seconds: float, arrivals: List[float]
    ) -> PhaseResult:
        """Send request ``i`` at ``start + arrivals[i]``, come what may."""
        first = self._cursor
        self.ensure_requests(first + len(arrivals))
        connections = len(self._transports)
        perf_counter = time.perf_counter
        start = perf_counter() + 0.01
        result = PhaseResult()
        for offset, arrival in enumerate(arrivals):
            due = start + arrival
            delay = due - perf_counter()
            if delay > 0.0005:
                await asyncio.sleep(delay)
            elif offset % 16 == 0:
                await asyncio.sleep(0)   # let the readers run
            index = self._send(offset % connections)
            self.due[index] = due
            result.late_ms.append((self.sent[index] - due) * 1e3)
        result.backlog_end = self._outstanding
        await asyncio.sleep(max(0.0, start + seconds - perf_counter()))
        await self._drain()
        width = seconds / config.WINDOWS
        samples: List[List[float]] = [[] for _ in range(config.WINDOWS)]
        for index in range(first, self._cursor):
            if self.outcome[index] == "ok":
                slot = min(
                    config.WINDOWS - 1, int((self.due[index] - start) / width)
                )
                samples[slot].append(
                    (self.done[index] - self.due[index]) * 1e3
                )
        for slot, window in enumerate(samples):
            window.sort()
            result.windows.append({
                "begin": start + slot * width,
                "end": start + (slot + 1) * width,
                "samples": len(window),
                "p50_ms": statistics.median(window) if window else None,
                "p99_ms": (
                    nearest_rank_percentile(window, 99) if window else None
                ),
            })
        return result

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def failures(self) -> Dict[str, int]:
        """Typed failure counts over every request sent."""
        counts: Dict[str, int] = {}
        for outcome in self.outcome[:self._cursor]:
            if outcome != "ok":
                kind = outcome or "timeout"
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    @property
    def attempted(self) -> int:
        """Requests sent so far."""
        return self._cursor
