"""Out-of-process subORAM workers and their balancer-side proxies.

The paper's deployment runs each subORAM on its own machine; this module
reproduces that boundary with real OS processes and TCP sockets while
keeping the epoch driver unchanged: a :class:`RemoteSubOram` is a
duck-typed subORAM (``initialize`` / ``run_epoch`` / ``num_objects``)
whose method calls are framed round trips to a :func:`worker_main`
process owning the real :class:`~repro.suboram.suboram.SubOram`.  An
epoch is one round trip per worker: one EPOCH frame carrying the
subORAM's L batches, served by one ``SubOram.run_epoch`` call.

**Attested channels.**  Every balancer↔worker connection runs the
quote exchange of :mod:`repro.serve.secure` under the cluster's
:class:`~repro.serve.secure.ServeTrust` — the worker proves it runs the
expected subORAM program measurement, the balancer proves it is the
balancer — and all frames ride a sealed, replay-protected channel.
There is no plaintext link: a peer whose hello lacks the attested flag
is refused before any frame is served.  The sealed envelope adds a
constant to every record, so record sizes are the inner frame sizes
shifted by that constant — functions of public shape only.

**Atomic epochs across the process boundary.**  The epoch driver's
atomicity seam is ``copy.deepcopy`` of the subORAM list before each
attempt; :class:`RemoteSubOram` turns that deepcopy into a versioned
transaction: ``__deepcopy__`` allocates a fresh version id and sends
``TXN_BEGIN(parent, new)`` — the worker clones its ``parent`` state as
``new``, *commits* ``parent`` (seals it to disk, drops superseded
versions), and the returned proxy addresses ``new``.  A failed attempt
simply abandons its version: the retry deep-copies the pristine proxies
again, beginning a fresh clone of the same committed parent.

**Crash recovery — local and remote.**  The worker seals its live
version table (pickle + atomic rename) at initialization, at every
transaction boundary, and once per epoch, after serving its EPOCH frame
and before replying (the store itself is opened and resealed once per
epoch, inside ``SubOram.run_epoch``), so a worker killed at *any* point
is respawned by :class:`WorkerCluster` with every version id the
balancer might still reference.  Two recovery modes:

- ``remote_snapshots=False`` (default): the respawned worker reloads
  its seal from its own disk — the original shared-fate model.
- ``remote_snapshots=True``: the cluster mirrors each worker's sealed
  blob over the wire (chunked SNAP_FETCH after every state mutation)
  and, when a respawned worker comes back *empty* (its disk is gone
  too — ``kill_worker(..., lose_disk=True)``), restores it with a
  chunked, offset-resumable SNAP_PUSH before use.  No shared
  filesystem is ever assumed: workers may live on other machines.

**Health supervision.**  :meth:`WorkerCluster.check_health` probes a
worker with a deadline-bounded PING and distinguishes *slow* (the
process is alive but missed the deadline — the socket is dropped and
redialed later, no respawn, no state loss) from *dead* (the process is
gone — respawn-and-restore).  A dead worker is respawned on its next
use.

Mid-flight socket failures surface as
:class:`~repro.errors.TransportError`, the retryable fault class, so
the existing :class:`~repro.core.resilience.EpochRetryController` and
:class:`~repro.core.pipeline.EpochPipeline` machinery recovers (or, with
retries disabled, rolls the epoch back and requeues its requests)
without any serve-specific code.

Remote proxies hold live sockets; the deployment's execution backend
(``serial`` or ``thread``) drives them from the server process, the
thread pool fanning out the round trips to distinct workers.

**What crosses this wire.**  INIT carries one
:class:`~repro.oblivious.soa.Batch` (``Batch.to_bytes``: ``8 + n * (44 +
value_size)`` bytes whatever the rows hold); EPOCH carries the 8-byte
version id and the epoch's L batches in balancer order, concatenated —
``8 + Σℓ (8 + Bℓ·(44 + value_size))`` bytes — and EPOCH_REPLY the L
replies, each as long as its batch.  Message sizes depend only on
partition/batch sizes and the value size — public quantities — not on
how many rows are writes, dummies or hits.  Version
ids, commit points, and snapshot byte counts are epoch-schedule facts,
also public (snapshot size is a function of partition size and value
size, not of contents — the seal is itself sized by public geometry).
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import shutil
import socket
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.core.wire import (
    FrameKind,
    Role,
    WireError,
    decode_snap_fetch,
    decode_snap_push,
    decode_txn,
    decode_u32,
    decode_u64,
    decode_versions,
    encode_snap_data,
    encode_snap_fetch,
    encode_snap_push,
    encode_txn,
    encode_u32,
    encode_u64,
    encode_versions,
    decode_snap_data,
)
from repro.errors import ConfigurationError, TransportError
from repro.oblivious.kernels import resolve_kernel
from repro.oblivious.soa import Batch
from repro.serve.secure import (
    FrameTransport,
    ServeTrust,
    connect_transport,
    secure_handshake,
)
from repro.suboram.store import resolve_crypto
from repro.telemetry import NULL_TELEMETRY, resolve_telemetry
from repro.types import OpType, Request

#: Default chunk size for snapshot transfers (64 KiB keeps each frame
#: well under the wire cap while amortizing round trips).
SNAP_CHUNK = 64 * 1024


def _seal(snapshot_path: str, versions: Dict[int, object]) -> bytes:
    """Persist the live version table: pickle then atomic rename.

    Sealing the *whole* table (committed parent and working clone) after
    every mutation means any version id the balancer can still reference
    — the pre-epoch parent during a retried attempt, or a freshly
    installed version the next epoch has not yet committed — survives a
    crash.  Sealing only commit points would lose an installed version
    that crashes before its commit-by-next-transaction.

    Returns the sealed blob so the worker can serve SNAP_FETCH without
    re-reading its own disk.
    """
    blob = pickle.dumps(versions, protocol=5)
    tmp_path = snapshot_path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(blob)
    os.replace(tmp_path, snapshot_path)
    return blob


def _load_seal(snapshot_path: str):
    """Load the sealed version table; returns ``(versions, blob)``."""
    if not os.path.exists(snapshot_path):
        return {}, b""
    with open(snapshot_path, "rb") as handle:
        blob = handle.read()
    return pickle.loads(blob), blob


def worker_main(
    worker_id: int,
    value_size: int,
    security_parameter: int,
    kernel: Optional[str],
    port_pipe,
    snapshot_path: str,
    crash_after: Optional[int],
    crypto: Optional[str],
    trust_secret: bytes,
) -> None:
    """One subORAM worker process: accept, handshake, serve frames.

    Single-threaded by design — a subORAM's batches execute in fixed
    balancer order anyway, so one connection at a time is the natural
    concurrency.  When the balancer's connection drops the worker loops
    back to ``accept`` and waits for a reconnect; its versioned state
    survives in memory (and the committed version on disk).

    The worker presents an attested quote for the subORAM program
    measurement under ``trust_secret``'s
    :class:`~repro.serve.secure.ServeTrust` and serves only sealed
    frames; a balancer whose hello lacks the attested flag is refused
    at the handshake, before any frame is read.

    ``crash_after`` is the deterministic chaos seam: after serving that
    many EPOCH frames the process exits *after applying and sealing*
    the epoch but *before replying* — the worst-case crash point, where
    the balancer cannot know whether the epoch landed and must retry
    it on a fresh clone of the committed parent.
    """
    from repro.suboram.suboram import SubOram

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port_pipe.send(listener.getsockname()[1])
    port_pipe.close()

    trust = ServeTrust(trust_secret)
    enclave = trust.enclave(Role.WORKER, instance=worker_id)
    link_name = f"worker-{worker_id}"

    versions, sealed_blob = _load_seal(snapshot_path)
    epochs_served = 0
    push_buf = b""

    while True:
        conn, _ = listener.accept()
        transport: Optional[FrameTransport] = None
        try:
            _version, _role, pair = secure_handshake(
                conn, Role.WORKER,
                trust=trust, enclave=enclave,
                expected_roles=(Role.BALANCER,),
                link_name=link_name,
            )
            transport = FrameTransport(conn, pair)
            while True:
                kind, payload = transport.recv()
                if kind == FrameKind.INIT:
                    suboram = SubOram(
                        worker_id,
                        value_size,
                        security_parameter=security_parameter,
                        kernel=kernel,
                        crypto=crypto,
                    )
                    objects = Batch.from_buffer(payload, value_size)
                    suboram.initialize(dict(zip(
                        objects.key.tolist(),
                        map(bytes, objects.value),
                    )))
                    versions = {0: suboram}
                    sealed_blob = _seal(snapshot_path, versions)
                    transport.send(
                        FrameKind.INIT_ACK,
                        encode_u32(suboram.num_objects),
                    )
                elif kind == FrameKind.EPOCH:
                    version = decode_u64(payload[:8])
                    if version not in versions:
                        raise WireError(
                            f"worker {worker_id} has no state "
                            f"version {version}"
                        )
                    replies = versions[version].run_epoch(Batch.split_buffer(
                        memoryview(payload)[8:], value_size
                    ))
                    sealed_blob = _seal(snapshot_path, versions)
                    epochs_served += 1
                    if crash_after is not None and epochs_served >= crash_after:
                        os._exit(1)  # chaos: die with the reply unsent
                    transport.send(
                        FrameKind.EPOCH_REPLY,
                        b"".join(reply.to_bytes() for reply in replies),
                    )
                elif kind == FrameKind.TXN_BEGIN:
                    parent, new = decode_txn(payload)
                    if parent not in versions:
                        raise WireError(
                            f"worker {worker_id} has no state "
                            f"version {parent} to clone"
                        )
                    committed_suboram = versions[parent]
                    # parent is now the committed state; superseded
                    # versions are dropped.
                    versions = {
                        parent: committed_suboram,
                        new: copy.deepcopy(committed_suboram),
                    }
                    sealed_blob = _seal(snapshot_path, versions)
                    transport.send(FrameKind.TXN_ACK)
                elif kind == FrameKind.PING:
                    # Optional u32 payload: echo delay in ms — the
                    # "slow worker" test seam of check_health.
                    if payload:
                        time.sleep(decode_u32(payload) / 1000.0)
                    transport.send(FrameKind.PONG)
                elif kind == FrameKind.SNAP_FETCH:
                    offset, max_chunk = decode_snap_fetch(payload)
                    transport.send(
                        FrameKind.SNAP_DATA,
                        encode_snap_data(
                            len(sealed_blob),
                            sealed_blob[offset:offset + max_chunk],
                        ),
                    )
                elif kind == FrameKind.SNAP_PUSH:
                    offset, last, chunk = decode_snap_push(payload)
                    if offset == len(push_buf):
                        push_buf += chunk
                        if last:
                            versions = pickle.loads(push_buf)
                            sealed_blob = _seal(snapshot_path, versions)
                            push_buf = b""
                            transport.send(
                                FrameKind.SNAP_ACK,
                                encode_u64(len(sealed_blob)),
                            )
                            continue
                    # Out-of-order offsets (a resumed push after a
                    # drop) are not applied; the ack tells the pusher
                    # where to resume from.
                    transport.send(
                        FrameKind.SNAP_ACK, encode_u64(len(push_buf))
                    )
                elif kind == FrameKind.VERSIONS_QUERY:
                    transport.send(
                        FrameKind.VERSIONS_REPLY,
                        encode_versions(sorted(versions)),
                    )
                else:
                    raise WireError(f"unexpected worker frame kind {kind}")
        except TransportError:
            pass  # balancer went away; await a reconnect
        except Exception as exc:
            # Protocol or application bug (bad frame, capacity abort,
            # failed attestation): report it — non-retryable on the
            # balancer side — and drop the connection, but keep the
            # worker and its state alive.
            try:
                if transport is not None:
                    transport.send(
                        FrameKind.ERROR,
                        f"{type(exc).__name__}: {exc}".encode("utf-8"),
                    )
            except TransportError:
                pass
        finally:
            if transport is not None:
                transport.close()
            else:
                conn.close()


class RemoteSubOram:
    """Balancer-side proxy for one worker's subORAM (duck-typed).

    The epoch driver cannot tell this apart from an in-process
    :class:`~repro.suboram.suboram.SubOram`: ``initialize``,
    ``run_epoch`` and ``num_objects`` have identical contracts, and
    ``copy.deepcopy`` (the driver's atomicity seam) becomes the
    ``TXN_BEGIN`` transaction described in the module docstring.
    """

    def __init__(self, cluster: "WorkerCluster", index: int, version: int = 0,
                 num_objects: int = 0):
        self._cluster = cluster
        self._index = index
        self._version = version
        self._num_objects = num_objects
        #: Telemetry seam (attach_telemetry_to_suborams attaches here).
        self.telemetry = NULL_TELEMETRY

    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Ship this partition to the worker and load it there."""
        partition = Batch.from_requests(
            [
                Request(OpType.WRITE, key, value)
                for key, value in sorted(objects.items())
            ],
            self._cluster.value_size,
        )
        ack = self._cluster.request(
            self._index, FrameKind.INIT, partition.to_bytes(),
            FrameKind.INIT_ACK,
        )
        self._version = 0
        self._num_objects = decode_u32(ack)

    def run_epoch(self, batches: Sequence[Batch]) -> List[Batch]:
        """One EPOCH round trip against this proxy's version."""
        with self.telemetry.time(
            "serve_worker_epoch_seconds", unit=self._index
        ):
            reply = self._cluster.request(
                self._index,
                FrameKind.EPOCH,
                encode_u64(self._version)
                + b"".join(batch.to_bytes() for batch in batches),
                FrameKind.EPOCH_REPLY,
            )
        return Batch.split_buffer(reply, self._cluster.value_size)

    @property
    def num_objects(self) -> int:
        """Partition size reported by the worker at initialization."""
        return self._num_objects

    def __deepcopy__(self, memo) -> "RemoteSubOram":
        """The atomicity seam: begin a worker-side transaction.

        Called by the epoch driver before each atomic attempt.  The
        worker clones this proxy's version under a fresh id (committing
        the parent as a side effect); the clone proxy addresses the new
        version, so a failed attempt's mutations are confined to a
        version nobody references afterwards.
        """
        new_version = self._cluster.next_version()
        self._cluster.request(
            self._index,
            FrameKind.TXN_BEGIN,
            encode_txn(self._version, new_version),
            FrameKind.TXN_ACK,
        )
        clone = RemoteSubOram(
            self._cluster, self._index, new_version, self._num_objects
        )
        clone.telemetry = self.telemetry
        memo[id(self)] = clone
        return clone

    def __repr__(self) -> str:
        return (
            f"RemoteSubOram(index={self._index}, version={self._version}, "
            f"objects={self._num_objects})"
        )


class WorkerCluster:
    """Supervisor for S subORAM worker processes.

    Spawns the workers, owns one attested, sealed channel per worker,
    respawns crashed workers, restores lost state over the wire
    (``remote_snapshots``), and hands out :class:`RemoteSubOram` proxies
    through :meth:`factory` — a drop-in ``suboram_factory`` for
    :class:`~repro.core.snoopy.Snoopy`::

        cluster = WorkerCluster(
            num_workers=3, value_size=16, trust=trust
        ).start()
        store = Snoopy(config, suboram_factory=cluster.factory)

    Thread-safety: one lock per worker serializes that worker's framed
    round trips (the thread backend may drive distinct workers
    concurrently, which uses distinct sockets and locks).

    Args:
        trust: the deployment's :class:`~repro.serve.secure.ServeTrust`
            (or its raw secret ``bytes``), required: every worker link
            runs the attested handshake under it.
        remote_snapshots: mirror every worker's sealed state over the
            wire and restore an empty respawned worker from the mirror
            (the no-shared-filesystem deployment model).
        injector: a :class:`~repro.core.faults.FaultInjector` whose
            plan addresses links named ``worker-<i>``; every connect and
            send on the worker channels consults it.
        snap_chunk: snapshot transfer chunk size in bytes.
    """

    def __init__(
        self,
        num_workers: int,
        value_size: int,
        security_parameter: int = 128,
        kernel: Optional[str] = None,
        snapshot_dir: Optional[str] = None,
        telemetry=None,
        crash_plan: Optional[Dict[int, int]] = None,
        crypto: Optional[str] = None,
        *,
        trust,
        remote_snapshots: bool = False,
        injector=None,
        snap_chunk: int = SNAP_CHUNK,
    ):
        self.num_workers = num_workers
        self.value_size = value_size
        self.security_parameter = security_parameter
        # Resolved here, not worker-side, so an omitted selector names
        # the same path the front end's ``SnoopyConfig()`` would.
        self.kernel = resolve_kernel(kernel).name
        self.crypto = resolve_crypto(crypto)
        self.telemetry = resolve_telemetry(telemetry)
        if isinstance(trust, (bytes, bytearray)):
            trust = ServeTrust(bytes(trust))
        self.trust: ServeTrust = trust
        self._balancer_enclave = trust.enclave(Role.BALANCER)
        self.remote_snapshots = remote_snapshots
        self.snap_chunk = snap_chunk
        self._injector = injector
        self._owns_snapshot_dir = snapshot_dir is None
        self._snapshot_dir = (
            snapshot_dir
            if snapshot_dir is not None
            else tempfile.mkdtemp(prefix="snoopy-workers-")
        )
        self._context = multiprocessing.get_context()
        self._procs: List[Optional[multiprocessing.Process]] = (
            [None] * num_workers
        )
        self._ports: List[Optional[int]] = [None] * num_workers
        self._transports: List[Optional[FrameTransport]] = (
            [None] * num_workers
        )
        self._locks = [threading.Lock() for _ in range(num_workers)]
        self._version_lock = threading.Lock()
        self._next_version = 1
        self._started = False
        #: Wire-mirrored sealed blobs (remote_snapshots mode).
        self._snap_cache: List[bytes] = [b""] * num_workers
        #: Workers respawned since their last restore check.
        self._respawned: List[bool] = [False] * num_workers
        # Deterministic chaos: worker index -> crash after N epoch frames.
        # Consumed at first spawn only, so the respawned worker is sane.
        self._crash_plan = dict(crash_plan or {})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerCluster":
        """Spawn every worker process and connect to it."""
        if self._started:
            raise ConfigurationError("worker cluster already started")
        self._started = True
        for index in range(self.num_workers):
            self._spawn(index)
            self._connect(index)
            self._respawned[index] = False
        return self

    def stop(self) -> None:
        """Terminate the workers and remove owned snapshots; idempotent."""
        for index in range(self.num_workers):
            self._close_channel(index)
            proc = self._procs[index]
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            self._procs[index] = None
        if self._owns_snapshot_dir:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
        self._started = False

    def __enter__(self) -> "WorkerCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Proxies
    # ------------------------------------------------------------------
    def factory(self, suboram_id: int, config=None, keychain=None):
        """``suboram_factory`` seam: a proxy for worker ``suboram_id``.

        The ``config``/``keychain`` arguments exist to match the factory
        signature; partition keys never leave the balancer side, and the
        worker encrypts its store under its own process-local keys.
        """
        if not 0 <= suboram_id < self.num_workers:
            raise ConfigurationError(
                f"subORAM index {suboram_id} outside this cluster's "
                f"{self.num_workers} workers"
            )
        if config is not None and config.value_size != self.value_size:
            raise ConfigurationError(
                f"deployment value_size {config.value_size} != cluster "
                f"value_size {self.value_size}"
            )
        return RemoteSubOram(self, suboram_id)

    def next_version(self) -> int:
        """Allocate a cluster-unique state-version id."""
        with self._version_lock:
            version = self._next_version
            self._next_version += 1
            return version

    # ------------------------------------------------------------------
    # Worker channel
    # ------------------------------------------------------------------
    def request(
        self, index: int, kind: int, payload: bytes, expect_kind: int
    ) -> bytes:
        """One framed round trip to worker ``index``; returns the reply payload.

        Respawns a dead worker (and, in ``remote_snapshots`` mode,
        restores a state-less one over the wire) and reconnects a
        dropped channel *before* sending, so recovery is transparent; a
        failure *during* the round trip — the crash-mid-epoch case —
        closes the channel and raises :class:`TransportError`, leaving
        recovery to the caller's retry (which lands back here).
        """
        state_mutating = kind in (
            FrameKind.INIT, FrameKind.EPOCH, FrameKind.TXN_BEGIN
        )
        with self._locks[index]:
            self._ensure(index)
            reply = self._round_trip(index, kind, payload, expect_kind)
            if self.remote_snapshots and state_mutating:
                self._refresh_snapshot(index)
            return reply

    def _round_trip(
        self, index: int, kind: int, payload: bytes, expect_kind: int
    ) -> bytes:
        """One send/recv on an already-ensured channel (lock held)."""
        transport = self._transports[index]
        try:
            transport.send(kind, payload)
            reply_kind, reply = transport.recv()
        except TransportError as exc:
            self._close_channel(index)
            exc.unit = index
            raise
        if reply_kind == FrameKind.ERROR:
            self._close_channel(index)
            raise WireError(
                f"worker {index}: " + reply.decode("utf-8", "replace")
            )
        if reply_kind != expect_kind:
            raise WireError(
                f"worker {index} replied frame kind {reply_kind}, "
                f"expected {expect_kind}"
            )
        return reply

    def ping(self, index: int) -> bool:
        """Liveness probe; returns False instead of raising on a dead worker."""
        try:
            self.request(index, FrameKind.PING, b"", FrameKind.PONG)
            return True
        except TransportError:
            return False

    def timed_ping(
        self,
        index: int,
        timeout: Optional[float] = None,
        echo_delay_ms: int = 0,
    ) -> float:
        """Deadline-bounded PING; returns the round-trip time in seconds.

        ``echo_delay_ms`` asks the worker to stall before answering —
        the test seam for exercising the slow-worker path.  A missed
        deadline raises :class:`TransportError` whose ``__cause__`` is a
        timeout, which :meth:`check_health` uses to classify *slow*
        (alive, channel dropped, no respawn) versus *dead*.
        """
        payload = encode_u32(echo_delay_ms) if echo_delay_ms else b""
        with self._locks[index]:
            self._ensure(index)
            transport = self._transports[index]
            started = time.monotonic()
            try:
                transport.settimeout(timeout)
                self._round_trip(
                    index, FrameKind.PING, payload, FrameKind.PONG
                )
            finally:
                live = self._transports[index]
                if live is not None:
                    live.settimeout(None)
            return time.monotonic() - started

    def check_health(self, index: int, timeout: float = 1.0) -> str:
        """Classify worker ``index``: ``"ok"``, ``"slow"``, or ``"dead"``.

        *Slow* means the process is alive but missed the PING deadline:
        the channel is dropped (a fresh one is dialed on next use) but
        the process — and its in-memory state — is left alone.  *Dead*
        means the process is gone; the next use respawns it.
        """
        self.telemetry.counter("serve_worker_health_checks_total").inc()
        proc = self._procs[index]
        if proc is None or not proc.is_alive():
            self.telemetry.counter("serve_worker_dead_total").inc()
            return "dead"
        try:
            self.timed_ping(index, timeout=timeout)
            return "ok"
        except TransportError as exc:
            proc = self._procs[index]
            if proc is not None and proc.is_alive():
                slow = isinstance(
                    exc.__cause__, (socket.timeout, TimeoutError)
                )
                if slow:
                    self.telemetry.counter(
                        "serve_worker_slow_total"
                    ).inc()
                    return "slow"
            self.telemetry.counter("serve_worker_dead_total").inc()
            return "dead"

    def kill_worker(self, index: int, lose_disk: bool = False) -> None:
        """Hard-kill one worker process (chaos testing).

        With ``lose_disk`` the worker's sealed snapshot is deleted too —
        the machine-is-gone scenario only ``remote_snapshots`` recovery
        survives.
        """
        proc = self._procs[index]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5)
        self._close_channel(index)
        if lose_disk:
            for path in (
                self._snapshot_path(index),
                self._snapshot_path(index) + ".tmp",
            ):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------------
    # Snapshot mirroring (remote_snapshots mode)
    # ------------------------------------------------------------------
    def _refresh_snapshot(self, index: int) -> None:
        """Mirror worker ``index``'s sealed blob (lock held).

        Chunked and offset-resumable: a connection drop mid-fetch
        re-ensures the channel and continues from the bytes already
        received (the worker's blob is stable between mutations, so the
        offsets stay valid across its respawn-from-disk).
        """
        buf = b""
        failures = 0
        while True:
            try:
                reply = self._round_trip(
                    index,
                    FrameKind.SNAP_FETCH,
                    encode_snap_fetch(len(buf), self.snap_chunk),
                    FrameKind.SNAP_DATA,
                )
            except TransportError:
                failures += 1
                if failures >= 3:
                    raise
                self._ensure(index)
                continue
            total, chunk = decode_snap_data(reply)
            buf += chunk
            if len(buf) >= total:
                break
        self._snap_cache[index] = buf
        self.telemetry.counter("serve_snapshot_fetches_total").inc()
        self.telemetry.gauge("serve_snapshot_bytes").set(len(buf))

    def _push_snapshot(self, index: int, blob: bytes) -> None:
        """Restore worker ``index`` from the mirror (lock held).

        Offset-resumable: every chunk is acknowledged with the worker's
        buffered length, so after a drop the push resumes exactly where
        the worker left off (including restarting from zero if the
        worker respawned and lost its partial buffer).
        """
        offset = 0
        while True:
            chunk = blob[offset:offset + self.snap_chunk]
            last = offset + len(chunk) >= len(blob)
            ack = self._round_trip(
                index,
                FrameKind.SNAP_PUSH,
                encode_snap_push(offset, last, chunk),
                FrameKind.SNAP_ACK,
            )
            acked = decode_u64(ack)
            if last and acked >= len(blob):
                break
            offset = acked
        self.telemetry.counter("serve_snapshot_restores_total").inc()

    def _restore_if_empty(self, index: int) -> None:
        """After a respawn: push the mirror if the worker came back bare."""
        if not self.remote_snapshots or not self._snap_cache[index]:
            self._respawned[index] = False
            return
        reply = self._round_trip(
            index, FrameKind.VERSIONS_QUERY, b"", FrameKind.VERSIONS_REPLY
        )
        if not decode_versions(reply):
            self._push_snapshot(index, self._snap_cache[index])
        self._respawned[index] = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _snapshot_path(self, index: int) -> str:
        return os.path.join(self._snapshot_dir, f"worker-{index}.seal")

    def _spawn(self, index: int) -> None:
        parent_pipe, child_pipe = self._context.Pipe(duplex=False)
        proc = self._context.Process(
            target=worker_main,
            args=(
                index,
                self.value_size,
                self.security_parameter,
                self.kernel,
                child_pipe,
                self._snapshot_path(index),
                self._crash_plan.pop(index, None),
                self.crypto,
                self.trust.secret,
            ),
            daemon=True,
            name=f"snoopy-worker-{index}",
        )
        proc.start()
        child_pipe.close()
        try:
            self._ports[index] = parent_pipe.recv()
        except EOFError as exc:
            raise TransportError(
                f"worker {index} died before binding its port"
            ) from exc
        finally:
            parent_pipe.close()
        self._procs[index] = proc
        self._respawned[index] = True

    def _connect(self, index: int) -> None:
        link = f"worker-{index}"
        transport, _version, _role = connect_transport(
            "127.0.0.1", self._ports[index],
            role=Role.BALANCER,
            trust=self.trust,
            enclave=self._balancer_enclave,
            expected_roles=(Role.WORKER,),
            link_name=link,
            timeout=30,
            injector=self._injector,
            link=link,
        )
        transport.settimeout(None)
        self._transports[index] = transport

    def _close_channel(self, index: int) -> None:
        transport = self._transports[index]
        if transport is not None:
            transport.close()
        self._transports[index] = None

    def _ensure(self, index: int) -> None:
        """Respawn/reconnect worker ``index`` if its channel is down.

        Tries hard to succeed transparently whenever recovery is
        possible at all, so callers rarely see recovery latency as a
        failed epoch attempt.  The loop absorbs the race where a worker
        that just died still reports ``is_alive()`` (connect is refused,
        the join lets it be reaped, the next pass respawns it) and
        injected partitions spanning a few connect attempts.
        """
        failure: Optional[TransportError] = None
        for _ in range(5):
            proc = self._procs[index]
            if proc is None or not proc.is_alive():
                self._close_channel(index)
                self._spawn(index)
                self.telemetry.counter("serve_worker_respawns_total").inc()
            if self._transports[index] is None:
                try:
                    self._connect(index)
                except TransportError as exc:
                    failure = exc
                    proc = self._procs[index]
                    if proc is not None:
                        proc.join(timeout=0.2)
                    continue
            if self._respawned[index]:
                try:
                    self._restore_if_empty(index)
                except TransportError as exc:
                    failure = exc
                    continue
            return
        failure.unit = index
        raise failure
