"""Tests for the TCP front door: server, network client, workers, faults.

The acceptance bar for the service layer is *transport transparency*:
serving the deployment over real sockets must change nothing the client
can observe — responses are byte-identical to an in-process run of the
same workload (both kernels, pipelined and sequential), and the fault
machinery composes: dropped connections and crashed worker processes
leave tickets pending/requeued and the store identical to a fault-free
run.
"""

import asyncio
import inspect
import socket
import struct
import threading

import pytest

from tests.harness import (
    TEST_TRUST,
    assert_equivalent,
    attested_cluster,
    build_store,
    seeded_workload,
)
from repro.core.client import SnoopyClient
from repro.core.config import SnoopyConfig
from repro.core.pipeline import EpochPipeline
from repro.core.snoopy import Snoopy
from repro.core.tickets import Ticket
from repro.core.wire import (
    HELLO_SIZE,
    SUPPORTED_WIRE_VERSIONS,
    WIRE_MAGIC,
    FrameKind,
    Role,
    decode_response,
    decode_version_reject,
    encode_hello,
    encode_request,
)
from repro.errors import (
    ConfigurationError,
    ReproError,
    TaskTimeoutError,
    TransportError,
)
from repro.serve import NetworkSnoopyClient, ServerThread, SnoopyServer
from repro.serve import server as server_module
from repro.serve.protocol import recv_frame, send_all
from repro.serve.secure import AsyncFrameTransport, secure_handshake_async
from repro.serve.server import intake_masks
from repro.types import OpType, Request

MASTER = b"serve-differential-master-key"
VALUE = 8


def small_objects(n=36, value_size=VALUE):
    return {k: bytes([k % 256]) * value_size for k in range(n)}


def make_store(**overrides):
    kwargs = dict(
        master=MASTER,
        objects=small_objects(),
        value_size=VALUE,
        num_suborams=2,
        security_parameter=16,
    )
    kwargs.update(overrides)
    backend = kwargs.pop("backend", "serial")
    return build_store(backend, **kwargs)


def connect(handle, **kwargs):
    """A client for ``handle``'s server, sharing its attested trust."""
    kwargs.setdefault("trust", handle.trust)
    return NetworkSnoopyClient("127.0.0.1", handle.port, **kwargs)


@pytest.fixture
def service():
    """A served deployment in deterministic (manual-epoch) mode."""
    store = make_store()
    with store, ServerThread(store, clock=False) as handle:
        handle.start()
        yield store, handle


class TestServiceBasics:
    def test_init_frame_reports_geometry(self, service):
        _store, handle = service
        with connect(handle,
                                 manual_epochs=True) as client:
            assert client.value_size == VALUE
            assert client.num_load_balancers == 2

    def test_read_write_round_trip(self, service):
        _store, handle = service
        with connect(handle,
                                 manual_epochs=True) as client:
            assert client.read(3) == bytes([3]) * VALUE
            assert client.write(3, b"ABCDEFGH") == bytes([3]) * VALUE
            assert client.read(3) == b"ABCDEFGH"

    def test_batch(self, service):
        _store, handle = service
        with connect(handle,
                                 manual_epochs=True) as client:
            responses = client.batch([
                Request(OpType.READ, k, client_id=9, seq=i)
                for i, k in enumerate((1, 2, 4))
            ])
            assert [r.value for r in responses] == [
                bytes([1]) * VALUE, bytes([2]) * VALUE, bytes([4]) * VALUE,
            ]

    def test_ping(self, service):
        _store, handle = service
        with connect(handle) as client:
            client.ping()

    def test_conforms_to_snoopy_client_protocol(self, service):
        _store, handle = service
        with connect(handle,
                                 manual_epochs=True) as client:
            assert isinstance(client, SnoopyClient)

    def test_two_clients_share_epochs(self, service):
        _store, handle = service
        with connect(handle) as alice, \
                connect(handle) as bob:
            ta = alice.submit(Request(OpType.READ, 5, client_id=1))
            tb = bob.submit(Request(OpType.READ, 6, client_id=2))
            alice.close_epoch()
            assert ta.result(10).value == bytes([5]) * VALUE
            assert tb.result(10).value == bytes([6]) * VALUE

    def test_ticket_coordinates_settle_with_response(self, service):
        _store, handle = service
        with connect(handle) as client:
            ticket = client.submit(Request(OpType.READ, 1), load_balancer=1)
            assert ticket.load_balancer is None  # unresolved: no coords yet
            client.close_epoch()
            ticket.result(10)
            assert ticket.load_balancer == 1
            assert ticket.arrival == 0
            assert ticket.epoch is not None

    def test_done_callback_fires(self, service):
        _store, handle = service
        fired = threading.Event()
        with connect(handle) as client:
            ticket = client.submit(Request(OpType.READ, 2))
            ticket.add_done_callback(lambda t: fired.set())
            client.close_epoch()
            assert fired.wait(10)

    def test_tiny_backpressure_window_still_serves(self):
        store = make_store()
        with store, ServerThread(store, clock=False,
                                 max_pending_per_connection=1) as handle:
            handle.start()
            with connect(handle,
                                     manual_epochs=True) as client:
                for key in (1, 2, 3):
                    assert client.read(key) == bytes([key]) * VALUE


class TestCoalescedSealing:
    """The async transport seals one record per flush, not per frame."""

    @staticmethod
    def _pairs():
        import os

        from repro.serve.secure import derive_channel_pair

        share_a, share_b = os.urandom(32), os.urandom(32)
        acceptor = derive_channel_pair(share_a, share_b, initiator=False)
        initiator = derive_channel_pair(share_b, share_a, initiator=True)
        return acceptor, initiator

    def test_async_sends_coalesce_and_blocking_recv_splits(self):
        import asyncio

        from repro.serve.secure import AsyncFrameTransport, FrameTransport

        acceptor, initiator = self._pairs()
        server_sock, client_sock = socket.socketpair()
        payloads = [bytes([i]) * (10 + i) for i in range(5)]

        async def serve_side():
            reader, writer = await asyncio.open_connection(sock=server_sock)
            tx = AsyncFrameTransport(reader, writer, acceptor)
            for payload in payloads:
                tx.send(FrameKind.RESPONSE, payload)
            # Nothing sealed yet: the flush is scheduled, not run.
            assert tx.sealed_flushes == 0
            await tx.drain()
            assert tx.sealed_flushes == 1
            assert tx.sealed_frames == len(payloads)
            tx.close()

        try:
            asyncio.run(serve_side())
            rx = FrameTransport(client_sock, initiator)
            for expected in payloads:
                kind, payload = rx.recv()
                assert kind == FrameKind.RESPONSE
                assert payload == expected
        finally:
            client_sock.close()

    def test_record_budget_splits_into_multiple_records(self, monkeypatch):
        import asyncio

        from repro.serve import secure

        acceptor, initiator = self._pairs()
        server_sock, client_sock = socket.socketpair()
        # Shrink the budget so three 40-byte frames need two records.
        monkeypatch.setattr(secure, "_RECORD_BUDGET", 100)
        payloads = [bytes([i]) * 40 for i in range(3)]

        async def serve_side():
            reader, writer = await asyncio.open_connection(sock=server_sock)
            tx = secure.AsyncFrameTransport(reader, writer, acceptor)
            for payload in payloads:
                tx.send(FrameKind.RESPONSE, payload)
            await tx.drain()
            assert tx.sealed_flushes == 2
            assert tx.sealed_frames == 3
            tx.close()

        try:
            asyncio.run(serve_side())
            rx = secure.FrameTransport(client_sock, initiator)
            received = [rx.recv()[1] for _ in payloads]
            assert received == payloads
        finally:
            client_sock.close()

    def test_async_recv_splits_coalesced_records(self):
        import asyncio

        from repro.core.wire import encode_frame
        from repro.serve.secure import _SEAL_LEN, AsyncFrameTransport

        acceptor, initiator = self._pairs()
        server_sock, client_sock = socket.socketpair()
        # Hand-seal one record carrying two inner frames, as the peer's
        # coalescing sender would.
        record = encode_frame(FrameKind.RESPONSE, b"first") + encode_frame(
            FrameKind.RESPONSE, b"second"
        )
        nonce, sealed = initiator.tx.send(record)
        client_sock.sendall(nonce + _SEAL_LEN.pack(len(sealed)) + sealed)

        async def serve_side():
            reader, writer = await asyncio.open_connection(sock=server_sock)
            rx = AsyncFrameTransport(reader, writer, acceptor)
            first = await rx.recv()
            second = await rx.recv()
            assert first == (FrameKind.RESPONSE, b"first")
            assert second == (FrameKind.RESPONSE, b"second")
            writer.close()

        try:
            asyncio.run(serve_side())
        finally:
            client_sock.close()

    def test_trailing_garbage_in_record_rejected(self):
        from repro.core.wire import WireError, encode_frame
        from repro.serve.secure import _SEAL_LEN, FrameTransport

        acceptor, initiator = self._pairs()
        server_sock, client_sock = socket.socketpair()
        try:
            record = encode_frame(FrameKind.RESPONSE, b"ok") + b"\x01\x02"
            nonce, sealed = initiator.tx.send(record)
            client_sock.sendall(nonce + _SEAL_LEN.pack(len(sealed)) + sealed)
            rx = FrameTransport(server_sock, acceptor)
            with pytest.raises(WireError):
                rx.recv()
        finally:
            client_sock.close()
            server_sock.close()


class TestOneWakeUpPerBurst:
    """An epoch's resolved tickets reach the event loop in one wake-up."""

    @pytest.mark.parametrize("resume", [False, True],
                             ids=["sessionless", "session"])
    def test_an_epoch_of_64_replies_wakes_the_loop_once(self, resume):
        store = make_store()
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            loop = handle.server._loop
            wake_ups = []
            inner = loop.call_soon_threadsafe

            def counting(callback, *args, **kwargs):
                # Tickets resolve on the pipeline's match thread.
                if threading.current_thread().name == "repro-pipeline-match":
                    wake_ups.append(callback)
                return inner(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting
            try:
                with connect(handle, resume=resume) as client:
                    keys = [k % 36 for k in range(64)]
                    tickets = [
                        client.submit(Request(OpType.READ, key, seq=i))
                        for i, key in enumerate(keys)
                    ]
                    client.close_epoch(flush=True)
                    values = [t.result(10).value for t in tickets]
                    assert client.stats["duplicate_responses"] == 0
            finally:
                del loop.call_soon_threadsafe
        assert values == [bytes([key]) * VALUE for key in keys]
        assert handle.server.stats["responses"] == 64
        # One epoch, one self-pipe write — not one per ticket.
        assert len(wake_ups) == 1, len(wake_ups)


class TestServerConfiguration:
    def test_process_backend_rejected(self):
        """Out-of-process subORAMs run behind WorkerCluster, not a backend."""
        with pytest.raises(ConfigurationError, match="'serial', 'thread'"):
            Snoopy(SnoopyConfig(execution_backend="process:2"))

    def test_nonpositive_window_rejected(self):
        store = make_store()
        with store:
            with pytest.raises(ConfigurationError):
                ServerThread(
                    store, clock=False, max_pending_per_connection=0
                ).start()

    @pytest.mark.parametrize("mode", [False, None, 0])
    def test_plaintext_mode_rejected(self, mode):
        """``attested`` survives on two signatures and takes only True."""
        store = make_store()
        with store:
            with pytest.raises(ConfigurationError, match="attested"):
                SnoopyServer(store, attested=mode)
        with pytest.raises(ConfigurationError, match="attested"):
            asyncio.run(secure_handshake_async(
                None, None, Role.CLIENT, trust=TEST_TRUST, attested=mode
            ))


class TestWireVersioning:
    """Integration side of the satellite: the handshake gates the service."""

    def _raw_hello(self, port, hello):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            server_hello = b""
            while len(server_hello) < HELLO_SIZE:
                chunk = sock.recv(HELLO_SIZE - len(server_hello))
                assert chunk, "server closed before sending its hello"
                server_hello += chunk
            send_all(sock, hello)
            return server_hello, recv_frame(sock)
        finally:
            sock.close()

    def test_server_hello_is_versioned_and_fixed_size(self, service):
        _store, handle = service
        server_hello, _ = self._raw_hello(
            handle.port, encode_hello(Role.CLIENT)
        )
        assert len(server_hello) == HELLO_SIZE
        assert server_hello.startswith(WIRE_MAGIC)

    def test_version_skew_answered_with_reject_frame(self, service):
        """The reject is structured: offered *and* supported versions."""
        store, handle = service
        bad = struct.pack(">4sBB10x", WIRE_MAGIC, 99, Role.CLIENT)
        _, (kind, payload) = self._raw_hello(handle.port, bad)
        assert kind == FrameKind.VERSION_REJECT
        offered, supported = decode_version_reject(payload)
        assert offered == 99
        assert supported == SUPPORTED_WIRE_VERSIONS
        assert handle.server.stats["version_mismatches"] == 1

    def test_wrong_role_rejected(self, service):
        _store, handle = service
        _, (kind, payload) = self._raw_hello(
            handle.port, encode_hello(Role.WORKER)
        )
        assert kind == FrameKind.ERROR
        assert b"role" in payload.lower()


class TestServiceDifferential:
    """Service-mode responses are byte-identical to in-process runs."""

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_service_matches_in_process(self, kernel):
        workload = seeded_workload(
            4, 9, seed=21, num_keys=36, value_size=VALUE
        )
        objects = small_objects()

        def in_process(pipelined):
            from tests.harness import run_workload

            store = make_store(kernel=kernel, objects=dict(objects))
            with store:
                responses, _ = run_workload(
                    store, workload, pipelined=pipelined
                )
            return responses

        sequential = in_process(pipelined=False)
        pipelined = in_process(pipelined=True)
        assert sequential == pipelined

        store = make_store(kernel=kernel, objects=dict(objects))
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            with connect(handle,
                                     timeout=30) as client:
                epoch_tickets = []
                for requests in workload:
                    epoch_tickets.append([
                        client.submit(request, load_balancer=balancer)
                        for request, balancer in requests
                    ])
                    client.close_epoch()
                served = []
                for batch in epoch_tickets:
                    for ticket in batch:  # settle: coords arrive with it
                        ticket.result(30)
                    served.append([
                        ticket._response
                        for ticket in sorted(
                            batch,
                            key=lambda t: (t.load_balancer, t.arrival),
                        )
                    ])
        assert served == sequential, (
            f"service-mode responses diverge from in-process ({kernel})"
        )


class TestConnectionDrop:
    def test_drop_mid_epoch_executes_accepted_requests(self):
        """A vanished client's accepted requests still run exactly once.

        The connection is public state; dropping it must not change what
        the epoch pipeline executes (dropping requests on disconnect
        would break the paper's no-drop guarantee and make epoch batch
        composition depend on connection lifetime).  The store must end
        byte-identical to a run where the same requests arrived over a
        connection that stayed up.
        """
        writes = [(5, b"AAAAAAAA"), (11, b"BBBBBBBB"), (23, b"CCCCCCCC")]

        # Reference: same requests, connection survives.
        reference = make_store()
        with reference:
            for i, (key, value) in enumerate(writes):
                reference.submit(
                    Request(OpType.WRITE, key, value, client_id=1, seq=i),
                    load_balancer=i % 2,
                )
            reference.run_epoch()
            expected = {
                k: reference.read(k) for k in small_objects()
            }

        store = make_store()
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            dropped = connect(handle)
            tickets = [
                dropped.submit(
                    Request(OpType.WRITE, key, value, client_id=1, seq=i),
                    load_balancer=i % 2,
                )
                for i, (key, value) in enumerate(writes)
            ]
            # Drop the connection mid-epoch: requests are queued in the
            # balancers, the epoch has not closed.
            dropped.close()
            for ticket in tickets:
                with pytest.raises(TransportError):
                    ticket.result(5)

            with connect(handle,
                                     manual_epochs=True) as client:
                client.close_epoch(flush=True)
                observed = {k: client.read(k) for k in small_objects()}
        assert observed == expected

    def test_server_survives_drop_and_keeps_serving(self, service):
        _store, handle = service
        victim = connect(handle, resume=False)
        victim.submit(Request(OpType.READ, 1))
        victim._transport.close()  # abrupt, no shutdown handshake
        with connect(handle,
                                 manual_epochs=True) as client:
            assert client.read(2) == bytes([2]) * VALUE


class TestMalformedRequest:
    def test_short_write_fails_only_its_own_connection(self, service):
        """A write that does not fill the value slot is refused by the
        frame decoder: the sender gets the ERROR reply, nothing reaches a
        balancer's queue, and the next epoch serves everyone else."""
        store, handle = service
        with connect(handle, resume=False) as mallory, \
                connect(handle) as alice:
            innocent = alice.submit(Request(OpType.READ, 5, client_id=1))
            poison = mallory.submit(Request(OpType.WRITE, 6, b"abc"))
            with pytest.raises(ReproError):
                poison.result(10)
            assert sum(b.pending for b in store.load_balancers) == 1
            alice.close_epoch()
            assert innocent.result(10).value == bytes([5]) * VALUE
            # ... and the epoch after that is clean too.
            later = alice.submit(Request(OpType.READ, 6, client_id=1))
            alice.close_epoch()
            assert later.result(10).value == bytes([6]) * VALUE


class TestClientTimeout:
    def test_timeout_leaves_ticket_pending_then_resolves(self, service):
        _store, handle = service
        with connect(handle) as client:
            ticket = client.submit(Request(OpType.READ, 7))
            with pytest.raises(TaskTimeoutError):
                ticket.result(timeout=0.2)  # no epoch closed yet
            assert not ticket.done()  # still pending, not dropped
            client.close_epoch()
            assert ticket.result(10).value == bytes([7]) * VALUE


class TestWorkerCluster:
    def test_factory_validates_index_and_value_size(self):
        with attested_cluster(2, value_size=VALUE) as cluster:
            with pytest.raises(ConfigurationError):
                cluster.factory(5)
            from repro.core.config import SnoopyConfig

            config = SnoopyConfig(
                num_load_balancers=2, num_suborams=2,
                value_size=VALUE, security_parameter=16,
            )
            cluster.factory(0, config)

            class Wrong:
                value_size = VALUE + 1

            with pytest.raises(ConfigurationError):
                cluster.factory(0, Wrong())

    def test_remote_suborams_serve_a_deployment(self):
        with attested_cluster(2, value_size=VALUE) as cluster:
            store = make_store(suboram_factory=cluster.factory)
            with store:
                assert store.num_objects == len(small_objects())
                assert store.read(4) == bytes([4]) * VALUE
                store.write(4, b"REWRITE!")

    def test_transparent_respawn_between_epochs(self):
        with attested_cluster(2, value_size=VALUE) as cluster:
            store = make_store(suboram_factory=cluster.factory)
            with store:
                assert store.write(3, b"VVVVVVVV") == bytes([3]) * VALUE
                cluster.kill_worker(0)
                cluster.kill_worker(1)
                # Next epoch respawns both workers from sealed state.
                assert store.read(3) == b"VVVVVVVV"

    def test_ping_reports_liveness(self):
        with attested_cluster(1, value_size=VALUE) as cluster:
            assert cluster.ping(0)


class TestWorkerCrashDifferential:
    """Crash-during-execute composes with atomic retry, byte-identically."""

    def run_workload_over_cluster(self, crash_plan, max_attempts):
        workload = seeded_workload(
            3, 8, seed=13, num_keys=36, value_size=VALUE
        )
        with attested_cluster(
            2, value_size=VALUE, crash_plan=crash_plan
        ) as cluster:
            store = make_store(
                suboram_factory=cluster.factory,
                max_attempts=max_attempts,
            )
            with store:
                responses = []
                for requests in workload:
                    for request, balancer in requests:
                        store.submit(request, load_balancer=balancer)
                    responses.append(store.run_epoch())
                final = {k: store.read(k) for k in small_objects()}
        return responses, final

    def test_mid_execute_crash_is_invisible_with_retry(self):
        baseline = self.run_workload_over_cluster(None, max_attempts=1)
        # Worker 0 dies after applying its second epoch frame, *before*
        # replying — the balancer cannot tell whether it landed and must
        # retry the epoch on a fresh clone of the committed state.
        chaotic = self.run_workload_over_cluster({0: 2}, max_attempts=3)
        assert chaotic == baseline

    def test_crash_without_retry_requeues_then_recovers(self):
        workload_requests = [
            (Request(OpType.WRITE, 5, b"XXXXXXXX", seq=0), 0),
            (Request(OpType.READ, 9, None, 0, 1), 1),
        ]
        with attested_cluster(
            2, value_size=VALUE, crash_plan={0: 1}
        ) as cluster:
            store = make_store(
                suboram_factory=cluster.factory, max_attempts=1
            )
            with store:
                tickets = [
                    store.submit(request, load_balancer=balancer)
                    for request, balancer in workload_requests
                ]
                with pytest.raises(TransportError):
                    store.run_epoch()
                # Rolled back: tickets pending, requests requeued.
                assert all(not t.done for t in tickets)
                responses = store.run_epoch()
                assert len(responses) == len(tickets)
                assert all(t.done for t in tickets)
                assert store.read(5) == b"XXXXXXXX"

    def test_service_over_crashing_cluster(self):
        """The full stack: TCP clients, pipeline, worker crash, retry."""
        with attested_cluster(
            2, value_size=VALUE, crash_plan={1: 1}
        ) as cluster:
            store = make_store(
                suboram_factory=cluster.factory, max_attempts=3
            )
            with store, ServerThread(store, clock=False) as handle:
                handle.start()
                with connect(handle,
                                         manual_epochs=True,
                                         timeout=60) as client:
                    assert client.read(3) == bytes([3]) * VALUE
                    client.write(3, b"ZZZZZZZZ")
                    assert client.read(3) == b"ZZZZZZZZ"


class TestDifferentialHarnessStillHolds:
    """The serve changes must not disturb the core equivalence matrix."""

    def test_serial_thread_kernels_equivalent(self):
        from tests.harness import differential_run

        workload = seeded_workload(2, 8, seed=3, num_keys=36,
                                   value_size=VALUE)
        runs = differential_run(
            workload,
            small_objects(),
            master=MASTER,
            backends=("serial", "thread:2"),
            kernels=("python", "numpy"),
            num_suborams=2,
        )
        assert_equivalent(runs)


# ---------------------------------------------------------------------------
# The columnar front door
# ---------------------------------------------------------------------------
def _request_frames(count, *, keys=None, writes=(), balancers=None):
    """``count`` REQUEST frames (req_ids 1..count) as (kind, payload)."""
    keys = [row % 36 for row in range(count)] if keys is None else keys
    frames = []
    for row in range(count):
        write = row in writes
        request = Request(
            OpType.WRITE if write else OpType.READ, keys[row],
            bytes([row + 1]) * VALUE if write else None, client_id=7,
            seq=row,
        )
        frames.append((FrameKind.REQUEST, encode_request(
            row + 1, request, VALUE,
            load_balancer=-1 if balancers is None else balancers[row],
        )))
    return frames


def _exchange(handle, records, until):
    """Send each record (a list of frames) as one sealed record, then
    collect frames until ``until(frames)``; returns what arrived."""

    async def run():
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", handle.port
        )
        _version, _role, pair = await secure_handshake_async(
            reader, writer, Role.CLIENT, trust=handle.trust,
        )
        transport = AsyncFrameTransport(reader, writer, pair)
        try:
            kind, _ = await transport.recv()
            assert kind == FrameKind.INIT
            for frames in records:
                for kind, payload in frames:
                    transport.send(kind, payload)
                await transport.drain()  # flushes: one record
            received = []
            while not until(received):
                received.append(
                    await asyncio.wait_for(transport.recv(), 10)
                )
            return received
        finally:
            transport.close()

    return asyncio.run(run())


def _responses(frames):
    return [p for k, p in frames if k == FrameKind.RESPONSE]


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


class TestColumnarFrontDoor:
    """A sealed record of K REQUEST frames costs a fixed number of
    intake, resolve and reply-encode calls, whatever K."""

    @pytest.mark.parametrize("count", [1, 6, 40])
    def test_fixed_work_per_record(self, count, monkeypatch):
        calls = []
        monkeypatch.setattr(EpochPipeline, "submit", _counting(
            calls, "submit", EpochPipeline.submit
        ))
        monkeypatch.setattr(Ticket, "_resolve", _counting(
            calls, "resolve", Ticket._resolve
        ))
        monkeypatch.setattr(server_module, "encode_response", _counting(
            calls, "encode", server_module.encode_response
        ))
        store = make_store()
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            unpinned = _request_frames(count)
            received = _exchange(
                handle,
                [unpinned, [(FrameKind.CLOSE_EPOCH, struct.pack(">I", 1))]],
                lambda frames: len(_responses(frames)) == count,
            )
            assert calls.count("submit") == 1
            assert calls.count("resolve") == 1
            assert calls.count("encode") == 1
            values = [
                decode_response(p, VALUE)[1].value for p in _responses(received)
            ]
            assert values == [bytes([k % 36]) * VALUE for k in range(count)]

            # Rows pinned to both balancers: one submit, one ticket and
            # one resolve per balancer touched; still one encode.
            del calls[:]
            pinned = _request_frames(
                count, balancers=[row % 2 for row in range(count)]
            )
            received = _exchange(
                handle,
                [pinned, [(FrameKind.CLOSE_EPOCH, struct.pack(">I", 1))]],
                lambda frames: len(_responses(frames)) == count,
            )
            touched = min(count, 2)
            assert calls.count("submit") == touched
            assert calls.count("resolve") == touched
            assert calls.count("encode") == 1
            placements = sorted(
                decode_response(p, VALUE)[2][:2] for p in _responses(received)
            )
            assert placements == sorted(
                (row % 2, row // 2) for row in range(count)
            )

    @pytest.mark.parametrize("bad_row", [0, 3, 5])
    def test_malformed_row_refuses_the_whole_record(self, bad_row):
        """One bad REQUEST frame refuses its record with one ERROR frame,
        the same wherever it sits, and none of the record's rows is
        queued — not even those before it."""
        store = make_store()
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            frames = _request_frames(6, writes={1, 4})
            kind, payload = frames[bad_row]
            payload = bytearray(payload)
            payload[8] = 7  # the op code byte
            frames[bad_row] = (kind, bytes(payload))
            received = _exchange(handle, [frames], lambda f: len(f) == 1)
            assert received == [(
                FrameKind.ERROR, b"unknown op code in a request frame"
            )]
            assert handle.server.stats["requests"] == 0
            assert sum(b.pending for b in store.load_balancers) == 0


class TestOpenTicketWindow:
    """Many open tickets at once: every connection fills its window, the
    server holds all of them open, and backpressure keeps it there."""

    def test_open_tickets_reach_every_connection_window(self):
        window, connections, extra = 12, 3, 5
        store = make_store()

        async def run(handle):
            async def dial():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", handle.port
                )
                _version, _role, pair = await secure_handshake_async(
                    reader, writer, Role.CLIENT, trust=handle.trust,
                )
                transport = AsyncFrameTransport(reader, writer, pair)
                kind, _ = await transport.recv()
                assert kind == FrameKind.INIT
                return transport

            async def admitted(count):
                while handle.server.stats["requests"] < count:
                    await asyncio.sleep(0.01)

            async def close_epoch():
                control.send(FrameKind.CLOSE_EPOCH, struct.pack(">I", 1))
                await control.drain()
                kind, _ = await asyncio.wait_for(control.recv(), 30)
                assert kind == FrameKind.EPOCH_CLOSED

            control, senders = await dial(), []
            for _ in range(connections):
                transport = await dial()
                # One full window, then more than the window lets in.
                for record in (_request_frames(window),
                               _request_frames(extra)):
                    for kind, payload in record:
                        transport.send(kind, payload)
                    await transport.drain()
                senders.append(transport)
            await asyncio.wait_for(admitted(connections * window), 30)
            await asyncio.sleep(0.05)  # room to overrun, were it unbounded
            held = handle.server.stats["peak_open_tickets"]
            await close_epoch()
            await asyncio.wait_for(
                admitted(connections * (window + extra)), 30
            )
            await close_epoch()
            replies = []
            for transport in senders:
                frames = []
                while len(_responses(frames)) < window + extra:
                    frames.append(
                        await asyncio.wait_for(transport.recv(), 30)
                    )
                replies.append(len(_responses(frames)))
            for transport in [control] + senders:
                transport.close()
            return held, replies

        with store, ServerThread(
            store, clock=False, max_pending_per_connection=window
        ) as handle:
            handle.start()
            held, replies = asyncio.run(run(handle))
            stats = dict(handle.server.stats)
        assert held == connections * window
        assert stats["peak_open_tickets"] == connections * window
        assert replies == [window + extra] * connections
        assert stats["responses"] == connections * (window + extra)


class TestIntakeMasksArePublic:
    """Shed and dedupe decisions see the open-ticket room, the draining
    flag and the session's own req_ids — never keys, values or ops."""

    def test_masks_take_no_row_contents(self):
        params = inspect.signature(intake_masks).parameters
        assert list(params) == ["req_ids", "draining", "room", "seen"]

    @pytest.mark.parametrize("draining", [False, True])
    @pytest.mark.parametrize("room", [None, 0, 2, 9])
    def test_masks(self, draining, room):
        req_ids = [5, 6, 5, 7, 8, 9]
        admit, shed = intake_masks(
            req_ids, draining=draining, room=room, seen={6},
        )
        assert not (admit & shed).any()
        if draining:
            assert shed.all()
            return
        busy = shed
        # Rows 1 (seen) and 2 (repeats row 0) are duplicates.
        fresh_before = [0, 1, 1, 1, 2, 3]
        expected_busy = [
            room is not None and before >= room for before in fresh_before
        ]
        assert busy.tolist() == expected_busy
        assert admit.tolist() == [
            fresh and not b
            for fresh, b in zip([1, 0, 0, 1, 1, 1], expected_busy)
        ]

    def test_shed_frames_do_not_depend_on_row_contents(self):
        """Two same-shape records that differ only in keys, values and
        the read/write mix get byte-identical BUSY verdicts and the same
        admitted count at the same open-ticket count."""
        outcomes = []
        for keys, writes in (
            (list(range(6)), set()),
            ([30, 2, 17, 2, 9, 35], {0, 2, 3}),
        ):
            store = make_store()
            with store, ServerThread(
                store, clock=False, max_open_tickets=4
            ) as handle:
                handle.start()
                received = _exchange(
                    handle, [_request_frames(6, keys=keys, writes=writes)],
                    lambda frames: len(frames) == 2,
                )
                outcomes.append(
                    (received, handle.server.stats["requests"])
                )
        assert outcomes[0] == outcomes[1]
        busy, admitted = outcomes[0]
        assert busy == [(FrameKind.BUSY, struct.pack(">Q", 5)),
                        (FrameKind.BUSY, struct.pack(">Q", 6))]
        assert admitted == 4
