"""Tests for the hardened serve layer: attestation, resilience, chaos.

Four claims from the distributed-robustness PR, machine-checked:

* **Attested channels fail closed.**  A client with the wrong trust
  secret never gets a usable connection, and there is no plaintext
  mode: a hello without the attested flag is refused by the server, by
  a worker and by the client alike.
* **Client resilience is deterministic and typed.**  Reconnect backoff
  is a pure function of its seed; the circuit breaker walks
  closed → open → half-open → closed; deadlines, BUSY shedding, and
  SHUTTING_DOWN notices surface as their own exception types.
* **Exactly-once across drops.**  Killing the connection mid-batch
  loses no ticket and double-applies no write: every ticket resolves
  exactly once with the same answer a fault-free run produces.
* **Network chaos changes nothing.**  The seeded chaos soak — real
  sockets, injected drops/partitions/truncations — matches the
  fault-free in-process oracle byte-for-byte, with every scheduled
  fault accounted for.
"""

import pickle
import socket
import threading
import time

import pytest

from tests.harness import attested_cluster, build_store
from repro.core.faults import FAULT_KINDS
from repro.errors import (
    AttestationError,
    DeadlineExceededError,
    ServerBusyError,
    ServerShuttingDownError,
    TransportError,
)
from repro.core.wire import (
    HELLO_SIZE,
    FrameKind,
    Role,
    WireError,
    encode_frame,
    encode_hello,
)
from repro.oblivious.soa import Batch
from repro.serve import NetworkSnoopyClient, ServerThread
from repro.serve.chaos import (
    WORKER_FAULT_KINDS,
    build_soak_plan,
    build_workload,
    run_network_soak,
)
from repro.serve.netclient import CircuitBreaker, ReconnectPolicy
from repro.serve.protocol import recv_exact, recv_frame, send_all
from repro.serve.secure import ServeTrust
from repro.types import OpType, Request

MASTER = b"serve-resilience-master-key"
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


class TestAttestedChannels:
    def test_attested_round_trip(self):
        store = make_store()
        trust = ServeTrust(b"resilience-test-trust-secret")
        with store, ServerThread(store, clock=False, trust=trust) as handle:
            handle.start()
            with NetworkSnoopyClient(
                "127.0.0.1", handle.port, trust=trust, manual_epochs=True
            ) as client:
                assert client.write(3, b"attested"[:VALUE]) is not None
                assert client.read(3) == b"attested"[:VALUE]

    def test_wrong_trust_secret_rejected(self):
        store = make_store()
        trust = ServeTrust(b"resilience-test-trust-secret")
        rogue = ServeTrust(b"a-completely-different-secret")
        with store, ServerThread(store, clock=False, trust=trust) as handle:
            handle.start()
            # The client verifies the server's quote against *its* trust
            # root and refuses the channel; the server never learns the
            # difference (clients present a bare share, not a quote).
            with pytest.raises(AttestationError):
                NetworkSnoopyClient(
                    "127.0.0.1", handle.port, trust=rogue, timeout=5.0,
                    resume=False,
                )
            assert handle.server.stats["requests"] == 0

    # A plaintext hello is ``encode_hello(role)``: flags 0, no
    # HELLO_FLAG_ATTESTED.  Each endpoint refuses it at the handshake.

    def test_plaintext_hello_refused_by_server(self):
        store = make_store()
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10
            ) as sock:
                recv_exact(sock, HELLO_SIZE)
                send_all(sock, encode_hello(Role.CLIENT))
                kind, payload = recv_frame(sock)
            assert kind == FrameKind.ERROR
            assert b"plaintext" in payload
            assert handle.server.stats["handshake_failures"] == 1
            assert handle.server.stats["connections"] == 0

    def test_plaintext_hello_refused_by_worker(self):
        objects = small_objects(8)
        with attested_cluster(1, value_size=VALUE) as cluster:
            cluster.factory(0).initialize(objects)
            # A worker serves one balancer link at a time: step the
            # cluster's aside so the plaintext dial is the one accepted.
            cluster._close_channel(0)
            with socket.create_connection(
                ("127.0.0.1", cluster._ports[0]), timeout=10
            ) as sock:
                send_all(sock, encode_hello(Role.BALANCER))
                recv_exact(sock, HELLO_SIZE)
                # An empty INIT would wipe the partition if it were
                # served; the worker has hung up, or reads it only to
                # drop the connection with no reply (no INIT_ACK, no
                # ERROR frame).
                reply = b""
                try:
                    send_all(sock, encode_frame(
                        FrameKind.INIT, Batch.filled(0, VALUE).to_bytes()
                    ))
                    while chunk := sock.recv(4096):
                        reply += chunk
                except (TransportError, ConnectionResetError):
                    pass
                assert reply == b""
            with open(cluster._snapshot_path(0), "rb") as handle:
                (suboram,) = pickle.load(handle).values()
            assert suboram.num_objects == len(objects)
            # The refused dial leaves the worker serving attested links.
            assert cluster.ping(0)

    def test_plaintext_server_hello_refused_by_client(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)

            def fake_server():
                conn, _ = listener.accept()
                with conn:
                    send_all(conn, encode_hello(Role.SERVER))
                    recv_exact(conn, HELLO_SIZE)
                    conn.recv(1)  # hold until the client hangs up

            server = threading.Thread(target=fake_server, daemon=True)
            server.start()
            with pytest.raises(WireError, match="plaintext"):
                NetworkSnoopyClient(
                    "127.0.0.1", listener.getsockname()[1],
                    trust=ServeTrust(b"resilience-test-trust-secret"),
                    timeout=5.0, resume=False,
                )
            server.join(timeout=10)
            assert not server.is_alive()


class TestReconnectPolicy:
    def test_delays_are_seed_deterministic(self):
        policy = ReconnectPolicy(seed=42, max_attempts=6)
        assert list(policy.delays()) == list(policy.delays())
        other = ReconnectPolicy(seed=43, max_attempts=6)
        assert list(policy.delays()) != list(other.delays())

    def test_delays_are_bounded_and_counted(self):
        policy = ReconnectPolicy(
            seed=7, max_attempts=9, base_delay_s=0.01,
            multiplier=3.0, max_delay_s=0.5, jitter=0.5,
        )
        delays = list(policy.delays())
        assert len(delays) == 9
        ceiling = policy.max_delay_s * (1.0 + policy.jitter)
        for delay in delays:
            assert 0.0 <= delay <= ceiling + 1e-9


class TestCircuitBreaker:
    def test_full_state_walk(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after_s=10.0,
            clock=lambda: clock[0],
        )
        assert breaker.state == "closed" and breaker.allow()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert not breaker.probe()
        clock[0] = 10.5  # cooldown elapsed
        assert breaker.allow()
        assert breaker.probe()
        assert breaker.state == "half-open"
        assert not breaker.probe()  # only one probe in flight
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=5.0,
            clock=lambda: clock[0],
        )
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.probe()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.probe()  # a fresh cooldown started


class TestRequestDeadlines:
    def test_deadline_fires_while_epoch_stays_open(self):
        store = make_store()
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            with NetworkSnoopyClient(
                "127.0.0.1", handle.port, trust=handle.trust,
                request_timeout=0.2,
            ) as client:
                ticket = client.submit(
                    Request(OpType.READ, 1, client_id=1, seq=0)
                )
                with pytest.raises(DeadlineExceededError):
                    ticket.result(5.0)
                # The request is still queued; closing the epoch
                # resolves the ticket normally for late inspection.
                client.close_epoch(flush=True)
                assert ticket.wait(5.0)


class TestExactlyOnceResume:
    def test_kill_mid_batch_resolves_every_ticket_once(self):
        store = make_store()
        with store, ServerThread(store, clock=False) as handle:
            handle.start()
            with NetworkSnoopyClient(
                "127.0.0.1", handle.port, trust=handle.trust,
                reconnect=ReconnectPolicy(seed=11),
            ) as client:
                written = {}
                tickets = []
                settled = []
                for i in range(12):
                    value = bytes([i + 1]) * VALUE
                    written[i] = value
                    ticket = client.submit(Request(
                        OpType.WRITE, i, value, client_id=1, seq=i,
                    ))
                    ticket.add_done_callback(
                        lambda t: settled.append(t.req_id)
                    )
                    tickets.append(ticket)
                    if i == 5:
                        client.kill_connection()
                client.close_epoch(flush=True)
                for ticket in tickets:
                    assert ticket.result(10.0).ok
                assert client.stats["reconnects"] >= 1
                # Exactly once: every ticket settled a single time.
                assert sorted(settled) == [t.req_id for t in tickets]

                # The writes landed exactly once: read each key back.
                reads = [
                    client.submit(Request(
                        OpType.READ, key, client_id=1, seq=100 + key,
                    ))
                    for key in written
                ]
                client.close_epoch(flush=True)
                for key, ticket in zip(written, reads):
                    assert ticket.result(10.0).value == written[key]
            assert handle.server.stats["session_resumes"] >= 1


class TestGracefulDegradation:
    def test_busy_shedding_is_typed_and_bounded(self):
        store = make_store()
        with store, ServerThread(
            store, clock=False, max_open_tickets=4
        ) as handle:
            handle.start()
            with NetworkSnoopyClient(
                "127.0.0.1", handle.port, trust=handle.trust,
            ) as client:
                tickets = [
                    client.submit(Request(
                        OpType.READ, i, client_id=1, seq=i,
                    ))
                    for i in range(8)
                ]
                # The shed tickets settle with ServerBusyError before
                # any epoch closes.
                outcomes = {"busy": 0, "pending": 0}
                deadline = time.monotonic() + 5.0
                while (
                    sum(t.done() for t in tickets) < 4
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                client.close_epoch(flush=True)
                for ticket in tickets:
                    try:
                        assert ticket.result(10.0).ok
                        outcomes["pending"] += 1
                    except ServerBusyError:
                        outcomes["busy"] += 1
                assert outcomes == {"busy": 4, "pending": 4}
                assert client.stats["busy_rejections"] == 4
            assert handle.server.stats["busy_rejections"] == 4

    def test_drain_flushes_accepted_then_notifies(self):
        store = make_store()
        handle = ServerThread(store, clock=False)
        with store:
            handle.start()
            client = NetworkSnoopyClient(
                "127.0.0.1", handle.port, trust=handle.trust,
            )
            try:
                tickets = [
                    client.submit(Request(
                        OpType.WRITE, i, bytes([i + 1]) * VALUE,
                        client_id=1, seq=i,
                    ))
                    for i in range(4)
                ]
                deadline = time.monotonic() + 5.0
                while (
                    handle.server.stats["requests"] < len(tickets)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                stopper = threading.Thread(target=handle.stop)
                stopper.start()
                # Drain: every accepted ticket resolves with a real
                # response even though no CLOSE_EPOCH was ever sent.
                for ticket in tickets:
                    assert ticket.result(15.0).ok
                stopper.join(timeout=15)
                # The farewell broadcast surfaced as a typed notice,
                # not a retry loop.
                deadline = time.monotonic() + 5.0
                while (
                    client.stats["shutdown_notices"] == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert client.stats["shutdown_notices"] >= 1
                with pytest.raises(
                    (ServerShuttingDownError, TransportError)
                ):
                    client.submit(Request(
                        OpType.READ, 0, client_id=1, seq=99,
                    ))
                assert client.stats["reconnects"] == 0
            finally:
                client.close()
                handle.stop()


class TestWorkerHealth:
    def test_health_classifies_ok_slow_dead(self):
        with attested_cluster(1, value_size=VALUE) as cluster:
            suboram = cluster.factory(0)
            suboram.initialize(small_objects(8))
            assert cluster.check_health(0) == "ok"
            # A worker stalling past the ping deadline is *slow*, not
            # dead: no respawn, in-memory state retained.
            with pytest.raises(TransportError):
                cluster.timed_ping(0, timeout=0.05, echo_delay_ms=400)
            assert cluster.check_health(0, timeout=2.0) == "ok"
            cluster.kill_worker(0)
            assert cluster.check_health(0) == "dead"

    def test_remote_snapshot_survives_total_disk_loss(self):
        with attested_cluster(
            1, value_size=VALUE, remote_snapshots=True
        ) as cluster:
            suboram = cluster.factory(0)
            objects = small_objects(8)
            suboram.initialize(objects)
            # Machine-is-gone: process killed AND its snapshot deleted.
            # Only the wire-mirrored sealed blob can restore state.
            cluster.kill_worker(0, lose_disk=True)
            assert suboram.num_objects == len(objects)


class TestChaosPlanShapes:
    def test_workload_and_plan_are_seed_deterministic(self):
        a = build_workload(5, 4, 6, 32, VALUE, 2)
        b = build_workload(5, 4, 6, 32, VALUE, 2)
        assert a == b
        plan_a = build_soak_plan(5, 4, 6, 2, worker_links=True)
        plan_b = build_soak_plan(5, 4, 6, 2, worker_links=True)
        assert plan_a.events == plan_b.events

    def test_worker_kinds_exclude_frame_duplicate(self):
        # A duplicated frame is a replay to the receiving worker, which
        # correctly fails closed rather than retrying — so the soak
        # must not schedule it on worker links.
        assert "frame_duplicate" not in WORKER_FAULT_KINDS
        link_kinds = {
            kind for kind, counter in FAULT_KINDS.items()
            if counter.startswith("net_")
        }
        assert set(WORKER_FAULT_KINDS) < link_kinds
        plan = build_soak_plan(3, 6, 8, 2, worker_links=True)
        for event in plan.events:
            if event.link.startswith("worker-"):
                assert event.kind != "frame_duplicate"
        # The client link gets every link kind.
        assert {
            event.kind for event in plan.events if event.link == "client"
        } == link_kinds


class TestNetworkChaosDifferential:
    def test_client_link_chaos_matches_oracle(self):
        report = run_network_soak(
            seed=1, epochs=6, requests_per_epoch=6, objects=48,
            timeout=30.0,
        )
        assert report["matched"], report
        assert report["responses_matched"] and report["faults_matched"]
        assert report["fault_stats"] == report["expected_fault_stats"]
        assert sum(report["fault_stats"].values()) == \
            report["scheduled_faults"]

    def test_worker_link_chaos_matches_oracle(self):
        report = run_network_soak(
            seed=2, epochs=5, requests_per_epoch=6, objects=48,
            worker_processes=True, timeout=45.0,
        )
        assert report["matched"], report
        assert report["fault_stats"] == report["expected_fault_stats"]
        assert any(
            count for counter, count in report["fault_stats"].items()
            if counter.startswith("net_")
        )


class TestServedSkewInsensitivity:
    """Hot keys stay invisible across the attested wire.

    The in-process skew differential lives in
    ``test_telemetry_obliviousness.py``; this one drives the same
    uniform-vs-Zipf shape-identical pair from a
    :class:`~repro.serve.netclient.NetworkSnoopyClient` through the real
    TCP stack — attested handshake, sealed frames, the server's epoch
    loop — and requires byte-identical public telemetry and identical
    server stats.
    """

    EPOCHS = 3
    PER_EPOCH = 8

    def served_skew_view(self, spec):
        from repro.telemetry import Telemetry
        from tests.harness import workload_schedule

        telemetry = Telemetry()
        trust = ServeTrust(b"resilience-skew-trust-secret")
        store = make_store(telemetry=telemetry)
        with store, ServerThread(store, clock=False, trust=trust) as handle:
            handle.start()
            with NetworkSnoopyClient(
                "127.0.0.1", handle.port, trust=trust, client_id=1,
            ) as client:
                tickets = []
                for requests in workload_schedule(
                    spec, self.EPOCHS, self.PER_EPOCH, seed=23
                ):
                    for request, balancer in requests:
                        tickets.append(
                            client.submit(request, load_balancer=balancer)
                        )
                    client.close_epoch(flush=True)
                for ticket in tickets:
                    ticket.result(30.0)
            server_stats = dict(handle.server.stats)
        return (
            telemetry.registry.prometheus_text(public_only=True),
            server_stats,
        )

    def test_hot_key_vs_uniform_identical_over_the_wire(self):
        from repro.workloads import WorkloadSpec

        uniform = WorkloadSpec(
            distribution="uniform", num_keys=36, value_size=VALUE
        )
        hot = WorkloadSpec(
            distribution="zipf", num_keys=36, value_size=VALUE,
            zipf_exponent=1.2,
        )
        export_u, stats_u = self.served_skew_view(uniform)
        export_z, stats_z = self.served_skew_view(hot)
        assert export_u == export_z
        assert stats_u == stats_z
        assert "serve_connections_total" in export_u
        assert stats_u["responses"] == self.EPOCHS * self.PER_EPOCH
