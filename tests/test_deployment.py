"""The attested deployment: Snoopy over sealed balancer↔worker links.

§3.1 puts every subORAM in its own attested enclave behind an AEAD
channel.  Here that hop is the real one: each subORAM runs in a worker
process of a loopback :class:`~repro.serve.workers.WorkerCluster`, and
the balancer reaches it through
``Snoopy(config, suboram_factory=cluster.factory)`` over a link that
ran the attested handshake (:mod:`repro.serve.secure`).  The network
tampering, replay and rogue-peer tests act on those sealed records.
"""

import pickle
import random
import re

import pytest

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.core.wire import FrameKind, Role, WireError
from repro.crypto.keys import KeyChain
from repro.errors import (AttestationError, ConfigurationError,
                          IntegrityError, NotInitializedError, ReplayError)
from repro.extensions.replication import ReplicatedSubOram
from repro.oblivious.soa import Batch
from repro.serve.secure import ServeTrust
from repro.serve.workers import WorkerCluster
from repro.suboram.suboram import SubOram
from repro.types import OpType, Request

from tests.harness import TEST_TRUST, attested_cluster


@pytest.fixture
def cluster():
    """Two attested loopback workers (one per subORAM)."""
    with attested_cluster(2) as cluster:
        yield cluster


def make_deployment(cluster, seed=1, **config_kwargs):
    """A Snoopy whose subORAMs live behind ``cluster``'s sealed links."""
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=cluster.num_workers,
        value_size=8,
        security_parameter=16,
        **config_kwargs,
    )
    deployment = Snoopy(config, rng=random.Random(seed),
                        suboram_factory=cluster.factory)
    deployment.initialize({k: bytes([k]) * 8 for k in range(40)})
    return deployment


class TestFunctionalEquivalence:
    def test_read_write(self, cluster):
        with make_deployment(cluster) as deployment:
            assert deployment.read(5) == bytes([5]) * 8
            prior = deployment.write(5, b"AAAAAAAA")
            assert prior == bytes([5]) * 8
            assert deployment.read(5) == b"AAAAAAAA"

    def test_batch(self, cluster):
        with make_deployment(cluster) as deployment:
            responses = deployment.batch(
                [Request(OpType.READ, k, seq=k) for k in range(15)]
            )
        assert len(responses) == 15
        assert all(r.value == bytes([r.key]) * 8 for r in responses)

    def test_matches_in_process_deployment(self, cluster):
        """Same requests, same results as the in-process Snoopy."""
        requests = [
            Request(OpType.WRITE, 3, b"xxxxxxxx", seq=0),
            Request(OpType.READ, 7, seq=1),
            Request(OpType.READ, 3, seq=2),
        ]
        with make_deployment(cluster, seed=2) as distributed, Snoopy(
            SnoopyConfig(num_load_balancers=2, num_suborams=2, value_size=8,
                         security_parameter=16),
            keychain=distributed.keychain,
            rng=random.Random(2),
        ) as local:
            local.initialize({k: bytes([k]) * 8 for k in range(40)})
            d_responses = {
                r.seq: r.value for r in distributed.batch(list(requests))
            }
            l_responses = {r.seq: r.value for r in local.batch(list(requests))}
        assert d_responses == l_responses

    def test_requires_initialization(self, cluster):
        config = SnoopyConfig(num_suborams=2, value_size=8,
                              security_parameter=16)
        with Snoopy(config, suboram_factory=cluster.factory) as deployment:
            with pytest.raises(NotInitializedError):
                deployment.run_epoch()


def _flip_last_byte(data: bytes) -> bytes:
    """The hostile network's edit: one bit of the GCM tag."""
    return data[:-1] + bytes([data[-1] ^ 1])


class TestTransportSecurity:
    """Attacks on the sealed ``worker-<i>`` link, at the balancer's end
    of worker 0's connection (``cluster._transports[0]``)."""

    def test_network_tampering_detected(self, cluster, monkeypatch):
        """A tampered EPOCH request fails the worker's AEAD open.  The
        worker reports it, and a security abort is never retried."""
        epoch_frames = []
        round_trip = cluster._round_trip

        def spy(index, kind, payload, expect_kind):
            if kind == FrameKind.EPOCH:
                epoch_frames.append(index)
            return round_trip(index, kind, payload, expect_kind)

        monkeypatch.setattr(cluster, "_round_trip", spy)
        with make_deployment(cluster, execution_backend="serial",
                             epoch_max_attempts=3) as deployment:
            link = cluster._transports[0]
            encode = link._encode

            def tamper(kind, payload):
                data = encode(kind, payload)
                return _flip_last_byte(data) if kind == FrameKind.EPOCH \
                    else data

            monkeypatch.setattr(link, "_encode", tamper)
            with pytest.raises(WireError, match=re.escape(
                "worker 0: IntegrityError: AEAD tag mismatch"
            )):
                deployment.read(1)
            assert epoch_frames == [0]
            assert deployment.fault_stats["epochs_failed"] == 1
            assert deployment.fault_stats["epochs_retried"] == 0

    def test_network_replay_detected(self, cluster, monkeypatch):
        """The network hands epoch 2 the sealed EPOCH_REPLY of epoch 1."""
        with make_deployment(cluster, execution_backend="serial") \
                as deployment:
            channel = cluster._transports[0]._pair.rx
            receive, captured = channel.receive, []

            def replay(nonce, sealed):
                captured.append((nonce, sealed))
                return receive(*captured[0])

            monkeypatch.setattr(channel, "receive", replay)
            assert deployment.read(1) == bytes([1]) * 8
            with pytest.raises(ReplayError):
                deployment.read(1)

    def test_rogue_enclave_rejected(self, cluster, monkeypatch):
        """A balancer provisioned with another trust secret cannot open
        a worker link; the worker keeps serving the real balancer."""
        rogue = ServeTrust(b"not-the-deployment-trust-secret!")
        cluster._close_channel(0)
        monkeypatch.setattr(cluster, "trust", rogue)
        monkeypatch.setattr(
            cluster, "_balancer_enclave", rogue.enclave(Role.BALANCER)
        )
        with pytest.raises(AttestationError):
            cluster.ping(0)
        monkeypatch.undo()
        assert cluster.ping(0)

    def test_reply_tampering_detected(self, cluster, monkeypatch):
        """The reply hop crosses the same hostile network as the request."""
        with make_deployment(cluster, execution_backend="serial") \
                as deployment:
            channel = cluster._transports[0]._pair.rx
            receive = channel.receive
            monkeypatch.setattr(
                channel, "receive",
                lambda nonce, sealed: receive(nonce, _flip_last_byte(sealed)),
            )
            with pytest.raises(IntegrityError):
                deployment.read(1)

    def test_request_and_reply_do_not_share_a_keystream(
        self, cluster, monkeypatch
    ):
        """An EPOCH frame and its EPOCH_REPLY carry the same counter
        nonce on the two directions of one link; per-direction keys keep
        ct1 ^ ct2 from equalling req ^ rep."""
        records = {}
        with make_deployment(cluster, execution_backend="serial") \
                as deployment:
            pair = cluster._transports[0]._pair
            send, receive = pair.tx.send, pair.rx.receive

            def spy_send(plaintext):
                nonce, sealed = send(plaintext)
                records["request"] = (nonce, sealed, plaintext)
                return nonce, sealed

            def spy_receive(nonce, sealed):
                plaintext = receive(nonce, sealed)
                records["reply"] = (nonce, sealed, plaintext)
                return plaintext

            monkeypatch.setattr(pair.tx, "send", spy_send)
            monkeypatch.setattr(pair.rx, "receive", spy_receive)
            deployment.read(1)
        (req_nonce, req_ct, req), (rep_nonce, rep_ct, rep) = (
            records["request"], records["reply"]
        )
        assert req_nonce == rep_nonce
        n = min(len(req), len(rep))
        ct_xor = bytes(a ^ b for a, b in zip(req_ct[:n], rep_ct[:n]))
        assert ct_xor != bytes(a ^ b for a, b in zip(req[:n], rep[:n]))

    def test_worker_link_message_size_public(self):
        """The same, over a real balancer <-> worker-process link: one
        EPOCH frame per worker per epoch, sized by public shape alone."""
        from repro.analysis.balls_bins import batch_size
        from repro.core.wire import FrameKind

        with attested_cluster(2) as cluster:
            config = SnoopyConfig(
                num_load_balancers=2, num_suborams=2, value_size=8,
                security_parameter=16, execution_backend="serial",
            )
            round_trip, observed = cluster._round_trip, []

            def spy(index, kind, payload, expect_kind):
                reply = round_trip(index, kind, payload, expect_kind)
                if kind == FrameKind.EPOCH:
                    observed.append((len(payload), len(reply)))
                return reply

            cluster._round_trip = spy
            with Snoopy(config, suboram_factory=cluster.factory,
                        rng=random.Random(5)) as store:
                store.initialize({k: bytes([k]) * 8 for k in range(40)})
                shapes = []
                for requests in same_shape_epochs():
                    del observed[:]
                    for i, request in enumerate(requests):
                        store.submit(request, load_balancer=i % 2)
                    store.run_epoch()
                    shapes.append(sorted(observed))
        # 8 + Σℓ (8 + Bℓ·(44 + value_size)); each balancer holds 3 of
        # the epoch's 6 requests, and the reply drops the version id.
        batches = 2 * (8 + batch_size(3, 2, 16) * (44 + 8))
        assert shapes[0] == [(8 + batches, batches)] * 2  # S frames
        assert all(shape == shapes[0] for shape in shapes[1:]), shapes

    def test_worker_epoch_serves_batches_in_order(self):
        """One EPOCH frame of L = 2 batches: batch 1 reads batch 0's
        write, and the replies equal an in-process SubOram.run_epoch."""
        objects = {k: bytes([k]) * 8 for k in range(40)}
        chain = [
            Batch.from_requests([
                Request(OpType.WRITE, 5, b"WWWWWWWW", seq=0),
                Request(OpType.READ, 6, seq=1),
                Request(OpType.READ, 1000, seq=2),
            ], 8),
            Batch.from_requests([
                Request(OpType.READ, 5, seq=0),
                Request(OpType.WRITE, 6, b"XXXXXXXX", seq=1),
            ], 8),
        ]
        local = SubOram(0, 8, security_parameter=16)
        local.initialize(dict(objects))
        expected = [reply.to_bytes() for reply in local.run_epoch(chain)]
        with attested_cluster(1) as cluster:
            remote = cluster.factory(0)
            remote.initialize(dict(objects))
            replies = remote.run_epoch(chain)
        assert [reply.to_bytes() for reply in replies] == expected
        assert [e.value for e in replies[1].entries()] == [
            b"WWWWWWWW", bytes([6]) * 8,
        ]


def same_shape_epochs(num_requests=6):
    """Epochs of equal R differing in everything the padding must hide."""
    def reads(keys):
        return [Request(OpType.READ, k, seq=i) for i, k in enumerate(keys)]

    def writes(keys):
        return [Request(OpType.WRITE, k, b"WWWWWWWW", seq=i)
                for i, k in enumerate(keys)]

    present, absent = range(1, 1 + num_requests), range(1000, 1000 + num_requests)
    mixed = writes(present)
    mixed[::2] = reads(present)[::2]
    return [
        reads(present),                 # all reads, all hits
        writes(present),                # all writes
        mixed,                          # read/write mix
        reads(absent),                  # all misses
        writes(absent),                 # writes that land nowhere
        reads([7] * num_requests),      # one hot key: B-1 dummies per batch
        writes([7] * num_requests),
    ]


class TestRandomizedEquivalence:
    def test_random_workloads_match_local(self):
        """Cluster-backed and in-process deployments agree over many epochs."""
        rng = random.Random(42)
        master = b"equivalence-master-key-012345678"
        config = SnoopyConfig(
            num_load_balancers=1, num_suborams=3, value_size=4,
            security_parameter=16,
        )
        objects = {k: bytes([k]) * 4 for k in range(30)}
        with attested_cluster(3, value_size=4) as cluster, Snoopy(
            config, keychain=KeyChain(master), rng=random.Random(1),
            suboram_factory=cluster.factory,
        ) as distributed, Snoopy(
            config, keychain=KeyChain(master), rng=random.Random(1),
        ) as local:
            distributed.initialize(dict(objects))
            local.initialize(dict(objects))
            for _ in range(6):
                requests = []
                for i in range(rng.randrange(1, 10)):
                    key = rng.randrange(30)
                    if rng.random() < 0.5:
                        requests.append(Request(
                            OpType.WRITE, key,
                            bytes([rng.randrange(256)]) * 4, seq=i,
                        ))
                    else:
                        requests.append(Request(OpType.READ, key, seq=i))
                d = {r.seq: r.value for r in distributed.batch(list(requests))}
                l = {r.seq: r.value for r in local.batch(list(requests))}
                assert d == l


class TestOneDefaultPerAxis:
    """Every constructor serves the path its config (or none) names."""

    @pytest.mark.parametrize("replication", [None, (1, 0)])
    def test_distributed_threads_config_crypto_and_kernel(self, replication):
        """Regression: a deployment used to drop ``crypto`` on its way to
        the subORAMs, alone or inside replica groups."""
        config = SnoopyConfig(
            num_load_balancers=2, num_suborams=2, value_size=8,
            security_parameter=16, crypto="scalar", kernel="python",
            replication=replication,
        )
        with Snoopy(config) as deployment:
            deployment.initialize({k: bytes([k]) * 8 for k in range(40)})
            suborams = [
                replica.suboram
                for group in deployment.suborams
                for replica in getattr(group, "replicas", [])
            ] or deployment.suborams
            assert {s.crypto for s in suborams} == {"scalar"}
            assert {s.kernel.name for s in suborams} == {"python"}
            assert deployment.read(5) == bytes([5]) * 8

    def test_worker_serves_the_cluster_crypto_and_kernel(self):
        """The worker process builds its SubOram on the cluster's
        selectors (read back from the worker's sealed version table)."""
        with attested_cluster(1, crypto="scalar", kernel="python") as cluster:
            cluster.factory(0).initialize({k: bytes(8) for k in range(8)})
            with open(cluster._snapshot_path(0), "rb") as handle:
                (suboram,) = pickle.load(handle).values()
        assert (suboram.crypto, suboram.kernel.name) == ("scalar", "python")

    def test_omitted_selectors_equal_the_config_default(self):
        default = SnoopyConfig()
        bare = SubOram(0, 16)
        replica = ReplicatedSubOram(0, 16).replicas[0].suboram
        with WorkerCluster(1, value_size=16, trust=TEST_TRUST) as cluster:
            # Never started: the selectors resolve at construction, and
            # stop() removes the snapshot directory it made.
            selectors = (cluster.kernel, cluster.crypto)
        for built in (bare, replica):
            assert built.crypto == default.crypto
            assert built.kernel.name == default.kernel
        assert selectors == (default.kernel, default.crypto)
        with Snoopy(default) as deployment:
            assert deployment.backend.name == default.execution_backend

    def test_deleted_batched_mode_is_rejected_by_name(self):
        removed = 'batched'  # the middle rung: no longer a mode anywhere
        for build in (
            lambda: SnoopyConfig(crypto=removed),
            lambda: SubOram(0, 16, crypto=removed),
        ):
            with pytest.raises(
                (ConfigurationError, ValueError), match="scalar.*vector"
            ):
                build()
