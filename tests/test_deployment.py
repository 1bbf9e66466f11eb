"""Tests for the distributed deployment: attested, encrypted transport."""

import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.deployment import DistributedSnoopy
from repro.core.snoopy import Snoopy
from repro.enclave.model import Enclave
from repro.errors import (AttestationError, ConfigurationError,
                          IntegrityError, NotInitializedError, ReplayError)
from repro.extensions.replication import ReplicatedSubOram
from repro.serve.workers import WorkerCluster
from repro.suboram.suboram import SubOram
from repro.types import OpType, Request


def make_deployment(seed=1, **config_kwargs):
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=2,
        value_size=8,
        security_parameter=16,
        **config_kwargs,
    )
    deployment = DistributedSnoopy(config, rng=random.Random(seed))
    deployment.initialize({k: bytes([k]) * 8 for k in range(40)})
    return deployment


class TestFunctionalEquivalence:
    def test_read_write(self):
        deployment = make_deployment()
        assert deployment.read(5) == bytes([5]) * 8
        prior = deployment.write(5, b"AAAAAAAA")
        assert prior == bytes([5]) * 8
        assert deployment.read(5) == b"AAAAAAAA"

    def test_batch(self):
        deployment = make_deployment()
        responses = deployment.batch(
            [Request(OpType.READ, k, seq=k) for k in range(15)]
        )
        assert len(responses) == 15
        assert all(r.value == bytes([r.key]) * 8 for r in responses)

    def test_matches_in_process_deployment(self):
        """Same requests, same results as the direct-call Snoopy."""
        requests = [
            Request(OpType.WRITE, 3, b"xxxxxxxx", seq=0),
            Request(OpType.READ, 7, seq=1),
            Request(OpType.READ, 3, seq=2),
        ]
        distributed = make_deployment(seed=2)
        local = Snoopy(
            SnoopyConfig(num_load_balancers=2, num_suborams=2, value_size=8,
                         security_parameter=16),
            keychain=distributed.keychain,
            rng=random.Random(2),
        )
        local.initialize({k: bytes([k]) * 8 for k in range(40)})

        d_responses = {r.seq: r.value for r in distributed.batch(list(requests))}
        l_responses = {r.seq: r.value for r in local.batch(list(requests))}
        assert d_responses == l_responses

    def test_requires_initialization(self):
        config = SnoopyConfig(value_size=8, security_parameter=16)
        deployment = DistributedSnoopy(config)
        with pytest.raises(NotInitializedError):
            deployment.run_epoch()


class TestTransportSecurity:
    def test_network_tampering_detected(self):
        deployment = make_deployment()

        def tamper(balancer, suboram, nonce, sealed):
            return nonce, sealed[:-1] + bytes([sealed[-1] ^ 1])

        deployment.network_hook = tamper
        with pytest.raises(IntegrityError):
            deployment.read(1)

    def test_network_replay_detected(self):
        deployment = make_deployment()
        captured = []

        def capture(balancer, suboram, nonce, sealed):
            captured.append((balancer, suboram, nonce, sealed))
            return nonce, sealed

        deployment.network_hook = capture
        deployment.read(1)
        # Replay the captured ciphertext straight into the subORAM side.
        balancer, suboram, nonce, sealed = captured[0]
        pair = deployment._channels[(balancer, suboram)]
        with pytest.raises(ReplayError):
            pair.so.rx.receive(nonce, sealed)

    def test_rogue_enclave_rejected(self):
        deployment = make_deployment()
        rogue = Enclave("not-snoopy")
        with pytest.raises(AttestationError):
            deployment._verify_peer(rogue)

    def test_reply_tampering_detected(self):
        """The reply hop crosses the same hostile network as the request."""
        deployment = make_deployment()
        calls = []

        def tamper_replies(balancer, suboram, nonce, sealed):
            calls.append((balancer, suboram))
            if calls.count((balancer, suboram)) % 2 == 0:  # request, reply
                return nonce, sealed[:-1] + bytes([sealed[-1] ^ 1])
            return nonce, sealed

        deployment.network_hook = tamper_replies
        with pytest.raises(IntegrityError):
            deployment.read(1)

    def test_message_size_public(self):
        """Sealed sizes on both hops depend only on (B, object size): not
        on keys, the read/write mix, hits vs misses, or duplicates."""
        deployment = make_deployment(seed=5)
        observed = {}

        def record(balancer, suboram, nonce, sealed):
            hops = observed.setdefault((balancer, suboram), [])
            hops.append(("request", "reply")[len(hops) % 2] + f":{len(sealed)}")
            return nonce, sealed

        deployment.network_hook = record
        shapes = []
        for requests in same_shape_epochs():
            observed.clear()
            for i, request in enumerate(requests):
                deployment.submit(request, load_balancer=i % 2)
            deployment.run_epoch()
            shapes.append(sorted(sum(observed.values(), [])))
        assert all(shape == shapes[0] for shape in shapes[1:]), shapes
        assert {hop.split(":")[0] for hop in shapes[0]} == {"request", "reply"}

    def test_worker_link_message_size_public(self):
        """The same, over a real balancer <-> worker-process link."""
        from repro.core.wire import FrameKind

        with WorkerCluster(2, value_size=8, security_parameter=16) as cluster:
            cluster.start()
            config = SnoopyConfig(
                num_load_balancers=2, num_suborams=2, value_size=8,
                security_parameter=16, execution_backend="serial",
            )
            round_trip, observed = cluster._round_trip, []

            def spy(index, kind, payload, expect_kind):
                reply = round_trip(index, kind, payload, expect_kind)
                if kind == FrameKind.BATCH:
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
        assert len(shapes[0]) == 4  # L x S batches per epoch
        assert all(shape == shapes[0] for shape in shapes[1:]), shapes


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
        """Distributed and in-process deployments agree over many epochs."""
        from repro.crypto.keys import KeyChain

        rng = random.Random(42)
        keychain = KeyChain(b"equivalence-master-key-012345678")
        config = SnoopyConfig(
            num_load_balancers=1, num_suborams=3, value_size=4,
            security_parameter=16,
        )
        objects = {k: bytes([k]) * 4 for k in range(30)}
        distributed = DistributedSnoopy(config, keychain=keychain,
                                        rng=random.Random(1))
        distributed.initialize(dict(objects))
        local = Snoopy(config, keychain=KeyChain(b"equivalence-master-key-012345678"),
                       rng=random.Random(1))
        local.initialize(dict(objects))

        for _ in range(6):
            requests = []
            for i in range(rng.randrange(1, 10)):
                key = rng.randrange(30)
                if rng.random() < 0.5:
                    requests.append(
                        Request(OpType.WRITE, key, bytes([rng.randrange(256)]) * 4, seq=i)
                    )
                else:
                    requests.append(Request(OpType.READ, key, seq=i))
            d = {r.seq: r.value for r in distributed.batch(list(requests))}
            l = {r.seq: r.value for r in local.batch(list(requests))}
            assert d == l


class TestOneDefaultPerAxis:
    """Every constructor serves the path its config (or none) names."""

    @pytest.mark.parametrize("replication", [None, (1, 0)])
    def test_distributed_threads_config_crypto_and_kernel(self, replication):
        """Regression: the attested deployment used to drop ``crypto``."""
        deployment = make_deployment(
            crypto="scalar", kernel="python", replication=replication
        )
        suborams = [
            replica.suboram
            for group in deployment.suborams
            for replica in getattr(group, "replicas", [])
        ] or deployment.suborams
        assert {s.crypto for s in suborams} == {"scalar"}
        assert {s.kernel.name for s in suborams} == {"python"}
        assert deployment.read(5) == bytes([5]) * 8

    def test_omitted_selectors_equal_the_config_default(self):
        default = SnoopyConfig()
        bare = SubOram(0, 16)
        replica = ReplicatedSubOram(0, 16).replicas[0].suboram
        cluster = WorkerCluster(1, value_size=16)  # never started
        for built in (bare, replica):
            assert built.crypto == default.crypto
            assert built.kernel.name == default.kernel
        assert (cluster.kernel, cluster.crypto) == (
            default.kernel, default.crypto
        )
        with DistributedSnoopy(default) as deployment:
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
