"""Tests for the SnoopyClient protocol, Client wrapper, and history recording."""

import random

import pytest

from repro.core.client import Client, SnoopyClient
from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.types import OpType

from tests.harness import attested_cluster


@pytest.fixture
def store():
    s = Snoopy(
        SnoopyConfig(num_load_balancers=2, num_suborams=2, value_size=4,
                     security_parameter=16),
        rng=random.Random(1),
    )
    s.initialize({k: bytes([k]) * 4 for k in range(20)})
    return s


class TestSnoopyClientProtocol:
    def test_snoopy_conforms(self, store):
        assert isinstance(store, SnoopyClient)

    def test_distributed_snoopy_conforms(self):
        """SubORAMs behind attested worker links: the same contract,
        served end to end."""
        config = SnoopyConfig(
            num_load_balancers=2, num_suborams=2, value_size=4,
            security_parameter=16,
        )
        with attested_cluster(2, value_size=4) as cluster, Snoopy(
            config, rng=random.Random(0), suboram_factory=cluster.factory
        ) as dist:
            assert isinstance(dist, SnoopyClient)
            dist.initialize({k: bytes([k]) * 4 for k in range(8)})
            assert dist.write(3, b"wwww") == bytes([3]) * 4
            assert dist.read(3) == b"wwww"

    def test_network_client_conforms_structurally(self):
        from repro.serve.netclient import NetworkSnoopyClient

        # Structural check without a live server: the protocol is about
        # method presence, which isinstance on an instance would also
        # verify — assert the class defines the full surface.
        for name in ("submit", "read", "write", "batch", "close",
                     "__enter__", "__exit__"):
            assert callable(getattr(NetworkSnoopyClient, name))

    def test_plain_object_does_not_conform(self):
        assert not isinstance(object(), SnoopyClient)

    def test_protocol_is_transport_agnostic(self, store):
        def exercise(client: SnoopyClient) -> bytes:
            with client:
                prior = client.write(5, b"QRST")
                assert prior == bytes([5]) * 4
                return client.read(5)

        assert exercise(store) == b"QRST"


class TestSyncApi:
    def test_read(self, store):
        client = Client(store)
        assert client.read(3) == bytes([3]) * 4

    def test_write_returns_prior(self, store):
        client = Client(store)
        assert client.write(3, b"abcd") == bytes([3]) * 4
        assert client.read(3) == b"abcd"


class TestHistoryRecording:
    def test_operations_recorded_with_epochs(self, store):
        client = Client(store)
        client.read(1)
        client.write(2, b"abcd")
        assert len(client.history) == 2
        read_op, write_op = client.history
        assert read_op.op is OpType.READ
        assert write_op.op is OpType.WRITE
        assert write_op.written == b"abcd"
        assert read_op.start_epoch < read_op.end_epoch

    def test_balancer_and_arrival_recorded(self, store):
        client = Client(store)
        client.submit_read(1, load_balancer=1)
        client.complete(store.run_epoch())
        [op] = client.history
        assert op.load_balancer == 1
        assert op.arrival == 0

    def test_complete_ignores_other_clients(self, store):
        alice = Client(store, client_id=100)
        bob = Client(store, client_id=200)
        alice.submit_read(1)
        bob.submit_read(2)
        responses = store.run_epoch()
        alice.complete(responses)
        bob.complete(responses)
        assert len(alice.history) == 1
        assert alice.history[0].key == 1
        assert len(bob.history) == 1
        assert bob.history[0].key == 2

    def test_complete_ignores_unknown_seq(self, store):
        client = Client(store, client_id=5)
        from repro.types import Response

        client.complete([Response(key=1, value=b"x", client_id=5, seq=999)])
        assert client.history == []

    def test_client_ids_unique_by_default(self, store):
        a, b = Client(store), Client(store)
        assert a.client_id != b.client_id

    def test_pending_cleared_after_completion(self, store):
        client = Client(store)
        seq = client.submit_read(1)
        assert seq in client._pending
        client.complete(store.run_epoch())
        assert seq not in client._pending
