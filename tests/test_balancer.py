"""Tests for the LoadBalancer entity, driven through an L=1 deployment."""

import pytest

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.errors import ConfigurationError
from repro.loadbalancer.balancer import LoadBalancer
from repro.types import OpType, Request

KEY = b"sharding-key-0123456789abcdef..."


def make_deployment(num_suborams=2, num_objects=30):
    """A one-balancer store; returns ``(balancer, store)``."""
    store = Snoopy(SnoopyConfig(
        num_load_balancers=1, num_suborams=num_suborams, value_size=4,
        security_parameter=16, execution_backend="serial",
    ))
    store.initialize({k: bytes([k % 256]) * 4 for k in range(num_objects)})
    return store.load_balancers[0], store


class TestEpochs:
    def test_empty_epoch(self):
        balancer, store = make_deployment()
        assert store.run_epoch() == []
        assert balancer.epochs_processed == 0
        assert store.counter.value == 0

    def test_queue_drained_each_epoch(self):
        balancer, store = make_deployment()
        store.submit(Request(OpType.READ, 1, seq=0))
        assert balancer.pending == 1
        store.run_epoch()
        assert balancer.pending == 0
        assert balancer.epochs_processed == 1

    def test_submit_returns_arrival_index(self):
        balancer = LoadBalancer(0, 2, KEY, value_size=4, security_parameter=16)
        assert balancer.submit(Request(OpType.READ, 1)) == 0
        assert balancer.submit(Request(OpType.READ, 2)) == 1

    def test_read_write_cycle(self):
        _, store = make_deployment()

        store.submit(Request(OpType.WRITE, 5, b"abcd", seq=0))
        [w] = store.run_epoch()
        assert w.value == bytes([5]) * 4

        store.submit(Request(OpType.READ, 5, seq=1))
        [r] = store.run_epoch()
        assert r.value == b"abcd"

    def test_many_requests_one_epoch(self, rng):
        _, store = make_deployment(num_suborams=3)
        keys = [rng.randrange(30) for _ in range(25)]
        for i, k in enumerate(keys):
            store.submit(Request(OpType.READ, k, seq=i))
        results = store.run_epoch()
        assert [r.key for r in results] == keys
        assert all(r.value == bytes([r.key % 256]) * 4 for r in results)

    def test_rejects_zero_suborams(self):
        with pytest.raises(ConfigurationError):
            LoadBalancer(0, 0, KEY, value_size=4)
