"""Tests for the virtual-clock runtime."""

import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.sim.runtime import SnoopyRuntime
from repro.types import OpType, Request
from repro.workloads import poisson_arrivals


@pytest.fixture
def runtime():
    store = Snoopy(
        SnoopyConfig(
            num_load_balancers=1,
            num_suborams=2,
            value_size=4,
            security_parameter=16,
            epoch_duration=0.2,
        ),
        rng=random.Random(1),
    )
    store.initialize({k: bytes([k]) * 4 for k in range(30)})
    return SnoopyRuntime(store)


def timed_workload(rate, duration, num_keys=30, seed=2):
    rng = random.Random(seed)
    timed = []
    for seq, arrival in enumerate(poisson_arrivals(rate, duration, rng)):
        key = rng.randrange(num_keys)
        if rng.random() < 0.3:
            request = Request(OpType.WRITE, key, bytes([seq % 256]) * 4, seq=seq)
        else:
            request = Request(OpType.READ, key, seq=seq)
        timed.append((arrival, request))
    return timed


class TestRuntime:
    def test_all_requests_answered_with_real_values(self, runtime):
        workload = timed_workload(rate=40, duration=1.0)
        result = runtime.run(workload)
        assert len(result.responses) == len(workload)
        for response in result.responses:
            assert response.value is not None

    def test_latency_positive_and_bounded(self, runtime):
        result = runtime.run(timed_workload(rate=40, duration=1.0))
        assert result.latency.count == result.latency.count
        assert result.latency.mean > 0
        # Under light load, Eq. (2)'s 5T/2 envelope holds.
        assert result.latency.mean <= 5 * 0.2 / 2

    def test_empty_workload(self, runtime):
        result = runtime.run([])
        assert result.responses == []
        assert result.epochs == 0

    def test_epoch_count(self, runtime):
        # Arrivals only in the first two epochs.
        workload = [
            (0.05, Request(OpType.READ, 1, seq=0)),
            (0.15, Request(OpType.READ, 2, seq=1)),
            (0.25, Request(OpType.READ, 3, seq=2)),
        ]
        result = runtime.run(workload)
        assert result.epochs == 2
        assert len(result.responses) == 3

    def test_throughput_accounting(self, runtime):
        result = runtime.run(timed_workload(rate=50, duration=2.0))
        assert result.throughput > 0
        assert result.virtual_duration >= 2.0

    def test_values_consistent_with_semantics(self, runtime):
        """Writes land; later epochs read them back through the runtime."""
        workload = [
            (0.05, Request(OpType.WRITE, 5, b"abcd", seq=0)),
            (0.45, Request(OpType.READ, 5, seq=1)),
        ]
        result = runtime.run(workload)
        by_seq = {r.seq: r.value for r in result.responses}
        assert by_seq[0] == bytes([5]) * 4  # prior value
        assert by_seq[1] == b"abcd"
