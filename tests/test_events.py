"""Tests for the epoch-level discrete-event simulator."""

import random

import pytest

from repro.sim.events import EpochSimConfig, EpochSimulator
from repro.workloads import poisson_arrivals


def simulate(rate=1000, duration=5.0, epoch_duration=0.2, **config_kwargs):
    config = EpochSimConfig(
        num_suborams=4,
        num_objects=200_000,
        epoch_duration=epoch_duration,
        **config_kwargs,
    )
    sim = EpochSimulator(config)
    return sim.run(poisson_arrivals(rate, duration, random.Random(1)))


class TestSimulation:
    def test_all_requests_complete(self):
        stats = simulate(rate=500, duration=2.0)
        assert 800 < stats.count < 1200  # ~ rate * duration

    def test_empty_arrivals(self):
        sim = EpochSimulator(EpochSimConfig())
        assert sim.run([]).count == 0

    def test_latency_at_least_wait_plus_processing(self):
        stats = simulate()
        assert stats.mean > 0.05  # at least some epoch waiting

    def test_eq2_bound_under_sustainable_load(self):
        """Eq. (2): mean latency <= 5T/2 when the pipeline keeps up."""
        stats = simulate(rate=1000, duration=5.0)
        assert stats.mean <= 5 * 0.2 / 2

    def test_overload_blows_the_bound(self):
        """Offered load beyond capacity queues up and violates Eq. (2)."""
        stats = simulate(rate=120_000, duration=3.0)
        assert stats.mean > 5 * 0.2 / 2

    def test_longer_epochs_raise_latency(self):
        short = simulate(epoch_duration=0.1)
        # replace default epoch via kwargs trick: EpochSimConfig epoch set
        long = EpochSimulator(
            EpochSimConfig(num_suborams=4, num_objects=200_000, epoch_duration=0.8)
        ).run(poisson_arrivals(1000, 5.0, random.Random(1)))
        assert long.mean > short.mean

    def test_percentiles_ordered(self):
        stats = simulate()
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum


class TestMetrics:
    def test_latency_stats(self):
        from repro.sim.metrics import LatencyStats, throughput

        stats = LatencyStats()
        stats.extend([0.1, 0.2, 0.3, 0.4])
        assert stats.mean == pytest.approx(0.25)
        assert stats.p50 == 0.2
        assert stats.maximum == 0.4
        assert throughput(100, 2.0) == 50.0
        assert throughput(100, 0) == 0.0

    def test_empty_stats(self):
        from repro.sim.metrics import LatencyStats

        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.p95 == 0.0
        assert stats.maximum == 0.0
