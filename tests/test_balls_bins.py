"""Tests for the Theorem 3 batch-size bound."""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.balls_bins import (
    _batch_size_bound,
    batch_size,
    batch_size_cache_clear,
    batch_size_cache_info,
    lambert_w0,
    log_overflow_probability,
    overflow_probability,
    security_bits,
)
from repro.errors import ConfigurationError


class TestBatchSize:
    def test_zero_requests(self):
        assert batch_size(0, 5) == 0

    def test_single_bin_is_exact(self):
        assert batch_size(1000, 1) == 1000

    def test_lambda_zero_is_mean(self):
        assert batch_size(1000, 10, security_parameter=0) == 100
        assert batch_size(1001, 10, security_parameter=0) == 101

    def test_never_exceeds_r(self):
        for r in (1, 10, 100, 1000):
            for s in (1, 2, 10, 20):
                assert batch_size(r, s) <= r

    def test_at_least_mean(self):
        for r in (100, 1000, 10000):
            for s in (2, 10, 20):
                assert batch_size(r, s) >= math.ceil(r / s)

    def test_monotone_in_requests(self):
        sizes = [batch_size(r, 10) for r in range(100, 20000, 500)]
        assert sizes == sorted(sizes)

    def test_monotone_in_lambda(self):
        for lam_lo, lam_hi in [(0, 80), (80, 128)]:
            assert batch_size(10000, 10, lam_lo) <= batch_size(10000, 10, lam_hi)

    def test_small_r_degenerates_to_r(self):
        # Tiny workloads can't beat the trivial bound.
        assert batch_size(5, 10, 128) == 5

    def test_paper_overhead_anchor(self):
        """Fig. 3: ~50% dummy overhead at R=10K, S=10, lambda=128."""
        b = batch_size(10_000, 10, 128)
        overhead = (10 * b - 10_000) / 10_000
        assert 0.3 < overhead < 0.7

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            batch_size(10, 0)
        with pytest.raises(ConfigurationError):
            batch_size(-1, 5)
        with pytest.raises(ConfigurationError):
            batch_size(10, 5, security_parameter=-1)


class TestBatchSizeCache:
    def test_repeat_calls_hit_the_cache(self):
        batch_size_cache_clear()
        assert batch_size(10_000, 10) == batch_size(10_000, 10)
        info = batch_size_cache_info()
        assert info.misses == 1
        assert info.hits == 1

    def test_default_and_explicit_lambda_share_an_entry(self):
        batch_size_cache_clear()
        batch_size(10_000, 10)
        batch_size(10_000, 10, 128)
        batch_size(10_000, 10, security_parameter=128)
        info = batch_size_cache_info()
        assert info.misses == 1
        assert info.hits == 2

    def test_validation_still_raises_after_a_cached_hit(self):
        batch_size_cache_clear()
        batch_size(10_000, 10)
        with pytest.raises(ConfigurationError):
            batch_size(-1, 10)
        with pytest.raises(ConfigurationError):
            batch_size(10_000, 0)

    def test_cache_clear_resets_counts(self):
        batch_size(10_000, 10)
        batch_size_cache_clear()
        info = batch_size_cache_info()
        assert info.hits == 0
        assert info.misses == 0
        assert info.currsize == 0


class TestOverflowProbability:
    def test_bound_holds_at_batch_size(self):
        """The defining property: P[overflow] <= 2^-lambda at B=f(R,S)."""
        for r, s, lam in [(10_000, 10, 128), (5_000, 20, 80), (100_000, 16, 128)]:
            b = batch_size(r, s, lam)
            if b < r:  # non-degenerate regime
                assert security_bits(r, s, b) >= lam

    def test_capacity_at_r_is_impossible_overflow(self):
        assert overflow_probability(100, 4, 100) == 0.0
        assert log_overflow_probability(100, 4, 100) == float("-inf")

    def test_capacity_at_mean_is_vacuous(self):
        assert log_overflow_probability(1000, 10, 100) == 0.0

    def test_monotone_decreasing_in_capacity(self):
        probs = [
            log_overflow_probability(10_000, 10, c) for c in range(1100, 2000, 100)
        ]
        assert probs == sorted(probs, reverse=True)

    def test_empirical_no_overflow(self):
        """Simulated balls-into-bins never exceeds f(R,S) at lambda=40."""
        rng = random.Random(123)
        r, s = 2000, 8
        b = batch_size(r, s, security_parameter=40)
        for _ in range(200):
            counts = [0] * s
            for _ in range(r):
                counts[rng.randrange(s)] += 1
            assert max(counts) <= b

    def test_empirical_quantile_below_bound(self):
        """f(R,S) sits above the empirical maximum with margin."""
        rng = random.Random(7)
        r, s = 5000, 10
        maxima = []
        for _ in range(100):
            counts = [0] * s
            for _ in range(r):
                counts[rng.randrange(s)] += 1
            maxima.append(max(counts))
        assert batch_size(r, s, 128) > max(maxima)
        # ...but is not absurdly loose: within 2.5x of the mean load.
        assert batch_size(r, s, 128) < 2.5 * (r / s)

    @given(
        st.integers(min_value=1, max_value=200_000),
        st.integers(min_value=1, max_value=50),
        st.sampled_from([0, 40, 80, 128]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bounds(self, r, s, lam):
        b = batch_size(r, s, lam)
        assert math.ceil(r / s) <= b <= r


#: ``(R, S, lambda, batch_size)`` computed with ``scipy.special.lambertw``
#: before the pure-Python W0 replaced it; every cell must stay equal.
PINNED_BATCH_SIZES = (
    (1, 2, 1, 1), (1, 2, 8, 1), (1, 2, 20, 1), (1, 2, 128, 1),
    (1, 2, 256, 1), (1, 3, 1, 1), (1, 3, 8, 1), (1, 3, 20, 1),
    (1, 3, 128, 1), (1, 3, 256, 1), (1, 8, 1, 1), (1, 8, 8, 1),
    (1, 8, 20, 1), (1, 8, 128, 1), (1, 8, 256, 1), (1, 64, 1, 1),
    (1, 64, 8, 1), (1, 64, 20, 1), (1, 64, 128, 1), (1, 64, 256, 1),
    (1, 1000, 1, 1), (1, 1000, 8, 1), (1, 1000, 20, 1), (1, 1000, 128, 1),
    (1, 1000, 256, 1), (1, 4096, 1, 1), (1, 4096, 8, 1), (1, 4096, 20, 1),
    (1, 4096, 128, 1), (1, 4096, 256, 1), (2, 2, 1, 2), (2, 2, 8, 2),
    (2, 2, 20, 2), (2, 2, 128, 2), (2, 2, 256, 2), (2, 3, 1, 2),
    (2, 3, 8, 2), (2, 3, 20, 2), (2, 3, 128, 2), (2, 3, 256, 2),
    (2, 8, 1, 2), (2, 8, 8, 2), (2, 8, 20, 2), (2, 8, 128, 2),
    (2, 8, 256, 2), (2, 64, 1, 2), (2, 64, 8, 2), (2, 64, 20, 2),
    (2, 64, 128, 2), (2, 64, 256, 2), (2, 1000, 1, 2), (2, 1000, 8, 2),
    (2, 1000, 20, 2), (2, 1000, 128, 2), (2, 1000, 256, 2), (2, 4096, 1, 2),
    (2, 4096, 8, 2), (2, 4096, 20, 2), (2, 4096, 128, 2), (2, 4096, 256, 2),
    (3, 2, 1, 3), (3, 2, 8, 3), (3, 2, 20, 3), (3, 2, 128, 3),
    (3, 2, 256, 3), (3, 3, 1, 3), (3, 3, 8, 3), (3, 3, 20, 3),
    (3, 3, 128, 3), (3, 3, 256, 3), (3, 8, 1, 3), (3, 8, 8, 3),
    (3, 8, 20, 3), (3, 8, 128, 3), (3, 8, 256, 3), (3, 64, 1, 2),
    (3, 64, 8, 3), (3, 64, 20, 3), (3, 64, 128, 3), (3, 64, 256, 3),
    (3, 1000, 1, 2), (3, 1000, 8, 3), (3, 1000, 20, 3), (3, 1000, 128, 3),
    (3, 1000, 256, 3), (3, 4096, 1, 2), (3, 4096, 8, 3), (3, 4096, 20, 3),
    (3, 4096, 128, 3), (3, 4096, 256, 3), (5, 2, 1, 5), (5, 2, 8, 5),
    (5, 2, 20, 5), (5, 2, 128, 5), (5, 2, 256, 5), (5, 3, 1, 5),
    (5, 3, 8, 5), (5, 3, 20, 5), (5, 3, 128, 5), (5, 3, 256, 5),
    (5, 8, 1, 4), (5, 8, 8, 5), (5, 8, 20, 5), (5, 8, 128, 5),
    (5, 8, 256, 5), (5, 64, 1, 3), (5, 64, 8, 4), (5, 64, 20, 5),
    (5, 64, 128, 5), (5, 64, 256, 5), (5, 1000, 1, 2), (5, 1000, 8, 3),
    (5, 1000, 20, 4), (5, 1000, 128, 5), (5, 1000, 256, 5), (5, 4096, 1, 2),
    (5, 4096, 8, 3), (5, 4096, 20, 4), (5, 4096, 128, 5), (5, 4096, 256, 5),
    (8, 2, 1, 8), (8, 2, 8, 8), (8, 2, 20, 8), (8, 2, 128, 8),
    (8, 2, 256, 8), (8, 3, 1, 7), (8, 3, 8, 8), (8, 3, 20, 8),
    (8, 3, 128, 8), (8, 3, 256, 8), (8, 8, 1, 5), (8, 8, 8, 8),
    (8, 8, 20, 8), (8, 8, 128, 8), (8, 8, 256, 8), (8, 64, 1, 3),
    (8, 64, 8, 4), (8, 64, 20, 7), (8, 64, 128, 8), (8, 64, 256, 8),
    (8, 1000, 1, 2), (8, 1000, 8, 3), (8, 1000, 20, 4), (8, 1000, 128, 8),
    (8, 1000, 256, 8), (8, 4096, 1, 2), (8, 4096, 8, 3), (8, 4096, 20, 4),
    (8, 4096, 128, 8), (8, 4096, 256, 8), (13, 2, 1, 12), (13, 2, 8, 13),
    (13, 2, 20, 13), (13, 2, 128, 13), (13, 2, 256, 13), (13, 3, 1, 9),
    (13, 3, 8, 13), (13, 3, 20, 13), (13, 3, 128, 13), (13, 3, 256, 13),
    (13, 8, 1, 6), (13, 8, 8, 9), (13, 8, 20, 13), (13, 8, 128, 13),
    (13, 8, 256, 13), (13, 64, 1, 3), (13, 64, 8, 5), (13, 64, 20, 8),
    (13, 64, 128, 13), (13, 64, 256, 13), (13, 1000, 1, 2), (13, 1000, 8, 3),
    (13, 1000, 20, 5), (13, 1000, 128, 13), (13, 1000, 256, 13), (13, 4096, 1, 2),
    (13, 4096, 8, 3), (13, 4096, 20, 4), (13, 4096, 128, 13), (13, 4096, 256, 13),
    (50, 2, 1, 34), (50, 2, 8, 45), (50, 2, 20, 50), (50, 2, 128, 50),
    (50, 2, 256, 50), (50, 3, 1, 25), (50, 3, 8, 34), (50, 3, 20, 44),
    (50, 3, 128, 50), (50, 3, 256, 50), (50, 8, 1, 14), (50, 8, 8, 19),
    (50, 8, 20, 26), (50, 8, 128, 50), (50, 8, 256, 50), (50, 64, 1, 5),
    (50, 64, 8, 8), (50, 64, 20, 11), (50, 64, 128, 34), (50, 64, 256, 50),
    (50, 1000, 1, 3), (50, 1000, 8, 4), (50, 1000, 20, 6), (50, 1000, 128, 20),
    (50, 1000, 256, 34), (50, 4096, 1, 3), (50, 4096, 8, 4), (50, 4096, 20, 5),
    (50, 4096, 128, 16), (50, 4096, 256, 28), (100, 2, 1, 63), (100, 2, 8, 77),
    (100, 2, 20, 93), (100, 2, 128, 100), (100, 2, 256, 100), (100, 3, 1, 45),
    (100, 3, 8, 57), (100, 3, 20, 70), (100, 3, 128, 100), (100, 3, 256, 100),
    (100, 8, 1, 22), (100, 8, 8, 29), (100, 8, 20, 38), (100, 8, 128, 86),
    (100, 8, 256, 100), (100, 64, 1, 7), (100, 64, 8, 10), (100, 64, 20, 14),
    (100, 64, 128, 41), (100, 64, 256, 66), (100, 1000, 1, 4), (100, 1000, 8, 5),
    (100, 1000, 20, 7), (100, 1000, 128, 22), (100, 1000, 256, 38), (100, 4096, 1, 3),
    (100, 4096, 8, 4), (100, 4096, 20, 6), (100, 4096, 128, 18), (100, 4096, 256, 31),
    (257, 2, 1, 148), (257, 2, 8, 171), (257, 2, 20, 195), (257, 2, 128, 257),
    (257, 2, 256, 257), (257, 3, 1, 104), (257, 3, 8, 122), (257, 3, 20, 142),
    (257, 3, 128, 237), (257, 3, 256, 257), (257, 8, 1, 47), (257, 8, 8, 57),
    (257, 8, 20, 70), (257, 8, 128, 135), (257, 8, 256, 190), (257, 64, 1, 12),
    (257, 64, 8, 16), (257, 64, 20, 22), (257, 64, 128, 55), (257, 64, 256, 87),
    (257, 1000, 1, 5), (257, 1000, 8, 6), (257, 1000, 20, 9), (257, 1000, 128, 27),
    (257, 1000, 256, 45), (257, 4096, 1, 4), (257, 4096, 8, 5), (257, 4096, 20, 7),
    (257, 4096, 128, 21), (257, 4096, 256, 35), (1000, 2, 1, 538), (1000, 2, 8, 582),
    (1000, 2, 20, 626), (1000, 2, 128, 828), (1000, 2, 256, 978), (1000, 3, 1, 369),
    (1000, 3, 8, 403), (1000, 3, 20, 439), (1000, 3, 128, 607), (1000, 3, 256, 734),
    (1000, 8, 1, 153), (1000, 8, 8, 172), (1000, 8, 20, 194), (1000, 8, 128, 304),
    (1000, 8, 256, 391), (1000, 64, 1, 30), (1000, 64, 8, 37), (1000, 64, 20, 45),
    (1000, 64, 128, 96), (1000, 64, 256, 140), (1000, 1000, 1, 7), (1000, 1000, 8, 10),
    (1000, 1000, 20, 13), (1000, 1000, 128, 37), (1000, 1000, 256, 60), (1000, 4096, 1, 5),
    (1000, 4096, 8, 7), (1000, 4096, 20, 9), (1000, 4096, 128, 27), (1000, 4096, 256, 45),
    (4096, 2, 1, 2124), (4096, 2, 8, 2210), (4096, 2, 20, 2297), (4096, 2, 128, 2683),
    (4096, 2, 256, 2960), (4096, 3, 1, 1436), (4096, 3, 8, 1503), (4096, 3, 20, 1573),
    (4096, 3, 128, 1890), (4096, 3, 256, 2121), (4096, 8, 1, 567), (4096, 8, 8, 603),
    (4096, 8, 20, 645), (4096, 8, 128, 846), (4096, 8, 256, 998), (4096, 64, 1, 91),
    (4096, 64, 8, 103), (4096, 64, 20, 118), (4096, 64, 128, 201), (4096, 64, 256, 270),
    (4096, 1000, 1, 15), (4096, 1000, 8, 18), (4096, 1000, 20, 23), (4096, 1000, 128, 57),
    (4096, 1000, 256, 88), (4096, 4096, 1, 8), (4096, 4096, 8, 10), (4096, 4096, 20, 14),
    (4096, 4096, 128, 37), (4096, 4096, 256, 60), (10007, 2, 1, 5122), (10007, 2, 8, 5256),
    (10007, 2, 20, 5390), (10007, 2, 128, 5979), (10007, 2, 256, 6397), (10007, 3, 1, 3446),
    (10007, 3, 8, 3549), (10007, 3, 20, 3657), (10007, 3, 128, 4140), (10007, 3, 256, 4486),
    (10007, 8, 1, 1336), (10007, 8, 8, 1392), (10007, 8, 20, 1456), (10007, 8, 128, 1757),
    (10007, 8, 256, 1979), (10007, 64, 1, 197), (10007, 64, 8, 215), (10007, 64, 20, 238),
    (10007, 64, 128, 356), (10007, 64, 256, 450), (10007, 1000, 1, 25), (10007, 1000, 8, 30),
    (10007, 1000, 20, 37), (10007, 1000, 128, 80), (10007, 1000, 256, 119), (10007, 4096, 1, 12),
    (10007, 4096, 8, 15), (10007, 4096, 20, 19), (10007, 4096, 128, 48), (10007, 4096, 256, 76),
    (65536, 2, 1, 33070), (65536, 2, 8, 33410), (65536, 2, 20, 33750), (65536, 2, 128, 35219),
    (65536, 2, 256, 36244), (65536, 3, 1, 22126), (65536, 3, 8, 22387), (65536, 3, 20, 22659),
    (65536, 3, 128, 23857), (65536, 3, 256, 24698), (65536, 8, 1, 8407), (65536, 8, 8, 8548),
    (65536, 8, 20, 8709), (65536, 8, 128, 9442), (65536, 8, 256, 9966), (65536, 64, 1, 1126),
    (65536, 64, 8, 1169), (65536, 64, 20, 1223), (65536, 64, 128, 1491), (65536, 64, 256, 1692),
    (65536, 1000, 1, 100), (65536, 1000, 8, 110), (65536, 1000, 20, 125), (65536, 1000, 128, 207),
    (65536, 1000, 256, 275), (65536, 4096, 1, 36), (65536, 4096, 8, 42), (65536, 4096, 20, 50),
    (65536, 4096, 128, 99), (65536, 4096, 256, 143), (200000, 2, 1, 100528), (200000, 2, 8, 101120),
    (200000, 2, 20, 101712), (200000, 2, 128, 104259), (200000, 2, 256, 106028), (200000, 3, 1, 67157),
    (200000, 3, 8, 67611), (200000, 3, 20, 68085), (200000, 3, 128, 70158), (200000, 3, 256, 71605),
    (200000, 8, 1, 25374), (200000, 8, 8, 25620), (200000, 8, 20, 25899), (200000, 8, 128, 27161),
    (200000, 8, 256, 28056), (200000, 64, 1, 3301), (200000, 64, 8, 3375), (200000, 64, 20, 3467),
    (200000, 64, 128, 3918), (200000, 64, 256, 4250), (200000, 1000, 1, 258), (200000, 1000, 8, 275),
    (200000, 1000, 20, 298), (200000, 1000, 128, 426), (200000, 1000, 256, 528), (200000, 4096, 1, 82),
    (200000, 4096, 8, 90), (200000, 4096, 20, 103), (200000, 4096, 128, 175), (200000, 4096, 256, 237),
)


class TestLambertW:
    def test_pinned_batch_sizes(self):
        assert len(PINNED_BATCH_SIZES) >= 200
        for r, s, lam, expected in PINNED_BATCH_SIZES:
            assert batch_size(r, s, lam) == expected, (r, s, lam)

    def test_inverts_w_exp_w(self):
        for x in (-1 / math.e, -0.3, -1e-9, 1e-9, 0.5, 1.0, math.e, 1e3,
                  1e12):
            w = lambert_w0(x)
            assert w >= -1.0
            assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-15)

    def test_matches_scipy_on_a_grid(self):
        """The batch-size bound on a (R, S, lambda) grid against scipy."""
        lambertw = pytest.importorskip("scipy.special").lambertw

        def oracle(r, s, lam):
            mu = r / s
            gamma = math.log(s) + lam * math.log(2.0)
            w = float(lambertw((gamma / mu - 1.0) / math.e, 0).real)
            return min(r, math.ceil(mu * math.exp(w + 1.0)))

        for lam in (1, 8, 20, 40, 64, 80, 128, 256):
            for s in (2, 3, 5, 16, 61, 256, 1000, 4096):
                for r in list(range(1, 400, 7)) + list(range(400, 200_001, 4999)):
                    assert (
                        _batch_size_bound.__wrapped__(r, s, lam)
                        == oracle(r, s, lam)
                    ), (r, s, lam)

    def test_server_import_leaves_scipy_out(self):
        code = (
            "import sys, repro.serve.server; "
            "print('scipy' in sys.modules)"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == "False"
