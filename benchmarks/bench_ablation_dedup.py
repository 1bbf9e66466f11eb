"""Ablation: deduplication is what makes f(R,S) < R safe (§4.1).

Without dedup, an all-duplicates workload forces every request into one
subORAM, so the only safe batch size is B = R ("a simple way to satisfy
security would be to set f(R,S) = R") — every subORAM then processes R
requests.  With dedup, duplicates collapse and Theorem 3 applies.  This
bench runs the *functional* load balancer both ways and counts actual
subORAM work.
"""

import random

import pytest

from repro.analysis.balls_bins import batch_size
from repro.loadbalancer.batching import generate_batches
from repro.types import OpType, Request

from conftest import report

KEY = b"ablation-sharding-key-0123456789"
R = 512
S = 8


def skewed_requests():
    return [Request(OpType.READ, 7, seq=i) for i in range(R)]


def uniform_requests():
    rng = random.Random(1)
    return [
        Request(OpType.READ, rng.randrange(10**6), seq=i) for i in range(R)
    ]


def test_ablation_dedup(benchmark):
    batches, _, size = benchmark(
        generate_batches, skewed_requests(), S, KEY, 32, value_size=1
    )

    with_dedup_work = S * size
    without_dedup_work = S * R  # f(R,S)=R is the only safe no-dedup size
    lines = [
        f"workload: {R} requests, all for one object, {S} subORAMs",
        f"  with dedup   : B = f(R,S) = {size}; total subORAM work "
        f"{with_dedup_work} request-slots",
        f"  without dedup: B must be R = {R}; total subORAM work "
        f"{without_dedup_work} request-slots",
        f"  saving: {without_dedup_work / with_dedup_work:.1f}x",
    ]
    report("Ablation — deduplication under skew", "\n".join(lines))

    assert size == batch_size(R, S, 32)
    assert with_dedup_work < without_dedup_work / 2


def test_dedup_collapses_skew_to_one_real_request():
    batches, _, _ = generate_batches(
        skewed_requests(), S, KEY, 32, value_size=1
    )
    assert sum(int((~b.is_dummy).sum()) for b in batches) == 1


def test_uniform_workload_same_shape_as_skewed():
    """Whatever the workload, every subORAM sees exactly B entries."""
    skew_batches, _, skew_size = generate_batches(
        skewed_requests(), S, KEY, 32, value_size=1
    )
    uni_batches, _, uni_size = generate_batches(
        uniform_requests(), S, KEY, 32, value_size=1
    )
    assert skew_size == uni_size
    assert [len(b) for b in skew_batches] == [len(b) for b in uni_batches]
