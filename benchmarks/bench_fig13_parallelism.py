"""Figure 13: thread parallelism in bitonic sort and subORAM batches.

Paper: (a) multi-thread bitonic sort wins for large inputs but loses to a
single thread below a crossover, motivating the adaptive strategy; (b)
extra enclave threads cut subORAM batch processing (batch 4K).

Both series come from the cost model.  Measured throughput and latency
come from the served benchmark (``python3 bench/run.py``).
"""

from repro.sim.costmodel import adaptive_sort_time, sort_time, suboram_time

from conftest import report

SORT_SIZES = [2**10, 2**12, 2**14, 2**16]
DATA_SIZES = [2**12, 2**15, 2**18, 2**21]
BATCH = 4096


def test_fig13a_sort_parallelism(benchmark):
    benchmark(sort_time, 2**16, 3)

    lines = ["objects  1 thread    2 threads   3 threads   adaptive"]
    for n in SORT_SIZES:
        t1, t2, t3 = (sort_time(n, t) for t in (1, 2, 3))
        ta = adaptive_sort_time(n, 3)
        lines.append(
            f"2^{n.bit_length() - 1:<5} {t1 * 1e3:>9.1f}ms {t2 * 1e3:>10.1f}ms "
            f"{t3 * 1e3:>10.1f}ms {ta * 1e3:>9.1f}ms"
        )
    report("Fig 13a — bitonic sort parallelism", "\n".join(lines))

    # Crossover: single thread wins small, three threads win large.
    assert sort_time(2**8, 1) < sort_time(2**8, 3)
    assert sort_time(2**16, 3) < sort_time(2**16, 1)
    # Adaptive is never worse than either fixed strategy.
    for n in SORT_SIZES:
        assert adaptive_sort_time(n, 3) <= min(sort_time(n, t) for t in (1, 2, 3))


def test_fig13b_suboram_parallelism(benchmark):
    benchmark(suboram_time, BATCH, 2**18)

    lines = ["objects  1 thread     2 threads    3 threads"]
    for n in DATA_SIZES:
        ts = [suboram_time(BATCH, n, threads=t) for t in (1, 2, 3)]
        lines.append(
            f"2^{n.bit_length() - 1:<5} "
            + " ".join(f"{t * 1e3:>10.1f}ms" for t in ts)
        )
    report("Fig 13b — subORAM batch parallelism (batch 4K)", "\n".join(lines))

    for n in DATA_SIZES[1:]:
        t1 = suboram_time(BATCH, n, threads=1)
        t3 = suboram_time(BATCH, n, threads=3)
        assert t3 < t1
        # Speedup approaches but does not exceed 3x.
        assert t1 / t3 <= 3.001

