"""Oblivious-kernel throughput: scalar python reference vs NumPy columns.

Three measurements, every row naming its ``(kernel, crypto, backend)``
cell (``None`` on an axis the row does not touch):

* **primitives** — bitonic sort and Goodrich compaction timed directly
  through the kernel API at ``m`` in {512, 1024, 2048} (the padded sizes
  the served benchmark's ``batch_rw`` shape induces: tier-1 build sort,
  tier-2 build sort, load-balancer sort), and one two-tier table build at
  capacity 121 and the paper's lambda = 128 (370 slots: a one-bucket
  tier 2 of the proven spill capacity; ``BENCH_kernels.json`` was
  written when the table had 1,245).  This isolates the data plane the
  kernels replace; the acceptance bar is >= 3x on the largest sort.
* **end-to-end epochs** — full deployments (no latency wrapper) at the
  three named cells of :data:`EPOCH_CELLS`: the all-reference cell, the
  numpy kernel on the same scalar crypto, and the numpy kernel on vector
  crypto.  Each reported speedup compares two cells that differ on
  exactly one axis (``epoch_speedup_kernel``: same crypto;
  ``epoch_speedup_crypto``: same kernel), so no number mixes axes.
* **kernel x backend** — the kernel composed with the thread execution
  backend via :func:`~repro.sim.cluster.epoch_wallclock_series`,
  confirming the two axes multiply.

A full run writes ``BENCH_kernels.json``; ``SNOOPY_BENCH_SMOKE=1`` (CI's
reduced sizes) only checks the assertions and leaves the file alone.
The end-to-end claim for these kernels is the served benchmark's
(``bench/run.py``), not this file's.
"""

import json
import os
import pathlib
import random
import time

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.oblivious.hashtable import TwoTierHashTable
from repro.oblivious.kernels import KERNELS
from repro.sim.cluster import epoch_wallclock_series
from repro.types import OpType, Request

from conftest import report

SMOKE = os.environ.get("SNOOPY_BENCH_SMOKE") == "1"

SUBORAM_COUNTS = [2, 4] if SMOKE else [2, 4, 8]
NUM_OBJECTS = 1024 if SMOKE else 4096
REQUESTS = 256 if SMOKE else 512
VALUE_SIZE = 16
SECURITY = 128
PRIMITIVE_SIZES = [512] if SMOKE else [512, 1024, 2048]
TABLE_CAPACITY = 121
# The speedup floor asserted on the largest sort (the ISSUE's acceptance
# bar); smoke sizes are too small for the full ratio, so CI only checks
# that the fast path wins at all.
KERNEL_SPEEDUP_FLOOR = 1.5 if SMOKE else 3.0

#: The end-to-end epoch rows, by result-key prefix.  Every axis is named
#: — nothing here inherits a ``SnoopyConfig`` default.
EPOCH_CELLS = {
    "python_scalar": ("python", "scalar", "serial"),
    "numpy_scalar": ("numpy", "scalar", "serial"),
    "numpy_vector": ("numpy", "vector", "serial"),
}


def _timed(fn, *args, repeats=3, **kwargs):
    """Best-of-``repeats`` wall-clock for one call."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def _primitive_rows():
    """Sort/compact at each padded size and one table build, per kernel."""
    rows = []
    for kernel in ("python", "numpy"):
        kern = KERNELS[kernel]
        cell = {"kernel": kernel, "crypto": None, "backend": None}
        for m in PRIMITIVE_SIZES:
            rng = random.Random(m)
            items = list(range(m))
            # Duplicate-heavy keys, like bucket ids: ties are the norm.
            column = [rng.randrange(m // 16) for _ in range(m)]
            flags = [rng.randrange(2) for _ in range(m)]
            rows.append({"op": "sort", "m": m, **cell,
                         "seconds": _timed(kern.sort, items, [column])})
            rows.append({"op": "compact", "m": m, **cell,
                         "seconds": _timed(kern.compact, items, flags)})
        keys = random.Random(7).sample(range(10**6), TABLE_CAPACITY)
        table = TwoTierHashTable.build(
            keys, b"bench-kernels", security_parameter=SECURITY,
            kernel=kernel,
        )
        rows.append({
            "op": "table_build", "capacity": TABLE_CAPACITY,
            "slots": table.params.total_slots, **cell,
            "seconds": _timed(
                TwoTierHashTable.build, keys, b"bench-kernels",
                security_parameter=SECURITY, kernel=kernel,
            ),
        })
    return rows


def _primitive_speedups(rows):
    """python seconds / numpy seconds per (op, size)."""
    seconds = {
        (row["op"], row.get("m", row.get("capacity")), row["kernel"]):
            row["seconds"]
        for row in rows
    }
    return {
        f"{op}@{size}": seconds[op, size, "python"]
        / max(seconds[op, size, "numpy"], 1e-9)
        for op, size, kernel in seconds
        if kernel == "numpy"
    }


def _epoch_time(kernel, crypto, backend, suborams, epochs=3):
    """Best-of-``epochs`` epoch wall-clock at one named cell.

    Best-of matches :func:`_timed`: each epoch does identical work, so
    the minimum is the least-noise estimate of the steady state.
    """
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=suborams,
        value_size=VALUE_SIZE,
        security_parameter=SECURITY,
        kernel=kernel,
        crypto=crypto,
        execution_backend=backend,
    )
    rng = random.Random(3)
    with Snoopy(config, rng=random.Random(3)) as store:
        store.initialize({k: bytes(VALUE_SIZE) for k in range(NUM_OBJECTS)})
        # Warm up at the measured shape so one-time work keyed on array
        # sizes (cached level columns, scratch allocation) happens
        # outside the clock — the timed epochs are steady state.
        for _ in range(REQUESTS):
            store.submit(
                Request(OpType.READ, rng.randrange(NUM_OBJECTS)),
                load_balancer=rng.randrange(2),
            )
        store.run_epoch()
        best = float("inf")
        for _ in range(epochs):
            for _ in range(REQUESTS):
                store.submit(
                    Request(OpType.READ, rng.randrange(NUM_OBJECTS)),
                    load_balancer=rng.randrange(2),
                )
            start = time.perf_counter()
            store.run_epoch()
            best = min(best, time.perf_counter() - start)
        return best


def test_kernel_speedup():
    """python vs numpy: primitives, table build and end-to-end epochs."""
    primitives = _primitive_rows()
    speedups = _primitive_speedups(primitives)
    lines = ["op           size   kernel   time"]
    for row in primitives:
        size = row.get("m", row.get("capacity"))
        lines.append(
            f"{row['op']:<12} {size:<6} {row['kernel']:<8} "
            f"{row['seconds'] * 1e6:>9.0f}us"
        )
    lines.append("speedup  " + "  ".join(
        f"{name}={value:.1f}x" for name, value in speedups.items()
    ))
    report("Oblivious primitives — numpy columns vs python reference",
           "\n".join(lines))

    results = {}
    for suborams in SUBORAM_COUNTS:
        row = {}
        for name, cell in EPOCH_CELLS.items():
            row[f"{name}_epoch_s"] = _epoch_time(*cell, suborams)
        row["epoch_speedup_kernel"] = (
            row["python_scalar_epoch_s"]
            / max(row["numpy_scalar_epoch_s"], 1e-9)
        )
        row["epoch_speedup_crypto"] = (
            row["numpy_scalar_epoch_s"]
            / max(row["numpy_vector_epoch_s"], 1e-9)
        )
        results[suborams] = row

    lines = ["S    py/scalar   np/scalar   np/vector  kernel-x  crypto-x"]
    for suborams, row in results.items():
        lines.append(
            f"{suborams:<4} "
            f"{row['python_scalar_epoch_s'] * 1e3:>7.1f}ms "
            f"{row['numpy_scalar_epoch_s'] * 1e3:>9.1f}ms "
            f"{row['numpy_vector_epoch_s'] * 1e3:>9.1f}ms "
            f"{row['epoch_speedup_kernel']:>8.1f}x "
            f"{row['epoch_speedup_crypto']:>8.1f}x"
        )
    report("End-to-end epochs per (kernel, crypto, backend) cell",
           "\n".join(lines))

    # Kernel x execution backend: the two speedups compose.
    combined = {}
    stages = {}
    for kernel in ("python", "numpy"):
        stage_sink = {}
        series = epoch_wallclock_series(
            ["serial", "thread"],
            num_load_balancers=2,
            num_suborams=4,
            num_objects=64 if SMOKE else 128,
            requests_per_epoch=16 if SMOKE else 32,
            epochs=2,
            batch_delay=0.01,
            kernel=kernel,
            stage_sink=stage_sink,
        )
        combined[kernel] = {
            "config": {
                "kernel": kernel,
                "crypto": SnoopyConfig().crypto,
                "backend": "serial vs thread",
            },
            "serial_s": series["serial"],
            "thread_s": series["thread"],
            "thread_speedup": series["serial"] / max(series["thread"], 1e-9),
        }
        stages[kernel] = stage_sink

    if not SMOKE:
        out = pathlib.Path(__file__).resolve().parent.parent
        (out / "BENCH_kernels.json").write_text(json.dumps(
            {
                "benchmark": "oblivious_kernel_speedup",
                "smoke": SMOKE,
                "num_objects": NUM_OBJECTS,
                "requests_per_epoch": REQUESTS,
                "value_size": VALUE_SIZE,
                "security_parameter": SECURITY,
                "primitives": primitives,
                "primitive_speedups": speedups,
                "epoch_cells": {
                    name: dict(zip(("kernel", "crypto", "backend"), cell))
                    for name, cell in EPOCH_CELLS.items()
                },
                "results": {str(s): row for s, row in results.items()},
                "kernel_x_backend": combined,
                "stages": stages,
            },
            indent=2,
        ) + "\n")

    assert speedups[f"sort@{max(PRIMITIVE_SIZES)}"] >= KERNEL_SPEEDUP_FLOOR, (
        speedups
    )
    assert all(value > 1.0 for value in speedups.values()), speedups
    # End-to-end epochs carry per-slot AEAD and packing overhead both
    # kernels share, so the bar is lower — but each axis' fast path must
    # still win against the cell that differs from it on that axis only.
    largest = results[max(results)]
    assert largest["epoch_speedup_kernel"] > 1.0, largest
    assert largest["epoch_speedup_crypto"] > 1.0, largest
