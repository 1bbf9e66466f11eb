"""Oblivious-kernel throughput: scalar python reference vs NumPy SoA.

Two measurements on a Fig. 13c-style workload (R requests over S
subORAMs holding N objects):

* **kernel wall-clock** — the three oblivious primitives (bitonic sort,
  Goodrich compaction, Figure 19 scan) timed directly through the kernel
  API on the array shapes that workload induces: the load balancer's
  padded sort/compact over ``R + S*f(R,S)`` entries and each subORAM's
  scan over its ``N/S``-object shard.  This isolates the data plane the
  kernels replace; the acceptance bar is >= 3x at S=8.
* **end-to-end epochs** — full deployments (no latency wrapper) at the
  three named ``(kernel, crypto, backend)`` cells of :data:`EPOCH_CELLS`:
  the all-reference cell, the numpy kernel on the same scalar crypto,
  and the numpy kernel on vector crypto.  Each reported speedup
  compares two cells that differ on exactly one axis
  (``epoch_speedup_kernel``: same crypto; ``epoch_speedup_crypto``:
  same kernel), so no number mixes axes.

A third section composes the kernel with the thread execution backend
via :func:`~repro.sim.cluster.epoch_wallclock_series`, confirming the
two axes multiply.  Results land in ``BENCH_kernels.json``; set
``SNOOPY_BENCH_SMOKE=1`` for CI's reduced sizes.
"""

import json
import os
import pathlib
import random
import time

from repro.analysis.balls_bins import batch_size
from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.oblivious.kernels import KERNELS, ScanTable
from repro.sim.cluster import epoch_wallclock_series
from repro.types import OpType, Request

from conftest import report

SMOKE = os.environ.get("SNOOPY_BENCH_SMOKE") == "1"

SUBORAM_COUNTS = [2, 4] if SMOKE else [2, 4, 8]
NUM_OBJECTS = 1024 if SMOKE else 4096
REQUESTS = 256 if SMOKE else 512
VALUE_SIZE = 16
SECURITY = 32
# The speedup floor asserted at the largest S (the ISSUE's acceptance
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


def _kernel_stage_time(kernel, suborams, rng):
    """Sort + compact + scan wall-clock on the shapes S induces."""
    kern = KERNELS[kernel]
    # Load-balancer shape: R real requests padded with S*f(R,S) dummies,
    # sorted on (suboram, dummy bit, key) then compacted back down.
    padded = REQUESTS + suborams * batch_size(REQUESTS, suborams, SECURITY)
    items = list(range(padded))
    columns = [
        [rng.randrange(suborams) for _ in range(padded)],
        [rng.randrange(2) for _ in range(padded)],
        [rng.randrange(NUM_OBJECTS) for _ in range(padded)],
    ]
    flags = [rng.randrange(2) for _ in range(padded)]
    total = _timed(kern.sort, items, columns)
    total += _timed(kern.compact, items, flags)
    # SubORAM shape: each shard scans its N/S objects against a batch
    # table of 2*f(R,S) slots, two candidate slots per object.
    shard = NUM_OBJECTS // suborams
    slots = 2 * batch_size(REQUESTS, suborams, SECURITY)
    obj_keys = list(range(shard))
    obj_values = [bytes(VALUE_SIZE) for _ in range(shard)]
    table = ScanTable(
        keys=[rng.randrange(shard) for _ in range(slots)],
        occupied=[1] * slots,
        is_write=[rng.randrange(2) for _ in range(slots)],
        permitted=[1] * slots,
        values=[bytes(VALUE_SIZE) for _ in range(slots)],
    )
    lookup = [
        [rng.randrange(slots), (rng.randrange(slots - 1) + 1 + s) % slots]
        for s in range(shard)
    ]
    total += _timed(
        kern.scan, obj_keys, obj_values, VALUE_SIZE, lookup, table
    )
    return total


def _epoch_time(kernel, crypto, backend, suborams, epochs=3):
    """Best-of-``epochs`` epoch wall-clock at one named cell.

    Best-of matches :func:`_timed`: each epoch does identical work, so
    the minimum is the least-noise estimate of the steady state.
    """
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=suborams,
        value_size=VALUE_SIZE,
        kernel=kernel,
        crypto=crypto,
        execution_backend=backend,
    )
    rng = random.Random(3)
    with Snoopy(config, rng=random.Random(3)) as store:
        store.initialize({k: bytes(VALUE_SIZE) for k in range(NUM_OBJECTS)})
        # Warm up at the measured shape so one-time work keyed on array
        # sizes (memoized bitonic level schedules, scratch allocation)
        # happens outside the clock — the timed epochs are steady state.
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
    """python vs numpy: kernel wall-clock and end-to-end epochs per S."""
    results = {}
    for suborams in SUBORAM_COUNTS:
        row = {}
        for kernel in ("python", "numpy"):
            rng = random.Random(suborams)
            row[f"{kernel}_kernel_s"] = _kernel_stage_time(
                kernel, suborams, rng
            )
        for name, cell in EPOCH_CELLS.items():
            row[f"{name}_epoch_s"] = _epoch_time(*cell, suborams)
        row["kernel_speedup"] = (
            row["python_kernel_s"] / max(row["numpy_kernel_s"], 1e-9)
        )
        row["epoch_speedup_kernel"] = (
            row["python_scalar_epoch_s"]
            / max(row["numpy_scalar_epoch_s"], 1e-9)
        )
        row["epoch_speedup_crypto"] = (
            row["numpy_scalar_epoch_s"]
            / max(row["numpy_vector_epoch_s"], 1e-9)
        )
        results[suborams] = row

    lines = [
        "S     py-kernel   np-kernel   speedup | "
        "py/scalar   np/scalar   np/vector  kernel-x  crypto-x"
    ]
    for suborams, row in results.items():
        lines.append(
            f"{suborams:<4} {row['python_kernel_s'] * 1e3:>9.1f}ms "
            f"{row['numpy_kernel_s'] * 1e3:>9.1f}ms "
            f"{row['kernel_speedup']:>7.1f}x | "
            f"{row['python_scalar_epoch_s'] * 1e3:>7.1f}ms "
            f"{row['numpy_scalar_epoch_s'] * 1e3:>9.1f}ms "
            f"{row['numpy_vector_epoch_s'] * 1e3:>9.1f}ms "
            f"{row['epoch_speedup_kernel']:>8.1f}x "
            f"{row['epoch_speedup_crypto']:>8.1f}x"
        )
    report("Oblivious kernels — numpy SoA vs python reference", "\n".join(lines))

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

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    out.write_text(json.dumps(
        {
            "benchmark": "oblivious_kernel_speedup",
            "smoke": SMOKE,
            "num_objects": NUM_OBJECTS,
            "requests_per_epoch": REQUESTS,
            "value_size": VALUE_SIZE,
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

    largest = results[max(results)]
    assert largest["kernel_speedup"] >= KERNEL_SPEEDUP_FLOOR, largest
    # End-to-end epochs carry per-slot AEAD and packing overhead both
    # kernels share, so the bar is lower — but each axis' fast path must
    # still win against the cell that differs from it on that axis only.
    assert largest["epoch_speedup_kernel"] > 1.0, largest
    assert largest["epoch_speedup_crypto"] > 1.0, largest
