"""The two-tier table's layout weights, measured on the numpy kernel.

``TwoTierParams.for_capacity`` picks tier 2's layout — one bucket of
``C2`` slots, or ``ceil(C2/4)`` Theorem-3 buckets — by a public cost:
network cells x levels for the build and the extract, plus ``N`` x probe
width for the scan, weighted by ``hashtable.NETWORK_CELL_NS`` and
``hashtable.SCAN_SLOT_NS``.  This file measures both weights as the one
thing the rule decides on, the difference between the two layouts at
one shape:

* network: the time of a stacked build plus extract, one-bucket layout
  against bucket layout, over the difference of their modelled cell
  levels (the PRF pass and the tier-1 network cancel);
* scan: the time of the production scan (``SubOram._scan_vectorized``)
  under each layout, over ``N`` x the difference of their probe widths.

Run ``PYTHONPATH=src python -m pytest benchmarks/bench_table_layout.py
-q -s``; it prints both weights and asserts that they make the same
picks as the checked-in ones at the shapes ``tests/test_hashtable.py``
pins.
"""

import dataclasses
import math
import statistics
import time

import numpy as np

from repro.analysis.balls_bins import batch_size
from repro.crypto.keys import KeyChain
from repro.oblivious import hashtable
from repro.oblivious.hashtable import TwoTierHashTable, TwoTierParams
from repro.oblivious.soa import Batch
from repro.suboram.suboram import SubOram
from repro.types import BatchEntry, OpType

from conftest import report

LAMBDA = 128
ROWS = 2  # tables per stacked build: L = 2 balancers
REPEATS = 9
#: (B, N) shapes: the served benchmark's subORAMs and the paper ablation.
PINNED_SHAPES = ((122, 512), (150, 16_384), (1_400, 256), (4_096, 133_000))
NETWORK_CAPACITIES = (122, 1_400, 4_096)
SCAN_SHAPES = ((150, 16_384), (1_400, 16_384))


def _layouts(capacity):
    """The one-bucket and the bucket layout at ``capacity``."""
    one = TwoTierParams.for_capacity(capacity, LAMBDA, 0)
    b2 = math.ceil(one.tier2_capacity / hashtable.TIER1_LOAD)
    buckets = dataclasses.replace(
        one, tier2_buckets=b2,
        tier2_bucket_size=batch_size(one.tier2_capacity, b2, LAMBDA),
    )
    assert one.tier2_buckets == 1
    return one, buckets


def _cells(params):
    """Modelled cell levels of ``params`` (the rule's network term)."""
    return hashtable._table_cost_ns(
        params.capacity, params.tier1_buckets, params.tier1_bucket_size,
        params.tier2_capacity, params.tier2_buckets,
        params.tier2_bucket_size, 0,
    ) / hashtable.NETWORK_CELL_NS


def _best(call):
    """Median wall time of ``call`` over ``REPEATS`` runs, after a warm-up."""
    call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _network_time(params, keys):
    def run():
        tables = TwoTierHashTable.build(
            [keys] * ROWS, [b"k%d" % r for r in range(ROWS)],
            params=params, kernel="numpy",
        )
        TwoTierHashTable.extract_all(tables)
    return _best(run)


def _scan_time(params, num_objects):
    so = SubOram(0, 16, keychain=KeyChain(master=b"m" * 32),
                 security_parameter=LAMBDA)
    so.initialize({k: bytes(16) for k in range(num_objects)})
    rng = np.random.default_rng(1)
    keys = rng.choice(2 * num_objects, params.capacity, replace=False)
    batch = Batch.from_entries([
        BatchEntry(op=OpType.READ, key=int(k), is_dummy=False) for k in keys
    ], 16)
    okeys = np.arange(num_objects, dtype=np.int64)
    ovals = np.zeros((num_objects, 16), dtype=np.uint8)
    table = TwoTierHashTable.build(
        batch.key, b"scan", params=params, kernel="numpy", lookups=okeys
    )
    return _best(lambda: so._scan_vectorized(table, batch, (okeys, ovals)))


def measure():
    """``(network ns per cell level, scan ns per probed slot)``."""
    network = []
    for capacity in NETWORK_CAPACITIES:
        one, buckets = _layouts(capacity)
        keys = np.arange(capacity, dtype=np.int64) * 7919
        seconds = _network_time(buckets, keys) - _network_time(one, keys)
        network.append(seconds * 1e9 / (ROWS * (_cells(buckets) - _cells(one))))
    scan = []
    for capacity, num_objects in SCAN_SHAPES:
        one, buckets = _layouts(capacity)
        seconds = _scan_time(one, num_objects) - _scan_time(
            buckets, num_objects
        )
        width = one.tier2_bucket_size - buckets.tier2_bucket_size
        scan.append(seconds * 1e9 / (num_objects * width))
    return statistics.median(network), statistics.median(scan)


def _picks(network_ns, scan_ns, monkeypatch):
    monkeypatch.setattr(hashtable, "NETWORK_CELL_NS", network_ns)
    monkeypatch.setattr(hashtable, "SCAN_SLOT_NS", scan_ns)
    return [TwoTierParams.for_capacity(b, LAMBDA, n).tier2_buckets == 1
            for b, n in PINNED_SHAPES]


def test_layout_weights(monkeypatch):
    network_ns, scan_ns = measure()
    lines = [
        f"network: {network_ns:.3f} ns per cell level "
        f"(checked in {hashtable.NETWORK_CELL_NS})",
        f"scan:    {scan_ns:.3f} ns per probed slot "
        f"(checked in {hashtable.SCAN_SLOT_NS})",
    ]
    print("\n" + "\n".join(lines))
    report("Two-tier table layout weights", "\n".join(lines))
    assert network_ns > 0 and scan_ns > 0
    checked_in = _picks(hashtable.NETWORK_CELL_NS, hashtable.SCAN_SLOT_NS,
                        monkeypatch)
    assert _picks(network_ns, scan_ns, monkeypatch) == checked_in
