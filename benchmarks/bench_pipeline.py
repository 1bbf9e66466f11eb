"""Epoch pipelining throughput: sequential scheduler vs §6 overlap.

One deployment per S models the paper's throughput experiment: the load
balancer runs locally (scalar python kernel — real CPU to build and
match batches), while each subORAM is a *remote machine* whose cost is
dominated by the network round trip plus enclave processing, modelled by
a latency wrapper charging ``BATCH_DELAY`` per batch around the
vectorized (numpy) subORAM data plane.  The same seeded schedule then
runs twice:

* **sequential** — ``submit`` then ``run_epoch``, so every epoch pays
  build + execute + match back to back;
* **pipelined** — ``start_pipeline(clock=False)`` with per-epoch
  ``close_epoch()``, so the builder closes epoch ``e+1`` while the
  backend executes ``e`` and the matcher resolves ``e-1``.

The remote delays release the GIL, so the build/match CPU of adjacent
epochs genuinely hides under the execute stage's network time — the §6
claim.  The stage-interval recorder provides the witness: per-stage
occupancy over the run's makespan plus the seconds of later-epoch build
overlapping earlier-epoch execute.  Results land in
``BENCH_pipeline.json``; set ``SNOOPY_BENCH_SMOKE=1`` for CI's reduced
sizes.
"""

import json
import os
import pathlib
import random
import time

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.sim.latency import LatencySubOram
from repro.suboram.suboram import SubOram
from repro.types import OpType, Request

from conftest import report

SMOKE = os.environ.get("SNOOPY_BENCH_SMOKE") == "1"

# CI's smoke criterion is still judged at S=8 (the ISSUE's acceptance
# point), so smoke keeps the endpoint and drops only the middle.
SUBORAM_COUNTS = [2, 8] if SMOKE else [2, 4, 8]
NUM_OBJECTS = 256
REQUESTS = 256 if SMOKE else 512
# The pipeline reaches its steady-state rate (one epoch per execute
# interval) after a one-epoch ramp, so enough epochs are needed to
# amortize the ramp and the final match tail.
EPOCHS = 6 if SMOKE else 10
VALUE_SIZE = 16
NUM_BALANCERS = 1
# lambda for batch padding.  The subORAM's per-batch hash-table build
# scales with f(R,S,lambda); a smaller lambda keeps the remote machines'
# local CPU share small relative to the load balancer's R-dominated
# sort, which is the §6 regime (subORAM time ~ network + enclave I/O).
SECURITY = 32
# Per-batch remote time (network RTT + enclave processing); the thread
# backend overlaps the delays of different subORAMs, and the sleeps are
# GIL-free time the pipeline fills with adjacent epochs' build/match.
BATCH_DELAY = 0.08 if SMOKE else 0.15
DEPTH = 2
REPEATS = 2
# The throughput floor asserted at the largest S (the ISSUE's acceptance
# bar); smoke sizes leave less work to overlap, so CI only checks that
# pipelining never loses to the sequential scheduler.
PIPELINE_SPEEDUP_FLOOR = 1.0 if SMOKE else 1.3


def _remote_suboram_factory(suboram_id, config, keychain):
    """A latency-wrapped vectorized subORAM: the remote-machine model.

    The paper's subORAMs are separate enclave machines, so their
    contribution to epoch wall-clock is network + remote processing —
    time that does not contend with the load balancer's CPU.  We model
    that by running the subORAM data plane on the vectorized kernel and
    charging ``BATCH_DELAY`` of GIL-releasing sleep per batch, while the
    load balancer (the local, CPU-bound half) keeps the scalar kernel.
    """
    inner = SubOram(
        suboram_id,
        config.value_size,
        keychain,
        security_parameter=config.security_parameter,
        kernel="numpy",
    )
    return LatencySubOram(inner, batch_delay=BATCH_DELAY)


def _schedule(suborams):
    """Seeded (key, balancer) schedule, identical for both modes."""
    rng = random.Random(1000 + suborams)
    return [
        [
            (rng.randrange(NUM_OBJECTS), rng.randrange(NUM_BALANCERS))
            for _ in range(REQUESTS)
        ]
        for _ in range(EPOCHS)
    ]


def _open_store(suborams):
    """A thread-backend deployment over remote-modelled subORAMs."""
    config = SnoopyConfig(
        num_load_balancers=NUM_BALANCERS,
        num_suborams=suborams,
        value_size=VALUE_SIZE,
        # One worker per (balancer, subORAM) batch so every remote delay
        # overlaps — the paper's one-machine-per-subORAM deployment.
        execution_backend=f"thread:{NUM_BALANCERS * suborams}",
        kernel="python",
        security_parameter=SECURITY,
    )
    store = Snoopy(config, suboram_factory=_remote_suboram_factory)
    store.initialize({k: bytes(VALUE_SIZE) for k in range(NUM_OBJECTS)})
    # Warmup epoch: spin up the thread pool and touch every subORAM so
    # neither mode pays one-time costs inside the timed region.
    for key in range(8):
        store.submit(Request(OpType.READ, key))
    store.run_epoch()
    return store


def _run_sequential(suborams, schedule):
    """Wall-clock of the schedule under the sequential scheduler."""
    with _open_store(suborams) as store:
        start = time.perf_counter()
        for epoch_schedule in schedule:
            for key, balancer in epoch_schedule:
                store.submit(Request(OpType.READ, key), load_balancer=balancer)
            store.run_epoch()
        return time.perf_counter() - start


def _run_pipelined(suborams, schedule):
    """Wall-clock plus overlap evidence under the epoch pipeline."""
    with _open_store(suborams) as store:
        pipeline = store.start_pipeline(depth=DEPTH, clock=False)
        try:
            start = time.perf_counter()
            for epoch_schedule in schedule:
                for key, balancer in epoch_schedule:
                    store.submit(
                        Request(OpType.READ, key), load_balancer=balancer
                    )
                pipeline.close_epoch()
            pipeline.flush()
            elapsed = time.perf_counter() - start
            return (
                elapsed,
                pipeline.occupancy(),
                pipeline.overlap("build", "execute"),
                pipeline.stats,
            )
        finally:
            pipeline.stop()


def test_pipeline_throughput():
    """Sequential vs pipelined requests/second per subORAM count."""
    total_requests = EPOCHS * REQUESTS
    results = {}
    for suborams in SUBORAM_COUNTS:
        schedule = _schedule(suborams)
        # Best-of-REPEATS per mode: scheduling noise only ever slows a
        # run down, so the minimum is the cleanest estimate of each
        # scheduler's cost.
        sequential_s = min(
            _run_sequential(suborams, schedule) for _ in range(REPEATS)
        )
        pipelined_s, occupancy, overlap, stats = min(
            (_run_pipelined(suborams, schedule) for _ in range(REPEATS)),
            key=lambda run: run[0],
        )
        results[suborams] = {
            "sequential_s": sequential_s,
            "pipelined_s": pipelined_s,
            "sequential_rps": total_requests / sequential_s,
            "pipelined_rps": total_requests / pipelined_s,
            "speedup": sequential_s / max(pipelined_s, 1e-9),
            "build_execute_overlap_s": overlap,
            "occupancy": occupancy,
            "stats": stats,
        }

    lines = [
        "S     seq ms/ep   pipe ms/ep   speedup   overlap   exec-occ"
    ]
    for suborams, row in results.items():
        execute_row = next(
            r for r in row["occupancy"] if r["stage"] == "execute"
        )
        lines.append(
            f"{suborams:<4} {row['sequential_s'] / EPOCHS * 1e3:>9.1f}ms "
            f"{row['pipelined_s'] / EPOCHS * 1e3:>10.1f}ms "
            f"{row['speedup']:>8.2f}x "
            f"{row['build_execute_overlap_s'] * 1e3:>7.1f}ms "
            f"{execute_row['occupancy'] * 100:>7.1f}%"
        )
    lines.append("")
    largest_occ = results[max(results)]["occupancy"]
    lines.append("stage occupancy at largest S:")
    for occ_row in largest_occ:
        lines.append(
            f"  {occ_row['stage']:<8} epochs={int(occ_row['count']):<3} "
            f"busy={occ_row['busy_s'] * 1e3:7.1f}ms "
            f"span={occ_row['span_s'] * 1e3:7.1f}ms "
            f"occupancy={occ_row['occupancy'] * 100:5.1f}%"
        )
    report("Epoch pipelining — sequential vs overlapped (§6)", "\n".join(lines))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
    out.write_text(json.dumps(
        {
            "benchmark": "epoch_pipeline_throughput",
            "smoke": SMOKE,
            "num_objects": NUM_OBJECTS,
            "requests_per_epoch": REQUESTS,
            "epochs": EPOCHS,
            "num_load_balancers": NUM_BALANCERS,
            "batch_delay_s": BATCH_DELAY,
            "pipeline_depth": DEPTH,
            "backend": "thread",
            "results": {str(s): row for s, row in results.items()},
        },
        indent=2,
    ) + "\n")

    largest = results[max(results)]
    # The §6 acceptance bar: pipelined throughput beats sequential at the
    # largest S, and the stage recorder shows *genuine* overlap (build of
    # a later epoch concurrent with execute of an earlier one) rather
    # than an incidental timing win.
    assert largest["speedup"] >= PIPELINE_SPEEDUP_FLOOR, largest
    assert largest["build_execute_overlap_s"] > 0, largest
    assert largest["stats"]["max_inflight"] >= 2, largest["stats"]
    for occ_row in largest["occupancy"]:
        assert occ_row["count"] == EPOCHS, largest["occupancy"]
