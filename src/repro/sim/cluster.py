"""Cluster-level figure series: the evaluation's machine sweeps (§8.2-8.3).

Each function regenerates one figure's data from the calibrated cost
model: Fig. 9a/9b machine sweeps, Fig. 10's Snoopy-Oblix hybrid,
Fig. 11a/11b data-size and latency scaling.  The one *measured* series
lives here too: :func:`epoch_wallclock_series` times real epochs of the
functional system under each execution backend (the engine half of
Fig. 13).
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.balls_bins import batch_size
from repro.sim.costmodel import (
    best_split,
    load_balancer_time,
    mean_latency,
    oblix_access_time,
)
from repro.sim.machines import DEFAULT_PROFILE, MachineProfile


def throughput_scaling_series(
    machine_counts: List[int],
    num_objects: int,
    max_latencies: List[float],
    object_size: int = 160,
    accesses_per_op: int = 1,
    profile: MachineProfile = DEFAULT_PROFILE,
) -> Dict[float, List[Tuple[int, int, int, float]]]:
    """Fig. 9a / 9b data: best (machines, L, S, throughput) per latency cap."""
    series: Dict[float, List[Tuple[int, int, int, float]]] = {}
    for latency in max_latencies:
        rows = []
        for machines in machine_counts:
            balancers, suborams, throughput = best_split(
                machines,
                num_objects,
                latency,
                object_size=object_size,
                accesses_per_op=accesses_per_op,
                profile=profile,
            )
            rows.append((machines, balancers, suborams, throughput))
        series[latency] = rows
    return series


# ---------------------------------------------------------------------------
# Fig. 10: Oblix as the subORAM behind Snoopy's load balancer
# ---------------------------------------------------------------------------
def snoopy_oblix_feasible(
    throughput: float,
    epoch: float,
    num_load_balancers: int,
    num_suborams: int,
    num_objects: int,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
) -> bool:
    """Eq. (1) with an Oblix subORAM: batch served by sequential accesses.

    An Oblix subORAM has no batch amortization: each of the batch's ``B``
    requests costs a full sequential recursive access over the shard
    (Oblix "does not employ batching or parallelism", §8.1).  The hybrid
    still wins by sharding — each access runs over ``N/S`` objects with
    fewer recursion levels, which produces Fig. 10's step between 8 and 9
    machines.
    """
    requests_per_balancer = int(math.ceil(throughput * epoch / num_load_balancers))
    if requests_per_balancer == 0:
        return True
    lb_time = load_balancer_time(
        requests_per_balancer, num_suborams, security_parameter, profile, object_size
    )
    shard = int(math.ceil(num_objects / num_suborams))
    size = batch_size(requests_per_balancer, num_suborams, security_parameter)
    so_time = num_load_balancers * size * oblix_access_time(shard, profile)
    return max(lb_time, so_time) <= epoch


def snoopy_oblix_max_throughput(
    num_load_balancers: int,
    num_suborams: int,
    num_objects: int,
    max_latency: float,
    profile: MachineProfile = DEFAULT_PROFILE,
) -> float:
    """Binary-search the hybrid's sustainable throughput."""
    epoch = 2.0 * max_latency / 5.0
    lo, hi = 0.0, 1e7
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if snoopy_oblix_feasible(
            mid, epoch, num_load_balancers, num_suborams, num_objects,
            profile=profile,
        ):
            lo = mid
        else:
            hi = mid
    return lo


def snoopy_oblix_best_split(
    num_machines: int,
    num_objects: int,
    max_latency: float,
    profile: MachineProfile = DEFAULT_PROFILE,
) -> Tuple[int, int, float]:
    """Best (L, S, throughput) for the Snoopy-Oblix hybrid (Fig. 10)."""
    best = (1, max(1, num_machines - 1), 0.0)
    for balancers in range(1, num_machines):
        suborams = num_machines - balancers
        throughput = snoopy_oblix_max_throughput(
            balancers, suborams, num_objects, max_latency, profile
        )
        if throughput > best[2]:
            best = (balancers, suborams, throughput)
    return best


# ---------------------------------------------------------------------------
# Fig. 11: scaling for data size and latency under constant load
# ---------------------------------------------------------------------------
def max_objects_within_latency(
    num_suborams: int,
    latency_target: float = 0.160,
    load: float = 500.0,
    object_size: int = 160,
    profile: MachineProfile = DEFAULT_PROFILE,
) -> int:
    """Fig. 11a: largest store keeping mean latency under the target.

    One load balancer, constant offered load; answers "how much data can S
    subORAMs hold at under 160 ms" (the US-Europe RTT the paper uses).
    """
    lo, hi = 0, 50_000_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        latency = mean_latency(
            load, 1, num_suborams, mid, object_size=object_size, profile=profile
        )
        if latency <= latency_target:
            lo = mid
        else:
            hi = mid - 1
    return lo


# ---------------------------------------------------------------------------
# Fig. 13 (engine half): measured epoch wall-clock per execution backend
# ---------------------------------------------------------------------------
def epoch_wallclock_series(
    backends: List[str],
    num_load_balancers: int = 2,
    num_suborams: int = 4,
    num_objects: int = 128,
    requests_per_epoch: int = 32,
    epochs: int = 3,
    value_size: int = 16,
    batch_delay: float = 0.01,
    seed: int = 7,
    max_workers: Optional[int] = None,
    kernel: Optional[str] = None,
    stage_sink: Optional[Dict[str, list]] = None,
    pipelined: bool = False,
    pipeline_depth: Optional[int] = None,
) -> Dict[str, float]:
    """Measured mean epoch wall-clock for each execution backend.

    Builds one functional deployment per backend (identical object
    contents and request schedule, latency-wrapped subORAMs charging
    ``batch_delay`` per batch to model per-machine network/enclave time),
    runs ``epochs`` epochs, and returns ``{backend_spec: mean epoch
    seconds}``.  Serial execution pays ``L*S`` delays per epoch; a
    parallel backend overlaps them — the measured counterpart of
    equation (1)'s max-of-stages shape.

    The ``kernel`` selector picks the oblivious-kernel implementation
    (``"python"`` or ``"numpy"``; default: the config default) so backend
    speedups can be measured on either data plane.

    ``stage_sink``, when given a dict, receives a per-backend epoch-stage
    timing breakdown: ``stage_sink[spec]`` becomes the
    :func:`repro.telemetry.stage_breakdown` rows measured for that
    backend's run (each run gets its own fresh
    :class:`~repro.telemetry.Telemetry` handle, so rows never mix across
    specs).  ``None`` (default) measures with telemetry off.

    With ``pipelined=True`` each backend's run drives the same schedule
    through the epoch pipeline (:meth:`~repro.core.snoopy.Snoopy.\
start_pipeline` with the clock off — the measurement closes epochs
    itself so both modes run identical epoch compositions): submissions
    of epoch ``e+1`` and its close overlap the execute/match of ``e``,
    so the reported mean epoch seconds reflect §6's throughput shape
    rather than the sequential latency shape.
    """
    from repro.core.config import SnoopyConfig
    from repro.core.snoopy import Snoopy
    from repro.sim.latency import latency_suboram_factory
    from repro.types import OpType, Request

    objects = {key: bytes(value_size) for key in range(num_objects)}
    schedule_rng = random.Random(seed)
    schedule = [
        [
            (
                schedule_rng.randrange(num_objects),
                schedule_rng.randrange(num_load_balancers),
            )
            for _ in range(requests_per_epoch)
        ]
        for _ in range(epochs)
    ]

    series: Dict[str, float] = {}
    for spec in backends:
        telemetry = None
        if stage_sink is not None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        config = SnoopyConfig(
            num_load_balancers=num_load_balancers,
            num_suborams=num_suborams,
            value_size=value_size,
            execution_backend=spec,
            max_workers=max_workers,
            kernel=kernel,
            telemetry=telemetry,
        )
        with Snoopy(
            config, suboram_factory=latency_suboram_factory(batch_delay)
        ) as store:
            store.initialize(objects)
            start = time.perf_counter()
            if pipelined:
                pipeline = store.start_pipeline(
                    depth=pipeline_depth, clock=False
                )
                for epoch_schedule in schedule:
                    for key, balancer in epoch_schedule:
                        store.submit(
                            Request(OpType.READ, key),
                            load_balancer=balancer,
                        )
                    pipeline.close_epoch()
                pipeline.flush()
                pipeline.stop()
            else:
                for epoch_schedule in schedule:
                    for key, balancer in epoch_schedule:
                        store.submit(
                            Request(OpType.READ, key),
                            load_balancer=balancer,
                        )
                    store.run_epoch()
            series[spec] = (time.perf_counter() - start) / epochs
        if stage_sink is not None:
            from repro.telemetry import stage_breakdown

            stage_sink[spec] = stage_breakdown(telemetry.registry)
    return series


def latency_vs_suborams(
    suboram_counts: List[int],
    num_objects: int = 2_000_000,
    load: float = 500.0,
    object_size: int = 160,
    profile: MachineProfile = DEFAULT_PROFILE,
) -> List[Tuple[int, float]]:
    """Fig. 11b: mean latency as subORAMs parallelize the linear scan."""
    return [
        (
            s,
            mean_latency(
                load, 1, s, num_objects, object_size=object_size, profile=profile
            ),
        )
        for s in suboram_counts
    ]
