"""Analytic cost model: L_LB, L_S, and the Eq. (1)-(3) solver (§6).

The planner equations:

    T >= max( L_LB(X*T/L, S),  L * L_S(f(X*T/L, S), N) )        (1)
    L_sys <= 5T/2                                               (2)
    C_sys(L, S) = L*C_LB + S*C_S                                (3)

``load_balancer_time`` and ``suboram_time`` implement the two cost
functions from the algorithms' actual asymptotics (bitonic n log^2 n,
compaction n log n, hash-table construction, linear scan with the EPC
paging knee); ``epoch_stage_times`` composes them into Eq. (1)'s two
stages for every caller (planner, simulators, tuner); ``max_throughput``
inverts Eq. (1) by binary search.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.analysis.balls_bins import batch_size
from repro.sim.machines import (
    DEFAULT_PROFILE,
    ENTRY_OVERHEAD_BYTES,
    MachineProfile,
)
from repro.utils.bits import next_pow2


def sort_time(
    num_entries: int,
    threads: int = 1,
    profile: MachineProfile = DEFAULT_PROFILE,
) -> float:
    """Bitonic sort wall time for ``num_entries`` with ``threads`` (Fig. 13a).

    Work divides across threads; each of the ``O(log^2 n)`` layers incurs a
    synchronization cost when more than one thread participates, which is
    why a single thread wins below a crossover size.
    """
    if num_entries <= 1:
        return 0.0
    m = next_pow2(num_entries)
    log_m = m.bit_length() - 1
    layers = log_m * (log_m + 1) // 2
    comparators = (m // 2) * layers
    work = comparators * profile.sort_compare_s / max(1, threads)
    sync = layers * profile.sort_sync_s if threads > 1 else 0.0
    return work + sync


def adaptive_sort_time(
    num_entries: int, max_threads: int, profile: MachineProfile = DEFAULT_PROFILE
) -> float:
    """The paper's adaptive strategy: best of 1..max_threads (Fig. 13a)."""
    return min(
        sort_time(num_entries, threads, profile)
        for threads in range(1, max(1, max_threads) + 1)
    )


def compact_time(
    num_entries: int, profile: MachineProfile = DEFAULT_PROFILE
) -> float:
    """Goodrich compaction: n log n element moves."""
    if num_entries <= 1:
        return 0.0
    m = next_pow2(num_entries)
    return m * (m.bit_length() - 1) * profile.compact_element_s


def load_balancer_time(
    num_requests: int,
    num_suborams: int,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
) -> float:
    """L_LB(R, S): time to build batches and match responses (§4.2).

    Both phases sort and compact ``R + B*S`` entries; matching handles the
    same volume of responses.  Entry size scales byte-proportional costs.
    """
    if num_requests <= 0:
        return 0.0
    size = batch_size(num_requests, num_suborams, security_parameter)
    working = num_requests + size * num_suborams
    scale = (object_size + ENTRY_OVERHEAD_BYTES) / (160 + ENTRY_OVERHEAD_BYTES)

    batch_phase = (
        adaptive_sort_time(working, profile.cores, profile) * scale
        + compact_time(working, profile) * scale
    )
    match_phase = (
        adaptive_sort_time(working + num_requests, profile.cores, profile) * scale
        + compact_time(working + num_requests, profile) * scale
    )
    overhead = num_requests * profile.request_overhead_s
    network = (
        2 * working * (object_size + ENTRY_OVERHEAD_BYTES)
        / profile.network_bandwidth_Bps
        + 2 * profile.network_rtt_s
    )
    return batch_phase + match_phase + overhead + network


def paper_table_slots(batch: int, security_parameter: int = 128) -> int:
    """Total slots of the paper's two-tier table, which the §6 model fits.

    Not the deployed table: tier-1 buckets of 10 slots at load 4 and ``C2
    = B//8 + 4 sqrt(B) + 8`` spills in Theorem-3 buckets."""
    spill = min(max(8, batch // 8 + 4 * math.isqrt(batch) + 8), batch)
    tier2_buckets = math.ceil(spill / 4)
    return (math.ceil(batch / 4) * 10
            + tier2_buckets * batch_size(spill, tier2_buckets, security_parameter))


def suboram_time(
    batch: int,
    num_objects: int,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
    threads: Optional[int] = None,
) -> float:
    """L_S(B, N): hash-table construction plus the linear scan (§5).

    One enclave core streams data (the host-loader pattern, §7), so the
    scan parallelizes over ``cores - 1`` by default (Fig. 13b).
    """
    if num_objects <= 0 or batch <= 0:
        return 0.0
    if threads is None:
        threads = max(1, profile.cores - 1)

    construct_entries = batch + paper_table_slots(batch, security_parameter)
    construct = (
        adaptive_sort_time(construct_entries, threads, profile)
        + compact_time(construct_entries, profile)
    )

    per_object = (
        profile.scan_object_s
        + object_size
        * (
            profile.scan_byte_resident_s
            if num_objects * (object_size + ENTRY_OVERHEAD_BYTES)
            <= profile.epc_bytes
            else profile.scan_byte_paged_s
        )
    )
    scan = num_objects * per_object / max(1, threads)
    return construct + scan


def epoch_stage_times(
    requests_per_balancer: int,
    num_load_balancers: int,
    num_suborams: int,
    objects_per_suboram: int,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
) -> Tuple[float, float]:
    """Eq. (1)'s two stage times for one epoch: ``(L_LB, L * L_S)``.

    The load-balancer stage handles ``requests_per_balancer`` requests;
    each subORAM executes one batch of ``f(R/L, S)`` per balancer over
    its ``objects_per_suboram`` objects.  A pipelined epoch is bounded by
    the ``max`` of the two, a serialized one takes their ``sum``.
    """
    lb_time = load_balancer_time(
        requests_per_balancer, num_suborams, security_parameter, profile, object_size
    )
    batch = batch_size(requests_per_balancer, num_suborams, security_parameter)
    so_time = num_load_balancers * suboram_time(
        batch, objects_per_suboram, security_parameter, profile, object_size
    )
    return lb_time, so_time


def epoch_feasible(
    throughput: float,
    epoch: float,
    num_load_balancers: int,
    num_suborams: int,
    num_objects: int,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
) -> bool:
    """Eq. (1): can the pipeline sustain ``throughput`` at epoch ``T``?"""
    requests_per_balancer = int(math.ceil(throughput * epoch / num_load_balancers))
    if requests_per_balancer == 0:
        return True
    return max(epoch_stage_times(
        requests_per_balancer, num_load_balancers, num_suborams,
        int(math.ceil(num_objects / num_suborams)),
        security_parameter, profile, object_size,
    )) <= epoch


def max_throughput(
    num_load_balancers: int,
    num_suborams: int,
    num_objects: int,
    max_latency: float,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
    accesses_per_op: int = 1,
) -> float:
    """Highest sustainable throughput (reqs/s) meeting Eq. (1) and (2).

    Eq. (2) bounds the epoch at ``T <= 2*max_latency/5``; since longer
    epochs amortize dummies and the scan better but inflate the
    superlinear sort, the best epoch may be shorter than the bound — we
    optimize over a small grid of epoch lengths and binary-search
    throughput at each.  ``accesses_per_op`` models applications (e.g.
    key transparency, Fig. 9b) where one logical operation issues several
    ORAM accesses — returned throughput is in *operations* per second.
    """
    max_epoch = 2.0 * max_latency / 5.0
    best = 0.0
    for factor in (1.0, 0.6, 0.35, 0.2):
        epoch = max_epoch * factor
        lo, hi = 0.0, 1e8
        for _ in range(50):
            mid = (lo + hi) / 2.0
            if epoch_feasible(
                mid * accesses_per_op,
                epoch,
                num_load_balancers,
                num_suborams,
                num_objects,
                security_parameter,
                profile,
                object_size,
            ):
                lo = mid
            else:
                hi = mid
        best = max(best, lo)
    return best


def best_split(
    num_machines: int,
    num_objects: int,
    max_latency: float,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
    accesses_per_op: int = 1,
) -> Tuple[int, int, float]:
    """Best (load balancers, subORAMs, throughput) for a machine budget.

    This is how Fig. 9a's curve is generated: "measuring throughput with
    different system configurations and plotting the highest throughput
    configuration for each number of machines".  The split may use fewer
    than ``num_machines`` machines — adding a subORAM the load balancers
    cannot feed only adds dummy overhead, so an operator would idle it.
    """
    best = (1, max(1, num_machines - 1), 0.0)
    for balancers in range(1, num_machines):
        for suborams in range(1, num_machines - balancers + 1):
            throughput = max_throughput(
                balancers,
                suborams,
                num_objects,
                max_latency,
                security_parameter,
                profile,
                object_size,
                accesses_per_op,
            )
            if throughput > best[2]:
                best = (balancers, suborams, throughput)
    return best


def mean_latency(
    throughput: float,
    num_load_balancers: int,
    num_suborams: int,
    num_objects: int,
    security_parameter: int = 128,
    profile: MachineProfile = DEFAULT_PROFILE,
    object_size: int = 160,
) -> float:
    """Mean response latency at a fixed offered load (Fig. 11b).

    The epoch must be long enough to absorb the offered load (smallest
    feasible T); a uniformly arriving request waits T/2 on average, then
    the pipeline takes up to one load-balancer stage plus the subORAM
    stage: mean ~= T/2 + processing <= 5T/2.

    Feasibility is *not* monotone in T (a longer epoch queues more work,
    and per-epoch work grows superlinearly), so the search first scans up
    geometrically for a feasible epoch, then bisects down on the interval
    below it, where infeasibility is caused by too-short epochs only.
    """
    epoch = None
    candidate = 1e-3
    while candidate <= 3600.0:
        if epoch_feasible(
            throughput,
            candidate,
            num_load_balancers,
            num_suborams,
            num_objects,
            security_parameter,
            profile,
            object_size,
        ):
            epoch = candidate
            break
        candidate *= 1.25
    if epoch is None:
        return float("inf")
    lo, hi = epoch / 1.25, epoch
    for _ in range(40):
        mid = (lo + hi) / 2.0
        if epoch_feasible(
            throughput,
            mid,
            num_load_balancers,
            num_suborams,
            num_objects,
            security_parameter,
            profile,
            object_size,
        ):
            hi = mid
        else:
            lo = mid
    epoch = hi
    requests_per_balancer = max(
        1, int(math.ceil(throughput * epoch / num_load_balancers))
    )
    processing = sum(epoch_stage_times(
        requests_per_balancer, num_load_balancers, num_suborams,
        int(math.ceil(num_objects / num_suborams)),
        security_parameter, profile, object_size,
    ))
    return epoch / 2.0 + processing


# ---------------------------------------------------------------------------
# Baseline cost models (anchored to §8.1/§8.2 measurements)
# ---------------------------------------------------------------------------
def oblix_level_sizes(num_objects: int, pack_factor: int = 16,
                      direct_threshold: int = 1024) -> list:
    """Sizes of the data ORAM and each recursive position-map ORAM."""
    sizes = [max(1, num_objects)]
    while sizes[-1] > direct_threshold:
        sizes.append((sizes[-1] + pack_factor - 1) // pack_factor)
    return sizes


def oblix_recursion_levels(num_objects: int, pack_factor: int = 16,
                           direct_threshold: int = 1024) -> int:
    """Recursion depth of the Oblix position map (drives Fig. 10's step)."""
    return len(oblix_level_sizes(num_objects, pack_factor, direct_threshold))


def oblix_access_time(
    num_objects: int, profile: MachineProfile = DEFAULT_PROFILE
) -> float:
    """Sequential Oblix access latency: sum of per-level path costs.

    Each level reads and writes back a root-to-leaf path of Z=4 buckets in
    an ORAM sized for that recursion level.
    """
    total_blocks = 0
    for size in oblix_level_sizes(num_objects):
        height = max(1, math.ceil(math.log2(max(2, size))))
        total_blocks += 2 * 4 * (height + 1)
    return total_blocks * profile.oblix_block_s


def oblix_throughput(
    num_objects: int, profile: MachineProfile = DEFAULT_PROFILE
) -> float:
    """Sequential Oblix requests/second (~1.15K at 2M objects)."""
    return 1.0 / oblix_access_time(num_objects, profile)


def obladi_throughput(
    num_objects: int, profile: MachineProfile = DEFAULT_PROFILE
) -> float:
    """Obladi proxy throughput (~6.7K reqs/s at 2M objects, batch 500)."""
    scale = math.log2(max(2, num_objects)) / math.log2(2_000_000)
    return 1.0 / (profile.obladi_access_s * scale)


def redis_throughput(
    num_machines: int, profile: MachineProfile = DEFAULT_PROFILE
) -> float:
    """Redis cluster throughput: embarrassingly parallel."""
    return num_machines / profile.redis_request_s
