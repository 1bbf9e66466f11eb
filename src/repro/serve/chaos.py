"""Deterministic network-chaos soak for the attested serve stack.

The robustness acceptance test for the distributed serve layer: run a
seeded workload through the *real* TCP stack — attested handshake,
sealed frames, resumable client sessions, (optionally) out-of-process
subORAM workers — while a seeded :class:`~repro.core.faults.FaultPlan`
of link-seam events injects connection drops, frame delays, partitions,
truncated and duplicated frames, and slow-loris handshakes at the
transport seam.  Then prove two exact equalities:

1. **Byte-identical responses.**  Every request's ``(ok, value)`` pair
   equals the one a fault-free, in-process, sequential run of the same
   seeded workload produces.  Chaos may cost reconnects, session
   resumes, epoch retries, and worker respawns — never a changed
   answer, a lost ticket, or a double-applied write.
2. **Exact fault accounting.**  The injector's fired-event ``stats``
   equal the plan's scheduled :meth:`~repro.core.faults.FaultPlan.counts`
   — every scheduled fault actually fired (the plan was not quietly
   under-delivered) and nothing fired twice.

Why the equalities hold: the client resends pending requests in
``req_id`` order on session resume and the server deduplicates them,
so each epoch's batch composition (and with it every oblivious
execution) is independent of where connections dropped; worker-side
faults are absorbed by atomic epoch retry, which re-executes pristine
batches against a fresh clone of the committed subORAM state.

Run it from the CLI::

    python -m repro chaos-net --seed 3 --epochs 12 --worker-processes

or from code / tests::

    report = run_network_soak(seed=3, epochs=12)
    assert report["matched"]
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.config import SnoopyConfig
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.snoopy import Snoopy
from repro.serve.netclient import NetworkSnoopyClient, ReconnectPolicy
from repro.serve.secure import ServeTrust
from repro.serve.server import ServerThread
from repro.serve.workers import WorkerCluster
from repro.types import OpType, Request
from repro.utils.validation import require

#: Fault kinds injected on the balancer→worker links.  ``frame_duplicate``
#: is client-link only: a duplicated sealed frame is a *replay* to the
#: receiver, and while the front end answers a replay by dropping the
#: client connection (which the session layer then recovers), a worker
#: reports it as a protocol error — correct fail-closed behaviour, but
#: not a fault the epoch retry machinery should paper over.
WORKER_FAULT_KINDS = (
    "conn_drop", "frame_delay", "partition", "frame_truncate",
    "slow_handshake",
)

#: Deterministic chaos-soak trust secret (any >= 16 bytes works; the
#: soak only needs both ends of every link to share it).
SOAK_TRUST_SECRET = b"snoopy-chaos-soak-trust"


def build_workload(
    seed: int,
    epochs: int,
    requests_per_epoch: int,
    objects: int,
    value_size: int,
    num_load_balancers: int,
) -> List[List[Tuple[Request, int]]]:
    """The seeded request schedule both runs execute.

    Returns one list per epoch of ``(request, pinned_balancer)`` pairs.
    Every request pins its load balancer so the server-side deployment
    never consults its own RNG for routing — the chaotic networked run
    and the fault-free in-process run see identical balancer batches.
    """
    rng = random.Random((seed << 8) ^ 0x5EED)
    schedule: List[List[Tuple[Request, int]]] = []
    seq = 0
    for _epoch in range(epochs):
        batch: List[Tuple[Request, int]] = []
        for _ in range(requests_per_epoch):
            key = rng.randrange(objects)
            if rng.random() < 0.5:
                value = bytes([rng.randrange(256)]) * value_size
                request = Request(
                    OpType.WRITE, key, value, client_id=7, seq=seq
                )
            else:
                request = Request(OpType.READ, key, client_id=7, seq=seq)
            batch.append((request, rng.randrange(num_load_balancers)))
            seq += 1
        schedule.append(batch)
    return schedule


def build_soak_plan(
    seed: int,
    epochs: int,
    requests_per_epoch: int,
    num_suborams: int,
    intensity: int = 1,
    worker_links: bool = False,
) -> FaultPlan:
    """The seeded fault plan for one soak.

    Client-link events are scheduled across the run's guaranteed send
    count (one REQUEST frame per scheduled request); worker-link events
    across the per-epoch send floor (each worker sees at least one
    frame per epoch).  Faults only ever *add* sends (resends, retries),
    so every scheduled event is guaranteed to fire and the injector's
    ``stats`` must land exactly on the plan's ``counts()``.
    """
    events = list(FaultPlan.generate(
        seed,
        intensity=intensity,
        links=["client"],
        messages=epochs * requests_per_epoch,
    ))
    if worker_links:
        events.extend(FaultPlan.generate(
            seed + 1,
            intensity=intensity,
            links=[f"worker-{index}" for index in range(num_suborams)],
            messages=epochs,
            kinds=WORKER_FAULT_KINDS,
        ))
    return FaultPlan(events)


def _build_config(
    *,
    num_load_balancers: int,
    num_suborams: int,
    value_size: int,
    kernel: Optional[str],
    epoch_max_attempts: int,
) -> SnoopyConfig:
    return SnoopyConfig(
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        value_size=value_size,
        security_parameter=16,
        execution_backend="serial",
        kernel=kernel,
        epoch_max_attempts=epoch_max_attempts,
    )


def _initial_objects(objects: int, value_size: int) -> Dict[int, bytes]:
    return {key: bytes(value_size) for key in range(objects)}


def run_reference(
    schedule: List[List[Tuple[Request, int]]],
    *,
    seed: int,
    objects: int,
    value_size: int,
    num_load_balancers: int,
    num_suborams: int,
    kernel: Optional[str] = None,
) -> List[Tuple[bool, Optional[bytes]]]:
    """The fault-free oracle: in-process, sequential, no network.

    Returns each request's ``(ok, value)`` in schedule order — the
    byte-exact answer key the chaotic networked run must reproduce.
    """
    config = _build_config(
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        value_size=value_size,
        kernel=kernel,
        epoch_max_attempts=1,
    )
    results: List[Tuple[bool, Optional[bytes]]] = []
    with Snoopy(config, rng=random.Random(seed)) as store:
        store.initialize(_initial_objects(objects, value_size))
        for batch in schedule:
            tickets = [
                store.submit(request, load_balancer=pin)
                for request, pin in batch
            ]
            store.run_epoch()
            for ticket in tickets:
                response = ticket.result()
                results.append((response.ok, response.value))
    return results


def run_network_soak(
    seed: int = 0,
    epochs: int = 12,
    requests_per_epoch: int = 8,
    *,
    objects: int = 96,
    value_size: int = 8,
    num_load_balancers: int = 2,
    num_suborams: int = 2,
    intensity: int = 1,
    worker_processes: bool = False,
    kernel: Optional[str] = None,
    timeout: float = 60.0,
    telemetry=None,
) -> dict:
    """One full chaos soak; returns the verdict and its evidence.

    Runs the fault-free reference first, then the chaos-soaked attested
    stack (``ServerThread`` + ``NetworkSnoopyClient`` with a resumable
    session; plus a ``WorkerCluster`` with wire-mirrored snapshots when
    ``worker_processes``), and compares.

    The report dict carries ``matched`` (the overall verdict) plus the
    separate ``responses_matched`` / ``faults_matched`` legs,
    ``fault_stats`` vs ``expected_fault_stats``, and the client/server
    resilience counters (reconnects, session resumes, deduplicated
    requests, epoch retries) that show the chaos actually bit.
    """
    require(epochs >= 1, "epochs must be >= 1")
    require(requests_per_epoch >= 1, "requests_per_epoch must be >= 1")
    schedule = build_workload(
        seed, epochs, requests_per_epoch, objects, value_size,
        num_load_balancers,
    )
    plan = build_soak_plan(
        seed, epochs, requests_per_epoch, num_suborams,
        intensity=intensity, worker_links=worker_processes,
    )
    reference = run_reference(
        schedule,
        seed=seed,
        objects=objects,
        value_size=value_size,
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        kernel=kernel,
    )

    # Armed only once setup traffic (worker INIT frames, snapshot
    # seeding) is done, so the plan's message indices land on
    # steady-state serving where the retry machinery can absorb them.
    injector = FaultInjector(plan, telemetry=telemetry, armed=False)
    trust = ServeTrust(SOAK_TRUST_SECRET)
    config = _build_config(
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        value_size=value_size,
        kernel=kernel,
        # Worker-link faults surface as retryable epoch failures; give
        # the retry controller generous headroom so a burst of faults
        # on one epoch cannot exhaust it.
        epoch_max_attempts=8 if worker_processes else 1,
    )
    chaos_results: List[Tuple[bool, Optional[bytes]]] = []
    cluster: Optional[WorkerCluster] = None
    server_stats: Dict[str, int] = {}
    client_stats: Dict[str, int] = {}
    retry_stats: Dict[str, int] = {}
    try:
        factory = None
        if worker_processes:
            cluster = WorkerCluster(
                num_suborams,
                value_size=value_size,
                security_parameter=config.security_parameter,
                kernel=config.kernel,
                crypto=config.crypto,
                trust=trust,
                remote_snapshots=True,
                injector=injector,
                telemetry=telemetry,
            ).start()
            factory = cluster.factory
        with Snoopy(
            config, rng=random.Random(seed), suboram_factory=factory,
            telemetry=telemetry,
        ) as store:
            store.initialize(_initial_objects(objects, value_size))
            injector.armed = True
            with ServerThread(store, clock=False, trust=trust) as handle:
                handle.start()
                client = NetworkSnoopyClient(
                    "127.0.0.1",
                    handle.port,
                    trust=trust,
                    timeout=timeout,
                    reconnect=ReconnectPolicy(seed=seed, max_attempts=12),
                    injector=injector,
                    link="client",
                )
                try:
                    tickets = []
                    for batch in schedule:
                        for request, pin in batch:
                            tickets.append(
                                client.submit(request, load_balancer=pin)
                            )
                        client.close_epoch(flush=True)
                    for ticket in tickets:
                        response = ticket.result(timeout)
                        chaos_results.append((response.ok, response.value))
                    client_stats = dict(client.stats)
                finally:
                    client.close()
                server_stats = dict(handle.server.stats)
            retry_stats = dict(store.fault_stats)
    finally:
        if cluster is not None:
            cluster.stop()

    expected_fault_stats = plan.counts()
    responses_matched = chaos_results == reference
    faults_matched = (
        injector.stats == expected_fault_stats and injector.exhausted
    )
    return {
        "seed": seed,
        "epochs": epochs,
        "requests": epochs * requests_per_epoch,
        "objects": objects,
        "value_size": value_size,
        "num_load_balancers": num_load_balancers,
        "num_suborams": num_suborams,
        "worker_processes": worker_processes,
        "attested": True,
        "scheduled_faults": len(plan),
        "matched": responses_matched and faults_matched,
        "responses_matched": responses_matched,
        "faults_matched": faults_matched,
        "fault_stats": dict(injector.stats),
        "expected_fault_stats": expected_fault_stats,
        "client_stats": client_stats,
        "server_stats": server_stats,
        "retry_stats": retry_stats,
    }
