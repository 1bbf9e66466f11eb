"""The benchmark's constants: pinned deployment config and the workloads.

Everything here is written out explicitly so that a later flip of a
``SnoopyConfig`` default does not move the benchmark, and nothing is
derived at run time from a measurement.  ``server_main.py`` (the server
process) and ``run.py`` (the load generator) both read this file; the
server never sees the workload's keys or arrival times, only its public
deployment shape.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Deployment parameters shared by every workload (ISSUE 12 "pinned config").
PINNED = {
    "kernel": "numpy",
    "crypto": "vector",
    "execution_backend": "thread:2",
    "security_parameter": 128,
    "epoch_duration": 0.05,
    "pipeline_depth": 2,
    "clock": True,
    "attested": True,
    "max_pending_per_connection": 4096,
    "store_seed": 7,
}

#: Load-generator connections: one asyncio thread, ``nproc`` = 2 sockets.
CONNECTIONS = 2

#: A request without a reply this long after it was sent counts as failed.
REQUEST_DEADLINE_S = 10.0

#: Each measured phase is cut into this many windows; medians are over them.
WINDOWS = 5

#: Cold launches timed for ``setup_s`` (the median is reported).
SETUP_LAUNCHES = 3

#: Deployment secret both processes derive the attestation root from.
TRUST_SECRET = b"snoopy-bench-deployment-secret"


@dataclass(frozen=True)
class Workload:
    """One named traffic mix on one named deployment shape."""

    name: str
    num_objects: int
    value_size: int
    load_balancers: int
    suborams: int
    distribution: str      # "uniform" | "zipf"
    zipf_exponent: float
    write_fraction: float
    open_rate: float       # open-loop Poisson arrivals per second
    window: int            # closed-loop requests in flight per connection
    #: Upper estimate of closed-loop req/s, used only to size the
    #: pre-generated request list (more are generated if it runs out).
    sized_for_rps: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batch_rw", 4096, 16, 2, 8, "uniform", 1.0, 0.5, 200.0, 512, 4000,
            "LB pad/sort/dedupe, 16 two-tier table builds and match dominate "
            "epoch CPU; store crypto is small. Fused-execute/SoA work must "
            "show here.",
        ),
        Workload(
            "scan_rw", 32768, 160, 2, 2, "uniform", 1.0, 0.5, 200.0, 256, 1500,
            "Scan-dominated (paper's 160 B objects, ~5 MB sealed store > L2): "
            "lookup_matrix/PRF, vector AEAD get/put and scan_soa dominate; "
            "LB and table build are small.",
        ),
        Workload(
            "frontdoor_rw", 256, 16, 1, 1, "uniform", 1.0, 0.5, 2000.0, 512,
            9000,
            "Smallest epoch: channel seal/open, frame codec, ticketing and the "
            "event loop are the largest share. Serve-layer changes show; "
            "subORAM work predicts no change.",
        ),
        Workload(
            "batch_zipf_ro", 4096, 16, 2, 8, "zipf", 1.2, 0.0, 200.0, 512, 4000,
            "batch_rw's deployment under Zipf s=1.2 reads (key-transparency "
            "lookups, heavy duplicates). Obliviousness predicts it equals "
            "batch_rw; a mix-dependent change shows here.",
        ),
    )
}


def initial_value(key: int, value_size: int) -> bytes:
    """The object ``key`` holds before any write (both processes agree)."""
    return key.to_bytes(8, "big").ljust(value_size, b"\xa5")[:value_size]
