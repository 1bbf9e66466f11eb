"""The scenario factory: workloads, traces, and the replay tuner.

One uniform-random stream stops being interesting the moment a system
claims *insensitivity* to workload shape.  This package turns the repo
into a scenario platform:

* :mod:`repro.workloads.generators` — seeded request generators
  (uniform, Zipf hot-key, multi-tenant mixes over disjoint key ranges,
  write-ratio sweeps) built on a **shape/key RNG split**: workloads
  with the same seed but different distributions are identical in
  everything public (ops, values, balancers, timing) and differ only
  in which keys they touch — the exact pair the skew-insensitivity
  differential compares.
* :mod:`repro.workloads.arrivals` — open-loop arrival processes
  (Poisson, bursty, diurnal sine, flash-crowd spikes), deterministic
  under a fixed seed.
* :mod:`repro.workloads.trace` — a versioned JSONL trace format with
  byte-stable record→replay round-trips and checksummed identity.
* :mod:`repro.workloads.tuner` — a replay-driven auto-tuner sweeping
  the two scheduling knobs (epoch_duration, pipeline_depth) against a
  trace: deterministic selection by the §6 cost model's Eq. (1),
  measured replay against ``SnoopyConfig()``'s schedule, best config
  emitted as JSON (``python -m repro tune``).
* :mod:`repro.workloads.scenarios` — the §3.2 applications (key
  transparency, contact discovery) as million-object end-to-end
  scenarios under skewed load.

Workload *shape* — counts, timing, read/write mix, tenancy — is public
input in the paper's model (§2.1); the *keys* a workload touches are
the secret.  Everything this package feeds into tests and benches
preserves that line (SECURITY.md, "Workload shape is public input").
"""

from repro.workloads.arrivals import (
    ARRIVAL_PROCESSES,
    arrival_times,
    bursty_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)
from repro.workloads.generators import (
    DISTRIBUTIONS,
    TenantSpec,
    UniformSampler,
    WorkloadSpec,
    ZipfSampler,
    generate_requests,
    generate_schedule,
    make_sampler,
    parse_workload_spec,
    uniform_requests,
    write_ratio_sweep,
    zipf_requests,
)
from repro.workloads.trace import (
    TRACE_VERSION,
    Trace,
    TraceFormatError,
    TraceRecord,
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    record_trace,
)
from repro.workloads.tuner import (
    DEFAULT_CANDIDATE,
    CandidateConfig,
    TunerResult,
    TunerSweep,
    replay_trace,
    tune,
    verify_reproduction,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "CandidateConfig",
    "DEFAULT_CANDIDATE",
    "DISTRIBUTIONS",
    "TenantSpec",
    "Trace",
    "TraceFormatError",
    "TraceRecord",
    "TunerResult",
    "TunerSweep",
    "TRACE_VERSION",
    "UniformSampler",
    "WorkloadSpec",
    "ZipfSampler",
    "arrival_times",
    "bursty_arrivals",
    "diurnal_arrivals",
    "dump_trace",
    "dumps_trace",
    "flash_crowd_arrivals",
    "generate_requests",
    "generate_schedule",
    "load_trace",
    "loads_trace",
    "make_sampler",
    "parse_workload_spec",
    "poisson_arrivals",
    "record_trace",
    "replay_trace",
    "tune",
    "uniform_requests",
    "verify_reproduction",
    "write_ratio_sweep",
    "zipf_requests",
]
