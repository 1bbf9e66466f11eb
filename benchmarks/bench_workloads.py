"""Scenario factory benchmarks: traces, the tuner, and the §3.2 apps.

Three phases, all seeded and all feeding ``BENCH_workloads.json``:

* **traces** — record/parse throughput of the JSONL trace format (the
  cost of making every workload replayable);
* **tuner** — the replay-driven tuner on two adversarial traces (a
  Zipf hot-key stream and a flash-crowd spike), reporting the chosen
  schedule, its measured rps, the measured speedup over
  ``SnoopyConfig()``'s own schedule (named in each row as
  ``default_config``; exactly 1.0 when the tuner picks it), and a
  reproduction check of the emitted config at :data:`BENCH_TOLERANCE`;
* **scenarios** — the paper's §3.2 applications (key transparency,
  private contact discovery) run end to end as workloads.  The full run
  uses production scale — ≥1M stored objects each (2^19 users ⇒ ~1.57M
  tree objects; 2^20 directory buckets) — driven by Zipf-hot request
  streams; ``SNOOPY_BENCH_SMOKE=1`` shrinks both for CI.

The tuner rows re-replay the emitted best config and require
digest-identical responses and rps within :data:`BENCH_TOLERANCE`
(recorded in each row) — a loose sanity bound for short traces on
shared machines, *not* the 10% reproduction bar, which is
``python -m repro tune --verify``'s alone.
"""

import json
import os
import pathlib
import time

from repro.workloads import (
    TunerSweep,
    WorkloadSpec,
    dumps_trace,
    loads_trace,
    record_trace,
    tune,
    verify_reproduction,
)
from repro.workloads.scenarios import (
    contact_discovery_scenario,
    key_transparency_scenario,
)

from conftest import report

SMOKE = os.environ.get("SNOOPY_BENCH_SMOKE") == "1"

TRACE_REQUESTS = 300 if SMOKE else 1_200
# Arrival rate sized so every trace spans many epochs at every swept
# epoch_duration — single-epoch traces make pipelining unmeasurable and
# the replay wall-clock pure noise.
TRACE_RATE = 400.0 if SMOKE else 1_200.0
# Best-of-2 even in smoke: the first replay of a config pays one-time
# warmup (kernel import, pool spinup) that would otherwise dominate the
# reproduction check.
TUNE_REPEATS = 2
# Relative rps error this bench's re-replay is verified at (see the
# module docstring; `tune --verify` uses the tuner's 10% default).
BENCH_TOLERANCE = 0.5

# §3.2 application scale: the full run crosses the paper's 1M-object
# mark in both apps; smoke shrinks ~100x for CI wall-clock.
KT_USERS = 1 << 12 if SMOKE else 1 << 19
KT_LOOKUPS = 6 if SMOKE else 4
CD_KEY_SPACE = 1 << 14 if SMOKE else 1 << 20
CD_REGISTERED = 2_000 if SMOKE else 100_000
CD_BATCHES = 2
CD_CONTACTS = 32 if SMOKE else 48

SWEEP = TunerSweep(
    epoch_durations=(0.05, 0.1, 0.2),
    pipeline_depths=(1, 2),
)

HOT_KEY_SPEC = WorkloadSpec(
    distribution="zipf", num_keys=256, zipf_exponent=1.2,
    write_fraction=0.5, value_size=16,
)


def _trace_phase():
    """Record/serialize/parse throughput of the trace format."""
    started = time.perf_counter()
    trace = record_trace(HOT_KEY_SPEC, TRACE_REQUESTS, seed=5, rate=TRACE_RATE)
    record_s = time.perf_counter() - started
    started = time.perf_counter()
    text = dumps_trace(trace)
    dump_s = time.perf_counter() - started
    started = time.perf_counter()
    loaded = loads_trace(text)
    load_s = time.perf_counter() - started
    assert dumps_trace(loaded) == text  # byte-stable round trip
    return {
        "records": len(trace),
        "bytes": len(text),
        "record_s": record_s,
        "dump_s": dump_s,
        "load_s": load_s,
        "records_per_s_parse": len(trace) / load_s if load_s > 0 else 0.0,
        "checksum": trace.checksum(),
    }


def _tuner_phase(name, trace):
    """Tune one trace, then verify the emitted config reproduces."""
    started = time.perf_counter()
    result = tune(trace, sweep=SWEEP, measure=True, repeats=TUNE_REPEATS)
    tune_s = time.perf_counter() - started
    verdict = verify_reproduction(
        trace, result, repeats=TUNE_REPEATS, tolerance=BENCH_TOLERANCE,
    )
    measured = result.measured
    return {
        "trace": name,
        "records": len(trace),
        "trace_checksum": result.trace_checksum,
        "best": result.best.to_dict(),
        "tune_s": tune_s,
        "candidates": len(result.scores),
        "measured_rps": measured["best_rps"],
        "default_config": measured["default_config"],
        "default_rps": measured["default_rps"],
        "speedup_over_default": measured["speedup_over_default"],
        "tolerance": BENCH_TOLERANCE,
        "reproduction": verdict,
    }


def test_workload_scenarios():
    """Trace format, tuner value, and the §3.2 apps as workloads."""
    traces = _trace_phase()

    zipf_trace = record_trace(
        HOT_KEY_SPEC, TRACE_REQUESTS, seed=5, rate=TRACE_RATE
    )
    flash_trace = record_trace(
        HOT_KEY_SPEC, TRACE_REQUESTS, seed=6,
        arrival="flash_crowd", rate=TRACE_RATE / 2,
        arrival_params={"spike_factor": 8.0, "spike_at": 0.3,
                        "spike_length": 0.2},
    )
    tuner_rows = [
        _tuner_phase("zipf_poisson", zipf_trace),
        _tuner_phase("zipf_flash_crowd", flash_trace),
    ]

    kt = key_transparency_scenario(
        num_users=KT_USERS, lookups=KT_LOOKUPS, seed=1,
    )
    cd = contact_discovery_scenario(
        key_space=CD_KEY_SPACE, registered=CD_REGISTERED,
        batches=CD_BATCHES, contacts_per_batch=CD_CONTACTS, seed=1,
    )

    lines = [
        f"trace format : {traces['records']} records, "
        f"{traces['bytes']} bytes, parse "
        f"{traces['records_per_s_parse']:,.0f} rec/s",
    ]
    for row in tuner_rows:
        best = row["best"]
        lines.append(
            f"tuner {row['trace']:<17}: best "
            f"({best['epoch_duration']}s, depth {best['pipeline_depth']}) "
            f"{row['measured_rps']:,.0f} rps "
            f"({row['speedup_over_default']:.2f}x default, reproduction "
            f"err {row['reproduction']['relative_error']:.1%})"
        )
    lines.append(
        f"key transparency : {kt['num_objects']:,} objects, "
        f"{kt['verified']}/{kt['lookups']} proofs verified, "
        f"{kt['lookups_per_s']:.2f} lookups/s "
        f"(build {kt['build_s']:.1f}s)"
    )
    lines.append(
        f"contact discovery: {cd['num_objects']:,} buckets, "
        f"{cd['hits']}/{cd['queries']} hits "
        f"({cd['duplicate_contacts']} hot duplicates), "
        f"{cd['queries_per_s']:.2f} queries/s "
        f"(build {cd['build_s']:.1f}s)"
    )
    report(
        "Scenario factory — traces, tuner, §3.2 apps under skew",
        "\n".join(lines),
    )

    out = pathlib.Path(__file__).resolve().parent.parent / (
        "BENCH_workloads.json"
    )
    out.write_text(json.dumps(
        {
            "benchmark": "workloads",
            "smoke": SMOKE,
            "traces": traces,
            "tuner": tuner_rows,
            "scenarios": {"key_transparency": kt, "contact_discovery": cd},
        },
        indent=2,
    ) + "\n")

    # Acceptance: the tuner's emitted config reproduces (identical
    # response bytes; throughput within the recorded tolerance), both
    # apps served every request correctly, and the full run really
    # crossed the 1M-object mark in both scenarios.
    for row in tuner_rows:
        assert row["reproduction"]["digest_matches"], row
        assert row["reproduction"]["within_tolerance"], row
        assert row["measured_rps"] > 0, row
    assert kt["verified"] == kt["lookups"], kt
    assert cd["queries"] == CD_BATCHES * CD_CONTACTS, cd
    assert cd["duplicate_contacts"] > 0, cd  # skew really produced dupes
    if not SMOKE:
        assert kt["num_objects"] >= 1_000_000, kt
        assert cd["num_objects"] >= 1_000_000, cd
