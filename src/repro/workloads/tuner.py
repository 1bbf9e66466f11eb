"""Replay-driven configuration tuner: sweep configs against a trace.

Given a recorded trace (:mod:`repro.workloads.trace`), the tuner sweeps
candidate configurations over the public performance knobs —
``epoch_duration``, ``pipeline_depth``, ``kernel``, ``execution
backend``, ``replication`` — and emits the best one as JSON.

Two evaluation layers, deliberately separated:

* **Model scoring (deterministic).**  Every candidate is scored with
  the §6 analytic cost model (:mod:`repro.sim.costmodel`) applied to
  the trace's arrival statistics, adjusted by the measured kernel
  speedup and the backend's batch-level parallelism.  Same trace +
  same sweep ⇒ byte-identical ranking and best-config JSON
  (:meth:`TunerResult.best_config_json`), which is what the
  determinism tests compare and what CI can diff.
* **Replay verification (measured).**  The winning candidate and the
  pinned reference configuration (:data:`DEFAULT_CANDIDATE`: serial,
  python kernel, depth 1, 0.2 s epochs) are then actually replayed
  against the trace in process (:func:`replay_trace`) and the measured
  requests/second recorded alongside.  The emitted report carries both
  numbers; re-replaying the emitted config must land within
  ``REPRODUCTION_TOLERANCE`` of the reported measurement (the
  ``python -m repro tune --verify`` bar).

The knobs the tuner sweeps are all *public information* (§2.1): it
only ever reads the trace's shape and timing, never which keys are hot
— an oblivious deployment gives it nothing key-dependent to exploit,
and the skew-insensitivity tests hold that line.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.balls_bins import batch_size
from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.crypto.keys import KeyChain
from repro.sim.costmodel import load_balancer_time, suboram_time
from repro.workloads.trace import Trace

#: Measured end-to-end epoch speedup of the vectorized kernel over the
#: scalar reference (BENCH_kernels.json / BENCH_aead.json: 5.6-7.2x at
#: S=8; the model uses the conservative end-to-end figure).
KERNEL_SPEEDUP = {"python": 1.0, "numpy": 5.6}

#: Relative wall-clock tolerance for ``--verify`` re-replays.
REPRODUCTION_TOLERANCE = 0.10


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the sweep: the public performance knobs."""

    epoch_duration: float = 0.2
    pipeline_depth: int = 2
    kernel: str = "python"
    backend: str = "serial"
    replication: Optional[Tuple[int, int]] = None

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready rendering (sweep IDs, emitted configs)."""
        return {
            "backend": self.backend,
            "epoch_duration": self.epoch_duration,
            "kernel": self.kernel,
            "pipeline_depth": self.pipeline_depth,
            "replication": (
                list(self.replication) if self.replication else None
            ),
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, object]) -> "CandidateConfig":
        """Inverse of :meth:`to_dict` (reads emitted config JSON)."""
        replication = obj.get("replication")
        return cls(
            epoch_duration=float(obj["epoch_duration"]),
            pipeline_depth=int(obj["pipeline_depth"]),
            kernel=str(obj["kernel"]),
            backend=str(obj["backend"]),
            replication=tuple(replication) if replication else None,
        )

    def sort_key(self) -> Tuple:
        """Deterministic tie-break order (prefer low latency, less gear)."""
        return (
            self.epoch_duration,
            self.pipeline_depth,
            _backend_workers(self.backend),
            self.kernel,
            self.backend,
            self.replication or (0, 0),
        )


#: The fixed reference point every ``speedup_over_default`` is stated
#: against (and the report names as ``default_config``): the untuned
#: all-reference deployment.  Pinned literally — it must not float when
#: ``SnoopyConfig``'s defaults move, or reports stop being comparable.
DEFAULT_CANDIDATE = CandidateConfig(
    epoch_duration=0.2,
    pipeline_depth=1,
    kernel="python",
    backend="serial",
    replication=None,
)


@dataclass(frozen=True)
class TunerSweep:
    """The candidate grid (cartesian product of the axis tuples)."""

    epoch_durations: Tuple[float, ...] = (0.05, 0.1, 0.2)
    pipeline_depths: Tuple[int, ...] = (1, 2)
    kernels: Tuple[str, ...] = ("python", "numpy")
    backends: Tuple[str, ...] = ("serial", "thread:4")
    replications: Tuple[Optional[Tuple[int, int]], ...] = (None,)

    def candidates(self) -> List[CandidateConfig]:
        """Every grid point, in deterministic axis order."""
        return [
            CandidateConfig(
                epoch_duration=duration,
                pipeline_depth=depth,
                kernel=kernel,
                backend=backend,
                replication=replication,
            )
            for duration in self.epoch_durations
            for depth in self.pipeline_depths
            for kernel in self.kernels
            for backend in self.backends
            for replication in self.replications
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the sweep grid (report provenance)."""
        return {
            "backends": list(self.backends),
            "epoch_durations": list(self.epoch_durations),
            "kernels": list(self.kernels),
            "pipeline_depths": list(self.pipeline_depths),
            "replications": [
                list(r) if r else None for r in self.replications
            ],
        }


def _backend_workers(spec: str) -> int:
    """Usable batch-level parallelism of an execution-backend spec."""
    name, _, suffix = spec.partition(":")
    if name == "serial":
        return 1
    if suffix:
        return max(1, int(suffix))
    return 4  # the pooled backends' effective default for small fleets


# ---------------------------------------------------------------------------
# Deterministic model scoring
# ---------------------------------------------------------------------------
def modelled_epoch_seconds(
    candidate: CandidateConfig,
    requests_per_epoch: int,
    *,
    num_load_balancers: int,
    num_suborams: int,
    num_objects: int,
    security_parameter: int,
    value_size: int,
) -> Dict[str, float]:
    """Analytic per-epoch stage times for one candidate.

    Returns ``{"build_match": .., "execute": .., "epoch": ..}`` where
    ``epoch`` accounts for pipelining: at depth >= 2 the §6 pipeline
    overlaps the balancer's build/match with subORAM execution, so the
    bottleneck stage sets the cadence; at depth 1 stages serialize.
    """
    per_balancer = max(1, math.ceil(
        requests_per_epoch / max(1, num_load_balancers)
    ))
    speedup = KERNEL_SPEEDUP.get(candidate.kernel, 1.0)
    build_match = load_balancer_time(
        per_balancer, num_suborams, security_parameter,
        object_size=value_size,
    ) / speedup
    batch = batch_size(per_balancer, num_suborams, security_parameter)
    per_partition = max(1, math.ceil(num_objects / num_suborams))
    one_batch = suboram_time(
        batch, per_partition, security_parameter, object_size=value_size,
    ) / speedup
    # Each subORAM executes one batch per balancer; the backend pool
    # overlaps (balancer, subORAM) tasks up to its worker count, and a
    # replica group multiplies the work by its size.
    group = 1
    if candidate.replication is not None:
        f, r = candidate.replication
        group = f + r + 1
    tasks = num_load_balancers * num_suborams * group
    waves = math.ceil(tasks / min(_backend_workers(candidate.backend), tasks))
    execute = one_batch * waves
    if candidate.pipeline_depth >= 2:
        epoch = max(build_match, execute)
    else:
        epoch = build_match + execute
    return {"build_match": build_match, "execute": execute, "epoch": epoch}


def score_candidate(
    candidate: CandidateConfig,
    trace: Trace,
    *,
    num_load_balancers: int,
    num_suborams: int,
    num_objects: int,
    security_parameter: int,
) -> Dict[str, object]:
    """Deterministic score of one candidate against a trace.

    ``modelled_rps`` is the sustainable service rate (mean epoch load
    over modelled epoch time); ``feasible`` asks Eq. (1)'s question at
    the trace's *peak* epoch — can the config drain its worst epoch
    within one period?
    """
    value_size = trace.spec.value_size if trace.spec else 160
    rate = trace.mean_rate
    mean_load = max(1, math.ceil(rate * candidate.epoch_duration))
    groups = trace.epoch_groups(candidate.epoch_duration)
    peak_load = max((len(g) for g in groups), default=1) or 1
    mean_times = modelled_epoch_seconds(
        candidate, mean_load,
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        num_objects=num_objects,
        security_parameter=security_parameter,
        value_size=value_size,
    )
    peak_times = modelled_epoch_seconds(
        candidate, peak_load,
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        num_objects=num_objects,
        security_parameter=security_parameter,
        value_size=value_size,
    )
    return {
        "config": candidate.to_dict(),
        "modelled_rps": mean_load / max(mean_times["epoch"], 1e-12),
        "modelled_epoch_s": mean_times["epoch"],
        "peak_epoch_load": peak_load,
        "feasible": peak_times["epoch"] <= candidate.epoch_duration,
    }


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
@dataclass
class ReplayResult:
    """What one in-process replay of a trace produced."""

    requests: int
    epochs: int
    elapsed_s: float
    rps: float
    response_digest: str


def replay_trace(
    trace: Trace,
    candidate: CandidateConfig,
    *,
    num_load_balancers: int = 1,
    num_suborams: int = 2,
    security_parameter: int = 32,
    master: bytes = b"workload-replay-master-key-.....",
    rng_seed: int = 5,
    objects: Optional[Dict[int, bytes]] = None,
) -> ReplayResult:
    """Replay a trace against one candidate configuration, in process.

    Records are grouped into epochs by arrival time
    (:meth:`Trace.epoch_groups` at the candidate's ``epoch_duration``)
    and the epochs run back to back at full speed — a capacity
    measurement, not a latency simulation.  Every candidate drives the
    §6 scheduler with manual, deterministic epoch closes; at depth 1
    epochs do not overlap.  The response digest ties a replay to the
    bytes it served, so two replays of the same trace are checkably
    identical.
    """
    spec = trace.spec
    value_size = spec.value_size if spec is not None else 160
    if objects is None:
        num_keys = spec.total_keys if spec is not None else (
            max((r.key for r in trace.records), default=0) + 1
        )
        objects = {key: bytes(value_size) for key in range(num_keys)}
    config = SnoopyConfig(
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        value_size=value_size,
        security_parameter=security_parameter,
        epoch_duration=candidate.epoch_duration,
        pipeline_depth=max(1, candidate.pipeline_depth),
        execution_backend=candidate.backend,
        kernel=candidate.kernel,
        replication=candidate.replication,
    )
    groups = trace.epoch_groups(candidate.epoch_duration)
    digest = hashlib.sha256()
    with Snoopy(
        config, keychain=KeyChain(master=master), rng=random.Random(rng_seed)
    ) as store:
        store.initialize(dict(objects))
        tickets = []
        started = time.perf_counter()
        with store.start_pipeline(clock=False) as pipeline:
            for group in groups:
                for record in group:
                    tickets.append(store.submit(record.to_request()))
                pipeline.close_epoch()
            pipeline.flush()
        elapsed = time.perf_counter() - started
        for ticket in tickets:
            response = ticket.result()
            digest.update(
                f"{response.key}|{response.seq}|{response.client_id}|"
                f"{int(response.ok)}|".encode("ascii")
            )
            digest.update(response.value or b"\x00")
    total = len(trace.records)
    return ReplayResult(
        requests=total,
        epochs=len(groups),
        elapsed_s=elapsed,
        rps=total / elapsed if elapsed > 0 else 0.0,
        response_digest=digest.hexdigest(),
    )


def _best_of(
    trace: Trace, candidate: CandidateConfig, repeats: int, **kwargs
) -> ReplayResult:
    """Fastest of ``repeats`` replays (noise only ever slows a run)."""
    runs = [
        replay_trace(trace, candidate, **kwargs) for _ in range(max(1, repeats))
    ]
    digests = {run.response_digest for run in runs}
    if len(digests) != 1:
        raise AssertionError(
            f"replay nondeterminism: {len(digests)} distinct response "
            "digests for one trace/config"
        )
    return min(runs, key=lambda run: run.elapsed_s)


# ---------------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------------
@dataclass
class TunerResult:
    """Everything one tuning run decided and measured."""

    trace_checksum: str
    sweep: TunerSweep
    best: CandidateConfig
    scores: List[Dict[str, object]]
    deployment: Dict[str, object]
    measured: Optional[Dict[str, object]] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def best_config_dict(self) -> Dict[str, object]:
        """The deterministic part: config choice + model evidence."""
        best_score = next(
            s for s in self.scores if s["config"] == self.best.to_dict()
        )
        return {
            "best": self.best.to_dict(),
            "deployment": self.deployment,
            "modelled_rps": best_score["modelled_rps"],
            "feasible": best_score["feasible"],
            "sweep": self.sweep.to_dict(),
            "trace_checksum": self.trace_checksum,
            "tuner_version": 1,
        }

    def best_config_json(self) -> str:
        """Canonical JSON of :meth:`best_config_dict` — byte-stable.

        Same trace + same sweep always renders the same bytes (the
        determinism contract); measured wall-clock numbers live in
        :meth:`report`, not here.
        """
        return json.dumps(
            self.best_config_dict(), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def report(self) -> Dict[str, object]:
        """The full report: deterministic choice + measured replays."""
        report = self.best_config_dict()
        report["scores"] = self.scores
        report["measured"] = self.measured
        report["meta"] = self.meta
        return report


def tune(
    trace: Trace,
    *,
    sweep: Optional[TunerSweep] = None,
    num_load_balancers: int = 1,
    num_suborams: int = 2,
    num_objects: Optional[int] = None,
    security_parameter: int = 32,
    measure: bool = True,
    repeats: int = 2,
) -> TunerResult:
    """Sweep the candidate grid against ``trace``; return the best config.

    Selection is purely model-based (deterministic; see module
    docstring).  Feasible candidates (peak epoch drains within one
    period) beat infeasible ones; within a class, higher modelled
    throughput wins, ties broken toward lower epoch_duration / less
    hardware.  With ``measure=True`` the winner and the pinned reference
    (:data:`DEFAULT_CANDIDATE`, named in the report as
    ``default_config``) are then replayed for real and the measured rps
    attached.
    """
    sweep = sweep if sweep is not None else TunerSweep()
    if num_objects is None:
        num_objects = trace.spec.total_keys if trace.spec else (
            max((r.key for r in trace.records), default=0) + 1
        )
    deployment = {
        "num_load_balancers": num_load_balancers,
        "num_objects": num_objects,
        "num_suborams": num_suborams,
        "security_parameter": security_parameter,
    }
    candidates = sweep.candidates()
    scores = [
        score_candidate(
            candidate, trace,
            num_load_balancers=num_load_balancers,
            num_suborams=num_suborams,
            num_objects=num_objects,
            security_parameter=security_parameter,
        )
        for candidate in candidates
    ]
    ranked = sorted(
        zip(candidates, scores),
        key=lambda pair: (
            not pair[1]["feasible"],
            -pair[1]["modelled_rps"],
            pair[0].sort_key(),
        ),
    )
    best = ranked[0][0]
    result = TunerResult(
        trace_checksum=trace.checksum(),
        sweep=sweep,
        best=best,
        scores=scores,
        deployment=deployment,
    )
    if measure:
        replay_kwargs = dict(
            num_load_balancers=num_load_balancers,
            num_suborams=num_suborams,
            security_parameter=security_parameter,
        )
        best_run = _best_of(trace, best, repeats, **replay_kwargs)
        default_run = _best_of(
            trace, DEFAULT_CANDIDATE, repeats, **replay_kwargs
        )
        result.measured = {
            "best_rps": best_run.rps,
            "best_elapsed_s": best_run.elapsed_s,
            "default_config": DEFAULT_CANDIDATE.to_dict(),
            "default_rps": default_run.rps,
            "default_elapsed_s": default_run.elapsed_s,
            "response_digest": best_run.response_digest,
            "repeats": max(1, repeats),
            "speedup_over_default": (
                best_run.rps / default_run.rps if default_run.rps else 0.0
            ),
        }
    return result


def verify_reproduction(
    trace: Trace,
    result: TunerResult,
    *,
    repeats: int = 2,
    tolerance: float = REPRODUCTION_TOLERANCE,
) -> Dict[str, object]:
    """Re-replay an emitted config; check it reproduces the measurement.

    Returns ``{"reported_rps", "replayed_rps", "relative_error",
    "within_tolerance", "digest_matches"}`` — the ``--verify`` verdict.
    Requires a measured result.
    """
    if result.measured is None:
        raise ValueError("verify_reproduction needs a measured TunerResult")
    run = _best_of(
        trace, result.best, repeats,
        num_load_balancers=result.deployment["num_load_balancers"],
        num_suborams=result.deployment["num_suborams"],
        security_parameter=result.deployment["security_parameter"],
    )
    reported = result.measured["best_rps"]
    error = abs(run.rps - reported) / reported if reported else 1.0
    return {
        "reported_rps": reported,
        "replayed_rps": run.rps,
        "relative_error": error,
        "within_tolerance": error <= tolerance,
        "digest_matches": (
            run.response_digest == result.measured["response_digest"]
        ),
    }
