"""Replay-driven configuration tuner: sweep configs against a trace.

Given a recorded trace (:mod:`repro.workloads.trace`), the tuner sweeps
the two public scheduling knobs — ``epoch_duration`` and
``pipeline_depth``, the only performance axes with more than one
production value — and emits the best point as JSON.  Kernel, store
crypto and execution backend are the deployment's one default each.

Two evaluation layers, deliberately separated:

* **Model scoring (deterministic).**  Every candidate is scored with
  the §6 cost model's own Eq. (1) stage times
  (:func:`repro.sim.costmodel.epoch_stage_times`) at the trace's
  arrival statistics: the bottleneck stage at depth >= 2, both stages
  back to back at depth 1.  Same trace + same sweep ⇒ byte-identical
  ranking and best-config JSON (:meth:`TunerResult.best_config_json`),
  which is what the determinism tests compare and what CI can diff.
* **Replay verification (measured).**  The winning candidate and
  ``SnoopyConfig()``'s own schedule (:data:`DEFAULT_CANDIDATE`) are
  then actually replayed against the trace in process
  (:func:`replay_trace`) and the measured requests/second recorded
  alongside, each over replays that run :data:`MIN_REPLAY_SECONDS` in
  all; when the winner *is* the default it is measured once and its
  ``speedup_over_default`` is 1.0.  Re-replaying the emitted config
  must land within ``REPRODUCTION_TOLERANCE`` of the reported
  measurement (the ``python -m repro tune --verify`` bar).

The knobs the tuner sweeps are all *public information* (§2.1): it
only ever reads the trace's shape and timing, never which keys are hot
— an oblivious deployment gives it nothing key-dependent to exploit,
and the skew-insensitivity tests hold that line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.crypto.keys import KeyChain
from repro.sim.costmodel import epoch_stage_times
from repro.workloads.trace import Trace

#: Relative wall-clock tolerance for ``--verify`` re-replays.
REPRODUCTION_TOLERANCE = 0.10

#: Wall time a measurement replays its trace for, at the least.  A
#: 240-request trace replays in 40–90 ms on two shared cores, and the
#: best of three such replays missed the reproduction tolerance in most
#: runs; pooled over 2 s it misses about one run in ten, the drift of
#: the host itself (ROADMAP item 22).
MIN_REPLAY_SECONDS = 2.0


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the sweep: the public scheduling knobs."""

    epoch_duration: float = SnoopyConfig.epoch_duration
    pipeline_depth: int = SnoopyConfig.pipeline_depth

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready rendering (sweep IDs, emitted configs)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: Dict[str, object]) -> "CandidateConfig":
        """Inverse of :meth:`to_dict` (reads emitted config JSON)."""
        return cls(
            epoch_duration=float(obj["epoch_duration"]),
            pipeline_depth=int(obj["pipeline_depth"]),
        )


#: The point every ``speedup_over_default`` is stated against (named in
#: the report as ``default_config``): ``SnoopyConfig()``'s own schedule.
DEFAULT_CANDIDATE = CandidateConfig()


@dataclass(frozen=True)
class TunerSweep:
    """The candidate grid (cartesian product of the axis tuples)."""

    epoch_durations: Tuple[float, ...] = (0.05, 0.1, 0.2)
    pipeline_depths: Tuple[int, ...] = (1, 2)

    def candidates(self) -> List[CandidateConfig]:
        """Every grid point, in deterministic axis order."""
        return [
            CandidateConfig(epoch_duration=duration, pipeline_depth=depth)
            for duration in self.epoch_durations
            for depth in self.pipeline_depths
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the sweep grid (report provenance)."""
        return {
            "epoch_durations": list(self.epoch_durations),
            "pipeline_depths": list(self.pipeline_depths),
        }


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
) -> float:
    """Modelled time of one epoch under ``candidate``'s schedule.

    At depth >= 2 the §6 pipeline overlaps the balancer stage with
    subORAM execution, so the bottleneck stage sets the cadence (Eq. 1's
    ``max``); at depth 1 the stages run back to back.
    """
    stages = epoch_stage_times(
        max(1, math.ceil(requests_per_epoch / num_load_balancers)),
        num_load_balancers, num_suborams,
        math.ceil(num_objects / num_suborams),
        security_parameter, object_size=value_size,
    )
    return max(stages) if candidate.pipeline_depth >= 2 else sum(stages)


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
    model = dict(
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        num_objects=num_objects,
        security_parameter=security_parameter,
        value_size=trace.spec.value_size if trace.spec else 160,
    )
    mean_load = max(1, math.ceil(trace.mean_rate * candidate.epoch_duration))
    groups = trace.epoch_groups(candidate.epoch_duration)
    peak_load = max((len(g) for g in groups), default=1) or 1
    mean_epoch = modelled_epoch_seconds(candidate, mean_load, **model)
    peak_epoch = modelled_epoch_seconds(candidate, peak_load, **model)
    return {
        "config": candidate.to_dict(),
        "modelled_rps": mean_load / max(mean_epoch, 1e-12),
        "modelled_epoch_s": mean_epoch,
        "peak_epoch_load": peak_load,
        "feasible": peak_epoch <= candidate.epoch_duration,
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
    measurement, not a latency simulation.  Every candidate runs the
    default kernel, store crypto and execution backend, and drives the
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


def _sustained_replay(
    trace: Trace, candidate: CandidateConfig, repeats: int, **kwargs
) -> ReplayResult:
    """Replay ``trace`` at least ``repeats`` times and until the timed
    replays have run :data:`MIN_REPLAY_SECONDS` in all.

    An untimed first replay builds the per-shape kernel tables and
    scratch buffers every later replay of the trace reuses.  The
    result's ``rps`` is over every timed replay (all their requests over
    all their wall time) and its ``elapsed_s`` is the mean timed replay;
    every replay must serve the same bytes.
    """
    warm = replay_trace(trace, candidate, **kwargs)
    runs: List[ReplayResult] = []
    while len(runs) < max(1, repeats) or (
        sum(run.elapsed_s for run in runs) < MIN_REPLAY_SECONDS
    ):
        runs.append(replay_trace(trace, candidate, **kwargs))
    digests = {run.response_digest for run in [warm] + runs}
    if len(digests) != 1:
        raise AssertionError(
            f"replay nondeterminism: {len(digests)} distinct response "
            "digests for one trace/config"
        )
    elapsed = sum(run.elapsed_s for run in runs)
    return dataclasses.replace(
        warm,
        elapsed_s=elapsed / len(runs),
        rps=sum(run.requests for run in runs) / elapsed if elapsed else 0.0,
    )


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
    throughput wins, ties broken toward lower epoch_duration, then lower
    pipeline_depth.  With ``measure=True`` the winner and
    ``SnoopyConfig()``'s schedule (:data:`DEFAULT_CANDIDATE`, named in
    the report as ``default_config``) are then replayed for real and
    the measured rps attached.
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
            pair[0].epoch_duration,
            pair[0].pipeline_depth,
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
        best_run = _sustained_replay(trace, best, repeats, **replay_kwargs)
        # Replaying one config twice would only turn noise into a
        # "speedup": the default's run is the winner's when they agree.
        default_run = (
            best_run if best == DEFAULT_CANDIDATE else _sustained_replay(
                trace, DEFAULT_CANDIDATE, repeats, **replay_kwargs
            )
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
    run = _sustained_replay(
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
