"""Tests for the replay-driven tuner (:mod:`repro.workloads.tuner`).

The determinism contract: same trace + same sweep ⇒ byte-identical
best-config JSON, because selection is purely model-based.  The value
contract: the winner must beat the library-default configuration on the
trace it was tuned for, replay-verified — and re-replaying an emitted
config must reproduce the reported measurement (the CLI enforces the
10% bar; the unit test uses a looser bound to stay robust on loaded CI
machines, while asserting the response digest matches exactly).
"""

import json

import pytest

from repro.workloads import (
    DEFAULT_CANDIDATE,
    CandidateConfig,
    TunerSweep,
    WorkloadSpec,
    record_trace,
    replay_trace,
    tune,
    verify_reproduction,
)

SPEC = WorkloadSpec(
    distribution="zipf", num_keys=72, zipf_exponent=1.1,
    write_fraction=0.5, value_size=16,
)

#: Small sweep so measured tests stay fast; still spans every axis the
#: tuner differentiates on (duration, depth, backend).
SWEEP = TunerSweep(
    epoch_durations=(0.1, 0.2),
    pipeline_depths=(1, 2),
    kernels=("python",),
    backends=("serial", "thread:2"),
)


#: Store/sweep scale where the tuned config's advantage is physical,
#: not modelled: the numpy kernel releases the GIL so thread backends
#: genuinely parallelize, and a 1024-object store makes per-epoch work
#: dominate fixed dispatch overhead.  The pure-python kernel is
#: GIL-bound, so a python-only sweep can never beat serial by much.
MEASURED_SPEC = WorkloadSpec(
    distribution="zipf", num_keys=1024, zipf_exponent=1.1,
    write_fraction=0.5, value_size=64,
)

MEASURED_SWEEP = TunerSweep(
    epoch_durations=(0.1, 0.2),
    pipeline_depths=(1, 2),
    kernels=("python", "numpy"),
    backends=("serial", "thread:2"),
)


def small_trace(seed=31, count=90):
    return record_trace(SPEC, count, seed, rate=1500.0)


def measured_trace(seed=31, count=300):
    """A trace long enough to cover several epochs at every swept
    ``epoch_duration`` — single-epoch traces make replay wall-clock
    pure noise and pipelining unmeasurable."""
    return record_trace(MEASURED_SPEC, count, seed, rate=800.0)


class TestTunerDeterminism:
    def test_same_trace_same_seed_identical_best_config_json(self):
        a = tune(small_trace(), sweep=SWEEP, measure=False)
        b = tune(small_trace(), sweep=SWEEP, measure=False)
        assert a.best_config_json() == b.best_config_json()
        assert a.best == b.best
        assert a.scores == b.scores

    def test_best_config_json_is_canonical(self):
        result = tune(small_trace(), sweep=SWEEP, measure=False)
        text = result.best_config_json()
        parsed = json.loads(text)
        assert text == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert parsed["trace_checksum"] == small_trace().checksum()
        assert parsed["tuner_version"] == 1

    def test_different_trace_changes_checksum_not_validity(self):
        a = tune(small_trace(seed=31), sweep=SWEEP, measure=False)
        b = tune(small_trace(seed=32), sweep=SWEEP, measure=False)
        assert json.loads(a.best_config_json())["trace_checksum"] != \
            json.loads(b.best_config_json())["trace_checksum"]

    def test_measurement_does_not_change_the_choice(self):
        modelled = tune(small_trace(), sweep=SWEEP, measure=False)
        measured = tune(small_trace(), sweep=SWEEP, measure=True, repeats=1)
        assert modelled.best_config_json() == measured.best_config_json()
        assert measured.measured is not None

    def test_candidate_config_round_trips(self):
        candidate = CandidateConfig(
            epoch_duration=0.05, pipeline_depth=2, kernel="python",
            backend="thread:4", replication=(1, 0),
        )
        assert CandidateConfig.from_dict(candidate.to_dict()) == candidate

    def test_feasible_candidates_rank_first(self):
        result = tune(small_trace(), sweep=SWEEP, measure=False)
        best_score = next(
            s for s in result.scores
            if s["config"] == result.best.to_dict()
        )
        if any(s["feasible"] for s in result.scores):
            assert best_score["feasible"]
        assert all(
            best_score["modelled_rps"] >= s["modelled_rps"]
            for s in result.scores
            if s["feasible"] == best_score["feasible"]
        )


class TestTunerBeatsDefault:
    def test_winner_beats_default_on_its_own_trace(self):
        """Replay-verified: the tuned config out-serves the reference.

        The pinned reference (``DEFAULT_CANDIDATE``: serial, python,
        depth 1, 200 ms epochs — not ``SnoopyConfig``'s defaults)
        leaves the numpy kernel, pipelining, and batch-level
        parallelism on the table, so the winner clears it ~3x here; the
        bound tolerates CI-machine noise without letting a regression
        through.
        """
        result = tune(
            measured_trace(), sweep=MEASURED_SWEEP, measure=True, repeats=2
        )
        measured = result.measured
        assert measured is not None
        assert DEFAULT_CANDIDATE.to_dict() == {
            "backend": "serial", "epoch_duration": 0.2, "kernel": "python",
            "pipeline_depth": 1, "replication": None,
        }
        assert measured["default_config"] == DEFAULT_CANDIDATE.to_dict()
        assert result.best != DEFAULT_CANDIDATE
        assert measured["best_rps"] > 0
        assert measured["speedup_over_default"] >= 1.5
        # The model must agree with the direction of the measurement:
        # the winner's modelled rps beats the default's modelled rps.
        by_config = {
            json.dumps(s["config"], sort_keys=True): s["modelled_rps"]
            for s in result.scores
        }
        best_key = json.dumps(result.best.to_dict(), sort_keys=True)
        default_key = json.dumps(
            DEFAULT_CANDIDATE.to_dict(), sort_keys=True
        )
        if default_key in by_config:
            assert by_config[best_key] > by_config[default_key]


class TestReproduction:
    def test_verify_reproduction_digest_and_tolerance(self):
        trace = measured_trace(count=180)
        result = tune(trace, sweep=SWEEP, measure=True, repeats=2)
        verdict = verify_reproduction(
            trace, result, repeats=2, tolerance=0.5
        )
        assert verdict["digest_matches"]
        assert verdict["within_tolerance"], verdict
        assert verdict["replayed_rps"] > 0

    def test_replay_is_response_deterministic(self):
        trace = small_trace(count=40)
        candidate = CandidateConfig(
            epoch_duration=0.1, pipeline_depth=2, kernel="python",
            backend="thread:2",
        )
        a = replay_trace(trace, candidate)
        b = replay_trace(trace, candidate)
        assert a.response_digest == b.response_digest
        assert a.requests == b.requests == len(trace)
        assert a.epochs == b.epochs

    def test_pipelined_and_sequential_serve_identical_bytes(self):
        trace = small_trace(count=40)
        deep = replay_trace(trace, CandidateConfig(
            epoch_duration=0.1, pipeline_depth=2, backend="thread:2",
        ))
        flat = replay_trace(trace, CandidateConfig(
            epoch_duration=0.1, pipeline_depth=1, backend="serial",
        ))
        assert deep.response_digest == flat.response_digest

    def test_verify_requires_measurement(self):
        trace = small_trace(count=20)
        result = tune(trace, sweep=SWEEP, measure=False)
        with pytest.raises(ValueError):
            verify_reproduction(trace, result)


class TestTunerCli:
    def run_cli(self, argv):
        from repro.tools.cli import main

        return main(argv)

    def test_tune_emits_deterministic_best_config(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = [
            "tune", "--workload", "zipf:1.1", "--requests", "60",
            "--keys", "48", "--no-measure", "--seed", "7",
            "--epoch-durations", "0.1,0.2", "--backends", "serial,thread:2",
        ]
        assert self.run_cli(base + ["--out", str(out_a)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert self.run_cli(base + ["--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        best = json.loads(out_a.read_text())
        assert best["best"] == report["best"]
        assert best["trace_checksum"] == report["trace_checksum"]

    def test_tune_from_trace_file_and_report_out(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        report_path = tmp_path / "report.json"
        assert self.run_cli([
            "tune", "--workload", "uniform", "--requests", "40",
            "--keys", "32", "--no-measure",
            "--trace-out", str(trace_path),
        ]) == 0
        first = json.loads(capsys.readouterr().out)
        assert self.run_cli([
            "tune", "--trace", str(trace_path), "--no-measure",
            "--report-out", str(report_path),
        ]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["best"] == second["best"]
        assert first["trace_checksum"] == second["trace_checksum"]
        assert json.loads(report_path.read_text())["best"] == second["best"]
