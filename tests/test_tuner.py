"""Tests for the replay-driven tuner (:mod:`repro.workloads.tuner`).

The determinism contract: same trace + same sweep ⇒ byte-identical
best-config JSON, because selection is purely model-based.  The model
contract: the tuner scores with the cost model's own Eq. (1) stage
times, so its feasibility verdict is the planner's.  The measurement
contract: speedups are stated against ``SnoopyConfig()``'s schedule,
never against a replay of the winner itself, and re-replaying an
emitted config must reproduce the reported measurement (the CLI
enforces the 10% bar; the unit test uses a looser bound to stay robust
on loaded CI machines, while asserting the response digest matches
exactly).
"""

import json
import math

import pytest

from repro.core.config import SnoopyConfig
from repro.sim.costmodel import epoch_feasible, epoch_stage_times
from repro.workloads import tuner
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

#: Small sweep so measured tests stay fast; still spans both axes the
#: tuner sweeps (duration, depth).
SWEEP = TunerSweep(
    epoch_durations=(0.1, 0.2),
    pipeline_depths=(1, 2),
)


#: A store large enough that per-epoch work dominates fixed dispatch
#: overhead in the measured tests.
MEASURED_SPEC = WorkloadSpec(
    distribution="zipf", num_keys=1024, zipf_exponent=1.1,
    write_fraction=0.5, value_size=64,
)


def small_trace(seed=31, count=90):
    return record_trace(SPEC, count, seed, rate=1500.0)


def measured_trace(seed=31, count=300):
    """A trace long enough to cover several epochs at every swept
    ``epoch_duration`` — single-epoch traces make replay wall-clock
    pure noise and pipelining unmeasurable."""
    return record_trace(MEASURED_SPEC, count, seed, rate=800.0)


def scan_bound_trace():
    """A model-only trace over 400K objects: the subORAM scan dominates,
    so short epochs are infeasible and long ones are not."""
    spec = WorkloadSpec(distribution="uniform", num_keys=400_000)
    return record_trace(spec, 400, 3, rate=4000.0)


@pytest.fixture(autouse=True)
def short_measurements(monkeypatch):
    """Measured tests replay ``repeats`` times, not for the CLI's minimum
    wall time (``TestSustainedReplay`` pins that rule)."""
    monkeypatch.setattr(tuner, "MIN_REPLAY_SECONDS", 0.0)


class TestSustainedReplay:
    def _fake(self, monkeypatch, digests):
        calls = []

        def replay(trace, candidate, **kwargs):
            calls.append(kwargs)
            return tuner.ReplayResult(
                requests=30, epochs=2, elapsed_s=0.25, rps=120.0,
                response_digest=digests[(len(calls) - 1) % len(digests)],
            )

        monkeypatch.setattr(tuner, "replay_trace", replay)
        return calls

    def test_replays_for_the_minimum_wall_time_after_one_warm_up(
        self, monkeypatch
    ):
        calls = self._fake(monkeypatch, ["d"])
        monkeypatch.setattr(tuner, "MIN_REPLAY_SECONDS", 1.0)
        run = tuner._sustained_replay(None, DEFAULT_CANDIDATE, 2, seed=1)
        # One untimed replay, then four timed ones of 0.25 s (>= 1 s).
        assert len(calls) == 5 and calls[0] == {"seed": 1}
        assert run.rps == 4 * 30 / 1.0 and run.elapsed_s == 0.25
        calls.clear()
        tuner._sustained_replay(None, DEFAULT_CANDIDATE, 6)
        assert len(calls) == 7  # repeats, when they run longer

    def test_any_replay_serving_other_bytes_raises(self, monkeypatch):
        self._fake(monkeypatch, ["d", "d", "e"])
        with pytest.raises(AssertionError, match="nondeterminism"):
            tuner._sustained_replay(None, DEFAULT_CANDIDATE, 3)


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
        candidate = CandidateConfig(epoch_duration=0.05, pipeline_depth=1)
        assert candidate.to_dict() == {
            "epoch_duration": 0.05, "pipeline_depth": 1,
        }
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


class TestTunerDefault:
    def test_default_is_snoopy_config_and_never_replayed_against_itself(self):
        """The reference is ``SnoopyConfig()``'s schedule, and a winner
        equal to it is replayed once: its speedup is exactly 1.0, not
        the noise of two runs of one config."""
        config = SnoopyConfig()
        assert DEFAULT_CANDIDATE.to_dict() == {
            "epoch_duration": config.epoch_duration,
            "pipeline_depth": config.pipeline_depth,
        }
        only_default = TunerSweep(
            epoch_durations=(config.epoch_duration,),
            pipeline_depths=(config.pipeline_depth,),
        )
        result = tune(
            measured_trace(count=120), sweep=only_default, measure=True,
            repeats=1,
        )
        measured = result.measured
        assert result.best == DEFAULT_CANDIDATE
        assert measured["default_config"] == DEFAULT_CANDIDATE.to_dict()
        assert measured["best_rps"] > 0
        assert measured["default_elapsed_s"] == measured["best_elapsed_s"]
        assert measured["speedup_over_default"] == 1.0


class TestOneModel:
    @pytest.mark.parametrize("trace_name", ["small", "measured", "scan"])
    def test_tuner_scores_with_the_planners_eq1(self, trace_name):
        """Feasibility is ``costmodel.epoch_feasible`` at the trace's
        peak epoch, and the modelled epoch is Eq. (1)'s ``max`` of the
        stage times at depth 2 (their ``sum`` at depth 1)."""
        trace = {
            "small": small_trace,
            "measured": measured_trace,
            "scan": scan_bound_trace,
        }[trace_name]()
        result = tune(trace, measure=False)
        deployment = result.deployment
        model = dict(
            security_parameter=deployment["security_parameter"],
            object_size=trace.spec.value_size,
        )
        lbs = deployment["num_load_balancers"]
        suborams = deployment["num_suborams"]
        objects = deployment["num_objects"]
        for score in result.scores:
            epoch = score["config"]["epoch_duration"]
            mean_load = max(1, math.ceil(trace.mean_rate * epoch))
            stages = epoch_stage_times(
                math.ceil(mean_load / lbs), lbs, suborams,
                math.ceil(objects / suborams), **model,
            )
            if score["config"]["pipeline_depth"] == 2:
                assert score["feasible"] == epoch_feasible(
                    score["peak_epoch_load"] / epoch, epoch, lbs,
                    suborams, objects, **model,
                )
                assert score["modelled_epoch_s"] == max(stages)
            else:
                assert score["modelled_epoch_s"] == sum(stages)
        if trace_name == "scan":
            # 50 ms epochs cannot drain a 200K-object scan; 100 ms can.
            assert {s["feasible"] for s in result.scores} == {True, False}


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
        candidate = CandidateConfig(epoch_duration=0.1, pipeline_depth=2)
        a = replay_trace(trace, candidate)
        b = replay_trace(trace, candidate)
        assert a.response_digest == b.response_digest
        assert a.requests == b.requests == len(trace)
        assert a.epochs == b.epochs

    def test_pipelined_and_sequential_serve_identical_bytes(self):
        trace = small_trace(count=40)
        deep = replay_trace(trace, CandidateConfig(
            epoch_duration=0.1, pipeline_depth=2,
        ))
        flat = replay_trace(trace, CandidateConfig(
            epoch_duration=0.1, pipeline_depth=1,
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
            "--epoch-durations", "0.1,0.2",
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
