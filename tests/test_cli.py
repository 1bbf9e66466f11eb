"""Tests for the operator CLI and ASCII rendering tools."""

import json
import os
import select
import signal
import subprocess
import sys

import pytest

from repro.tools.ascii import bar_chart, series_table
from repro.tools.cli import build_parser, main


class TestAscii:
    def test_bar_chart_scales(self):
        out = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bar_chart_empty(self):
        assert bar_chart([]) == "(no data)"

    def test_bar_chart_zero_values(self):
        out = bar_chart([("a", 0.0)])
        assert "a" in out

    def test_series_table_aligned(self):
        out = series_table(["x", "y"], [(1, 2.5), (10, 20.0)])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "2.5" in lines[2]


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cost-model profile" in out

    def test_plan(self, capsys):
        assert main(["plan", "--objects", "100000", "--throughput", "10000"]) == 0
        out = capsys.readouterr().out
        assert "load balancers" in out
        assert "monthly cost" in out

    def test_plan_budget_mode(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--objects", "100000",
                    "--throughput", "5000",
                    "--budget", "3000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "min-latency" in out

    def test_demo(self, capsys):
        assert main(["demo", "--objects", "60", "--requests", "10"]) == 0
        out = capsys.readouterr().out
        assert "1 epoch(s) served 10 requests" in out
        assert "fault_stats" not in out

    def test_demo_with_faults(self, capsys):
        assert main([
            "demo", "--objects", "60", "--requests", "12",
            "--epochs", "4", "--faults", "11",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault plan (seed 11)" in out
        assert "4 epoch(s) served 12 requests" in out
        assert "fault_stats:" in out
        assert "epochs_retried" in out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "Fig 9a" not in out

    def test_figures_fig11b(self, capsys):
        assert main(["figures", "fig11b", "--objects", "500000"]) == 0
        out = capsys.readouterr().out
        assert "S=15" in out


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        from repro.core.config import SnoopyConfig
        from repro.tools.config_file import dump_spec, load_spec

        config = SnoopyConfig(num_load_balancers=3, num_suborams=15,
                              value_size=160)
        slo = {"num_objects": 2_000_000, "min_throughput": 90_000,
               "max_latency": 0.5}
        path = tmp_path / "spec.json"
        path.write_text(dump_spec(config, slo))
        loaded_config, loaded_slo = load_spec(path)
        assert loaded_config == config
        assert loaded_slo == slo

    def test_slo_only(self, tmp_path):
        from repro.tools.config_file import load_spec

        path = tmp_path / "spec.json"
        path.write_text('{"slo": {"num_objects": 100, "min_throughput": 10}}')
        config, slo = load_spec(path)
        assert config is None
        assert slo["num_objects"] == 100

    def test_rejects_unknown_fields(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.tools.config_file import load_spec

        path = tmp_path / "spec.json"
        # max_workers is not a field: the :N spec suffix sizes the pool.
        for field in ("bogus", "max_workers"):
            path.write_text('{"deployment": {"%s": 1}}' % field)
            with pytest.raises(ConfigurationError, match=field):
                load_spec(path)

    def test_rejects_invalid_json(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.tools.config_file import load_spec

        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_spec(path)

    def test_rejects_invalid_values_via_config(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.tools.config_file import load_spec

        path = tmp_path / "spec.json"
        for document in ('{"deployment": {"num_suborams": 0}}',
                         '{"deployment": 5}'):
            path.write_text(document)
            with pytest.raises(ConfigurationError):
                load_spec(path)
        # A JSON value of the wrong type names the file and the field.
        for field, value in (
            ("num_suborams", '"3"'),
            ("num_suborams", "true"),
            ("num_load_balancers", "2.0"),
            ("security_parameter", "false"),
            ("epoch_duration", '"0.2"'),
            ("epoch_duration", "true"),
            ("execution_backend", "4"),
            ("execution_backend", "null"),
        ):
            path.write_text('{"deployment": {"%s": %s}}' % (field, value))
            with pytest.raises(ConfigurationError) as excinfo:
                load_spec(path)
            assert str(path) in str(excinfo.value)
            assert repr(field) in str(excinfo.value)


class TestPlanSpec:
    def test_plan_from_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"slo": {"num_objects": 100000, "min_throughput": 10000,'
            ' "max_latency": 1.0}}'
        )
        assert main(["plan", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "load balancers" in out

    def test_plan_missing_args_without_spec(self):
        with pytest.raises(SystemExit):
            main(["plan"])


class TestApiDocs:
    def test_generate_covers_core_modules(self):
        from repro.tools.apidocs import generate

        text = generate()
        for fragment in (
            "repro.core.snoopy",
            "repro.oblivious.sort",
            "repro.analysis.balls_bins",
            "class Snoopy",
            "def batch_size",
        ):
            assert fragment in text

    def test_checked_in_copy_is_current(self):
        """docs/API.md must match the generator's output (regenerate with
        `python -m repro.tools.apidocs > docs/API.md`)."""
        import pathlib

        from repro.tools.apidocs import generate

        checked_in = (
            pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
        )
        assert checked_in.read_text().strip() == generate().strip()


class TestTraceView:
    def test_heatmap_and_strip(self):
        from repro.oblivious.memory import AccessTrace
        from repro.tools.traceview import diff_summary, heatmap, shade_strip

        trace = AccessTrace()
        for i in range(100):
            trace.record("R", i % 10)
        art = heatmap(trace, buckets=5)
        assert "#" in art
        strip = shade_strip(trace)
        assert strip and strip != "(empty)"

    def test_empty_trace(self):
        from repro.oblivious.memory import AccessTrace
        from repro.tools.traceview import heatmap, shade_strip

        assert heatmap(AccessTrace()) == "(empty trace)"
        assert shade_strip(AccessTrace()) == "(empty)"

    def test_diff_summary(self):
        from repro.oblivious.memory import AccessTrace
        from repro.tools.traceview import diff_summary

        a, b = AccessTrace(), AccessTrace()
        a.record("R", 1)
        b.record("R", 1)
        equal, _ = diff_summary(a, b)
        assert equal
        b.record("W", 2)
        equal, message = diff_summary(a, b)
        assert not equal and "length" in message
        a.record("W", 3)
        equal, message = diff_summary(a, b)
        assert not equal and "diverge" in message


def _src_env():
    """The environment a subprocess needs to import this checkout."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestServeVerb:
    """``python -m repro serve`` end to end, as an operator runs it."""

    def test_serve_verb_answers_an_attested_client(self):
        from repro.serve import NetworkSnoopyClient
        from repro.serve.secure import ServeTrust

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--objects", "64", "--suborams", "2"],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "serve printed no listening line within 60 s"
            listening = json.loads(proc.stdout.readline())
            assert listening["event"] == "listening"
            assert listening["attested"] is True
            with NetworkSnoopyClient(
                "127.0.0.1", listening["port"],
                trust=ServeTrust(b"snoopy-dev-trust"),
            ) as client:
                for key in (3, 17, 63):
                    value = bytes([key]) * listening["value_size"]
                    assert client.write(key, value) == bytes(
                        listening["value_size"]
                    )
                    assert client.read(key) == value
            proc.send_signal(signal.SIGINT)
            _out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_server_import_leaves_workloads_out(self):
        """The served process loads no workload generator or tuner."""
        code = (
            "import sys, repro.serve.server; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.workloads')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=_src_env(),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
