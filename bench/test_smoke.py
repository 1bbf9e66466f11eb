"""Plumbing check: ``run.py --smoke`` reports every declared metric.

Run with ``python3 -m pytest bench/test_smoke.py`` (about a minute;
outside tier-1's ``testpaths``).
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def test_smoke_reports_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    done = subprocess.run(
        RUN + ["--smoke"], capture_output=True, text=True, timeout=170
    )
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(done.stdout)
    assert document["smoke"] is True
    (one,) = document["sets"]
    assert sorted(one["workloads"]) == sorted(
        w["name"] for w in contract["workloads"]
    )
    for name, row in one["workloads"].items():
        assert row["correct"], (name, row["diagnostics"]["check"])
        for group in ("end_to_end", "per_layer"):
            for declared in contract[group]:
                measured = row[group][declared["name"]]
                assert measured["unit"] == declared["unit"], declared
                assert math.isfinite(measured["value"]), (name, declared)


def test_smoke_refuses_to_write_a_baseline(tmp_path):
    target = tmp_path / "baseline.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(target)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not target.exists()
