"""Compare two ``run.py`` documents, or summarise one into a baseline.

::

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py --summarize RUNS.json > bench/baseline.json

Comparing prints, per workload and end-to-end metric: the base (median
over A's sets), the new value (median over B's sets), the relative change
signed so that positive is worse, the metric's bound from
``BENCHMARK.json``, and a verdict —

* ``unresolved`` when the A/A spread of that metric on that workload (the
  distance between the quartiles of same-code runs as a share of their
  median, from ``bench/baseline.json`` or from ``--spread FILE``) exceeds
  the bound: the benchmark cannot tell a change that size from noise;
* ``worse`` when the new value is worse than the base by more than the
  bound;
* ``ok`` otherwise.

stdout is JSON; the human table goes to stderr.  The exit code is 1 when
any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def values_of(document: dict, workload: str, group: str, metric: str):
    """The metric's value in every set of ``document`` that has it."""
    found = []
    for one in document["sets"]:
        row = one["workloads"].get(workload)
        if row is not None and row[group][metric]["value"] is not None:
            found.append(row[group][metric]["value"])
    return found


def summarize(document: dict) -> dict:
    """Medians, quartiles and A/A spreads of a multi-set document."""
    if document.get("smoke"):
        raise SystemExit("a --smoke document is not a baseline")
    summary = {
        "benchmark": document["benchmark"],
        "seconds": document["seconds"],
        "environment": document["environment"],
        "seeds": [one["seed"] for one in document["sets"]],
        "workloads": {},
    }
    for workload, row in document["sets"][0]["workloads"].items():
        entry = {"config": row["config"]}
        for group in ("end_to_end", "per_layer"):
            entry[group] = {}
            for metric, measured in row[group].items():
                values = values_of(document, workload, group, metric)
                stats = {
                    "unit": measured["unit"],
                    "median": statistics.median(values),
                    "runs": len(values),
                }
                if len(values) >= 2 and stats["median"]:
                    # A/A spread: interquartile distance over the median.
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    stats["q1"], stats["q3"] = q1, q3
                    stats["spread"] = (q3 - q1) / stats["median"]
                entry[group][metric] = stats
        names = row["cpu_shares"]
        entry["cpu_shares"] = {
            name: statistics.median(
                one["workloads"][workload]["cpu_shares"].get(name, 0.0)
                for one in document["sets"]
            )
            for name in names
        }
        summary["workloads"][workload] = entry
    return summary


def compare(base: dict, new: dict, contract: dict, spreads: dict) -> list:
    rows = []
    for workload in base["sets"][0]["workloads"]:
        for declared in contract["end_to_end"]:
            metric = declared["name"]
            a = values_of(base, workload, "end_to_end", metric)
            b = values_of(new, workload, "end_to_end", metric)
            if not a or not b:
                continue
            base_value, new_value = statistics.median(a), statistics.median(b)
            change = (new_value - base_value) / base_value
            worse_by = change if declared["better"] == "lower" else -change
            spread = spreads.get(workload, {}).get(metric)
            if spread is not None and spread > declared["bound"]:
                verdict = "unresolved"
            elif worse_by > declared["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": declared["unit"],
                "base": base_value,
                "new": new_value,
                "worse_by": worse_by,
                "bound": declared["bound"],
                "aa_spread": spread,
                "verdict": verdict,
            })
    return rows


def recorded_spreads(path: str) -> dict:
    """``{workload: {metric: spread}}`` from a ``--summarize`` file."""
    summary = load(path)
    return {
        workload: {
            metric: stats["spread"]
            for metric, stats in entry["end_to_end"].items()
            if "spread" in stats
        }
        for workload, entry in summary["workloads"].items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("documents", nargs="+", metavar="FILE")
    parser.add_argument("--summarize", action="store_true")
    parser.add_argument(
        "--spread", metavar="FILE",
        default=os.path.join(HERE, "baseline.json"),
        help="a --summarize file holding the A/A spreads",
    )
    args = parser.parse_args()
    if args.summarize:
        if len(args.documents) != 1:
            parser.error("--summarize takes one document")
        print(json.dumps(summarize(load(args.documents[0])), indent=1))
        return 0
    if len(args.documents) != 2:
        parser.error("compare takes two documents: A.json B.json")
    rows = compare(
        load(args.documents[0]), load(args.documents[1]),
        load(os.path.join(ROOT, "BENCHMARK.json")),
        recorded_spreads(args.spread),
    )
    print(
        f"{'workload':<14} {'metric':<15} {'base':>10} {'new':>10} "
        f"{'worse by':>9} {'bound':>6} {'A/A':>6}  verdict",
        file=sys.stderr,
    )
    for row in rows:
        spread = (
            f"{row['aa_spread']:6.3f}" if row["aa_spread"] is not None
            else "     -"
        )
        print(
            f"{row['workload']:<14} {row['metric']:<15} {row['base']:>10.4g} "
            f"{row['new']:>10.4g} {row['worse_by']:>+9.3f} "
            f"{row['bound']:>6.2f} {spread}  {row['verdict']}",
            file=sys.stderr,
        )
    print(json.dumps({"rows": rows}, indent=1))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
