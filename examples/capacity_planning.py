#!/usr/bin/env python3
"""Capacity planning with the §6 planner and the calibrated cost model.

Given a data size and SLOs (minimum throughput, maximum mean latency),
the planner returns the cheapest (load balancers, subORAMs) split; the
epoch simulator then validates the predicted latency against a Poisson
arrival process.

Run:  python examples/capacity_planning.py
"""

import random

from repro import Planner
from repro.sim.cluster import throughput_scaling_series
from repro.sim.costmodel import obladi_throughput, oblix_throughput
from repro.sim.events import EpochSimConfig, EpochSimulator
from repro.workloads import poisson_arrivals


def main() -> None:
    num_objects = 2_000_000

    print("== planner: cheapest configuration per SLO ==")
    planner = Planner(num_objects)
    for throughput, latency in [(20_000, 1.0), (60_000, 1.0), (60_000, 0.5)]:
        plan = planner.plan(min_throughput=throughput, max_latency=latency)
        print(
            f"  >= {throughput / 1000:.0f}K reqs/s, <= {latency * 1e3:.0f} ms: "
            f"{plan.num_load_balancers} load balancers + "
            f"{plan.num_suborams} subORAMs  "
            f"(${plan.monthly_cost:,.0f}/month, predicts "
            f"{plan.predicted_throughput / 1000:.0f}K reqs/s @ "
            f"{plan.predicted_latency * 1e3:.0f} ms)"
        )

    print("\n== machine scaling (Fig. 9a regime, 2M x 160B) ==")
    series = throughput_scaling_series([6, 12, 18], num_objects, [0.5])
    for machines, balancers, suborams, x in series[0.5]:
        print(
            f"  {machines} machines (L={balancers}, S={suborams}): "
            f"{x / 1000:6.1f}K reqs/s"
        )
    print(f"  Obladi ceiling: {obladi_throughput(num_objects) / 1000:.1f}K; "
          f"Oblix ceiling: {oblix_throughput(num_objects) / 1000:.2f}K")

    print("\n== validating a plan with the epoch simulator ==")
    plan = planner.plan(min_throughput=40_000, max_latency=1.0)
    epoch = 2.0 * 1.0 / 5.0  # Eq. (2): T = 2 L / 5
    sim = EpochSimulator(
        EpochSimConfig(
            num_load_balancers=plan.num_load_balancers,
            num_suborams=plan.num_suborams,
            num_objects=num_objects,
            epoch_duration=epoch,
        )
    )
    stats = sim.run(poisson_arrivals(40_000, 10.0, random.Random(1)))
    print(
        f"  simulated {stats.count:,} requests at 40K reqs/s: "
        f"mean {stats.mean * 1e3:.0f} ms, p95 {stats.p95 * 1e3:.0f} ms, "
        f"p99 {stats.p99 * 1e3:.0f} ms (bound 5T/2 = {5 * epoch / 2 * 1e3:.0f} ms)"
    )
    assert stats.mean <= 5 * epoch / 2, "plan must meet the Eq. (2) bound"
    print("  plan meets its latency bound under Poisson arrivals")


if __name__ == "__main__":
    main()
