"""Tests for the §6 planner."""

import pytest

from repro.errors import PlannerError
from repro.planner.planner import Plan, Planner
from repro.planner.pricing import DEFAULT_PRICES, PriceTable
from repro.sim.costmodel import max_throughput


class TestPricing:
    def test_eq3(self):
        prices = PriceTable(load_balancer=100.0, suboram=50.0)
        assert prices.monthly_cost(2, 3) == 350.0

    def test_default_prices_symmetric(self):
        assert DEFAULT_PRICES.load_balancer == DEFAULT_PRICES.suboram


class TestPlanner:
    def test_plan_meets_throughput(self):
        planner = Planner(100_000)
        plan = planner.plan(min_throughput=10_000, max_latency=1.0)
        achieved = max_throughput(
            plan.num_load_balancers, plan.num_suborams, 100_000, 1.0
        )
        assert achieved >= 10_000

    def test_plan_meets_latency(self):
        planner = Planner(100_000)
        plan = planner.plan(min_throughput=10_000, max_latency=1.0)
        assert plan.predicted_latency <= 1.0

    def test_cost_minimal_among_candidates(self):
        planner = Planner(100_000)
        plan = planner.plan(min_throughput=10_000, max_latency=1.0)
        # No strictly smaller configuration meets the throughput target.
        for balancers in range(1, plan.num_load_balancers + 1):
            for suborams in range(1, plan.num_suborams + 1):
                if (balancers, suborams) == (
                    plan.num_load_balancers,
                    plan.num_suborams,
                ):
                    continue
                if (
                    DEFAULT_PRICES.monthly_cost(balancers, suborams)
                    < plan.monthly_cost
                ):
                    assert (
                        max_throughput(balancers, suborams, 100_000, 1.0)
                        < 10_000
                    )

    def test_higher_throughput_costs_more(self):
        """Fig. 14b: cost grows with the throughput requirement."""
        planner = Planner(1_000_000)
        cheap = planner.plan(min_throughput=5_000, max_latency=1.0)
        dear = planner.plan(min_throughput=60_000, max_latency=1.0)
        assert dear.monthly_cost >= cheap.monthly_cost
        assert dear.num_machines >= cheap.num_machines

    def test_larger_data_favors_more_suborams(self):
        """Fig. 14a: big stores need a higher subORAM:LB ratio."""
        small = Planner(10_000).plan(min_throughput=50_000, max_latency=1.0)
        large = Planner(1_000_000).plan(min_throughput=50_000, max_latency=1.0)
        assert large.num_suborams >= small.num_suborams

    def test_small_data_cheaper_at_same_throughput(self):
        """Fig. 14b: 10K objects cost less than 1M at equal throughput."""
        small = Planner(10_000).plan(min_throughput=40_000, max_latency=1.0)
        large = Planner(1_000_000).plan(min_throughput=40_000, max_latency=1.0)
        assert small.monthly_cost <= large.monthly_cost

    def test_pruned_search_equals_exhaustive_scan(self):
        """The cost-bound pruning in ``_candidates`` never changes the
        plan: compare against every feasible cell of the 8x8 grid."""
        for objects, target in [(10_000, 200_000), (200_000, 60_000),
                                (2_000_000, 50_000)]:
            plan = Planner(objects, max_machines_per_role=8).plan(
                min_throughput=target, max_latency=1.0
            )
            feasible = [
                (DEFAULT_PRICES.monthly_cost(lbs, subs), -throughput,
                 lbs, subs)
                for lbs in range(1, 9)
                for subs in range(1, 9)
                for throughput in [max_throughput(lbs, subs, objects, 1.0)]
                if throughput >= target
            ]
            cost, _, lbs, subs = min(feasible)
            assert (plan.monthly_cost, plan.num_load_balancers,
                    plan.num_suborams) == (cost, lbs, subs)

    def test_impossible_target_raises(self):
        planner = Planner(2_000_000, max_machines_per_role=2)
        with pytest.raises(PlannerError):
            planner.plan(min_throughput=10**7, max_latency=0.3)

    def test_sweep_returns_none_for_impossible(self):
        planner = Planner(1_000_000, max_machines_per_role=3)
        plans = planner.sweep([1_000, 10**9], max_latency=1.0)
        assert plans[0] is not None
        assert plans[1] is None

    def test_plan_machines_property(self):
        plan = Plan(2, 3, 1460.0, 50_000, 0.5)
        assert plan.num_machines == 5


class TestMinLatencyExtension:
    def test_min_latency_within_budget(self):
        planner = Planner(500_000)
        plan = planner.plan_min_latency(
            min_throughput=10_000, max_monthly_cost=3_000
        )
        assert plan.monthly_cost <= 3_000
        assert plan.predicted_latency < float("inf")

    def test_bigger_budget_never_hurts_latency(self):
        planner = Planner(500_000)
        small = planner.plan_min_latency(10_000, 2_000)
        large = planner.plan_min_latency(10_000, 6_000)
        assert large.predicted_latency <= small.predicted_latency

    def test_impossible_budget_raises(self):
        planner = Planner(2_000_000)
        with pytest.raises(PlannerError):
            planner.plan_min_latency(10**7, 600.0)  # one machine's worth


class TestParetoFrontier:
    def test_frontier_sorted_and_nondominated(self):
        planner = Planner(200_000, max_machines_per_role=12)
        frontier = planner.pareto_frontier(max_latency=1.0, max_machines=10)
        assert frontier, "frontier must be non-empty"
        costs = [p.monthly_cost for p in frontier]
        throughputs = [p.predicted_throughput for p in frontier]
        assert costs == sorted(costs)
        assert throughputs == sorted(throughputs)
        # Strictly increasing throughput along the frontier.
        assert all(b > a for a, b in zip(throughputs, throughputs[1:]))

    def test_frontier_contains_the_min_cost_plan(self):
        planner = Planner(200_000, max_machines_per_role=12)
        frontier = planner.pareto_frontier(max_latency=1.0, max_machines=10)
        plan = planner.plan(min_throughput=frontier[0].predicted_throughput * 0.9,
                            max_latency=1.0)
        assert plan.monthly_cost <= frontier[0].monthly_cost + 1e-9
