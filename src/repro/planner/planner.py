"""The configuration planner (§6).

Given a data size, a minimum throughput, and a maximum average latency,
search (L, S) space for the cheapest configuration whose modelled
performance meets both targets:

    T >= max(L_LB(X*T/L, S), L * L_S(f(X*T/L, S), N))   (1)
    L_sys <= 5T/2                                        (2)
    minimize  C_sys = L*C_LB + S*C_S                     (3)

As in the paper, the model "is meant to be a starting point": it assumes
uniformly timed arrivals and uses the calibrated microbenchmark-derived
cost functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import PlannerError
from repro.sim.costmodel import max_throughput, mean_latency
from repro.sim.machines import DEFAULT_PROFILE, MachineProfile
from repro.planner.pricing import DEFAULT_PRICES, PriceTable
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class Plan:
    """A planner recommendation."""

    num_load_balancers: int
    num_suborams: int
    monthly_cost: float
    predicted_throughput: float
    predicted_latency: float

    @property
    def num_machines(self) -> int:
        """Total machine count of the plan."""
        return self.num_load_balancers + self.num_suborams


class Planner:
    """Searches configurations for throughput/latency/cost goals."""

    def __init__(
        self,
        num_objects: int,
        object_size: int = 160,
        profile: MachineProfile = DEFAULT_PROFILE,
        prices: PriceTable = DEFAULT_PRICES,
        max_machines_per_role: int = 64,
    ):
        require_positive(num_objects, "num_objects")
        self.num_objects = num_objects
        self.object_size = object_size
        self.profile = profile
        self.prices = prices
        self.max_machines_per_role = max_machines_per_role

    def _candidates(
        self, min_throughput: float, max_latency: float
    ) -> List[Plan]:
        plans = []
        # Cost is monotone in both L and S, so a cell strictly dearer
        # than the cheapest feasible plan found so far — and every cell
        # after it in its row, and every row after an (L, 1) that is —
        # cannot be chosen.  Skipping them skips their throughput
        # bisection, the expensive part; equal-cost cells are still
        # evaluated so ``plan``'s tie-break sees the same candidates.
        cheapest = float("inf")
        for balancers in range(1, self.max_machines_per_role + 1):
            if self.prices.monthly_cost(balancers, 1) > cheapest:
                break
            for suborams in range(1, self.max_machines_per_role + 1):
                cost = self.prices.monthly_cost(balancers, suborams)
                if cost > cheapest:
                    break
                throughput = max_throughput(
                    balancers,
                    suborams,
                    self.num_objects,
                    max_latency,
                    profile=self.profile,
                    object_size=self.object_size,
                )
                if throughput < min_throughput:
                    continue
                latency = mean_latency(
                    min_throughput,
                    balancers,
                    suborams,
                    self.num_objects,
                    profile=self.profile,
                    object_size=self.object_size,
                )
                plans.append(
                    Plan(
                        num_load_balancers=balancers,
                        num_suborams=suborams,
                        monthly_cost=cost,
                        predicted_throughput=throughput,
                        predicted_latency=latency,
                    )
                )
                cheapest = cost
                break  # more subORAMs only raises cost at this L
        return plans

    def plan(self, min_throughput: float, max_latency: float) -> Plan:
        """Cheapest configuration meeting the targets (Fig. 14).

        Raises:
            PlannerError: no configuration within the search bounds works.
        """
        candidates = self._candidates(min_throughput, max_latency)
        if not candidates:
            raise PlannerError(
                f"no configuration sustains {min_throughput:,.0f} reqs/s at "
                f"<= {max_latency * 1e3:.0f} ms with <= "
                f"{self.max_machines_per_role} machines per role"
            )
        return min(
            candidates,
            key=lambda p: (p.monthly_cost, -p.predicted_throughput),
        )

    def sweep(
        self, throughputs: List[float], max_latency: float
    ) -> List[Optional[Plan]]:
        """Fig. 14 data: a plan (or None) per target throughput."""
        plans: List[Optional[Plan]] = []
        for target in throughputs:
            try:
                plans.append(self.plan(target, max_latency))
            except PlannerError:
                plans.append(None)
        return plans

    def plan_min_latency(
        self, min_throughput: float, max_monthly_cost: float
    ) -> Plan:
        """The §6 extension: "given a throughput, data size, and cost,
        output a configuration minimizing latency".

        Searches every configuration within budget and returns the one
        with the lowest predicted mean latency that still sustains the
        target throughput.

        Raises:
            PlannerError: nothing within budget sustains the throughput.
        """
        best: Optional[Plan] = None
        for balancers in range(1, self.max_machines_per_role + 1):
            if balancers * self.prices.load_balancer > max_monthly_cost:
                break
            for suborams in range(1, self.max_machines_per_role + 1):
                cost = self.prices.monthly_cost(balancers, suborams)
                if cost > max_monthly_cost:
                    break
                latency = mean_latency(
                    min_throughput,
                    balancers,
                    suborams,
                    self.num_objects,
                    profile=self.profile,
                    object_size=self.object_size,
                )
                if latency == float("inf"):
                    continue
                candidate = Plan(
                    num_load_balancers=balancers,
                    num_suborams=suborams,
                    monthly_cost=cost,
                    predicted_throughput=min_throughput,
                    predicted_latency=latency,
                )
                if best is None or candidate.predicted_latency < (
                    best.predicted_latency
                ):
                    best = candidate
        if best is None:
            raise PlannerError(
                f"no configuration under ${max_monthly_cost:,.0f}/month "
                f"sustains {min_throughput:,.0f} reqs/s"
            )
        return best

    def pareto_frontier(
        self, max_latency: float, max_machines: int = 24
    ) -> List[Plan]:
        """Non-dominated (cost, throughput) configurations.

        A configuration is on the frontier when no cheaper-or-equal
        configuration achieves strictly higher throughput at the latency
        cap.  Gives an operator the whole cost/performance menu instead
        of a single answer; sorted by cost ascending.
        """
        candidates: List[Plan] = []
        for balancers in range(1, max_machines):
            for suborams in range(1, max_machines - balancers + 1):
                throughput = max_throughput(
                    balancers,
                    suborams,
                    self.num_objects,
                    max_latency,
                    profile=self.profile,
                    object_size=self.object_size,
                )
                if throughput <= 0:
                    continue
                candidates.append(
                    Plan(
                        num_load_balancers=balancers,
                        num_suborams=suborams,
                        monthly_cost=self.prices.monthly_cost(
                            balancers, suborams
                        ),
                        predicted_throughput=throughput,
                        predicted_latency=max_latency,
                    )
                )
        candidates.sort(key=lambda p: (p.monthly_cost, -p.predicted_throughput))
        frontier: List[Plan] = []
        best_throughput = 0.0
        for plan in candidates:
            if plan.predicted_throughput > best_throughput:
                frontier.append(plan)
                best_throughput = plan.predicted_throughput
        return frontier
