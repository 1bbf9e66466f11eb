"""Performance simulation: calibrated cost models + epoch-level simulation.

The paper's evaluation ran on Azure DCsv2 enclaves; we reproduce its
*shapes* (scaling curves, crossovers, breakdowns) with an analytic cost
model whose constants are calibrated to the paper's reported anchors
(DESIGN.md §6) plus a discrete-event epoch simulator for latency
distributions.  Nothing here affects the functional core — it predicts
wall-clock behaviour of a deployment, the way the paper's planner does.
"""

from repro.sim.machines import MachineProfile, DEFAULT_PROFILE
from repro.sim.costmodel import (
    load_balancer_time,
    max_throughput,
    suboram_time,
    best_split,
)

__all__ = [
    "DEFAULT_PROFILE",
    "MachineProfile",
    "best_split",
    "load_balancer_time",
    "max_throughput",
    "suboram_time",
]
