"""Epoch-level discrete-event simulation of a Snoopy deployment.

The analytic model (:mod:`repro.sim.costmodel`) answers "what's the best
sustainable throughput"; this simulator answers "what latencies do real
arrival processes see".  Requests arrive over continuous time; every
``T`` seconds each load balancer closes its epoch, spends
``L_LB`` building batches, the subORAMs spend ``L * L_S`` executing them
(pipelined across epochs), and responses complete.  The paper's Eq. (2)
bound — mean latency <= 5T/2 — is validated against this simulation in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List

from repro.sim.costmodel import epoch_stage_times
from repro.sim.machines import DEFAULT_PROFILE, MachineProfile
from repro.sim.metrics import LatencyStats


@dataclass
class EpochSimConfig:
    """Deployment + workload parameters for the epoch simulator."""

    num_load_balancers: int = 1
    num_suborams: int = 1
    num_objects: int = 100_000
    object_size: int = 160
    epoch_duration: float = 0.2
    security_parameter: int = 128
    profile: MachineProfile = field(default_factory=lambda: DEFAULT_PROFILE)


class EpochSimulator:
    """Simulates request latencies under epoch-batched processing.

    The pipeline per epoch ``k`` (closing at time ``(k+1)*T``):

    * requests arriving in ``[kT, (k+1)T)`` wait for the epoch to close;
    * the load balancer then takes ``L_LB`` to build batches;
    * the subORAM stage takes ``L * L_S`` (each subORAM executes one
      batch per load balancer);
    * the load balancer matches responses (folded into ``L_LB``, §4.2.3);
    * all of the epoch's requests complete together (batch responses,
      which also closes the response-timing side channel, §10).

    Stages are pipelined: epoch ``k+1``'s batch building may overlap epoch
    ``k``'s subORAM scan, but a stage cannot start before the previous
    epoch's same stage finished (single machine per stage).
    """

    def __init__(self, config: EpochSimConfig):
        self.config = config

    def run(self, arrival_times: Iterable[float]) -> LatencyStats:
        """Simulate; returns latency statistics for all completed requests."""
        config = self.config
        arrivals = sorted(arrival_times)
        stats = LatencyStats()
        if not arrivals:
            return stats

        epoch = config.epoch_duration
        num_epochs = int(math.floor(arrivals[-1] / epoch)) + 1
        per_epoch: List[List[float]] = [[] for _ in range(num_epochs)]
        for t in arrivals:
            per_epoch[int(t // epoch)].append(t)

        lb_free = 0.0  # when the load-balancer stage is next available
        so_free = 0.0  # when the subORAM stage is next available
        for k, epoch_arrivals in enumerate(per_epoch):
            if not epoch_arrivals:
                continue
            close = (k + 1) * epoch
            lb_time, so_time = epoch_stage_times(
                max(1, math.ceil(
                    len(epoch_arrivals) / config.num_load_balancers
                )),
                config.num_load_balancers, config.num_suborams,
                math.ceil(config.num_objects / config.num_suborams),
                config.security_parameter, config.profile, config.object_size,
            )

            batch_ready = max(close, lb_free) + lb_time / 2.0
            scan_done = max(batch_ready, so_free) + so_time
            complete = scan_done + lb_time / 2.0  # response matching
            lb_free = max(close, lb_free) + lb_time
            so_free = scan_done

            for t in epoch_arrivals:
                stats.record(complete - t)
        return stats
