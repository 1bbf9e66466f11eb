"""A virtual-clock runtime: the functional system under a timed workload.

:mod:`repro.sim.events` predicts latencies from the cost model alone;
:class:`SnoopyRuntime` goes one step further and actually *executes*
the functional :class:`~repro.core.snoopy.Snoopy` deployment against a
timed arrival schedule:

* requests arrive at virtual timestamps (e.g. a Poisson process);
* every ``T`` virtual seconds the runtime closes the epoch, runs the
  real oblivious pipeline (so results are genuine, checkable responses),
  and charges the epoch's *virtual* duration from the calibrated cost
  model;
* per-request virtual latencies and all responses are recorded.

This gives end-to-end tests the best of both worlds: real data-path
semantics with modelled wall-clock behaviour.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.balls_bins import batch_size
from repro.core.snoopy import Snoopy
from repro.sim.costmodel import load_balancer_time, suboram_time
from repro.sim.machines import DEFAULT_PROFILE, MachineProfile
from repro.sim.metrics import LatencyStats
from repro.types import Request, Response


@dataclass
class RuntimeResult:
    """Everything a timed run produced.

    ``virtual_duration`` is modelled time from the calibrated cost model;
    ``wall_seconds`` is *measured* host time spent inside ``run_epoch``,
    which is what changes when the execution backend changes.
    """

    responses: List[Response] = field(default_factory=list)
    latency: LatencyStats = field(default_factory=LatencyStats)
    epochs: int = 0
    virtual_duration: float = 0.0
    wall_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per virtual second."""
        if self.virtual_duration <= 0:
            return 0.0
        return len(self.responses) / self.virtual_duration


class SnoopyRuntime:
    """Drives a functional Snoopy deployment on a virtual clock.

    Args:
        store: the functional deployment to execute.
        profile: machine profile for the virtual-time cost model.
    """

    def __init__(
        self,
        store: Snoopy,
        profile: MachineProfile = DEFAULT_PROFILE,
    ):
        self.store = store
        self.profile = profile

    def _epoch_processing_time(self, num_requests: int) -> float:
        """Virtual duration of one epoch's pipeline (Eq. 1 stages)."""
        config = self.store.config
        requests_per_balancer = max(
            1, math.ceil(num_requests / config.num_load_balancers)
        )
        lb_time = load_balancer_time(
            requests_per_balancer,
            config.num_suborams,
            config.security_parameter,
            self.profile,
            config.value_size,
        )
        size = batch_size(
            requests_per_balancer,
            config.num_suborams,
            config.security_parameter,
        )
        partition = max(self.store.partition_sizes) if self.store.num_objects else 0
        so_time = config.num_load_balancers * suboram_time(
            size,
            partition,
            config.security_parameter,
            self.profile,
            config.value_size,
        )
        return lb_time + so_time

    def run(
        self,
        timed_requests: Iterable[Tuple[float, Request]],
        epoch_duration: Optional[float] = None,
    ) -> RuntimeResult:
        """Execute a timed workload; returns responses + virtual latencies.

        Args:
            timed_requests: (arrival_time, request) pairs, any order.
            epoch_duration: virtual epoch length T; defaults to the
                deployment config's ``epoch_duration``.
        """
        epoch = (
            epoch_duration
            if epoch_duration is not None
            else self.store.config.epoch_duration
        )
        schedule = sorted(timed_requests, key=lambda pair: pair[0])
        result = RuntimeResult()
        if not schedule:
            return result

        last_arrival = schedule[-1][0]
        num_epochs = int(math.floor(last_arrival / epoch)) + 1
        by_epoch: List[List[Tuple[float, Request]]] = [
            [] for _ in range(num_epochs)
        ]
        for arrival, request in schedule:
            by_epoch[int(arrival // epoch)].append((arrival, request))

        pipeline_free = 0.0
        for index, epoch_requests in enumerate(by_epoch):
            if not epoch_requests:
                continue
            close = (index + 1) * epoch
            # Real execution of the oblivious pipeline.
            arrival_times: Dict[Tuple[int, int], float] = {}
            for arrival, request in epoch_requests:
                self.store.submit(request)
                arrival_times[(request.client_id, request.seq)] = arrival
            wall_start = time.perf_counter()
            responses = self.store.run_epoch()
            result.wall_seconds += time.perf_counter() - wall_start

            processing = self._epoch_processing_time(len(epoch_requests))
            complete = max(close, pipeline_free) + processing
            pipeline_free = complete

            result.epochs += 1
            result.responses.extend(responses)
            for response in responses:
                arrival = arrival_times.get(
                    (response.client_id, response.seq), close
                )
                result.latency.record(complete - arrival)
            result.virtual_duration = complete
        return result
