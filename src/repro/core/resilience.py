"""Epoch retry policy and the shared fault-tolerance controller.

The paper's correctness story (Appendix C) assumes every accepted request
is eventually served in *some* epoch; §9 sketches the infrastructure side
(``f + r + 1`` quorum replication with a trusted counter).  This module
is the glue that makes both deployments honor that under faults:

* :class:`RetryPolicy` — per-epoch retry with exponential backoff and
  *deterministic seeded jitter* (two runs with the same seed back off
  identically; jitter still decorrelates distinct deployments), built
  from the ``epoch_*`` fields of
  :class:`~repro.core.config.SnoopyConfig`;
* :class:`EpochRetryController` — drives the attempt loop around stage
  ➋ (:meth:`~repro.core.epoch.EpochDriver.run_execute`, retried in
  place on the already-built batches), heals replica groups at epoch
  boundaries (automatic
  :meth:`~repro.extensions.replication.ReplicatedSubOram.recover_from_peer`
  of crashed or stale replicas), applies scheduled replica faults from a
  :class:`~repro.core.faults.FaultInjector`, and accumulates the
  deployment's ``fault_stats``.

Retry decisions are functions of **public information only**: the fault
kind (crash/timeout/transport — all host-visible events) and the attempt
count.  Nothing here reads request contents, keys, or any other secret,
so the failure/retry behaviour an attacker observes is exactly what they
could simulate themselves (see SECURITY.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.faults import FaultInjector
from repro.errors import EpochFailedError
from repro.telemetry import resolve_telemetry
from repro.utils.validation import require


def _replica_groups(suborams: Sequence) -> list:
    """The ReplicatedSubOram groups among ``suborams``, in order.

    Imported lazily: ``repro.extensions`` pulls in the simulator, which
    imports the core deployments — a module-level import here would be
    circular.
    """
    from repro.extensions.replication import ReplicatedSubOram

    return [s for s in suborams if isinstance(s, ReplicatedSubOram)]


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) a failed epoch is retried.

    Attributes:
        max_attempts: total attempts per epoch (1 = no retry; failures
            propagate after the requests were requeued).
        backoff_base: first retry delay in seconds (0 disables sleeping —
            the right setting for tests).
        backoff_factor: multiplier per further attempt (exponential).
        jitter: relative jitter amplitude; each delay is scaled by a
            factor drawn uniformly from ``[1, 1 + jitter]``.
        seed: seed of the jitter stream, making backoff schedules
            deterministic and reproducible per deployment.
    """

    max_attempts: int = 1
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.backoff_base >= 0, "backoff_base must be >= 0")
        require(self.backoff_factor >= 1, "backoff_factor must be >= 1")
        require(self.jitter >= 0, "jitter must be >= 0")

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Build the policy from a :class:`SnoopyConfig`'s epoch_* fields."""
        return cls(
            max_attempts=config.epoch_max_attempts,
            backoff_base=config.epoch_backoff_base,
            backoff_factor=config.epoch_backoff_factor,
            jitter=config.epoch_backoff_jitter,
            seed=config.epoch_retry_seed,
        )

    def delay(self, failure_index: int) -> float:
        """Backoff before retry number ``failure_index`` (1-based).

        ``backoff_base * backoff_factor**(failure_index-1)``, scaled by
        the seeded jitter draw for that index — a pure function of
        ``(seed, failure_index)``.
        """
        require(failure_index >= 1, "failure_index is 1-based")
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** (failure_index - 1)
        draw = random.Random((self.seed, failure_index).__hash__()).random()
        return base * (1.0 + self.jitter * draw)


class EpochRetryController:
    """The fault-tolerance engine shared by both deployments.

    One controller lives per deployment and is consulted by the execute
    step of every epoch (:meth:`repro.core.epoch.EpochLifecycle.execute`):

    1. :meth:`begin_epoch` — advance the injector, heal replica groups
       (recover crashed/stale replicas from a fresh peer), then apply
       this epoch's scheduled ``replica_crash`` events and stage
       ``replica_rollback`` snapshots;
    2. :meth:`run_with_retry` — drive the attempt loop; a failed attempt
       installed no state and left the built batches pristine, so a
       retry is simply executing them again;
    3. :meth:`end_epoch` — after a successful attempt, apply the staged
       rollbacks (the malicious-host event the §9 freshness check
       catches next epoch).

    Attributes:
        stats: controller-level counters (``epochs_failed``,
            ``epochs_retried``, ``replicas_recovered``).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        injector: Optional[FaultInjector] = None,
        sleep: Callable[[float], None] = time.sleep,
        telemetry=None,
    ):
        self.policy = policy
        self.injector = injector
        self._sleep = sleep
        self.telemetry = resolve_telemetry(telemetry)
        self.stats: Dict[str, int] = {
            "epochs_failed": 0,
            "epochs_retried": 0,
            "replicas_recovered": 0,
        }
        #: (unit, replica, snapshot) rollbacks staged for this epoch.
        self._staged_rollbacks: List[Tuple[int, int, object]] = []

    @property
    def armed(self) -> bool:
        """True when epochs must be atomic (retry or chaos is active).

        The epoch driver deep-copies shared-state subORAMs only when
        armed: with ``epoch_max_attempts == 1`` and fault injection off
        (no injector, or an injector whose plan has fully fired) the
        zero-copy hot path skips the per-attempt ``copy.deepcopy`` of
        every subORAM.  A deployment with a finite fault plan therefore
        pays the copy only until the last scheduled event has fired.
        """
        if self.policy.max_attempts > 1:
            return True
        return self.injector is not None and not self.injector.exhausted

    @property
    def fault_stats(self) -> Dict[str, int]:
        """Controller counters merged with the injector's fired events."""
        merged = dict(self.stats)
        if self.injector is not None:
            merged.update(self.injector.stats)
        return merged

    # ------------------------------------------------------------------
    # Epoch boundaries
    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int, suborams: Sequence) -> None:
        """Heal replica groups, then apply this epoch's replica faults."""
        if self.injector is not None:
            self.injector.begin_epoch(epoch)
        recovered = heal_replica_groups(suborams)
        self.stats["replicas_recovered"] += recovered
        if recovered:
            self.telemetry.counter("replication_recoveries_total").inc(
                recovered
            )
        self._staged_rollbacks = []
        if self.injector is None:
            return
        groups = _replica_groups(suborams)
        if not groups:
            return
        for event in self.injector.replica_faults("replica_crash"):
            group = groups[event.unit % len(groups)]
            group.crash(event.replica % group.group_size)
        for event in self.injector.replica_faults("replica_rollback"):
            unit = event.unit % len(groups)
            group = groups[unit]
            replica = event.replica % group.group_size
            # Capture the pre-epoch state now; the malicious restore is
            # applied in end_epoch, so next epoch's freshness check sees
            # a genuinely stale reply.
            self._staged_rollbacks.append(
                (unit, replica, group.snapshot(replica))
            )

    def end_epoch(self, suborams: Sequence) -> None:
        """Apply staged rollbacks against the (possibly reinstalled) groups."""
        if not self._staged_rollbacks:
            return
        groups = _replica_groups(suborams)
        for unit, replica, snapshot in self._staged_rollbacks:
            if unit < len(groups):
                groups[unit].rollback(replica, snapshot)
        self._staged_rollbacks = []

    # ------------------------------------------------------------------
    # The attempt loop
    # ------------------------------------------------------------------
    def run_with_retry(self, attempt: Callable[[], object]):
        """Run stage ➋ with the policy's retry/backoff schedule.

        ``attempt`` is a zero-argument callable driving
        :meth:`EpochDriver.run_execute` once on the epoch's built
        batches; a failed attempt is side-effect-free, so it is simply
        called again.  Non-retryable failures (security aborts, protocol
        bugs) and exhausted budgets re-raise the *original* cause, and
        the caller rolls the epoch back.
        """
        failure: Optional[EpochFailedError] = None
        for attempt_index in range(1, self.policy.max_attempts + 1):
            if attempt_index > 1:
                self.stats["epochs_retried"] += 1
                self.telemetry.counter("retry_epochs_retried_total").inc()
                delay = self.policy.delay(attempt_index - 1)
                if delay > 0:
                    self.telemetry.counter(
                        "retry_backoff_sleeps_total"
                    ).inc()
                    self.telemetry.counter(
                        "retry_backoff_seconds_total"
                    ).inc(delay)
                    self._sleep(delay)
            try:
                return attempt()
            except EpochFailedError as exc:
                self.stats["epochs_failed"] += 1
                self.telemetry.counter(
                    "retry_epochs_failed_total",
                    stage=exc.stage if exc.stage else "unknown",
                ).inc()
                failure = exc
                if not exc.retryable:
                    break
        assert failure is not None
        raise failure.cause from failure


def heal_replica_groups(suborams: Sequence) -> int:
    """Recover crashed or stale replicas from a fresh peer; returns count.

    Runs at every epoch boundary.  A replica is healed when it is marked
    crashed or its local epoch lags the freshest live peer (the state a
    rollback or missed epoch leaves behind).  Groups with no live replica
    are left alone — ``batch_access`` will raise
    :class:`~repro.extensions.replication.ReplicaUnavailableError`
    loudly rather than serve from nothing.
    """
    recovered = 0
    for group in _replica_groups(suborams):
        live = [r for r in group.replicas if not r.crashed]
        if not live:
            continue
        freshest = max(r.epoch for r in live)
        for index, replica in enumerate(group.replicas):
            if replica.crashed or replica.epoch != freshest:
                group.recover_from_peer(index)
                recovered += 1
    return recovered
