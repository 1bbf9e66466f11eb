"""The epoch body: one close → build → execute → match path and its rollback.

The paper defines one epoch procedure (Fig. 21, §4.3, Appendix C) and
this module states it once.  :class:`EpochLifecycle` holds the steps;
:meth:`Snoopy.run_epoch <repro.core.snoopy.Snoopy.run_epoch>` runs them
inline on the caller's thread and the three stage threads of
:class:`~repro.core.pipeline.EpochPipeline` run the very same steps, one
epoch behind each other:

* **close** — nothing queued means nothing happens (no counter moves);
  otherwise every balancer is drained, the trusted counter is bumped
  once (§9) and the ticket book is cut, giving one :class:`_EpochJob`.
* **build** — every load balancer turns its drained rows (its queued
  :class:`~repro.oblivious.soa.Batch` chunks, concatenated) into S
  fixed-size batches (one oblivious sort + compaction per balancer);
  independent *across balancers*.
* **execute** — every subORAM serves the L balancers' batches.  The
  batches of one subORAM run in fixed balancer order (LB 0 first — the
  order Appendix C's linearization proof fixes).  Co-resident subORAMs
  run as P = min(S, backend width) contiguous groups of ⌈S/P⌉
  (:func:`stage_groups`), each one unit — one
  :func:`~repro.suboram.suboram.run_group` call, which opens each
  member's partition once, builds all members' tables as the rows of
  one stacked network and reseals each once.  A subORAM of another kind
  (a worker proxy, a replica group) is a unit of its own.  Independent
  *across groups*.
* **match** — every balancer obliviously matches the returned rows to
  its clients' requests, and the epoch's ticket cut is resolved, one
  call per ticket (one ticket per submitted chunk).
* **rollback** — a fatally failed epoch's requests go back to the front
  of their balancers and its ticket cut is restored, latest epoch first,
  so queues and ticket book end up as if nothing had been drained.

**One retry rule.**  Only stage ➋ is retried, *in place*: build output is
a pure function of the drained requests and no stage modifies the
:class:`~repro.oblivious.soa.Batch` it is handed, so every attempt
re-executes the same built batches, and queued successor epochs are
never reordered.  A failed unit must not leave subORAM state half mutated
(retrying a partially applied batch would change write-before values),
so stage ➋ runs *atomically* — on deep copies of the subORAMs, installed
only when every unit succeeded — while the deployment is armed (more
than one attempt allowed, or a fault injector with events pending).
Build and match failures, and an exhausted retry budget, are fatal: the
caller rolls back and raises the cause.

:class:`EpochDriver` runs each stage as one
:meth:`~repro.exec.backend.ExecutionBackend.map` call, so the same steps
produce serial reference execution or a concurrent epoch depending only
on the backend — with byte-identical responses either way.  Every unit
runs in this process on the objects it is handed; a subORAM in its own
process is a proxy whose ``run_epoch`` is one framed round trip
(:class:`~repro.serve.workers.RemoteSubOram`).
"""

from __future__ import annotations

import copy
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.faults import FaultInjector
from repro.core.tickets import Ticket, TicketBook
from repro.errors import (
    EpochFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.exec.backend import (
    ExecutionBackend, SerialBackend, interpreter_turn,
)
from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.oblivious.soa import Batch
from repro.suboram.suboram import SubOram, run_group
from repro.telemetry import resolve_telemetry

def _build_stage(task):
    """Stage ➊ unit: one balancer's oblivious batch generation."""
    (
        chunks,
        num_suborams,
        sharding_key,
        security_parameter,
        permissions,
        kernel,
        telemetry,
        value_size,
    ) = task
    with interpreter_turn():
        return generate_batches(
            Batch.concat(chunks),
            num_suborams,
            sharding_key,
            security_parameter,
            permissions=permissions,
            kernel=kernel,
            telemetry=telemetry,
            value_size=value_size,
        )


def _raise_injected(fault: Optional[str], unit: int) -> None:
    """Fire an injected stage-➋ fault inside the executing unit.

    The raise happens on the unit's own thread so the failure exercises
    the same propagation path a real crash would.
    """
    if fault == "worker_crash":
        raise WorkerCrashError(
            f"injected worker crash at subORAM {unit}", unit=unit
        )
    if fault == "task_timeout":
        raise TaskTimeoutError(
            f"injected task timeout at subORAM {unit}", unit=unit
        )


def stage_groups(num_suborams: int, width: int) -> List[range]:
    """Stage ➋'s groups of co-resident subORAMs, as index ranges.

    P = min(S, width) contiguous groups of ⌈S/P⌉ partition indices (the
    last may be shorter): a function of the two public numbers alone.
    """
    size = -(-num_suborams // max(1, min(num_suborams, width)))
    return [range(num_suborams)[first:first + size]
            for first in range(0, num_suborams, size)]


def _stage_units(suborams, width: int) -> List[List[int]]:
    """Each stage-➋ unit's partition indices: a :func:`stage_groups`
    group of in-process :class:`SubOram` members, or one subORAM of any
    other kind (a worker proxy, a replica group), served through its own
    ``run_epoch``."""
    units = []
    for group in stage_groups(len(suborams), width):
        if all(isinstance(suborams[i], SubOram) for i in group):
            units.append(list(group))
        else:
            units.extend([i] for i in group)
    return units


def _execute_stage(task):
    """Stage ➋ unit: a group of subORAMs' L batches, each member's in
    fixed balancer order.

    Runs on the subORAM objects it is handed (the live ones, or the
    atomic copies) and returns ``[(balancer_index, response batch),
    ...]``, member by member.  A fault armed for any member fires with
    that member's index as its ``unit``.
    """
    indices, members, chains, faults, telemetry = task
    for index, fault in zip(indices, faults):
        _raise_injected(fault, index)
    batches = [[batch for _, batch in chain] for chain in chains]
    with telemetry.time("snoopy_suboram_epoch_seconds", unit=indices[0]):
        replies = (run_group(members, batches) if len(members) > 1
                   else [members[0].run_epoch(batches[0])])
    return [
        (balancer_index, reply)
        for chain, member_replies in zip(chains, replies)
        for (balancer_index, _), reply in zip(chain, member_replies)
    ]


def _match_stage(task):
    """Stage ➌ unit: one balancer's oblivious response matching."""
    originals, responses, kernel, telemetry = task
    with interpreter_turn():
        return match_responses(
            originals, responses, kernel=kernel, telemetry=telemetry
        )


class EpochDriver:
    """Drives one epoch's three stages over an execution backend.

    Args:
        backend: the execution backend the stages fan out over.
        telemetry: optional :class:`~repro.telemetry.Telemetry` handle;
            when given, each stage is wrapped in a trace span and timed
            into ``snoopy_epoch_stage_seconds{stage=...}``, and the
            handle is threaded into the stage tasks (batching, matching
            and per-batch subORAM timings record through it).
    """

    def __init__(self, backend: ExecutionBackend, telemetry=None):
        self.backend = backend
        self.telemetry = resolve_telemetry(telemetry)

    def run_build(
        self, load_balancers, drained, active, permissions=None
    ) -> list:
        """Stage ➊ only: oblivious batch building for every active balancer.

        ``generate_batches`` is a pure function of its inputs, so the
        returned ``built`` list (one ``(batches, originals, batch_size)``
        tuple per active balancer) can safely be reused across retry
        attempts of the execute stage.

        Raises:
            EpochFailedError: ``stage="build"``.
        """
        try:
            with self.telemetry.span(
                "stage", stage="build", tasks=len(active)
            ), self.telemetry.time(
                "snoopy_epoch_stage_seconds", stage="build"
            ):
                return self.backend.map(
                    _build_stage,
                    [
                        (
                            drained[index],
                            load_balancers[index].num_suborams,
                            load_balancers[index].sharding_key,
                            load_balancers[index].security_parameter,
                            permissions,
                            getattr(load_balancers[index], "kernel", None),
                            self.telemetry,
                            load_balancers[index].value_size,
                        )
                        for index in active
                    ],
                )
        except BaseException as exc:
            raise EpochFailedError(
                "build", getattr(exc, "unit", None), exc
            ) from exc

    def run_execute(
        self,
        suborams,
        built,
        active,
        *,
        injector: Optional[FaultInjector] = None,
        atomic: bool = False,
    ):
        """Stage ➋ only: every subORAM serves its L-batch chain.

        Each chain lists that subORAM's batches in ascending balancer
        order, the fixed order the linearizability argument requires.
        One ``backend.map`` runs the chains, one unit per
        :func:`stage_groups` group of in-process subORAMs (the backend's
        ``width`` sets P), one unit per subORAM of any other kind.

        Args:
            injector: optional :class:`~repro.core.faults.FaultInjector`;
                units with a scheduled worker-crash/timeout event are
                armed to fail inside the executing unit.
            atomic: run on deep copies of the subORAMs so a failed
                attempt leaves the caller's subORAM objects untouched —
                the caller retries by calling this method again with
                the same ``built`` (which no attempt modifies).

        Returns:
            ``(suborams, entries_per_balancer)`` — the subORAM objects
            the units ran on (the caller's own, or the atomic copies) in
            partition order, and a ``{balancer_index: Batch}`` dict
            regrouping the stage outputs for matching (subORAMs in
            ascending order — the exact row order serial execution
            produces).

        Raises:
            EpochFailedError: ``stage="execute"``.
        """
        work_suborams = list(suborams)
        try:
            if atomic:
                # Units mutate in place; run on copies so a failed unit
                # cannot leave the caller's state half-applied.  The
                # copy itself is inside the fault wrapping because
                # remote proxies turn it into a TXN_BEGIN round trip that
                # can hit a network fault; an abandoned half-clone is
                # harmless (the retry re-clones the same committed
                # parents under fresh version ids).
                work_suborams = copy.deepcopy(work_suborams)
            units = _stage_units(work_suborams, self.backend.width)
            with self.telemetry.span(
                "stage", stage="execute", tasks=len(units)
            ), self.telemetry.time(
                "snoopy_epoch_stage_seconds", stage="execute"
            ):
                executed = self.backend.map(
                    _execute_stage,
                    [
                        (
                            unit,
                            [work_suborams[i] for i in unit],
                            [[(b, built[j][0][i]) for j, b in enumerate(active)]
                             for i in unit],
                            [injector.stage_fault(i) for i in unit]
                            if injector is not None else [None] * len(unit),
                            self.telemetry,
                        )
                        for unit in units
                    ],
                )
        except BaseException as exc:
            raise EpochFailedError(
                "execute", getattr(exc, "unit", None), exc
            ) from exc
        replies = {index: [] for index in active}
        for outputs in executed:
            for balancer_index, entries in outputs:
                replies[balancer_index].append(entries)
        return work_suborams, {
            index: Batch.concat(batches) for index, batches in replies.items()
        }

    def run_match(
        self, load_balancers, built, entries_per_balancer, active
    ) -> List[Batch]:
        """Stage ➌ only: oblivious response matching per active balancer.

        Returns one matched :class:`Batch` per balancer, in arrival
        order (empty for balancers that had no queued requests this
        epoch).

        Raises:
            EpochFailedError: ``stage="match"``.
        """
        try:
            with self.telemetry.span(
                "stage", stage="match", tasks=len(active)
            ), self.telemetry.time(
                "snoopy_epoch_stage_seconds", stage="match"
            ):
                matched = self.backend.map(
                    _match_stage,
                    [
                        (
                            built[j][1],
                            entries_per_balancer[balancer_index],
                            getattr(
                                load_balancers[balancer_index], "kernel", None
                            ),
                            self.telemetry,
                        )
                        for j, balancer_index in enumerate(active)
                    ],
                )
        except BaseException as exc:
            raise EpochFailedError(
                "match", getattr(exc, "unit", None), exc
            ) from exc

        matched_per_balancer = [
            Batch.filled(0, balancer.value_size) for balancer in load_balancers
        ]
        for j, balancer_index in enumerate(active):
            matched_per_balancer[balancer_index] = matched[j]
        return matched_per_balancer


def attach_telemetry_to_suborams(suborams, telemetry) -> None:
    """Point every subORAM (and replica) with a telemetry seam at ``telemetry``.

    Attachment is attribute-based so custom subORAM implementations opt
    in simply by defining a ``telemetry`` attribute; objects without the
    seam (e.g. bare adapters) are left untouched.  Replica groups are
    descended into via their ``replicas`` list.
    """
    for suboram in suborams:
        if hasattr(suboram, "telemetry"):
            suboram.telemetry = telemetry
        for replica in getattr(suboram, "replicas", []):
            inner = getattr(replica, "suboram", replica)
            if hasattr(inner, "telemetry"):
                inner.telemetry = telemetry


class _EpochJob:
    """One closed epoch: its rows, tickets, and stage outputs."""

    __slots__ = (
        "epoch", "drained", "active", "tickets", "permissions",
        "built", "entries", "responses", "failure", "closed_at",
    )

    def __init__(self, epoch, drained, active, tickets, permissions):
        self.epoch: int = epoch
        self.drained: List[List[Batch]] = drained
        self.active: List[int] = active
        self.tickets: List[List[Ticket]] = tickets
        self.permissions = permissions
        self.built = None
        self.entries = None
        self.responses: Optional[List[Batch]] = None
        self.failure: Optional[BaseException] = None
        self.closed_at = time.monotonic()


class EpochLifecycle:
    """The steps of one epoch over a deployment (see the module docstring).

    Each step takes the :class:`_EpochJob` that :meth:`close` produced
    and runs after the previous one; epochs pass through :meth:`execute`
    — the only step that mutates subORAM state — in close order.  The
    steps do no locking and start no threads: the scheduler calling them
    (``Snoopy.run_epoch`` inline, ``EpochPipeline`` on its stage threads)
    owns both, and rolls back when a step raises.

    Args:
        store: the :class:`~repro.core.snoopy.Snoopy` deployment the
            steps operate on.
    """

    def __init__(self, store):
        self._store = store
        self.telemetry = store.telemetry
        self._driver = EpochDriver(store.backend, telemetry=store.telemetry)
        # The balancer stages run inline on the thread that calls them.
        # Through the pool, a match whose tasks land behind the next
        # epoch's execute units in its one FIFO queue answers a whole
        # execute time late, and which of the two reaches the queue first
        # is a thread race.
        self._balancer_driver = EpochDriver(
            SerialBackend(), telemetry=store.telemetry
        )

    def close(self, permissions=None) -> Optional[_EpochJob]:
        """Close the current batch into a job, or ``None`` if none is queued.

        An empty close touches no counter.  Otherwise every balancer is
        drained, the trusted counter is bumped (§9) and the ticket book
        is cut, so the job carries exactly the tickets of the requests it
        drained.  ``permissions``: optional §D access-control bits.
        """
        store = self._store
        if not any(balancer.pending for balancer in store.load_balancers):
            return None
        with self.telemetry.span("stage", stage="collect"), \
                self.telemetry.time(
                    "snoopy_epoch_stage_seconds", stage="collect"
                ):
            drained = [balancer.drain() for balancer in store.load_balancers]
        return _EpochJob(
            epoch=store.counter.increment(),
            drained=drained,
            active=[i for i, chunks in enumerate(drained) if chunks],
            tickets=store.tickets.cut(),
            permissions=permissions,
        )

    def build(self, job: _EpochJob) -> None:
        """Stage ➊.  Never retried: a failure (e.g.
        :class:`~repro.errors.BatchOverflowError`) is a pure function of
        the drained requests and would repeat identically."""
        try:
            job.built = self._balancer_driver.run_build(
                self._store.load_balancers, job.drained, job.active,
                job.permissions,
            )
        except EpochFailedError as exc:
            raise exc.cause from exc

    def execute(self, job: _EpochJob) -> None:
        """Stage ➋ with the retry loop, then install the subORAM state.

        A failed attempt is retried in place on the already-built
        batches; exhausted budgets and non-retryable failures raise the
        original cause with nothing installed.  The attempt is atomic
        when the controller is armed (see the module docstring).
        """
        store = self._store
        controller = store.retry_controller
        controller.begin_epoch(job.epoch, store.suborams)
        atomic = controller.armed
        # An atomic epoch returns its deep copies, installed here.
        store.suborams, job.entries = controller.run_with_retry(
            lambda: self._driver.run_execute(
                store.suborams, job.built, job.active,
                injector=store.injector,
                atomic=atomic,
            )
        )
        controller.end_epoch(store.suborams)

    def match(self, job: _EpochJob) -> Tuple[int, float]:
        """Stage ➌ and ticket resolution.

        Returns ``(tickets resolved, seconds since the epoch closed)``.
        """
        try:
            job.responses = self._balancer_driver.run_match(
                self._store.load_balancers, job.built, job.entries,
                job.active,
            )
        except EpochFailedError as exc:
            raise exc.cause from exc
        with self.telemetry.span("stage", stage="respond"), \
                self.telemetry.time(
                    "snoopy_epoch_stage_seconds", stage="respond"
                ):
            resolved = TicketBook.resolve_cut(
                job.tickets, job.responses, job.epoch
            )
        latency = time.monotonic() - job.closed_at
        self.telemetry.counter("snoopy_epochs_total").inc()
        self.telemetry.counter("snoopy_responses_total").inc(resolved)
        self.telemetry.histogram("snoopy_epoch_seconds").observe(latency)
        return resolved, latency

    def rollback(self, jobs: Sequence[_EpochJob]) -> None:
        """Undo the close of every job in ``jobs``, latest epoch first.

        Each job prepends its rows to their balancers and its ticket cut
        to the book, so both end up exactly as if none of the epochs had
        been drained; the tickets stay pending for a later epoch.
        """
        for job in sorted(jobs, key=lambda j: j.epoch, reverse=True):
            for balancer, chunks in zip(
                self._store.load_balancers, job.drained
            ):
                balancer.requeue(chunks)
            self._store.tickets.restore(job.tickets)
