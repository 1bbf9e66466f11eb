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
* **build** — every load balancer turns its drained requests into S
  fixed-size batches (one oblivious sort + compaction per balancer);
  independent *across balancers*.
* **execute** — every subORAM serves the L balancers' batches.  The
  batches of one subORAM run in fixed balancer order (LB 0 first — the
  order Appendix C's linearization proof fixes), so each subORAM's
  L-batch chain is a single ordered unit — one
  :meth:`~repro.suboram.suboram.SubOram.run_epoch` call, which opens the
  partition once, builds the L tables as one stacked network and
  reseals once; independent *across subORAMs*.
* **match** — every balancer obliviously matches the returned rows to
  its clients' requests, and the epoch's ticket cut is resolved.
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
runs in this process on the objects it is handed; subORAMs in their own
processes are reached through a transport
(:class:`~repro.serve.workers.WorkerCluster`).
"""

from __future__ import annotations

import copy
import time
from typing import Callable, List, Optional, Sequence, Tuple

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
from repro.telemetry import resolve_telemetry
from repro.types import Request, Response

#: Delivery seam for stage ➋, one call per chain: ``(suboram_index,
#: suboram, chain) -> [response batch, ...]``, where ``chain`` lists
#: ``(balancer_index, batch)`` in balancer order.  ``None`` means a direct
#: in-process :func:`serve_chain`; a networked deployment supplies its
#: sealed-channel round trips here.
Transport = Callable[[int, object, List[Tuple[int, Batch]]], List[Batch]]


def serve_chain(suboram, batches: Sequence[Batch]) -> List[Batch]:
    """A subORAM's batches of one epoch, in balancer order.

    One :meth:`~repro.suboram.suboram.SubOram.run_epoch` call where the
    subORAM has one; remote proxies and adapters (anything with only a
    ``batch_access``) are served batch by batch.
    """
    run_epoch = getattr(suboram, "run_epoch", None)
    if run_epoch is None:
        return [suboram.batch_access(batch) for batch in batches]
    return run_epoch(batches)


def _build_stage(task):
    """Stage ➊ unit: one balancer's oblivious batch generation."""
    (
        requests,
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
            requests,
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


def _execute_stage(task):
    """Stage ➋ unit: one subORAM's L batches, in fixed balancer order.

    Runs on the subORAM object it is handed (the live one, or the
    atomic copy) and returns ``[(balancer_index, response batch), ...]``.
    """
    suboram_index, suboram, chain, transport, fault, telemetry = task
    _raise_injected(fault, suboram_index)
    with telemetry.time("snoopy_suboram_epoch_seconds", unit=suboram_index):
        if transport is None:
            replies = serve_chain(suboram, [batch for _, batch in chain])
        else:
            replies = transport(suboram_index, suboram, chain)
    return [
        (balancer_index, reply)
        for (balancer_index, _), reply in zip(chain, replies)
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
        transport: Optional[Transport] = None,
        injector: Optional[FaultInjector] = None,
        atomic: bool = False,
    ):
        """Stage ➋ only: every subORAM serves its L-batch chain.

        Each chain lists that subORAM's batches in ascending balancer
        order, the fixed order the linearizability argument requires.
        One ``backend.map`` runs the chains, one unit per subORAM.

        Args:
            transport: optional delivery seam (see :data:`Transport`).
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
            with self.telemetry.span(
                "stage", stage="execute", tasks=len(work_suborams)
            ), self.telemetry.time(
                "snoopy_epoch_stage_seconds", stage="execute"
            ):
                executed = self.backend.map(
                    _execute_stage,
                    [
                        (
                            suboram_index,
                            suboram,
                            [
                                (balancer_index, built[j][0][suboram_index])
                                for j, balancer_index in enumerate(active)
                            ],
                            transport,
                            injector.stage_fault(suboram_index)
                            if injector is not None
                            else None,
                            self.telemetry,
                        )
                        for suboram_index, suboram in enumerate(work_suborams)
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
    ) -> List[List[Response]]:
        """Stage ➌ only: oblivious response matching per active balancer.

        Returns the full ``responses_per_balancer`` list (empty lists
        for balancers that had no queued requests this epoch).

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

        responses_per_balancer: List[List[Response]] = [
            [] for _ in load_balancers
        ]
        for j, balancer_index in enumerate(active):
            responses_per_balancer[balancer_index] = matched[j]
        return responses_per_balancer


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
    """One closed epoch: its requests, tickets, and stage outputs."""

    __slots__ = (
        "epoch", "drained", "active", "tickets", "permissions",
        "built", "entries", "responses", "failure", "closed_at",
    )

    def __init__(self, epoch, drained, active, tickets, permissions):
        self.epoch: int = epoch
        self.drained: List[List[Request]] = drained
        self.active: List[int] = active
        self.tickets: List[List[Ticket]] = tickets
        self.permissions = permissions
        self.built = None
        self.entries = None
        self.responses: Optional[List[List[Response]]] = None
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
            active=[i for i, requests in enumerate(drained) if requests],
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
                transport=store._transport,
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

        Each job prepends its requests to their balancers and its ticket
        cut to the book, so both end up exactly as if none of the epochs
        had been drained; the tickets stay pending for a later epoch.
        """
        for job in sorted(jobs, key=lambda j: j.epoch, reverse=True):
            for balancer, requests in zip(
                self._store.load_balancers, job.drained
            ):
                balancer.requeue(requests)
            self._store.tickets.restore(job.tickets)
