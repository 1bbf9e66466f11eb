"""The staged epoch driver: §6's parallel pipeline over a pluggable backend.

One Snoopy epoch decomposes into three stages whose units are mutually
independent (the structure behind equations (1)–(3) and Figures 11/13):

* **build** — every load balancer turns its queued requests into S
  fixed-size batches (one oblivious sort + compaction per balancer);
  independent *across balancers*.
* **execute** — every subORAM serves the L balancers' batches.  The
  batches of one subORAM must run in fixed balancer order (LB 0 first —
  the order Appendix C's linearization proof fixes), so each subORAM's
  L-batch chain is a single ordered task; independent *across subORAMs*.
* **match** — every balancer obliviously matches the returned entries to
  its clients' requests; independent *across balancers*.

:class:`EpochDriver` runs each stage as one
:meth:`~repro.exec.backend.ExecutionBackend.map` call, so the same driver
produces serial reference execution or a concurrent epoch depending only
on the backend — with byte-identical responses either way.

Stage functions are module-level and take plain picklable tuples so that
:class:`~repro.exec.pools.ProcessPoolBackend` can ship them to workers;
mutated subORAM state returns by value in :class:`EpochResult.suborams`
and the deployment reinstalls it.

**Atomic epochs.**  A failed stage unit must not strand the epoch's
requests (the paper's no-drop guarantee) nor leave subORAM state half
mutated (retrying a partially applied batch would change write-before
values and break byte-equivalence with serial execution).  On any stage
failure :meth:`EpochDriver.run` therefore rolls the whole epoch back —
drained requests are requeued into their balancers in arrival order,
subORAM state is not installed, pending tickets stay pending — and
raises a typed :class:`~repro.errors.EpochFailedError` naming the stage
and unit.  When the deployment arms atomicity (retry policy or a fault
injector with events still pending), stage ➋ additionally runs on deep
copies under shared-state backends so a mid-stage crash cannot leak
partial in-place mutations; process backends already mutate worker-side
copies, so a failed attempt simply never installs them.

**Stage methods.**  :meth:`EpochDriver.run_build`,
:meth:`EpochDriver.run_execute` and :meth:`EpochDriver.run_match` expose
the three stages individually so :class:`~repro.core.pipeline.\
EpochPipeline` can run the build of epoch ``e+1`` concurrently with the
execute of epoch ``e`` and the match of ``e-1``.  The stage methods
raise :class:`~repro.errors.EpochFailedError` but do *not* requeue
requests — under the pipeline a failed epoch keeps its drained requests
on the in-flight job and is retried in place, so queued successor epochs
are never reordered.  :meth:`EpochDriver.run` composes the same methods
with the requeue rollback, preserving the sequential semantics exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.faults import FaultInjector
from repro.errors import (
    ConfigurationError,
    EpochFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.exec.backend import ExecutionBackend, interpreter_turn
from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.telemetry import resolve_telemetry
from repro.types import BatchEntry, Response

#: Delivery seam for stage ➋: ``(balancer_index, suboram_index, suboram,
#: batch) -> response entries``.  ``None`` means a direct in-process
#: ``suboram.batch_access(batch)`` call; a networked deployment supplies
#: its sealed-channel round trip here.
Transport = Callable[[int, int, object, List[BatchEntry]], List[BatchEntry]]


@dataclass
class EpochResult:
    """Everything one driven epoch produced.

    Attributes:
        responses_per_balancer: matched responses, indexed by balancer;
            empty list for balancers that had no queued requests.
        suborams: the (possibly reinstalled-by-value) subORAM objects,
            in partition order — identical objects under in-process
            backends, shipped-back copies under process backends.
    """

    responses_per_balancer: List[List[Response]]
    suborams: List[object]

    @property
    def responses(self) -> List[Response]:
        """All responses flattened in balancer order (the legacy shape)."""
        return [
            response
            for per_balancer in self.responses_per_balancer
            for response in per_balancer
        ]


def _build_stage(task):
    """Stage ➊ unit: one balancer's oblivious batch generation.

    The trailing ``telemetry`` element is the deployment handle under
    in-process backends and (because a live handle pickles to the null
    one) the no-op handle inside process-pool workers.
    """
    (
        requests,
        num_suborams,
        sharding_key,
        security_parameter,
        permissions,
        kernel,
        telemetry,
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
        )


def _raise_injected(fault: Optional[str], unit: int) -> None:
    """Fire an injected stage-➋ fault inside the executing worker.

    The raise happens worker-side (also across a process boundary) so the
    failure exercises the same propagation path a real crash would.
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
    """Stage ➋ unit: one subORAM's L batches, in fixed balancer order."""
    suboram_index, suboram, chain, transport, fault, telemetry = task
    _raise_injected(fault, suboram_index)
    outputs = []
    for balancer_index, batch in chain:
        with telemetry.time(
            "snoopy_suboram_batch_seconds", unit=suboram_index
        ):
            if transport is None:
                entries = suboram.batch_access(batch)
            else:
                entries = transport(
                    balancer_index, suboram_index, suboram, batch
                )
        outputs.append((balancer_index, entries))
    return suboram, outputs


def _execute_stateful(suboram, args):
    """Stage ➋ stateful unit: the direct-call path for ``map_stateful``.

    Returns ``(new_state, result)`` as the stateful contract requires —
    which here is exactly the ``(suboram, outputs)`` pair
    :func:`_execute_stage` produces, so the driver handles both paths
    uniformly.
    """
    suboram_index, chain, fault, telemetry = args
    _raise_injected(fault, suboram_index)
    outputs = []
    for balancer_index, batch in chain:
        with telemetry.time(
            "snoopy_suboram_batch_seconds", unit=suboram_index
        ):
            outputs.append((balancer_index, suboram.batch_access(batch)))
    return suboram, outputs


def _suboram_state_token(suboram):
    """Cache token for a subORAM's mutable state.

    Returns ``None`` — meaning "never assume a cached copy is current" —
    for subORAM implementations that do not expose ``state_token``.
    """
    return getattr(suboram, "state_token", None)


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
            and per-batch subORAM timings record through it on
            in-process backends; it pickles to the no-op handle across
            process boundaries).
    """

    def __init__(self, backend: ExecutionBackend, telemetry=None):
        self.backend = backend
        self.telemetry = resolve_telemetry(telemetry)

    def run(
        self,
        load_balancers: Sequence,
        suborams: Sequence,
        permissions=None,
        transport: Optional[Transport] = None,
        state_ns: str = "epoch",
        injector: Optional[FaultInjector] = None,
        atomic: bool = False,
    ) -> EpochResult:
        """Close the epoch: drain, build, execute, match — atomically.

        Args:
            load_balancers: the deployment's balancers; their queues are
                drained (and epoch counters bumped) up front.
            suborams: the deployment's partitions, in order.
            permissions: optional §D access-control bits
                ``{(client_id, seq): 0/1}``.
            transport: optional delivery seam for stage ➋ (see
                :data:`Transport`).  Requires an in-process backend:
                closures over live channel state cannot cross a process
                boundary.
            state_ns: namespace for the backend's cross-epoch state cache
                (stage ➋ runs through
                :meth:`~repro.exec.backend.ExecutionBackend.map_stateful`);
                deployments sharing one backend should pass distinct
                namespaces so their subORAM caches never collide.
            injector: optional :class:`~repro.core.faults.FaultInjector`;
                stage-➋ units with a scheduled worker-crash/timeout event
                are armed to fail inside the executing worker.
            atomic: run stage ➋ on deep copies under shared-state
                backends so a failed attempt leaves the caller's subORAM
                objects untouched.  Deployments arm this whenever a retry
                policy or fault injector is active; the reinstalled
                :attr:`EpochResult.suborams` then *are* the copies, as
                they already are under process backends.

        Raises:
            ConfigurationError: a transport was supplied on a backend
                without shared state (e.g. ``process``).
            EpochFailedError: a stage unit failed.  The epoch was rolled
                back first: every drained request is requeued into its
                balancer (arrival order preserved), no subORAM state is
                installed, and tickets stay pending for the retry.
        """
        if transport is not None and not self.backend.supports_shared_state:
            from repro.exec import BACKENDS

            shared = sorted(
                name
                for name, cls in BACKENDS.items()
                if cls.supports_shared_state
            )
            raise ConfigurationError(
                f"backend {self.backend.name!r} cannot run a custom "
                f"transport for state namespace {state_ns!r}: channel "
                "state must stay in-process (shared-state backends: "
                f"{', '.join(repr(name) for name in shared)})"
            )

        with self.telemetry.span("stage", stage="collect"), \
                self.telemetry.time(
                    "snoopy_epoch_stage_seconds", stage="collect"
                ):
            drained = [balancer.drain() for balancer in load_balancers]
        active = [index for index, requests in enumerate(drained) if requests]
        if not active:
            return EpochResult(
                responses_per_balancer=[[] for _ in load_balancers],
                suborams=list(suborams),
            )
        try:
            return self._run_stages(
                load_balancers, suborams, drained, active,
                permissions, transport, state_ns, injector, atomic,
            )
        except EpochFailedError:
            self._rollback(load_balancers, drained)
            raise

    @staticmethod
    def _rollback(load_balancers: Sequence, drained: List[list]) -> None:
        """Requeue every drained request so the next epoch retries it."""
        for balancer, requests in zip(load_balancers, drained):
            balancer.requeue(requests)

    def _run_stages(
        self, load_balancers, suborams, drained, active,
        permissions, transport, state_ns, injector, atomic,
    ) -> EpochResult:
        """The three pipeline stages; failures surface as EpochFailedError."""
        built = self.run_build(load_balancers, drained, active, permissions)
        new_suborams, entries_per_balancer = self.run_execute(
            suborams, built, active,
            transport=transport, state_ns=state_ns,
            injector=injector, atomic=atomic,
        )
        responses_per_balancer = self.run_match(
            load_balancers, built, entries_per_balancer, active
        )
        return EpochResult(
            responses_per_balancer=responses_per_balancer,
            suborams=new_suborams,
        )

    # ------------------------------------------------------------------
    # Individual stage methods (the pipeline's building blocks)
    # ------------------------------------------------------------------
    def run_build(
        self, load_balancers, drained, active, permissions=None
    ) -> list:
        """Stage ➊ only: oblivious batch building for every active balancer.

        ``generate_batches`` is a pure function of its inputs, so the
        returned ``built`` list (one ``(batches, originals, batch_size)``
        tuple per active balancer) can safely be reused across retry
        attempts of the execute stage.

        Raises:
            EpochFailedError: ``stage="build"``.  No rollback is
            performed — the caller owns the drained requests.
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
        state_ns: str = "epoch",
        injector: Optional[FaultInjector] = None,
        atomic: bool = False,
    ):
        """Stage ➋ only: every subORAM serves its L-batch chain.

        Each chain lists that subORAM's batches in ascending balancer
        order, the fixed order the linearizability argument requires.
        The direct in-process path runs through ``map_stateful`` so
        process backends can keep each subORAM's state cached
        worker-side across epochs instead of re-shipping it every batch.

        Returns:
            ``(new_suborams, entries_per_balancer)`` — the mutated (or
            shipped-back / atomically copied) subORAM objects in
            partition order, and a ``{balancer_index: entries}`` dict
            regrouping the stage outputs for matching (subORAMs in
            ascending order — the exact entry order serial execution
            produced).

        Raises:
            EpochFailedError: ``stage="execute"``.  No rollback is
            performed and — when ``atomic`` — the caller's subORAM
            objects *and* ``built`` batches are untouched, so the caller
            may simply call this method again with the same ``built``
            batches to retry.
        """
        work_suborams = list(suborams)
        work_built = built
        try:
            if atomic and self.backend.supports_shared_state:
                # Shared-state backends mutate in place; run on copies
                # so a failed unit cannot leave the caller's state
                # half-applied.  Batches too: ``batch_access`` consumes
                # entries in place (each entry's value is folded into
                # its response), and a retried attempt — or the
                # pipeline, which reuses one build across attempts —
                # must re-execute pristine batches.  The copy itself is
                # inside the fault wrapping because remote proxies turn
                # it into a TXN_BEGIN round trip that can hit a network
                # fault; an abandoned half-clone is harmless (the retry
                # re-clones the same committed parents under fresh
                # version ids).
                work_suborams = copy.deepcopy(work_suborams)
                work_built = [
                    (copy.deepcopy(batches), originals, size)
                    for (batches, originals, size) in built
                ]
        except BaseException as exc:
            raise EpochFailedError(
                "execute", getattr(exc, "unit", None), exc
            ) from exc
        faults = [
            injector.stage_fault(suboram_index)
            if injector is not None
            else None
            for suboram_index in range(len(work_suborams))
        ]
        try:
            with self.telemetry.span(
                "stage", stage="execute", tasks=len(work_suborams)
            ), self.telemetry.time(
                "snoopy_epoch_stage_seconds", stage="execute"
            ):
                if transport is None:
                    executed = self.backend.map_stateful(
                        _execute_stateful,
                        [
                            (
                                (state_ns, suboram_index),
                                suboram,
                                (
                                    suboram_index,
                                    [
                                        (balancer_index,
                                         work_built[j][0][suboram_index])
                                        for j, balancer_index in enumerate(
                                            active
                                        )
                                    ],
                                    faults[suboram_index],
                                    self.telemetry,
                                ),
                            )
                            for suboram_index, suboram in enumerate(
                                work_suborams
                            )
                        ],
                        token=_suboram_state_token,
                    )
                else:
                    executed = self.backend.map(
                        _execute_stage,
                        [
                            (
                                suboram_index,
                                suboram,
                                [
                                    (balancer_index,
                                     work_built[j][0][suboram_index])
                                    for j, balancer_index in enumerate(active)
                                ],
                                transport,
                                faults[suboram_index],
                                self.telemetry,
                            )
                            for suboram_index, suboram in enumerate(
                                work_suborams
                            )
                        ],
                    )
        except BaseException as exc:
            raise EpochFailedError(
                "execute", getattr(exc, "unit", None), exc
            ) from exc
        new_suborams = [suboram for suboram, _ in executed]
        entries_per_balancer = {index: [] for index in active}
        for _, outputs in executed:
            for balancer_index, entries in outputs:
                entries_per_balancer[balancer_index].extend(entries)
        return new_suborams, entries_per_balancer

    def run_match(
        self, load_balancers, built, entries_per_balancer, active
    ) -> List[List[Response]]:
        """Stage ➌ only: oblivious response matching per active balancer.

        Returns the full ``responses_per_balancer`` list (empty lists
        for balancers that had no queued requests this epoch).

        Raises:
            EpochFailedError: ``stage="match"``.  No rollback is
            performed.
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
