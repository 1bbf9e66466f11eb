"""The assembled Snoopy system (Figure 21).

``Snoopy`` owns ``L`` load balancers and ``S`` subORAMs.  Clients submit
requests to a load balancer of their choice (clients pick randomly, §4.3)
and receive a :class:`~repro.core.tickets.Ticket`.  An epoch is the one
body of :class:`~repro.core.epoch.EpochLifecycle`: close the batch, every
load balancer builds its batches, every subORAM executes the load
balancers' batches *in a fixed order* (LB 0 first, then LB 1, ...), and
every balancer matches responses back — which, together with
last-write-wins within a balancer, yields the linearization order proved
correct in Appendix C.  Each ticket resolves with its request's response
when its epoch's match step runs.

Two schedulers drive that body.  ``run_epoch`` runs the steps inline on
the caller's thread, on demand; :meth:`Snoopy.start_pipeline` (see
:mod:`repro.core.pipeline`) runs them on three stage threads behind a
background epoch clock, so the build of epoch ``e+1`` overlaps the
execute of ``e`` and the match of ``e-1`` (§6).  The execution backend
(:mod:`repro.exec`) decides how much of a stage overlaps.  Responses are
byte-identical under either scheduler and every backend.

The trusted monotonic counter is bumped once per epoch (§9): state sealed
at epoch ``e`` cannot be replayed at epoch ``e' > e``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Union

from repro.crypto.keys import KeyChain
from repro.core.config import SnoopyConfig
from repro.core.epoch import (
    EpochLifecycle,
    attach_telemetry_to_suborams,
)
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.resilience import EpochRetryController
from repro.core.tickets import Ticket, TicketBook
from repro.enclave.sealed import MonotonicCounter
from repro.errors import ConfigurationError, NotInitializedError
from repro.exec import make_backend
from repro.loadbalancer.balancer import LoadBalancer
from repro.loadbalancer.initialization import oblivious_shard
from repro.oblivious.soa import Batch
from repro.suboram.suboram import SubOram
from repro.telemetry import resolve_telemetry
from repro.types import OpType, Request, Response
from repro.utils.validation import require


class Snoopy:
    """An in-process Snoopy deployment: L load balancers, S subORAMs.

    Example::

        store = Snoopy(SnoopyConfig(num_load_balancers=2, num_suborams=3,
                                    value_size=16))
        store.initialize({k: bytes(16) for k in range(1000)})
        ticket = store.submit(Request(OpType.WRITE, 7, b"x" * 16))
        store.run_epoch()
        response = ticket.result()
    """

    def __init__(self, config: SnoopyConfig, keychain: Optional[KeyChain] = None,
                 rng: Optional[random.Random] = None, suboram_factory=None,
                 fault_plan: Optional[FaultPlan] = None,
                 telemetry=None):
        """Assemble the deployment.

        Args:
            config: public deployment parameters.
            keychain: deployment secrets (generated if omitted).
            rng: randomness for client load-balancer selection.
            suboram_factory: optional ``(suboram_id, config, keychain) ->
                subORAM`` callable for plugging in alternative subORAM
                designs: anything with ``initialize(objects)``,
                ``num_objects`` and ``run_epoch(batches) -> [reply, ...]``,
                which serves an epoch's batches in balancer order and
                leaves them untouched — e.g. the Oblix adapter behind
                Fig. 10, or a worker proxy that ships the whole epoch in
                one frame.  Defaults to the paper's throughput-optimized
                linear-scan subORAM (§5), or to §9
                :class:`~repro.extensions.replication.ReplicatedSubOram`
                groups when ``config.replication`` is set.
            fault_plan: optional deterministic
                :class:`~repro.core.faults.FaultPlan` (chaos testing);
                scheduled faults are injected through the backend and
                replica seams and counted in :attr:`fault_stats`.
            telemetry: optional :class:`~repro.telemetry.Telemetry`
                handle; overrides ``config.telemetry``.  When attached,
                every pipeline layer records into its registry/tracer
                (see :mod:`repro.telemetry`).

        Raises:
            ConfigurationError: both a custom ``suboram_factory`` and
                ``config.replication`` were given — the deployment cannot
                know how to wrap an arbitrary subORAM in replica groups.
        """
        self.config = config
        self.keychain = keychain if keychain is not None else KeyChain()
        self._rng = rng if rng is not None else random.Random()
        self.counter = MonotonicCounter()
        self.telemetry = resolve_telemetry(
            telemetry if telemetry is not None else config.telemetry
        )
        self.backend = make_backend(config.execution_backend)
        if self.telemetry.enabled:
            self.backend.attach_telemetry(self.telemetry)
        self._injector = (
            FaultInjector(fault_plan, telemetry=self.telemetry)
            if fault_plan is not None
            else None
        )
        self._retry = EpochRetryController(
            config.epoch_max_attempts,
            injector=self._injector,
            telemetry=self.telemetry,
        )

        sharding_key = self.keychain.sharding_key()
        self.load_balancers = [
            LoadBalancer(
                balancer_id=i,
                num_suborams=config.num_suborams,
                sharding_key=sharding_key,
                value_size=config.value_size,
                security_parameter=config.security_parameter,
                kernel=config.kernel,
            )
            for i in range(config.num_load_balancers)
        ]
        if suboram_factory is None:
            suboram_factory = (
                _replicated_suboram_factory
                if config.replication is not None
                else _default_suboram_factory
            )
        elif config.replication is not None:
            raise ConfigurationError(
                "config.replication and a custom suboram_factory are "
                "mutually exclusive: have the factory build "
                "ReplicatedSubOram groups itself"
            )
        self.suborams = [
            suboram_factory(s, config, self.keychain)
            for s in range(config.num_suborams)
        ]
        if self.telemetry.enabled:
            attach_telemetry_to_suborams(self.suborams, self.telemetry)
        self._tickets = TicketBook(config.num_load_balancers)
        self.epochs = EpochLifecycle(self)
        self._pipeline = None
        self._initialized = False

    # ------------------------------------------------------------------
    # Scheduler plumbing shared with the pipelined scheduler
    # ------------------------------------------------------------------
    @property
    def tickets(self) -> TicketBook:
        """The deployment's pending-ticket ledger."""
        return self._tickets

    @property
    def retry_controller(self) -> EpochRetryController:
        """The fault-tolerance controller consulted by every epoch."""
        return self._retry

    @property
    def injector(self) -> Optional[FaultInjector]:
        """The chaos injector, when a fault plan is attached."""
        return self._injector

    # ------------------------------------------------------------------
    # Initialization (Figure 23: shard objects by the keyed hash)
    # ------------------------------------------------------------------
    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Shard ``objects`` across subORAMs and load the partitions.

        Uses the Figure 23 oblivious sharding pipeline (fixed tagging
        scan, oblivious sort, boundary scan) so initialization leaks only
        the public partition sizes.
        """
        require(
            all(key >= 0 for key in objects),
            "object keys must be non-negative (negative ids are reserved "
            "for dummies)",
        )
        partitions = oblivious_shard(
            objects, self.config.num_suborams, self.keychain.sharding_key(),
            kernel=self.config.kernel,
        )
        for suboram, partition in zip(self.suborams, partitions):
            suboram.initialize(partition)
        self._initialized = True

    @property
    def num_objects(self) -> int:
        """Total number of stored objects across all subORAMs."""
        return sum(s.num_objects for s in self.suborams)

    @property
    def partition_sizes(self) -> List[int]:
        """Number of objects per subORAM (public information)."""
        return [s.num_objects for s in self.suborams]

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(
        self,
        requests: Union[Request, Batch],
        load_balancer: Optional[int] = None,
    ) -> Ticket:
        """Queue a request, or a chunk of rows, on one load balancer.

        Clients pick a random load balancer by default; a chunk's rows
        all go to the one balancer drawn for it.

        Args:
            requests: one :class:`~repro.types.Request`, or a
                :class:`~repro.oblivious.soa.Batch` of requests (the
                rows of one sealed record of REQUEST frames, on the TCP
                front door) queued contiguously under one intake lock.
            load_balancer: the balancer index, or ``None`` for random.

        Returns:
            A :class:`~repro.core.tickets.Ticket` naming where the rows
            went (``.load_balancer``, ``.arrival`` — the coordinates
            linearizability histories are built from) and resolving to
            their :class:`~repro.types.Response` objects when the epoch
            closes (``.result()``), with
            :meth:`~repro.core.tickets.Ticket.add_done_callback` for
            asynchronous completion.

        Raises:
            CapacityError: a payload that is not ``config.value_size``
                bytes or a key outside int64; nothing is queued.

        While a pipeline is active (:meth:`start_pipeline`) the submit
        is routed through it — fully non-blocking; the ticket resolves
        when the pipeline's match thread closes the request's epoch.
        """
        request = requests if isinstance(requests, Request) else None
        rows = requests
        if request is not None:
            rows = Batch.from_requests([request], self.config.value_size)
        if load_balancer is None:
            load_balancer = self._rng.randrange(self.config.num_load_balancers)
        if self._pipeline is not None and self._pipeline.active:
            return self._pipeline.submit(rows, load_balancer, request)
        arrival = self.load_balancers[load_balancer].submit(rows)
        self.telemetry.counter("snoopy_requests_total").inc(len(rows))
        return self._tickets.issue(load_balancer, arrival, len(rows), request)

    # ------------------------------------------------------------------
    # Pipelined epoch scheduling (§6)
    # ------------------------------------------------------------------
    def start_pipeline(
        self,
        depth: Optional[int] = None,
        clock: bool = True,
        epoch_duration: Optional[float] = None,
    ):
        """Switch to the pipelined epoch scheduler (§6).

        Launches an :class:`~repro.core.pipeline.EpochPipeline` whose
        stage threads overlap the build of epoch ``e+1`` with the
        execute of ``e`` and the match of ``e-1`` over this deployment's
        execution backend.  While the pipeline is active, :meth:`submit`
        routes through it (non-blocking) and :meth:`run_epoch` is
        unavailable; stop the pipeline (``pipeline.stop()`` or the
        context manager) to return to inline scheduling.

        Args:
            depth: max in-flight epochs (default
                ``config.pipeline_depth``).
            clock: run the background epoch clock (default).  Pass
                ``False`` for manual ``pipeline.close_epoch()`` pacing —
                what tests and benchmarks use for deterministic epoch
                composition.
            epoch_duration: clock period override in seconds (default
                ``config.epoch_duration``).

        Returns:
            The running :class:`~repro.core.pipeline.EpochPipeline`
            (also a context manager that stops itself on exit).

        Raises:
            NotInitializedError: ``initialize`` has not been called.
            ConfigurationError: a pipeline is already active.
        """
        from repro.core.pipeline import EpochPipeline

        if not self._initialized:
            raise NotInitializedError("Snoopy.initialize must be called first")
        if self._pipeline is not None and self._pipeline.active:
            raise ConfigurationError(
                "an epoch pipeline is already active; stop it before "
                "starting another"
            )
        period = None
        if clock:
            period = (
                epoch_duration
                if epoch_duration is not None
                else self.config.epoch_duration
            )
        self._pipeline = EpochPipeline(
            self, depth=depth, clock_period=period
        ).start()
        return self._pipeline

    @property
    def pipeline(self):
        """The current :class:`~repro.core.pipeline.EpochPipeline` (or None).

        Kept after ``stop()`` so stats/occupancy stay inspectable; check
        ``pipeline.active`` for whether it is still scheduling.
        """
        return self._pipeline

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def run_epoch(self, permissions=None) -> List[Response]:
        """Run one epoch inline: close, build, execute, match.

        Returns all responses, flattened in balancer then arrival order
        (``[]``, with no counter touched, when nothing is queued).
        SubORAMs execute the load balancers' batches in fixed balancer
        order; each batch is processed in its own linear scan with a fresh
        hash-table key (§4.3: with L balancers each subORAM performs L
        scans per epoch).  The configured execution backend decides how
        much of that work overlaps; see :mod:`repro.core.epoch`.

        A failed execute attempt (worker crash, task timeout, transport
        fault) installs no subORAM state and — when
        ``config.epoch_max_attempts`` allows — is retried at once, in
        place on the already-built batches.  Exhausted retries (and
        non-retryable failures such as security aborts) roll the epoch
        back and re-raise the underlying error; the requests stay
        queued, their tickets pending, for a later ``run_epoch``.

        Args:
            permissions: optional §D access-control bits,
                ``{(client_id, seq): 0/1}``; used by
                :class:`repro.core.access_control.AccessControlledStore`.

        Raises:
            NotInitializedError: ``initialize`` has not been called.
            ConfigurationError: a pipeline is active — the pipelined and
                inline schedulers cannot share the epoch counter.
        """
        if not self._initialized:
            raise NotInitializedError(
                f"{type(self).__name__}.initialize must be called first"
            )
        if self._pipeline is not None and self._pipeline.active:
            raise ConfigurationError(
                "run_epoch is unavailable while the epoch pipeline is "
                "active; use pipeline.close_epoch()/flush(), or stop the "
                "pipeline first"
            )
        job = self.epochs.close(permissions)
        if job is None:
            return []
        try:
            with self.telemetry.span("epoch", epoch=job.epoch):
                self.epochs.build(job)
                self.epochs.execute(job)
                self.epochs.match(job)
        except BaseException:
            self.epochs.rollback([job])
            raise
        return [
            response for rows in job.responses
            for response in rows.responses()
        ]

    @property
    def fault_stats(self) -> Dict[str, int]:
        """Fault-tolerance counters (public information).

        Controller counters (``epochs_failed``, ``epochs_retried``,
        ``replicas_recovered``) plus, when a fault plan is attached, the
        injector's fired-event counters, one per
        :data:`~repro.core.faults.FAULT_KINDS` counter
        (``worker_crashes`` ... ``net_slow_handshakes``).
        """
        return self._retry.fault_stats

    def close(self) -> None:
        """Release the execution backend's workers (no-op for serial).

        Stops an active pipeline first (flushing in-flight epochs; a
        poisoned pipeline's stored error stays retrievable via
        ``pipeline.error``, and a fatal error raised by that final flush
        propagates after the backend is released).
        """
        try:
            if self._pipeline is not None and self._pipeline.active:
                self._pipeline.stop()
        finally:
            self.backend.close()

    def __enter__(self) -> "Snoopy":
        """Context-manager entry: returns self."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: closes the execution backend."""
        self.close()

    # ------------------------------------------------------------------
    # One-shot conveniences (single-request epochs)
    # ------------------------------------------------------------------
    def read(self, key: int) -> Optional[bytes]:
        """Read one object in its own epoch."""
        ticket = self.submit(Request(OpType.READ, key))
        self.run_epoch()
        return ticket.result().value

    def write(self, key: int, value: bytes) -> Optional[bytes]:
        """Write one object in its own epoch; returns the prior value."""
        ticket = self.submit(Request(OpType.WRITE, key, value))
        self.run_epoch()
        return ticket.result().value

    def batch(self, requests: Sequence[Request]) -> List[Response]:
        """Submit a set of requests (random balancers) and run one epoch."""
        for request in requests:
            self.submit(request)
        return self.run_epoch()


def _default_suboram_factory(suboram_id: int, config: SnoopyConfig,
                             keychain: KeyChain) -> SubOram:
    """The paper's throughput-optimized linear-scan subORAM (§5)."""
    return SubOram(
        suboram_id=suboram_id,
        value_size=config.value_size,
        keychain=keychain,
        security_parameter=config.security_parameter,
        kernel=config.kernel,
        crypto=config.crypto,
    )


def _replicated_suboram_factory(suboram_id: int, config: SnoopyConfig,
                                keychain: KeyChain):
    """§9 quorum-replicated subORAM groups (``config.replication=(f, r)``)."""
    # Lazy import: repro.extensions pulls in the simulator, which imports
    # this module — a top-level import would be circular.
    from repro.extensions.replication import ReplicatedSubOram

    crash_tolerance, rollback_tolerance = config.replication
    return ReplicatedSubOram(
        suboram_id=suboram_id,
        value_size=config.value_size,
        crash_tolerance=crash_tolerance,
        rollback_tolerance=rollback_tolerance,
        keychain=keychain,
        security_parameter=config.security_parameter,
        kernel=config.kernel,
        crypto=config.crypto,
    )
