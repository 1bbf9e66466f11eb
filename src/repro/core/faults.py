"""Deterministic chaos layer: seeded fault plans and their injector.

Fault tolerance code is only trustworthy if its failure paths are
exercised, and failure paths are only debuggable if the failures are
reproducible.  A :class:`FaultPlan` is a *seeded, deterministic* schedule
of infrastructure faults — worker crashes, task timeouts, replica
crashes and rollbacks, transport errors — each pinned to an (epoch,
unit) coordinate.  The same seed always produces the same plan, so a
chaos run that fails in CI replays identically on a laptop
(``python -m repro demo --faults SEED``).

The plan is injected through the two seams the system already has:

* the **backend seam** — :meth:`~repro.core.epoch.EpochDriver.run_execute`
  consults the injector when building each attempt's stage-➋ tasks and
  arms the scheduled unit to raise :class:`~repro.errors.WorkerCrashError`
  / :class:`~repro.errors.TaskTimeoutError`;
* the **transport seam** — :class:`~repro.core.deployment.DistributedSnoopy`
  consults it inside the sealed-channel round trip and raises
  :class:`~repro.errors.TransportError` for the scheduled hop, while both
  deployments apply replica crash/rollback events at epoch boundaries.

The serve layer's real TCP sockets get their own message-indexed chaos
vocabulary — :class:`NetworkFaultPlan` / :class:`NetworkFaultInjector`
(connection drops, frame delays, partitions, truncated and duplicated
frames, slow-loris handshakes) — injected inside
:class:`repro.serve.secure.FrameTransport`, the seam every serve-layer
connection already crosses.

Security note (mirrors the paper's §2.1 public-information model): a
fault plan describes *public* events — which machine failed and when is
exactly what a cloud attacker already observes and controls.  Injection
never consults request contents or keys, failure handling is a function
of the fault kind alone, and the access-pattern traces of the epochs
that do complete are byte-identical to a fault-free run
(``tests/test_chaos.py`` asserts this).

:class:`FaultInjector` is the runtime cursor over a plan: it tracks the
deployment's current epoch, hands out each event exactly once (an
execute attempt retried in place does not re-fire a consumed event), and
counts every fired
event in :attr:`FaultInjector.stats` — the substrate of the deployment's
``fault_stats`` surface.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.utils.validation import require

#: Fault kinds a plan may schedule, and the ``stats`` counter each feeds.
FAULT_KINDS: Dict[str, str] = {
    "worker_crash": "worker_crashes",
    "task_timeout": "tasks_timed_out",
    "replica_crash": "replica_crashes",
    "replica_rollback": "replica_rollbacks",
    "transport_error": "transport_errors",
}


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault: *kind* at epoch *epoch*, unit *unit*.

    Attributes:
        epoch: 1-based deployment epoch the fault fires in (the trusted
            counter's value at its close, under either scheduler;
            retried attempts of an epoch share its number).
        kind: one of :data:`FAULT_KINDS`.
        unit: the stage unit hit — subORAM index for worker/timeout/
            transport/replica faults.
        replica: replica index within the unit's group, for
            ``replica_crash`` / ``replica_rollback``.
    """

    epoch: int
    kind: str
    unit: int = 0
    replica: int = 0

    def __post_init__(self) -> None:
        require(self.kind in FAULT_KINDS,
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}")
        require(self.epoch >= 1, "fault epoch must be >= 1 (1-based)")
        require(self.unit >= 0, "fault unit must be >= 0")
        require(self.replica >= 0, "fault replica must be >= 0")


class FaultPlan:
    """An immutable, ordered schedule of :class:`FaultEvent`.

    Build one explicitly for targeted tests, or derive one from a seed
    with :meth:`generate` for soak runs::

        plan = FaultPlan([
            FaultEvent(epoch=2, kind="worker_crash", unit=1),
            FaultEvent(epoch=4, kind="task_timeout", unit=0),
        ])
        store = Snoopy(config, fault_plan=plan)
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: Tuple[FaultEvent, ...] = tuple(sorted(events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def for_epoch(self, epoch: int) -> List[FaultEvent]:
        """All events scheduled for one epoch, in deterministic order."""
        return [event for event in self.events if event.epoch == epoch]

    def counts(self) -> Dict[str, int]:
        """Scheduled events per kind (what ``fault_stats`` should reach)."""
        counts = {kind: 0 for kind in FAULT_KINDS}
        for event in self.events:
            counts[event.kind] += 1
        return counts

    @classmethod
    def generate(
        cls,
        seed: int,
        epochs: int,
        num_suborams: int,
        num_replicas: int = 0,
        with_transport: bool = False,
        intensity: int = 1,
    ) -> "FaultPlan":
        """Derive a deterministic plan from a seed (the chaos-soak entry).

        Schedules ``intensity`` events of each applicable kind at
        pseudo-random (epoch, unit) coordinates drawn from
        ``random.Random(seed)``.  Replica faults are only generated when
        ``num_replicas >= 2`` (a rollback needs a fresh peer to detect it
        against), transport faults only when ``with_transport`` is set
        (the in-process deployment has no network hop to fail).

        Events never collide on the same (epoch, unit, kind) coordinate,
        so ``fault_stats`` after the run equals :meth:`counts` exactly.
        """
        require(epochs >= 1, "epochs must be >= 1")
        require(num_suborams >= 1, "num_suborams must be >= 1")
        require(intensity >= 0, "intensity must be >= 0")
        rng = random.Random(seed)
        kinds = ["worker_crash", "task_timeout"]
        if with_transport:
            kinds.append("transport_error")
        if num_replicas >= 2:
            kinds.extend(["replica_crash", "replica_rollback"])
        events: List[FaultEvent] = []
        used = set()
        for kind in kinds:
            for _ in range(intensity):
                for _attempt in range(64):
                    # Rollbacks need a follow-up epoch in which the stale
                    # reply is detected, so keep them off the last epoch.
                    last = epochs - 1 if kind == "replica_rollback" else epochs
                    if last < 1:
                        break
                    epoch = rng.randrange(1, last + 1)
                    unit = rng.randrange(num_suborams)
                    if (epoch, unit, kind) not in used:
                        used.add((epoch, unit, kind))
                        replica = (
                            rng.randrange(num_replicas)
                            if kind.startswith("replica")
                            else 0
                        )
                        events.append(
                            FaultEvent(epoch=epoch, kind=kind, unit=unit,
                                       replica=replica)
                        )
                        break
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({list(self.events)!r})"


class FaultInjector:
    """Runtime cursor over a :class:`FaultPlan` plus fired-event counters.

    The deployment calls :meth:`begin_epoch` once per user-visible epoch
    (retry attempts share the epoch number); the driver and transport
    seams then :meth:`take` events, each of which fires **at most once**
    — a retried epoch does not replay the fault that failed it, which is
    what makes a finite fault plan terminate.

    Attributes:
        stats: fired-event counters, keyed by the :data:`FAULT_KINDS`
            counter names (``worker_crashes``, ``tasks_timed_out``, ...).
    """

    def __init__(self, plan: Optional[FaultPlan] = None, telemetry=None):
        # Local import: repro.telemetry is dependency-free, but keeping
        # the import here mirrors how deployments attach the handle late.
        from repro.telemetry import resolve_telemetry

        self.plan = plan if plan is not None else FaultPlan()
        self._pending: List[FaultEvent] = list(self.plan.events)
        self._epoch = 0
        self.telemetry = resolve_telemetry(telemetry)
        self.stats: Dict[str, int] = {
            counter: 0 for counter in FAULT_KINDS.values()
        }

    @property
    def epoch(self) -> int:
        """The current (1-based) deployment epoch."""
        return self._epoch

    @property
    def pending(self) -> List[FaultEvent]:
        """Events that have not fired yet (inspection/testing)."""
        return list(self._pending)

    @property
    def exhausted(self) -> bool:
        """True once every scheduled event has fired.

        An exhausted injector can never fail another epoch, so the
        deployment drops back to the zero-copy fail-fast hot path (see
        :attr:`~repro.core.resilience.EpochRetryController.armed`).
        """
        return not self._pending

    def begin_epoch(self, epoch: int) -> None:
        """Advance the injector to a new deployment epoch."""
        self._epoch = epoch

    def take(self, kind: str, unit: Optional[int] = None) -> Optional[FaultEvent]:
        """Fire (and consume) the next matching event for this epoch.

        Returns the event, or ``None`` when nothing matching is
        scheduled.  Matching is by kind, the current epoch, and — when
        given — the unit index.
        """
        for index, event in enumerate(self._pending):
            if event.kind != kind or event.epoch != self._epoch:
                continue
            if unit is not None and event.unit != unit:
                continue
            del self._pending[index]
            self.stats[FAULT_KINDS[kind]] += 1
            self.telemetry.counter("fault_injected_total", kind=kind).inc()
            return event
        return None

    def stage_fault(self, unit: int) -> Optional[str]:
        """Backend-seam probe: fault kind armed for stage-➋ unit ``unit``.

        Consumed on return; the epoch driver embeds the kind into the
        unit's task so the fault fires inside the executing worker.
        """
        for kind in ("worker_crash", "task_timeout"):
            if self.take(kind, unit=unit) is not None:
                return kind
        return None

    def transport_fault(self, unit: int) -> bool:
        """Transport-seam probe: should this hop fail with TransportError?"""
        return self.take("transport_error", unit=unit) is not None

    def replica_faults(self, kind: str) -> List[FaultEvent]:
        """Fire every ``replica_crash``/``replica_rollback`` event due now."""
        require(kind in ("replica_crash", "replica_rollback"),
                "replica_faults takes a replica fault kind")
        fired = []
        while True:
            event = self.take(kind)
            if event is None:
                return fired
            fired.append(event)


# ---------------------------------------------------------------------------
# Network chaos (the serve-layer transport seam)
# ---------------------------------------------------------------------------
#: Network fault kinds a plan may schedule, and their ``stats`` counters.
NET_FAULT_KINDS: Dict[str, str] = {
    "conn_drop": "net_conn_drops",
    "frame_delay": "net_frame_delays",
    "partition": "net_partitions",
    "frame_truncate": "net_frames_truncated",
    "frame_duplicate": "net_frames_duplicated",
    "slow_handshake": "net_slow_handshakes",
}

#: Kinds that fire at a connect attempt (the rest fire at a frame send).
_NET_CONNECT_KINDS = frozenset(("slow_handshake",))


@dataclass(frozen=True, order=True)
class NetFaultEvent:
    """One scheduled network fault on one link.

    Unlike :class:`FaultEvent` (epoch-indexed, because backend faults
    fire inside epoch execution), network faults are *message-indexed*:
    the coordinate is (link, N-th operation on that link), which is
    deterministic regardless of how requests interleave with epochs.

    Attributes:
        link: the transport link name (``"client"``, ``"worker-2"`` ...).
        message: 1-based operation index on the link.  For
            ``slow_handshake`` this counts connect attempts; for every
            other kind it counts frame sends.
        kind: one of :data:`NET_FAULT_KINDS`.
        delay_s: sleep applied for ``frame_delay`` / per-fragment dribble
            for ``slow_handshake``.
        span: for ``partition`` — how many *further* operations (sends
            or connects) on the link are refused after the triggering
            one.
    """

    link: str
    message: int
    kind: str
    delay_s: float = 0.0
    span: int = 1

    def __post_init__(self) -> None:
        require(self.kind in NET_FAULT_KINDS,
                f"unknown network fault kind {self.kind!r}; "
                f"expected one of {sorted(NET_FAULT_KINDS)}")
        require(self.message >= 1, "fault message index must be >= 1 (1-based)")
        require(self.delay_s >= 0.0, "fault delay must be >= 0")
        require(self.span >= 0, "partition span must be >= 0")


class NetworkFaultPlan:
    """An immutable, seeded schedule of :class:`NetFaultEvent`.

    The same no-collision guarantee as :class:`FaultPlan` holds: at most
    one event per (link, message, op-class) coordinate, so — provided
    every link sees at least as many operations as its largest scheduled
    ``message`` index — a run's injector ``stats`` equal
    :meth:`counts` exactly.
    """

    def __init__(self, events: Iterable[NetFaultEvent] = ()):
        self.events: Tuple[NetFaultEvent, ...] = tuple(sorted(events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def for_link(self, link: str) -> List[NetFaultEvent]:
        """All events scheduled for one link, in message order."""
        return [event for event in self.events if event.link == link]

    def counts(self) -> Dict[str, int]:
        """Scheduled events per kind (what injector ``stats`` must reach)."""
        counts = {kind: 0 for kind in NET_FAULT_KINDS}
        for event in self.events:
            counts[event.kind] += 1
        return counts

    @classmethod
    def generate(
        cls,
        seed: int,
        links: Iterable[str],
        messages: int,
        intensity: int = 1,
        kinds: Optional[Iterable[str]] = None,
        max_delay_s: float = 0.02,
        partition_span: int = 2,
    ) -> "NetworkFaultPlan":
        """Derive a deterministic network fault plan from a seed.

        Schedules ``intensity`` events of each kind in ``kinds`` (default:
        every send-indexed kind) at pseudo-random (link, message)
        coordinates with ``message <= messages``.  ``slow_handshake``
        events always target connect attempt 1 (the only connect attempt
        guaranteed to happen on a link), at most one per link.

        Callers must pick ``messages`` at or below the number of frame
        sends the quietest link will actually perform — drops and
        partitions only ever *add* retransmissions, never remove sends,
        so the fault-free send count is a safe bound.  Under that
        contract every scheduled event fires and ``stats`` equals
        :meth:`counts` exactly.
        """
        links = list(links)
        require(bool(links), "links must be non-empty")
        require(messages >= 1, "messages must be >= 1")
        require(intensity >= 0, "intensity must be >= 0")
        if kinds is None:
            kinds = [k for k in NET_FAULT_KINDS if k not in _NET_CONNECT_KINDS]
        kinds = list(kinds)
        rng = random.Random(seed)
        events: List[NetFaultEvent] = []
        used = set()
        slow_links = set()
        for kind in kinds:
            for _ in range(intensity):
                if kind in _NET_CONNECT_KINDS:
                    free = [l for l in links if l not in slow_links]
                    if not free:
                        break
                    link = free[rng.randrange(len(free))]
                    slow_links.add(link)
                    events.append(NetFaultEvent(
                        link=link, message=1, kind=kind,
                        delay_s=rng.uniform(0.001, max_delay_s),
                    ))
                    continue
                for _attempt in range(64):
                    link = links[rng.randrange(len(links))]
                    message = rng.randrange(1, messages + 1)
                    if (link, message) in used:
                        continue
                    used.add((link, message))
                    events.append(NetFaultEvent(
                        link=link, message=message, kind=kind,
                        delay_s=(rng.uniform(0.001, max_delay_s)
                                 if kind == "frame_delay" else 0.0),
                        span=(partition_span if kind == "partition" else 1),
                    ))
                    break
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkFaultPlan({list(self.events)!r})"


class NetworkFaultInjector:
    """Runtime cursor over a :class:`NetworkFaultPlan`.

    Shared by every transport of one deployment run; each transport
    reports its link name.  Thread-safe: a single lock guards the
    pending-event list and per-link counters, because distinct links
    are driven from distinct threads (the client's sender vs the
    server-side worker channels) during a chaos soak.

    The injector *sleeps* for ``frame_delay`` itself, *raises*
    :class:`~repro.errors.TransportError` for partition refusals, and
    hands every other event back to the calling transport, which owns
    the socket and applies the drop/truncate/duplicate/dribble.

    Attributes:
        stats: fired-event counters, keyed by the
            :data:`NET_FAULT_KINDS` counter names.
    """

    def __init__(self, plan: Optional[NetworkFaultPlan] = None,
                 telemetry=None, sleep=time.sleep, armed: bool = True):
        from repro.telemetry import resolve_telemetry

        #: While False, ``on_send``/``on_connect`` neither count
        #: operations nor fire events — setup traffic (worker INIT,
        #: snapshot seeding) passes untouched, and the plan's
        #: message indices align to steady-state serving from the
        #: moment the harness flips this to True.
        self.armed = armed
        self.plan = plan if plan is not None else NetworkFaultPlan()
        self._pending: List[NetFaultEvent] = list(self.plan.events)
        self._sends: Dict[str, int] = {}
        self._connects: Dict[str, int] = {}
        self._partition_left: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._sleep = sleep
        self.telemetry = resolve_telemetry(telemetry)
        self.stats: Dict[str, int] = {
            counter: 0 for counter in NET_FAULT_KINDS.values()
        }

    @property
    def pending(self) -> List[NetFaultEvent]:
        """Events that have not fired yet (inspection/testing)."""
        return list(self._pending)

    @property
    def exhausted(self) -> bool:
        """True once every scheduled event has fired."""
        return not self._pending and not any(self._partition_left.values())

    def _count(self, event: NetFaultEvent) -> None:
        self.stats[NET_FAULT_KINDS[event.kind]] += 1
        self.telemetry.counter(
            "net_fault_injected_total", kind=event.kind
        ).inc()

    def _take(self, link: str, message: int, connect: bool) -> Optional[NetFaultEvent]:
        wanted = _NET_CONNECT_KINDS if connect else None
        for index, event in enumerate(self._pending):
            if event.link != link or event.message != message:
                continue
            is_connect_kind = event.kind in _NET_CONNECT_KINDS
            if is_connect_kind != connect:
                continue
            del self._pending[index]
            return event
        return None

    def _check_partition(self, link: str) -> None:
        from repro.errors import TransportError

        left = self._partition_left.get(link, 0)
        if left > 0:
            self._partition_left[link] = left - 1
            raise TransportError(
                f"injected fault: link {link!r} is partitioned"
            )

    def on_connect(self, link: str) -> Optional[NetFaultEvent]:
        """Consult the plan before a connect attempt on ``link``.

        Raises :class:`~repro.errors.TransportError` while a partition
        is in force.  Returns a ``slow_handshake`` event (the caller
        dribbles its hello with ``delay_s`` pauses) or ``None``.
        """
        if not self.armed:
            return None
        with self._lock:
            self._check_partition(link)
            self._connects[link] = self._connects.get(link, 0) + 1
            event = self._take(link, self._connects[link], connect=True)
            if event is not None:
                self._count(event)
            return event

    def on_send(self, link: str) -> Optional[NetFaultEvent]:
        """Consult the plan before sending one frame on ``link``.

        Applies ``frame_delay`` (sleeps) and ``partition`` (marks the
        link down and raises :class:`~repro.errors.TransportError`)
        internally; returns ``conn_drop`` / ``frame_truncate`` /
        ``frame_duplicate`` events for the transport to apply, or
        ``None`` for a clean send.
        """
        from repro.errors import TransportError

        if not self.armed:
            return None
        with self._lock:
            self._check_partition(link)
            self._sends[link] = self._sends.get(link, 0) + 1
            event = self._take(link, self._sends[link], connect=False)
            if event is None:
                return None
            self._count(event)
            if event.kind == "partition":
                self._partition_left[link] = event.span
                raise TransportError(
                    f"injected fault: link {link!r} partitioned for "
                    f"{event.span} further operations"
                )
        if event.kind == "frame_delay":
            if event.delay_s:
                self._sleep(event.delay_s)
            return None
        return event
