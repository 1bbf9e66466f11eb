"""Deterministic chaos layer: one seeded fault plan and its injector.

Fault tolerance code is only trustworthy if its failure paths are
exercised, and failure paths are only debuggable if the failures are
reproducible.  A :class:`FaultPlan` is a *seeded, deterministic*
schedule of infrastructure faults: the same seed always produces the
same plan, so a chaos run that fails in CI replays identically on a
laptop (``python -m repro demo --faults SEED``, ``python -m repro
chaos-net --seed SEED``).  One plan serves two seams, each with its own
event record because the two index faults differently:

* the **epoch seam** — :class:`FaultEvent` at an (epoch, unit)
  coordinate.  :meth:`~repro.core.epoch.EpochDriver.run_execute` arms
  the unit :meth:`FaultInjector.stage_fault` names to raise
  :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.TaskTimeoutError`;
  :class:`~repro.core.deployment.DistributedSnoopy` raises
  :class:`~repro.errors.TransportError` for the hop
  :meth:`FaultInjector.transport_fault` names; both deployments apply
  :meth:`FaultInjector.replica_faults` at epoch boundaries.
* the **link seam** — :class:`NetFaultEvent` at a (link, N-th
  operation) coordinate: connection drops, frame delays, partitions,
  truncated and duplicated frames, slow-loris handshakes.
  :class:`repro.serve.secure.FrameTransport` and
  :func:`~repro.serve.secure.connect_transport`, which every serve-layer
  connection crosses, consult :meth:`FaultInjector.on_send` /
  :meth:`FaultInjector.on_connect`.

Security note (mirrors the paper's §2.1 public-information model): a
fault plan describes *public* events — which machine failed and when is
exactly what a cloud attacker already observes and controls.  Injection
never consults request contents or keys, failure handling is a function
of the fault kind alone, and the access-pattern traces of the epochs
that do complete are byte-identical to a fault-free run
(``tests/test_chaos.py`` asserts this).

:class:`FaultInjector` is the runtime cursor over a plan: it hands out
each event exactly once (an execute attempt retried in place does not
re-fire a consumed event) and counts every fired event in
:attr:`FaultInjector.stats`, keyed like :meth:`FaultPlan.counts`, so
exact accounting always reads ``injector.stats == plan.counts()``.
Deployments expose the counters as ``fault_stats``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import TransportError
from repro.telemetry import resolve_telemetry
from repro.utils.validation import require

#: Every fault kind a plan may schedule, and the ``stats`` counter each
#: feeds: the epoch kinds, then the link kinds.
FAULT_KINDS: Dict[str, str] = {
    "worker_crash": "worker_crashes",
    "task_timeout": "tasks_timed_out",
    "replica_crash": "replica_crashes",
    "replica_rollback": "replica_rollbacks",
    "transport_error": "transport_errors",
    "conn_drop": "net_conn_drops",
    "frame_delay": "net_frame_delays",
    "partition": "net_partitions",
    "frame_truncate": "net_frames_truncated",
    "frame_duplicate": "net_frames_duplicated",
    "slow_handshake": "net_slow_handshakes",
}
_EPOCH_KINDS = tuple(FAULT_KINDS)[:5]
_LINK_KINDS = tuple(FAULT_KINDS)[5:]
#: Link kinds fire at a frame send, except ``slow_handshake``: at a connect.
_CONNECT_KINDS = ("slow_handshake",)
_SEND_KINDS = tuple(k for k in _LINK_KINDS if k not in _CONNECT_KINDS)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One epoch-seam fault: *kind* at epoch *epoch*, unit *unit*.

    Attributes:
        epoch: 1-based deployment epoch the fault fires in (the trusted
            counter's value at its close, under either scheduler;
            retried attempts of an epoch share its number).
        kind: one of the epoch kinds of :data:`FAULT_KINDS`.
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
        require(self.kind in _EPOCH_KINDS,
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(_EPOCH_KINDS)}")
        require(self.epoch >= 1, "fault epoch must be >= 1 (1-based)")
        require(self.unit >= 0, "fault unit must be >= 0")
        require(self.replica >= 0, "fault replica must be >= 0")


@dataclass(frozen=True, order=True)
class NetFaultEvent:
    """One link-seam fault on one link.

    Unlike :class:`FaultEvent` (epoch-indexed, because backend faults
    fire inside epoch execution), network faults are *message-indexed*:
    the coordinate is (link, N-th operation on that link), which is
    deterministic regardless of how requests interleave with epochs.

    Attributes:
        link: the transport link name (``"client"``, ``"worker-2"`` ...).
        message: 1-based operation index on the link.  For
            ``slow_handshake`` this counts connect attempts; for every
            other kind it counts frame sends.
        kind: one of the link kinds of :data:`FAULT_KINDS`.
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
        require(self.kind in _LINK_KINDS,
                f"unknown network fault kind {self.kind!r}; "
                f"expected one of {sorted(_LINK_KINDS)}")
        require(self.message >= 1, "fault message index must be >= 1 (1-based)")
        require(self.delay_s >= 0.0, "fault delay must be >= 0")
        require(self.span >= 0, "partition span must be >= 0")


_Event = Union[FaultEvent, NetFaultEvent]


class FaultPlan:
    """An immutable, ordered schedule of epoch and link fault events.

    Build one explicitly for targeted tests, or derive one from a seed
    with :meth:`generate` for soak runs::

        plan = FaultPlan([
            FaultEvent(epoch=2, kind="worker_crash", unit=1),
            NetFaultEvent(link="client", message=3, kind="conn_drop"),
        ])
        store = Snoopy(config, fault_plan=plan)
    """

    def __init__(self, events: Iterable[_Event] = ()):
        # Epoch events first; each record type sorts by its own fields.
        self.events: Tuple[_Event, ...] = tuple(sorted(
            events, key=lambda event: (isinstance(event, NetFaultEvent), event)
        ))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def counts(self) -> Dict[str, int]:
        """Scheduled events per :data:`FAULT_KINDS` counter, zero-filled
        over the whole table: what the injector's ``stats`` must reach."""
        counts = dict.fromkeys(FAULT_KINDS.values(), 0)
        for event in self.events:
            counts[FAULT_KINDS[event.kind]] += 1
        return counts

    @classmethod
    def generate(
        cls,
        seed: int,
        epochs: int = 0,
        num_suborams: int = 0,
        num_replicas: int = 0,
        with_transport: bool = False,
        intensity: int = 1,
        *,
        links: Iterable[str] = (),
        messages: int = 0,
        kinds: Optional[Iterable[str]] = None,
        max_delay_s: float = 0.02,
        partition_span: int = 2,
    ) -> "FaultPlan":
        """Derive a deterministic plan from a seed (the chaos-soak entry).

        Schedules ``intensity`` events of each applicable kind, drawing
        from one ``random.Random(seed)`` — epoch kinds first, then link
        kinds:

        * **Epoch kinds**, when ``epochs`` is given, at pseudo-random
          (epoch, unit) coordinates, never two on one (epoch, unit,
          kind).  Replica faults need ``num_replicas >= 2`` (a rollback
          needs a fresh peer to detect it against), transport faults
          ``with_transport`` (the in-process deployment has no network
          hop to fail).
        * **Link kinds**, when ``links`` is given: each of ``kinds``
          (default: every link kind) at a pseudo-random (link,
          message) coordinate, ``message <= messages``, never two on one
          coordinate.  ``slow_handshake`` always targets connect attempt
          1 (the only one guaranteed to happen), at most once per link.
          Pick ``messages`` at or below the frame sends the quietest
          link performs fault-free: drops and partitions only ever *add*
          sends.

        Under those contracts every scheduled event fires, so the
        injector's ``stats`` after the run equal :meth:`counts` exactly.
        """
        links = list(links)
        require(epochs >= 1 or bool(links),
                "generate needs epochs (epoch kinds) or links (link kinds)")
        require(intensity >= 0, "intensity must be >= 0")
        rng = random.Random(seed)
        events: List[_Event] = []
        if epochs:
            require(num_suborams >= 1, "num_suborams must be >= 1")
            epoch_kinds = ["worker_crash", "task_timeout"]
            if with_transport:
                epoch_kinds.append("transport_error")
            if num_replicas >= 2:
                epoch_kinds.extend(["replica_crash", "replica_rollback"])
            used = set()
            for kind in epoch_kinds:
                # Rollbacks need a follow-up epoch in which the stale
                # reply is detected, so keep them off the last epoch.
                last = epochs - 1 if kind == "replica_rollback" else epochs
                for _ in range(intensity):
                    for _attempt in range(64):
                        if last < 1:
                            break
                        epoch = rng.randrange(1, last + 1)
                        unit = rng.randrange(num_suborams)
                        if (epoch, unit, kind) not in used:
                            used.add((epoch, unit, kind))
                            replica = (rng.randrange(num_replicas)
                                       if kind.startswith("replica") else 0)
                            events.append(FaultEvent(epoch, kind, unit,
                                                     replica))
                            break
        if links:
            require(messages >= 1, "messages must be >= 1")
            used = set()
            slow_links = set()
            for kind in (_LINK_KINDS if kinds is None else kinds):
                for _ in range(intensity):
                    if kind in _CONNECT_KINDS:
                        free = [l for l in links if l not in slow_links]
                        if not free:
                            break
                        link = free[rng.randrange(len(free))]
                        slow_links.add(link)
                        events.append(NetFaultEvent(
                            link, 1, kind,
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
                            link, message, kind,
                            delay_s=(rng.uniform(0.001, max_delay_s)
                                     if kind == "frame_delay" else 0.0),
                            span=(partition_span if kind == "partition"
                                  else 1),
                        ))
                        break
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({list(self.events)!r})"


class FaultInjector:
    """Runtime cursor over a :class:`FaultPlan`, for both seams.

    The deployment calls :meth:`begin_epoch` once per user-visible epoch
    (retry attempts share the epoch number) and the epoch seam fires
    events through :meth:`take`; every transport of a serve-layer run shares
    the injector and reports its link name to :meth:`on_connect` /
    :meth:`on_send`.  Each event fires **at most once** — a retried
    epoch does not replay the fault that failed it, which is what makes
    a finite fault plan terminate.

    Thread-safe: one lock guards all cursor state, because stage-➋
    units on the thread backend probe :meth:`transport_fault`
    concurrently and distinct links are driven from distinct threads.

    The injector *sleeps* for ``frame_delay`` itself, *raises*
    :class:`~repro.errors.TransportError` for partition refusals, and
    hands every other link event back to the calling transport, which
    owns the socket and applies the drop/truncate/duplicate/dribble.

    Attributes:
        armed: while False, neither seam counts operations nor fires
            events — setup traffic (worker INIT, snapshot seeding)
            passes untouched, and message indices align to steady-state
            serving from the moment the caller flips it to True.
        stats: fired-event counters, keyed like :meth:`FaultPlan.counts`.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, telemetry=None,
                 sleep: Callable[[float], None] = time.sleep,
                 armed: bool = True):
        self.plan = plan if plan is not None else FaultPlan()
        self.armed = armed
        self._pending: List[_Event] = list(self.plan.events)
        self._epoch = 0
        self._sends: Dict[str, int] = {}
        self._connects: Dict[str, int] = {}
        self._partition_left: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._sleep = sleep
        self.telemetry = resolve_telemetry(telemetry)
        self.stats: Dict[str, int] = dict.fromkeys(FAULT_KINDS.values(), 0)

    @property
    def epoch(self) -> int:
        """The current (1-based) deployment epoch."""
        return self._epoch

    @property
    def pending(self) -> List[_Event]:
        """Events that have not fired yet (inspection/testing)."""
        return list(self._pending)

    @property
    def exhausted(self) -> bool:
        """True once every event has fired and no partition is in force.

        An exhausted injector can never fail another epoch, so the
        deployment drops back to the zero-copy fail-fast hot path (see
        :attr:`~repro.core.resilience.EpochRetryController.armed`).
        """
        return not self._pending and not any(self._partition_left.values())

    def _fire(self, kinds: Tuple[str, ...],
              match: Callable[[_Event], bool]) -> Optional[_Event]:
        """Consume and count the first pending event of ``kinds`` for
        which ``match`` holds (lock held)."""
        for index, event in enumerate(self._pending):
            if event.kind in kinds and match(event):
                del self._pending[index]
                self.stats[FAULT_KINDS[event.kind]] += 1
                self.telemetry.counter(
                    "fault_injected_total", kind=event.kind
                ).inc()
                return event
        return None

    def begin_epoch(self, epoch: int) -> None:
        """Advance the injector to a new deployment epoch."""
        with self._lock:
            self._epoch = epoch

    def take(self, kind: str, unit: Optional[int] = None) -> Optional[FaultEvent]:
        """Fire (and consume) the next matching epoch event, or ``None``.

        Matching is by kind, the current epoch, and — when given — the
        unit index.
        """
        if not self.armed:
            return None
        with self._lock:
            return self._fire((kind,), lambda event: (
                event.epoch == self._epoch
                and (unit is None or event.unit == unit)
            ))

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

    def _next_op(self, link: str, ops: Dict[str, int],
                 kinds: Tuple[str, ...]) -> Optional[NetFaultEvent]:
        """Refuse while ``link`` is partitioned, else count one operation
        on it and fire the event due there (lock held)."""
        left = self._partition_left.get(link, 0)
        if left > 0:
            self._partition_left[link] = left - 1
            raise TransportError(
                f"injected fault: link {link!r} is partitioned"
            )
        ops[link] = message = ops.get(link, 0) + 1
        return self._fire(kinds, lambda event: (
            event.link == link and event.message == message
        ))

    def on_connect(self, link: str) -> Optional[NetFaultEvent]:
        """Consult the plan before a connect attempt on ``link``.

        Raises :class:`~repro.errors.TransportError` while a partition
        is in force.  Returns a ``slow_handshake`` event (the caller
        dribbles its hello with ``delay_s`` pauses) or ``None``.
        """
        if not self.armed:
            return None
        with self._lock:
            return self._next_op(link, self._connects, _CONNECT_KINDS)

    def on_send(self, link: str) -> Optional[NetFaultEvent]:
        """Consult the plan before sending one frame on ``link``.

        Applies ``frame_delay`` (sleeps) and ``partition`` (marks the
        link down and raises :class:`~repro.errors.TransportError`)
        internally; returns ``conn_drop`` / ``frame_truncate`` /
        ``frame_duplicate`` events for the transport to apply, or
        ``None`` for a clean send.
        """
        if not self.armed:
            return None
        with self._lock:
            event = self._next_op(link, self._sends, _SEND_KINDS)
            if event is not None and event.kind == "partition":
                self._partition_left[link] = event.span
                raise TransportError(
                    f"injected fault: link {link!r} partitioned for "
                    f"{event.span} further operations"
                )
        if event is not None and event.kind == "frame_delay":
            if event.delay_s:
                self._sleep(event.delay_s)
            return None
        return event
