"""Fault tolerance and rollback protection for subORAMs (§9).

The paper's sketch: "use a quorum replication scheme to replicate data to
``f + r + 1`` nodes where ``f`` is the maximum number of nodes that can
fail by crashing and ``r`` the maximum number of nodes that can be
maliciously rolled back.  Systems like ROTE or SGX's monotonic counter
provide a trusted counter abstraction that can be used to detect which of
the received replies corresponds to the most recent epoch...  Snoopy only
invokes the trusted counter once per epoch."

``ReplicatedSubOram`` implements exactly that: every batch goes to all
reachable replicas; each reply is stamped with the replica's epoch; the
group's trusted counter (bumped once per batch) identifies fresh replies.
With at most ``f`` crashes and ``r`` rollbacks, at least one fresh reply
survives; fewer survivors than that raise loudly instead of serving stale
data.
"""

from __future__ import annotations

import contextlib
import copy
from typing import Dict, Optional

from repro.crypto.keys import KeyChain
from repro.enclave.sealed import MonotonicCounter
from repro.errors import ReproError, RollbackError
from repro.oblivious.soa import Batch
from repro.suboram.suboram import SubOram
from repro.utils.validation import require


class ReplicaUnavailableError(ReproError):
    """All replicas of a subORAM group are unreachable."""


class _Replica:
    """One replica: a subORAM plus its local (untrusted) epoch number."""

    def __init__(self, suboram: SubOram):
        self.suboram = suboram
        self.epoch = 0
        self.crashed = False

    def rollback_to(self, snapshot: "_ReplicaSnapshot") -> None:
        """Malicious host restores an old state (state + old epoch)."""
        self.suboram = snapshot.suboram
        self.epoch = snapshot.epoch


class _ReplicaSnapshot:
    def __init__(self, suboram: SubOram, epoch: int):
        self.suboram = suboram
        self.epoch = epoch


class ReplicatedSubOram:
    """A subORAM group tolerating ``f`` crashes and ``r`` rollbacks.

    The group size is ``f + r + 1``.  ``batch_access`` executes the batch
    on every live replica, bumps the trusted counter once, and returns the
    response of a replica whose epoch matches the counter.
    """

    def __init__(
        self,
        suboram_id: int,
        value_size: int,
        crash_tolerance: int = 1,
        rollback_tolerance: int = 1,
        keychain: Optional[KeyChain] = None,
        security_parameter: int = 32,
        kernel=None,
        crypto: Optional[str] = None,
    ):
        require(crash_tolerance >= 0, "crash_tolerance must be >= 0")
        require(rollback_tolerance >= 0, "rollback_tolerance must be >= 0")
        self.suboram_id = suboram_id
        self.crash_tolerance = crash_tolerance
        self.rollback_tolerance = rollback_tolerance
        self.counter = MonotonicCounter()
        keychain = keychain if keychain is not None else KeyChain()
        self.replicas = [
            _Replica(
                SubOram(
                    suboram_id,
                    value_size,
                    keychain,
                    security_parameter,
                    kernel=kernel,
                    crypto=crypto,
                )
            )
            for _ in range(crash_tolerance + rollback_tolerance + 1)
        ]

    @property
    def group_size(self) -> int:
        """Total replica count (f + r + 1)."""
        return len(self.replicas)

    @property
    def num_objects(self) -> int:
        """Object count of the partition (taken from a live replica)."""
        for replica in self.replicas:
            if not replica.crashed:
                return replica.suboram.num_objects
        return 0

    def peek(self, key: int) -> Optional[bytes]:
        """Non-oblivious debug read from the freshest live replica."""
        fresh = max(
            (r for r in self.replicas if not r.crashed),
            key=lambda r: r.epoch,
            default=None,
        )
        if fresh is None:
            raise ReplicaUnavailableError(
                f"subORAM group {self.suboram_id}: all replicas crashed"
            )
        return fresh.suboram.peek(key)

    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Load the partition contents onto every replica."""
        for replica in self.replicas:
            replica.suboram.initialize(dict(objects))

    # ------------------------------------------------------------------
    # Batch execution with freshness checking
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def epoch(self, batches: int):
        """One epoch session on every live replica (see ``SubOram.epoch``)."""
        with contextlib.ExitStack() as stack:
            for replica in self.replicas:
                if not replica.crashed:
                    stack.enter_context(replica.suboram.epoch(batches))
            yield self

    def batch_access(self, batch: Batch) -> Batch:
        """Execute on all live replicas; return a verified-fresh reply.

        Every replica is handed the same ``batch`` object (``batch_access``
        does not modify its argument).

        Raises:
            ReplicaUnavailableError: every replica has crashed.  The
                trusted counter is *not* advanced: no batch was served,
                so after ``recover_from_peer`` the group resumes with
                replica epochs still aligned to the counter.
            RollbackError: replies arrived but none matches the trusted
                counter epoch (more than ``r`` rollbacks — the guarantee
                is void and serving would return stale data).
        """
        # The counter increment commits only once a fresh reply is in
        # hand; incrementing up front would permanently desynchronize
        # ``expected_epoch`` from the replica epochs whenever every
        # replica was crashed (nothing executed, yet the counter moved).
        expected_epoch = self.counter.value + 1

        replies = []
        for replica in self.replicas:
            if replica.crashed:
                continue
            result = replica.suboram.batch_access(batch)
            replica.epoch += 1
            replies.append((replica.epoch, result))

        if not replies:
            raise ReplicaUnavailableError(
                f"subORAM group {self.suboram_id}: all "
                f"{self.group_size} replicas crashed"
            )
        for epoch, result in replies:
            if epoch == expected_epoch:
                self.counter.increment()
                return result
        raise RollbackError(
            f"subORAM group {self.suboram_id}: no reply matches trusted "
            f"epoch {expected_epoch} (stale epochs: "
            f"{sorted(e for e, _ in replies)})"
        )

    # ------------------------------------------------------------------
    # Fault injection (tests / chaos tooling)
    # ------------------------------------------------------------------
    def crash(self, index: int) -> None:
        """Fault injection: mark a replica as crashed."""
        self.replicas[index].crashed = True

    def recover_from_peer(self, index: int) -> None:
        """Crash recovery: re-seed a replica from a fresh peer's state."""
        fresh = max(
            (r for r in self.replicas if not r.crashed),
            key=lambda r: r.epoch,
            default=None,
        )
        if fresh is None:
            raise ReplicaUnavailableError("no live peer to recover from")
        replica = self.replicas[index]
        replica.suboram = copy.deepcopy(fresh.suboram)
        replica.epoch = fresh.epoch
        replica.crashed = False

    def snapshot(self, index: int) -> _ReplicaSnapshot:
        """What a malicious host can capture for a later rollback."""
        replica = self.replicas[index]
        return _ReplicaSnapshot(copy.deepcopy(replica.suboram), replica.epoch)

    def rollback(self, index: int, snapshot: _ReplicaSnapshot) -> None:
        """Maliciously restore a replica to an old snapshot."""
        self.replicas[index].rollback_to(snapshot)
