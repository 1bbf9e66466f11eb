"""The load balancer entity: the epoch queue and its parameters (§4.3).

A ``LoadBalancer`` owns no dynamic request-routing state — only the
deployment sharding key — so any number of them can run independently and
in parallel.  Its queue holds :class:`~repro.oblivious.soa.Batch` chunks —
one per ``submit``, e.g. one sealed record of REQUEST frames — and each
epoch the drained rows become one fixed-size batch
per subORAM (:func:`~repro.loadbalancer.batching.generate_batches`) and
the responses are matched back to clients
(:func:`~repro.loadbalancer.matching.match_responses`); the epoch body in
:mod:`repro.core.epoch` runs both for every balancer.
"""

from __future__ import annotations

from typing import List

from repro.errors import CapacityError
from repro.oblivious.kernels import resolve_kernel
from repro.oblivious.soa import Batch
from repro.utils.validation import require_positive


class LoadBalancer:
    """One stateless (across epochs) Snoopy load balancer.

    Args:
        balancer_id: index among the deployment's load balancers.
        num_suborams: number of data partitions.
        sharding_key: the deployment-wide keyed-hash key (same on every
            load balancer; fixed across epochs, §4.1).
        value_size: the store's fixed object size in bytes: the width of
            every batch's value column, enforced on payloads at intake.
        security_parameter: lambda for batch sizing.
        kernel: oblivious-kernel selector ("python" or "numpy") for the
            batching/matching sorts and compactions (see
            :mod:`repro.oblivious.kernels`).
    """

    def __init__(
        self,
        balancer_id: int,
        num_suborams: int,
        sharding_key: bytes,
        value_size: int,
        security_parameter: int = 128,
        kernel=None,
    ):
        require_positive(num_suborams, "num_suborams")
        self.balancer_id = balancer_id
        self.num_suborams = num_suborams
        self.sharding_key = sharding_key
        self.value_size = value_size
        self.security_parameter = security_parameter
        self.kernel = resolve_kernel(kernel)
        self._queue: List[Batch] = []
        self._pending = 0
        self.epochs_processed = 0

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, rows: Batch) -> int:
        """Queue a chunk of client requests; returns the arrival index of
        its first row in the epoch (the rest follow contiguously).

        Raises:
            CapacityError: the chunk's value column is not this store's
                width.  Nothing is queued: queued, it would fail the
                build of every epoch it is requeued into.  (A chunk's
                other columns are fixed-width by construction.)
        """
        if rows.value_size != self.value_size:
            raise CapacityError(
                f"requests need a {self.value_size}-byte value (or none), "
                f"not {rows.value_size}"
            )
        arrival = self._pending
        self._queue.append(rows)
        self._pending += len(rows)
        return arrival

    @property
    def pending(self) -> int:
        """Requests queued for the current epoch."""
        return self._pending

    # ------------------------------------------------------------------
    # Epoch close and its rollback (repro.core.epoch)
    # ------------------------------------------------------------------
    def drain(self) -> List[Batch]:
        """Take this epoch's queued chunks, in arrival order, and bump the
        epoch counter.  (The build stage concatenates them, off the
        intake lock.)"""
        chunks, self._queue, self._pending = self._queue, [], 0
        self.epochs_processed += 1
        return chunks

    def requeue(self, chunks: List[Batch]) -> None:
        """Undo a :meth:`drain` when its epoch is rolled back.

        The chunks go back to the *front* of the queue (ahead of any
        newly submitted ones) in their original arrival order, and the
        epoch counter is rolled back — so a re-served epoch is
        indistinguishable from one that never failed.
        """
        self._queue = list(chunks) + self._queue
        self._pending += sum(len(chunk) for chunk in chunks)
        self.epochs_processed -= 1
