"""The load balancer entity: the epoch queue and its parameters (§4.3).

A ``LoadBalancer`` owns no dynamic request-routing state — only the
deployment sharding key — so any number of them can run independently and
in parallel.  Each epoch its queued requests become one fixed-size batch
per subORAM (:func:`~repro.loadbalancer.batching.generate_batches`) and
the responses are matched back to clients
(:func:`~repro.loadbalancer.matching.match_responses`); the epoch body in
:mod:`repro.core.epoch` runs both for every balancer.
"""

from __future__ import annotations

from typing import List

from repro.errors import CapacityError
from repro.oblivious.kernels import resolve_kernel
from repro.types import INT64_MAX, INT64_MIN, Request
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
        self._queue: List[Request] = []
        self.epochs_processed = 0

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> int:
        """Queue a client request; returns its arrival index in the epoch.

        Raises:
            CapacityError: the request does not fit a fixed-width batch
                row.  Nothing is queued: queued, it would fail the build
                of every epoch it is requeued into.
        """
        value = request.value
        if not (
            (value is None or len(value) == self.value_size)
            and INT64_MIN <= request.key <= INT64_MAX
            and 0 <= request.client_id < 2**64
            and 0 <= request.seq < 2**64
        ):
            raise CapacityError(
                f"request for key {request.key} needs a {self.value_size}-"
                "byte value (or none), an int64 key and uint64 client_id/seq"
            )
        self._queue.append(request)
        return len(self._queue) - 1

    @property
    def pending(self) -> int:
        """Requests queued for the current epoch."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Epoch close and its rollback (repro.core.epoch)
    # ------------------------------------------------------------------
    def drain(self) -> List[Request]:
        """Take this epoch's queued requests and bump the epoch counter."""
        requests, self._queue = self._queue, []
        self.epochs_processed += 1
        return requests

    def requeue(self, requests: List[Request]) -> None:
        """Undo a :meth:`drain` when its epoch is rolled back.

        The requests go back to the *front* of the queue (ahead of any
        newly submitted ones) in their original arrival order, and the
        epoch counter is rolled back — so a re-served epoch is
        indistinguishable from one that never failed.
        """
        self._queue = list(requests) + self._queue
        self.epochs_processed -= 1
