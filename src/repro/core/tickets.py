"""Tickets: the asynchronous front-door completion API.

``submit`` hands requests to a load balancer *now*; the responses only
exist once that balancer's epoch closes.  A :class:`Ticket` is the
receipt for that gap — it names where the requests went
(``.load_balancer``, ``.arrival``, the coordinates Appendix C's
linearizability histories are built from) and, once the epoch has run,
carries the responses (``.result()``), TaoStore-style, instead of
making clients keep tuple-index bookkeeping::

    ticket = store.submit(Request(OpType.READ, 42))
    store.run_epoch()
    response = ticket.result()          # the Response for *this* request

Calling ``result()`` before the epoch closed raises
:class:`~repro.errors.TicketPendingError`; ``ticket.done`` tells you
which side of the epoch boundary you are on.

**Ranges.**  A ticket covers the ``count`` contiguous arrivals one
``submit`` call queued on one balancer: one row for an in-process
``submit(request)``, a whole sealed record of REQUEST frames on the TCP
front door.  At match, :meth:`TicketBook.resolve_cut` hands each ticket
its slice of the epoch's matched rows (one
:class:`~repro.oblivious.soa.Batch` per balancer) in one call — no
per-row :class:`~repro.types.Response` is built; ``result(row)`` builds
one lazily, when it is read.

**Asynchronous completion.**  Under the pipelined scheduler — and the
TCP service built on it (:mod:`repro.serve`) — tickets resolve on the
pipeline's match thread, not the submitting thread, so polling ``done``
is the wrong shape for a server.  :meth:`Ticket.add_done_callback`
registers a callable invoked exactly once with the ticket as soon as it
resolves (immediately, if it already has).  Callbacks run on the
resolving thread and must not block — hand off, do not work: the asyncio
service's callback only appends the ticket to a queue, and the service
wakes its event loop (``call_soon_threadsafe``) once the epoch's whole
cut has resolved, so an epoch costs one loop wake-up, not one per
ticket.

:class:`TicketBook` is the deployment-side ledger: it issues tickets at
``submit`` time.  Under the pipelined scheduler
(:mod:`repro.core.pipeline`) tickets for epoch ``e+1`` are issued
*while* epoch ``e`` is still in flight, so every epoch takes its own
tickets with :meth:`TicketBook.cut` — snapshot-and-clear the pending
tickets at epoch close — and :meth:`TicketBook.resolve_cut` resolves that
cut, in arrival order, against the epoch's matched rows;
:meth:`TicketBook.restore` puts a failed epoch's cut back at the front.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import TicketPendingError
from repro.oblivious.soa import Batch
from repro.types import Request, Response

#: Guards the resolve/add_done_callback race.  One shared lock (instead
#: of a lock per ticket) keeps tickets small — a service holds thousands
#: of them open — and the critical sections are a few pointer
#: operations, so contention is negligible.
_COMPLETION_LOCK = threading.Lock()


class Ticket:
    """A pending receipt for ``count`` contiguous arrivals on one balancer.

    Attributes:
        load_balancer: index of the balancer the requests were queued on.
        arrival: arrival index of the first row within that balancer's
            epoch at submit time; row ``i`` arrived at ``arrival + i``.
        count: number of rows (1 for an in-process ``submit(request)``).
        request: the submitted request of a one-row ticket, if known
            (kept for debugging/history).
    """

    __slots__ = (
        "load_balancer", "arrival", "count", "request", "_rows", "_offset",
        "_epoch", "_callbacks",
    )

    def __init__(self, load_balancer: int, arrival: int, count: int = 1,
                 request: Optional[Request] = None):
        self.load_balancer = load_balancer
        self.arrival = arrival
        self.count = count
        self.request = request
        self._rows: Optional[Batch] = None
        self._offset = 0
        self._epoch: Optional[int] = None
        self._callbacks: Optional[List[Callable[["Ticket"], None]]] = None

    @property
    def done(self) -> bool:
        """True once the ticket's epoch has closed and its rows matched."""
        return self._rows is not None

    @property
    def epoch(self) -> Optional[int]:
        """The trusted-counter value at which the ticket resolved (or None)."""
        return self._epoch

    def rows(self) -> Batch:
        """The ticket's matched rows (``permitted`` is each reply's ``ok``).

        Raises:
            TicketPendingError: the epoch has not run yet.
        """
        if self._rows is None:
            raise TicketPendingError(
                f"ticket (lb={self.load_balancer}, arrival={self.arrival}) "
                "is still pending; run_epoch() has not closed its epoch"
            )
        return self._rows.take(slice(self._offset, self._offset + self.count))

    def result(self, row: int = 0) -> Response:
        """The response for row ``row`` (the request, for a one-row
        ticket), once its epoch has closed; raises like :meth:`rows`."""
        return self.rows().responses()[row]

    @staticmethod
    def gather(tickets: Sequence["Ticket"]) -> Batch:
        """The matched rows of resolved ``tickets``, back to back.

        Consecutive tickets resolved against the same matched batch (one
        balancer's epoch) are gathered with one ``take``, whatever their
        number.
        """
        parts = []
        for _, group in itertools.groupby(tickets, key=lambda t: id(t._rows)):
            group = list(group)
            counts = np.array([ticket.count for ticket in group])
            starts = np.array([ticket._offset for ticket in group])
            index = np.arange(counts.sum()) + np.repeat(
                starts - (np.cumsum(counts) - counts), counts
            )
            parts.append(group[0]._rows.take(index))
        return parts[0] if len(parts) == 1 else Batch.concat(parts)

    def add_done_callback(self, callback: Callable[["Ticket"], None]) -> None:
        """Invoke ``callback(ticket)`` exactly once when the ticket resolves.

        The asynchronous completion seam: the epoch pipeline resolves
        tickets on its match thread, so a server cannot poll ``done`` —
        it registers a callback and bridges onto its own event loop.
        If the ticket already resolved, the callback runs immediately on
        the calling thread; otherwise it runs on the resolving thread.
        Callbacks must not block and must not raise (an exception would
        propagate into the resolving epoch's match stage).
        """
        with _COMPLETION_LOCK:
            if self._rows is None:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
                return
        callback(self)

    def _resolve(self, rows: Batch, offset: int, epoch: int) -> None:
        with _COMPLETION_LOCK:
            self._rows, self._offset, self._epoch = rows, offset, epoch
            callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            callback(self)

    def __repr__(self) -> str:
        state = f"done@{self._epoch}" if self.done else "pending"
        return (
            f"Ticket(lb={self.load_balancer}, arrival={self.arrival}, "
            f"count={self.count}, {state})"
        )


class TicketBook:
    """Per-deployment ledger of the current epoch's unresolved tickets."""

    def __init__(self, num_load_balancers: int):
        self._pending: List[List[Ticket]] = [
            [] for _ in range(num_load_balancers)
        ]

    def issue(
        self,
        load_balancer: int,
        arrival: int,
        count: int = 1,
        request: Optional[Request] = None,
    ) -> Ticket:
        """Create and track the ticket of ``count`` freshly queued rows."""
        ticket = Ticket(load_balancer, arrival, count, request)
        self._pending[load_balancer].append(ticket)
        return ticket

    def pending(self, load_balancer: int) -> int:
        """Unresolved rows currently queued on one balancer."""
        return sum(ticket.count for ticket in self._pending[load_balancer])

    def cut(self) -> List[List[Ticket]]:
        """Snapshot-and-clear every balancer's pending tickets.

        Called at epoch close (under the pipeline's intake lock, when
        one is running) so the epoch carries exactly the tickets of the
        rows it drained; tickets issued afterwards accumulate for the
        *next* epoch.  Returns one list per balancer, in arrival order —
        positionally aligned with the drained rows.
        """
        snapshot = self._pending
        self._pending = [[] for _ in snapshot]
        return snapshot

    def restore(self, cut: Sequence[List[Ticket]]) -> None:
        """Prepend a previously :meth:`cut` snapshot (epoch rollback).

        When an epoch fails fatally its rows are requeued at the front
        of their balancers; restoring the matching ticket cut keeps the
        book positionally aligned with those queues so a later epoch
        resolves the same tickets.
        """
        for index, tickets in enumerate(cut):
            self._pending[index] = list(tickets) + self._pending[index]

    @staticmethod
    def resolve_cut(
        cut: Sequence[List[Ticket]],
        matched: Sequence[Batch],
        epoch: int,
    ) -> int:
        """Resolve one epoch's ticket cut against its matched rows.

        Both sequences are indexed by balancer; ``matched[b]`` holds the
        balancer's matched rows in arrival order (the contract of
        ``match_responses``), which is exactly the order its tickets
        were issued in, so each ticket takes the next ``count`` rows —
        one resolve per ticket.  Returns the number of rows resolved.
        """
        for balancer, (tickets, rows) in enumerate(zip(cut, matched)):
            issued = sum(ticket.count for ticket in tickets)
            if issued != len(rows):
                raise AssertionError(
                    f"balancer {balancer}: {issued} tickets but "
                    f"{len(rows)} responses in epoch {epoch}"
                )
        resolved = 0
        for tickets, rows in zip(cut, matched):
            offset = 0
            for ticket in tickets:
                ticket._resolve(rows, offset, epoch)
                offset += ticket.count
            resolved += offset
        return resolved
