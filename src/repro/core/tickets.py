"""Tickets: the asynchronous front-door completion API.

``submit`` hands a request to a load balancer *now*; the response only
exists once that balancer's epoch closes.  A :class:`Ticket` is the
receipt for that gap — it names where the request went
(``.load_balancer``, ``.arrival``, the coordinates Appendix C's
linearizability histories are built from) and, once the epoch has run,
carries the response (``.result()``), TaoStore-style, instead of making
clients keep tuple-index bookkeeping::

    ticket = store.submit(Request(OpType.READ, 42))
    store.run_epoch()
    response = ticket.result()          # the Response for *this* request

Calling ``result()`` before the epoch closed raises
:class:`~repro.errors.TicketPendingError`; ``ticket.done`` tells you
which side of the epoch boundary you are on.  (The legacy
``(load_balancer, arrival)`` tuple-unpack shim from the first release
has completed its deprecation cycle and is gone; tickets are plain
objects now.)

**Asynchronous completion.**  Under the pipelined scheduler — and the
TCP service built on it (:mod:`repro.serve`) — tickets resolve on the
pipeline's match thread, not the submitting thread, so polling ``done``
is the wrong shape for a server.  :meth:`Ticket.add_done_callback`
registers a callable invoked exactly once with the ticket as soon as it
resolves (immediately, if it already has).  Callbacks run on the
resolving thread and must not block — hand off, do not work: the asyncio
service's callback only appends the ticket to a queue, and the service
wakes its event loop (``call_soon_threadsafe``) once the epoch's whole
cut has resolved — :meth:`TicketBook.resolve_cut` resolves a cut back to
back, so an epoch costs one loop wake-up, not one per ticket.

:class:`TicketBook` is the deployment-side ledger: it issues tickets at
``submit`` time.  Under the pipelined scheduler
(:mod:`repro.core.pipeline`) tickets for epoch ``e+1`` are issued
*while* epoch ``e`` is still in flight, so every epoch takes its own
tickets with :meth:`TicketBook.cut` — snapshot-and-clear the pending
tickets at epoch close — and :meth:`TicketBook.resolve_cut` resolves that
cut, in arrival order, against the epoch's matched responses;
:meth:`TicketBook.restore` puts a failed epoch's cut back at the front.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

from repro.errors import TicketPendingError
from repro.types import Request, Response

#: Guards the resolve/add_done_callback race.  One shared lock (instead
#: of a lock per ticket) keeps tickets at five slots — a service holds
#: hundreds of thousands of them open — and the critical sections are a
#: few pointer operations, so contention is negligible.
_COMPLETION_LOCK = threading.Lock()


class Ticket:
    """A pending-request receipt with future-style completion.

    Attributes:
        load_balancer: index of the balancer the request was queued on.
        arrival: arrival index within that balancer's current epoch.
        request: the submitted request (kept for debugging/history).
    """

    __slots__ = (
        "load_balancer", "arrival", "request", "_response", "_epoch",
        "_callbacks",
    )

    def __init__(
        self,
        load_balancer: int,
        arrival: int,
        request: Optional[Request] = None,
    ):
        self.load_balancer = load_balancer
        self.arrival = arrival
        self.request = request
        self._response: Optional[Response] = None
        self._epoch: Optional[int] = None
        self._callbacks: Optional[List[Callable[["Ticket"], None]]] = None

    @property
    def done(self) -> bool:
        """True once the ticket's epoch has closed and a response exists."""
        return self._response is not None

    @property
    def epoch(self) -> Optional[int]:
        """The trusted-counter value at which the ticket resolved (or None)."""
        return self._epoch

    def result(self) -> Response:
        """The response for this request, once its epoch has closed.

        Raises:
            TicketPendingError: the epoch has not run yet.
        """
        if self._response is None:
            raise TicketPendingError(
                f"ticket (lb={self.load_balancer}, arrival={self.arrival}) "
                "is still pending; run_epoch() has not closed its epoch"
            )
        return self._response

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
            if self._response is None:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
                return
        callback(self)

    def _resolve(self, response: Response, epoch: int) -> None:
        with _COMPLETION_LOCK:
            self._response = response
            self._epoch = epoch
            callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            callback(self)

    def __repr__(self) -> str:
        state = f"done@{self._epoch}" if self.done else "pending"
        return (
            f"Ticket(lb={self.load_balancer}, arrival={self.arrival}, "
            f"{state})"
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
        request: Optional[Request] = None,
    ) -> Ticket:
        """Create and track a ticket for a freshly queued request."""
        ticket = Ticket(load_balancer, arrival, request)
        self._pending[load_balancer].append(ticket)
        return ticket

    def pending(self, load_balancer: int) -> int:
        """Unresolved tickets currently queued on one balancer."""
        return len(self._pending[load_balancer])

    def cut(self) -> List[List[Ticket]]:
        """Snapshot-and-clear every balancer's pending tickets.

        Called at epoch close (under the pipeline's intake lock, when
        one is running) so the epoch carries exactly the tickets of the
        requests it drained; tickets issued afterwards accumulate for
        the *next* epoch.  Returns one list per balancer, in arrival
        order — positionally aligned with the drained request lists.
        """
        snapshot = self._pending
        self._pending = [[] for _ in snapshot]
        return snapshot

    def restore(self, cut: Sequence[List[Ticket]]) -> None:
        """Prepend a previously :meth:`cut` snapshot (epoch rollback).

        When an epoch fails fatally its requests are requeued at the
        front of their balancers; restoring the matching ticket cut
        keeps the book positionally aligned with those queues so a
        later epoch resolves the same tickets.
        """
        for index, tickets in enumerate(cut):
            self._pending[index] = list(tickets) + self._pending[index]

    @staticmethod
    def resolve_cut(
        cut: Sequence[List[Ticket]],
        responses_per_balancer: Sequence[Sequence[Response]],
        epoch: int,
    ) -> int:
        """Resolve one epoch's ticket cut against its matched responses.

        Both sequences are indexed by balancer; responses arrive in
        arrival order (the contract of ``match_responses``), which is
        exactly the order tickets were issued in, so each pair zips
        positionally.  Returns the number of tickets resolved.
        """
        resolved = 0
        for balancer, (tickets, responses) in enumerate(
            zip(cut, responses_per_balancer)
        ):
            if len(tickets) != len(responses):
                raise AssertionError(
                    f"balancer {balancer}: {len(tickets)} tickets but "
                    f"{len(responses)} responses in epoch {epoch}"
                )
            for ticket, response in zip(tickets, responses):
                ticket._resolve(response, epoch)
                resolved += 1
        return resolved
