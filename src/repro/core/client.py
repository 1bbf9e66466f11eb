"""Client-side API: the ``SnoopyClient`` protocol and history recording.

:class:`SnoopyClient` is the one client-facing contract every transport
implements — the :class:`~repro.core.snoopy.Snoopy` facade (whose
subORAMs may sit behind attested worker links, see
:mod:`repro.serve.workers`) and the TCP
:class:`~repro.serve.netclient.NetworkSnoopyClient` both satisfy it, so
applications, examples, and the simulator swap transports without code
changes::

    def audit(store: SnoopyClient) -> None:
        with store:
            store.write(1, b"\\x01" * 4)
            assert store.read(1) == b"\\x01" * 4

The protocol is ``runtime_checkable``; ``isinstance(obj, SnoopyClient)``
verifies structural conformance (method presence, not signatures).

``Client`` issues reads/writes against a deployment, assigns sequence
numbers, and records an operation history (invocation/response epochs)
suitable for the linearizability checker.
"""

from __future__ import annotations

from typing import (
    Dict, List, Optional, Protocol, Sequence, runtime_checkable,
)

from repro.core.linearizability import Operation
from repro.core.snoopy import Snoopy
from repro.core.tickets import Ticket
from repro.types import OpType, Request, Response


@runtime_checkable
class SnoopyClient(Protocol):
    """The transport-agnostic Snoopy client contract.

    One surface, two transports: in-process (:class:`Snoopy`) and TCP
    (:class:`~repro.serve.netclient.NetworkSnoopyClient`).  The
    asynchronous front door is :meth:`submit` → :class:`Ticket`; the
    synchronous conveniences (:meth:`read` / :meth:`write` /
    :meth:`batch`) block until the request's epoch has closed.  Every
    client is a context manager whose exit releases its transport.
    """

    def submit(
        self, request: Request, load_balancer: Optional[int] = None
    ) -> Ticket:
        """Queue a request now; the ticket resolves at its epoch close."""
        ...

    def read(self, key: int) -> Optional[bytes]:
        """Read one object, blocking until its epoch closes."""
        ...

    def write(self, key: int, value: bytes) -> Optional[bytes]:
        """Write one object, returning the prior value."""
        ...

    def batch(self, requests: Sequence[Request]) -> List[Response]:
        """Submit a set of requests and collect their epoch's responses."""
        ...

    def close(self) -> None:
        """Release the client's transport and any owned resources."""
        ...

    def __enter__(self) -> "SnoopyClient":
        ...

    def __exit__(self, exc_type, exc, tb) -> None:
        ...


class Client:
    """A Snoopy client with sequence numbers and history recording."""

    _next_client_id = 0

    def __init__(self, store: Snoopy, client_id: Optional[int] = None):
        if client_id is None:
            client_id = Client._next_client_id
            Client._next_client_id += 1
        self.client_id = client_id
        self.store = store
        self._seq = 0
        self.history: List[Operation] = []
        self._pending: Dict[int, Operation] = {}

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Asynchronous interface: submit now, complete at epoch end.
    # ------------------------------------------------------------------
    def submit_read(self, key: int, load_balancer: Optional[int] = None) -> int:
        """Queue a read; returns its sequence number."""
        seq = self._next_seq()
        ticket = self.store.submit(
            Request(OpType.READ, key, client_id=self.client_id, seq=seq),
            load_balancer,
        )
        self._pending[seq] = Operation(
            client_id=self.client_id,
            seq=seq,
            op=OpType.READ,
            key=key,
            start_epoch=self.store.counter.value,
            load_balancer=ticket.load_balancer,
            arrival=ticket.arrival,
        )
        return seq

    def submit_write(
        self, key: int, value: bytes, load_balancer: Optional[int] = None
    ) -> int:
        """Queue a write; returns its sequence number."""
        seq = self._next_seq()
        ticket = self.store.submit(
            Request(OpType.WRITE, key, value, client_id=self.client_id, seq=seq),
            load_balancer,
        )
        self._pending[seq] = Operation(
            client_id=self.client_id,
            seq=seq,
            op=OpType.WRITE,
            key=key,
            written=value,
            start_epoch=self.store.counter.value,
            load_balancer=ticket.load_balancer,
            arrival=ticket.arrival,
        )
        return seq

    def complete(self, responses: List[Response]) -> None:
        """Record responses addressed to this client into the history."""
        for response in responses:
            if response.client_id != self.client_id:
                continue
            operation = self._pending.pop(response.seq, None)
            if operation is None:
                continue
            operation.result = response.value
            operation.end_epoch = self.store.counter.value
            self.history.append(operation)

    def complete_ticket(self, ticket) -> None:
        """Record one resolved ticket's response into the history.

        The pipelined completion path: under the epoch pipeline the
        trusted counter advances past an epoch before its responses are
        matched, so :meth:`complete`'s "current counter value" would
        overstate ``end_epoch``.  The ticket instead carries the exact
        epoch it resolved in (:attr:`~repro.core.tickets.Ticket.epoch`),
        keeping the recorded window tight for linearizability checking.
        Tickets addressed to other clients are ignored.
        """
        request = ticket.request
        if request is None or request.client_id != self.client_id:
            return
        operation = self._pending.pop(request.seq, None)
        if operation is None:
            return
        operation.result = ticket.result().value
        operation.end_epoch = ticket.epoch
        self.history.append(operation)

    # ------------------------------------------------------------------
    # Synchronous conveniences (run an epoch per call).
    # ------------------------------------------------------------------
    def read(self, key: int) -> Optional[bytes]:
        """Read one object in its own epoch, recording the operation."""
        self.submit_read(key)
        responses = self.store.run_epoch()
        self.complete(responses)
        return self.history[-1].result

    def write(self, key: int, value: bytes) -> Optional[bytes]:
        """Write one object in its own epoch, recording the operation."""
        self.submit_write(key, value)
        responses = self.store.run_epoch()
        self.complete(responses)
        return self.history[-1].result
