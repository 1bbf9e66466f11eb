"""Tests for the ticket front-door API (repro.core.tickets)."""

import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.deployment import DistributedSnoopy
from repro.core.snoopy import Snoopy
from repro.core.tickets import Ticket, TicketBook
from repro.errors import TicketPendingError
from repro.types import OpType, Request, Response


@pytest.fixture
def store():
    config = SnoopyConfig(
        num_load_balancers=2, num_suborams=2, value_size=4,
        security_parameter=16,
    )
    s = Snoopy(config, rng=random.Random(0))
    s.initialize({k: bytes([k]) * 4 for k in range(20)})
    return s


class TestTicket:
    def test_submit_returns_ticket(self, store):
        ticket = store.submit(Request(OpType.READ, 3), load_balancer=1)
        assert isinstance(ticket, Ticket)
        assert ticket.load_balancer == 1
        assert ticket.arrival == 0
        assert ticket.request.key == 3

    def test_pending_before_epoch(self, store):
        ticket = store.submit(Request(OpType.READ, 3))
        assert not ticket.done
        assert ticket.epoch is None
        with pytest.raises(TicketPendingError):
            ticket.result()

    def test_resolves_at_epoch_close(self, store):
        ticket = store.submit(Request(OpType.READ, 5), load_balancer=0)
        store.run_epoch()
        assert ticket.done
        assert ticket.epoch == store.counter.value
        response = ticket.result()
        assert response.key == 5
        assert response.value == bytes([5]) * 4

    def test_write_ticket_returns_prior_value(self, store):
        ticket = store.submit(
            Request(OpType.WRITE, 4, b"NEWV"), load_balancer=0
        )
        store.run_epoch()
        assert ticket.result().value == bytes([4]) * 4  # prior contents
        assert store.read(4) == b"NEWV"

    def test_each_ticket_gets_its_own_response(self, store):
        tickets = [
            store.submit(Request(OpType.READ, k, seq=k)) for k in range(8)
        ]
        store.run_epoch()
        for k, ticket in enumerate(tickets):
            assert ticket.result().key == k

    def test_arrival_indices_are_per_balancer(self, store):
        t0 = store.submit(Request(OpType.READ, 1), load_balancer=0)
        t1 = store.submit(Request(OpType.READ, 2), load_balancer=1)
        t2 = store.submit(Request(OpType.READ, 3), load_balancer=0)
        assert (t0.load_balancer, t0.arrival) == (0, 0)
        assert (t1.load_balancer, t1.arrival) == (1, 0)
        assert (t2.load_balancer, t2.arrival) == (0, 1)

    def test_repr_shows_state(self, store):
        ticket = store.submit(Request(OpType.READ, 1), load_balancer=0)
        assert "pending" in repr(ticket)
        store.run_epoch()
        assert "done" in repr(ticket)

    def test_tuple_unpacking_shim_removed(self, store):
        ticket = store.submit(Request(OpType.READ, 1), load_balancer=1)
        with pytest.raises(TypeError):
            balancer, arrival = ticket

    def test_tickets_survive_multiple_epochs(self, store):
        first = store.submit(Request(OpType.READ, 1))
        store.run_epoch()
        second = store.submit(Request(OpType.READ, 2))
        store.run_epoch()
        assert first.epoch == 1
        assert second.epoch == 2
        assert first.result().key == 1
        assert second.result().key == 2


class TestDoneCallbacks:
    def test_callback_after_resolve_fires_immediately(self, store):
        ticket = store.submit(Request(OpType.READ, 2), load_balancer=0)
        store.run_epoch()
        seen = []
        ticket.add_done_callback(seen.append)
        assert seen == [ticket]

    def test_callback_before_resolve_fires_once_at_epoch(self, store):
        ticket = store.submit(Request(OpType.READ, 2), load_balancer=0)
        seen = []
        ticket.add_done_callback(seen.append)
        assert seen == []
        store.run_epoch()
        assert seen == [ticket]
        assert seen[0].result().key == 2

    def test_multiple_callbacks_fire_in_registration_order(self, store):
        ticket = store.submit(Request(OpType.READ, 3), load_balancer=0)
        order = []
        ticket.add_done_callback(lambda t: order.append("a"))
        ticket.add_done_callback(lambda t: order.append("b"))
        store.run_epoch()
        assert order == ["a", "b"]

    def test_callback_sees_resolved_ticket(self):
        ticket = Ticket(0, 0, Request(OpType.READ, 9))
        captured = {}

        def on_done(t):
            captured["done"] = t.done
            captured["epoch"] = t.epoch

        ticket.add_done_callback(on_done)
        ticket._resolve(Response(key=9, value=b"v"), epoch=4)
        assert captured == {"done": True, "epoch": 4}

    def test_callbacks_under_pipelined_resolution(self):
        """Callbacks registered on the submitting thread fire for tickets
        resolved by the pipeline's match thread."""
        config = SnoopyConfig(
            num_load_balancers=2, num_suborams=2, value_size=4,
            security_parameter=16,
        )
        with Snoopy(config, rng=random.Random(0)) as s:
            s.initialize({k: bytes([k]) * 4 for k in range(16)})
            with s.start_pipeline(depth=2, clock=False) as pipe:
                seen = []
                tickets = [
                    s.submit(Request(OpType.READ, k, seq=k)) for k in range(8)
                ]
                for ticket in tickets:
                    ticket.add_done_callback(seen.append)
                pipe.close_epoch(wait=True)
                pipe.flush()
            assert sorted(t.request.key for t in seen) == list(range(8))
            assert all(t.done for t in seen)


class TestTicketBook:
    def test_issue_and_pending_counts(self):
        book = TicketBook(2)
        book.issue(0, 0)
        book.issue(0, 1)
        book.issue(1, 0)
        assert book.pending(0) == 2
        assert book.pending(1) == 1

    def test_resolve_clears_pending(self):
        book = TicketBook(1)
        ticket = book.issue(0, 0)
        cut = book.cut()
        assert book.pending(0) == 0
        TicketBook.resolve_cut(cut, [[Response(key=1, value=b"x")]], epoch=3)
        assert ticket.result().key == 1
        assert ticket.epoch == 3

    def test_resolve_length_mismatch_raises(self):
        book = TicketBook(1)
        book.issue(0, 0)
        with pytest.raises(AssertionError):
            TicketBook.resolve_cut(book.cut(), [[]], epoch=1)


class TestDistributedTickets:
    def test_distributed_submit_returns_resolving_ticket(self):
        config = SnoopyConfig(
            num_load_balancers=2, num_suborams=2, value_size=4,
            security_parameter=16,
        )
        with DistributedSnoopy(config, rng=random.Random(0)) as store:
            store.initialize({k: bytes([k]) * 4 for k in range(10)})
            ticket = store.submit(Request(OpType.READ, 7), load_balancer=0)
            assert not ticket.done
            store.run_epoch()
            assert ticket.result().value == bytes([7]) * 4
