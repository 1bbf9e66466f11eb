"""The correctness gate must pass a real history and fail a corrupted one.

Run with ``python3 -m pytest bench/test_gate.py`` (outside tier-1's
``testpaths``).  ``history.check_history`` is the O(n log n) form of
``repro.core.linearizability.check_snoopy_history``; both run here on the
same histories so that they are pinned to agree.
"""

import copy
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import history  # noqa: E402

from repro.core.config import SnoopyConfig  # noqa: E402
from repro.core.linearizability import (  # noqa: E402
    History,
    LinearizabilityViolation,
    Operation,
    check_snoopy_history,
)
from repro.core.snoopy import Snoopy  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    WorkloadSpec,
    generate_requests,
)

CHECKERS = (history.check_history, check_snoopy_history)
VALUE_SIZE = 8
NUM_KEYS = 32


def real_history() -> History:
    """Four epochs of duplicate-heavy traffic through a real deployment."""
    initial = {key: bytes([key]) * VALUE_SIZE for key in range(NUM_KEYS)}
    store = Snoopy(
        SnoopyConfig(
            num_load_balancers=2, num_suborams=2, value_size=VALUE_SIZE,
            security_parameter=32,
        ),
        rng=random.Random(3),
    )
    store.initialize(dict(initial))
    spec = WorkloadSpec(
        distribution="zipf", num_keys=NUM_KEYS, write_fraction=0.5,
        value_size=VALUE_SIZE, zipf_exponent=1.2,
    )
    operations = []
    with store:
        for epoch, batch in enumerate(
            (generate_requests(spec, 24, seed, start_seq=24 * seed)
             for seed in range(4)),
            start=1,
        ):
            tickets = [(request, store.submit(request)) for request in batch]
            store.run_epoch()
            for request, ticket in tickets:
                operations.append(Operation(
                    client_id=request.client_id,
                    seq=request.seq,
                    op=request.op,
                    key=request.key,
                    written=request.value,
                    result=ticket.result().value,
                    start_epoch=epoch - 1,
                    end_epoch=ticket.epoch,
                    load_balancer=ticket.load_balancer,
                    arrival=ticket.arrival,
                ))
    return History(initial, operations)


@pytest.fixture(scope="module")
def good() -> History:
    return real_history()


@pytest.mark.parametrize("check", CHECKERS)
def test_real_history_passes(good, check):
    check(copy.deepcopy(good))


@pytest.mark.parametrize("check", CHECKERS)
def test_corrupted_response_fails(good, check):
    bad = copy.deepcopy(good)
    victim = bad.operations[len(bad.operations) // 2]
    victim.result = bytes(b ^ 0xFF for b in victim.result)
    with pytest.raises(LinearizabilityViolation):
        check(bad)


@pytest.mark.parametrize("check", CHECKERS)
def test_reply_from_a_past_epoch_fails(good, check):
    bad = copy.deepcopy(good)
    # A reply claiming epoch 1 for a request sent after epoch 3 was seen.
    victim = next(op for op in bad.operations if op.end_epoch == 1)
    victim.start_epoch = 3
    with pytest.raises(LinearizabilityViolation):
        check(bad)


class _FakeLoadGen:
    """The slice of ``LoadGen`` that ``operations_from`` reads."""

    def __init__(self, good: History):
        ops = good.operations
        self.attempted = len(ops)
        self.requests = [
            type("R", (), {
                "client_id": op.client_id, "seq": op.seq, "op": op.op,
                "key": op.key, "value": op.written,
            })()
            for op in ops
        ]
        self.outcome = ["ok"] * len(ops)
        self.reply = [op.result for op in ops]
        self.placement = [
            (op.load_balancer, op.arrival, op.end_epoch) for op in ops
        ]
        self.seen_epoch = [op.start_epoch for op in ops]


def test_gate_fails_on_a_corrupted_recorded_reply(good):
    recorded = _FakeLoadGen(good)
    history.check_history(
        History(good.initial, history.operations_from(recorded))
    )
    recorded.reply[5] = bytes(b ^ 0xFF for b in recorded.reply[5])
    with pytest.raises(LinearizabilityViolation):
        history.check_history(
            History(good.initial, history.operations_from(recorded))
        )


def test_failed_requests_are_left_out_of_the_replay(good):
    recorded = _FakeLoadGen(good)
    reads = [
        i for i, op in enumerate(good.operations) if op.written is None
    ]
    recorded.outcome[reads[0]] = "timeout"
    recorded.reply[reads[0]] = None
    operations = history.operations_from(recorded)
    assert len(operations) == recorded.attempted - 1
    history.check_history(History(good.initial, operations))
