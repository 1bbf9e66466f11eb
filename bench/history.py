"""The correctness gate: replay everything the load generator saw.

``repro.core.linearizability.check_snoopy_history`` is the specification,
but its real-time check walks every pair of operations — hours for the
10^5 operations of one run.  :func:`check_history` checks the same two
conditions in O(n log n):

* **C1, real time.**  The paper's order sorts by commit epoch first, so
  "o1 completed before o2 started" can only be violated by an operation
  whose commit epoch is older than an epoch its client had already seen a
  reply from when it sent the request (``end_epoch < start_epoch``).
* **C2, values.**  Replay in the order ``snoopy_linearization_order``
  gives: every operation of one (epoch, balancer) group observes the
  group-start state, then the group's writes apply in arrival order.

``test_gate.py`` runs both checkers on the same small histories, good and
corrupted, to pin that they agree.
"""

from __future__ import annotations

from itertools import groupby
from typing import List

from repro.core.linearizability import (
    History,
    LinearizabilityViolation,
    Operation,
    snoopy_linearization_order,
)
from repro.types import OpType


def operations_from(loadgen) -> List[Operation]:
    """One :class:`Operation` per request the generator got an ``ok`` for."""
    operations = []
    for index in range(loadgen.attempted):
        if loadgen.outcome[index] != "ok":
            continue
        request = loadgen.requests[index]
        balancer, arrival, epoch = loadgen.placement[index]
        operations.append(Operation(
            client_id=request.client_id,
            seq=request.seq,
            op=request.op,
            key=request.key,
            written=request.value,
            result=loadgen.reply[index],
            start_epoch=loadgen.seen_epoch[index],
            end_epoch=epoch,
            load_balancer=balancer,
            arrival=arrival,
        ))
    return operations


def check_history(history: History) -> None:
    """Raise :class:`LinearizabilityViolation` unless ``history`` is legal."""
    for op in history.operations:
        if op.end_epoch < op.start_epoch:
            raise LinearizabilityViolation(
                f"real-time order violated: {op} committed in an epoch "
                "older than one its client had already seen"
            )
    state = dict(history.initial)
    ordered = snoopy_linearization_order(history.operations)
    for _group, members in groupby(
        ordered, key=lambda op: (op.end_epoch, op.load_balancer)
    ):
        group = list(members)
        for op in group:
            expected = state.get(op.key)
            if op.result != expected:
                raise LinearizabilityViolation(
                    f"{op.op.value}({op.key}) seq {op.seq} in epoch "
                    f"{op.end_epoch} returned {op.result!r}, expected "
                    f"group-start value {expected!r}"
                )
        for op in group:
            if op.op is OpType.WRITE:
                state[op.key] = op.written
