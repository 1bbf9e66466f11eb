"""The Appendix B simulator programs, executable.

The paper's security definition (Definition 1) demands a *simulator*
that, given only public information — request count, configuration,
data size — produces a trace indistinguishable from the real protocol's.
Figures 22/24/26 define those simulators: they run the same oblivious
pipeline on *random* requests of the right shape.

This module implements them literally, and the test suite plays the
distinguisher: `tests/test_simulator.py` asserts the simulated traces
are *equal* (not merely indistinguishable) to real-execution traces,
which is exactly how the paper's proofs argue (the access pattern is a
deterministic function of public parameters).
"""

from __future__ import annotations

from typing import List

from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.oblivious.soa import Batch
from repro.oblivious.memory import AccessTrace, TracedMemory
from repro.types import OpType, Request


class _Collector:
    """mem_factory accumulating every access onto one trace."""

    def __init__(self) -> None:
        self.trace = AccessTrace()

    def __call__(self, items):
        return TracedMemory(items, trace=self.trace)


def _random_style_requests(num_requests: int) -> List[Request]:
    """SimLoadBalancer's step: "choose N random distinct identifiers...
    create R of the form (read, idx_i, bot)" (Figure 26, lines 3-4).

    Determinism note: since the real trace provably does not depend on
    *which* identifiers are chosen, the simulator may fix them; we use
    consecutive ids, which keeps the test equality exact.
    """
    return [
        Request(OpType.READ, 1_000_000 + index, seq=index)
        for index in range(num_requests)
    ]


def simulate_batching_trace(
    num_requests: int,
    num_suborams: int,
    sharding_key: bytes,
    security_parameter: int = 128,
) -> AccessTrace:
    """Figure 26 (first half): the batch-generation trace from public info.

    Public inputs: R, S, lambda (the sharding key is enclave-internal and
    shared with the real execution; the *trace* is key-independent, which
    ``tests/test_obliviousness.py`` checks separately).
    """
    collector = _Collector()
    generate_batches(
        _random_style_requests(num_requests),
        num_suborams,
        sharding_key,
        security_parameter,
        mem_factory=collector,
        value_size=0,  # contents are irrelevant to the trace
    )
    return collector.trace


def simulate_matching_trace(
    num_requests: int,
    num_suborams: int,
    sharding_key: bytes,
    security_parameter: int = 128,
) -> AccessTrace:
    """Figure 26 (second half): the response-matching trace."""
    requests = _random_style_requests(num_requests)
    batches, originals, _ = generate_batches(
        requests, num_suborams, sharding_key, security_parameter,
        value_size=0,
    )
    collector = _Collector()
    # The batches stand in for their own responses.
    match_responses(originals, Batch.concat(batches), mem_factory=collector)
    return collector.trace


def simulate_suboram_store_sequence(
    num_objects: int, kernel: str = "python"
) -> List[tuple]:
    """Figure 20's scan: the subORAM's (get, put) slot sequence.

    Both kernels' store schedules are public functions of ``num_objects``
    alone, so the simulator just enumerates them.  The scalar python
    kernel interleaves: it fetches and rewrites each slot in turn.  The
    vectorized numpy kernel reads every slot ``0..N-1``, runs the whole
    scan as masked array operations, then rewrites every slot in the same
    order — a get-phase followed by a put-phase.
    """
    sequence: List[tuple] = []
    if kernel == "numpy":
        for slot in range(num_objects):
            sequence.append(("get", slot))
        for slot in range(num_objects):
            sequence.append(("put", slot))
        return sequence
    for slot in range(num_objects):
        sequence.append(("get", slot))
        sequence.append(("put", slot))
    return sequence
