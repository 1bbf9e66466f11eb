"""Oblivious response matching (Figure 6 / Figure 26).

➊ merge the subORAM responses (tag 0) with the original client requests
  (tag 1);
➋ obliviously sort by (key, tag) so each response immediately precedes
  every client request for its key;
➌ a fixed scan propagates each response's value to the following
  request(s) — duplicates all receive the value, dummy responses have no
  followers;
➍ oblivious compaction keeps only the client requests, now carrying
  response values.

Writing each answer at its request's arrival index restores client
arrival order (a public permutation), so the caller can zip responses
with its request list.

Both inputs are :class:`~repro.oblivious.soa.Batch`es and neither is
modified: the numpy kernel reads ``key``/``is_dummy`` directly and gathers
response values by index; the python kernel, the traced reference,
computes on records (:func:`_match_records`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.oblivious import soa
from repro.oblivious.kernels import resolve_kernel
from repro.oblivious.primitives import and_bit, eq_bit, o_select
from repro.oblivious.soa import Batch
from repro.telemetry import resolve_telemetry
from repro.telemetry.kernelbridge import TimedKernelTrace, flush_kernel_trace
from repro.types import Response


def match_responses(
    originals: Batch,
    responses: Batch,
    mem_factory=None,
    kernel=None,
    telemetry=None,
) -> List[Response]:
    """Map subORAM responses back onto the epoch's client requests.

    Args:
        originals: the client requests from ``generate_batches``, in
            arrival order.
        responses: every row returned by every subORAM (including dummy
            responses).
        kernel: oblivious-kernel selector for the sort and compaction
            (see :mod:`repro.oblivious.kernels`); ``mem_factory`` forces
            the python kernel.
        telemetry: optional :class:`~repro.telemetry.Telemetry` handle;
            records the matching sort/compaction per-level timings
            through the kernel trace seam.

    Returns:
        One :class:`Response` per original request, in arrival order,
        carrying the object value prior to this epoch's writes.
    """
    telemetry = resolve_telemetry(telemetry)
    kernel_trace = TimedKernelTrace() if telemetry.enabled else None
    kern = resolve_kernel(kernel, mem_factory)
    match = _match_columns if kern.vectorized else _match_records
    # Per kept request: its arrival index, and the index of the
    # answering response (-1: none).
    arrival, answer = match(
        kern, originals.key, responses.key, responses.is_dummy,
        kernel_trace, mem_factory,
    )
    if kernel_trace is not None:
        flush_kernel_trace(telemetry.registry, kernel_trace, kern.name)
    assert len(arrival) == len(originals)

    # Access control (§D): a denied request receives a null value; the
    # masking happens here, after the oblivious pipeline, per *original*
    # request (duplicates may have different privileges).
    source = np.empty(len(originals), dtype=np.int64)
    source[arrival] = answer
    answered = source >= 0
    source = np.where(answered, source, 0)
    has_value = answered & responses.has_value[source] & originals.permitted
    values = soa.matrix_to_values(
        responses.value[source], has_value.tolist()
    )
    return [
        Response(key=key, value=value, client_id=client_id, seq=seq, ok=ok)
        for key, value, client_id, seq, ok in zip(
            originals.key.tolist(), values, originals.client_id.tolist(),
            originals.seq.tolist(), originals.permitted.tolist(),
        )
    ]


def _match_records(kern, request_keys, response_keys, response_dummy,
                   kernel_trace, mem_factory):
    """Steps ➊–➍ record by record (the traced reference path)."""
    # ➊ Merge: responses get tag bit 0, requests tag bit 1.  Records are
    # [key, tag bit, answering response, own index, real bit].
    merged: List[list] = [
        [key, 0, index, index, int(not dummy)]
        for index, (key, dummy) in enumerate(
            zip(response_keys.tolist(), response_dummy.tolist())
        )
    ]
    for arrival, key in enumerate(request_keys.tolist()):
        merged.append([key, 1, -1, arrival, 1])

    # ➋ Sort by object id, responses before requests; ties (duplicate
    # requests) keep arrival order, which is their input position.  Dummy
    # ids are far outside the client key range, so dummy responses sort
    # ahead of everything by their real bit instead and the packed sort
    # key stays one machine word.
    merged = kern.sort(
        merged,
        columns=[
            [r[4] for r in merged],
            [r[0] * r[4] for r in merged],
            [r[1] for r in merged],
        ],
        mem_factory=mem_factory,
        trace=kernel_trace,
    )

    # ➌ Propagate each response forward to its requests (fixed scan).
    prev_key = None
    prev_answer = -1
    for record in merged:
        is_response = eq_bit(record[1], 0)
        prev_key = o_select(is_response, prev_key, record[0])
        prev_answer = o_select(is_response, prev_answer, record[2])
        same_key = int(record[0] == prev_key)
        take = and_bit(eq_bit(record[1], 1), same_key)
        record[2] = o_select(take, record[2], prev_answer)

    # ➍ Keep only client requests.
    kept = kern.compact(
        merged,
        [record[1] for record in merged],
        mem_factory=mem_factory,
        trace=kernel_trace,
    )
    return [record[3] for record in kept], [record[2] for record in kept]


def _match_columns(kern, request_keys, response_keys, response_dummy,
                   kernel_trace, _mem_factory=None):
    """:func:`_match_records` on columns (the numpy kernel's path)."""
    num_responses = len(response_keys)
    rows = np.arange(num_responses + len(request_keys), dtype=np.int64)
    key = np.concatenate([response_keys, request_keys])
    real = np.ones(len(rows), dtype=bool)
    real[:num_responses] = ~response_dummy
    order = kern.sort(
        rows, [real, key * real, rows >= num_responses], trace=kernel_trace
    )
    key = key[order]
    is_request = order >= num_responses
    # Nearest response at or before each sorted row (-1: none yet).
    nearest = np.maximum.accumulate(np.where(is_request, -1, rows))
    take = is_request & (nearest >= 0) & (key[nearest] == key)
    answer = np.where(take, order[nearest], -1)
    kept = kern.compact(rows, is_request, trace=kernel_trace)
    return order[kept] - num_responses, answer[kept]
