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

A final (non-secret-dependent) sort restores client arrival order so the
caller can zip responses with its request list.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.oblivious import soa
from repro.oblivious.kernels import resolve_kernel
from repro.oblivious.primitives import and_bit, eq_bit, o_select
from repro.telemetry import resolve_telemetry
from repro.telemetry.kernelbridge import TimedKernelTrace, flush_kernel_trace
from repro.types import BatchEntry, Response


def match_responses(
    originals: Sequence[BatchEntry],
    responses: Sequence[BatchEntry],
    mem_factory=None,
    kernel=None,
    telemetry=None,
) -> List[Response]:
    """Map subORAM responses back onto the epoch's client requests.

    Args:
        originals: the client-request entries from ``generate_batches``
            (``tag`` holds arrival order).
        responses: every entry returned by every subORAM (including dummy
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
    # (arrival index, index of the answering response or -1) per request.
    matched = match(kern, originals, responses, kernel_trace, mem_factory)
    if kernel_trace is not None:
        flush_kernel_trace(telemetry.registry, kernel_trace, kern.name)
    assert len(matched) == len(originals)

    # Access control (§D): a denied request receives a null value; the
    # masking happens here, after the oblivious pipeline, per *original*
    # request (duplicates may have different privileges).  Writing each
    # response at its arrival index restores arrival order (a public
    # permutation: it depends only on arrival tags, which the attacker
    # already observes).
    results: List[Response] = [None] * len(originals)
    for arrival, answer in matched:
        entry = originals[arrival]
        value = None if answer < 0 else responses[answer].value
        results[arrival] = Response(
            key=entry.key,
            value=o_select(entry.permitted, None, value),
            client_id=entry.client_id,
            seq=entry.seq,
            ok=bool(entry.permitted),
        )
    return results


def _match_records(kern, originals, responses, kernel_trace, mem_factory):
    """Steps ➊–➍ record by record (the traced reference path)."""
    # ➊ Merge: responses get tag bit 0, requests tag bit 1.  Records are
    # [key, tag bit, answering response, own index, real bit].
    merged: List[list] = [
        [entry.key, 0, index, index, int(not entry.is_dummy)]
        for index, entry in enumerate(responses)
    ]
    for arrival, entry in enumerate(originals):
        merged.append([entry.key, 1, -1, arrival, 1])

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
    return [(record[3], record[2]) for record in kept]


def _match_columns(kern, originals, responses, kernel_trace,
                   _mem_factory=None):
    """:func:`_match_records` on columns (the numpy kernel's path)."""
    np = soa.require_numpy()
    num_responses = len(responses)
    rows = np.arange(num_responses + len(originals), dtype=np.int64)
    key = soa.int_column(
        [e.key for e in responses] + [e.key for e in originals]
    )
    real = np.ones(len(rows), dtype=bool)
    real[:num_responses] = [not e.is_dummy for e in responses]
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
    return list(zip(
        (order[kept] - num_responses).tolist(), answer[kept].tolist()
    ))
