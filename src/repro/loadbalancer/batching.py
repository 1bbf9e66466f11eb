"""Oblivious batch generation (Figure 5 / Figure 25).

The pipeline, all of whose access patterns depend only on the public pair
``(R, S)`` and the security parameter:

➊ a fixed scan assigns each request its subORAM via the keyed hash;
➋ exactly ``B = f(R, S)`` dummy requests per subORAM are appended
  (dummy ids come from a reserved id space so they never collide with
  client keys or with each other);
➌ one oblivious sort groups entries by subORAM, placing real requests
  before dummies and duplicate keys adjacently, ordered so the
  *last-write-wins* representative of each duplicate group sorts last;
➍ a fixed scan marks, per subORAM, the representative of each distinct
  key and enough dummies to reach exactly ``B`` kept entries, and
  oblivious compaction drops the rest.

The output is one ``B``-row :class:`~repro.oblivious.soa.Batch` per
subORAM, so batch sizes (and, the rows being fixed-width, the bytes they
encode to) leak nothing; a request is dropped only in the
cryptographically negligible overflow event, which raises
:class:`~repro.errors.BatchOverflowError` instead of silently retrying
(a retry would leak, §4.1).

The requests arrive as one :class:`Batch` — the rows the balancer's
queue drained, decoded straight from the clients' frames — and stay
columns: the numpy kernel sorts and compacts index permutations over
them and the ``S * B`` kept rows are one ``take``.  The python kernel, the traced
reference, computes on the record view (:func:`_dedupe_records`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.analysis.balls_bins import batch_size
from repro.crypto.prf import Prf
from repro.errors import BatchOverflowError
from repro.oblivious.kernels import resolve_kernel
from repro.oblivious.primitives import and_bit, lt_bit, not_bit, o_select
from repro.oblivious.soa import Batch
from repro.telemetry import resolve_telemetry
from repro.telemetry.kernelbridge import TimedKernelTrace, flush_kernel_trace
from repro.types import OpType, Request

# Reserved id space for load-balancer dummy requests: far below any
# plausible client key and disjoint from hash-table spill fillers (-2^62-).
_DUMMY_ID_BASE = 2**61


def dummy_key(suboram: int, index: int) -> int:
    """Unique dummy id for the ``index``-th dummy of a subORAM's batch."""
    return -(_DUMMY_ID_BASE + suboram * 2**20 + index)


def generate_batches(
    requests: Union[Batch, Sequence[Request]],
    num_suborams: int,
    sharding_key: bytes,
    security_parameter: int = 128,
    mem_factory=None,
    permissions=None,
    kernel=None,
    telemetry=None,
    *,
    value_size: int,
) -> Tuple[List[Batch], Batch, int]:
    """Build one fixed-size batch per subORAM from an epoch's requests.

    Args (beyond the obvious):
        requests: the epoch's requests in arrival order: the drained
            :class:`Batch` (its ``arrival`` column is renumbered), or a
            sequence of :class:`Request` records.
        permissions: optional ``{(client_id, seq): 0/1}`` access-control
            bits from the §D recursive ACL lookup; missing pairs default
            to permitted.
        kernel: oblivious-kernel selector for the sort and compaction
            (see :mod:`repro.oblivious.kernels`); ``mem_factory`` forces
            the python kernel.
        telemetry: optional :class:`~repro.telemetry.Telemetry` handle;
            times the pipeline steps into
            ``snoopy_lb_stage_seconds{stage=route|pad|sort|dedupe}`` and
            records per-level kernel timings through the trace seam.
        value_size: the store's fixed object size in bytes — the width
            of every batch's value column.

    Returns:
        (batches, originals, batch_size) where ``batches[s]`` is subORAM
        ``s``'s batch of exactly ``B`` rows, ``originals`` holds the
        client requests in arrival order for response matching, and
        ``batch_size`` is ``B = f(R, S)``.

    Raises:
        BatchOverflowError: more than ``B`` distinct keys hashed to one
            subORAM (probability <= 2^-lambda by Theorem 3).
        CapacityError: a request that intake should have refused.
    """
    prf = Prf(sharding_key)
    kern = resolve_kernel(kernel, mem_factory)
    telemetry = resolve_telemetry(telemetry)
    kernel_trace = TimedKernelTrace() if telemetry.enabled else None
    size = batch_size(len(requests), num_suborams, security_parameter)

    # ➊ Assign subORAMs (one keyed hash per request, arrival order).
    with telemetry.time("snoopy_lb_stage_seconds", stage="route"):
        originals = (
            requests if isinstance(requests, Batch)
            else Batch.from_requests(requests, value_size)
        )
        columns = {
            "arrival": np.arange(len(originals)),
            "suboram": prf.range_many(originals.key, num_suborams),
        }
        if permissions is not None:
            # A missing (client_id, seq) pair is permitted.
            columns["permitted"] = np.array([
                permissions.get(pair, 1) for pair in zip(
                    originals.client_id.tolist(), originals.seq.tolist()
                )
            ], dtype=bool)
        originals = originals.replace(**columns)

    # ➋ Append B dummies per subORAM.
    with telemetry.time("snoopy_lb_stage_seconds", stage="pad"):
        padded = Batch.concat(
            [originals, _dummies(num_suborams, size, value_size)]
        )
        # Dummy ids are far outside the client key range, so dummies sort
        # by the dense ``-index`` instead (the same order) and the packed
        # sort key stays one machine word.
        sort_key = padded.key.copy()
        sort_key[len(originals):] = -np.tile(np.arange(size), num_suborams)

    dedupe = _dedupe_columns if kern.vectorized else _dedupe_records
    kept, dropped_real = dedupe(
        kern, padded, sort_key, size, kernel_trace, telemetry, mem_factory
    )
    if dropped_real:
        raise BatchOverflowError(
            f"{dropped_real} distinct request(s) exceeded batch size "
            f"{size}; probability <= 2^-{security_parameter} under "
            "Theorem 3"
        )
    if kernel_trace is not None:
        flush_kernel_trace(telemetry.registry, kernel_trace, kern.name)
    assert len(kept) == num_suborams * size

    batches = [
        kept.take(slice(s * size, (s + 1) * size))
        for s in range(num_suborams)
    ]
    return batches, originals, size


def _dummies(num_suborams: int, size: int, value_size: int) -> Batch:
    """``size`` dummy reads per subORAM, in subORAM order."""
    suboram = np.repeat(np.arange(num_suborams), size)
    index = np.tile(np.arange(size), num_suborams)
    return Batch.filled(
        num_suborams * size, value_size,
        key=dummy_key(suboram, index),
        is_dummy=np.ones(num_suborams * size, dtype=bool),
        suboram=suboram,
    )


def _dedupe_records(kern, padded, sort_key, size, kernel_trace, telemetry,
                    mem_factory):
    """Steps ➌–➍ record by record (the traced reference path).

    Returns the ``S * B`` kept rows and the count of distinct real
    requests that did not fit.
    """
    working = padded.entries()
    # ➌ Oblivious sort: group by subORAM; reals before dummies; duplicate
    # keys adjacent with the last-write-wins representative sorting last
    # (reads before writes, then arrival order — the input position that
    # makes every kernel sort key total).
    with telemetry.time("snoopy_lb_stage_seconds", stage="sort"):
        working = kern.sort(
            working,
            columns=[
                [e.suboram for e in working],
                [int(e.is_dummy) for e in working],
                sort_key.tolist(),
                [int(e.op is OpType.WRITE) for e in working],
            ],
            mem_factory=mem_factory,
            trace=kernel_trace,
        )

    # ➍ Fixed scan marking keeps; compact.  An entry is the representative
    # of its key iff the next entry differs in (suboram, is_dummy, key).
    with telemetry.time("snoopy_lb_stage_seconds", stage="dedupe"):
        keep_flags: List[int] = []
        kept_in_suboram = 0
        current_suboram = -1
        dropped_real = 0
        for i, entry in enumerate(working):
            new_suboram = int(entry.suboram != current_suboram)
            kept_in_suboram = o_select(new_suboram, kept_in_suboram, 0)
            current_suboram = entry.suboram

            if i + 1 < len(working):
                nxt = working[i + 1]
                is_last_of_key = not_bit(
                    and_bit(
                        int(nxt.suboram == entry.suboram),
                        and_bit(
                            int(nxt.is_dummy == entry.is_dummy),
                            int(nxt.key == entry.key),
                        ),
                    )
                )
            else:
                is_last_of_key = 1

            keep = and_bit(is_last_of_key, lt_bit(kept_in_suboram, size))
            keep_flags.append(keep)
            kept_in_suboram += keep
            dropped_real += and_bit(
                is_last_of_key,
                and_bit(not_bit(keep), not_bit(int(entry.is_dummy))),
            )
        kept = kern.compact(
            working, keep_flags, mem_factory=mem_factory, trace=kernel_trace
        )
    return Batch.from_entries(kept, padded.value_size), dropped_real


def _dedupe_columns(kern, padded, sort_key, size, kernel_trace, telemetry,
                    _mem_factory=None):
    """:func:`_dedupe_records` on the batch's columns (the numpy kernel).

    The kernels exchange index permutations over ``padded``'s rows; the
    kept rows are gathered once at the end.
    """
    rows = np.arange(len(padded), dtype=np.int64)
    with telemetry.time("snoopy_lb_stage_seconds", stage="sort"):
        order = kern.sort(
            rows,
            [padded.suboram, padded.is_dummy, sort_key, padded.is_write],
            trace=kernel_trace,
        )
    with telemetry.time("snoopy_lb_stage_seconds", stage="dedupe"):
        suboram = padded.suboram[order]
        dummy = padded.is_dummy[order]
        key = sort_key[order]
        last_of_key = np.ones(len(rows), dtype=bool)
        last_of_key[:-1] = (
            (suboram[1:] != suboram[:-1])
            | (dummy[1:] != dummy[:-1])
            | (key[1:] != key[:-1])
        )
        # Rank of each representative within its subORAM: representatives
        # before it, minus those before its subORAM's first row.
        before = np.cumsum(last_of_key) - last_of_key
        first = np.ones(len(rows), dtype=bool)
        first[1:] = suboram[1:] != suboram[:-1]
        rank = before - np.maximum.accumulate(np.where(first, before, 0))
        keep = last_of_key & (rank < size)
        dropped_real = int((last_of_key & ~keep & ~dummy).sum())
        kept = kern.compact(order, keep, trace=kernel_trace)
        return padded.take(kept), dropped_real
