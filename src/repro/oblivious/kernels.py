"""Oblivious kernels: pluggable python/numpy executors for the data plane.

Snoopy's per-epoch cost is dominated by three oblivious building blocks —
bitonic sort (§4.2.1), Goodrich order-preserving compaction, and the
subORAM's linear scan over the two-tier hash table (Figure 19).  All
three are *oblivious* precisely because their memory-touch schedule is a
public function of the input sizes alone; the data only decides which of
two values lands in each fixed slot.  That is also exactly the property
that makes them vectorizable: a whole sort level or routing layer is a
fixed handful of whole-array operations over every cell.

Selector semantics
==================

Every data-plane entry point (``SnoopyConfig``, ``SubOram``,
``generate_batches``, ``match_responses``, the CLI and the benchmarks)
accepts ``kernel="python" | "numpy"``:

* ``"python"`` — the reference oracle.  It delegates to the original
  one-comparator/one-slot implementations (``bitonic_sort``,
  ``goodrich_compact``, the interleaved Figure 19 loop), so it remains
  compatible with element-granular ``mem_factory`` tracing
  (:class:`repro.oblivious.memory.TracedMemory`) and with the security
  simulator's predicted traces.
* ``"numpy"`` — the columnar fast path.  Sort and compaction each run on
  *one packed int64 column* — ``(key ‖ input index)`` for the sort,
  ``(remaining distance ‖ source index)`` for the compaction — and
  return an index permutation, so the stages around them
  (``generate_batches``, the table build/scan/extract inside
  ``SubOram.batch_access``, ``match_responses``) exchange permutations
  over the columns of the :class:`~repro.oblivious.soa.Batch` they were
  handed and gather its rows once.

Both kernels sort by the *total* key ``(columns..., input position)``:
no two keys tie, so the two kernels agree by construction (and the sort
is stable) instead of the fast path having to mimic the network's tie
behaviour.

Call sites resolve the selector with
``resolve_kernel(kernel, mem_factory)``: passing a ``mem_factory``
forces the python kernel, because element-granular tracing is only
meaningful for the scalar reference path.

What the numpy kernel's schedule guarantees
===========================================

The element-granular trace (every ``R i``/``W j``) is the natural oracle
for scalar code; below a level boundary "which Python-level index was
read first" has no meaning for whole-array code.  The property the
numpy kernel holds instead is stronger than sharing the level schedule:
**every level reads and writes every cell** — a bitonic level is a fixed
partner gather (``i ^ j``), a ``minimum``, a ``maximum`` and a select by
a precomputed mask; a Goodrich layer is one shifted select — and every
level runs unconditionally, so the sequence of array operations and
their shapes is a function of ``n`` only.  No layer is skipped because
nothing moves, and no gather or scatter is sized by a secret-dependent
mask.  ``tests/test_kernels.py`` counts the operations to pin this.  The
one exception is public-by-range, not by-content: sort columns whose
combined width exceeds one 62-bit word (keys spanning more than ~2^44)
are sorted by the reference kernel instead.

Both kernels also record a :class:`KernelTrace` — events like
``("sort_level", m, level_index, num_comparators)``,
``("compact_level", m, offset)`` and ``("scan_slot", object_index,
lookup_row)`` — and the property tests assert that the python and numpy
kernels emit *identical* traces for the same public sizes and that the
trace is unchanged across different secret inputs of the same shape.
Together with byte-identical outputs, that pins the columnar path to
the same public schedule as the audited reference path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.oblivious import soa
from repro.oblivious.compact import goodrich_compact
from repro.oblivious.primitives import and_bit, eq_bit, o_select
from repro.oblivious.sort import bitonic_sort, bitonic_sort_depth
from repro.utils.bits import next_pow2


class KernelTrace:
    """Level-granular schedule recorder shared by both kernels.

    Events are plain tuples appended in execution order; equality of two
    traces means the two executions followed the same public schedule at
    the level granularity (see the module docstring for why that is the
    right oracle for vectorized code).
    """

    def __init__(self):
        self.events: List[tuple] = []

    def record(self, *event) -> None:
        """Append one schedule event (a tuple of public quantities)."""
        self.events.append(tuple(event))

    def __eq__(self, other) -> bool:
        if isinstance(other, KernelTrace):
            return self.events == other.events
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        return f"KernelTrace({len(self.events)} events)"


@dataclass
class ScanTable:
    """Structure-of-arrays view of the hash-table slots for the scan kernel.

    One entry per table slot, in slot order: the batch key, an occupancy
    bit (0 for structural filler slots), the request's write and
    permission bits, and the optional write payload.  The reference
    :meth:`PythonKernel.scan` takes Python lists (``values`` holds
    ``None`` for "no payload"); :meth:`NumpyKernel.scan_soa` takes the
    same fields as columns — int64 keys, bool bits, ``values`` a
    ``(slots, value_size)`` uint8 matrix and ``has_value`` the bool
    column marking the rows that carry a payload — which the subORAM
    gathers straight from the batch's columns.
    """

    keys: Sequence[int]
    occupied: Sequence[int]
    is_write: Sequence[int]
    permitted: Sequence[int]
    values: Sequence[Optional[bytes]]
    has_value: Optional[Sequence[int]] = None


class Kernel:
    """Base class for the oblivious kernels.

    A kernel bundles the data-plane primitives behind one interface:
    lexicographic oblivious ``sort`` over int columns and Goodrich
    ``compact_full``/``compact``; the Figure 19 scan is
    :meth:`PythonKernel.scan` over record lists (the reference) and
    :meth:`NumpyKernel.scan_soa` over columns.
    Instances are stateless and picklable, so they travel with subORAM
    state into worker snapshots.  Both kernels compute the same
    permutation of ``items``; the numpy kernel also accepts ``items``
    (and ``flags``) as ndarrays and then returns the permuted ndarray.
    """

    #: Registry name ("python" / "numpy").
    name = "abstract"
    #: True when the kernel runs whole-array operations (no mem_factory).
    vectorized = False

    def sort(self, items: Sequence, columns: Sequence[Sequence[int]],
             mem_factory=None, trace: Optional[KernelTrace] = None) -> List:
        """Obliviously sort ``items`` by the int ``columns``, lexicographic.

        The key is made total by appending each row's input position, so
        ties keep input order (the sort is stable) and both kernels
        agree by construction rather than by sharing a tie rule.
        """
        raise NotImplementedError

    def compact_full(self, items: Sequence, flags: Sequence[int],
                     mem_factory=None,
                     trace: Optional[KernelTrace] = None) -> List:
        """Goodrich compaction returning the full ``len(items)`` array.

        The flagged items come first, in order; what fills the cells
        after them is unspecified.
        """
        raise NotImplementedError

    def compact(self, items: Sequence, flags: Sequence[int], mem_factory=None,
                trace: Optional[KernelTrace] = None) -> List:
        """Compact and truncate to exactly the ``sum(flags)`` kept items."""
        if hasattr(flags, "dtype"):
            kept = int(flags.astype(bool).sum())
        else:
            kept = sum(1 for f in flags if f)
        return self.compact_full(
            items, flags, mem_factory=mem_factory, trace=trace
        )[:kept]


def _pair_key(pair):
    """Sort key for the python kernel's (key_tuple, item) decoration."""
    return pair[0]


def _record_sort(trace: Optional[KernelTrace], n: int, m: int) -> None:
    if trace is None:
        return
    trace.record("sort", n, m)
    for level_index in range(bitonic_sort_depth(m)):
        trace.record("sort_level", m, level_index, m // 2)


def _record_compact(trace: Optional[KernelTrace], n: int, m: int) -> None:
    if trace is None:
        return
    trace.record("compact", n, m)
    offset = 1
    while offset < m:
        trace.record("compact_level", m, offset)
        offset <<= 1


class PythonKernel(Kernel):
    """The pure-Python reference kernel — the audited oracle.

    Delegates to the original scalar implementations, so its element
    trace (via ``mem_factory``) and its store-access schedule are exactly
    the ones the obliviousness tests and the security simulator audit.
    """

    name = "python"
    vectorized = False

    def sort(self, items, columns, mem_factory=None, trace=None):
        """Sort via the scalar :func:`~repro.oblivious.sort.bitonic_sort`."""
        items = list(items)
        n = len(items)
        m = next_pow2(max(1, n))
        _record_sort(trace, n, m)
        cols = [list(col) for col in columns]
        pairs = [
            (tuple(col[i] for col in cols) + (i,), items[i])
            for i in range(n)
        ]
        ordered = bitonic_sort(pairs, key=_pair_key, mem_factory=mem_factory)
        return [item for _, item in ordered]

    def compact_full(self, items, flags, mem_factory=None, trace=None):
        """Compact via the scalar :func:`~repro.oblivious.compact.goodrich_compact`."""
        _record_compact(trace, len(items), next_pow2(max(1, len(items))))
        return goodrich_compact(items, flags, mem_factory=mem_factory)

    def scan(self, obj_keys, obj_values, value_size, lookup, table,
             trace=None):
        """Scalar Figure 19 scan: two oblivious compare-and-sets per slot.

        The record-list reference for :meth:`NumpyKernel.scan_soa`.
        ``lookup[o]`` is object ``o``'s fixed row of table-slot indices
        (its two candidate buckets) — a public quantity derived from the
        PRF.  Returns ``(new_obj_values, slot_matched, slot_responses)``:
        the post-scan store values, a 0/1 matched bit per table slot, and
        each slot's response value (the *pre-scan* object value for
        matched slots, the original entry value otherwise).
        """
        num_slots = len(table.keys)
        if trace is not None:
            trace.record("scan", len(obj_keys), num_slots)
        matched = [0] * num_slots
        responses = list(table.values)
        new_values = list(obj_values)
        for o in range(len(obj_keys)):
            row = list(lookup[o])
            if trace is not None:
                trace.record("scan_slot", o, tuple(row))
            obj_key = obj_keys[o]
            obj_value = new_values[o]
            for t in row:
                if not table.occupied[t]:
                    # Structural filler slot: perform a dummy access so the
                    # touch count per bucket is fixed.
                    _ = o_select(0, obj_value, obj_value)
                    continue
                match = eq_bit(table.keys[t], obj_key)
                matched[t] = o_select(match, matched[t], 1)
                prior = obj_value
                has_value = 0 if table.values[t] is None else 1
                apply_bit = and_bit(
                    match,
                    and_bit(
                        table.is_write[t],
                        and_bit(table.permitted[t], has_value),
                    ),
                )
                obj_value = o_select(
                    apply_bit,
                    obj_value,
                    table.values[t] if table.values[t] is not None else obj_value,
                )
                responses[t] = o_select(match, responses[t], prior)
            new_values[o] = obj_value
        return new_values, matched, responses


# Per-thread kernel scratch.  The singleton kernels are shared by every
# deployment in the process *and* by the thread backend's workers, so the
# epoch-reused arrays live in a thread-local dict (see soa.scratch_array)
# rather than on the kernel instance — which also keeps kernels stateless
# and picklable.
_TLS = threading.local()


def _scratch(name: str, m: int, dtype):
    """An epoch-reused uninitialized length-``m`` array of this thread."""
    scratch = getattr(_TLS, "scratch", None)
    if scratch is None:
        scratch = _TLS.scratch = {}
    return soa.scratch_array(scratch, name, (m,), dtype)


def _reject_mem_factory(mem_factory) -> None:
    if mem_factory is not None:
        raise ConfigurationError(
            "mem_factory (element-granular tracing) requires the "
            "python kernel"
        )


def _packed_sort_keys(m: int, n: int, cols):
    """One int64 word per row, or ``None`` when the columns don't fit.

    The total key ``(pad_bit, col_1, ..., col_k, input index)`` is packed
    as a mixed-radix integer: each column is shifted to start at its
    minimum (a monotone shift preserves per-column order) and assigned
    just enough bits for its range, with the padding bit above all of
    them and the row's own index in the low ``log2(m)`` bits.  Packing
    is order-isomorphic to the python kernel's tuple compare, and the
    index makes every word distinct, so a comparator is exactly a
    ``minimum``/``maximum`` pair.
    """
    index_bits = m.bit_length() - 1
    total_bits = index_bits
    shifted = []
    for col in cols:
        lo = int(col.min()) if n else 0
        width = max(1, (int(col.max()) - lo).bit_length()) if n else 1
        total_bits += width
        if total_bits > 62:
            return None
        shifted.append((col - lo, width))
    packed = _scratch("sort_packed", m, np.int64)
    packed[:n] = 0
    for col, width in shifted:
        packed[:n] <<= width
        packed[:n] |= col
    packed[n:] = np.int64(1) << (total_bits - index_bits)
    packed <<= index_bits
    packed |= np.arange(m, dtype=np.int64)
    return packed


@lru_cache(maxsize=8)
def _level_arrays(m: int):
    """Per-level ``(partner, take_min)`` columns of a size-``m`` network.

    Level ``(k, j)`` of the bitonic schedule pairs cell ``i`` with
    ``i ^ j``; the cell keeps the smaller word when it is the lower end
    of an ascending comparator or the upper end of a descending one.
    Both columns are computed arithmetically from the cell index (no
    per-comparator Python objects), shared read-only between threads,
    and bounded to the few sizes a deployment replays every epoch.
    """
    idx = np.arange(m, dtype=np.int64)
    levels = []
    k = 2
    while k <= m:
        j = k // 2
        while j >= 1:
            partner = idx ^ j
            take_min = ((idx & j) == 0) == ((idx & k) == 0)
            partner.setflags(write=False)
            take_min.setflags(write=False)
            levels.append((partner, take_min))
            j //= 2
        k *= 2
    return tuple(levels)


class NumpyKernel(Kernel):
    """Columnar fast path: a fixed handful of whole-array ops per level.

    Sort and compaction run on one packed int64 column and hand back an
    *index permutation*; ``items`` may be a list (permuted into a new
    list) or an ndarray (permuted by one gather), so columnar callers
    never materialize per-record objects.  Outputs are byte-identical to
    :class:`PythonKernel` — ``tests/test_kernels.py`` enforces this —
    and every level body executes the same operations on the same shapes
    whatever the data.
    """

    name = "numpy"
    vectorized = True

    def sort(self, items, columns, mem_factory=None, trace=None):
        """Each bitonic level: partner gather, min/max, select by mask."""
        _reject_mem_factory(mem_factory)
        n = len(items)
        m = next_pow2(max(1, n))
        cols = [np.asarray(col, dtype=np.int64) for col in columns]
        packed = _packed_sort_keys(m, n, cols)
        if packed is None:
            # Columns wider than one word (keys spanning > ~2^44): the
            # reference kernel sorts the index column instead.
            order = KERNELS["python"].sort(range(n), columns, trace=trace)
            return soa.take(items, np.asarray(order, dtype=np.int64))
        if trace is not None:
            trace.record("sort", n, m)
        other = _scratch("sort_other", m, np.int64)
        low = _scratch("sort_low", m, np.int64)
        for level_index, (partner, take_min) in enumerate(_level_arrays(m)):
            if trace is not None:
                trace.record("sort_level", m, level_index, m // 2)
            np.take(packed, partner, out=other, mode="clip")
            np.minimum(packed, other, out=low)
            np.maximum(packed, other, out=other)
            packed = np.where(take_min, low, other)
        return soa.take(items, packed[:n] & np.int64(m - 1))

    def compact_full(self, items, flags, mem_factory=None, trace=None):
        """Each Goodrich layer: one shifted select over every cell.

        A cell's word is ``(remaining distance, source index)``; dropped
        and padding cells have distance 0.  In layer ``k`` the cells
        whose distance has bit ``k`` set are the movers: cell ``i`` takes
        the word of cell ``i + 2^k`` (bit cleared) if that one moves,
        is vacated if only its own word moves, and is kept otherwise —
        a mover never lands on a kept non-mover (Goodrich's invariant).
        Every layer runs, and touches every cell, whatever the flags.
        The cells past the kept prefix hold unspecified source indices.
        """
        _reject_mem_factory(mem_factory)
        n = len(items)
        if n != len(flags):
            raise ValueError(
                f"items ({n}) and flags ({len(flags)}) length mismatch"
            )
        m = next_pow2(max(1, n))
        if trace is not None:
            trace.record("compact", n, m)
        index_bits = m.bit_length() - 1
        flag = _scratch("compact_flag", m, np.int64)
        flag[:n] = np.asarray(flags, dtype=bool)
        flag[n:] = 0
        idx = np.arange(m, dtype=np.int64)
        word = ((idx - np.cumsum(flag) + flag) * flag << index_bits) | idx
        bits = _scratch("compact_bits", m, np.int64)
        mover = _scratch("compact_mover", m, bool)
        moved = _scratch("compact_moved", m, np.int64)
        offset = 1
        while offset < m:
            if trace is not None:
                trace.record("compact_level", m, offset)
            bit = np.int64(offset << index_bits)
            np.bitwise_and(word, bit, out=bits)
            np.not_equal(bits, 0, out=mover)
            np.subtract(word, bit, out=moved)
            word = np.where(mover, 0, word)
            np.copyto(word[: m - offset], moved[offset:], where=mover[offset:])
            offset <<= 1
        return soa.take(items, word[:n] & np.int64(m - 1))

    def scan_soa(self, okeys, ovals, buckets, table, trace=None):
        """Figure 19 scan over SoA columns, one bucket block per tier.

        ``okeys`` is the int64 store-key column, ``ovals`` the uint8
        value matrix (one row per store object); ``table`` is a
        :class:`ScanTable` of per-slot columns; ``buckets`` is
        :meth:`~repro.oblivious.hashtable.TwoTierHashTable.bucket_blocks`
        — per tier, in slot order, ``(bucket_ids, num_buckets,
        bucket_size)``.  Each tier's key, occupancy and write columns
        are viewed as ``(num_buckets, bucket_size)`` blocks, every object
        gathers its whole bucket row from each and compares it with its
        key, and a hit's slot is ``first + bucket * bucket_size +
        column``.  Writes the post-scan values into ``ovals`` in place,
        one select over every row on the widest unsigned word dividing
        ``value_size`` (uint64 at 160 bytes, uint8 at any odd size: a
        function of ``value_size`` only), and returns
        ``(slot_matched, slot_responses)``: a bool per table slot and the
        per-slot response matrix (the *pre-scan* object value in matched
        rows, the slot's own payload otherwise).  Correct without
        per-slot sequencing because batch keys are distinct and store
        keys are distinct: every object matches at most one slot and
        every slot at most one object, so the masked writes commute with
        the scalar loop's order.
        """
        num_objects = int(okeys.shape[0])
        num_slots = int(table.keys.shape[0])
        if trace is not None:
            trace.record("scan", num_objects, num_slots)
        writes = table.is_write & table.permitted & table.has_value
        hits, bases, sizes = [], [], []
        first = 0
        for ids, num_buckets, size in buckets:
            tier = slice(first, first + num_buckets * size)

            def rows(column):
                return column[tier].reshape(num_buckets, size)[ids]

            hit = rows(table.keys) == okeys[:, None]
            hit &= rows(table.occupied)
            hits.append(hit)
            bases.append(first + ids * size)
            sizes.append(size)
            first += num_buckets * size
        # Column c of a probe row is slot base[tier_of[c]] + within[c].
        tier_of = np.repeat(np.arange(len(sizes)), sizes)
        within = np.concatenate([np.arange(size) for size in sizes])
        base = np.stack(bases, axis=1)
        objects = np.arange(num_objects)
        if trace is not None:
            for o in range(num_objects):
                trace.record("scan_slot", o,
                             tuple((base[o, tier_of] + within).tolist()))
        # One probe: an object hits at most one slot (distinct store keys,
        # distinct batch keys), so its first hit column is its slot; an
        # unmatched row reads its first column's slot and is masked out.
        match = np.concatenate(hits, axis=1)
        col = np.argmax(match, axis=1)
        slot = base[objects, tier_of[col]] + within[col]
        hit = match.any(axis=1)
        # Response path: matched slots capture the *pre-scan* object value.
        # Every object scatters, the unmatched ones onto one sink row.
        m_slot = np.where(hit, slot, num_slots)
        matched = np.zeros(num_slots + 1, dtype=bool)
        matched[m_slot] = True
        responses = np.empty(
            (num_slots + 1, ovals.shape[1]), dtype=ovals.dtype
        )
        responses[:num_slots] = table.values
        responses[m_slot] = ovals
        # Write path: the object's new value is the matched write payload.
        # Every row gathers its slot's payload and selects on its bit:
        # the work is a function of the shapes.
        word = np.dtype(f"u{math.gcd(ovals.shape[1], 8)}")
        np.copyto(
            ovals.view(word),
            table.values.view(word)[slot],
            where=(hit & writes[slot])[:, None],
        )
        return matched[:num_slots], responses[:num_slots]


#: Singleton kernel instances, keyed by selector name.
KERNELS = {
    "python": PythonKernel(),
    "numpy": NumpyKernel(),
}

#: The kernel axis' one default: what ``SnoopyConfig`` and every
#: constructor that is not told otherwise resolve to.  ``"python"`` is
#: the reference oracle and is named explicitly where it is wanted.
DEFAULT_KERNEL = "numpy"


def validate_kernel_name(name: str) -> str:
    """Check a kernel selector at configuration time; return it unchanged."""
    if name not in KERNELS:
        raise ConfigurationError(
            f"unknown kernel {name!r}; valid kernels: {sorted(KERNELS)}"
        )
    return name


def resolve_kernel(kernel: Union[str, Kernel, None],
                   mem_factory=None) -> Kernel:
    """Resolve a kernel selector (name, instance, or ``None``) to a kernel.

    ``None`` resolves to :data:`DEFAULT_KERNEL`.  A ``mem_factory``
    forces the python kernel, since element-granular tracing only exists
    on the scalar path.
    """
    if mem_factory is not None:
        return KERNELS["python"]
    if kernel is None:
        kernel = DEFAULT_KERNEL
    if isinstance(kernel, Kernel):
        return kernel
    return KERNELS[validate_kernel_name(kernel)]
