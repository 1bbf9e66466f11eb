"""Oblivious kernels: pluggable python/numpy executors for the data plane.

Snoopy's per-epoch cost is dominated by three oblivious building blocks —
bitonic sort (§4.2.1), Goodrich order-preserving compaction, and the
subORAM's linear scan over the two-tier hash table (Figure 19).  All
three are *oblivious* precisely because their memory-touch schedule is a
public function of the input sizes alone; the data only decides which of
two values lands in each fixed slot.  That is also exactly the property
that makes them vectorizable: a whole sort level, routing layer, or scan
batch can be executed as one masked whole-array operation without
changing a single address in the public schedule.

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
* ``"numpy"`` — the structure-of-arrays fast path.  Keys become
  ``int64`` columns, values a ``uint8`` matrix
  (:mod:`repro.oblivious.soa`), and each network level is applied as one
  masked gather/scatter.  When NumPy is not installed, requesting
  ``"numpy"`` falls back to ``"python"`` with a ``RuntimeWarning``
  instead of crashing.

Call sites resolve the selector with
``resolve_kernel(kernel, mem_factory)``: passing a ``mem_factory``
forces the python kernel, because element-granular tracing is only
meaningful for the scalar reference path.

Why level-granular traces are the right obliviousness oracle
============================================================

The element-granular trace (every ``R i``/``W j``) is the natural oracle
for scalar code, but a vectorized kernel performs each level as *one*
array operation — asking "which Python-level index was read first"
stops being meaningful below the level boundary, while the security
argument never needed it: bitonic sort's guarantee is that the
*comparator schedule* is a function of ``n`` only, and Goodrich's is
that every layer touches every slot in a fixed order.  The level is the
finest granularity at which the two implementations share an execution
structure, and it is exactly the granularity of the published schedule.

So both kernels can record a :class:`KernelTrace` — events like
``("sort_level", m, level_index, num_comparators)``,
``("compact_level", m, offset)`` and ``("scan_slot", object_index,
lookup_row)`` — and the property tests assert two things: the python and
numpy kernels emit *identical* traces for the same public sizes, and the
trace is unchanged across different secret inputs of the same shape.
Together with byte-identical outputs, that pins the vectorized path to
the same public schedule as the audited reference path.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.oblivious import soa
from repro.oblivious.compact import goodrich_compact
from repro.oblivious.primitives import and_bit, eq_bit, o_select
from repro.oblivious.sort import bitonic_sort, bitonic_sort_levels
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
    permission bits, and the optional write payload.  The subORAM builds
    this once per batch from :class:`~repro.oblivious.hashtable._Slot`
    items; both kernels consume the same view.
    """

    keys: List[int]
    occupied: List[int]
    is_write: List[int]
    permitted: List[int]
    values: List[Optional[bytes]]


class Kernel:
    """Base class for the oblivious kernels.

    A kernel bundles the three data-plane primitives behind one
    interface: lexicographic oblivious ``sort`` over int columns,
    Goodrich ``compact_full``/``compact``, and the Figure 19 ``scan``.
    Instances are stateless and picklable, so they travel with subORAM
    state across process backends.
    """

    #: Registry name ("python" / "numpy").
    name = "abstract"
    #: True when the kernel runs whole-array operations (no mem_factory).
    vectorized = False

    def sort(self, items: Sequence, columns: Sequence[Sequence[int]],
             mem_factory=None, trace: Optional[KernelTrace] = None) -> List:
        """Obliviously sort ``items`` by the int ``columns``, lexicographic."""
        raise NotImplementedError

    def compact_full(self, items: Sequence, flags: Sequence[int],
                     mem_factory=None,
                     trace: Optional[KernelTrace] = None) -> List:
        """Goodrich compaction returning the full ``len(items)`` array."""
        raise NotImplementedError

    def compact(self, items: Sequence, flags: Sequence[int], mem_factory=None,
                trace: Optional[KernelTrace] = None) -> List:
        """Compact and truncate to exactly the ``sum(flags)`` kept items."""
        kept = sum(1 for f in flags if f)
        return self.compact_full(
            items, flags, mem_factory=mem_factory, trace=trace
        )[:kept]

    def scan(self, obj_keys: Sequence[int], obj_values: Sequence[bytes],
             value_size: int, lookup: Sequence[Sequence[int]],
             table: ScanTable,
             trace: Optional[KernelTrace] = None) -> Tuple[list, list, list]:
        """Run the Figure 19 linear scan over every store object.

        ``lookup[o]`` is object ``o``'s fixed row of table-slot indices
        (its two candidate buckets) — a public quantity derived from the
        PRF.  Returns ``(new_obj_values, slot_matched, slot_responses)``:
        the post-scan store values, a 0/1 matched bit per table slot, and
        each slot's response value (the *pre-scan* object value for
        matched slots, the original entry value otherwise).
        """
        raise NotImplementedError


def _pair_key(pair):
    """Sort key for the python kernel's (key_tuple, item) decoration."""
    return pair[0]


def _record_sort(trace: Optional[KernelTrace], n: int, m: int) -> None:
    if trace is None:
        return
    trace.record("sort", n, m)
    for level_index, level in enumerate(bitonic_sort_levels(m)):
        trace.record("sort_level", m, level_index, len(level))


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
            (tuple(col[i] for col in cols), items[i]) for i in range(n)
        ]
        ordered = bitonic_sort(pairs, key=_pair_key, mem_factory=mem_factory)
        return [item for _, item in ordered]

    def compact_full(self, items, flags, mem_factory=None, trace=None):
        """Compact via the scalar :func:`~repro.oblivious.compact.goodrich_compact`."""
        _record_compact(trace, len(items), next_pow2(max(1, len(items))))
        return goodrich_compact(items, flags, mem_factory=mem_factory)

    def scan(self, obj_keys, obj_values, value_size, lookup, table,
             trace=None):
        """Scalar Figure 19 scan: two oblivious compare-and-sets per slot."""
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


def _kernel_scratch() -> dict:
    scratch = getattr(_TLS, "scratch", None)
    if scratch is None:
        scratch = _TLS.scratch = {}
    return scratch


def _perm_template(np, m: int):
    """Cached read-only ``arange(m)`` to copy fresh permutations from."""
    scratch = _kernel_scratch()
    key = ("perm_template", m)
    tmpl = scratch.get(key)
    if tmpl is None:
        tmpl = np.arange(m, dtype=np.int64)
        tmpl.setflags(write=False)
        scratch[key] = tmpl
    return tmpl


def _fresh_perm(np, m: int, name: str):
    """An epoch-reused identity permutation of size ``m``."""
    perm = soa.scratch_array(_kernel_scratch(), name, (m,), np.int64)
    np.copyto(perm, _perm_template(np, m))
    return perm


def _packed_sort_keys(np, m: int, n: int, cols):
    """One int64 sort key per row, or ``None`` when the columns don't fit.

    The lexicographic key ``(pad_bit, col_1, ..., col_k)`` is packed as a
    mixed-radix integer: each column is shifted to start at its minimum
    (a monotone shift preserves per-column order) and assigned just
    enough bits for its range, with the padding bit above all of them.
    Packing is order-isomorphic to the lexicographic compare, so every
    bitonic swap decision is unchanged.  Columns whose combined widths
    exceed an int64 (e.g. load-balancer sorts spanning the negative
    dummy-id space) fall back to the multi-row compare.
    """
    total_bits = 0
    shifted = []
    for col in cols:
        lo = int(col.min()) if n else 0
        span = int(col.max()) - lo if n else 0
        width = max(1, span.bit_length())
        total_bits += width
        if total_bits > 62:
            return None
        shifted.append((col - lo, width))
    packed = soa.scratch_array(_kernel_scratch(), "sort_packed", (m,), np.int64)
    packed.fill(0)
    real = packed[:n]
    for col, width in shifted:
        real <<= width
        real |= col
    packed[n:] = np.int64(1) << total_bits
    return packed


#: Cache of per-size numpy level index arrays: m -> [(i_idx, j_idx, asc)].
_LEVEL_CACHE: dict = {}


def _level_arrays(m: int):
    """Per-level (i, j, ascending) index arrays for a size-``m`` network."""
    cached = _LEVEL_CACHE.get(m)
    if cached is None:
        np = soa.require_numpy()
        cached = []
        for level in bitonic_sort_levels(m):
            i_idx = np.asarray([i for i, _, _ in level], dtype=np.int64)
            j_idx = np.asarray([j for _, j, _ in level], dtype=np.int64)
            asc = np.asarray([a for _, _, a in level], dtype=bool)
            cached.append((i_idx, j_idx, asc))
        _LEVEL_CACHE[m] = cached
    return cached


class NumpyKernel(Kernel):
    """Structure-of-arrays fast path: one masked array op per level.

    Produces byte-identical outputs to :class:`PythonKernel` — the
    property tests in ``tests/test_kernels.py`` enforce this — while
    executing each public schedule level as a single NumPy operation.
    """

    name = "numpy"
    vectorized = True

    def sort(self, items, columns, mem_factory=None, trace=None):
        """Apply each bitonic level as one masked gather/scatter."""
        if mem_factory is not None:
            raise ConfigurationError(
                "mem_factory (element-granular tracing) requires the "
                "python kernel"
            )
        np = soa.require_numpy()
        items = list(items)
        n = len(items)
        m = next_pow2(max(1, n))
        if trace is not None:
            trace.record("sort", n, m)
        if n <= 1:
            if trace is not None:
                for level_index, level in enumerate(bitonic_sort_levels(m)):
                    trace.record("sort_level", m, level_index, len(level))
            return items
        num_cols = len(columns)
        cols = [np.asarray(list(col), dtype=np.int64) for col in columns]
        packed = _packed_sort_keys(np, m, n, cols)
        perm = _fresh_perm(np, m, "sort_perm")
        if packed is not None:
            # All columns fit one int64: compare/swap a single vector per
            # level instead of num_cols + 1 rows.  The packing is order-
            # isomorphic to the lexicographic compare below, so every
            # swap decision — and hence the output — is identical.
            for level_index, (i_idx, j_idx, asc) in enumerate(
                _level_arrays(m)
            ):
                if trace is not None:
                    trace.record("sort_level", m, level_index, int(len(i_idx)))
                swap = (packed[i_idx] > packed[j_idx]) == asc
                ii = i_idx[swap]
                jj = j_idx[swap]
                tmp = packed[ii]
                packed[ii] = packed[jj]
                packed[jj] = tmp
                tmp_p = perm[ii]
                perm[ii] = perm[jj]
                perm[jj] = tmp_p
            return [items[p] for p in perm.tolist() if p < n]
        # Row 0 is the padding bit: real rows sort as (0, cols...), padding
        # as (1, 0, ...), reproducing the scalar path's sentinel ordering.
        keys = soa.scratch_array(
            _kernel_scratch(), "sort_keys", (num_cols + 1, m), np.int64
        )
        keys.fill(0)
        keys[0, n:] = 1
        for c, col in enumerate(cols):
            keys[c + 1, :n] = col
        for level_index, (i_idx, j_idx, asc) in enumerate(_level_arrays(m)):
            if trace is not None:
                trace.record("sort_level", m, level_index, int(len(i_idx)))
            a = keys[:, i_idx]
            b = keys[:, j_idx]
            # Lexicographic a > b across the key rows.
            gt = np.zeros(len(i_idx), dtype=bool)
            eq = np.ones(len(i_idx), dtype=bool)
            for row in range(num_cols + 1):
                gt |= eq & (a[row] > b[row])
                eq &= a[row] == b[row]
            swap = gt == asc
            ii = i_idx[swap]
            jj = j_idx[swap]
            tmp = keys[:, ii].copy()
            keys[:, ii] = keys[:, jj]
            keys[:, jj] = tmp
            tmp_p = perm[ii].copy()
            perm[ii] = perm[jj]
            perm[jj] = tmp_p
        return [items[p] for p in perm.tolist() if p < n]

    def compact_full(self, items, flags, mem_factory=None, trace=None):
        """Apply each Goodrich routing layer as one masked move.

        Within a layer the scalar loop chains left-cell reads (a record
        displaced from a mover position slides down the stride-``offset``
        chain).  The vectorized layer reproduces that exactly from the
        pre-layer state: movers are overwritten by the forward-filled
        chain-head value (the displaced filler), then each mover's record
        — distance decremented — lands ``offset`` slots left, and target
        writes win on conflict.  Flags must be 0/1 bits.
        """
        if mem_factory is not None:
            raise ConfigurationError(
                "mem_factory (element-granular tracing) requires the "
                "python kernel"
            )
        np = soa.require_numpy()
        items = list(items)
        flags = list(flags)
        if len(items) != len(flags):
            raise ValueError(
                f"items ({len(items)}) and flags ({len(flags)}) length mismatch"
            )
        n = len(items)
        m = next_pow2(max(1, n))
        if trace is not None:
            trace.record("compact", n, m)
        if n == 0:
            return []
        scratch = _kernel_scratch()
        flag = soa.scratch_array(scratch, "compact_flag", (m,), bool)
        flag.fill(False)
        flag[:n] = np.asarray([1 if f else 0 for f in flags], dtype=bool)
        rank_excl = soa.scratch_array(scratch, "compact_rank", (m,), np.int64)
        rank_excl[0] = 0
        rank_excl[1:] = np.cumsum(flag.astype(np.int64))[:-1]
        dist = np.where(flag, _perm_template(np, m) - rank_excl, 0)
        perm = _fresh_perm(np, m, "compact_perm")
        offset = 1
        while offset < m:
            if trace is not None:
                trace.record("compact_level", m, offset)
            k = offset.bit_length() - 1
            mover = flag & ((dist >> k) & 1).astype(bool)
            if mover.any():
                rows = m // offset
                pre_f = flag.reshape(rows, offset)
                pre_d = dist.reshape(rows, offset)
                pre_p = perm.reshape(rows, offset)
                mv = mover.reshape(rows, offset)
                row_idx = np.broadcast_to(
                    np.arange(rows, dtype=np.int64)[:, None], mv.shape
                )
                # Forward-fill the most recent non-mover row per column;
                # row 0 is never a mover (distance >= offset implies
                # position >= offset), so the fill never underflows.
                last_nm = np.maximum.accumulate(
                    np.where(mv, np.int64(-1), row_idx), axis=0
                )
                prev_last = np.empty_like(last_nm)
                prev_last[0] = 0
                prev_last[1:] = last_nm[:-1]
                src_rows = np.where(mv, prev_last, row_idx)
                new_f = np.take_along_axis(pre_f, src_rows, axis=0)
                new_d = np.take_along_axis(pre_d, src_rows, axis=0)
                new_p = np.take_along_axis(pre_p, src_rows, axis=0)
                mr, mc = np.nonzero(mv)
                new_f[mr - 1, mc] = pre_f[mr, mc]
                new_d[mr - 1, mc] = pre_d[mr, mc] - offset
                new_p[mr - 1, mc] = pre_p[mr, mc]
                flag = new_f.reshape(m)
                dist = new_d.reshape(m)
                perm = new_p.reshape(m)
            offset <<= 1
        payloads = items + [None] * (m - n)
        return [payloads[p] for p in perm.tolist()][:n]

    def scan(self, obj_keys, obj_values, value_size, lookup, table,
             trace=None):
        """Branchless masked Figure 19 scan across the whole batch dimension.

        Packs the Python-object inputs into SoA columns, delegates to
        :meth:`scan_soa`, and unpacks — the store's batch path skips the
        packing entirely by calling :meth:`scan_soa` with columns that
        came straight out of the contiguous ciphertext buffers.
        """
        np = soa.require_numpy()
        num_objects = len(obj_keys)
        num_slots = len(table.keys)
        if num_objects == 0 or num_slots == 0:
            if trace is not None:
                trace.record("scan", num_objects, num_slots)
                for o in range(num_objects):
                    trace.record("scan_slot", o, tuple(lookup[o]))
            return list(obj_values), [0] * num_slots, list(table.values)
        okeys = soa.int_column(obj_keys)
        ovals, _ = soa.values_to_matrix(list(obj_values), value_size)
        new_ovals, matched, responses = self.scan_soa(
            okeys, ovals, lookup, table, trace=trace
        )
        new_values = soa.matrix_to_values(
            new_ovals, np.ones(num_objects, dtype=bool)
        )
        return new_values, matched, responses

    def scan_soa(self, okeys, ovals, lookup, table, trace=None):
        """Figure 19 scan over pre-packed SoA columns (the zero-copy core).

        ``okeys`` is the int64 store-key column, ``ovals`` the uint8
        value matrix (one row per store object); ``lookup`` is either the
        per-object index rows or an already-packed int64 matrix.  Returns
        ``(new_ovals_matrix, slot_matched, slot_responses)`` with the
        store values left in matrix form so the caller can re-encrypt
        them in one batched pass.  Correct without per-slot sequencing
        because batch keys are distinct and store keys are distinct:
        every object matches at most one slot and every slot at most one
        object, so the masked writes commute with the scalar loop's order.
        """
        np = soa.require_numpy()
        num_objects = int(okeys.shape[0])
        num_slots = len(table.keys)
        if trace is not None:
            trace.record("scan", num_objects, num_slots)
        if isinstance(lookup, np.ndarray):
            look = lookup.astype(np.int64, copy=False)
        else:
            look = np.asarray([list(row) for row in lookup], dtype=np.int64)
        if trace is not None:
            for o in range(num_objects):
                trace.record("scan_slot", o, tuple(int(x) for x in look[o]))
        tkeys = soa.int_column(table.keys)
        tocc = soa.bit_column(table.occupied)
        twrite = soa.bit_column(table.is_write)
        tperm = soa.bit_column(table.permitted)
        value_size = int(ovals.shape[1])
        tvals, thas = soa.values_to_matrix(table.values, value_size)
        match = tocc[look] & (tkeys[look] == okeys[:, None])
        # Write path: the object's new value is the matched write payload.
        write_hit = match & twrite[look] & tperm[look] & thas[look]
        write_any = write_hit.any(axis=1)
        new_ovals = ovals.copy()
        if write_any.any():
            w_obj = np.nonzero(write_any)[0]
            w_slot = look[w_obj, np.argmax(write_hit[w_obj], axis=1)]
            new_ovals[w_obj] = tvals[w_slot]
        # Response path: matched slots capture the *pre-scan* object value.
        match_any = match.any(axis=1)
        matched = np.zeros(num_slots, dtype=np.int64)
        resp_vals = tvals.copy()
        resp_has = thas.copy()
        if match_any.any():
            m_obj = np.nonzero(match_any)[0]
            m_slot = look[m_obj, np.argmax(match[m_obj], axis=1)]
            matched[m_slot] = 1
            resp_vals[m_slot] = ovals[m_obj]
            resp_has[m_slot] = True
        responses = soa.matrix_to_values(resp_vals, resp_has)
        return new_ovals, [int(b) for b in matched], responses


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
    on the scalar path.  Resolving to ``"numpy"`` without NumPy installed
    warns and falls back to ``"python"`` rather than failing.
    """
    if mem_factory is not None:
        return KERNELS["python"]
    if kernel is None:
        kernel = DEFAULT_KERNEL
    if isinstance(kernel, Kernel):
        return kernel
    validate_kernel_name(kernel)
    if kernel == "numpy" and not soa.HAS_NUMPY:
        warnings.warn(
            "NumPy is not installed; falling back to the python kernel",
            RuntimeWarning,
            stacklevel=2,
        )
        return KERNELS["python"]
    return KERNELS[kernel]
