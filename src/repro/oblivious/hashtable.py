"""Two-tier oblivious hash table (Chan et al.), the subORAM's core (§5).

The subORAM builds an oblivious hash table over the *batch of requests*,
then performs a single linear scan over the stored objects, looking each
object up in the table.  Obliviousness requires:

* construction access patterns independent of which request lands in which
  bucket (achieved with oblivious sort + oblivious compaction),
* fixed, public bucket sizes — never sized by the actual load (that would
  leak request popularity; §5 "Choosing an oblivious hash table"),
* lookups that scan *entire* buckets in both tiers.

Sizing.  Tier-1 buckets are deliberately small (cheap lookups); requests
that overflow a tier-1 bucket spill into a second, independently hashed
tier, one stash-like bucket or Theorem-3 buckets, which always receives
exactly ``C2`` entries (real spills topped up with fillers, so the spill
is hidden); tier 1 spills more w.p. <= 2^-lambda (``spill_capacity``).

All dimensions derive from ``(capacity, num_objects, lambda)`` — never
from request contents — which is the checkable security property (see
``tests/test_obliviousness.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.balls_bins import batch_size, spill_capacity
from repro.crypto.prf import Prf
from repro.errors import CapacityError
from repro.oblivious import soa
from repro.oblivious.kernels import resolve_kernel
from repro.oblivious.primitives import o_select
from repro.utils.bits import next_pow2

#: Tier-1 buckets: an expected load of 4 items and 6 slots of slack.
TIER1_LOAD, TIER1_SLACK = 4, 6
#: The layout rule's weights, in ns: per cell per level of the build's
#: and extract's networks, and per slot an object probes.  Both from
#: ``PYTHONPATH=src python -m pytest benchmarks/bench_table_layout.py -q
#: -s`` (numpy kernel, 2-core x86-64 container, Python 3.11).
NETWORK_CELL_NS, SCAN_SLOT_NS = 4.0, 1.8


def _table_cost_ns(capacity, b1, z1, c2, b2, z2, num_objects) -> float:
    """Cells x levels of the build's and extract's networks plus probes."""
    def network(n, sort):  # ``sort`` bitonic sorts, 1 + sort compactions
        depth = next_pow2(n).bit_length() - 1
        return (sort * depth * (depth + 1) // 2 + (1 + sort) * depth) << depth

    cells = (network(capacity + b1 * z1, 1) + network(c2 + b2 * z2, 1)
             + network(b1 * z1 + b2 * z2, 0))
    return NETWORK_CELL_NS * cells + SCAN_SLOT_NS * num_objects * (z1 + z2)


@dataclass(frozen=True)
class TwoTierParams:
    """Public dimensions of a two-tier table.

    Attributes:
        capacity: maximum number of (real) items the table holds.
        tier1_buckets: number of tier-1 buckets.
        tier1_bucket_size: slots per tier-1 bucket (Z1).
        tier2_capacity: fixed number of entries routed to tier 2 (C2).
        tier2_buckets: number of tier-2 buckets.
        tier2_bucket_size: slots per tier-2 bucket (Z2).
        security_parameter: lambda of the spill and tier-2 sizing.
    """

    capacity: int
    tier1_buckets: int
    tier1_bucket_size: int
    tier2_capacity: int
    tier2_buckets: int
    tier2_bucket_size: int
    security_parameter: int

    @classmethod
    def for_capacity(
        cls,
        capacity: int,
        security_parameter: int = 128,
        num_objects: int = 0,
    ) -> "TwoTierParams":
        """Derive all dimensions from public shape (capacity, N, lambda).

        Tier 1 spills more than ``C2 = spill_capacity(...)`` entries w.p.
        <= 2^-lambda; tier 2 is the cheaper (:func:`_table_cost_ns`) of
        one ``C2``-slot bucket, which cannot overflow, and ``ceil(C2/4)``
        Theorem-3 buckets, whose narrower probe pays when the scan over
        ``N = num_objects`` objects is long.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        b1 = max(1, math.ceil(capacity / TIER1_LOAD))
        z1 = TIER1_LOAD + TIER1_SLACK
        c2 = max(1, spill_capacity(capacity, b1, z1, security_parameter))
        b2 = math.ceil(c2 / TIER1_LOAD)
        b2, z2 = min(((1, c2), (b2, batch_size(c2, b2, security_parameter))),
                     key=lambda tier2: _table_cost_ns(capacity, b1, z1, c2,
                                                      *tier2, num_objects))
        return cls(
            capacity=capacity,
            tier1_buckets=b1,
            tier1_bucket_size=z1,
            tier2_capacity=c2,
            tier2_buckets=b2,
            tier2_bucket_size=z2,
            security_parameter=security_parameter,
        )

    @property
    def tier1_slots(self) -> int:
        """Total tier-1 slots (buckets x bucket size)."""
        return self.tier1_buckets * self.tier1_bucket_size

    @property
    def tier2_slots(self) -> int:
        """Total tier-2 slots (buckets x bucket size)."""
        return self.tier2_buckets * self.tier2_bucket_size

    @property
    def total_slots(self) -> int:
        """Total slots across both tiers."""
        return self.tier1_slots + self.tier2_slots

    @property
    def lookup_scan_slots(self) -> int:
        """Slots touched per lookup: one full bucket in each tier."""
        return self.tier1_bucket_size + self.tier2_bucket_size


class TwoTierHashTable:
    """An oblivious hash table over a column of distinct integer keys.

    Typical use (the subORAM's Figure 19 loop)::

        table = TwoTierHashTable.build(batch.key, prf_key, params)
        for obj in store:                     # fixed linear scan
            for slot in table.bucket_slot_indices(obj.key):
                ...oblivious compare-and-set with row table.slot_items[slot]...
        survivors = batch.take(table.extract_real())   # oblivious compaction

    Dummy items must have keys that are still well-defined (the load
    balancer gives dummies fresh ids hashing to the right subORAM).

    The table is two index columns over the key column it was built
    from — ``slot_items`` (the item in each slot, ``-1`` for a filler)
    and the real bits — as lists under the python kernel and as
    int64/bool arrays under the numpy kernel, whose build, scan and
    extract never touch a per-slot Python object; callers hold the items
    (a :class:`~repro.oblivious.soa.Batch`, a list) and index them.
    Both tiers' buckets come from *one* per-batch-keyed PRF tag per
    key: reduced modulo ``tier1_buckets * tier2_buckets``, its two
    mixed-radix digits are independent uniform bucket indices.
    """

    def __init__(self, params: TwoTierParams, prf: Prf, slot_items,
                 slot_real, kernel=None):
        self.params = params
        self._prf = prf
        self._slot_items = slot_items
        self._slot_real = slot_real
        self._kernel = resolve_kernel(kernel)
        #: :meth:`bucket_blocks` of the build's ``lookups`` (or ``None``).
        self.lookup_blocks = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: Sequence[int],
        prf_key,
        params: Optional[TwoTierParams] = None,
        security_parameter: int = 128,
        real: Optional[Sequence[int]] = None,
        mem_factory=None,
        kernel=None,
        lookups=None,
        num_objects=0,
    ):
        """Obliviously construct the table over ``keys``.

        Args:
            keys: at most ``params.capacity`` distinct integer ids (a
                list or an int64 column); item ``i`` is ``keys[i]``.
            prf_key: per-batch secret key (resampled every batch, §5).
                A *list* of L keys builds and returns L tables, with
                ``keys`` (and ``real``) lists of L columns.
            params: public dimensions; derived from ``len(keys)`` if None.
            security_parameter: lambda for derived params.
            real: optional 0/1 column; defaults to "everything is real".
                Items marked not-real are carried as dummies (they occupy
                slots and are scanned, but ``extract_real`` drops them).
            mem_factory: optional traced-memory wrapper passed to the
                internal oblivious sorts/compactions (security tests).
                Forces the python kernel when given.
            kernel: oblivious-kernel selector (name or instance, see
                :mod:`repro.oblivious.kernels`) for the internal sorts
                and compactions.
            lookups: optional key column (a subORAM's store keys) routed
                in the same SipHash pass; the table's ``lookup_blocks``
                is then its :meth:`bucket_blocks` of it (else ``None``).
                With L keys, a list of L columns, one per row: rows may
                route different, unequal-length columns (the store keys
                of the subORAM each row belongs to).
            num_objects: objects scanned, for derived params (or per row).

        L tables are the rows of one network: one SipHash pass with a key
        per row, and under the numpy kernel one stacked sort and one
        stacked compaction per tier (:func:`_tier_columns`).  Each table
        equals its own single build, and an over-capacity row raises the
        error its single build raises.
        """
        if isinstance(prf_key, (bytes, bytearray)):
            return cls.build(
                [keys], [prf_key], params, security_parameter,
                None if real is None else [real], mem_factory, kernel,
                None if lookups is None else [lookups], [num_objects],
            )[0]
        kern = resolve_kernel(kernel, mem_factory)
        sizes = [len(row) for row in keys]
        dims = [
            params or TwoTierParams.for_capacity(max(1, n), security_parameter,
                                                 int(objects))
            for n, objects in zip(sizes, np.broadcast_to(num_objects, len(keys)))
        ]
        # Entries are named by *source*: item i is i, and the j-th of the
        # tier2_capacity spill fillers is n + j (real bit 0, an id from a
        # space disjoint from real/dummy ids so that it hashes too).  One
        # tag per id (and per lookup) under each row's own key: its two
        # mixed-radix digits are the tier-1 and tier-2 buckets.  A row's
        # lookups follow its ids; a shorter column is padded with id 0.
        routed = [0] * len(sizes) if lookups is None else [
            len(column) for column in lookups
        ]
        width = max(n + p.tier2_capacity for n, p in zip(sizes, dims))
        ids = np.zeros((len(sizes), width + max(routed)), dtype=np.int64)
        for row, (n, p) in enumerate(zip(sizes, dims)):
            if routed[row]:
                ids[row, width:width + routed[row]] = lookups[row]
            if n > p.capacity:
                raise CapacityError(
                    f"{n} items exceed table capacity {p.capacity}"
                )
            ids[row, :n] = keys[row]
            ids[row, n:n + p.tier2_capacity] = -(2**62) - np.arange(
                p.tier2_capacity
            )
        bucket1, bucket2 = np.divmod(
            Prf(list(prf_key)).range_many(ids, np.array(
                [[p.tier1_buckets * p.tier2_buckets] for p in dims]
            )),
            np.array([[p.tier2_buckets] for p in dims]),
        )
        tier1 = [(p.tier1_buckets, p.tier1_bucket_size, p.tier2_capacity, n)
                 for n, p in zip(sizes, dims)]
        tier2 = [(p.tier2_buckets, p.tier2_bucket_size, 0, 0) for p in dims]
        if kern.vectorized:
            slots1, spills = _tier_columns(
                kern, [b[:n] for b, n in zip(bucket1, sizes)],
                [np.arange(n, dtype=np.int64) for n in sizes], tier1,
            )
            slots2, overflows = _tier_columns(
                kern, [b[s] for b, s in zip(bucket2, spills)], spills, tier2
            )
        else:
            slots1, spills = zip(*(
                _tier_records(kern, mem_factory, b[:n].tolist(), range(n), *d)
                for b, n, d in zip(bucket1, sizes, tier1)
            ))
            slots2, overflows = zip(*(
                _tier_records(kern, mem_factory, b[s].tolist(), s, *d)
                for b, s, d in zip(bucket2, spills, tier2)
            ))
        tables = []
        for row, (n, p) in enumerate(zip(sizes, dims)):
            row_real = np.pad(
                np.ones(n, bool) if real is None else
                np.asarray(real[row], bool), (0, p.tier2_capacity),
            )
            if kern.vectorized:
                slot_items = np.concatenate([slots1[row], slots2[row]])
                slot_items[slot_items >= n] = -1
            else:
                row_real = row_real.astype(int).tolist()
                slot_items = [
                    s if s < n else -1 for s in slots1[row] + slots2[row]
                ]
            if any(soa.take(row_real, overflows[row])):
                raise CapacityError(
                    "tier-2 oblivious hash table overflowed; probability of"
                    f" this event is <= 2^-{p.security_parameter} under"
                    " Theorem 3"
                )
            # Index -1 (every filler slot) reads the last spill filler's 0.
            table = cls(p, Prf(prf_key[row]), slot_items,
                        soa.take(row_real, slot_items), kernel=kernel)
            if lookups is not None:
                own = slice(width, width + routed[row])
                table.lookup_blocks = (
                    (bucket1[row, own], p.tier1_buckets, p.tier1_bucket_size),
                    (bucket2[row, own], p.tier2_buckets, p.tier2_bucket_size),
                )
            tables.append(table)
        return tables

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def bucket_slot_indices(self, key: int) -> List[int]:
        """Indices (into the flat slot array) of both buckets for ``key``.

        The caller must scan *all* returned slots (the scan hides which
        slot, if any, matched).
        """
        p = self.params
        b1, b2 = divmod(
            self._prf.range(key, p.tier1_buckets * p.tier2_buckets),
            p.tier2_buckets,
        )
        tier1_start = b1 * p.tier1_bucket_size
        tier2_start = p.tier1_slots + b2 * p.tier2_bucket_size
        return list(range(tier1_start, tier1_start + p.tier1_bucket_size)) + list(
            range(tier2_start, tier2_start + p.tier2_bucket_size)
        )

    def bucket_blocks(self, keys):
        """Each key's bucket in both tiers, as the scan kernel's input.

        One batched :meth:`~repro.crypto.prf.Prf.range_many` tag per key
        yields both bucket ids (its two mixed-radix digits).  Returns,
        per tier in slot order, ``(bucket_ids, num_buckets,
        bucket_size)``: tier ``t``'s slots are a ``(num_buckets,
        bucket_size)`` block of every per-slot column, and key ``i``
        probes row ``bucket_ids[i]`` of it — the slots
        :meth:`bucket_slot_indices` lists, without materializing them.
        """
        p = self.params
        b1, b2 = np.divmod(
            self._prf.range_many(keys, p.tier1_buckets * p.tier2_buckets),
            p.tier2_buckets,
        )
        return (
            (b1, p.tier1_buckets, p.tier1_bucket_size),
            (b2, p.tier2_buckets, p.tier2_bucket_size),
        )

    def lookup_matrix(self, keys):
        """Bucket-slot index rows for a key column: the reference scan's.

        Row ``i`` equals ``bucket_slot_indices(keys[i])``.  Only the
        python reference scan (``SubOram._scan_reference``) takes this
        ``(len(keys), Z1 + Z2)`` matrix; the numpy scan probes
        :meth:`bucket_blocks` directly.
        """
        rows, first = [], 0
        for ids, num_buckets, size in self.bucket_blocks(keys):
            rows.append(
                (first + ids * size)[:, None]
                + np.arange(size, dtype=np.int64)[None, :]
            )
            first += num_buckets * size
        return np.concatenate(rows, axis=1)

    @property
    def slot_items(self):
        """Per slot (tier 1 then tier 2), its item's index (-1: filler)."""
        return self._slot_items

    @property
    def slot_real(self):
        """Per slot, the real bit of the item it holds (0 for a filler)."""
        return self._slot_real

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract_real(self):
        """Obliviously compact out dummies (§5 ➌).

        Returns the indices of the real items, in slot order — a list
        under the python kernel, an int64 column under numpy; the caller
        takes them from what it built the table over.
        """
        return self._kernel.compact(self._slot_items, self._slot_real)

    @staticmethod
    def extract_all(tables: Sequence["TwoTierHashTable"]) -> list:
        """:meth:`extract_real` of each of ``tables`` (one kernel), as one
        stacked compaction under the numpy kernel."""
        kernel = tables[0]._kernel
        if not kernel.vectorized:
            return [table.extract_real() for table in tables]
        return kernel.compact(
            [table._slot_items for table in tables],
            [table._slot_real for table in tables],
        )


_SPILL_BOUND = "tier-1 spill {} > bound {}: probability <= 2^-lambda (spill_capacity)"


def _tier_records(kern, mem_factory, buckets, sources, num_buckets,
                  bucket_size, spill_capacity, first_filler) -> tuple:
    """Build one tier record by record; returns (slots, spill) as sources.

    One entry per ``(bucket, source)``.  The tier always emits
    ``num_buckets * bucket_size`` slots in bucket order (``-1`` marks a
    bucket filler) and, when ``spill_capacity > 0``, exactly
    ``spill_capacity`` spilled sources — the real spills topped up with
    the fillers ``first_filler + j`` — so the spill size is public.  With
    ``spill_capacity == 0`` the spill holds just the entries that did
    not fit.
    """
    # Working records: [bucket, kind, within_bucket_index, source].
    # kind 0 = payload entry, kind 1 = bucket filler.
    records = [[bucket, 0, 0, s] for bucket, s in zip(buckets, sources)]
    for bucket in range(num_buckets):
        for _ in range(bucket_size):
            records.append([bucket, 1, 0, -1])

    # Oblivious sort groups buckets, payload entries before fillers.
    records = kern.sort(
        records,
        columns=[[r[0] for r in records], [r[1] for r in records]],
        mem_factory=mem_factory,
    )

    # Fixed scan: assign within-bucket indices.
    prev_bucket = -1
    index_in_bucket = 0
    for record in records:
        same = int(record[0] == prev_bucket)
        index_in_bucket = o_select(same, 0, index_in_bucket)
        record[2] = index_in_bucket
        index_in_bucket += 1
        prev_bucket = record[0]

    keep_flags = [int(r[2] < bucket_size) for r in records]
    spill_flags = [int(r[2] >= bucket_size and r[1] == 0) for r in records]
    num_spilled = sum(spill_flags)
    if spill_capacity and num_spilled > spill_capacity:
        raise CapacityError(_SPILL_BOUND.format(num_spilled, spill_capacity))

    kept = kern.compact(records, keep_flags, mem_factory=mem_factory)
    # Top the spill up to exactly spill_capacity with fillers so its size
    # is public.  Filler j is kept only while j < spill_capacity -
    # num_spilled: a fixed scan over public-length arrays; the flag value
    # itself is secret-dependent but never branches.
    for j in range(spill_capacity):
        records.append([0, 1, 0, first_filler + j])
        spill_flags.append(int(j < spill_capacity - num_spilled))
    spilled = kern.compact(records, spill_flags, mem_factory=mem_factory)
    return [r[3] for r in kept], [r[3] for r in spilled]


def _tier_columns(kern, buckets, sources, dims) -> tuple:
    """:func:`_tier_records` as whole-array ops on index permutations, for
    L tables at once: row ``r`` is one tier of table ``r`` (its
    ``buckets``/``sources`` columns and ``dims[r] = (num_buckets,
    bucket_size, spill_capacity, first_filler)``), and the tier's sort
    and its compaction (kept and spilled entries) are each one stacked
    kernel call over the rows.  Returns the per-row ``(slots, spill)``
    source columns."""
    positions = [np.arange(len(row) + count * size, dtype=np.int64)
                 for row, (count, size, _, _) in zip(buckets, dims)]
    filled = [np.concatenate([row, np.repeat(np.arange(count), size)])
              for row, (count, size, _, _) in zip(buckets, dims)]
    # Input rows in sorted order: buckets grouped, payload before fillers.
    orders = kern.sort(positions, [
        [bucket, position >= len(row)]
        for position, bucket, row in zip(positions, filled, buckets)
    ])
    keeps, spill_rows, spill_flags, source_rows = [], [], [], []
    for position, bucket, order, row, row_sources, dim in zip(
        positions, filled, orders, buckets, sources, dims
    ):
        _, bucket_size, spill_capacity, first_filler = dim
        n, total = len(row), len(position)
        bucket = bucket[order]
        first = np.ones(total, dtype=bool)
        first[1:] = bucket[1:] != bucket[:-1]
        within = position - np.maximum.accumulate(
            np.where(first, position, 0)
        )
        keeps.append(within < bucket_size)
        spill = ~keeps[-1] & (order < n)
        num_spilled = int(spill.sum())
        if spill_capacity and num_spilled > spill_capacity:
            raise CapacityError(
                _SPILL_BOUND.format(num_spilled, spill_capacity)
            )
        fillers = np.arange(spill_capacity, dtype=np.int64)
        spill_rows.append(np.concatenate([order, total + fillers]))
        spill_flags.append(
            np.concatenate([spill, fillers < spill_capacity - num_spilled])
        )
        source = np.full(total + spill_capacity, -1, dtype=np.int64)
        source[:n] = row_sources
        source[total:] = first_filler + fillers
        source_rows.append(source)
    # The kept and the spilled entries of every row: one compaction.
    compacted = kern.compact(orders + spill_rows, keeps + spill_flags)
    return (
        [source[k] for source, k in zip(source_rows, compacted)],
        [source[s] for source, s in zip(source_rows, compacted[len(orders):])],
    )
