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
table whose capacity ``C2`` and bucket size are *public functions of the
batch capacity alone* (Theorem 3 applied to the spill).  Construction
conceals how many requests actually spilled by always routing exactly
``C2`` entries (real spills topped up with fillers) into tier 2.

All table dimensions derive from ``(capacity, security_parameter, knobs)``
— never from request contents — which is the checkable security property
(see ``tests/test_obliviousness.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.balls_bins import batch_size
from repro.crypto.prf import Prf
from repro.errors import CapacityError
from repro.oblivious import soa
from repro.oblivious.kernels import resolve_kernel
from repro.oblivious.primitives import o_select


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
        security_parameter: lambda used for the tier-2 Chernoff sizing.
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
        tier1_load: float = 4.0,
        tier1_slack: int = 6,
    ) -> "TwoTierParams":
        """Derive all dimensions from the public batch capacity.

        Tier-1 buckets hold ``ceil(tier1_load) + tier1_slack`` slots around
        an expected load of ``tier1_load``; the spill bound ``C2`` is a
        conservative public function of capacity (validated empirically by
        property tests to leave orders-of-magnitude margin); tier-2 buckets
        are sized by Theorem 3 so tier-2 overflow is cryptographically
        negligible.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        b1 = max(1, math.ceil(capacity / tier1_load))
        z1 = int(math.ceil(tier1_load)) + tier1_slack
        c2 = max(8, capacity // 8 + 4 * math.isqrt(capacity) + 8)
        c2 = min(c2, capacity) if capacity >= 8 else capacity
        c2 = max(c2, 1)
        b2 = max(1, math.ceil(c2 / tier1_load))
        z2 = batch_size(c2, b2, security_parameter)
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

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: Sequence[int],
        prf_key: bytes,
        params: Optional[TwoTierParams] = None,
        security_parameter: int = 128,
        real: Optional[Sequence[int]] = None,
        mem_factory=None,
        kernel=None,
    ) -> "TwoTierHashTable":
        """Obliviously construct the table over ``keys``.

        Args:
            keys: at most ``params.capacity`` distinct integer ids (a
                list or an int64 column); item ``i`` is ``keys[i]``.
            prf_key: per-batch secret key (resampled every batch, §5).
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
        """
        n = len(keys)
        if params is None:
            params = TwoTierParams.for_capacity(max(1, n), security_parameter)
        if n > params.capacity:
            raise CapacityError(
                f"{n} items exceed table capacity {params.capacity}"
            )
        p = params
        kern = resolve_kernel(kernel, mem_factory)
        prf = Prf(prf_key)
        # Entries are named by *source*: item i is i, and the j-th of the
        # tier2_capacity spill fillers is n + j (real bit 0, an id from a
        # space disjoint from real/dummy ids so that it hashes too).
        ids = np.concatenate([
            np.asarray(keys, dtype=np.int64),
            -(2**62) - np.arange(p.tier2_capacity, dtype=np.int64),
        ])
        real = np.ones(n, bool) if real is None else np.asarray(real, bool)
        real = np.pad(real, (0, p.tier2_capacity))  # fillers are not real
        bucket1, bucket2 = np.divmod(
            prf.range_many(ids, p.tier1_buckets * p.tier2_buckets),
            p.tier2_buckets,
        )
        tier1 = (p.tier1_buckets, p.tier1_bucket_size, p.tier2_capacity, n)
        tier2 = (p.tier2_buckets, p.tier2_bucket_size, 0, 0)
        if kern.vectorized:
            slots1, spill = _tier_columns(
                kern, bucket1[:n], np.arange(n, dtype=np.int64), *tier1
            )
            slots2, overflow = _tier_columns(
                kern, bucket2[spill], spill, *tier2
            )
            slot_items = np.concatenate([slots1, slots2])
            slot_items[slot_items >= n] = -1
        else:
            real = real.astype(int).tolist()
            bucket2 = bucket2.tolist()
            slots1, spill = _tier_records(
                kern, mem_factory, bucket1[:n].tolist(), range(n), *tier1
            )
            slots2, overflow = _tier_records(
                kern, mem_factory, [bucket2[s] for s in spill], spill, *tier2
            )
            slot_items = [s if s < n else -1 for s in slots1 + slots2]
        if any(soa.take(real, overflow)):
            raise CapacityError(
                "tier-2 oblivious hash table overflowed; probability of this"
                f" event is <= 2^-{p.security_parameter} under Theorem 3"
            )
        # Index -1 (every filler slot) reads the last spill filler's 0.
        return cls(p, prf, slot_items, soa.take(real, slot_items),
                   kernel=kernel)

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


_SPILL_BOUND = "tier-1 spill {} exceeds public bound {}"


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


def _tier_columns(kern, buckets, sources, num_buckets, bucket_size,
                  spill_capacity, first_filler) -> tuple:
    """:func:`_tier_records` as whole-array ops on index permutations."""
    n = len(buckets)
    total = n + num_buckets * bucket_size
    position = np.arange(total, dtype=np.int64)
    fillers = np.arange(spill_capacity, dtype=np.int64)
    source = np.full(total + spill_capacity, -1, dtype=np.int64)
    source[:n] = sources
    source[total:] = first_filler + fillers
    bucket = np.concatenate(
        [buckets, np.repeat(np.arange(num_buckets), bucket_size)]
    )
    # Input rows in sorted order: buckets grouped, payload before fillers.
    order = kern.sort(position, [bucket, position >= n])
    bucket = bucket[order]
    first = np.ones(total, dtype=bool)
    first[1:] = bucket[1:] != bucket[:-1]
    within = position - np.maximum.accumulate(np.where(first, position, 0))
    keep = within < bucket_size
    spill = ~keep & (order < n)
    num_spilled = int(spill.sum())
    if spill_capacity and num_spilled > spill_capacity:
        raise CapacityError(_SPILL_BOUND.format(num_spilled, spill_capacity))
    kept = kern.compact(order, keep)
    spilled = kern.compact(
        np.concatenate([order, total + fillers]),
        np.concatenate([spill, fillers < spill_capacity - num_spilled]),
    )
    return source[kept], source[spilled]
