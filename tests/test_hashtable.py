"""Tests for the two-tier oblivious hash table."""

import math
import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.balls_bins import (
    batch_size,
    log_spill_mgf,
    spill_capacity,
)
from repro.crypto.prf import Prf
from repro.errors import CapacityError
from repro.oblivious.hashtable import TwoTierHashTable, TwoTierParams
from tests.harness import table_layouts


def build(keys, prf_key=b"table-key", is_real=None, **kwargs):
    keys = list(keys)
    real = None if is_real is None else [is_real(k) for k in keys]
    return TwoTierHashTable.build(keys, prf_key, real=real, **kwargs)


def holds(table, slot, keys, key):
    """Whether ``slot`` holds the real item ``key``."""
    item = table.slot_items[slot]
    return item >= 0 and table.slot_real[slot] and keys[item] == key


def extracted(table, keys):
    """The keys ``extract_real`` names, in its order."""
    return [keys[i] for i in table.extract_real()]


class TestParams:
    def test_all_dimensions_positive(self):
        for n in (1, 2, 7, 100, 4096):
            p = TwoTierParams.for_capacity(n)
            assert p.tier1_buckets >= 1
            assert p.tier1_bucket_size >= 1
            assert p.tier2_buckets >= 1
            assert p.tier2_bucket_size >= 1
            assert p.tier2_capacity >= 1

    def test_dimensions_public(self):
        """Params depend only on capacity + lambda, never on contents."""
        assert TwoTierParams.for_capacity(500) == TwoTierParams.for_capacity(500)

    def test_lookup_cost_much_smaller_than_capacity(self):
        p = TwoTierParams.for_capacity(4096)
        assert p.lookup_scan_slots < 4096 / 10

    def test_slots_properties(self):
        p = TwoTierParams.for_capacity(64)
        assert p.tier1_slots == p.tier1_buckets * p.tier1_bucket_size
        assert p.total_slots == p.tier1_slots + p.tier2_slots

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TwoTierParams.for_capacity(0)


#: ``(B, C2 at lambda = 40, 80, 128)``: the proven tier-1 spill capacity
#: over the grid the bound is checked on; every cell must stay equal.
PINNED_SPILL_CAPACITIES = (
    (1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1), (5, 1, 1, 1),
    (6, 1, 1, 1), (7, 1, 1, 1), (8, 1, 1, 1), (9, 1, 1, 1), (10, 1, 1, 1),
    (11, 1, 1, 1), (12, 2, 2, 2), (13, 3, 3, 3), (14, 4, 4, 4),
    (15, 5, 5, 5), (16, 6, 6, 6), (17, 7, 7, 7), (18, 8, 8, 8),
    (19, 9, 9, 9), (20, 10, 10, 10), (21, 11, 11, 11), (22, 12, 12, 12),
    (23, 12, 13, 13), (24, 13, 14, 14), (25, 12, 15, 15), (26, 13, 16, 16),
    (27, 14, 17, 17), (28, 14, 18, 18), (29, 13, 19, 19), (30, 14, 20, 20),
    (31, 15, 21, 21), (32, 15, 22, 22), (64, 19, 35, 54), (122, 21, 39, 60),
    (150, 22, 41, 62), (300, 26, 46, 70), (1400, 35, 60, 87),
    (4096, 47, 76, 108),
)


class TestSpillBound:
    """Tier 1 spills more than ``C2`` entries w.p. <= 2^-lambda."""

    def test_chosen_capacity_is_proven_on_a_grid(self):
        """Over B in {1..32, 64, 122, 150, 300, 1400, 4096} and lambda in
        {40, 80, 128}: either ``C2`` is all tier 1 can spill, or the MGF
        bound at ``C2`` (any ``t`` gives one) is at most 2^-lambda."""
        t = np.exp(np.linspace(-10.0, 4.0, 2001))
        for row in PINNED_SPILL_CAPACITIES:
            capacity = row[0]
            for lam in (40, 80, 128):
                p = TwoTierParams.for_capacity(capacity, lam)
                c2, z1 = p.tier2_capacity, p.tier1_bucket_size
                if c2 >= capacity - z1:
                    continue
                log_bound = np.min(
                    log_spill_mgf(capacity, p.tier1_buckets, z1, t) - t * c2
                )
                assert log_bound <= -lam * math.log(2.0), (capacity, lam)

    def test_pinned_capacities(self):
        for capacity, *pinned in PINNED_SPILL_CAPACITIES:
            assert [
                TwoTierParams.for_capacity(capacity, lam).tier2_capacity
                for lam in (40, 80, 128)
            ] == pinned, capacity

    def test_truncated_mgf_bounds_the_exact_sum(self):
        """The cut pmf plus its geometric tail bound is never below the
        full Binomial sum, and close to it."""
        for n, bins in ((1400, 350), (4096, 1024), (300, 2)):
            p = 1.0 / bins
            exact_terms = [
                math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * math.log(p) + (n - k) * math.log1p(-p)
                for k in range(n + 1)
            ]
            for t in (0.05, 0.5, 1.2, 2.5):
                exact = bins * np.logaddexp.reduce([
                    term + t * max(0, k - 10)
                    for k, term in enumerate(exact_terms)
                ])
                got = float(log_spill_mgf(n, bins, 10, t))
                if math.isinf(got):
                    continue
                assert got >= exact - 1e-6 * abs(exact), (n, bins, t)
                assert got <= exact + 1e-6 * abs(exact) + 1e-9, (n, bins, t)

    @pytest.mark.parametrize("capacity", [16, 32, 64, 122])
    def test_exact_spill_tail_is_under_the_bound(self, capacity):
        """A check independent of ``log_spill_mgf`` and of negative
        association: the exact law of tier 1's total spill, ``B`` keys
        thrown uniformly into ``ceil(B/4)`` buckets of 10 slots, by a
        dynamic program over the buckets (state: keys thrown, spill so
        far; a bucket of ``c`` keys weighs ``1/c!``, the multinomial)."""
        bins = math.ceil(capacity / 4)
        ways = np.zeros((capacity + 1, capacity + 1))
        ways[0, 0] = 1.0
        for _ in range(bins):
            grown = np.zeros_like(ways)
            for c in range(capacity + 1):
                s = max(0, c - 10)
                grown[c:, s:] += (ways[:capacity + 1 - c, :capacity + 1 - s]
                                  / math.factorial(c))
            ways = grown
        law = ways[capacity] * math.exp(
            math.lgamma(capacity + 1) - capacity * math.log(bins)
        )
        assert math.isclose(law.sum(), 1.0)
        tail = law[::-1].cumsum()[::-1]  # tail[c] = Pr[spill >= c]
        for lam in (40, 80, 128):
            p = TwoTierParams.for_capacity(capacity, lam)
            assert (p.tier1_buckets, p.tier1_bucket_size) == (bins, 10)
            c2 = p.tier2_capacity
            assert c2 >= capacity - 10 or tail[c2] <= 2.0 ** -lam, lam

    def test_a_million_items(self):
        c = spill_capacity(10**6, 250_000, 10, 128)
        assert 0 < c < 10**6 // 8

    def test_no_spill_below_the_bucket_size(self):
        assert spill_capacity(10, 3, 10, 128) == 0
        assert spill_capacity(11, 3, 10, 128) == 1

    def test_monotone_in_lambda(self):
        for n in (64, 150, 1400):
            caps = [spill_capacity(n, math.ceil(n / 4), 10, lam)
                    for lam in (0, 40, 80, 128, 256)]
            assert caps == sorted(caps)


#: ``(B, N, tier-2 buckets, probe width)`` the layout rule picks: the
#: served benchmark's subORAMs (``batch_rw`` and ``batch_zipf_ro``,
#: ``scan_rw``, ``frontdoor_rw``) take one bucket; the paper-scale
#: ablation keeps Theorem-3 buckets, where one would probe 118 slots.
PINNED_LAYOUTS = (
    (122, 512, 1, 70),
    (150, 16_384, 1, 72),
    (1_400, 256, 1, 97),
    (4_096, 133_000, 27, 65),
)


class TestLayout:
    def test_pinned_picks(self):
        for capacity, objects, buckets, probe in PINNED_LAYOUTS:
            p = TwoTierParams.for_capacity(capacity, 128, objects)
            assert p.tier2_buckets == buckets, (capacity, objects)
            assert p.lookup_scan_slots == probe, (capacity, objects)

    def test_one_bucket_holds_exactly_the_spill(self):
        p = TwoTierParams.for_capacity(122, 128, 512)
        assert p.tier2_bucket_size == p.tier2_capacity == 60

    def test_buckets_are_theorem_3_sized(self):
        p = TwoTierParams.for_capacity(4_096, 128, 133_000)
        assert p.tier2_buckets == math.ceil(p.tier2_capacity / 4)
        assert p.tier2_bucket_size == batch_size(
            p.tier2_capacity, p.tier2_buckets, 128
        )

    def test_more_objects_never_widen_the_probe(self):
        """The scan term grows with N, so the pick moves from one bucket
        to buckets, never back."""
        for capacity in (150, 1_400, 4_096):
            widths = [
                TwoTierParams.for_capacity(capacity, 128, n).lookup_scan_slots
                for n in (0, 256, 4_096, 65_536, 10**6)
            ]
            assert widths == sorted(widths, reverse=True)

    def test_spill_capacity_does_not_depend_on_n(self):
        assert len({
            TwoTierParams.for_capacity(150, 128, n).tier2_capacity
            for n in (0, 512, 10**6)
        }) == 1


class TestBuildAndExtract:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 200])
    def test_extract_returns_all_items(self, n, rng):
        keys = rng.sample(range(10**6), n)
        table = build(keys)
        assert sorted(extracted(table, keys)) == sorted(keys)

    def test_every_item_findable_in_its_buckets(self, rng):
        keys = rng.sample(range(10**6), 80)
        table = build(keys)
        for k in keys:
            slots = table.bucket_slot_indices(k)
            assert any(holds(table, s, keys, k) for s in slots), k
            assert len(slots) == table.params.lookup_scan_slots

    def test_dummy_items_not_extracted(self, rng):
        keys = rng.sample(range(10**6), 30)
        table = build(keys, is_real=lambda key: key % 2 == 0)
        assert set(extracted(table, keys)) == {k for k in keys if k % 2 == 0}

    def test_capacity_enforced(self):
        params = TwoTierParams.for_capacity(4)
        with pytest.raises(CapacityError):
            build(list(range(10)), params=params)

    def test_key_changes_layout(self):
        keys = list(range(50))
        t1 = build(keys, prf_key=b"key-one")
        t2 = build(keys, prf_key=b"key-two")
        assert t1.bucket_slot_indices(0) != t2.bucket_slot_indices(0) or (
            t1.params != t2.params
        )

    def test_total_slot_count_is_public(self, rng):
        """Two tables with equal capacity have identical slot layouts."""
        a = build(rng.sample(range(10**6), 40))
        b = build(rng.sample(range(10**6), 40))
        assert len(a.slot_items) == len(b.slot_items)
        assert a.params == b.params

    @given(st.sets(st.integers(min_value=0, max_value=10**9), max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip(self, keys):
        if not keys:
            return
        keys = sorted(keys)
        for params in (None, table_layouts(len(keys))[1]):
            table = build(keys, params=params)
            assert sorted(extracted(table, keys)) == keys
            for k in keys[:10]:
                assert any(
                    holds(table, s, keys, k)
                    for s in table.bucket_slot_indices(k)
                )


def _params(**dims):
    """Hand-set dimensions that force the rare capacity events."""
    return TwoTierParams(capacity=64, security_parameter=8, **dims)


KERNELS = pytest.mark.parametrize("kernel", ["python", "numpy"])


class TestColumnarTable:
    """The table as index columns, pinned on both kernels."""

    @KERNELS
    @given(
        keys=st.sets(st.integers(-(10**9), 10**9), min_size=1, max_size=90),
        prf_key=st.binary(min_size=1, max_size=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_real_key_sits_in_exactly_one_of_its_buckets(
        self, kernel, keys, prf_key
    ):
        keys = sorted(keys)
        for params in (None, table_layouts(len(keys))[1]):
            table = build(keys, prf_key=prf_key, kernel=kernel,
                          params=params, is_real=lambda key: key % 3 != 0)
            slot_items = list(table.slot_items)
            # Slot counts are public: they depend on the capacity alone.
            assert len(slot_items) == table.params.total_slots
            assert len(slot_items) == len(
                build(range(len(keys)), params=params).slot_items
            )
            # Every item occupies exactly one slot, inside its own buckets.
            assert sorted(i for i in slot_items if i >= 0) == list(
                range(len(keys))
            )
            for index, key in enumerate(keys):
                assert slot_items.index(index) in (
                    table.bucket_slot_indices(key)
                )
            # Dummies occupy slots but are not extracted.
            assert sorted(extracted(table, keys)) == [
                k for k in keys if k % 3 != 0
            ]

    def test_kernels_build_the_same_table(self, rng):
        """At both tier-2 layouts: one bucket (derived) and buckets."""
        keys = rng.sample(range(10**6), 121)
        one_bucket, buckets = table_layouts(121)
        assert one_bucket.tier2_buckets == 1 < buckets.tier2_buckets
        for params in (None, buckets):
            tables = {
                kernel: build(keys, kernel=kernel, params=params,
                              security_parameter=128)
                for kernel in ("python", "numpy")
            }
            assert tables["python"].slot_items == (
                tables["numpy"].slot_items.tolist()
            )
            assert tables["python"].extract_real() == (
                tables["numpy"].extract_real().tolist()
            )
            rows = tables["numpy"].lookup_matrix(keys)
            for row, key in zip(rows.tolist(), keys):
                assert row == tables["python"].bucket_slot_indices(key)
                assert row == tables["numpy"].bucket_slot_indices(key)

    @KERNELS
    def test_one_prf_digest_per_key_per_batch(self, kernel, monkeypatch):
        inputs = []
        range_many = Prf.range_many

        def counting(self, xs, n):
            inputs.append(np.size(xs))  # a build hashes an (L, W) matrix
            return range_many(self, xs, n)

        monkeypatch.setattr(Prf, "range_many", counting)
        keys = list(range(100, 140))
        table = build(keys, kernel=kernel)
        # One digest per item and per (public-count) spill filler yields
        # both tiers' buckets ...
        assert inputs == [len(keys) + table.params.tier2_capacity]
        # ... and one per store object yields both lookup buckets.
        table.lookup_matrix(list(range(25)))
        assert inputs[1:] == [25]

    @KERNELS
    def test_spill_beyond_the_public_bound_raises(self, kernel):
        params = _params(tier1_buckets=1, tier1_bucket_size=2,
                         tier2_capacity=4, tier2_buckets=1,
                         tier2_bucket_size=8)
        with pytest.raises(CapacityError, match="tier-1 spill"):
            build(range(20), params=params, kernel=kernel)

    @KERNELS
    def test_tier2_overflow_raises(self, kernel):
        params = _params(tier1_buckets=1, tier1_bucket_size=2,
                         tier2_capacity=16, tier2_buckets=1,
                         tier2_bucket_size=4)
        with pytest.raises(CapacityError, match="tier-2"):
            build(range(12), params=params, kernel=kernel)
        # Only *real* overflow counts: spilled dummies may fall out.
        table = build(range(12), params=params, kernel=kernel,
                      is_real=lambda key: key < 5)
        assert sorted(extracted(table, range(12))) == list(range(5))


class TestStackedRows:
    """Rows of one build that route their own ``lookups`` columns — the
    tables of co-resident subORAMs, each with its own store keys."""

    @KERNELS
    def test_each_row_equals_its_single_build(self, kernel, rng):
        rows = [rng.sample(range(10**6), n) for n in (40, 12, 40)]
        lookups = [
            np.asarray(rng.sample(range(10**6), n), dtype=np.int64)
            for n in (25, 7, 0)
        ]
        prf_keys = [b"row-0", b"row-1", b"row-2"]
        stacked = TwoTierHashTable.build(
            rows, prf_keys, kernel=kernel, lookups=lookups
        )
        for table, keys, prf_key, column in zip(
            stacked, rows, prf_keys, lookups
        ):
            single = TwoTierHashTable.build(
                keys, prf_key, kernel=kernel, lookups=column
            )
            assert list(table.slot_items) == list(single.slot_items)
            assert list(table.slot_real) == list(single.slot_real)
            # Per tier: (bucket ids of this row's own lookups, count, size).
            for got, want in zip(table.lookup_blocks, single.lookup_blocks):
                assert got[1:] == want[1:]
                assert got[0].tolist() == want[0].tolist()
            assert len(table.lookup_blocks[0][0]) == len(column)

    @KERNELS
    @pytest.mark.parametrize("params, fits, over", [
        (TwoTierParams.for_capacity(4), range(3), range(10)),
        (_params(tier1_buckets=1, tier1_bucket_size=2, tier2_capacity=4,
                 tier2_buckets=1, tier2_bucket_size=8), range(5), range(20)),
        (_params(tier1_buckets=1, tier1_bucket_size=2, tier2_capacity=16,
                 tier2_buckets=1, tier2_bucket_size=4), range(3), range(12)),
    ])
    def test_an_over_capacity_row_raises_its_single_builds_error(
        self, kernel, params, fits, over
    ):
        with pytest.raises(CapacityError) as single:
            TwoTierHashTable.build(list(over), b"k1", params=params,
                                   kernel=kernel, lookups=[1, 2])
        with pytest.raises(CapacityError) as stacked:
            TwoTierHashTable.build(
                [list(fits), list(over)], [b"k0", b"k1"], params=params,
                kernel=kernel, lookups=[[1, 2, 3], [1, 2]],
            )
        assert str(stacked.value) == str(single.value)


class TestRandomizedStress:
    def test_many_batches_never_overflow(self):
        """Tier-2 capacity bound holds over many random batches, at both
        tier-2 layouts."""
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randrange(1, 300)
            keys = rng.sample(range(10**9), n)
            prf_key = bytes([rng.randrange(256) for _ in range(16)])
            for params in (None, table_layouts(n)[1]):
                table = build(keys, prf_key=prf_key, params=params)
                assert len(table.extract_real()) == n
