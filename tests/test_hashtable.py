"""Tests for the two-tier oblivious hash table."""

import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import Prf
from repro.errors import CapacityError
from repro.oblivious.hashtable import TwoTierHashTable, TwoTierParams


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
        table = build(keys)
        assert sorted(extracted(table, keys)) == keys
        for k in keys[:10]:
            assert any(
                holds(table, s, keys, k) for s in table.bucket_slot_indices(k)
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
        table = build(keys, prf_key=prf_key, kernel=kernel,
                      is_real=lambda key: key % 3 != 0)
        slot_items = list(table.slot_items)
        # Slot counts are public: they depend on the capacity alone.
        assert len(slot_items) == table.params.total_slots
        assert len(slot_items) == len(build(range(len(keys))).slot_items)
        # Every item occupies exactly one slot, inside its own buckets.
        assert sorted(i for i in slot_items if i >= 0) == list(
            range(len(keys))
        )
        for index, key in enumerate(keys):
            assert slot_items.index(index) in table.bucket_slot_indices(key)
        # Dummies occupy slots but are not extracted.
        assert sorted(extracted(table, keys)) == [
            k for k in keys if k % 3 != 0
        ]

    def test_kernels_build_the_same_table(self, rng):
        keys = rng.sample(range(10**6), 121)
        tables = {
            kernel: build(keys, kernel=kernel, security_parameter=128)
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
        """Tier-2 capacity bound holds over many random batches."""
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randrange(1, 300)
            keys = rng.sample(range(10**9), n)
            prf_key = bytes([rng.randrange(256) for _ in range(16)])
            table = build(keys, prf_key=prf_key)
            assert len(table.extract_real()) == n
