"""Equivalence tests for the vectorized oblivious kernels.

The numpy kernel must be a *drop-in* replacement for the scalar python
reference: byte-identical outputs and identical level-granular
:class:`~repro.oblivious.kernels.KernelTrace` schedules for sort,
compaction, and the subORAM scan — at every call site, from the raw
kernel API up through a full deployment.
"""

import copy
import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.crypto.keys import KeyChain
from repro.errors import ConfigurationError
from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.oblivious import kernels as kernels_module
from repro.oblivious import soa
from repro.oblivious.compact import ocompact
from repro.oblivious.soa import Batch
from repro.oblivious.kernels import (
    KERNELS,
    KernelTrace,
    NumpyKernel,
    PythonKernel,
    ScanTable,
    _level_arrays,
    resolve_kernel,
)
from repro.oblivious.memory import TracedMemory
from repro.oblivious.sort import (
    bitonic_sort_depth,
    bitonic_sort_levels,
    comparator_schedule,
)
from repro.security.simulator import simulate_suboram_store_sequence
from repro.suboram.suboram import SubOram
from repro.types import BatchEntry, OpType, Request
from tests.harness import array_ops

PY = KERNELS["python"]
NP = KERNELS["numpy"]


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


# ---------------------------------------------------------------------------
# bitonic_sort_levels
# ---------------------------------------------------------------------------
class TestBitonicSortLevels:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_flatten_matches_schedule(self, n):
        levels = bitonic_sort_levels(n)
        flat = [comp for level in levels for comp in level]
        assert flat == list(comparator_schedule(_next_pow2(n)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33])
    def test_level_count_is_depth(self, n):
        assert len(bitonic_sort_levels(n)) == bitonic_sort_depth(n)

    @pytest.mark.parametrize("n", [4, 8, 16, 33])
    def test_levels_touch_disjoint_pairs(self, n):
        for level in bitonic_sort_levels(n):
            touched = [i for (i, j, _) in level] + [j for (i, j, _) in level]
            assert len(touched) == len(set(touched))


class TestLevelArrays:
    """The numpy kernel's arithmetic schedule is the published one."""

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    def test_equal_to_bitonic_sort_levels(self, m):
        levels = _level_arrays(m)
        expected = bitonic_sort_levels(m)
        assert len(levels) == len(expected)
        for (partner, take_min), level in zip(levels, expected):
            lower_ends = [
                (i, p, t)
                for i, (p, t) in enumerate(
                    zip(partner.tolist(), take_min.tolist())
                )
                if p > i
            ]
            assert lower_ends == level
            # The upper end of every comparator takes the other word.
            assert (take_min[partner] != take_min).all()

    def test_cache_is_bounded_and_read_only(self):
        assert _level_arrays.cache_info().maxsize == 8
        partner, take_min = _level_arrays(8)[0]
        assert not partner.flags.writeable and not take_min.flags.writeable


# ---------------------------------------------------------------------------
# Fixed work: the same whole-array operations whatever the data
# ---------------------------------------------------------------------------
class TestFixedWork:
    N = 37  # pads to m = 64: 6 compaction layers, 21 sort levels

    def test_compact_runs_every_layer_whatever_the_flags(self, monkeypatch):
        items = list(range(self.N))
        rng = random.Random(5)
        flag_vectors = [
            [1] * self.N,
            [0] * self.N,
            [rng.randrange(2) for _ in range(self.N)],
            [1] * 5 + [0] * (self.N - 5),
        ]
        logs = [
            array_ops(
                monkeypatch, kernels_module,
                lambda f=flags: NP.compact(items, f),
            )
            for flags in flag_vectors
        ]
        assert all(log == logs[0] for log in logs[1:])
        selects = [op[:2] for op in logs[0] if op[0] == "where"]
        assert selects == [("where", ((64,), (64,)))] * 6

    def test_sort_runs_every_level_whatever_the_keys(self, monkeypatch):
        items = list(range(self.N))
        rng = random.Random(6)
        key_columns = [
            list(range(self.N)),
            list(range(self.N, 0, -1)),
            [7] * self.N,
            [rng.randrange(10) for _ in range(self.N)],
        ]
        logs = [
            array_ops(
                monkeypatch, kernels_module,
                lambda c=col: NP.sort(items, [c]),
            )
            for col in key_columns
        ]
        assert all(log == logs[0] for log in logs[1:])
        gathers = [op[:2] for op in logs[0] if op[0] == "take"]
        assert gathers == [("take", ((64,), (64,), (64,)))] * 21

    def test_scan_does_the_same_work_whatever_matches(self, monkeypatch):
        """``scan_soa`` over one shape (9 objects; tiers of 3 x 2 and 2 x 3
        slots): how many objects hit a slot, and how many of those are
        (permitted) writes, is what padding to f(R, S) hides — it must not
        pick the operations, nor their shapes or dtypes.  The write-back
        select runs on the widest word dividing ``value_size``, and the
        response scatter and the write-back share one probe: one
        ``argmax`` over the objects' bucket rows per scan."""
        for value_size, word in ((7, "|u1"), (12, "<u4"), (160, "<u8")):
            self._scan_work(monkeypatch, value_size, word)

    def _scan_work(self, monkeypatch, value_size, word):
        num_objects, tiers = 9, ((3, 2), (2, 3))
        num_slots = sum(count * size for count, size in tiers)
        obj_keys = list(range(100, 100 + num_objects))
        obj_values = [bytes([k % 256]) * value_size for k in obj_keys]
        # Object o's buckets hold slot o: tier 1 is slots 0-5, tier 2 6-11.
        buckets = [
            [o // 2 if o < 6 else o % 3 for o in range(num_objects)],
            [o % 2 if o < 6 else 0 for o in range(num_objects)],
        ]
        payload = b"w" * value_size

        def table(keys, occupied, write, permitted=1):
            return ScanTable(
                keys=keys, occupied=[occupied] * num_slots,
                is_write=[write] * num_slots,
                permitted=[permitted] * num_slots,
                values=[payload if write else None] * num_slots,
            )

        hits = obj_keys + [900, 901, 902]     # object o sits in slot o
        misses = list(range(500, 500 + num_slots))
        mixed = table(hits[:4] + misses[4:], 1, 0)
        mixed.is_write[:3] = [1, 1, 1]
        mixed.permitted[2] = 0
        mixed.values[:3] = [payload] * 3
        tables = {
            "all-dummy": table(misses, 1, 0),
            "all-hit reads": table(hits, 1, 0),
            "all-hit writes": table(hits, 1, 1),
            "all-hit denied writes": table(hits, 1, 1, permitted=0),
            "all-miss fillers": table(hits, 0, 0),
            "mixed": mixed,
        }
        lookup = _lookup_rows(buckets, tiers)
        outcomes, logs = {}, {}
        for name, case in tables.items():
            logs[name] = array_ops(
                monkeypatch,
                kernels_module,
                lambda c=case: outcomes.__setitem__(name, _scan_columns(
                    obj_keys, obj_values, buckets, tiers, c, value_size
                )),
            )
            assert outcomes[name] == PY.scan(
                obj_keys, list(obj_values), value_size, lookup,
                copy.deepcopy(case),
            ), name
        assert len(logs["mixed"]) > 0
        assert all(log == logs["mixed"] for log in logs.values())
        copies = [op for op in logs["mixed"] if op[0] == "copyto"]
        rows = value_size // numpy.dtype(word).itemsize
        assert copies == [(
            "copyto", ((num_objects, rows), (num_objects, rows),
                       (num_objects, 1)),
            (word, word, "|b1"),
        )]
        probe_width = sum(size for _, size in tiers)
        probes = [op for op in logs["mixed"] if op[0] == "argmax"]
        assert probes == [
            ("argmax", ((num_objects, probe_width),), ("|b1",))
        ]
        # The cases really differ in what they hide.
        assert sum(outcomes["all-dummy"][1]) == 0
        assert sum(outcomes["all-hit reads"][1]) == num_objects
        assert outcomes["all-hit writes"][0] == [payload] * num_objects
        assert outcomes["all-hit denied writes"][0] == obj_values


# ---------------------------------------------------------------------------
# Sort equivalence
# ---------------------------------------------------------------------------
# Duplicate-heavy domain: collisions exercise the swap-on-equal rule.
_sort_lists = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=40
)


class TestSortEquivalence:
    @given(items=_sort_lists, num_cols=st.integers(1, 2))
    @settings(max_examples=120, deadline=None)
    def test_outputs_and_traces_match(self, items, num_cols):
        columns = [[item[c] for item in items] for c in range(num_cols)]
        py_trace, np_trace = KernelTrace(), KernelTrace()
        py_out = PY.sort(list(items), columns, trace=py_trace)
        np_out = NP.sort(list(items), columns, trace=np_trace)
        assert py_out == np_out
        assert py_trace == np_trace
        # Ties keep input order: the total key ends in the input position.
        rows = range(len(items))
        stable = sorted(rows, key=lambda i: [col[i] for col in columns])
        assert np_out == [items[i] for i in stable]
        assert NP.sort(numpy.arange(len(items)), columns).tolist() == stable

    def test_all_keys_tied(self):
        items = list("snoopy-ties")
        column = [3] * len(items)
        assert NP.sort(items, [column]) == PY.sort(items, [column]) == items

    def test_columns_wider_than_one_word_take_the_reference_path(self):
        rng = random.Random(9)
        wide = [rng.choice((-1, 1)) * rng.randrange(2**62) for _ in range(21)]
        narrow = [rng.randrange(3) for _ in wide]
        items = list(range(len(wide)))
        py_trace, np_trace = KernelTrace(), KernelTrace()
        py_out = PY.sort(items, [narrow, wide], trace=py_trace)
        assert NP.sort(items, [narrow, wide], trace=np_trace) == py_out
        assert py_out == sorted(items, key=lambda i: (narrow[i], wide[i]))
        assert py_trace == np_trace

    def test_empty(self):
        assert NP.sort([], []) == PY.sort([], []) == []

    def test_trace_depends_only_on_length(self):
        t1, t2 = KernelTrace(), KernelTrace()
        NP.sort([(9, 9)] * 7, [[9] * 7], trace=t1)
        NP.sort([(0, 1)] * 7, [[0] * 7], trace=t2)
        assert t1 == t2

    def test_numpy_kernel_rejects_traced_memory(self):
        with pytest.raises(ConfigurationError):
            NP.sort([(1,)], [[1]], mem_factory=TracedMemory)


# ---------------------------------------------------------------------------
# Compaction equivalence
# ---------------------------------------------------------------------------
_flagged = st.lists(
    st.tuples(st.integers(-100, 100), st.integers(0, 1)), max_size=60
)


class TestCompactEquivalence:
    @given(tagged=_flagged)
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, tagged):
        items = [t[0] for t in tagged]
        flags = [t[1] for t in tagged]
        py_trace, np_trace = KernelTrace(), KernelTrace()
        py_out = PY.compact(list(items), list(flags), trace=py_trace)
        np_out = NP.compact(list(items), list(flags), trace=np_trace)
        assert py_out == np_out == ocompact(items, flags)
        assert py_trace == np_trace
        columns = NP.compact(
            numpy.asarray(items, dtype=numpy.int64),
            numpy.asarray(flags, dtype=bool),
        )
        assert columns.tolist() == py_out

    @pytest.mark.parametrize("flags", [[0, 0, 0, 0], [1, 1, 1, 1]])
    def test_all_dummy_and_all_real(self, flags):
        items = list("abcd")
        assert NP.compact(items, flags) == PY.compact(items, flags)

    def test_full_length_output(self):
        items, flags = [1, 2, 3, 4, 5], [0, 1, 0, 1, 0]
        assert NP.compact_full(items, flags)[:2] == [2, 4]
        assert len(NP.compact_full(items, flags)) == 5


# ---------------------------------------------------------------------------
# Scan equivalence
# ---------------------------------------------------------------------------
def _lookup_rows(buckets, tiers):
    """Each object's slot-index row, as ``bucket_slot_indices`` lists it."""
    rows = [[] for _ in buckets[0]] if buckets else []
    first = 0
    for ids, (count, size) in zip(buckets, tiers):
        for row, bucket in zip(rows, ids):
            row.extend(range(first + bucket * size, first + (bucket + 1) * size))
        first += count * size
    return rows


def _random_scan_case(rng, num_objects, tiers, value_size=4):
    """A ScanTable + per-tier buckets honouring the real call-site contract.

    Objects are the *store* side (distinct keys, values always bytes);
    table slots are the *batch-entry* side (distinct keys among occupied
    slots, ``None`` values for reads), laid out as the ``(count, size)``
    bucket blocks of ``tiers``; each object probes one bucket per tier,
    most of the time one holding its key, as
    :meth:`TwoTierHashTable.bucket_blocks` guarantees for stored keys.
    """
    num_slots = sum(count * size for count, size in tiers)
    pool = rng.sample(range(1, 500), num_slots + num_objects)
    slot_keys, extra_keys = pool[:num_slots], pool[num_slots:]
    occupied = [rng.randrange(2) for _ in range(num_slots)]
    # Unoccupied slots keep a key an object may carry, as the subORAM's
    # filler slots do (they gather batch row 0): only the bit stops them.
    table = ScanTable(
        keys=slot_keys,
        occupied=occupied,
        is_write=[rng.randrange(2) if occ else 0 for occ in occupied],
        permitted=[rng.randrange(2) if occ else 0 for occ in occupied],
        values=[
            bytes(rng.randrange(256) for _ in range(value_size))
            if occ and rng.random() < 0.7
            else None
            for occ in occupied
        ],
    )
    # Object keys: a mix of batch-entry keys and keys no entry asked for.
    obj_keys = rng.sample(slot_keys + extra_keys, num_objects)
    obj_values = [
        bytes(rng.randrange(256) for _ in range(value_size))
        for _ in range(num_objects)
    ]
    buckets = [[rng.randrange(count) for _ in obj_keys]
               for count, _ in tiers]
    for o, key in enumerate(obj_keys):
        if rng.random() < 0.8 and key in table.keys:
            slot, first = table.keys.index(key), 0  # occupied or not
            for ids, (count, size) in zip(buckets, tiers):
                if slot < first + count * size:
                    ids[o] = (slot - first) // size
                    break
                first += count * size
    return obj_keys, obj_values, table, buckets


def _scan_columns(obj_keys, obj_values, buckets, tiers, table,
                  value_size=4, trace=None):
    """``NP.scan_soa`` on the columns of a record-list scan case.

    The slot records cross into columns the way the subORAM's do —
    through a :class:`Batch` — and the outputs come back as the record
    lists :meth:`PythonKernel.scan` returns.
    """
    slots = Batch.from_entries([
        BatchEntry(op=OpType.WRITE if write else OpType.READ, key=key,
                   value=value, permitted=permitted)
        for key, write, permitted, value in zip(
            table.keys, table.is_write, table.permitted, table.values
        )
    ], value_size)
    objects = Batch.from_requests(
        [Request(OpType.WRITE, k, v) for k, v in zip(obj_keys, obj_values)],
        value_size,
    )
    columns = ScanTable(
        keys=slots.key, occupied=numpy.asarray(table.occupied, dtype=bool),
        is_write=slots.is_write, permitted=slots.permitted,
        values=slots.value, has_value=slots.has_value,
    )
    ovals = objects.value.copy()
    matched, responses = NP.scan_soa(
        objects.key, ovals,
        [(numpy.asarray(ids, dtype=numpy.int64), count, size)
         for ids, (count, size) in zip(buckets, tiers)],
        columns, trace=trace,
    )
    return (
        soa.matrix_to_values(ovals, [True] * len(obj_keys)),
        matched.astype(int).tolist(),
        soa.matrix_to_values(responses, (slots.has_value | matched).tolist()),
    )


class TestScanEquivalence:
    def test_random_cases_match(self):
        rng = random.Random(0x5EED)
        for trial in range(60):
            tiers = [(rng.randrange(1, 5), rng.randrange(1, 4))
                     for _ in range(2)]
            num_objects = rng.randrange(1, 8)
            obj_keys, obj_values, table, buckets = _random_scan_case(
                rng, num_objects, tiers
            )
            lookup = _lookup_rows(buckets, tiers)
            pristine = copy.deepcopy(table)
            py_trace, np_trace = KernelTrace(), KernelTrace()
            py = PY.scan(obj_keys, list(obj_values), 4, lookup, table,
                         trace=py_trace)
            np_ = _scan_columns(obj_keys, obj_values, buckets, tiers,
                                pristine, trace=np_trace)
            assert py == np_, trial
            assert table == pristine, trial
            assert py_trace == np_trace, trial

    def test_empty_batch(self):
        table = ScanTable(keys=[1], occupied=[1], is_write=[0],
                          permitted=[1], values=[b"abcd"])
        assert _scan_columns([], [], [[], []], [(1, 1), (0, 1)], table) == (
            PY.scan([], [], 4, [], table)
        )


# ---------------------------------------------------------------------------
# resolve_kernel / configuration plumbing
# ---------------------------------------------------------------------------
class TestResolveKernel:
    def test_registry_shape(self):
        assert isinstance(KERNELS["python"], PythonKernel)
        assert isinstance(KERNELS["numpy"], NumpyKernel)
        assert not PY.vectorized and NP.vectorized

    def test_defaults_to_config_default(self):
        assert resolve_kernel(None) is NP
        assert SnoopyConfig().kernel == "numpy"
        assert SnoopyConfig(kernel=None) == SnoopyConfig()

    def test_by_name_and_instance(self):
        assert resolve_kernel("numpy") is NP
        assert resolve_kernel(NP) is NP

    def test_mem_factory_forces_python(self):
        assert resolve_kernel("numpy", mem_factory=TracedMemory) is PY

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel("fortran")
        with pytest.raises(ConfigurationError):
            SnoopyConfig(kernel="fortran")

# ---------------------------------------------------------------------------
# Load-balancer stages
# ---------------------------------------------------------------------------
KEY = b"\x07" * 32


def _requests(n, rng):
    out = []
    for i in range(n):
        if rng.random() < 0.5:
            out.append(Request(OpType.WRITE, rng.randrange(30),
                               bytes([i % 256]) * 4, seq=i))
        else:
            out.append(Request(OpType.READ, rng.randrange(30), seq=i))
    return out


def _answer(batches, value_of):
    """A reply batch carrying ``value_of(key)`` in every row."""
    entries = [e for batch in batches for e in batch.entries()]
    for entry in entries:
        entry.value = value_of(entry.key)
    return Batch.from_entries(entries, 4)


class TestLoadBalancerStages:
    def test_generate_batches_equivalent(self, rng):
        requests = _requests(17, rng)
        py = generate_batches(requests, 3, KEY, 16, kernel="python",
                              value_size=4)
        np_ = generate_batches(requests, 3, KEY, 16, kernel="numpy",
                               value_size=4)
        assert [b.to_bytes() for b in py[0]] == (
            [b.to_bytes() for b in np_[0]]
        )
        assert py[1].to_bytes() == np_[1].to_bytes()
        assert any(b.has_value.any() for b in py[0])

    def test_match_responses_equivalent(self, rng):
        requests = _requests(11, rng)
        batches, originals, _ = generate_batches(requests, 3, KEY, 16,
                                                 value_size=4)
        responses = _answer(batches, lambda key: bytes([key % 256]) * 4)
        py = match_responses(originals, responses, kernel="python")
        np_ = match_responses(originals, responses, kernel="numpy")
        assert [r.__dict__ for r in py] == [r.__dict__ for r in np_]
        assert [r.value for r in py] == [
            bytes([r.key % 256]) * 4 for r in requests
        ]

    def test_dummy_ids_keep_the_sorts_on_the_packed_path(
        self, rng, monkeypatch
    ):
        """Dummies sort by a dense key, so no sort needs the reference."""
        def reference_sort(*_args, **_kwargs):
            raise AssertionError("numpy sort fell back to the reference")

        monkeypatch.setattr(PythonKernel, "sort", reference_sort)
        requests = _requests(23, rng)
        batches, originals, _ = generate_batches(requests, 3, KEY, 128,
                                                 kernel="numpy",
                                                 value_size=4)
        assert len(match_responses(originals, Batch.concat(batches),
                                   kernel="numpy")) == len(requests)


# ---------------------------------------------------------------------------
# SubORAM and full-system equivalence
# ---------------------------------------------------------------------------
def _batch(rng, keys):
    entries = []
    for key in keys:
        if rng.random() < 0.4:
            entries.append(BatchEntry(op=OpType.WRITE, key=key,
                                      value=bytes([key % 256]) * 4,
                                      is_dummy=False))
        else:
            entries.append(BatchEntry(op=OpType.READ, key=key,
                                      is_dummy=False))
    return Batch.from_entries(entries, 4)


class TestSubOramEquivalence:
    def test_batches_equivalent(self, rng):
        results = {}
        for kernel in ("python", "numpy"):
            # Shared keychain: the hash-table layout (and so extract_real
            # order) is keyed, and must match across the two runs.
            suboram = SubOram(0, value_size=4,
                              keychain=KeyChain(master=b"k" * 32),
                              security_parameter=16, kernel=kernel)
            suboram.initialize({k: bytes([k]) * 4 for k in range(25)})
            local = random.Random(42)
            outs = []
            for _ in range(3):
                keys = local.sample(range(40), 9)  # includes absent keys
                batch = _batch(local, keys)
                before = batch.to_bytes()
                outs.append(suboram.batch_access(batch).to_bytes())
                assert batch.to_bytes() == before
            results[kernel] = outs
        assert results["python"] == results["numpy"]

    def test_store_sequence_matches_simulator(self):
        ideal = simulate_suboram_store_sequence(20, kernel="numpy")
        # The scalar store: the only one with a per-slot put to spy on.
        suboram = SubOram(0, value_size=4, security_parameter=16,
                          kernel="numpy", crypto="scalar")
        suboram.initialize({k: bytes([k]) * 4 for k in range(20)})
        log = []
        store = suboram.store
        orig_get, orig_put = store.get, store.put
        store.get = lambda slot, _o=orig_get: (
            log.append(("get", slot)), _o(slot))[1]
        store.put = lambda slot, key, value, _o=orig_put: (
            log.append(("put", slot)), _o(slot, key, value))[1]
        suboram.batch_access(Batch.from_requests(
            [Request(OpType.READ, k) for k in (3, 7, 11)], 4
        ))
        assert log == ideal

    def test_batch_access_reseals_every_slot(self):
        suboram = SubOram(0, value_size=4, security_parameter=16)
        suboram.initialize({k: bytes([k]) * 4 for k in range(3)})
        sealed = [suboram.store.host_ciphertext(s) for s in range(3)]
        suboram.batch_access(
            Batch.from_requests([Request(OpType.READ, 0)], 4)
        )
        resealed = [suboram.store.host_ciphertext(s) for s in range(3)]
        assert all(a != b for a, b in zip(sealed, resealed))
        assert [suboram.peek(k) for k in range(3)] == [
            bytes([k]) * 4 for k in range(3)
        ]


class TestFullSystemEquivalence:
    def _run(self, kernel):
        keychain = KeyChain(master=b"e" * 32)
        config = SnoopyConfig(num_load_balancers=2, num_suborams=3,
                              value_size=8, security_parameter=32,
                              kernel=kernel)
        rng = random.Random(11)
        epochs = []
        with Snoopy(config, keychain=keychain) as store:
            store.initialize({k: bytes([k % 256]) * 8 for k in range(40)})
            for _ in range(2):
                for _ in range(15):
                    key = rng.randrange(55)
                    if rng.random() < 0.5:
                        store.submit(Request(OpType.WRITE, key,
                                             bytes([key % 256]) * 8),
                                     load_balancer=rng.randrange(2))
                    else:
                        store.submit(Request(OpType.READ, key),
                                     load_balancer=rng.randrange(2))
                epochs.append([(r.key, r.value)
                               for r in store.run_epoch()])
            # Read-back epoch: proves the stored state is identical too.
            # Balancer choice is pinned — submit() without one draws from
            # a nondeterministically seeded RNG.
            for key in range(40):
                store.submit(Request(OpType.READ, key),
                             load_balancer=key % 2)
            epochs.append([(r.key, r.value) for r in store.run_epoch()])
        return epochs

    def test_responses_and_state_identical(self):
        assert self._run("python") == self._run("numpy")
