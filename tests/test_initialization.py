"""Tests for the Figure 23 oblivious sharding pipeline."""

from repro.crypto.prf import suboram_of
from repro.loadbalancer.initialization import oblivious_shard, partition_sizes
from repro.oblivious.memory import AccessTrace, TracedMemory
from repro.oblivious.sort import bitonic_sort

KEY = b"init-sharding-key-0123456789abcd"


class TestSharding:
    def test_every_object_placed_once(self, rng):
        objects = {k: bytes([k % 256]) for k in rng.sample(range(10**6), 50)}
        partitions = oblivious_shard(objects, 4, KEY)
        placed = {}
        for partition in partitions:
            for key, value in partition.items():
                assert key not in placed
                placed[key] = value
        assert placed == objects

    def test_placement_matches_keyed_hash(self, rng):
        objects = {k: b"\x00" for k in rng.sample(range(10**6), 40)}
        partitions = oblivious_shard(objects, 5, KEY)
        for suboram, partition in enumerate(partitions):
            for key in partition:
                assert suboram_of(KEY, key, 5) == suboram

    def test_single_suboram(self):
        objects = {k: b"\x00" for k in range(10)}
        [partition] = oblivious_shard(objects, 1, KEY)
        assert partition == objects

    def test_empty_store(self):
        assert oblivious_shard({}, 3, KEY) == [{}, {}, {}]

    def test_partition_sizes_helper(self, rng):
        keys = rng.sample(range(10**6), 60)
        objects = {k: b"\x00" for k in keys}
        partitions = oblivious_shard(objects, 4, KEY)
        assert partition_sizes(keys, 4, KEY) == [len(p) for p in partitions]

    def test_kernels_shard_identically(self, rng):
        """The deployed numpy sort and the python reference agree, down to
        the (sorted-by-key) order inside each partition."""
        objects = {
            k: k.to_bytes(4, "big") for k in rng.sample(range(10**6), 333)
        }
        by_kernel = {
            kernel: oblivious_shard(objects, 5, KEY, kernel=kernel)
            for kernel in ("python", "numpy")
        }
        assert by_kernel["numpy"] == by_kernel["python"]
        for fast, slow in zip(by_kernel["numpy"], by_kernel["python"]):
            assert list(fast) == list(slow) == sorted(fast)

    def test_roughly_balanced(self, rng):
        keys = rng.sample(range(10**6), 400)
        sizes = partition_sizes(keys, 4, KEY)
        assert all(60 < size < 140 for size in sizes), sizes


class TestObliviousness:
    def test_sort_trace_independent_of_keys(self, rng):
        """The sharding sort's trace depends only on the store size."""
        traces = []
        for _ in range(2):
            trace = AccessTrace()
            objects = {k: b"\x00" for k in rng.sample(range(10**6), 30)}
            oblivious_shard(
                objects,
                3,
                KEY,
                mem_factory=lambda items, t=trace: TracedMemory(items, trace=t),
            )
            traces.append(trace)
        assert traces[0] == traces[1]
        assert len(traces[0]) > 0
        # ... and is exactly the bitonic network's over 30 records.
        network = AccessTrace()
        bitonic_sort(
            list(range(30)),
            mem_factory=lambda items: TracedMemory(items, trace=network),
        )
        assert traces[0] == network

    def test_traced_memory_forces_the_reference_kernel(self):
        """``mem_factory`` wins over the kernel selector (the numpy kernel
        would refuse element-granular tracing)."""
        trace = AccessTrace()
        objects = {k: b"\x00" for k in range(9)}
        sharded = oblivious_shard(
            objects, 2, KEY, kernel="numpy",
            mem_factory=lambda items: TracedMemory(items, trace=trace),
        )
        assert sharded == oblivious_shard(objects, 2, KEY, kernel="python")
        assert len(trace) > 0
