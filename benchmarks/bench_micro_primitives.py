"""Microbenchmarks of the *functional* implementations (real wall time).

Unlike the figure benches (which use the calibrated model), these time the
actual Python algorithms: oblivious sort/compaction, hash-table
construction, subORAM batch access, a full Snoopy epoch, and baseline
ORAM accesses.  They document the real cost of the pure-Python
reproduction and guard against accidental complexity regressions.
"""

import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.baselines.pathoram import PathOram
from repro.oblivious.compact import ocompact
from repro.oblivious.hashtable import TwoTierHashTable
from repro.oblivious.soa import Batch
from repro.oblivious.sort import bitonic_sort
from repro.suboram.suboram import SubOram
from repro.types import OpType, Request


@pytest.fixture(scope="module")
def rng():
    return random.Random(1)


def test_bitonic_sort_1k(benchmark, rng):
    data = [rng.randrange(10**9) for _ in range(1024)]
    result = benchmark(bitonic_sort, data)
    assert result == sorted(data)


def test_ocompact_1k(benchmark, rng):
    items = list(range(1024))
    flags = [rng.randrange(2) for _ in range(1024)]
    result = benchmark(ocompact, items, flags)
    assert len(result) == sum(flags)


def test_hashtable_build_256(benchmark, rng):
    keys = rng.sample(range(10**9), 256)
    table = benchmark(TwoTierHashTable.build, keys, b"bench-key")
    assert len(table.extract_real()) == 256


def test_suboram_batch_64_over_2k_objects(benchmark, rng):
    suboram = SubOram(0, value_size=16, security_parameter=32)
    suboram.initialize({k: bytes(16) for k in range(2048)})
    keys = rng.sample(range(2048), 64)

    batch = Batch.from_requests([Request(OpType.READ, k) for k in keys], 16)

    def run():
        return suboram.batch_access(batch)

    responses = benchmark(run)
    assert len(responses) == 64


def test_snoopy_epoch_32_requests(benchmark, rng):
    store = Snoopy(
        SnoopyConfig(num_load_balancers=1, num_suborams=2, value_size=16,
                     security_parameter=32),
        rng=random.Random(2),
    )
    store.initialize({k: bytes(16) for k in range(512)})

    def run():
        for i in range(32):
            store.submit(Request(OpType.READ, rng.randrange(512), seq=i))
        return store.run_epoch()

    responses = benchmark(run)
    assert len(responses) == 32


def test_pathoram_access(benchmark, rng):
    oram = PathOram(4096, rng=random.Random(3))
    oram.initialize({k: bytes([k % 256]) for k in range(1024)})
    keys = [rng.randrange(1024) for _ in range(16)]

    def run():
        for k in keys:
            oram.read(k)

    benchmark(run)


def test_oblivious_shuffle_1k(benchmark, rng):
    from repro.oblivious.shuffle import oblivious_shuffle

    items = list(range(1024))
    result = benchmark(oblivious_shuffle, items, b"shuffle-key-0123456789abcdef!!!!")
    assert sorted(result) == items


def test_waksman_apply_1k(benchmark, rng):
    from repro.oblivious.permutation import apply_permutation

    permutation = list(range(1024))
    rng.shuffle(permutation)
    items = list(range(1024))
    result = benchmark(apply_permutation, items, permutation)
    assert sorted(result) == items


def test_sqrtoram_access(benchmark, rng):
    from repro.baselines.sqrtoram import SqrtOram
    import random as _random

    # Small capacity: each sqrt(n) accesses trigger a full oblivious
    # reshuffle, which is the expensive (and interesting) part.
    oram = SqrtOram(256, rng=_random.Random(11))
    oram.initialize({k: bytes([k % 256]) for k in range(256)})
    keys = [rng.randrange(256) for _ in range(4)]

    def run():
        for k in keys:
            oram.read(k)

    benchmark.pedantic(run, rounds=3, iterations=1)
