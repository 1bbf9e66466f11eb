"""End-to-end tests for the assembled Snoopy system."""

import dataclasses
import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.errors import ConfigurationError, NotInitializedError
from repro.types import OpType, Request


class TestConfig:
    def test_defaults(self):
        config = SnoopyConfig()
        assert config.num_machines == 2

    def test_settable_fields_are_pinned(self):
        # Every field is a value tests and benchmarks must cover; a new
        # one needs a caller that sets it.
        assert [f.name for f in dataclasses.fields(SnoopyConfig)] == [
            "num_load_balancers", "num_suborams", "value_size",
            "security_parameter", "epoch_duration", "pipeline_depth",
            "execution_backend", "kernel", "crypto", "epoch_max_attempts",
            "replication", "telemetry",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_load_balancers": 0},
            {"num_suborams": 0},
            {"value_size": 0},
            {"security_parameter": -1},
            {"epoch_duration": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SnoopyConfig(**kwargs)


class TestBasicOperations:
    def test_read_initial_value(self, small_store):
        assert small_store.read(42) == (42).to_bytes(8, "big")

    def test_write_returns_prior(self, small_store):
        prior = small_store.write(10, b"AAAAAAAA")
        assert prior == (10).to_bytes(8, "big")
        assert small_store.read(10) == b"AAAAAAAA"

    def test_read_missing_key(self, small_store):
        assert small_store.read(10**9) is None

    def test_num_objects(self, small_store):
        assert small_store.num_objects == 100

    def test_counter_bumped_once_per_epoch(self, small_store):
        before = small_store.counter.value
        small_store.read(1)
        assert small_store.counter.value == before + 1

    def test_requires_initialization(self):
        store = Snoopy(SnoopyConfig(value_size=8))
        with pytest.raises(NotInitializedError):
            store.run_epoch()

    def test_not_initialized_error_is_still_a_runtime_error(self):
        """Deprecation-cycle compatibility for legacy except clauses."""
        store = Snoopy(SnoopyConfig(value_size=8))
        with pytest.raises(RuntimeError):
            store.run_epoch()

    def test_negative_keys_rejected(self):
        store = Snoopy(SnoopyConfig(value_size=8))
        with pytest.raises(ConfigurationError):
            store.initialize({-1: bytes(8)})


class TestBatchSemantics:
    def test_batch_returns_all(self, small_store, rng):
        keys = [rng.randrange(100) for _ in range(30)]
        requests = [Request(OpType.READ, k, seq=i) for i, k in enumerate(keys)]
        responses = small_store.batch(requests)
        assert len(responses) == 30

    def test_reads_in_epoch_see_pre_epoch_state(self, small_store):
        responses = small_store.batch(
            [
                Request(OpType.WRITE, 5, b"XXXXXXXX", seq=0),
                Request(OpType.READ, 5, seq=1),
            ]
        )
        by_seq = {r.seq: r for r in responses}
        # Same-balancer requests see batch-start values...
        # (both may land on different balancers; either way values are
        # pre-write because reads order before writes).
        assert by_seq[1].value in ((5).to_bytes(8, "big"), b"XXXXXXXX")
        # ...and the write definitely applied afterwards.
        assert small_store.read(5) == b"XXXXXXXX"

    def test_heavy_skew_is_fine(self, small_store):
        requests = [Request(OpType.READ, 7, seq=i) for i in range(50)]
        responses = small_store.batch(requests)
        assert all(r.value == (7).to_bytes(8, "big") for r in responses)

    def test_explicit_balancer_routing(self, small_store):
        small_store.submit(Request(OpType.READ, 1, seq=0), load_balancer=0)
        small_store.submit(Request(OpType.READ, 2, seq=1), load_balancer=1)
        assert small_store.load_balancers[0].pending == 1
        assert small_store.load_balancers[1].pending == 1
        responses = small_store.run_epoch()
        assert len(responses) == 2


class TestAgainstReferenceModel:
    @pytest.mark.parametrize("balancers,suborams", [(1, 1), (1, 4), (3, 2)])
    def test_randomized_equivalence(self, balancers, suborams):
        """Snoopy behaves like a dict under single-balancer epochs."""
        rng = random.Random(balancers * 10 + suborams)
        config = SnoopyConfig(
            num_load_balancers=balancers,
            num_suborams=suborams,
            value_size=4,
            security_parameter=16,
        )
        store = Snoopy(config, rng=random.Random(1))
        model = {k: bytes([k]) * 4 for k in range(40)}
        store.initialize(dict(model))

        for _ in range(12):
            # One balancer per epoch so epoch-ordering is deterministic.
            balancer = rng.randrange(balancers)
            keys = rng.sample(range(40), rng.randrange(1, 8))
            requests, writes = [], {}
            for i, k in enumerate(keys):
                if rng.random() < 0.5:
                    value = bytes([rng.randrange(256)]) * 4
                    requests.append(Request(OpType.WRITE, k, value, seq=i))
                    writes[k] = value
                else:
                    requests.append(Request(OpType.READ, k, seq=i))
            for request in requests:
                store.submit(request, load_balancer=balancer)
            responses = store.run_epoch()
            for response in responses:
                assert response.value == model[response.key]
            model.update(writes)

        for k in range(40):
            assert store.read(k) == model[k]


class TestObliviousShape:
    def test_suboram_load_independent_of_distribution(self, rng):
        """Each subORAM receives exactly B entries whatever the workload."""
        config = SnoopyConfig(
            num_load_balancers=1, num_suborams=3, value_size=4,
            security_parameter=32,
        )
        seen_sizes = []
        for workload in ("uniform", "skewed"):
            store = Snoopy(config, rng=random.Random(2))
            store.initialize({k: bytes(4) for k in range(50)})
            sizes = []

            def spy(suboram, _inner):
                def call(batches):
                    sizes.append((suboram, [len(b) for b in batches]))
                    return _inner(batches)

                return call

            for s in store.suborams:
                s.run_epoch = spy(s.suboram_id, s.run_epoch)
            keys = (
                [rng.randrange(50) for _ in range(20)]
                if workload == "uniform"
                else [3] * 20
            )
            store.batch([Request(OpType.READ, k, seq=i) for i, k in enumerate(keys)])
            # One epoch: one entry per subORAM.
            assert sorted(s for s, _ in sizes) == [0, 1, 2]
            seen_sizes.append(sorted(sizes))
        assert seen_sizes[0] == seen_sizes[1]


class TestOverflowSurfacing:
    def test_overflow_aborts_loudly_at_system_level(self):
        """With lambda=0 the batch bound is exactly ceil(R/S); hashing
        imbalance then overflows some epoch, and the system must raise
        (never silently drop and retry — that would leak, §4.1)."""
        from repro.errors import BatchOverflowError

        rng = random.Random(17)
        store = Snoopy(
            SnoopyConfig(num_suborams=2, value_size=4, security_parameter=0),
            rng=random.Random(18),
        )
        store.initialize({k: bytes(4) for k in range(200)})
        with pytest.raises(BatchOverflowError):
            for _ in range(60):
                keys = rng.sample(range(200), 9)
                store.batch(
                    [Request(OpType.READ, k, seq=i) for i, k in enumerate(keys)]
                )


class TestIntakeValidation:
    """A request that cannot fit a batch row is refused at ``submit``.

    Regression: it used to be queued, fail the build of its epoch with an
    untyped error, be requeued at the front by the rollback, and fail
    every later epoch on that balancer the same way.
    """

    POISON = [
        Request(OpType.WRITE, 5, b"abc"),          # 3 bytes, value_size 16
        Request(OpType.WRITE, 5, b"x" * 17),
        Request(OpType.READ, 2**70),               # key outside int64
        Request(OpType.READ, -(2**63) - 1),
        Request(OpType.READ, 5, client_id=-1),     # ids are uint64 columns
        Request(OpType.READ, 5, seq=2**64),
    ]

    def _store(self, kernel):
        store = Snoopy(
            SnoopyConfig(num_load_balancers=1, num_suborams=2, value_size=16,
                         security_parameter=16, kernel=kernel),
            rng=random.Random(3),
        )
        store.initialize({k: bytes([k]) * 16 for k in range(20)})
        return store

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_poison_request_refused_and_next_epoch_serves(
        self, kernel, pipelined
    ):
        from repro.errors import CapacityError

        with self._store(kernel) as store:
            pipeline = (
                store.start_pipeline(clock=False) if pipelined else None
            )
            for request in self.POISON:
                with pytest.raises(CapacityError):
                    store.submit(request)
            assert store.load_balancers[0].pending == 0  # nothing queued
            assert store.tickets.pending(0) == 0         # no ticket issued
            innocent = store.submit(Request(OpType.READ, 7, client_id=2))
            for request in self.POISON[:1]:
                with pytest.raises(CapacityError):
                    store.submit(request)
            if pipelined:
                pipeline.close_epoch()
                pipeline.flush()
            else:
                store.run_epoch()
            assert innocent.result().value == bytes([7]) * 16
