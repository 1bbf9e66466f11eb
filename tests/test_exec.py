"""Unit tests for the execution-backend layer (repro.exec)."""

import pickle
import threading

import pytest

from repro.core.config import SnoopyConfig
from repro.errors import ConfigurationError
from repro.exec import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
    parse_spec,
)
from repro.sim.latency import LatencySubOram


def square(x):
    """Module-level task."""
    return x * x


def boom(x):
    """Module-level failing task."""
    raise ValueError(f"boom {x}")


class TestParseSpec:
    def test_plain_names(self):
        assert parse_spec("serial") == (SerialBackend, None)
        assert parse_spec("thread") == (ThreadPoolBackend, None)

    def test_worker_suffix(self):
        assert parse_spec("thread:8") == (ThreadPoolBackend, 8)

    def test_unknown_name_rejected(self):
        for spec in ("gpu", "process", "process:2"):
            with pytest.raises(ConfigurationError, match="serial.*thread"):
                parse_spec(spec)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("thread:lots")
        with pytest.raises(ConfigurationError):
            parse_spec("thread:0")
        with pytest.raises(ConfigurationError):
            parse_spec("thread:-3")

    def test_registry_covers_all_names(self):
        assert set(BACKENDS) == {"serial", "thread"}


class TestMakeBackend:
    def test_default_is_the_config_default(self):
        with make_backend() as backend:
            assert backend.name == SnoopyConfig().execution_backend

    def test_spec_suffix_sizes_the_pool(self):
        with make_backend("thread:3") as backend:
            assert backend.max_workers == 3
        with make_backend("thread") as backend:
            assert backend.max_workers is None  # the pool's own default



class TestBackendsMap:
    @pytest.mark.parametrize("spec", ["serial", "thread:4"])
    def test_map_preserves_order(self, spec):
        with make_backend(spec) as backend:
            assert backend.map(square, list(range(10))) == [
                x * x for x in range(10)
            ]

    @pytest.mark.parametrize("spec", ["serial", "thread:4"])
    def test_map_empty(self, spec):
        with make_backend(spec) as backend:
            assert backend.map(square, []) == []

    @pytest.mark.parametrize("spec", ["serial", "thread:4"])
    def test_exceptions_propagate(self, spec):
        with make_backend(spec) as backend:
            with pytest.raises(ValueError, match="boom"):
                backend.map(boom, [1, 2, 3])

    def test_names(self):
        assert SerialBackend().name == "serial"
        assert ThreadPoolBackend(max_workers=1).name == "thread"

    def test_pool_backend_survives_pickling(self):
        backend = ThreadPoolBackend(max_workers=2)
        backend.map(square, [1, 2, 3])  # force executor creation
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.map(square, [4]) == [16]
        backend.close()
        clone.close()

    def test_interface_is_abstract(self):
        with pytest.raises(TypeError):
            ExecutionBackend()  # map() is abstract


class TestConfigIntegration:
    def test_config_accepts_backend_specs(self):
        config = SnoopyConfig(execution_backend="thread:4")
        assert config.execution_backend == "thread:4"

    @pytest.mark.parametrize("spec", ["quantum", "serial:4", "thread:"])
    def test_config_rejects_unknown_backend(self, spec):
        # A pool count is the one pool-size setting: a count that sizes
        # nothing (serial) or is empty must not validate silently.
        with pytest.raises(ConfigurationError):
            SnoopyConfig(execution_backend=spec)

    def test_config_defaults_to_served_path(self):
        assert SnoopyConfig().execution_backend == "thread"
        assert SnoopyConfig(execution_backend=None) == SnoopyConfig()


class TestInterpreterTurn:
    def test_suboram_holds_the_turn_unless_its_passes_are_bulk(self, monkeypatch):
        from repro.exec import backend
        from repro.suboram.suboram import SubOram
        from repro.oblivious.soa import Batch
        from repro.types import OpType, Request
        turn, held = backend.interpreter_turn(), []
        suboram = SubOram(0, value_size=4, security_parameter=16)
        suboram.initialize({k: bytes(4) for k in range(8)})
        real = suboram.store.get_batch
        suboram.store.get_batch = lambda: (held.append(turn.locked()), real())[1]
        for threshold in (backend.GIL_FREE_MIN_BYTES, 1):
            monkeypatch.setattr(backend, "GIL_FREE_MIN_BYTES", threshold)
            suboram.batch_access(
                Batch.from_requests([Request(OpType.READ, 3)], 4))
        assert held == [True, False] and not turn.locked()


class _Rendezvous(LatencySubOram):
    """A latency-wrapped subORAM whose ``run_epoch`` first waits for its
    S peers at one shared barrier and records whether they all came."""

    def __init__(self, inner, barrier, met):
        super().__init__(inner, batch_delay=0.01)
        self.barrier, self.met = barrier, met

    def run_epoch(self, batches):
        try:
            self.barrier.wait()
            self.met.append(True)
        except threading.BrokenBarrierError:
            self.met.append(False)
        return super().run_epoch(batches)


class TestStageUnitsRunAtOnce:
    """Stage ➋'s S subORAM units run at the same time under ``thread:S``
    and one after another under ``serial`` — shown by a barrier only S
    concurrent units can trip, not by a wall-clock ratio."""

    S = 4

    @pytest.mark.parametrize("spec, timeout, together", [
        (f"thread:{S}", 30.0, True),
        ("serial", 0.2, False),
    ])
    def test_barrier_trips_only_when_units_overlap(
        self, spec, timeout, together
    ):
        from repro.core.snoopy import Snoopy, _default_suboram_factory
        from repro.types import OpType, Request

        barrier, met = threading.Barrier(self.S, timeout=timeout), []

        def factory(suboram_id, config, keychain):
            return _Rendezvous(
                _default_suboram_factory(suboram_id, config, keychain),
                barrier, met,
            )

        config = SnoopyConfig(
            num_load_balancers=2, num_suborams=self.S, value_size=8,
            security_parameter=16, execution_backend=spec,
        )
        with Snoopy(config, suboram_factory=factory) as store:
            store.initialize({k: bytes(8) for k in range(32)})
            for key in range(8):
                store.submit(Request(OpType.READ, key))
            assert len(store.run_epoch()) == 8
        assert met == [together] * self.S
