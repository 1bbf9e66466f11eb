"""Unit tests for the execution-backend layer (repro.exec)."""

import pickle
import time

import pytest

from repro.core.config import SnoopyConfig
from repro.errors import ConfigurationError, TaskTimeoutError
from repro.exec import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
    parse_spec,
)


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

    def test_instance_passthrough(self):
        backend = ThreadPoolBackend(max_workers=2)
        assert make_backend(backend) is backend
        backend.close()

    def test_spec_suffix_wins_over_max_workers(self):
        backend = make_backend("thread:3", max_workers=7)
        assert backend.max_workers == 3
        backend.close()

    def test_max_workers_used_without_suffix(self):
        backend = make_backend("thread", max_workers=5)
        assert backend.max_workers == 5
        backend.close()


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

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            SnoopyConfig(execution_backend="quantum")

    def test_config_rejects_bad_max_workers(self):
        with pytest.raises(Exception):
            SnoopyConfig(max_workers=0)

    def test_config_defaults_to_served_path(self):
        assert SnoopyConfig().execution_backend == "thread"
        assert SnoopyConfig(execution_backend=None) == SnoopyConfig()


# ---------------------------------------------------------------------------
# Fault surface: per-task timeouts
# ---------------------------------------------------------------------------
def sleepy(x):
    """Module-level task that hangs on negative inputs."""
    if x < 0:
        time.sleep(1.5)
    return x * x


class TestTaskTimeouts:
    def test_thread_timeout_raises_and_names_the_unit(self):
        with ThreadPoolBackend(max_workers=2, task_timeout=0.1) as backend:
            with pytest.raises(TaskTimeoutError) as excinfo:
                backend.map(sleepy, [1, -1, 2])
            assert excinfo.value.unit == 1
            # The abandoned pool is replaced; the backend stays usable.
            assert backend.map(sleepy, [2, 3]) == [4, 9]

    def test_no_timeout_by_default(self):
        with ThreadPoolBackend(max_workers=2) as backend:
            assert backend.task_timeout is None
            assert backend.map(square, [1, 2, 3]) == [1, 4, 9]

    def test_make_backend_passes_task_timeout(self):
        backend = make_backend("thread:2", task_timeout=1.5)
        assert backend.task_timeout == 1.5
        backend.close()
        # Serial ignores it (inline execution cannot be bounded).
        serial = make_backend("serial", task_timeout=1.5)
        assert serial.name == "serial" and serial.task_timeout is None


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
