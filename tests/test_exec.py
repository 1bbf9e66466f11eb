"""Unit tests for the execution-backend layer (repro.exec)."""

import os
import pickle
import signal
import time

import pytest

from repro.core.config import SnoopyConfig
from repro.errors import ConfigurationError, TaskTimeoutError, WorkerCrashError
from repro.exec import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
    parse_spec,
)


def square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


def boom(x):
    """Module-level failing task."""
    raise ValueError(f"boom {x}")


class TestParseSpec:
    def test_plain_names(self):
        assert parse_spec("serial") == (SerialBackend, None)
        assert parse_spec("thread") == (ThreadPoolBackend, None)
        assert parse_spec("process") == (ProcessPoolBackend, None)

    def test_worker_suffix(self):
        assert parse_spec("thread:8") == (ThreadPoolBackend, 8)
        assert parse_spec("process:2") == (ProcessPoolBackend, 2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("thread:lots")
        with pytest.raises(ConfigurationError):
            parse_spec("thread:0")
        with pytest.raises(ConfigurationError):
            parse_spec("thread:-3")

    def test_registry_covers_all_names(self):
        assert set(BACKENDS) == {"serial", "thread", "process"}


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
    @pytest.mark.parametrize("spec", ["serial", "thread:4", "process:2"])
    def test_map_preserves_order(self, spec):
        with make_backend(spec) as backend:
            assert backend.map(square, list(range(10))) == [
                x * x for x in range(10)
            ]

    @pytest.mark.parametrize("spec", ["serial", "thread:4", "process:2"])
    def test_map_empty(self, spec):
        with make_backend(spec) as backend:
            assert backend.map(square, []) == []

    @pytest.mark.parametrize("spec", ["serial", "thread:4"])
    def test_exceptions_propagate(self, spec):
        with make_backend(spec) as backend:
            with pytest.raises(ValueError, match="boom"):
                backend.map(boom, [1, 2, 3])

    def test_shared_state_flags(self):
        assert SerialBackend().supports_shared_state
        assert ThreadPoolBackend(max_workers=1).supports_shared_state
        assert not ProcessPoolBackend(max_workers=1).supports_shared_state

    def test_names(self):
        assert SerialBackend().name == "serial"
        assert ThreadPoolBackend(max_workers=1).name == "thread"
        assert ProcessPoolBackend(max_workers=1).name == "process"

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
# map_stateful: the stateful-unit contract and the process backend's
# sticky-worker state cache
# ---------------------------------------------------------------------------
def bump(state, args):
    """Module-level stateful unit: count calls, echo args."""
    return state + 1, (state, args)


def version_of(state):
    """Token for integer states: the state itself."""
    return state


class TestMapStatefulContract:
    @pytest.mark.parametrize("backend_factory", [
        SerialBackend,
        lambda: ThreadPoolBackend(max_workers=2),
        lambda: ProcessPoolBackend(max_workers=2),
    ])
    def test_returns_state_result_pairs_in_order(self, backend_factory):
        with backend_factory() as backend:
            tasks = [(("ns", i), 10 * i, i) for i in range(4)]
            out = backend.map_stateful(bump, tasks, token=version_of)
            assert out == [(10 * i + 1, (10 * i, i)) for i in range(4)]

    def test_empty_tasks(self):
        assert SerialBackend().map_stateful(bump, []) == []

    def test_exception_propagates(self):
        with ProcessPoolBackend(max_workers=1) as backend:
            with pytest.raises(ValueError):
                backend.map_stateful(raise_stateful, [("k", 0, 1)])


def raise_stateful(state, args):
    """Module-level failing stateful unit."""
    raise ValueError(f"stateful boom {args}")


class TestProcessStateCache:
    def test_probe_hits_when_state_unchanged(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            state = 5
            for round_index in range(3):
                [(state, _)] = backend.map_stateful(
                    bump, [("key", state, round_index)], token=version_of
                )
            stats = backend.state_cache_stats
            assert stats == {"hits": 2, "misses": 0, "full_ships": 1}

    def test_changed_state_forces_full_ship(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            [(state, _)] = backend.map_stateful(
                bump, [("key", 0, "a")], token=version_of
            )
            # Replace the state object out-of-band: identity check fails,
            # so the backend must ship the new state rather than probe.
            [(state, result)] = backend.map_stateful(
                bump, [("key", 99, "b")], token=version_of
            )
            assert result == (99, "b")
            assert backend.state_cache_stats["full_ships"] == 2
            assert backend.state_cache_stats["hits"] == 0

    def test_no_token_always_ships(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            state = 0
            for _ in range(3):
                [(state, _)] = backend.map_stateful(
                    bump, [("key", state, None)]
                )
            assert backend.state_cache_stats["hits"] == 0
            assert backend.state_cache_stats["full_ships"] == 3

    def test_results_match_serial(self):
        tasks = [(("so", i), 100 * i, ("args", i)) for i in range(5)]
        serial = SerialBackend().map_stateful(bump, list(tasks),
                                              token=version_of)
        with ProcessPoolBackend(max_workers=2) as backend:
            pooled = backend.map_stateful(bump, list(tasks),
                                          token=version_of)
        assert pooled == serial

    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(max_workers=1)
        backend.map_stateful(bump, [("key", 0, 0)], token=version_of)
        backend.close()
        backend.close()
        # A closed backend lazily respawns workers on the next call.
        assert backend.map_stateful(bump, [("key", 7, 1)],
                                    token=version_of) == [(8, (7, 1))]
        backend.close()

    def test_sticky_cache_dropped_on_pickle(self):
        backend = ProcessPoolBackend(max_workers=1)
        backend.map_stateful(bump, [("key", 0, 0)], token=version_of)
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.state_cache_stats == {
            "hits": 0, "misses": 0, "full_ships": 0
        }
        assert clone.map_stateful(bump, [("key", 3, 1)],
                                  token=version_of) == [(4, (3, 1))]
        clone.close()
        backend.close()


# ---------------------------------------------------------------------------
# Fault surface: per-task timeouts and worker-crash detection
# ---------------------------------------------------------------------------
def sleepy(x):
    """Module-level task that hangs on negative inputs."""
    if x < 0:
        time.sleep(1.5)
    return x * x


def die(x):
    """Module-level task killing its own worker process (SIGKILL)."""
    os.kill(os.getpid(), signal.SIGKILL)


def sleepy_stateful(state, args):
    """Module-level stateful unit that hangs."""
    time.sleep(1.5)
    return state, args


def die_stateful(state, args):
    """Module-level stateful unit killing its sticky worker."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestTaskTimeouts:
    def test_thread_timeout_raises_and_names_the_unit(self):
        with ThreadPoolBackend(max_workers=2, task_timeout=0.1) as backend:
            with pytest.raises(TaskTimeoutError) as excinfo:
                backend.map(sleepy, [1, -1, 2])
            assert excinfo.value.unit == 1
            # The abandoned pool is replaced; the backend stays usable.
            assert backend.map(sleepy, [2, 3]) == [4, 9]

    def test_process_timeout_raises(self):
        with ProcessPoolBackend(max_workers=2, task_timeout=0.2) as backend:
            with pytest.raises(TaskTimeoutError):
                backend.map(sleepy, [-1, 1, 2])
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
        assert make_backend("serial", task_timeout=1.5).name == "serial"

    def test_sticky_timeout_kills_worker_and_invalidates_cache(self):
        with ProcessPoolBackend(max_workers=1, task_timeout=0.2) as backend:
            [(state, _)] = backend.map_stateful(
                bump, [(("ns", 3), 0, "a")], token=version_of
            )
            with pytest.raises(TaskTimeoutError) as excinfo:
                backend.map_stateful(
                    sleepy_stateful, [(("ns", 3), state, "b")],
                    token=version_of,
                )
            assert excinfo.value.unit == 3  # from the (ns, index) key
            # The stuck worker was killed and the cache entry dropped:
            # the next call re-ships full state to a fresh worker.
            ships_before = backend.state_cache_stats["full_ships"]
            out = backend.map_stateful(
                bump, [(("ns", 3), 7, "c")], token=version_of
            )
            assert out == [(8, (7, "c"))]
            assert backend.state_cache_stats["full_ships"] == ships_before + 1


class TestWorkerCrashes:
    def test_process_pool_crash_raises_worker_crash_error(self):
        with ProcessPoolBackend(max_workers=2) as backend:
            with pytest.raises(WorkerCrashError):
                backend.map(die, [1, 2, 3])
            # Pool is rebuilt on the next call.
            assert backend.map(square, [2, 3]) == [4, 9]

    def test_sticky_worker_killed_once_recovers_transparently(self):
        with ProcessPoolBackend(max_workers=1) as backend:
            [(state, _)] = backend.map_stateful(
                bump, [("key", 0, 0)], token=version_of
            )
            backend._sticky[0].process.kill()
            backend._sticky[0].process.join(timeout=5)
            # One crash is absorbed: respawn + full re-ship, same result.
            out = backend.map_stateful(
                bump, [("key", state, 1)], token=version_of
            )
            assert out == [(2, (1, 1))]

    def test_sticky_worker_dying_twice_raises_worker_crash_error(self):
        with ProcessPoolBackend(max_workers=1) as backend:
            with pytest.raises(WorkerCrashError) as excinfo:
                backend.map_stateful(
                    die_stateful, [(("ns", 1), 0, 0)], token=version_of
                )
            assert excinfo.value.unit == 1
            # Even after a double crash the backend remains usable.
            assert backend.map_stateful(
                bump, [(("ns", 1), 5, "x")], token=version_of
            ) == [(6, (5, "x"))]


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
