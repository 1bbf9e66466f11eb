"""Pooled execution backends: shared-memory threads and worker processes.

Both pools are created lazily on first :meth:`~ExecutionBackend.map` call
so that merely constructing a deployment never spawns workers, and both
survive pickling (the pool itself is dropped and re-created on demand),
which lets deployment objects holding a backend cross process boundaries.

**Fault surface.**  Pools turn infrastructure failures into the typed
errors the epoch retry machinery understands instead of hanging the
driver:

* ``task_timeout`` (seconds, per task) bounds how long any one task may
  run; an overrun raises :class:`~repro.errors.TaskTimeoutError` and the
  pool (or stuck sticky worker) is torn down so the late result can never
  corrupt a retried epoch.
* a worker process that dies mid-task (killed, OOM, segfault) raises
  :class:`~repro.errors.WorkerCrashError`; for sticky ``map_stateful``
  workers the parent additionally invalidates that key's state-cache
  entry and respawns the worker, forcing a clean full state ship on the
  retry.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import zlib
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from repro.errors import TaskTimeoutError, WorkerCrashError
from repro.exec import shipping
from repro.exec.backend import ExecutionBackend
from repro.utils.validation import require


def _unit_of(key) -> Optional[int]:
    """Best-effort epoch unit index from a ``map_stateful`` key.

    The epoch driver keys stateful tasks as ``(state_ns, suboram_index)``;
    surfacing that index on fault errors lets ``EpochFailedError`` name
    the failing unit without the backend knowing anything about epochs.
    """
    if (
        isinstance(key, tuple)
        and len(key) == 2
        and isinstance(key[1], int)
    ):
        return key[1]
    return None


def _instrumented(fn, submitted: float, queue_hist, run_hist):
    """Wrap a stage fn to record queue-wait and run time per task.

    Only used on shared-memory pools (the closure cannot cross a process
    boundary).  ``submitted`` is the fan-out instant — all of a stage's
    tasks are submitted together, so ``start - submitted`` is how long
    the task sat waiting for a free worker.
    """

    def wrapped(task):
        start = time.monotonic()
        queue_hist.observe(start - submitted)
        try:
            return fn(task)
        finally:
            run_hist.observe(time.monotonic() - start)

    return wrapped


def _default_thread_workers() -> int:
    """Threads for latency-bound epoch stages: several per core.

    Epoch work on one box is dominated by blocking time (simulated
    network/enclave latency, page faults) rather than GIL-bound compute,
    so oversubscribing cores is the right default.
    """
    return min(32, 4 * (os.cpu_count() or 1))


class _PooledBackend(ExecutionBackend):
    """Common plumbing for executor-based backends (lazy pool, close)."""

    name = "pooled"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ):
        if max_workers is not None:
            require(max_workers > 0, "max_workers must be positive")
        if task_timeout is not None:
            require(task_timeout > 0, "task_timeout must be positive")
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        self._executor: Optional[Executor] = None
        # Guards lazy pool creation/teardown: the pipelined scheduler's
        # stage threads issue overlapping map calls, and two of them
        # racing the first call must not each build (and leak) a pool.
        self._pool_lock = threading.Lock()

    def _make_executor(self) -> Executor:
        raise NotImplementedError

    def _get_executor(self) -> Executor:
        """The live pool, created on first use (double-checked lock)."""
        executor = self._executor
        if executor is None:
            with self._pool_lock:
                executor = self._executor
                if executor is None:
                    executor = self._executor = self._make_executor()
        return executor

    def _abandon_executor(self) -> None:
        """Drop a pool whose workers can no longer be trusted.

        Called after a timeout or worker crash: the stuck/late tasks are
        cancelled where possible and the pool reference released without
        waiting, so a straggler finishing later can never feed a result
        into a retried epoch.  The next ``map`` call builds a fresh pool.
        """
        with self._pool_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def map(self, fn, tasks) -> list:
        """Fan tasks out across the pool; gather results in task order.

        Safe to call from multiple threads concurrently (the pipelined
        scheduler overlaps stage dispatches); executors accept
        concurrent submissions, and pool creation is lock-guarded.
        """
        tasks = list(tasks)
        if len(tasks) <= 1:
            # One task gains nothing from the pool; run it inline (this
            # also keeps single-balancer deployments allocation-free).
            return [fn(task) for task in tasks]
        executor = self._get_executor()
        telemetry = self.telemetry
        if telemetry.enabled and self.supports_shared_state:
            # Shared-memory pools can time inside the worker: split each
            # task into queue wait (submit -> start) vs run time.
            fn = _instrumented(
                fn,
                time.monotonic(),
                telemetry.histogram(
                    "exec_task_queue_seconds", backend=self.name
                ),
                telemetry.histogram(
                    "exec_task_run_seconds", backend=self.name
                ),
            )
        # Process pools cannot ship the timing closure; record each
        # task's total submit-to-completion latency host-side instead
        # (requires the futures path even without a timeout).
        time_totals = telemetry.enabled and not self.supports_shared_state
        try:
            if self.task_timeout is None and not time_totals:
                # Executor.map preserves input order and re-raises the
                # first failing task's exception at iteration time.
                return list(executor.map(fn, tasks))
            submitted = time.monotonic()
            futures = [executor.submit(fn, task) for task in tasks]
            if time_totals:
                total_hist = telemetry.histogram(
                    "exec_task_total_seconds", backend=self.name
                )
                for future in futures:
                    future.add_done_callback(
                        lambda _f: total_hist.observe(
                            time.monotonic() - submitted
                        )
                    )
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result(timeout=self.task_timeout))
                except FutureTimeoutError as exc:
                    telemetry.counter(
                        "exec_task_timeouts_total", backend=self.name
                    ).inc()
                    self._abandon_executor()
                    raise TaskTimeoutError(
                        f"task {index} exceeded the per-task timeout of "
                        f"{self.task_timeout}s",
                        unit=index,
                    ) from exc
            return results
        except BrokenProcessPool as exc:
            telemetry.counter(
                "exec_worker_crashes_total", backend=self.name
            ).inc()
            self._abandon_executor()
            raise WorkerCrashError(
                "a pool worker process died mid-task"
            ) from exc

    def close(self) -> None:
        """Shut the pool down; safe to call repeatedly."""
        with self._pool_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # Executors are neither picklable nor deepcopy-able (and neither are
    # locks); drop them and let the pool re-create itself lazily
    # wherever the copy lands.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_executor"] = None
        state.pop("_pool_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pool_lock = threading.Lock()


class ThreadPoolBackend(_PooledBackend):
    """Shared-memory thread pool: overlap blocking epoch work.

    Tasks mutate shared objects in place (``supports_shared_state``), so
    subORAM state stays where it is and transports holding live channel
    state work unchanged.  On CPython the GIL serializes pure-Python
    compute (interpreter-bound units take turns at it instead of
    contending, see :func:`~repro.exec.backend.interpreter_turn`), but
    epoch stages that block — simulated network latency, encrypted-store
    paging, real sockets in a networked deployment — and whole-store
    NumPy passes overlap fully, which is what Figure 13's wall-clock
    speedup measures.
    """

    name = "thread"
    supports_shared_state = True

    def _make_executor(self) -> Executor:
        workers = (
            self.max_workers
            if self.max_workers is not None
            else _default_thread_workers()
        )
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-epoch"
        )


def _sticky_worker_main(conn) -> None:
    """Loop of one long-lived stateful worker process.

    Keeps a ``key -> (version, state)`` cache so the parent can send
    version probes instead of full state.  Wire objects are
    ``(envelope, reply_name, min_bytes)`` triples: ``envelope`` is the
    logical message ``(fn, key, version, has_state, state, args)`` as a
    :class:`~repro.exec.shipping.ShmShipment`,
    :class:`~repro.exec.shipping.PipeShipment`, or plain object;
    ``reply_name`` is the parent-owned shared-memory segment large
    replies should be written into (``None`` disables shm replies); and
    ``min_bytes`` is the parent's shm routing threshold, echoed so both
    directions agree.  Logical replies are ``("ok", new_state, result)``,
    ``("miss", None, None)`` when a probe finds no current cached state,
    or ``("error", exc, None)``; "ok" replies carrying bulk state ship
    through the reply segment when it fits and degrade to a
    :class:`~repro.exec.shipping.GrowHint` when not.  Segment
    attachments persist in the caches across epochs — a sticky worker
    maps each segment once, not once per message.
    """
    cache: dict = {}
    request_segments = shipping.AttachCache()
    reply_segments = shipping.AttachCache()
    while True:
        try:
            wire = conn.recv()
        except EOFError:
            break
        if wire is None:
            break
        envelope, reply_name, min_bytes = wire
        try:
            message = shipping.decode(envelope, request_segments.get)
        except Exception as exc:  # segment vanished / mapping failed
            conn.send((("error", RuntimeError(repr(exc)), None), None))
            continue
        fn, key, version, has_state, state, args = message
        try:
            if not has_state:
                cached = cache.get(key)
                if cached is None or cached[0] != version:
                    conn.send((("miss", None, None), None))
                    continue
                state = cached[1]
            new_state, result = fn(state, args)
            cache[key] = (version + 1, new_state)
            reply = ("ok", new_state, result)
        except BaseException as exc:  # propagate to the parent
            reply = ("error", exc, None)
        out = reply
        if reply_name is not None and reply[0] == "ok":
            try:
                out = shipping.encode_reply(
                    reply, reply_segments.get(reply_name),
                    min_bytes=min_bytes,
                )
            except Exception:  # shm failure: fall back to the pipe
                out = reply
        try:
            conn.send((out, None))
        except Exception as exc:  # unpicklable state/result/exception
            conn.send((("error", RuntimeError(repr(exc)), None), None))
    request_segments.close()
    reply_segments.close()
    conn.close()


class _StickyWorker:
    """Parent-side handle of one sticky worker: process + pipe + lock.

    When shipping is enabled the parent owns two shared-memory segments
    per worker — one per transfer direction — created on the first
    message whose out-of-band bytes clear the threshold and grown by
    replace-and-unlink (see :mod:`repro.exec.shipping`).
    """

    def __init__(self, ctx, use_shm: bool = False, on_ship=None,
                 min_bytes: Optional[int] = None):
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_sticky_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.lock = threading.Lock()
        self.use_shm = use_shm and shipping.shm_available()
        self.on_ship = on_ship
        self.min_bytes = shipping.resolve_min_bytes(min_bytes)
        self._send_pool = shipping.RegionPool()
        self._reply_pool = shipping.RegionPool()

    def _send_region(self, nbytes: int):
        # State transfers are roughly symmetric (the mutated state comes
        # back every epoch), so size the reply segment alongside.
        self._reply_pool.ensure(nbytes)
        return self._send_pool.ensure(nbytes)

    def _record(self, direction: str, transport: str, nbytes: int) -> None:
        if self.on_ship is not None:
            self.on_ship(direction, transport, nbytes)

    def request(self, message, timeout: Optional[float] = None) -> tuple:
        """Send one task message and wait for its reply (thread-safe).

        Raises:
            TaskTimeoutError: no reply arrived within ``timeout`` seconds.
                The caller must :meth:`kill` this worker — a late reply
                would desynchronize the request/reply protocol.
        """
        with self.lock:
            if self.use_shm:
                envelope = shipping.encode(
                    message,
                    self._send_region,
                    min_bytes=self.min_bytes,
                    on_ship=lambda transport, nbytes: self._record(
                        "send", transport, nbytes
                    ),
                )
                reply_region = self._reply_pool.region
                reply_name = (
                    reply_region.name if reply_region is not None else None
                )
            else:
                envelope, reply_name = message, None
            self.conn.send((envelope, reply_name, self.min_bytes))
            if timeout is not None and not self.conn.poll(timeout):
                raise TaskTimeoutError(
                    f"sticky worker gave no reply within {timeout}s"
                )
            wire, _ = self.conn.recv()
            if isinstance(wire, shipping.GrowHint):
                # Reply outgrew the segment: grow for next epoch, use the
                # inline pipe shipment now.
                self._reply_pool.ensure(wire.need_bytes)
                self._record("recv", "pipe", wire.need_bytes)
                return shipping.decode(wire.message)
            if isinstance(wire, shipping.ShmShipment):
                self._record("recv", "shm", sum(wire.sizes))
                region = self._reply_pool.region
                if region is None or region.name != wire.name:
                    raise WorkerCrashError(
                        "sticky worker replied through an unknown "
                        "shared-memory segment"
                    )
                return shipping.decode(wire, lambda _name: region)
            return shipping.decode(wire)

    def _close_segments(self) -> None:
        self._send_pool.close()
        self._reply_pool.close()

    def stop(self) -> None:
        """Ask the worker to exit and reap the process."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()
        self._close_segments()

    def kill(self) -> None:
        """Forcefully terminate a stuck or crashed worker and reap it."""
        try:
            self.process.kill()
        except Exception:  # pragma: no cover - already dead
            pass
        self.process.join(timeout=5)
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - defensive
            pass
        self._close_segments()


class ProcessPoolBackend(_PooledBackend):
    """Worker-process pool: true multi-core epoch execution.

    Stage functions and tasks are pickled to workers; mutated state
    (each subORAM's encrypted store) is shipped back by value and
    reinstalled by the epoch driver, so results remain byte-identical to
    serial execution.  Closures over live channels cannot cross the
    process boundary (``supports_shared_state`` is False); the driver
    rejects such transports with a
    :class:`~repro.errors.ConfigurationError`.

    **Cross-epoch state cache.**  ``map_stateful`` runs on dedicated
    *sticky* workers with per-key affinity: each worker keeps its keys'
    latest state in memory, the parent tracks a cheap version token per
    key, and an unchanged token turns the per-epoch state shipment into
    a tiny version probe.  ``state_cache_stats`` counts the outcomes
    (``hits`` — probe succeeded, nothing shipped; ``misses`` — probe
    failed, full state re-shipped; ``full_ships`` — every transfer of
    full state, including first sends).

    **Shared-memory state shipping.**  Even a probe hit ships the
    mutated state *back* every epoch, so by default (``shm_state=None``)
    bulk state bytes move through per-worker
    ``multiprocessing.shared_memory`` segments instead of the pickle
    pipe (see :mod:`repro.exec.shipping`): one copy into the segment,
    pipe traffic reduced to a tiny envelope.  Byte volume per transport
    is exported as ``exec_state_bytes_total{transport=shm|pipe,
    direction=send|recv}`` (and ships as ``exec_state_ships_total``).
    Disable with ``shm_state=False`` or ``SNOOPY_NO_SHM=1``; any shm
    failure silently falls back to plain pipe pickling.
    """

    name = "process"
    supports_shared_state = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        shm_state: Optional[bool] = None,
        shm_min_bytes: Optional[int] = None,
    ):
        super().__init__(max_workers, task_timeout)
        self._sticky: Dict[int, _StickyWorker] = {}
        # Guards the sticky-worker table so overlapping map_stateful
        # dispatches never double-spawn (or leak) a slot's worker.
        self._sticky_lock = threading.Lock()
        #: key -> (version, state object, token) from the previous call.
        self._state_cache: Dict[object, tuple] = {}
        self.state_cache_stats = {"hits": 0, "misses": 0, "full_ships": 0}
        #: Whether sticky-worker state rides shared-memory segments.
        self.shm_state = shipping.shipping_enabled(shm_state)
        #: Byte threshold routing state to shm vs the pipe (``None``
        #: resolves ``SNOOPY_SHM_MIN_BYTES`` / the module default).
        self.shm_min_bytes = shipping.resolve_min_bytes(shm_min_bytes)

    # ------------------------------------------------------------------
    # Stateless map (unchanged): ordinary executor pool
    # ------------------------------------------------------------------
    def _make_executor(self) -> Executor:
        workers = (
            self.max_workers
            if self.max_workers is not None
            else (os.cpu_count() or 1)
        )
        return ProcessPoolExecutor(max_workers=workers)

    # ------------------------------------------------------------------
    # Stateful map: sticky workers + version-probe protocol
    # ------------------------------------------------------------------
    def _worker_count(self) -> int:
        return (
            self.max_workers
            if self.max_workers is not None
            else (os.cpu_count() or 1)
        )

    def _sticky_worker(self, slot: int) -> _StickyWorker:
        with self._sticky_lock:
            worker = self._sticky.get(slot)
            if worker is None or not worker.process.is_alive():
                worker = _StickyWorker(
                    multiprocessing.get_context(),
                    use_shm=self.shm_state,
                    on_ship=self._record_ship,
                    min_bytes=self.shm_min_bytes,
                )
                self._sticky[slot] = worker
            return worker

    def _record_ship(
        self, direction: str, transport: str, nbytes: int
    ) -> None:
        """Count one state transfer per transport/direction (telemetry)."""
        self.telemetry.counter(
            "exec_state_ships_total",
            backend=self.name,
            transport=transport,
            direction=direction,
        ).inc()
        self.telemetry.counter(
            "exec_state_bytes_total",
            backend=self.name,
            transport=transport,
            direction=direction,
        ).inc(nbytes)

    @staticmethod
    def _slot_of(key, num_workers: int) -> int:
        return zlib.crc32(repr(key).encode()) % num_workers

    def map_stateful(self, fn, tasks, token=None) -> list:
        """Run stateful units on sticky workers; results in task order.

        See :meth:`ExecutionBackend.map_stateful` for the contract.  Keys
        map deterministically to workers, so a key's cached state is
        found again next epoch; tasks for different workers run
        concurrently, tasks sharing a worker run in task order.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        num_workers = self._worker_count()
        groups: Dict[int, List[int]] = {}
        for index, task in enumerate(tasks):
            slot = self._slot_of(task[0], num_workers)
            groups.setdefault(slot, []).append(index)
        # Spawn missing workers from the dispatching thread (forking from
        # the per-group threads below would be fork-unsafe).
        for slot in groups:
            self._sticky_worker(slot)

        results: list = [None] * len(tasks)
        failures: Dict[int, BaseException] = {}

        def run_group(slot: int, indices: List[int]) -> None:
            for index in indices:
                if failures:
                    return
                key, state, args = tasks[index]
                try:
                    with self.telemetry.time(
                        "exec_task_total_seconds", backend=self.name
                    ):
                        results[index] = self._run_sticky_task(
                            slot, fn, key, state, args, token
                        )
                except BaseException as exc:
                    failures[index] = exc
                    return

        threads = [
            threading.Thread(target=run_group, args=(slot, indices))
            for slot, indices in groups.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[min(failures)]
        return results

    #: state_cache_stats key -> ``exec_state_cache_total`` event label.
    _CACHE_EVENTS = {"hits": "hit", "misses": "miss", "full_ships": "full_ship"}

    def _note_cache(self, outcome: str) -> None:
        """Count one state-cache outcome (dict stats + telemetry mirror)."""
        self.state_cache_stats[outcome] += 1
        self.telemetry.counter(
            "exec_state_cache_total", event=self._CACHE_EVENTS[outcome]
        ).inc()

    def _note_timeout(self) -> None:
        """Count one sticky-task timeout on the telemetry registry."""
        self.telemetry.counter(
            "exec_task_timeouts_total", backend=self.name
        ).inc()

    def _discard_worker(self, slot: int, key) -> None:
        """Kill one sticky worker and drop the key's state-cache entry.

        After a timeout or double crash nothing the worker later says can
        be trusted (a late reply would desync the pipe protocol), so the
        process is killed outright.  Dropping the parent's cache entry
        forces a full state re-ship on the retry; other keys cached on
        the same (now respawned) worker miss their probe and re-ship too.
        """
        with self._sticky_lock:
            worker = self._sticky.pop(slot, None)
        if worker is not None:
            worker.kill()
        self._state_cache.pop(key, None)

    def _run_sticky_task(self, slot, fn, key, state, args, token) -> tuple:
        worker = self._sticky_worker(slot)
        timeout = self.task_timeout
        current_token = token(state) if token is not None else None
        cached = self._state_cache.get(key)
        version = cached[0] if cached is not None else 0
        probe = (
            cached is not None
            and cached[1] is state
            and current_token is not None
            and cached[2] == current_token
        )
        reply = None
        if probe:
            try:
                reply = worker.request(
                    (fn, key, version, False, None, args), timeout=timeout
                )
            except (EOFError, BrokenPipeError, OSError):
                reply = ("miss", None, None)
            except TaskTimeoutError as exc:
                self._note_timeout()
                self._discard_worker(slot, key)
                raise TaskTimeoutError(
                    f"stateful task for key {key!r} exceeded the per-task "
                    f"timeout of {timeout}s",
                    unit=_unit_of(key),
                ) from exc
            if reply[0] == "miss":
                self._note_cache("misses")
                reply = None
            else:
                self._note_cache("hits")
        if reply is None:
            self._note_cache("full_ships")
            try:
                reply = worker.request(
                    (fn, key, version, True, state, args), timeout=timeout
                )
            except TaskTimeoutError as exc:
                self._note_timeout()
                self._discard_worker(slot, key)
                raise TaskTimeoutError(
                    f"stateful task for key {key!r} exceeded the per-task "
                    f"timeout of {timeout}s",
                    unit=_unit_of(key),
                ) from exc
            except (EOFError, BrokenPipeError, OSError):
                # Worker died mid-task (e.g. killed); respawn once and
                # re-ship the full state.
                self.telemetry.counter(
                    "exec_worker_crashes_total", backend=self.name
                ).inc()
                with self._sticky_lock:
                    dead = self._sticky.pop(slot, None)
                if dead is not None:
                    dead.kill()  # reap + unlink its shm segments
                self._state_cache.pop(key, None)
                worker = self._sticky_worker(slot)
                self.telemetry.counter(
                    "exec_worker_respawns_total", backend=self.name
                ).inc()
                try:
                    reply = worker.request(
                        (fn, key, version, True, state, args),
                        timeout=timeout,
                    )
                except TaskTimeoutError as exc:
                    self._note_timeout()
                    self._discard_worker(slot, key)
                    raise TaskTimeoutError(
                        f"stateful task for key {key!r} exceeded the "
                        f"per-task timeout of {timeout}s",
                        unit=_unit_of(key),
                    ) from exc
                except (EOFError, BrokenPipeError, OSError) as exc:
                    # The respawned worker died too — give up loudly so
                    # the epoch retry machinery (not this backend)
                    # decides what happens next.
                    self.telemetry.counter(
                        "exec_worker_crashes_total", backend=self.name
                    ).inc()
                    self._discard_worker(slot, key)
                    raise WorkerCrashError(
                        f"sticky worker for key {key!r} died twice "
                        "(respawn and retry also crashed)",
                        unit=_unit_of(key),
                    ) from exc
        status, new_state, result = reply
        if status == "error":
            self._state_cache.pop(key, None)
            raise new_state if isinstance(new_state, BaseException) else (
                RuntimeError(repr(new_state))
            )
        new_token = token(new_state) if token is not None else None
        self._state_cache[key] = (version + 1, new_state, new_token)
        return new_state, result

    def close(self) -> None:
        """Shut down the executor pool and every sticky worker."""
        super().close()
        with self._sticky_lock:
            sticky, self._sticky = self._sticky, {}
        for worker in sticky.values():
            worker.stop()
        self._state_cache.clear()

    # Sticky workers and their pipes cannot cross a process boundary;
    # like the executor, they are dropped and lazily re-created.
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_sticky"] = {}
        state.pop("_sticky_lock", None)
        state["_state_cache"] = {}
        state["state_cache_stats"] = {"hits": 0, "misses": 0, "full_ships": 0}
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._sticky_lock = threading.Lock()
