"""The pooled execution backend: a shared-memory thread pool.

The pool is created lazily on first :meth:`~ExecutionBackend.map` call
so that merely constructing a deployment never spawns threads, and the
backend survives pickling and deep copies (the pool itself is dropped
and re-created on demand).

**Fault surface.**  A task runs until it returns or raises; the pool
sets no deadline on it.  The first exception propagates out of
:meth:`ThreadPoolBackend.map` and the epoch driver decides on a retry
(see :mod:`repro.core.epoch`).  Out-of-process subORAMs run behind
:class:`~repro.serve.workers.WorkerCluster`, not behind a backend.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.exec.backend import ExecutionBackend
from repro.utils.validation import require


def _instrumented(fn, submitted: float, queue_hist, run_hist):
    """Wrap a stage fn to record queue-wait and run time per task.

    ``submitted`` is the fan-out instant — all of a stage's tasks are
    submitted together, so ``start - submitted`` is how long the task
    sat waiting for a free worker.
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


class ThreadPoolBackend(ExecutionBackend):
    """Shared-memory thread pool: overlap blocking epoch work.

    Tasks mutate shared objects in place, so subORAM state stays where
    it is and transports holding live channel state work unchanged.  On
    CPython the GIL serializes pure-Python compute (interpreter-bound
    units take turns at it instead of contending, see
    :func:`~repro.exec.backend.interpreter_turn`), but epoch stages that
    block — simulated network latency, encrypted-store paging, real
    sockets in a networked deployment — and whole-store NumPy passes
    overlap fully, which is what Figure 13's wall-clock speedup measures.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None:
            require(max_workers > 0, "max_workers must be positive")
        self.max_workers = max_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        # Guards lazy pool creation/teardown: the pipelined scheduler's
        # stage threads issue overlapping map calls, and two of them
        # racing the first call must not each build (and leak) a pool.
        self._pool_lock = threading.Lock()

    def _get_executor(self) -> ThreadPoolExecutor:
        """The live pool, created on first use (double-checked lock)."""
        executor = self._executor
        if executor is None:
            with self._pool_lock:
                executor = self._executor
                if executor is None:
                    workers = (
                        self.max_workers
                        if self.max_workers is not None
                        else _default_thread_workers()
                    )
                    executor = self._executor = ThreadPoolExecutor(
                        max_workers=workers, thread_name_prefix="repro-epoch"
                    )
        return executor

    def map(self, fn, tasks) -> list:
        """Fan tasks out across the pool; gather results in task order.

        Safe to call from multiple threads concurrently (the pipelined
        scheduler overlaps stage dispatches); the executor accepts
        concurrent submissions, and pool creation is lock-guarded.
        """
        tasks = list(tasks)
        if len(tasks) <= 1:
            # One task gains nothing from the pool; run it inline (this
            # also keeps single-balancer deployments allocation-free).
            return [fn(task) for task in tasks]
        executor = self._get_executor()
        telemetry = self.telemetry
        if telemetry.enabled:
            # Split each task into queue wait (submit -> start) vs run.
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
        # Executor.map preserves input order and re-raises the first
        # failing task's exception at iteration time.
        return list(executor.map(fn, tasks))

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
