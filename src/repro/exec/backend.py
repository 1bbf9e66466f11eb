"""The execution-backend interface and the serial reference backend.

An :class:`ExecutionBackend` answers one question for the epoch driver:
*how do independent units of epoch work run?*  The driver expresses each
pipeline stage as ``backend.map(stage_fn, tasks)`` where the tasks are
mutually independent; the backend decides whether they run one after
another (:class:`SerialBackend`) or on a shared-memory thread pool
(:class:`~repro.exec.pools.ThreadPoolBackend`).  Either way a task runs
in this process on the objects it is handed, so the mutations it makes
are the caller's.

Backends make three guarantees the driver relies on:

* ``map`` returns results **in task order** (never completion order), so
  the fixed balancer order of Appendix C's linearization proof survives
  any scheduling;
* the first task exception propagates to the caller, so security aborts
  such as :class:`~repro.errors.BatchOverflowError` surface loudly no
  matter where the task ran;
* ``map`` dispatch is **overlap-safe**: distinct threads may issue
  ``map`` calls concurrently (the pipelined epoch scheduler's builder
  and matcher threads do exactly that while the executor thread runs
  stage ➋).  The serial backend is trivially reentrant; the thread pool
  guards its lazy creation with a lock, and the underlying executor
  accepts concurrent submissions.
"""

from __future__ import annotations

import contextlib
import threading
from abc import ABC, abstractmethod
from typing import Callable, List, Sequence, TypeVar

from repro.telemetry import NULL_TELEMETRY, resolve_telemetry

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: A unit over fewer bytes than this has no NumPy pass long enough to be
#: worth running beside another thread (see :func:`interpreter_turn`).
GIL_FREE_MIN_BYTES = 1 << 20

_TURN = threading.Lock()
_NO_TURN = contextlib.nullcontext()


def interpreter_turn(gil_free_bytes: int = 0):
    """The context a stage unit computes under.

    Threads that make many short NumPy calls hand the GIL over at every
    call, and between two cores each handover is a futex wake-up: the
    same unit then costs twice the CPU, and how often it happens depends
    on where the OS places the threads — with one core taken by another
    tenant a deployment served *faster* than with both free.  So units
    that are interpreter-bound take turns: one process-wide lock held
    for the whole unit, on which the other threads sleep instead of
    contending.  A unit whose bulk passes cover at least
    :data:`GIL_FREE_MIN_BYTES` (``gil_free_bytes``; 0 for a unit with no
    such pass) runs unguarded and overlaps as before.  Callers pass
    public sizes only, and must not wait on another thread inside.
    """
    return _TURN if gil_free_bytes < GIL_FREE_MIN_BYTES else _NO_TURN


class ExecutionBackend(ABC):
    """How independent units of epoch work execute (§6's parallel pipeline).

    Subclasses define :meth:`map`; everything else (context management,
    idempotent :meth:`close`) is shared.  Backends are reusable across
    epochs and deployments, and cheap to construct: pools are created
    lazily on first use.
    """

    #: Registry/spec name of the backend (e.g. ``"serial"``, ``"thread"``).
    name: str = "abstract"

    #: How many units of one stage can compute at once: the number of
    #: stage-➋ groups co-resident subORAMs are split into
    #: (:func:`repro.core.epoch.stage_groups`).  Public configuration.
    width: int = 1

    #: Telemetry handle, defaulting to the shared no-op; deployments call
    #: :meth:`attach_telemetry` to wire in their live handle.  The pooled
    #: backend records per-task queue-wait/run timings through it; the
    #: serial backend stays instrumentation-free (its
    #: stage timings are exactly the driver's, so per-task metrics would
    #: only duplicate them).
    telemetry = NULL_TELEMETRY

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`~repro.telemetry.Telemetry` handle (or None) in."""
        self.telemetry = resolve_telemetry(telemetry)

    @abstractmethod
    def map(
        self,
        fn: Callable[[_Task], _Result],
        tasks: Sequence[_Task],
    ) -> List[_Result]:
        """Run ``fn`` over ``tasks``; results in task order.

        Args:
            fn: the stage function.
            tasks: independent work items.

        Returns:
            ``[fn(task) for task in tasks]`` — possibly computed
            concurrently, but always returned in input order.
        """

    def close(self) -> None:
        """Release pooled workers; idempotent.  No-op for serial."""

    def __enter__(self) -> "ExecutionBackend":
        """Context-manager entry: returns self."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: closes the backend."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class SerialBackend(ExecutionBackend):
    """Run every task inline, in order, on the calling thread.

    The reference backend: zero concurrency, zero overhead, and the
    behaviour every parallel backend must be byte-for-byte equivalent to
    (``tests/test_parallel_equivalence.py`` enforces this).
    """

    name = "serial"

    def map(self, fn, tasks) -> list:
        """Apply ``fn`` to each task sequentially."""
        return [fn(task) for task in tasks]
