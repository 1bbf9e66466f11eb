"""Execution backends: how a Snoopy epoch's independent work units run.

The paper's scalability argument (§6, Figures 11/13) assumes the L load
balancers and S subORAMs run *concurrently*: equation (1) takes the max,
not the sum, of the pipeline stages.  This package supplies that
concurrency as a pluggable layer so one functional codebase serves both
purposes — auditable serial execution and parallel execution whose
wall-clock actually exhibits the paper's scaling behaviour.

Two backends implement the common :class:`ExecutionBackend` interface:

* ``serial`` — :class:`SerialBackend`: run tasks inline, in order.  The
  reference semantics; zero overhead.
* ``thread`` — :class:`ThreadPoolBackend`: a shared-memory thread pool.
  SubORAM state is mutated in place; blocking work (simulated network
  latency, paging, real sockets) overlaps across components.

Both run every unit in this process.  SubORAMs that live in their own
processes, as the paper's do on their own machines, are reached through
:class:`~repro.serve.workers.WorkerCluster`: the backend then fans out
the sealed-channel round trips, and each worker keeps its partition
resident.

Every backend preserves the *fixed balancer order within each subORAM*
that Appendix C's linearizability proof requires: the epoch driver hands
each stage-➋ unit — a group of co-resident subORAMs, one per backend
``width`` (:func:`repro.core.epoch.stage_groups`), or one out-of-process
subORAM — its members' L batches as one ordered task, and backends only
parallelize *across* tasks, never within one.  Results are therefore
byte-identical across backends (``tests/test_parallel_equivalence.py``).

Backends are selected by spec string — ``"serial"``, ``"thread"``,
``"thread:8"`` — via :func:`make_backend`, which is what
:class:`~repro.core.config.SnoopyConfig.execution_backend` feeds; the
``:N`` suffix is the one way to size the pool::

    from repro import Snoopy, SnoopyConfig

    store = Snoopy(SnoopyConfig(num_suborams=4, execution_backend="thread:8"))
"""

from __future__ import annotations

from typing import Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.exec.backend import ExecutionBackend, SerialBackend
from repro.exec.pools import ThreadPoolBackend

#: Registry of spec name -> backend class (the BCache-style pluggable
#: backend split: callers name a backend, the registry builds it).
BACKENDS: dict = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
}

#: The backend axis' one default: what ``SnoopyConfig`` and
#: :func:`make_backend` resolve an omitted spec to.  ``"serial"`` is the
#: reference semantics and is named explicitly where it is wanted.
DEFAULT_BACKEND = ThreadPoolBackend.name


def parse_spec(spec: str) -> Tuple[Type[ExecutionBackend], Optional[int]]:
    """Split a ``"name"`` / ``"name:workers"`` spec into (class, workers).

    Only a pool takes a worker count: ``"serial:4"`` would size nothing,
    and ``"thread:"`` names no count.

    Raises:
        ConfigurationError: unknown backend name, or a worker count that
            is empty, malformed, not positive or given to ``serial``.
    """
    name, colon, workers_part = str(spec).partition(":")
    cls = BACKENDS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"expected one of {sorted(BACKENDS)}"
        )
    workers: Optional[int] = None
    if colon:
        if cls is SerialBackend:
            raise ConfigurationError(
                f"backend spec {spec!r}: the serial backend has no pool "
                "to size"
            )
        try:
            workers = int(workers_part)
        except ValueError:
            raise ConfigurationError(
                f"backend spec {spec!r}: worker count must be an integer"
            ) from None
        if workers <= 0:
            raise ConfigurationError(
                f"backend spec {spec!r}: worker count must be positive"
            )
    return cls, workers


def make_backend(spec: Optional[str] = None) -> ExecutionBackend:
    """Build the execution backend a spec string names.

    Args:
        spec: ``"serial"``, ``"thread"`` or ``"thread:8"``; ``None``
            means :data:`DEFAULT_BACKEND`.

    Raises:
        ConfigurationError: the spec names no registered backend, or
            carries a worker count :func:`parse_spec` rejects.
    """
    cls, workers = parse_spec(
        spec if spec is not None else DEFAULT_BACKEND
    )
    return cls() if workers is None else cls(max_workers=workers)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "make_backend",
    "parse_spec",
]
