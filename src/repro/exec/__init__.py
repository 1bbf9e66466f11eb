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
each subORAM its L batches as one ordered task, and backends only
parallelize *across* tasks, never within one.  Results are therefore
byte-identical across backends (``tests/test_parallel_equivalence.py``).

Backends are selected by spec string — ``"serial"``, ``"thread"``,
``"thread:8"`` — via :func:`make_backend`, which is what
:class:`~repro.core.config.SnoopyConfig.execution_backend` feeds.
Passing an :class:`ExecutionBackend` instance anywhere a spec is
accepted also works::

    from repro import Snoopy, SnoopyConfig

    store = Snoopy(SnoopyConfig(num_suborams=4, execution_backend="serial"))
    # ... or explicitly:
    from repro.exec import ThreadPoolBackend
    store = Snoopy(SnoopyConfig(num_suborams=4), backend=ThreadPoolBackend(8))
"""

from __future__ import annotations

from typing import Optional, Tuple, Type, Union

from repro.errors import ConfigurationError
from repro.exec.backend import ExecutionBackend, SerialBackend
from repro.exec.pools import ThreadPoolBackend

#: Registry of spec name -> backend class (the BCache-style pluggable
#: backend split: callers name a backend, the registry builds it).
BACKENDS: dict = {
    SerialBackend.name: SerialBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
}

BackendSpec = Union[str, ExecutionBackend]

#: The backend axis' one default: what ``SnoopyConfig`` and
#: :func:`make_backend` resolve an omitted spec to.  ``"serial"`` is the
#: reference semantics and is named explicitly where it is wanted.
DEFAULT_BACKEND = ThreadPoolBackend.name


def parse_spec(spec: str) -> Tuple[Type[ExecutionBackend], Optional[int]]:
    """Split a ``"name"`` / ``"name:workers"`` spec into (class, workers).

    Raises:
        ConfigurationError: unknown backend name or malformed worker count.
    """
    name, _, workers_part = str(spec).partition(":")
    cls = BACKENDS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"expected one of {sorted(BACKENDS)}"
        )
    workers: Optional[int] = None
    if workers_part:
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


def make_backend(
    spec: Optional[BackendSpec] = None,
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> ExecutionBackend:
    """Build (or pass through) an execution backend.

    Args:
        spec: a spec string (``"serial"``, ``"thread"``, ``"thread:8"``)
            or an already-constructed :class:`ExecutionBackend`, returned
            unchanged; ``None`` means :data:`DEFAULT_BACKEND`.
        max_workers: pool size; overridden by a ``:N`` suffix in the spec.
        task_timeout: per-task timeout in seconds for the thread pool; an
            overrun raises :class:`~repro.errors.TaskTimeoutError`.
            Ignored for ``serial`` (inline execution cannot be bounded)
            and for an already-constructed backend instance.

    Raises:
        ConfigurationError: the spec names no registered backend.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    cls, spec_workers = parse_spec(
        spec if spec is not None else DEFAULT_BACKEND
    )
    workers = spec_workers if spec_workers is not None else max_workers
    if cls is SerialBackend:
        return cls()
    return cls(max_workers=workers, task_timeout=task_timeout)


__all__ = [
    "BACKENDS",
    "BackendSpec",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "make_backend",
    "parse_spec",
]
