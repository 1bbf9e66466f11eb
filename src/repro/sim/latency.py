"""Latency injection: make epoch wall-clock reflect deployment physics.

The functional subORAMs execute in microseconds, so on a small machine
the benefit of running them concurrently is invisible.  In the paper's
deployment every batch crosses a datacenter network and runs inside an
enclave on its *own* machine — per-batch time is dominated by work that
happens **off** the caller's CPU.  :class:`LatencySubOram` reproduces
that: it wraps a functional subORAM and sleeps for a configurable
interval around every ``batch_access``, modelling network RTT plus the
remote machine's processing time.

Under :class:`~repro.exec.backend.SerialBackend` the injected intervals
add up (one machine doing S machines' waiting in sequence); under
:class:`~repro.exec.pools.ThreadPoolBackend` they overlap, so epoch
wall-clock approaches ``max`` instead of ``sum`` — the shape of the
paper's equation (1) and the effect Figure 13 measures.  This is what
``benchmarks/bench_fig13_parallelism.py`` uses to demonstrate the
execution engine's speedup.

Results are unchanged by wrapping: ``LatencySubOram`` delegates every
call to the wrapped subORAM.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.oblivious.soa import Batch
from repro.utils.validation import require


class LatencySubOram:
    """A subORAM proxy that charges wall-clock time per batch access.

    Args:
        inner: the functional subORAM to delegate to (anything with
            ``initialize`` / ``batch_access``).
        batch_delay: seconds to sleep per ``batch_access`` call, modelling
            network round trip + remote enclave processing.
    """

    def __init__(self, inner, batch_delay: float = 0.01):
        require(batch_delay >= 0, "batch_delay must be >= 0")
        self.inner = inner
        self.batch_delay = batch_delay

    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Delegate initialization to the wrapped subORAM (no delay)."""
        self.inner.initialize(objects)

    def batch_access(self, batch: Batch, *args, **kwargs) -> Batch:
        """Sleep ``batch_delay`` seconds, then delegate the batch access.

        The sleep releases the GIL, so a thread backend overlaps the
        delays of different subORAMs exactly as independent machines
        would.
        """
        if self.batch_delay:
            time.sleep(self.batch_delay)
        return self.inner.batch_access(batch, *args, **kwargs)

    @property
    def num_objects(self) -> int:
        """Number of objects in the wrapped partition."""
        return self.inner.num_objects

    @property
    def suboram_id(self) -> int:
        """Index of the wrapped partition."""
        return self.inner.suboram_id

    def __getattr__(self, name: str):
        """Delegate any other attribute to the wrapped subORAM.

        Dunder lookups fall through untouched so that a deep copy (an
        atomic epoch attempt) does not recurse before ``inner`` exists.
        """
        if name.startswith("__") or "inner" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.inner, name)


def latency_suboram_factory(batch_delay: float = 0.01):
    """A ``suboram_factory`` for :class:`~repro.core.snoopy.Snoopy`.

    Returns a factory producing the default linear-scan subORAM wrapped
    in a :class:`LatencySubOram` with the given per-batch delay::

        store = Snoopy(config,
                       suboram_factory=latency_suboram_factory(0.02),
                       backend="thread")
    """

    def factory(suboram_id: int, config, keychain) -> LatencySubOram:
        """Build one latency-wrapped linear-scan subORAM."""
        from repro.core.snoopy import _default_suboram_factory

        return LatencySubOram(
            _default_suboram_factory(suboram_id, config, keychain),
            batch_delay=batch_delay,
        )

    return factory
