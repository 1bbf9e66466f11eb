"""Bitonic sort — the paper's oblivious sort (§4.2.1).

Batcher's bitonic sorting network performs compare-and-swaps "in a fixed,
predefined order; since its access pattern is independent of the final order
of the objects, bitonic sort is oblivious".  Runtime is
``O(n log^2 n)`` comparators with depth ``O(log^2 n)``, which is why the
paper parallelizes it across enclave threads (Fig. 13a).

This implementation:

* works on any length by padding to the next power of two with a sentinel
  that sorts last (padding size is public — it depends only on ``n``),
* takes an arbitrary key function, exactly like the paper's ordering
  functions ``f_order`` (order by subORAM then tag bit, by object id then
  tag bit, ...),
* exposes the comparator schedule so the performance model can count
  network size and depth.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple

from repro.oblivious.primitives import ocmp_swap
from repro.utils.bits import next_pow2

# Sentinel wrapper: real items sort by (0, key(item)); padding is (1,) which
# compares greater than every real key tuple.
_PAD = object()


def comparator_schedule(n: int) -> Iterator[Tuple[int, int, bool]]:
    """Yield the fixed (i, j, ascending) comparator sequence for size ``n``.

    ``n`` must be a power of two.  The schedule depends only on ``n`` —
    this is the formal content of bitonic sort's obliviousness.
    """
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    ascending = (i & k) == 0
                    yield i, partner, ascending
            j //= 2
        k *= 2


def bitonic_sort_levels(n: int) -> List[List[Tuple[int, int, bool]]]:
    """The comparator schedule grouped into its depth levels.

    Returns one list per network level, each holding that level's
    ``(i, j, ascending)`` comparators.  ``n`` is padded to the next power
    of two, mirroring :func:`bitonic_sort`.  This is the readable form of
    the schedule (one tuple per comparator — megabytes by ``n = 2048``);
    the numpy kernel derives the same levels arithmetically as index
    columns and is pinned against this function by the tests.  Two
    properties make the level the unit the vectorized kernels execute:

    * the comparators within one level touch pairwise-disjoint cells, so
      a whole level can be applied as one masked whole-array min/max
      operation without changing any outcome;
    * concatenating the levels reproduces ``comparator_schedule`` exactly
      (and ``len(bitonic_sort_levels(n)) == bitonic_sort_depth(n)``),
      which is what makes the depth formula — and the vectorized
      execution order — testable against the real schedule.
    """
    m = next_pow2(max(1, n))
    levels: List[List[Tuple[int, int, bool]]] = []
    k = 2
    while k <= m:
        j = k // 2
        while j >= 1:
            level = []
            for i in range(m):
                partner = i ^ j
                if partner > i:
                    level.append((i, partner, (i & k) == 0))
            levels.append(level)
            j //= 2
        k *= 2
    return levels


def bitonic_sort_network_size(n: int) -> int:
    """Number of comparators for an ``n``-input network (n padded to pow2)."""
    m = next_pow2(max(1, n))
    if m == 1:
        return 0
    log_m = m.bit_length() - 1
    return (m // 2) * (log_m * (log_m + 1) // 2)


def bitonic_sort_depth(n: int) -> int:
    """Comparator depth — the quantity parallel threads divide (Fig. 13a)."""
    m = next_pow2(max(1, n))
    if m == 1:
        return 0
    log_m = m.bit_length() - 1
    return log_m * (log_m + 1) // 2


def bitonic_sort(items: Sequence, key: Callable = None, mem_factory=None) -> List:
    """Return a new list with ``items`` sorted obliviously by ``key``.

    Args:
        items: input sequence (not modified).
        key: ordering function; defaults to identity.  The key is evaluated
            inside the comparator, matching the paper's ``f_order``.
        mem_factory: optional callable wrapping the working list (e.g.
            :class:`repro.oblivious.memory.TracedMemory`) so tests can
            capture the access trace.

    The sort is stable *only* insofar as the caller's key breaks ties;
    bitonic networks are not inherently stable.  Callers in this library
    always sort by fully distinguishing key tuples when order matters.
    """
    if key is None:
        key = _identity
    n = len(items)
    if n <= 1:
        return list(items)

    m = next_pow2(n)
    work: List = list(items) + [_PAD] * (m - n)
    mem = mem_factory(work) if mem_factory is not None else work

    for i, j, ascending in comparator_schedule(m):
        a = mem[i]
        b = mem[j]
        swap_bit = int((_sort_key(key, a) > _sort_key(key, b)) == ascending)
        # Re-write through the oblivious swap so both cells are always
        # written; we already read a and b above, the swap reads again to
        # keep its own trace shape uniform.
        ocmp_swap(mem, swap_bit, i, j)

    result = [mem[i] for i in range(m)]
    return [x for x in result if x is not _PAD]


def _identity(x):
    return x


def _sort_key(key: Callable, item) -> tuple:
    if item is _PAD:
        return (1,)
    return (0, key(item))
