"""Oblivious initialization (Figure 23): sharding the object store.

``Snoopy.initialize`` must place each object into the subORAM its keyed
hash names — without the placement process itself leaking the mapping
(the trace of building partitions is visible to the cloud just like any
other enclave execution).  Figure 23's algorithm:

1. a fixed scan tags every object with ``t = H_k(idx)``;
2. one oblivious sort orders objects by tag — after which each partition
   is a contiguous run;
3. a fixed scan finds the run boundaries ``y_0..y_{S-1}``;
4. partition ``s`` is the slice ``O[y_{s-1} : y_s]``.

The boundary *positions* (partition sizes) are revealed — they are public
information (the keyed hash of the static key set; equivalently the
partition sizes the server observes anyway when storing the shards).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.crypto.prf import Prf
from repro.oblivious.kernels import resolve_kernel


def oblivious_shard(
    objects: Dict[int, bytes],
    num_suborams: int,
    sharding_key: bytes,
    mem_factory=None,
    kernel=None,
) -> List[Dict[int, bytes]]:
    """Partition ``objects`` per Figure 23; returns one dict per subORAM.

    Args:
        objects: the full object store, ``{key: value}``.
        num_suborams: S.
        sharding_key: the deployment keyed-hash key.
        mem_factory: optional traced-memory wrapper for the oblivious sort
            (security tests); forces the python kernel.
        kernel: oblivious-kernel selector for the sort; partitions are
            the same under either kernel.
    """
    kern = resolve_kernel(kernel, mem_factory)
    keys = np.asarray(list(objects), dtype=np.int64)
    values = list(objects.values())

    # ➊ Fixed scan: attach the tag t = H_k(idx) to each object.
    tags = Prf(sharding_key).range_many(keys, num_suborams)

    # ➋ Oblivious sort by tag (ties broken by key for determinism).
    order = np.asarray(
        kern.sort(
            np.arange(len(keys)), [tags, keys], mem_factory=mem_factory
        ),
        dtype=np.int64,
    )

    # ➌ Fixed scan locating partition boundaries.
    partitions: List[Dict[int, bytes]] = [{} for _ in range(num_suborams)]
    for tag, key, index in zip(
        tags[order].tolist(), keys[order].tolist(), order.tolist()
    ):
        partitions[tag][key] = values[index]
    return partitions


def partition_sizes(
    objects: Sequence[int], num_suborams: int, sharding_key: bytes
) -> List[int]:
    """The public partition-size vector for a key set."""
    tags = Prf(sharding_key).range_many(objects, num_suborams)
    return np.bincount(tags, minlength=num_suborams).tolist()
