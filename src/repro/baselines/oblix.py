"""Oblix-lite (Mishra et al., S&P 2018): sequential enclave DORAM.

Oblix runs a doubly-oblivious map inside an enclave: both the server-side
structure *and* the in-enclave client data structures are oblivious.  Its
position map is stored recursively in smaller ORAMs until the innermost
map fits in protected memory (§VI.A of Oblix; the Snoopy evaluation
simulates this recursion, §8.1).  Requests are strictly sequential —
Oblix optimizes latency, not throughput — which is why a single Oblix
machine tops out near 1.1K requests/second in Fig. 9a.

``OblixMap`` reproduces the structure: a data Path ORAM whose position
map lookups go through a chain of recursive Path ORAMs, each level
packing ``pack_factor`` positions per block.  ``recursion_depth`` counts
the ORAM levels an access touches — the quantity behind the Fig. 10
throughput step when sharding drops a recursion level.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.baselines.pathoram import PathOram
from repro.errors import NotInitializedError
from repro.oblivious.soa import Batch
from repro.types import OpType
from repro.utils.validation import require_positive

# Below this many entries a position map fits in enclave memory directly.
DIRECT_MAP_THRESHOLD = 1024


class OblixMap:
    """A recursively position-mapped, sequential oblivious map.

    Args:
        capacity: number of objects.
        pack_factor: position-map entries packed per recursion block.
        direct_threshold: size at which the recursion bottoms out.
    """

    def __init__(
        self,
        capacity: int,
        pack_factor: int = 16,
        direct_threshold: int = DIRECT_MAP_THRESHOLD,
        rng: Optional[random.Random] = None,
    ):
        require_positive(capacity, "capacity")
        require_positive(pack_factor, "pack_factor")
        self.capacity = capacity
        self.pack_factor = pack_factor
        self._rng = rng if rng is not None else random.Random()

        self.data_oram = PathOram(capacity, rng=self._rng)
        # Build the recursion: each level stores the previous level's
        # position map, pack_factor entries per block, until small enough.
        self.recursive_orams: List[PathOram] = []
        level_size = capacity
        while level_size > direct_threshold:
            level_size = (level_size + pack_factor - 1) // pack_factor
            self.recursive_orams.append(PathOram(max(1, level_size), rng=self._rng))
        self.accesses = 0

    @property
    def recursion_depth(self) -> int:
        """ORAM levels per access: data ORAM + recursive position maps."""
        return 1 + len(self.recursive_orams)

    # ------------------------------------------------------------------
    # Access path: walk the recursion, then the data ORAM.
    # ------------------------------------------------------------------
    def _touch_position_maps(self, key: int) -> None:
        """Perform the recursive position-map lookups for ``key``.

        Functionally the PathOram class resolves its own positions; the
        recursion here executes the *accesses* those lookups would incur
        (each level reads and rewrites one block), so costs, traces, and
        sequential latency match the recursive design.
        """
        block_index = key
        for level in self.recursive_orams:
            block_index //= self.pack_factor
            marker = block_index.to_bytes(8, "big", signed=False)
            level.access(block_index % max(1, level.capacity), marker)

    def read(self, key: int) -> Optional[bytes]:
        """Read one object (a full sequential recursive access)."""
        self.accesses += 1
        self._touch_position_maps(key)
        return self.data_oram.read(key)

    def write(self, key: int, value: bytes) -> Optional[bytes]:
        """Write one object; returns the prior value."""
        self.accesses += 1
        self._touch_position_maps(key)
        return self.data_oram.write(key, value)

    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Bulk-load the map's initial contents."""
        for key, value in objects.items():
            self.data_oram.write(key, value)


class OblixSubOram:
    """Oblix as a pluggable Snoopy subORAM (Fig. 10's hybrid).

    Adapter for :class:`repro.core.snoopy.Snoopy`'s ``suboram_factory``:
    capacity is fixed lazily at ``initialize`` time, and an epoch's
    batches are served in balancer order, request by request (no batch
    amortization — exactly why the native linear-scan subORAM wins,
    §8.2).
    """

    def __init__(self, suboram_id: int, rng: Optional[random.Random] = None):
        self.suboram_id = suboram_id
        self._rng = rng if rng is not None else random.Random()
        self._map: Optional[OblixMap] = None
        self._count = 0

    @property
    def num_objects(self) -> int:
        """Number of objects in this partition."""
        return self._count

    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Size the recursive ORAMs for this partition and load it."""
        capacity = max(1, len(objects))
        self._map = OblixMap(capacity, rng=self._rng)
        # OblixMap keys by position within the partition for tree sizing.
        self._key_to_slot = {key: i for i, key in enumerate(sorted(objects))}
        for key, value in objects.items():
            self._map.data_oram.write(self._key_to_slot[key], value)
        self._count = len(objects)

    def run_epoch(self, batches: Sequence[Batch]) -> List[Batch]:
        """Serve an epoch's batches in order, request by request.

        Each reply row carries the object's prior value.  A write whose
        ``permitted`` bit is clear (§D access control) is served as a
        read: the object keeps its value.  ``batches`` are left
        untouched.
        """
        if self._map is None:
            raise NotInitializedError("OblixSubOram not initialized")
        replies = []
        for batch in batches:
            entries = batch.entries()
            for entry in entries:
                slot = self._key_to_slot.get(entry.key)
                if slot is None:
                    # Dummy or unknown key: a full-cost access to hide it.
                    self._map._touch_position_maps(0)
                    self._map.data_oram.read(
                        self._rng.randrange(max(1, self._map.capacity))
                    )
                    entry.value = None if not entry.is_dummy else entry.value
                elif (entry.op is OpType.WRITE and entry.value is not None
                      and entry.permitted):
                    entry.value = self._map.write(slot, entry.value)
                else:
                    entry.value = self._map.read(slot)
            replies.append(Batch.from_entries(entries, batch.value_size))
        return replies
