"""The subORAM batch-access protocol (Figure 19).

:meth:`SubOram.run_epoch` implements the three phases of Figure 7 for
each batch of an epoch:

➊ build a two-tier oblivious hash table over the (distinct) batch, keyed
  by a *fresh* per-batch PRF key;
➋ linearly scan every stored object; for each object, scan the object's
  two hash buckets entirely, performing two oblivious compare-and-sets per
  slot — one that captures the object's prior value into a matching
  request, one that applies a matching write to the object.  Every object
  is re-encrypted and rewritten whether or not it changed;
➌ scan the table marking real entries, obliviously compact out the
  fillers, and return the batch rows (now carrying response values).

Security rests on Definition 2: the batch must contain *distinct* keys
(the load balancer guarantees this; we enforce it loudly).

The batch arrives as a :class:`~repro.oblivious.soa.Batch` and is never
modified: the response is a new batch whose ``value``/``has_value``
columns hold the objects' prior values.  The numpy kernel gathers the
columns through the table's slot permutation and probes each object's
two buckets as whole columns of the tiers' bucket-major key blocks,
writing the post-scan values back in place
(:meth:`SubOram._scan_vectorized`); the
python kernel, the audited reference, computes on records through the
per-object slot-index rows (:meth:`SubOram._scan_reference`).

**One store pass per epoch.**  An epoch hands a subORAM one batch per
load balancer, in fixed balancer order (Appendix C), and
:meth:`SubOram.run_epoch` serves them in one pass: it opens the store
once (every integrity check), draws a fresh batch key per non-empty
batch, builds all L tables as the rows of one oblivious network (one
SipHash pass, one stacked sort and one stacked compaction per tier —
:meth:`TwoTierHashTable.build`), scans them in balancer order over the
resident plaintext — batch ℓ + 1 reads batch ℓ's writes — extracts all
L in one stacked compaction and reseals every slot once, under a fresh
nonce.  Co-resident subORAMs serve an epoch as one :func:`run_group`
call, their tables rows of one network; ``run_epoch`` is its
one-member case, and the two are the way a deployment reaches a
subORAM.  A failure anywhere drops the resident plaintext and seals
nothing.  Only the whole-store path (numpy kernel,
``crypto="vector"``) keeps anything resident: the per-slot scalar store
— the Figure 19 oracle, and the only store the python kernel runs
(:func:`store_crypto`) — keeps its ``get``/``put`` schedule per batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.crypto.keys import KeyChain
from repro.errors import DuplicateRequestError, NotInitializedError
from repro.exec.backend import interpreter_turn
from repro.oblivious import soa
from repro.oblivious.hashtable import TwoTierHashTable
from repro.oblivious.kernels import ScanTable, resolve_kernel
from repro.oblivious.primitives import and_bit, eq_bit, o_select
from repro.oblivious.soa import Batch
from repro.suboram.store import EncryptedStore, resolve_crypto
from repro.telemetry import NULL_TELEMETRY
from repro.types import OpType
from repro.utils.validation import require, require_positive


def store_crypto(kernel, crypto: Optional[str]) -> str:
    """The store crypto a subORAM on ``kernel`` runs.

    Validates ``crypto`` (``None`` = the store's default).  The python
    kernel's scan is the per-slot Figure 19 oracle, and only the scalar
    store has a per-slot ``put``, so that kernel always runs
    ``"scalar"``.
    """
    crypto = resolve_crypto(crypto)
    return crypto if resolve_kernel(kernel).vectorized else "scalar"


class SubOram:
    """One data partition plus the Figure 19 batch-access engine.

    Args:
        suboram_id: index of this partition.
        value_size: fixed object size in bytes (160 in most experiments).
        keychain: deployment keys (storage encryption, per-batch keys).
        security_parameter: lambda for hash-table sizing.
        kernel: oblivious-kernel selector ("python" or "numpy", see
            :mod:`repro.oblivious.kernels`; ``None`` = its
            ``DEFAULT_KERNEL``).  The python kernel runs the audited
            scalar Figure 19 loop; the numpy kernel runs the
            structure-of-arrays scan with byte-identical results.
        crypto: store-crypto selector (see :mod:`repro.suboram.store`;
            ``None`` = its ``DEFAULT_CRYPTO``): ``"scalar"`` seals/opens
            one slot per AES-GCM call (the audited oracle);
            ``"vector"`` opens and reseals the whole partition as one
            AES-GCM message per epoch (:mod:`repro.crypto.vector`),
            same plaintext responses.  The python kernel always runs
            the scalar store (:func:`store_crypto`).
    """

    def __init__(
        self,
        suboram_id: int,
        value_size: int,
        keychain: Optional[KeyChain] = None,
        security_parameter: int = 128,
        kernel=None,
        crypto: Optional[str] = None,
    ):
        require_positive(value_size, "value_size")
        self.suboram_id = suboram_id
        self.value_size = value_size
        self.security_parameter = security_parameter
        self.kernel = resolve_kernel(kernel)
        self.crypto = store_crypto(self.kernel, crypto)
        self._keychain = keychain if keychain is not None else KeyChain()
        self._store: Optional[EncryptedStore] = None
        self._keys: List[int] = []  # physical slot -> object key (scan order)
        self._epoch = 0
        #: Telemetry handle; the deployment attaches its live handle here.
        #: A live handle pickles to the null one, so a subORAM restored in
        #: a worker process records nothing there.
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Initialization (Figure 19, Initialize)
    # ------------------------------------------------------------------
    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Load this partition's objects into the encrypted store."""
        storage_key = self._keychain.subkey(f"suboram/{self.suboram_id}/storage")
        self._keys = sorted(objects)
        self._store = EncryptedStore(
            storage_key,
            num_slots=len(self._keys),
            value_size=self.value_size,
            crypto=self.crypto,
        )
        self._store.telemetry = self.telemetry
        values = []
        for key in self._keys:
            value = objects[key]
            require(
                len(value) == self.value_size,
                f"object {key} has size {len(value)}, expected {self.value_size}",
            )
            values.append(value)
        self._store.put_batch(self._keys, values)

    @property
    def num_objects(self) -> int:
        """Number of objects in this partition."""
        return len(self._keys)

    @property
    def store(self) -> EncryptedStore:
        """The encrypted backing store (raises if uninitialized)."""
        if self._store is None:
            raise NotInitializedError("subORAM not initialized")
        return self._store

    # ------------------------------------------------------------------
    # Batch access (Figure 19, BatchAccess)
    # ------------------------------------------------------------------
    def batch_access(self, batch: Batch) -> Batch:
        """The epoch of one batch: ``run_epoch([batch])[0]``.

        Nothing under ``src/`` calls it.  It stays because the served
        benchmark's tracer (``bench/tracing.py::TARGETS``) wraps it by
        name and its traced launch fails on a missing attribute; ROADMAP
        item 5.9 retires it.
        """
        return self.run_epoch([batch])[0]

    def run_epoch(self, batches: Sequence[Batch]) -> List[Batch]:
        """Serve one epoch's batches, in balancer order, in one store pass.

        Returns one response batch per batch.  Each row's value is the
        object's value *before* its batch (read semantics for reads;
        prior value for writes, matching the paper's
        ``OStoreBatchAccess`` contract), absent when the key is not in
        this partition.  Dummy rows come back too — the load balancer
        filters them while matching responses.  Batch ℓ sees the writes
        of batches 0..ℓ-1 (Appendix C's order), and ``batches`` are left
        untouched.  A failure raises with the sealed partition byte for
        byte its pre-epoch state.  This is the one-member case of
        :func:`run_group`.

        Raises:
            NotInitializedError: ``initialize`` has not been called.
            DuplicateRequestError: two rows of one batch share a key
                (Definition 2 precondition violated — load-balancer bug).
        """
        return run_group([self], [batches])[0]

    def _check_epoch(self, batches: Sequence[Batch]) -> None:
        """Refuse an epoch before anything is opened (see :meth:`run_epoch`)."""
        if self._store is None:
            raise NotInitializedError("subORAM not initialized")
        for batch in batches:
            if len(np.unique(batch.key)) != len(batch):
                raise DuplicateRequestError(
                    f"subORAM {self.suboram_id} received duplicate keys in "
                    "batch"
                )

    def _scan_reference(self, table: TwoTierHashTable, batch: Batch) -> Batch:
        """The audited scalar Figure 19 scan (python kernel), on records.

        ``matched`` tracks, per entry, whether any stored object carried
        its key — updated through the same oblivious select on every
        slot comparison, and used at the end to null out responses for
        keys that do not exist in this partition.
        """
        entries = batch.entries()
        matched = [0] * len(entries)
        # Row ``slot`` is ``table.bucket_slot_indices(self._keys[slot])``.
        lookup = table.lookup_matrix(self._keys).tolist()
        for slot in range(self.num_objects):
            obj_key, obj_value = self._store.get(slot)
            for table_slot in lookup[slot]:
                index = table.slot_items[table_slot]
                if index < 0:
                    # Filler slot: perform the same pair of selects against
                    # a throwaway cell so the touched-slot count is uniform.
                    _ = o_select(0, obj_value, obj_value)
                    continue
                entry = entries[index]
                match = and_bit(
                    eq_bit(entry.key, obj_key), 1
                )
                matched[index] = o_select(match, matched[index], 1)
                is_write = eq_bit(entry.op, OpType.WRITE)
                prior = obj_value
                # Write path: object takes the request's payload on match.
                # Denied writes (§D access control) never apply; the extra
                # `permitted` bit is checked inside the same oblivious
                # compare-and-set so denial is invisible in the trace.
                obj_value = o_select(
                    and_bit(match, and_bit(is_write, entry.permitted)),
                    obj_value,
                    entry.value if entry.value is not None else obj_value,
                )
                # Response path: request captures the prior object value.
                entry.value = o_select(match, entry.value, prior)
            # Rewrite (re-encrypt) the object unconditionally: the host
            # cannot tell written objects from untouched ones.
            self._store.put(slot, obj_key, obj_value)
        for entry, hit in zip(entries, matched):
            entry.value = o_select(hit, None, entry.value)
        return Batch.from_entries(entries, batch.value_size)

    def _scan_vectorized(self, table, batch: Batch, resident) -> Batch:
        """The columnar Figure 19 scan (numpy kernel).

        The table's ``slot_items`` permutation gathers the batch's
        columns into the :class:`ScanTable`, and the scan's per-slot
        outputs are gathered back through its inverse into the response
        batch's ``value``/``has_value``.  The store keys were routed to
        their two buckets by the table's build (``lookup_blocks``, one
        PRF tag per object) and :meth:`NumpyKernel.scan_soa` compares
        each object with every slot of both its buckets, bucket-major —
        no per-object slot-index matrix — then writes the post-scan
        values back in place, on a select word that is a function of
        ``value_size`` alone.  With telemetry on, the scan's schedule
        counts (``kernel_ops_total`` ``scan`` and ``scan_slot``) are
        incremented directly, not replayed one event per object.  When
        the store has a batch path (``crypto="vector"``) the matrix
        written is the ``resident`` plaintext of the epoch, so a batch
        allocates no new ``(num_objects, value_size)`` matrix.  Otherwise the same kernel
        runs between the scalar store's per-slot ``get``/``put`` calls,
        the audited per-slot crypto oracle.  Outputs are byte-identical
        to :meth:`_scan_reference` either way.
        """
        store = self._store
        if resident is not None:
            okeys, ovals = resident
        else:
            pairs = [store.get(slot) for slot in range(self.num_objects)]
            okeys = np.asarray([key for key, _ in pairs], dtype=np.int64)
            ovals, _ = soa.values_to_matrix(
                [v for _, v in pairs], self.value_size
            )
        # A filler slot (item -1) gathers row 0 and is marked unoccupied;
        # the scan folds that bit into its key, which makes every other
        # column of it inert.
        slot_items = table.slot_items
        slots = batch.take(np.maximum(slot_items, 0))
        scan_table = ScanTable(
            keys=slots.key,
            occupied=slot_items >= 0,
            is_write=slots.is_write,
            permitted=slots.permitted,
            values=slots.value,
            has_value=slots.has_value,
        )
        slot_matched, responses = self.kernel.scan_soa(
            okeys, ovals, table.lookup_blocks, scan_table
        )
        # The scan's schedule counts, without replaying it per object.
        for op, count in (("scan", 1), ("scan_slot", len(okeys))):
            self.telemetry.counter(
                "kernel_ops_total", kernel=self.kernel.name, op=op
            ).inc(count)
        if resident is None:
            store.put_batch(okeys, ovals)  # the per-slot ``put`` loop
        # Invert the slot permutation (fillers all land on the spare
        # cell): each row's response is its slot's, zeroed unless matched.
        slot_of = np.empty(len(batch) + 1, dtype=np.int64)
        slot_of[slot_items] = np.arange(len(slot_items), dtype=np.int64)
        slot_of = slot_of[:-1]
        matched = slot_matched[slot_of]
        return batch.replace(
            value=responses[slot_of] * matched[:, None].astype(np.uint8),
            has_value=matched,
        )

    # ------------------------------------------------------------------
    # Introspection for tests / tools
    # ------------------------------------------------------------------
    def peek(self, key: int) -> Optional[bytes]:
        """Direct read for verification (bypasses obliviousness machinery)."""
        if self._store is None:
            return None
        try:
            slot = self._keys.index(key)
        except ValueError:
            return None
        stored_key, value = self._store.get(slot)
        assert stored_key == key
        return value

    def object_keys(self) -> Iterable[int]:
        """Iterator over this partition's object keys, in scan order."""
        return iter(self._keys)



def run_group(
    members: Sequence[SubOram], chains: Sequence[Sequence[Batch]]
) -> List[List[Batch]]:
    """One epoch of co-resident subORAMs as one stage-➋ unit.

    ``chains[i]`` is member ``i``'s batches in balancer order; returns
    each member's :meth:`SubOram.run_epoch` replies, byte for byte.  The
    members (one deployment's: one kernel, one λ) are served in one
    call: every store opened once, every member's tables the rows of
    *one* :meth:`TwoTierHashTable.build` under keys from its own
    counter, each member scanned in balancer order, every table
    extracted in one compaction, every store resealed once — all under
    one :func:`~repro.exec.backend.interpreter_turn`, decided from the
    group's summed sealed bytes.  A failure anywhere raises with every
    sealed partition its pre-epoch state.
    """
    for member, batches in zip(members, chains):
        member._check_epoch(batches)
    lead = members[0]
    stores = [member._store for member in members]
    # Only the whole-store passes run long enough without the GIL to be
    # worth overlapping with another unit's.
    nbytes = sum(store.num_slots * store.slot_size
                 for store in stores if store.supports_batch)
    for member, store in zip(members, stores):
        # Re-attach the live telemetry handle: it may have been attached
        # after initialize, and an unpickled store has the null handle.
        store.telemetry = member.telemetry
    with interpreter_turn(nbytes):
        residents = [store.get_batch() if store.supports_batch else None
                     for store in stores]
        # One table per non-empty batch, member by member.
        rows = [
            (member, batch, resident)
            for member, batches, resident in zip(members, chains, residents)
            for batch in batches if len(batch)
        ]
        replies = []
        if rows:
            # ➊ The oblivious hash tables of requests, each under a fresh
            # batch key from its member's counter.  The numpy scans'
            # routing of each member's store keys (public, in slot order)
            # rides along in the build's SipHash pass, on its own rows.
            batch_keys = []
            for member, _, _ in rows:
                member._epoch += 1
                batch_keys.append(member._keychain.batch_key(
                    member.suboram_id, member._epoch
                ))
            lookups = None
            if lead.kernel.vectorized:
                lookups = [member._keys if resident is None else resident[0]
                           for member, _, resident in rows]
            with lead.telemetry.time(
                "snoopy_suboram_phase_seconds", phase="table"
            ):
                tables = TwoTierHashTable.build(
                    [batch.key for _, batch, _ in rows],
                    batch_keys,
                    security_parameter=lead.security_parameter,
                    kernel=lead.kernel,
                    lookups=lookups,
                    num_objects=[member.num_objects for member, _, _ in rows],
                )
            # ➋ Linear scans over every stored object, one table at a
            # time in balancer order.  The scalar reference path
            # interleaves get/compute/put per slot; the vectorized path
            # runs the whole scan as masked array ops, each tier's
            # compare a (Z, num_objects) block over every object and
            # every slot of its bucket.  Both schedules are public
            # functions of ``num_objects`` alone (see
            # repro.security.simulator).  Either scan yields each row's
            # response: the object's prior value, or none when the key
            # is absent (a write payload must not echo back as a phantom
            # read value).
            scanned = []
            for table, (member, batch, resident) in zip(tables, rows):
                with member.telemetry.time(
                    "snoopy_suboram_phase_seconds", phase="scan"
                ):
                    if lead.kernel.vectorized:
                        scanned.append(
                            member._scan_vectorized(table, batch, resident)
                        )
                    else:
                        scanned.append(member._scan_reference(table, batch))
            # ➌ Mark real entries and compact out table fillers.
            with lead.telemetry.time(
                "snoopy_suboram_phase_seconds", phase="extract"
            ):
                kept = TwoTierHashTable.extract_all(tables)
            replies = [r.take(k) for r, k in zip(scanned, kept)]
        for store, resident in zip(stores, residents):
            if resident is not None:
                store.put_batch(*resident)
    answers = iter(replies)
    return [[next(answers) if len(batch) else batch for batch in batches]
            for batches in chains]
