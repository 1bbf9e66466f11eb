"""The subORAM batch-access protocol (Figure 19).

``batch_access`` implements the three phases of Figure 7:

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
two buckets as whole rows of the tiers' bucket blocks, writing the
post-scan values back in place (:meth:`SubOram._scan_vectorized`); the
python kernel, the audited reference, computes on records through the
per-object slot-index rows (:meth:`SubOram._scan_reference`).

**One store pass per epoch.**  An epoch hands a subORAM one batch per
load balancer, in fixed balancer order (Appendix C).  A faithful enclave
streams the partition once for all of them — decrypt an object, probe
the L per-balancer tables in that order, re-encrypt it once — so
:meth:`SubOram.epoch` scopes a *session*: its first ``batch_access``
opens the store (every integrity check), each builds its own table under
its own fresh batch key and scans the plaintext columns the previous one
left resident, and the last reseals every slot under a fresh nonce.  A
``batch_access`` outside a session is a session of one.  Only the
whole-store path (numpy kernel, ``crypto="vector"``) keeps anything
resident: the per-slot scalar store — the Figure 19 oracle, and the
only store the python kernel runs (:func:`store_crypto`) — keeps its
``get``/``put`` schedule per batch.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.crypto.keys import KeyChain
from repro.errors import DuplicateRequestError, NotInitializedError
from repro.exec.backend import interpreter_turn
from repro.oblivious import soa
from repro.oblivious.hashtable import TwoTierHashTable, TwoTierParams
from repro.oblivious.kernels import ScanTable, resolve_kernel
from repro.oblivious.primitives import and_bit, eq_bit, o_select
from repro.oblivious.soa import Batch
from repro.suboram.store import EncryptedStore, resolve_crypto
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.kernelbridge import TimedKernelTrace, flush_kernel_trace
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


def _session(batches: int) -> SimpleNamespace:
    """An epoch session: batches still to come, resident plaintext columns."""
    return SimpleNamespace(remaining=batches, okeys=None, ovals=None)


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
            one slot per HMAC-AEAD call (the audited oracle);
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
        self._session: Optional[SimpleNamespace] = None
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

    def __getstate__(self) -> dict:
        """Pickling and deep copies happen between epochs, never inside one."""
        if self._session is not None:
            raise RuntimeError(
                f"subORAM {self.suboram_id} has an open epoch session"
            )
        return self.__dict__

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
    def batch_access(
        self,
        batch: Batch,
        batch_key: Optional[bytes] = None,
        table_params: Optional[TwoTierParams] = None,
    ) -> Batch:
        """Process one batch of distinct requests; returns the response batch.

        Each returned row's value is the object's value *before* the
        batch (read semantics for reads; prior value for writes, matching
        the paper's ``OStoreBatchAccess`` contract), absent when the key
        is not in this partition.  Dummy rows come back too — the load
        balancer filters them while matching responses.  ``batch`` itself
        is left untouched.

        Raises:
            NotInitializedError: ``initialize`` has not been called.
            DuplicateRequestError: two batch rows share a key
                (Definition 2 precondition violated — load-balancer bug).
        """
        if self._store is None:
            raise NotInitializedError("subORAM not initialized")
        # Only the whole-store batch passes run long enough without the
        # GIL to be worth overlapping with another unit's.
        store = self._store
        bulk = store.supports_batch
        nbytes = store.num_slots * store.slot_size if bulk else 0
        # Outside an epoch session a batch is a session of one.
        session = self._session or _session(1)
        # Re-attach the live telemetry handle: it may have been attached
        # after initialize, and an unpickled store has the null handle.
        store.telemetry = self.telemetry
        with interpreter_turn(nbytes):
            if bulk and session.ovals is None:
                session.okeys, session.ovals = store.get_batch()
            response = batch
            if len(batch):
                response = self._batch_access(
                    batch, batch_key, table_params, session
                )
            session.remaining -= 1
            if bulk and session.remaining == 0:
                store.put_batch(session.okeys, session.ovals)
                session.ovals = None
            return response

    @contextlib.contextmanager
    def epoch(self, batches: int):
        """An epoch session: the next ``batches`` calls share one store pass.

        The first :meth:`batch_access` inside the ``with`` block opens
        the partition and the last reseals it (see the module
        docstring).  Leaving the block early (a failed or faulted unit)
        drops the resident plaintext and seals nothing, so the sealed
        partition is byte for byte its pre-epoch state.
        """
        session = self._session = _session(batches)
        try:
            yield self
        finally:
            self._session = None
        if session.ovals is not None:
            raise RuntimeError(
                f"subORAM {self.suboram_id}: session of {batches} batches "
                "closed with its last scan unsealed"
            )

    def _batch_access(self, batch, batch_key, table_params, session):
        """One batch's table build, scan and extract, under its turn."""
        if len(np.unique(batch.key)) != len(batch):
            raise DuplicateRequestError(
                f"subORAM {self.suboram_id} received duplicate keys in batch"
            )

        self._epoch += 1
        if batch_key is None:
            batch_key = self._keychain.batch_key(self.suboram_id, self._epoch)

        # ➊ Construct the oblivious hash table of requests (fresh key).
        with self.telemetry.time(
            "snoopy_suboram_phase_seconds", phase="table"
        ):
            table = TwoTierHashTable.build(
                batch.key,
                prf_key=batch_key,
                params=table_params,
                security_parameter=self.security_parameter,
                kernel=self.kernel,
            )

        # ➋ Linear scan over every stored object.  The scalar reference
        # path interleaves get/compute/put per slot; the vectorized path
        # reads every slot, runs the whole scan as masked array ops, then
        # rewrites every slot.  Both schedules are public functions of
        # ``num_objects`` alone (see repro.security.simulator).  Either
        # scan yields each row's response: the object's prior value, or
        # none when the key is absent from the partition (a write payload
        # must not echo back as a phantom read value).
        with self.telemetry.time(
            "snoopy_suboram_phase_seconds", phase="scan"
        ):
            if self.kernel.vectorized:
                response = self._scan_vectorized(table, batch, session)
            else:
                response = self._scan_reference(table, batch)

        # ➌ Mark real entries and compact out table fillers.
        with self.telemetry.time(
            "snoopy_suboram_phase_seconds", phase="extract"
        ):
            return response.take(table.extract_real())

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

    def _scan_vectorized(self, table, batch: Batch, session) -> Batch:
        """The columnar Figure 19 scan (numpy kernel).

        The table's ``slot_items`` permutation gathers the batch's
        columns into the :class:`ScanTable`, and the scan's per-slot
        outputs are gathered back through its inverse into the response
        batch's ``value``/``has_value``.  The store keys are routed once
        to their two buckets (:meth:`TwoTierHashTable.bucket_blocks`, one
        PRF tag per object) and :meth:`NumpyKernel.scan_soa` probes the
        whole bucket rows — no per-object slot-index matrix — then writes
        the post-scan values back in place, on a select word that is a
        function of ``value_size`` alone.  When the store has a batch
        path (``crypto="vector"``) the matrix written is the plaintext
        resident in ``session``, so a batch allocates no new
        ``(num_objects, value_size)`` matrix.  Otherwise the same kernel
        runs between the scalar store's per-slot ``get``/``put`` calls,
        the audited per-slot crypto oracle.  Outputs are byte-identical
        to :meth:`_scan_reference` either way.
        """
        store = self._store
        if store.supports_batch:
            okeys, ovals = session.okeys, session.ovals
        else:
            pairs = [store.get(slot) for slot in range(self.num_objects)]
            okeys = np.asarray([key for key, _ in pairs], dtype=np.int64)
            ovals, _ = soa.values_to_matrix(
                [v for _, v in pairs], self.value_size
            )
        # A filler slot (item -1) gathers row 0 and is marked unoccupied,
        # which makes every other column of it inert.
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
        kernel_trace = (
            TimedKernelTrace() if self.telemetry.enabled else None
        )
        slot_matched, responses = self.kernel.scan_soa(
            okeys, ovals, table.bucket_blocks(okeys), scan_table,
            trace=kernel_trace,
        )
        if kernel_trace is not None:
            flush_kernel_trace(
                self.telemetry.registry, kernel_trace, self.kernel.name
            )
        if not store.supports_batch:
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

