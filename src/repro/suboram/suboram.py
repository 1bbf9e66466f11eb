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
  fillers, and return the batch entries (now carrying response values).

Security rests on Definition 2: the batch must contain *distinct* keys
(the load balancer guarantees this; we enforce it loudly).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.crypto.keys import KeyChain
from repro.errors import DuplicateRequestError, NotInitializedError
from repro.exec.backend import interpreter_turn
from repro.oblivious import soa
from repro.oblivious.hashtable import TwoTierHashTable, TwoTierParams
from repro.oblivious.kernels import ScanTable, resolve_kernel
from repro.oblivious.primitives import and_bit, eq_bit, o_select
from repro.suboram.store import EncryptedStore, resolve_crypto
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.kernelbridge import TimedKernelTrace, flush_kernel_trace
from repro.types import BatchEntry, OpType
from repro.utils.validation import require, require_positive


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
            ``"vector"`` moves whole-store reads and the write-back
            re-encryption through the counter-mode cipher of
            :mod:`repro.crypto.vector` — one nonce-derived keystream and
            one vectorized polynomial-MAC pass per epoch, O(1) Python
            calls regardless of store size, same plaintext responses
            (ciphertext bytes differ from the HMAC scheme; lengths and
            schedules do not).  Vector mode degrades to per-slot calls
            of the same cipher when the batch prerequisites are absent
            (python kernel, no NumPy, or an instrumented store
            subclass).
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
        self.crypto = resolve_crypto(crypto)
        self._keychain = keychain if keychain is not None else KeyChain()
        self._store: Optional[EncryptedStore] = None
        self._keys: List[int] = []  # physical slot -> object key (scan order)
        self._epoch = 0
        self._state_version = 0
        #: Telemetry handle; the deployment attaches its live handle here.
        #: A live handle pickles to the null one, so subORAMs shipped to
        #: process-pool workers record nothing worker-side.
        self.telemetry = NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Initialization (Figure 19, Initialize)
    # ------------------------------------------------------------------
    def initialize(self, objects: Dict[int, bytes]) -> None:
        """Load this partition's objects into the encrypted store."""
        self._state_version += 1
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

    @property
    def state_token(self) -> int:
        """Monotonic version of this subORAM's mutable state.

        Bumped by every state mutation (``initialize``, ``batch_access``),
        so an execution backend can tell whether a worker-side cached copy
        of this subORAM is still current without shipping the state.
        """
        return self._state_version

    # ------------------------------------------------------------------
    # Batch access (Figure 19, BatchAccess)
    # ------------------------------------------------------------------
    def batch_access(
        self,
        batch: List[BatchEntry],
        batch_key: Optional[bytes] = None,
        table_params: Optional[TwoTierParams] = None,
    ) -> List[BatchEntry]:
        """Process one batch of distinct requests; returns response entries.

        Each returned entry's ``value`` is the object's value *before* the
        batch (read semantics for reads; prior value for writes, matching
        the paper's ``OStoreBatchAccess`` contract).  Dummy entries come
        back too — the load balancer filters them while matching responses.

        Raises:
            NotInitializedError: ``initialize`` has not been called.
            DuplicateRequestError: two batch entries share a key
                (Definition 2 precondition violated — load-balancer bug).
        """
        if self._store is None:
            raise NotInitializedError("subORAM not initialized")
        if not batch:
            return []
        # Only the whole-store batch passes run long enough without the
        # GIL to be worth overlapping with another unit's.
        store = self._store
        bulk = store.supports_batch and self.kernel.vectorized
        nbytes = store.num_slots * store.slot_size if bulk else 0
        with interpreter_turn(nbytes):
            return self._batch_access(batch, batch_key, table_params)

    def _batch_access(self, batch, batch_key, table_params):
        """:meth:`batch_access` proper, under its interpreter turn."""
        keys = [entry.key for entry in batch]
        if len(set(keys)) != len(keys):
            raise DuplicateRequestError(
                f"subORAM {self.suboram_id} received duplicate keys in batch"
            )

        self._epoch += 1
        self._state_version += 1
        # Re-attach the live telemetry handle: a store that crossed a
        # process boundary came back with the null handle.
        self._store.telemetry = self.telemetry
        if batch_key is None:
            batch_key = self._keychain.batch_key(self.suboram_id, self._epoch)

        # ➊ Construct the oblivious hash table of requests (fresh key).
        with self.telemetry.time(
            "snoopy_suboram_phase_seconds", phase="table"
        ):
            table = TwoTierHashTable.build(
                batch,
                key_fn=_entry_key,
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
        # scan leaves each entry holding its response: the object's prior
        # value, or None when the key is absent from the partition (a
        # write payload must not echo back as a phantom read value).
        with self.telemetry.time(
            "snoopy_suboram_phase_seconds", phase="scan"
        ):
            if self.kernel.vectorized:
                self._scan_vectorized(table, batch)
            else:
                self._scan_reference(table, batch)

        # ➌ Mark real entries and compact out table fillers.
        with self.telemetry.time(
            "snoopy_suboram_phase_seconds", phase="extract"
        ):
            return table.extract_real()

    def _scan_reference(
        self, table: TwoTierHashTable, batch: List[BatchEntry]
    ) -> None:
        """The audited scalar Figure 19 scan (python kernel).

        ``matched`` tracks, per entry, whether any stored object carried
        its key — updated through the same oblivious select on every
        slot comparison, and used at the end to null out responses for
        keys that do not exist in this partition.
        """
        matched: Dict[int, int] = {id(entry): 0 for entry in batch}
        for slot in range(self.num_objects):
            obj_key, obj_value = self._store.get(slot)
            for table_slot in table.lookup_slots(obj_key):
                entry = table_slot.item
                if entry is None:
                    # Filler slot: perform the same pair of selects against
                    # a throwaway cell so the touched-slot count is uniform.
                    _ = o_select(0, obj_value, obj_value)
                    continue
                match = and_bit(
                    eq_bit(entry.key, obj_key), 1
                )
                matched[id(entry)] = o_select(match, matched[id(entry)], 1)
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
        for entry in batch:
            entry.value = o_select(matched[id(entry)], None, entry.value)

    def _scan_vectorized(
        self, table: TwoTierHashTable, batch: List[BatchEntry]
    ) -> None:
        """The columnar Figure 19 scan (numpy kernel).

        The batch becomes columns once, the table's ``slot_items``
        permutation gathers them into the :class:`ScanTable`, and the
        responses are written back to the entries once.  When the store
        has a batch path (``crypto="vector"``) the whole store is
        authenticated, decrypted, scanned, and re-encrypted through four
        vectorized passes (``get_batch`` → ``lookup_matrix`` →
        ``scan_soa`` → ``put_batch``) with no per-slot Python call.
        Otherwise the same kernel core runs between per-slot
        ``get``/``put`` calls — under ``crypto="scalar"`` the audited
        per-slot crypto oracle.  Outputs are byte-identical to
        :meth:`_scan_reference` either way.
        """
        np = soa.require_numpy()
        store = self._store
        size = self.value_size
        if store.supports_batch:
            okeys, ovals = store.get_batch()
        else:
            pairs = [store.get(slot) for slot in range(self.num_objects)]
            okeys = soa.int_column([key for key, _ in pairs])
            ovals, _ = soa.values_to_matrix([v for _, v in pairs], size)
        obj_keys = okeys.tolist()
        lookup = table.lookup_matrix(obj_keys)
        # One extra all-zero row per column: a filler slot's item index
        # -1 gathers it, so fillers come out unoccupied and inert.
        slot_items = table.slot_items
        values, has_value = soa.values_to_matrix(
            [entry.value for entry in batch] + [None], size
        )
        scan_table = ScanTable(
            keys=soa.int_column([e.key for e in batch] + [0])[slot_items],
            occupied=slot_items >= 0,
            is_write=soa.bit_column(
                [e.op is OpType.WRITE for e in batch] + [0]
            )[slot_items],
            permitted=soa.bit_column(
                [e.permitted for e in batch] + [0]
            )[slot_items],
            values=values[slot_items],
            has_value=has_value[slot_items],
        )
        kernel_trace = (
            TimedKernelTrace() if self.telemetry.enabled else None
        )
        new_ovals, slot_matched, responses = self.kernel.scan_soa(
            okeys, ovals, lookup, scan_table, trace=kernel_trace
        )
        if kernel_trace is not None:
            flush_kernel_trace(
                self.telemetry.registry, kernel_trace, self.kernel.name
            )
        # Without a batch path this is the per-slot ``put`` loop.
        store.put_batch(obj_keys, new_ovals)
        # Invert the slot permutation (fillers all land on the spare
        # cell) and write each entry's response back.
        slot_of = np.empty(len(batch) + 1, dtype=np.int64)
        slot_of[slot_items] = np.arange(len(slot_items), dtype=np.int64)
        slot_of = slot_of[:-1]
        values = soa.matrix_to_values(
            responses[slot_of], slot_matched[slot_of].tolist()
        )
        for entry, value in zip(batch, values):
            entry.value = value

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


def _entry_key(entry: BatchEntry) -> int:
    return entry.key
