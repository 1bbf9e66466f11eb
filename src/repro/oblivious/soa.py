"""Structure-of-arrays layout of the epoch data plane, and its one container.

The NumPy kernels in :mod:`repro.oblivious.kernels` operate on contiguous
arrays instead of Python objects: sort/compaction keys become ``int64``
columns, presence/route/match bits become boolean vectors, and
fixed-width values (the subORAM's ``value_size``-byte objects) become a
``uint8`` matrix with one row per value plus a companion "has" bit that
preserves ``None``.

:class:`Batch` is that layout for a batch of requests — what a load
balancer builds, a subORAM answers and the balancer matches (Figures 5,
19, 6) — and the *only* form a batch has between those stages and on
every hop.  :meth:`Batch.to_bytes` / :meth:`Batch.from_buffer` is the
one codec; its length is ``BATCH_HEADER_SIZE + n * (BATCH_ROW_SIZE +
value_size)`` whatever the rows hold.  Nothing handed a :class:`Batch`
mutates it: a stage returns a new one.  :class:`~repro.types.BatchEntry`
is its record view (:meth:`Batch.entries` / :meth:`Batch.from_entries`),
which the python reference kernel computes on and tests read.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import CapacityError, WireError
from repro.types import BatchEntry, OpType, Request

_BATCH_HEADER = struct.Struct(">II")  # row count | value_size
#: Bytes before the first row of an encoded :class:`Batch`.
BATCH_HEADER_SIZE = _BATCH_HEADER.size
#: Bytes of one encoded row, not counting its ``value_size``-byte slot.
BATCH_ROW_SIZE = 44


@lru_cache(maxsize=8)
def _row_dtype(value_size: int):
    """The packed wire row: one big-endian field per column, bools as
    bytes, in :attr:`Batch.COLUMNS` order with the value slot last."""
    fields = [
        (c, np.uint8 if dtype is bool else np.dtype(dtype).newbyteorder(">"))
        for c, dtype in Batch.COLUMNS.items() if c != "value"
    ]
    return np.dtype(fields + [("value", np.uint8, (value_size,))])


class Batch:
    """``n`` requests (or their responses) as fixed-width ndarray columns.

    ``key`` int64; ``is_write``, ``is_dummy``, ``permitted``,
    ``has_value`` bool; ``value`` uint8 ``(n, value_size)``, all-zero in
    rows whose ``has_value`` is clear; and the balancer's routing and
    identity columns ``suboram``, ``arrival`` (position in the epoch's
    request list) int64 and ``client_id``, ``seq`` uint64.
    """

    COLUMNS = {
        "is_write": bool, "is_dummy": bool, "permitted": bool,
        "has_value": bool, "key": np.int64, "suboram": np.int64,
        "arrival": np.int64, "client_id": np.uint64, "seq": np.uint64,
        "value": np.uint8,
    }
    __slots__ = tuple(COLUMNS)

    def __init__(self, **columns):
        for name in self.COLUMNS:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.key)

    @property
    def value_size(self) -> int:
        """Width of the value slot in bytes (public)."""
        return self.value.shape[1]

    def take(self, rows) -> "Batch":
        """The rows named by an index column (or a slice), as a new batch."""
        return Batch(**{c: getattr(self, c)[rows] for c in self.COLUMNS})

    def replace(self, **columns) -> "Batch":
        """A new batch sharing every column not given in ``columns``."""
        return Batch(**{
            c: columns.get(c, getattr(self, c)) for c in self.COLUMNS
        })

    @classmethod
    def concat(cls, batches: Sequence["Batch"]) -> "Batch":
        """The rows of ``batches`` (at least one batch), in order."""
        return cls(**{
            c: np.concatenate([getattr(b, c) for b in batches])
            for c in cls.COLUMNS
        })

    @classmethod
    def filled(cls, n: int, value_size: int, **columns) -> "Batch":
        """``n`` rows: ``columns`` as given (ints that do not fit are
        refused), zero — a permitted valueless read — everywhere else."""
        try:
            return cls(**{
                c: np.asarray(columns[c], dtype=dtype) if c in columns
                else np.ones(n, dtype=bool) if c == "permitted"
                else np.zeros((n, value_size) if c == "value" else n, dtype)
                for c, dtype in cls.COLUMNS.items()
            })
        except OverflowError as exc:
            raise CapacityError(
                "key outside int64, or client_id/seq outside uint64"
            ) from exc

    # ------------------------------------------------------------------
    # Records in and out
    # ------------------------------------------------------------------
    @classmethod
    def from_requests(cls, requests: Sequence[Request], value_size: int,
                      permissions=None) -> "Batch":
        """An epoch's client requests, in arrival order.

        ``permissions`` is the optional §D ``{(client_id, seq): 0/1}``
        map; a missing pair is permitted.  ``suboram`` is left zero for
        the balancer's routing step to fill.

        Raises:
            CapacityError: a value that is not ``value_size`` bytes, or a
                key / client_id / seq that does not fit its column.
        """
        value, has_value = values_to_matrix(
            [r.value for r in requests], value_size
        )
        columns = {} if permissions is None else {"permitted": [
            permissions.get((r.client_id, r.seq), 1) for r in requests
        ]}
        return cls.filled(
            len(requests), value_size, value=value, has_value=has_value,
            key=[r.key for r in requests],
            is_write=[r.op is OpType.WRITE for r in requests],
            arrival=np.arange(len(requests)),
            client_id=[r.client_id for r in requests],
            seq=[r.seq for r in requests],
            **columns,
        )

    @classmethod
    def from_entries(cls, entries: Sequence[BatchEntry],
                     value_size: int) -> "Batch":
        """The inverse of :meth:`entries` (``tag`` is the arrival index)."""
        value, has_value = values_to_matrix(
            [e.value for e in entries], value_size
        )
        return cls.filled(
            len(entries), value_size, value=value, has_value=has_value,
            is_write=[e.op is OpType.WRITE for e in entries],
            arrival=[e.tag for e in entries],
            **{
                c: [getattr(e, c) for e in entries]
                for c in ("key", "is_dummy", "permitted", "suboram",
                          "client_id", "seq")
            },
        )

    def entries(self) -> List[BatchEntry]:
        """One fresh :class:`BatchEntry` per row (reference/debug view)."""
        return [
            BatchEntry(OpType.WRITE if write else OpType.READ, *fields)
            for write, *fields in zip(
                self.is_write.tolist(), self.key.tolist(),
                matrix_to_values(self.value, self.has_value.tolist()),
                self.suboram.tolist(), self.arrival.tolist(),
                self.client_id.tolist(), self.seq.tolist(),
                self.is_dummy.tolist(), self.permitted.astype(int).tolist(),
            )  # BatchEntry's field order, after ``op``
        ]

    # ------------------------------------------------------------------
    # The codec
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Header plus ``n`` fixed-width rows: the BATCH frame payload."""
        rows = np.empty(len(self), dtype=_row_dtype(self.value_size))
        for name in self.COLUMNS:
            rows[name] = getattr(self, name)
        return _BATCH_HEADER.pack(len(self), self.value_size) + rows.tobytes()

    @classmethod
    def from_buffer(cls, data, value_size: int) -> "Batch":
        """Decode :meth:`to_bytes` output for a store of ``value_size``.

        Raises:
            WireError: truncated header or body, trailing bytes, a
                ``value_size`` other than the expected one, an unknown
                op code or an unknown flag bit.
        """
        if len(data) < BATCH_HEADER_SIZE:
            raise WireError("truncated batch header")
        n, wire_value_size = _BATCH_HEADER.unpack_from(data, 0)
        if wire_value_size != value_size:
            raise WireError(
                f"batch value_size {wire_value_size} != expected {value_size}"
            )
        row = _row_dtype(value_size)
        body = len(data) - BATCH_HEADER_SIZE
        if body < n * row.itemsize:
            raise WireError("truncated batch body")
        if body > n * row.itemsize:
            raise WireError("trailing bytes after batch")
        rows = np.frombuffer(data, row, n, BATCH_HEADER_SIZE)
        for c, dtype in cls.COLUMNS.items():
            if dtype is bool and (rows[c] > 1).any():  # public: codec check
                raise WireError(f"unknown op code or flag bit ({c}) in batch")
        return cls(**{
            c: rows[c].astype(dtype) for c, dtype in cls.COLUMNS.items()
        })


def take(items, perm):
    """``items`` permuted by the int64 index column ``perm``.

    The one place the kernels' index permutations (a list under the
    python kernel, an ndarray under the numpy kernel) meet their
    callers' containers: an ndarray is permuted by one gather, a list
    into a new list.
    """
    if isinstance(items, np.ndarray):
        return items[perm]
    if isinstance(perm, np.ndarray):
        perm = perm.tolist()
    return [items[p] for p in perm]


def values_to_matrix(values: Sequence[Optional[bytes]], value_size: int):
    """Encode fixed-width optional byte strings as ``(matrix, has)``.

    ``matrix`` is a writable ``uint8`` array of shape
    ``(len(values), value_size)``; ``has`` is a boolean vector marking the
    rows that held a real (non-``None``) value.  ``None`` rows are
    all-zero, which is safe because the companion bit — not the byte
    content — is what round-trips absence.
    """
    if any(v is not None and len(v) != value_size for v in values):
        raise CapacityError(f"values must be exactly {value_size} bytes")
    has = np.fromiter((v is not None for v in values), bool, len(values))
    matrix = np.zeros((len(values), value_size), dtype=np.uint8)
    matrix[has] = np.frombuffer(
        b"".join(v for v in values if v is not None), dtype=np.uint8
    ).reshape(int(has.sum()), value_size)
    return matrix, has


def matrix_to_values(matrix, has) -> List[Optional[bytes]]:
    """Decode a ``(matrix, has)`` pair back into optional byte strings."""
    n, value_size = matrix.shape
    raw = matrix.tobytes()
    return [
        raw[i * value_size : (i + 1) * value_size] if has[i] else None
        for i in range(n)
    ]


def keys_to_prefix(keys):
    """Encode an int64 key column as (N, 16) big-endian signed bytes.

    Row ``i`` is byte-identical to ``int(keys[i]).to_bytes(16, "big",
    signed=True)`` — the store's scalar plaintext prefix — produced as
    two vectorized int64 lanes (sign-extension high half + value low
    half) instead of N ``to_bytes`` calls.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = keys.shape[0]
    out = np.empty((n, 16), dtype=np.uint8)
    hi = np.where(keys < 0, np.int64(-1), np.int64(0))
    out[:, :8] = hi.astype(">i8").view(np.uint8).reshape(n, 8)
    out[:, 8:] = keys.astype(">i8").view(np.uint8).reshape(n, 8)
    return out


def prefix_to_keys(prefix):
    """Decode (N, 16) big-endian signed key prefixes to an int64 column.

    Inverse of :func:`keys_to_prefix`.  Keys beyond the int64 range
    cannot be represented in the SoA layout, so a high half that is not
    the sign extension of the low half raises ``ValueError`` (the scalar
    path should be used for such keys).
    """
    n = prefix.shape[0]
    hi = (
        np.ascontiguousarray(prefix[:, :8])
        .view(">i8")
        .reshape(n)
        .astype(np.int64)
    )
    lo = (
        np.ascontiguousarray(prefix[:, 8:])
        .view(">i8")
        .reshape(n)
        .astype(np.int64)
    )
    if not np.array_equal(hi, np.where(lo < 0, np.int64(-1), np.int64(0))):
        raise ValueError("key prefix exceeds the int64 SoA key range")
    return lo


def scratch_array(scratch, name: str, shape, dtype):
    """A reusable uninitialized array from a caller-owned scratch dict.

    The hot paths (the vectorized AEAD kernel, the store's batch
    seal/open, the oblivious kernels) run once per epoch over buffers
    whose shapes are fixed functions of the configuration.  Rather than
    allocating those buffers every epoch, callers hold one plain dict
    and pass it here: the array is keyed by ``(name, shape, dtype)`` and
    handed back uninitialized on every later call with the same shape.
    With ``scratch=None`` a fresh array is allocated (one-shot callers,
    tests).  The dict is the owner's responsibility to keep off pickle
    paths and out of shared state — scratch must never cross threads.
    """
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    key = (name, tuple(shape), np.dtype(dtype).str)
    arr = scratch.get(key)
    if arr is None:
        arr = np.empty(shape, dtype=dtype)
        scratch[key] = arr
    return arr
