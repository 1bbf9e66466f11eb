"""Structure-of-arrays codec for the vectorized oblivious kernels.

The NumPy kernels in :mod:`repro.oblivious.kernels` operate on contiguous
arrays instead of Python objects: sort/compaction keys become ``int64``
columns, presence/route/match bits become boolean vectors, and
fixed-width values (the subORAM's ``value_size``-byte objects) become a
``uint8`` matrix with one row per value plus a companion "has" bit that
preserves ``None``.  This module is the boundary where Python objects are
packed into that layout and unpacked back out; everything in between is
whole-array arithmetic.

NumPy is an optional runtime dependency here: the module imports it
guardedly and exposes :data:`HAS_NUMPY` / :func:`require_numpy` so the
kernel registry can fall back to the pure-Python reference path with a
warning instead of crashing when NumPy is absent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

try:  # pragma: no cover - exercised via HAS_NUMPY monkeypatching in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when NumPy imported successfully; the kernel registry consults this
#: to decide whether ``kernel="numpy"`` can be honoured.
HAS_NUMPY = _np is not None
_NDARRAY = _np.ndarray if HAS_NUMPY else ()


def require_numpy():
    """Return the numpy module or raise a friendly ImportError."""
    if not HAS_NUMPY or _np is None:
        raise ImportError(
            "the 'numpy' kernel requires NumPy (>=1.22); install it or "
            "select kernel='python'"
        )
    return _np


def int_column(values: Sequence[int]):
    """Pack a sequence of Python ints into an ``int64`` array."""
    np = require_numpy()
    return np.asarray(list(values), dtype=np.int64)


def bit_column(values: Sequence[int]):
    """Pack a sequence of 0/1 bits (or truthy values) into a boolean array."""
    np = require_numpy()
    return np.asarray([1 if v else 0 for v in values], dtype=bool)


def take(items, perm):
    """``items`` permuted by the int64 index column ``perm``.

    The one place the kernels' index permutations (a list under the
    python kernel, an ndarray under the numpy kernel) meet their
    callers' containers: an ndarray is permuted by one gather, a list
    into a new list.
    """
    if isinstance(items, _NDARRAY):
        return items[perm]
    if isinstance(perm, _NDARRAY):
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
    np = require_numpy()
    n = len(values)
    buf = bytearray(n * value_size)
    has = np.zeros(n, dtype=bool)
    for i, value in enumerate(values):
        if value is None:
            continue
        if len(value) != value_size:
            raise ValueError(
                f"value at row {i} has {len(value)} bytes, expected {value_size}"
            )
        buf[i * value_size : (i + 1) * value_size] = value
        has[i] = True
    matrix = np.frombuffer(bytes(buf), dtype=np.uint8)
    return matrix.reshape(n, value_size).copy(), has


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
    np = require_numpy()
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
    np = require_numpy()
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
    np = require_numpy()
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    key = (name, tuple(shape), np.dtype(dtype).str)
    arr = scratch.get(key)
    if arr is None:
        arr = np.empty(shape, dtype=dtype)
        scratch[key] = arr
    return arr
