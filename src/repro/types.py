"""Core datatypes shared across the Snoopy reproduction.

Client requests and responses are small frozen dataclasses; a batch of
requests is a :class:`repro.oblivious.soa.Batch` of columns, of which
:class:`BatchEntry` is the per-row record view.  Object ids are int64;
values are ``bytes`` of a fixed, per-store object size, mirroring the
paper's fixed-size object regime (160-byte objects in most experiments,
32-byte objects for key transparency).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class OpType(enum.Enum):
    """Request type. Dummy requests are reads for unpredictable ids."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Request:
    """A client request for one object.

    Attributes:
        op: read or write.
        key: logical object id.
        value: payload for writes, ``None`` for reads.
        client_id: identifier of the issuing client (used to route replies
            and, with access control, to look up privileges).
        seq: client-local sequence number, used to match replies and to
            build linearizability histories.
    """

    op: OpType
    key: int
    value: Optional[bytes] = None
    client_id: int = 0
    seq: int = 0

    def is_read(self) -> bool:
        """True for read requests."""
        return self.op is OpType.READ

    def is_write(self) -> bool:
        """True for write requests."""
        return self.op is OpType.WRITE


@dataclass(frozen=True)
class Response:
    """A reply to a single :class:`Request`.

    ``value`` carries the object contents before the write for write
    requests (the paper's batch-access semantics) and the current contents
    for reads.  ``ok`` is ``False`` only when access control denied the
    operation.
    """

    key: int
    value: Optional[bytes]
    client_id: int = 0
    seq: int = 0
    ok: bool = True


# Sentinel key used for dummy requests/objects inside oblivious structures.
# Dummies must be indistinguishable from real entries by access pattern; the
# *content* of entries is never visible to the attacker in our model (only
# addresses are), so a sentinel key is faithful to the paper's encrypted
# dummies.
DUMMY_KEY = -1

# Object ids are int64 on every fixed-width path (batch columns, wire).
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@dataclass
class BatchEntry:
    """One batch row as a mutable record: what the python reference
    kernel computes on and tests read (``Batch.entries``/``from_entries``).

    This is the in-enclave representation: plaintext from the enclave's point
    of view, opaque ciphertext from the attacker's.  Fields mirror the tuples
    used in Figures 5, 6, 19, 25 of the paper.
    """

    op: OpType = OpType.READ
    key: int = DUMMY_KEY
    value: Optional[bytes] = None
    suboram: int = 0
    tag: int = 0  # arrival index within the epoch (``Batch.arrival``)
    client_id: int = 0
    seq: int = 0
    is_dummy: bool = True
    permitted: int = 1  # access-control bit (§D); 1 unless ACL denies

    @classmethod
    def from_request(cls, request: Request) -> "BatchEntry":
        return cls(
            op=request.op,
            key=request.key,
            value=request.value,
            client_id=request.client_id,
            seq=request.seq,
            is_dummy=False,
        )

    def copy(self) -> "BatchEntry":
        """Deep-enough copy: a new entry with identical fields."""
        return BatchEntry(
            op=self.op,
            key=self.key,
            value=self.value,
            suboram=self.suboram,
            tag=self.tag,
            client_id=self.client_id,
            seq=self.seq,
            is_dummy=self.is_dummy,
            permitted=self.permitted,
        )
