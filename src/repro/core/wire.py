"""Wire serialization for Snoopy's networked hops.

The in-process :class:`~repro.core.snoopy.Snoopy` passes Python objects
directly; the TCP service layer (:mod:`repro.serve`) — the client front
door and the balancer↔subORAM worker links — sends real bytes.  This module
holds the handshake, the frame envelope, and the client request/response
and control payloads.  A batch has exactly one encoding, owned by its
container: :meth:`Batch.to_bytes <repro.oblivious.soa.Batch.to_bytes>` /
:meth:`~repro.oblivious.soa.Batch.from_buffer`, ``8 + n * (44 +
value_size)`` bytes for ``n`` rows whatever they hold, so EPOCH frame
sizes depend only on batch sizes and object size — public quantities.

**Versioned handshake.**  Every Snoopy TCP connection opens with one
fixed-size hello frame from each side:

    hello := magic(4 = "SNPY") | version(1) | role(1) | flags(1)
             | reserved(9)

The hello is 16 bytes for every client, server, and worker, regardless
of configuration or payload sizes, so the handshake itself leaks nothing
beyond the fact of a connection (already host-visible).  The flags byte
advertises transport capabilities (:data:`HELLO_FLAG_ATTESTED` — the
peer will follow the hello with an ATTEST quote exchange).  A peer
speaking a version outside :data:`SUPPORTED_WIRE_VERSIONS` is rejected
with :class:`VersionMismatchError` — which names both the offered and
the supported versions — before any request bytes flow; servers
additionally answer with a structured ``VERSION_REJECT`` frame
(:func:`encode_version_reject`) so the rejected client learns the
server's supported set instead of an opaque hangup.

**Attested channels.**  When both hellos carry
:data:`HELLO_FLAG_ATTESTED`, each side follows with one fixed-size
ATTEST frame (:func:`encode_attest`, always :data:`ATTEST_SIZE` payload
bytes) carrying an attestation quote and a key share; every subsequent
frame is sealed by :class:`repro.crypto.aead.SecureChannel` framing (see
:mod:`repro.serve.secure`).  The ATTEST payload is constant-size for
every role and enclave name, so the upgraded handshake still has a
constant shape.

**Frames.**  After the handshake, every message is a framed unit:

    frame := kind(1) | payload_len(4) | payload(payload_len)

Frame kinds are the :class:`FrameKind` constants.  Payload sizes are
functions of public quantities only (request counts, the configured
value size, batch sizes), preserving obliviousness end to end:

* ``REQUEST``/``RESPONSE`` — one client operation and its completion
  (:func:`encode_request`, read a record's run at a time by
  :func:`decode_requests`; :func:`encode_responses` writes a
  connection's replies as one array); every request of a given value
  size is byte-for-byte the same length whether it is a read or a write
  of any key (reads carry a zero-filled value slot).
* ``EPOCH``/``EPOCH_REPLY``/``INIT`` — load-balancer <-> subORAM worker
  traffic: one :class:`~repro.oblivious.soa.Batch` (INIT), or an epoch's
  batches concatenated (EPOCH adds a version id first).
* ``TXN_BEGIN``/``TXN_ACK``/``CLOSE_EPOCH``/``EPOCH_CLOSED``/``ERROR``
  — control frames with fixed-size payloads.
* ``SESSION``/``SESSION_ACK``/``RESPONSE_ACK`` — resumable client
  sessions: a reconnecting client re-adopts its open tickets and the
  server replays undelivered responses (exactly-once delivery).
* ``BUSY``/``SHUTTING_DOWN`` — typed load-shedding and drain signals so
  clients get a structured verdict instead of a dropped connection.
* ``SNAP_FETCH``/``SNAP_DATA``/``SNAP_PUSH``/``SNAP_ACK``/
  ``VERSIONS_QUERY``/``VERSIONS_REPLY`` — chunked, resumable sealed
  snapshot transfer between a balancer and its subORAM workers, so
  workers no longer need a shared filesystem.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.errors import WireError
from repro.oblivious.soa import Batch
from repro.types import INT64_MAX, INT64_MIN, OpType, Request, Response

_FLAG_HAS_VALUE = 4

_OPS = {OpType.READ: 0, OpType.WRITE: 1}


class VersionMismatchError(WireError):
    """A peer's hello frame advertised an unsupported wire version.

    The error names *both* sides of the negotiation so a rejected peer
    can log something actionable instead of an opaque hangup.

    Attributes:
        offered: the version byte the peer sent.
        supported: tuple of versions this library accepts
            (:data:`SUPPORTED_WIRE_VERSIONS`).
    """

    def __init__(self, offered: int, supported=None):
        if supported is None:
            supported = SUPPORTED_WIRE_VERSIONS
        elif isinstance(supported, int):
            supported = (supported,)
        else:
            supported = tuple(supported)
        versions = ", ".join(str(v) for v in supported)
        super().__init__(
            f"peer offered wire version {offered}; this library supports "
            f"version(s) {{{versions}}}"
        )
        self.offered = offered
        self.supported = supported


def _check_key(key: int) -> int:
    if not INT64_MIN <= key <= INT64_MAX:
        raise WireError(f"key {key} does not fit the wire format")
    return key


# ---------------------------------------------------------------------------
# Versioned handshake
# ---------------------------------------------------------------------------
#: Protocol version this library speaks.  Bump on any incompatible frame
#: or encoding change; peers with a different version are rejected at
#: handshake time instead of failing mid-stream.
#: v2: hello flags byte, ATTEST exchange, sessions, snapshot transfer,
#: delivery sequence numbers on responses.
#: v3: fixed-width batch and INIT payloads (``Batch.to_bytes``).
#: v4: sealed records are AES-GCM (16-byte tag) under per-direction keys.
#: v5: one EPOCH frame per worker per epoch (codes 8/9, were per-batch).
WIRE_VERSION = 5

#: Every wire version this library can speak.  Kept as a tuple so a
#: future version can retain backward compatibility windows; rejects
#: report this whole set, not a single number.
SUPPORTED_WIRE_VERSIONS = (WIRE_VERSION,)

#: Connection magic: the first four bytes of every Snoopy TCP stream.
WIRE_MAGIC = b"SNPY"

_HELLO = struct.Struct(">4sBBB9x")
#: Size in bytes of the (fixed-size) hello frame.
HELLO_SIZE = _HELLO.size

#: Hello flag: the sender will follow its hello with an ATTEST frame and
#: expects every post-handshake frame to ride a sealed channel.
HELLO_FLAG_ATTESTED = 1


class Role:
    """Peer roles carried in the hello frame (public deployment facts)."""

    CLIENT = 1
    SERVER = 2
    BALANCER = 3
    WORKER = 4

    _VALID = frozenset((CLIENT, SERVER, BALANCER, WORKER))


def encode_hello(
    role: int, version: int = WIRE_VERSION, flags: int = 0
) -> bytes:
    """The fixed-size hello frame opening every connection.

    Always exactly :data:`HELLO_SIZE` bytes regardless of role, version,
    or flags — the handshake's shape is constant.
    """
    if role not in Role._VALID:
        raise WireError(f"unknown hello role {role}")
    if not 0 <= version <= 255:
        raise WireError(f"version {version} does not fit the version byte")
    if not 0 <= flags <= 255:
        raise WireError(f"flags {flags} do not fit the flags byte")
    return _HELLO.pack(WIRE_MAGIC, version, role, flags)


def decode_hello(data: bytes) -> Tuple[int, int, int]:
    """Validate a peer's hello; returns ``(version, role, flags)``.

    Raises:
        WireError: short frame, bad magic, or unknown role.
        VersionMismatchError: the peer speaks a version outside
            :data:`SUPPORTED_WIRE_VERSIONS` (checked *after* the magic
            so garbage connections fail as malformed, not as version
            skew).  The error carries both the offered version and the
            supported set.
    """
    if len(data) < HELLO_SIZE:
        raise WireError("truncated hello frame")
    magic, version, role, flags = _HELLO.unpack_from(data, 0)
    if magic != WIRE_MAGIC:
        raise WireError(f"bad connection magic {magic!r}")
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise VersionMismatchError(version, SUPPORTED_WIRE_VERSIONS)
    if role not in Role._VALID:
        raise WireError(f"unknown hello role {role}")
    return version, role, flags


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------
_FRAME_HEADER = struct.Struct(">BI")
#: Size in bytes of every frame header: kind(1) | payload_len(4).
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Ceiling on a single frame payload (a protocol sanity bound, far above
#: any real batch; prevents a corrupt length field from allocating GiBs).
MAX_FRAME_PAYLOAD = 1 << 30


class FrameKind:
    """Frame type constants for the post-handshake stream."""

    REQUEST = 1        # client -> server: one submitted operation
    RESPONSE = 2       # server -> client: one resolved ticket
    CLOSE_EPOCH = 3    # client -> server: close the current epoch (admin)
    EPOCH_CLOSED = 4   # server -> client: epoch number (or 0) that closed
    ERROR = 5          # either direction: fatal protocol error text
    INIT = 6           # balancer -> worker: load a partition
    INIT_ACK = 7       # worker -> balancer: partition loaded (num objects)
    EPOCH = 8          # balancer -> worker: version + an epoch's batches
    EPOCH_REPLY = 9    # worker -> balancer: one reply batch per batch
    TXN_BEGIN = 10     # balancer -> worker: start an atomic epoch attempt
    TXN_ACK = 11       # worker -> balancer: attempt state staged
    PING = 12          # liveness probe (optional u32 echo-delay ms)
    PONG = 13          # liveness reply
    ATTEST = 14        # both directions: quote + key share (fixed size)
    VERSION_REJECT = 15  # server -> client: offered + supported versions
    SESSION = 16       # client -> server: open/resume a resumable session
    SESSION_ACK = 17   # server -> client: session id granted/resumed
    RESPONSE_ACK = 18  # client -> server: delivery seq received through
    BUSY = 19          # server -> client: request shed (req_id)
    SHUTTING_DOWN = 20  # server -> client: drain verdict (req_id or empty)
    SNAP_FETCH = 21    # balancer -> worker: read sealed snapshot chunk
    SNAP_DATA = 22     # worker -> balancer: total size + chunk bytes
    SNAP_PUSH = 23     # balancer -> worker: install snapshot chunk
    SNAP_ACK = 24      # worker -> balancer: bytes staged so far
    VERSIONS_QUERY = 25  # balancer -> worker: which versions do you hold?
    VERSIONS_REPLY = 26  # worker -> balancer: held version ids

    _VALID = frozenset(range(1, 27))


def encode_frame(kind: int, payload: bytes = b"") -> bytes:
    """One framed message: kind byte, payload length, payload."""
    if kind not in FrameKind._VALID:
        raise WireError(f"unknown frame kind {kind}")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload of {len(payload)} bytes exceeds cap")
    return _FRAME_HEADER.pack(kind, len(payload)) + payload


def decode_frame_header(data: bytes) -> Tuple[int, int]:
    """Parse a frame header; returns ``(kind, payload_len)``."""
    if len(data) < FRAME_HEADER_SIZE:
        raise WireError("truncated frame header")
    kind, length = _FRAME_HEADER.unpack_from(data, 0)
    if kind not in FrameKind._VALID:
        raise WireError(f"unknown frame kind {kind}")
    if length > MAX_FRAME_PAYLOAD:
        raise WireError(f"frame payload of {length} bytes exceeds cap")
    return kind, length


def split_record(record) -> List[Tuple[int, bytes]]:
    """A sealed record's frames as ``(kind, payload)``, in order.

    A record is the concatenation of one or more whole frames.  A run of
    consecutive REQUEST frames stays whole, headers included, as one
    ``(FrameKind.REQUEST, frames)`` item for :func:`decode_requests`; a
    record of nothing but requests — what a client's coalesced sends
    produce — is one run without a header walk.  Raises
    :class:`WireError` if the record is empty, a header is truncated, or
    trailing bytes do not form a complete frame.
    """
    kind, length = decode_frame_header(record)
    size = FRAME_HEADER_SIZE + length
    count, rest = divmod(len(record), size)
    if kind == FrameKind.REQUEST and not rest and (
        record[0::size] == bytes([kind]) * count
    ):
        return [(kind, record)]  # decode_requests checks every length
    view, items, run, offset = memoryview(record), [], None, 0
    while offset < len(record):
        kind, length = decode_frame_header(
            view[offset:offset + FRAME_HEADER_SIZE]
        )
        end = offset + FRAME_HEADER_SIZE + length
        if end > len(record):
            raise WireError("sealed record truncates an inner frame")
        if kind != FrameKind.REQUEST:
            if run is not None:
                items.append((FrameKind.REQUEST, bytes(view[run:offset])))
            run = None
            items.append((kind, bytes(view[end - length:end])))
        elif run is None:
            run = offset
        offset = end
    if run is not None:
        items.append((FrameKind.REQUEST, bytes(view[run:])))
    return items


# ---------------------------------------------------------------------------
# Client requests and responses
# ---------------------------------------------------------------------------
# The client's one-frame packers (encode_request, decode_response) and
# the server's array codec (decode_requests, encode_responses) share
# these layouts; load_balancer -1 means random, and delivery_seq is the
# session's exactly-once delivery counter (0 when sessionless).
_REQUEST = struct.Struct(">QBBhq8xQQI")
_RESPONSE = struct.Struct(">QQBBhIq8xQQQI")
_HEADER_FIELDS = [("kind", "u1"), ("length", ">u4")]
_REQUEST_FIELDS = [
    ("req_id", ">u8"), ("op", "u1"), ("flags", "u1"),
    ("load_balancer", ">i2"), ("key", ">i8"), ("pad", "V8"),
    ("client_id", ">u8"), ("seq", ">u8"), ("vlen", ">u4"),
]
_RESPONSE_FIELDS = [
    ("req_id", ">u8"), ("delivery_seq", ">u8"), ("ok", "u1"),
    ("flags", "u1"), ("load_balancer", ">i2"), ("arrival", ">u4"),
    ("key", ">i8"), ("pad", "V8"), ("client_id", ">u8"), ("seq", ">u8"),
    ("epoch", ">u8"), ("vlen", ">u4"),
]
_U64_FRAME = np.dtype(_HEADER_FIELDS + [("value", ">u8")])
#: Flags byte -> 1 if it carries a value, else 0 (``bytes.translate``).
_HAS_VALUE = bytes(int(bool(flags & _FLAG_HAS_VALUE)) for flags in range(256))


@lru_cache(maxsize=16)
def _frame_dtype(kind: int, value_size: int) -> np.dtype:
    """One framed REQUEST or RESPONSE as a packed big-endian row."""
    fields = _REQUEST_FIELDS if kind == FrameKind.REQUEST else _RESPONSE_FIELDS
    return np.dtype(
        _HEADER_FIELDS + fields + [("value", "u1", (value_size,))]
    )


def request_size(value_size: int) -> int:
    """Byte length of every request of a store's value size (public)."""
    return _REQUEST.size + value_size


def encode_request(
    req_id: int,
    request: Request,
    value_size: int,
    load_balancer: int = -1,
) -> bytes:
    """Serialize one client operation for the service front door.

    Reads and writes of any key produce the same number of bytes for a
    given ``value_size``: the value slot is zero-padded to the store's
    fixed width, so the wire length of a request depends only on the
    public object size.  (:func:`decode_requests` refuses a payload that
    does not fill the slot.)
    """
    value = request.value if request.value is not None else b""
    if len(value) > value_size:
        raise WireError(
            f"request value of {len(value)} bytes exceeds the store's "
            f"value_size {value_size}"
        )
    flags = _FLAG_HAS_VALUE if request.value is not None else 0
    header = _REQUEST.pack(
        req_id,
        _OPS[request.op],
        flags,
        load_balancer,
        _check_key(request.key),
        request.client_id,
        request.seq,
        len(value),
    )
    return header + value + bytes(value_size - len(value))


@lru_cache(maxsize=16)
def _request_checks(value_size: int):
    """What every REQUEST frame of a store's value size must carry:
    ``(header, [(offset, flag-to-byte table)] for the vlen bytes)``."""
    dtype = _frame_dtype(FrameKind.REQUEST, value_size)
    vlen = value_size.to_bytes(4, "big")
    return (
        _FRAME_HEADER.pack(FrameKind.REQUEST, _REQUEST.size + value_size),
        [
            (dtype.fields["vlen"][1] + i, bytes.maketrans(b"\1", vlen[i:i + 1]))
            for i in range(4)
        ],
    )


@lru_cache(maxsize=64)
def _constant_columns(count: int):
    """Read-only ``is_dummy``, ``permitted`` and zero int64 columns of a
    decoded chunk (batches are never mutated, so chunks share them)."""
    columns = (
        np.zeros(count, dtype=bool), np.ones(count, dtype=bool),
        np.zeros(count, dtype=np.int64),
    )
    for column in columns:
        column.flags.writeable = False
    return columns


def decode_requests(frames: bytes, value_size: int):
    """Decode back-to-back REQUEST frames (a record's run) as columns.

    One ``np.frombuffer`` reads them; the checks compare whole byte
    columns (``frames[i::stride]`` is byte ``i`` of every frame): the
    header, an op code of 0 or 1, and a ``vlen`` of ``value_size`` with
    the value flag and 0 without.  A bad row refuses the whole run with
    the same :class:`WireError` whatever its position, key or value.

    Returns ``(req_id, load_balancer, rows)``: the request ids, the
    balancer choices (-1: random) and a
    :class:`~repro.oblivious.soa.Batch` whose columns view ``frames``
    (``Batch.concat``, in the build stage, copies them out).
    """
    dtype = _frame_dtype(FrameKind.REQUEST, value_size)
    header, vlen_checks = _request_checks(value_size)
    stride = dtype.itemsize
    count, rest = divmod(len(frames), stride)
    if rest or not count or any(
        frames[i::stride] != header[i:i + 1] * count
        for i in range(FRAME_HEADER_SIZE)
    ):
        raise WireError("request frame has the wrong size")
    ops = frames[dtype.fields["op"][1]::stride]
    if ops.translate(None, b"\0\1"):
        raise WireError("unknown op code in a request frame")
    has = frames[dtype.fields["flags"][1]::stride].translate(_HAS_VALUE)
    # A short payload would be refused at intake anyway; refusing it here
    # fails only the connection that sent it.
    if any(
        frames[offset::stride] != has.translate(table)
        for offset, table in vlen_checks
    ):
        raise WireError(
            f"request value does not fill the store's {value_size}-byte "
            "value slot"
        )
    rows = np.frombuffer(frames, dtype, count)
    has_value = np.frombuffer(has, bool)
    value = rows["value"]
    if b"\0" in has:
        value = value * has_value[:, None]  # zero the slots of reads
    is_dummy, permitted, zeros = _constant_columns(count)
    batch = Batch(
        key=rows["key"], is_write=np.frombuffer(ops, bool),
        has_value=has_value, value=value, client_id=rows["client_id"],
        seq=rows["seq"], is_dummy=is_dummy, permitted=permitted,
        suboram=zeros, arrival=zeros,
    )
    return rows["req_id"], rows["load_balancer"], batch


def response_size(value_size: int) -> int:
    """Byte length of every response of a store's value size (public)."""
    return _RESPONSE.size + value_size


def _response_rows(req_id, rows, *, load_balancer, arrival, epoch,
                   delivery_seq) -> np.ndarray:
    out = np.zeros(len(rows), _frame_dtype(FrameKind.RESPONSE, rows.value_size))
    out["kind"] = FrameKind.RESPONSE
    out["length"] = _RESPONSE.size + rows.value_size
    for name, column in (
        ("req_id", req_id), ("delivery_seq", delivery_seq),
        ("ok", rows.permitted), ("load_balancer", load_balancer),
        ("arrival", arrival), ("key", rows.key),
        ("client_id", rows.client_id), ("seq", rows.seq), ("epoch", epoch),
        ("value", rows.value),
    ):
        out[name] = column
    out["flags"] = rows.has_value * _FLAG_HAS_VALUE
    out["vlen"] = rows.has_value * rows.value_size
    return out


def encode_responses(
    req_id,
    rows,
    *,
    load_balancer,
    arrival,
    epoch,
    delivery_seq=0,
) -> bytes:
    """Serialize matched rows as back-to-back RESPONSE frames.

    ``rows`` is a :class:`~repro.oblivious.soa.Batch` of matched
    responses (``permitted`` is the ``ok`` bit); every other argument
    is a column or one value for every row.  Every response of a value
    size is the same length: absent values are flagged and zero-padded.
    """
    return _response_rows(
        req_id, rows, load_balancer=load_balancer, arrival=arrival,
        epoch=epoch, delivery_seq=delivery_seq,
    ).tobytes()


def encode_u64_frames(kind: int, values) -> bytes:
    """One ``kind`` frame with a u64 payload per value, back to back
    (the BUSY/SHUTTING_DOWN verdicts of a chunk's shed rows)."""
    out = np.empty(len(values), _U64_FRAME)
    out["kind"] = kind
    out["length"] = _U64.size
    out["value"] = values
    return out.tobytes()


def decode_response(data: bytes, value_size: int):
    """Deserialize one response frame.

    Returns ``(req_id, response, placement, delivery_seq)`` where
    ``placement`` is a ``(load_balancer, arrival, epoch)`` tuple.
    """
    if len(data) != _RESPONSE.size + value_size:
        raise WireError("response frame has the wrong size")
    (
        req_id, delivery_seq, ok, flags, load_balancer, arrival, key,
        client_id, seq, epoch, vlen,
    ) = _RESPONSE.unpack_from(data, 0)
    if vlen > value_size:
        raise WireError("response value length exceeds the value slot")
    value = (
        bytes(data[_RESPONSE.size:_RESPONSE.size + vlen])
        if flags & _FLAG_HAS_VALUE
        else None
    )
    response = Response(
        key=key, value=value, client_id=client_id, seq=seq, ok=bool(ok)
    )
    return req_id, response, (load_balancer, arrival, epoch), delivery_seq


# ---------------------------------------------------------------------------
# Worker control payloads
# ---------------------------------------------------------------------------
_TXN = struct.Struct(">QQ")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")


def encode_txn(parent_version: int, new_version: int) -> bytes:
    """TXN_BEGIN payload: clone ``parent_version`` state as ``new_version``."""
    return _TXN.pack(parent_version, new_version)


def decode_txn(data: bytes) -> Tuple[int, int]:
    """Parse a TXN_BEGIN payload; returns ``(parent, new)`` version ids."""
    if len(data) != _TXN.size:
        raise WireError("txn payload has the wrong size")
    return _TXN.unpack(data)


def encode_u64(value: int) -> bytes:
    """Fixed 8-byte unsigned payload (version ids, epoch numbers)."""
    return _U64.pack(value)


def decode_u64(data: bytes) -> int:
    """Parse a fixed 8-byte unsigned payload."""
    if len(data) != _U64.size:
        raise WireError("u64 payload has the wrong size")
    return _U64.unpack(data)[0]


def encode_u32(value: int) -> bytes:
    """Fixed 4-byte unsigned payload (counts)."""
    return _U32.pack(value)


def decode_u32(data: bytes) -> int:
    """Parse a fixed 4-byte unsigned payload."""
    if len(data) != _U32.size:
        raise WireError("u32 payload has the wrong size")
    return _U32.unpack(data)[0]


# ---------------------------------------------------------------------------
# Attestation exchange
# ---------------------------------------------------------------------------
#: Maximum enclave-name length carried in an ATTEST payload.
ATTEST_NAME_MAX = 31

_ATTEST = struct.Struct(">B31s32s32s32s")
#: Byte length of every ATTEST payload: name_len(1) | name(31, padded)
#: | measurement(32) | key_share(32) | signature(32).  Constant for
#: every role and enclave name, so the attested handshake has the same
#: shape as the plaintext one plus one fixed-size frame each way.
ATTEST_SIZE = _ATTEST.size


def encode_attest(
    name: str, measurement: bytes, key_share: bytes, signature: bytes
) -> bytes:
    """Serialize one ATTEST payload (quote + key share).

    Clients — which are verified by password/authorization out of band,
    not by attestation — send an all-zero measurement and signature with
    their key share; enclave roles send a full quote.  Both encode to
    exactly :data:`ATTEST_SIZE` bytes.
    """
    raw = name.encode("utf-8")
    if len(raw) > ATTEST_NAME_MAX:
        raise WireError(f"enclave name {name!r} exceeds {ATTEST_NAME_MAX} bytes")
    if len(measurement) != 32 or len(key_share) != 32 or len(signature) != 32:
        raise WireError("attest fields must be exactly 32 bytes")
    return _ATTEST.pack(len(raw), raw, measurement, key_share, signature)


def decode_attest(data: bytes):
    """Parse an ATTEST payload.

    Returns ``(name, measurement, key_share, signature)``.
    """
    if len(data) != ATTEST_SIZE:
        raise WireError("attest payload has the wrong size")
    name_len, raw, measurement, key_share, signature = _ATTEST.unpack(data)
    if name_len > ATTEST_NAME_MAX:
        raise WireError("attest name length out of range")
    name = raw[:name_len].decode("utf-8", errors="replace")
    return name, measurement, key_share, signature


# ---------------------------------------------------------------------------
# Version negotiation reject
# ---------------------------------------------------------------------------
def encode_version_reject(offered: int, supported=SUPPORTED_WIRE_VERSIONS) -> bytes:
    """VERSION_REJECT payload: offered(1) | count(1) | versions(count)."""
    supported = tuple(supported)
    if not supported or len(supported) > 255:
        raise WireError("supported version set out of range")
    return bytes([offered & 0xFF, len(supported), *[v & 0xFF for v in supported]])


def decode_version_reject(data: bytes) -> Tuple[int, Tuple[int, ...]]:
    """Parse a VERSION_REJECT payload; returns ``(offered, supported)``."""
    if len(data) < 2 or len(data) != 2 + data[1]:
        raise WireError("version reject payload has the wrong size")
    return data[0], tuple(data[2 : 2 + data[1]])


# ---------------------------------------------------------------------------
# Resumable sessions
# ---------------------------------------------------------------------------
_SESSION = struct.Struct(">QQ")


def encode_session(session_id: int, last_delivery_seq: int) -> bytes:
    """SESSION payload: resume ``session_id`` (0 = open a new session)
    having received responses through ``last_delivery_seq``."""
    return _SESSION.pack(session_id, last_delivery_seq)


def decode_session(data: bytes) -> Tuple[int, int]:
    """Parse a SESSION payload; returns ``(session_id, last_seq)``."""
    if len(data) != _SESSION.size:
        raise WireError("session payload has the wrong size")
    return _SESSION.unpack(data)


# ---------------------------------------------------------------------------
# Snapshot transfer (remote workers, no shared filesystem)
# ---------------------------------------------------------------------------
_SNAP_FETCH = struct.Struct(">QI")
_SNAP_PUSH_HEAD = struct.Struct(">QB")


def encode_snap_fetch(offset: int, max_chunk: int) -> bytes:
    """SNAP_FETCH payload: read snapshot bytes from ``offset``."""
    return _SNAP_FETCH.pack(offset, max_chunk)


def decode_snap_fetch(data: bytes) -> Tuple[int, int]:
    """Parse a SNAP_FETCH payload; returns ``(offset, max_chunk)``."""
    if len(data) != _SNAP_FETCH.size:
        raise WireError("snap fetch payload has the wrong size")
    return _SNAP_FETCH.unpack(data)


def encode_snap_data(total: int, chunk: bytes) -> bytes:
    """SNAP_DATA payload: snapshot total length + one chunk."""
    return _U64.pack(total) + chunk


def decode_snap_data(data: bytes) -> Tuple[int, bytes]:
    """Parse a SNAP_DATA payload; returns ``(total, chunk)``."""
    if len(data) < _U64.size:
        raise WireError("snap data payload has the wrong size")
    return _U64.unpack_from(data, 0)[0], bytes(data[_U64.size:])


def encode_snap_push(offset: int, last: bool, chunk: bytes) -> bytes:
    """SNAP_PUSH payload: stage ``chunk`` at ``offset``; ``last`` commits."""
    return _SNAP_PUSH_HEAD.pack(offset, 1 if last else 0) + chunk


def decode_snap_push(data: bytes) -> Tuple[int, bool, bytes]:
    """Parse a SNAP_PUSH payload; returns ``(offset, last, chunk)``."""
    if len(data) < _SNAP_PUSH_HEAD.size:
        raise WireError("snap push payload has the wrong size")
    offset, last = _SNAP_PUSH_HEAD.unpack_from(data, 0)
    return offset, bool(last), bytes(data[_SNAP_PUSH_HEAD.size:])


def encode_versions(versions) -> bytes:
    """VERSIONS_REPLY payload: count(4) | version ids (8 bytes each)."""
    versions = tuple(versions)
    return _U32.pack(len(versions)) + b"".join(_U64.pack(v) for v in versions)


def decode_versions(data: bytes) -> Tuple[int, ...]:
    """Parse a VERSIONS_REPLY payload; returns the held version ids."""
    if len(data) < _U32.size:
        raise WireError("versions payload has the wrong size")
    (count,) = _U32.unpack_from(data, 0)
    if len(data) != _U32.size + count * _U64.size:
        raise WireError("versions payload has the wrong size")
    return tuple(
        _U64.unpack_from(data, _U32.size + i * _U64.size)[0]
        for i in range(count)
    )
