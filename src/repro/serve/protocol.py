"""Framed-socket plumbing shared by the server, workers, and clients.

One tiny layer sits between :mod:`repro.core.wire`'s pure encoders and
the TCP endpoints: read or write an exact byte count or one frame, for both
blocking sockets (the sync client and the subORAM worker channel) and
asyncio streams (the load-balancer server).

Failure mapping is deliberate: a peer that vanishes mid-frame (short
read, reset connection) raises :class:`~repro.errors.TransportError` —
the *retryable* fault class — while malformed bytes raise
:class:`~repro.core.wire.WireError`, which is never retried.  That
split is what lets the epoch retry controller recover from a crashed
worker without ever retrying a protocol bug.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Tuple

from repro.core.wire import (
    FRAME_HEADER_SIZE,
    decode_frame_header,
    encode_frame,
)
from repro.errors import TransportError


# ---------------------------------------------------------------------------
# Blocking sockets (sync client, worker channel)
# ---------------------------------------------------------------------------
def recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`TransportError`.

    A cleanly closed or reset peer surfaces as a transport fault — the
    retryable kind — because from this side of the wire they are the
    same public event: the connection is gone.
    """
    chunks = []
    remaining = size
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise TransportError(f"connection lost mid-read: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"connection closed with {remaining} of {size} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_all(sock: socket.socket, data: bytes) -> None:
    """``sendall`` with socket failures mapped to :class:`TransportError`."""
    try:
        sock.sendall(data)
    except OSError as exc:
        raise TransportError(f"connection lost mid-write: {exc}") from exc


def send_frame(sock: socket.socket, kind: int, payload: bytes = b"") -> None:
    """Write one framed message to a blocking socket."""
    send_all(sock, encode_frame(kind, payload))


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one framed message; returns ``(kind, payload)``."""
    kind, length = decode_frame_header(
        recv_exact(sock, FRAME_HEADER_SIZE)
    )
    payload = recv_exact(sock, length) if length else b""
    return kind, payload


# ---------------------------------------------------------------------------
# asyncio streams (server)
# ---------------------------------------------------------------------------
async def read_frame_async(
    reader: asyncio.StreamReader,
) -> Tuple[int, bytes]:
    """Read one framed message from an asyncio stream."""
    try:
        header = await reader.readexactly(FRAME_HEADER_SIZE)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise TransportError(f"connection lost mid-read: {exc}") from exc
    kind, length = decode_frame_header(header)
    if not length:
        return kind, b""
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise TransportError(f"connection lost mid-read: {exc}") from exc
    return kind, payload


def write_frame(
    writer: asyncio.StreamWriter, kind: int, payload: bytes = b""
) -> None:
    """Buffer one framed message on an asyncio stream (caller drains)."""
    writer.write(encode_frame(kind, payload))

