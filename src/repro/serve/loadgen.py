"""Asyncio load generator for the Snoopy front door.

Drives a live :class:`~repro.serve.server.SnoopyServer` over real TCP
with a fleet of connections, each keeping a fixed window of requests in
flight — the closed-loop-per-connection / open-loop-in-aggregate shape
the paper's throughput experiments use (§8: saturate the epoch batches,
then measure sustained throughput and the latency the batching costs).

Connections are sessionless on purpose (the server buffers nothing for
them) and speak whichever channel the server requires: pass ``trust``
to run the attested handshake and sealed framing — the configuration
``BENCH_serve.json`` now records, with the plaintext mode kept as the
overhead baseline.

The generator measures from the client side of the wire: a request's
latency is first-byte-sent to response-frame-decoded, so it includes
framing, the attested channel's AEAD work, the kernel socket path,
epoch queueing, and the oblivious batch itself.  Results feed
``BENCH_serve.json`` via the bench harness and the
``python -m repro loadgen`` CLI.

Request streams come from :mod:`repro.workloads`: pass ``workload`` (a
:class:`~repro.workloads.WorkloadSpec` or CLI shorthand like
``zipf:1.2``) to drive a seeded generator, ``trace_in`` to replay a
recorded trace over the wire, and ``trace_out`` to record what was
actually sent — with arrival timestamps — as a replayable trace file.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Union

from repro.core.wire import (
    FrameKind,
    Role,
    WireError,
    decode_response,
    decode_u32,
    encode_request,
)
from repro.errors import ServerBusyError, ServerShuttingDownError
from repro.serve.secure import (
    AsyncFrameTransport,
    ServeTrust,
    secure_handshake_async,
)
from repro.telemetry.registry import nearest_rank_percentile
from repro.types import OpType, Request
from repro.workloads.generators import (
    WorkloadSpec,
    generate_requests,
    parse_workload_spec,
)
from repro.workloads.trace import Trace, TraceRecord, dump_trace, load_trace


def _fit_value(value: Optional[bytes], value_size: int) -> bytes:
    """Resize a scripted value to the server's value size (pad/truncate)."""
    return (value or b"").ljust(value_size, b"\x00")[:value_size]


async def _run_connection(
    host: str,
    port: int,
    *,
    requests: int,
    window: int,
    num_keys: int,
    write_fraction: float,
    rng: random.Random,
    client_id: int,
    latencies: List[float],
    trust: Optional[ServeTrust] = None,
    script: Optional[List[Request]] = None,
    record: Optional[List[TraceRecord]] = None,
    t0: float = 0.0,
) -> int:
    """One connection's closed loop; returns responses received.

    With ``script`` the connection sends those requests in order
    (scripted values are padded/truncated to the server's value size);
    otherwise it draws uniform keys from ``rng`` as before.  With
    ``record`` every request actually sent is appended as a
    :class:`TraceRecord` stamped relative to ``t0``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    transport: Optional[AsyncFrameTransport] = None
    try:
        _version, _role, pair = await secure_handshake_async(
            reader, writer, Role.CLIENT,
            trust=trust, attested=trust is not None,
            expected_roles=(Role.SERVER,),
        )
        transport = AsyncFrameTransport(reader, writer, pair)
        kind, payload = await transport.recv()
        if kind == FrameKind.ERROR:
            raise WireError(payload.decode("utf-8", "replace"))
        if kind != FrameKind.INIT:
            raise WireError(f"expected INIT, got frame kind {kind}")
        value_size = decode_u32(payload[:4])

        sent_at: Dict[int, float] = {}
        completed = 0
        next_req = 0

        def send_one() -> None:
            nonlocal next_req
            req_id = next_req
            next_req += 1
            if script is not None:
                template = script[req_id]
                request = Request(
                    op=template.op,
                    key=template.key,
                    value=(
                        _fit_value(template.value, value_size)
                        if template.is_write() else None
                    ),
                    client_id=template.client_id or client_id,
                    seq=req_id,
                )
            elif rng.random() < write_fraction:
                request = Request(
                    op=OpType.WRITE,
                    key=rng.randrange(num_keys),
                    value=rng.getrandbits(8 * value_size).to_bytes(
                        value_size, "big"
                    ),
                    client_id=client_id,
                    seq=req_id,
                )
            else:
                request = Request(
                    op=OpType.READ,
                    key=rng.randrange(num_keys),
                    client_id=client_id,
                    seq=req_id,
                )
            now = time.monotonic()
            sent_at[req_id] = now
            if record is not None:
                record.append(TraceRecord.from_request(request, now - t0))
            transport.send(
                FrameKind.REQUEST,
                encode_request(req_id, request, value_size),
            )

        # Prime the window, then keep it full: every response frees a
        # slot that is immediately refilled until the quota is sent.
        for _ in range(min(window, requests)):
            send_one()
        await transport.drain()

        while completed < requests:
            kind, payload = await transport.recv()
            if kind == FrameKind.ERROR:
                raise WireError(payload.decode("utf-8", "replace"))
            if kind == FrameKind.BUSY:
                raise ServerBusyError(
                    "server shed load mid-benchmark; lower the window"
                )
            if kind == FrameKind.SHUTTING_DOWN:
                raise ServerShuttingDownError(
                    "server drained mid-benchmark"
                )
            if kind != FrameKind.RESPONSE:
                raise WireError(f"unexpected frame kind {kind}")
            req_id, _response, _coords, _seq = decode_response(
                payload, value_size
            )
            latencies.append(time.monotonic() - sent_at.pop(req_id))
            completed += 1
            if next_req < requests:
                send_one()
                await transport.drain()
        return completed
    finally:
        if transport is not None:
            transport.close()
        else:
            writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_loadgen_async(
    host: str,
    port: int,
    *,
    requests: int = 10_000,
    connections: int = 4,
    window: int = 256,
    num_keys: int = 1024,
    write_fraction: float = 0.5,
    seed: int = 0,
    trust=None,
    workload: Optional[Union[str, WorkloadSpec]] = None,
    trace_in: Optional[Union[str, Trace]] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, object]:
    """Drive the server with ``requests`` total operations; return stats.

    The quota is split evenly across ``connections``, each running the
    closed window loop above concurrently on one event loop.  The
    aggregate open-ticket count is ``connections * window`` — the knob
    the 100K-open-ticket soak turns up.  ``trust`` (a
    :class:`~repro.serve.secure.ServeTrust` or raw secret bytes)
    switches every connection to the attested sealed channel.

    ``workload`` swaps the inline uniform stream for a seeded
    :mod:`repro.workloads` generator (spec object or shorthand such as
    ``"zipf:1.2"``); ``trace_in`` replays a recorded trace (path or
    :class:`Trace`), round-robined across connections, overriding
    ``requests``; ``trace_out`` records every request actually sent —
    with client-side send timestamps — as a replayable trace file.
    """
    if isinstance(trust, (bytes, bytearray)):
        trust = ServeTrust(bytes(trust))
    spec: Optional[WorkloadSpec] = None
    scripts: Optional[List[List[Request]]] = None
    if trace_in is not None:
        trace = load_trace(trace_in) if isinstance(trace_in, str) else trace_in
        replayed = trace.requests()
        scripts = [replayed[index::connections] for index in range(connections)]
        spec = trace.spec
    elif workload is not None:
        spec = (
            parse_workload_spec(
                workload, num_keys=num_keys, write_fraction=write_fraction,
            )
            if isinstance(workload, str) else workload
        )
        per_connection = max(1, requests // connections)
        scripts = [
            generate_requests(spec, per_connection, seed * 7919 + index)
            for index in range(connections)
        ]
    per_connection = max(1, requests // connections)
    latencies: List[float] = []
    record: Optional[List[TraceRecord]] = [] if trace_out else None
    started = time.monotonic()
    totals = await asyncio.gather(*[
        _run_connection(
            host, port,
            requests=len(scripts[index]) if scripts else per_connection,
            window=window,
            num_keys=num_keys,
            write_fraction=write_fraction,
            rng=random.Random(seed * 7919 + index),
            client_id=1000 + index,
            latencies=latencies,
            trust=trust,
            script=scripts[index] if scripts else None,
            record=record,
            t0=started,
        )
        for index in range(connections)
    ])
    elapsed = time.monotonic() - started
    total = sum(totals)
    ordered = sorted(latencies)
    stats: Dict[str, object] = {
        "requests": total,
        "connections": connections,
        "window": window,
        "open_tickets": connections * window,
        "write_fraction": write_fraction,
        "attested": trust is not None,
        "elapsed_s": elapsed,
        "rps": total / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": nearest_rank_percentile(ordered, 50) * 1e3,
        "latency_p99_ms": nearest_rank_percentile(ordered, 99) * 1e3,
        "latency_mean_ms": (
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0
        ),
    }
    if spec is not None:
        stats["workload"] = spec.to_dict()
    if trace_in is not None:
        stats["replayed_trace"] = trace.checksum()
    if record is not None:
        recorded = Trace(
            records=sorted(record, key=lambda r: (r.t, r.client_id, r.seq)),
            spec=spec,
            seed=seed,
            meta={"source": "loadgen", "connections": connections,
                  "window": window},
        )
        stats["trace_out"] = trace_out
        stats["trace_checksum"] = dump_trace(recorded, trace_out)
    return stats


def run_loadgen(host: str, port: int, **kwargs) -> Dict[str, object]:
    """Blocking wrapper around :func:`run_loadgen_async`."""
    return asyncio.run(run_loadgen_async(host, port, **kwargs))
