"""AEAD throughput: the epoch crypto floor and the channel record cost.

Every sealed byte goes through one cipher, AES-256-GCM
(:class:`~repro.crypto.aead.AeadKey`); the rows compare how the store
calls it.  Store rows, over a store-shaped workload (N uniform slots) at
``value_size`` in {16, 160, 256, 1024}:

* ``vector``: the store's partition pass
  (:class:`~repro.crypto.vector.VectorAead`) — one ``seal_lanes`` /
  ``open_lanes``, i.e. one ``encrypt_into`` / ``decrypt_into``, over the
  whole batch.
* ``scalar``: the audited oracle's per-slot loop (``crypto="scalar"``):
  one AES-GCM ``seal``/``open`` per slot with slot-index AAD.

The 160-byte row is one whole subORAM partition of the served
``scan_rw`` workload (16,384 slots), sealed and opened the way the
store does each epoch.

The write-back scan re-encrypts every slot every epoch, so these MB/s
*are* the epoch crypto floor.  ``seal_speedup`` / ``open_speedup``
compare the one-call pass against the per-slot loop: the same cipher,
so the margin is the per-call overhead the partition layout saves.
Every row names its ``(kernel, crypto, backend)`` and its baseline's;
``None`` marks an axis the measurement does not exercise (the ciphers
are called directly — no oblivious kernel, no execution backend).

Channel rows time one ``AeadKey`` record on the serve path: a 69-byte
request record and a 16 KiB coalesced response record (µs per
seal/open and MB/s).

Results land in ``BENCH_aead.json``; set ``SNOOPY_BENCH_SMOKE=1`` for
CI's reduced sizes.  The run fails if the one-call pass clears less than
``VECTOR_GATE``x over the per-slot loop at any size (the CI regression
gate).
"""

import json
import os
import pathlib
import time

from repro.crypto.aead import AeadKey, NONCE_LEN
from repro.crypto.vector import VectorAead

from conftest import report

SMOKE = os.environ.get("SNOOPY_BENCH_SMOKE") == "1"

VALUE_SIZES = [16, 160, 256, 1024]
#: Slots per measured pass, chosen so each pass moves ~the same volume —
#: except 160, which is scan_rw's whole 16,384-slot partition.
SLOTS = {16: 512, 160: 256, 256: 256, 1024: 128} if SMOKE else {
    16: 4096, 160: 16384, 256: 2048, 1024: 512
}
REPEATS = 3
#: The CI regression gate: the GCM pass must clear this over the scalar
#: per-slot loop at every value size.
VECTOR_GATE = 4.0

#: Channel records: a REQUEST frame record and a coalesced RESPONSE record.
CHANNEL_RECORDS = {"request_69B": 69, "response_16KiB": 16 * 1024}
#: Records sealed/opened per measured pass.
CHANNEL_CALLS = {"request_69B": 500, "response_16KiB": 50} if SMOKE else {
    "request_69B": 5000, "response_16KiB": 500
}

#: One 32-byte AES-256 key for both call patterns.
KEY_BYTES = b"bench-aead-key-0123456789abcdef0"
KEY = AeadKey(KEY_BYTES)
VEC = VectorAead(KEY_BYTES)


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _axes(crypto):
    """A row's ``(kernel, crypto, backend)``: only crypto is exercised."""
    return {"kernel": None, "crypto": crypto, "backend": None}


def _fixtures(value_size, count):
    # Store-shaped slots: 16-byte key prefix + value, slot-index AAD.
    plain_size = 16 + value_size
    nonces = [
        (7 * i + 1).to_bytes(NONCE_LEN, "big") for i in range(count)
    ]
    plaintexts = [
        i.to_bytes(16, "big") + bytes([i % 256]) * value_size
        for i in range(count)
    ]
    aads = [i.to_bytes(8, "big") for i in range(count)]
    return plain_size, nonces, plaintexts, aads


def _crypto_row(value_size):
    count = SLOTS[value_size]
    plain_size, nonces, plaintexts, aads = _fixtures(value_size, count)
    volume_mb = count * plain_size / 1e6

    sealed = [
        KEY.seal(n, pt, aad) for n, pt, aad in zip(nonces, plaintexts, aads)
    ]
    scalar_seal = _timed(lambda: [
        KEY.seal(n, pt, aad) for n, pt, aad in zip(nonces, plaintexts, aads)
    ])
    scalar_open = _timed(lambda: [
        KEY.open(n, blob, aad) for n, blob, aad in zip(nonces, sealed, aads)
    ])

    # The store's pass: one nonce, one GCM call, into reused buffers.
    batch_nonce = (11 * count + 5).to_bytes(NONCE_LEN, "big")
    plain_buf = b"".join(plaintexts)
    sealed_buf = VEC.seal_lanes(batch_nonce, plain_buf, count, plain_size)
    opened = bytearray(count * plain_size)
    VEC.open_lanes(batch_nonce, sealed_buf, count, plain_size, out=opened)
    assert opened == plain_buf
    vector_seal = _timed(lambda: VEC.seal_lanes(
        batch_nonce, plain_buf, count, plain_size, out=sealed_buf
    ))
    vector_open = _timed(lambda: VEC.open_lanes(
        batch_nonce, sealed_buf, count, plain_size, out=opened
    ))
    return {
        "config": _axes("vector"),
        "baseline": _axes("scalar"),
        "baseline_path": "AeadKey seal/open per slot",
        "slots": count,
        "plain_size": plain_size,
        "scalar_seal_mbps": volume_mb / scalar_seal,
        "scalar_open_mbps": volume_mb / scalar_open,
        "vector_seal_mbps": volume_mb / vector_seal,
        "vector_open_mbps": volume_mb / vector_open,
        "seal_speedup": scalar_seal / max(vector_seal, 1e-9),
        "open_speedup": scalar_open / max(vector_open, 1e-9),
    }


def _channel_row(name):
    size, calls = CHANNEL_RECORDS[name], CHANNEL_CALLS[name]
    aad = b"client/fwd"
    nonces = [i.to_bytes(NONCE_LEN, "big") for i in range(calls)]
    record = bytes(i % 251 for i in range(size))
    sealed = [KEY.seal(n, record, aad) for n in nonces]
    seal_s = _timed(lambda: [KEY.seal(n, record, aad) for n in nonces])
    open_s = _timed(lambda: [
        KEY.open(n, blob, aad) for n, blob in zip(nonces, sealed)
    ])
    volume_mb = calls * size / 1e6
    return {
        "config": _axes("scalar"),
        "record_bytes": size,
        "seal_us": seal_s / calls * 1e6,
        "open_us": open_s / calls * 1e6,
        "seal_mbps": volume_mb / seal_s,
        "open_mbps": volume_mb / open_s,
    }


def test_vector_aead_throughput():
    """One-call GCM pass vs the per-slot loop, plus the channel record cost."""
    results = {size: _crypto_row(size) for size in VALUE_SIZES}
    channel = {name: _channel_row(name) for name in CHANNEL_RECORDS}

    lines = [
        "value  scalar-seal   vector-seal  speedup | "
        "scalar-open   vector-open  speedup"
    ]
    for size, row in results.items():
        lines.append(
            f"{size:<6} {row['scalar_seal_mbps']:>8.1f}MB/s "
            f"{row['vector_seal_mbps']:>9.1f}MB/s "
            f"{row['seal_speedup']:>6.1f}x | "
            f"{row['scalar_open_mbps']:>8.1f}MB/s "
            f"{row['vector_open_mbps']:>9.1f}MB/s "
            f"{row['open_speedup']:>6.1f}x"
        )
    lines.append("channel record    seal       open")
    for name, row in channel.items():
        lines.append(
            f"{name:<15} {row['seal_us']:>7.1f}us {row['open_us']:>7.1f}us"
        )
    report("AEAD throughput", "\n".join(lines))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_aead.json"
    out.write_text(json.dumps(
        {
            "benchmark": "vector_aead_throughput",
            "smoke": SMOKE,
            "vector_gate": VECTOR_GATE,
            "results": {str(s): row for s, row in results.items()},
            "channel": channel,
        },
        indent=2,
    ) + "\n")

    for size, row in results.items():
        # The CI regression gate: the GCM pass must hold its margin over
        # the scalar per-slot loop at every size.
        assert row["seal_speedup"] >= VECTOR_GATE, (size, row)
        assert row["open_speedup"] >= VECTOR_GATE, (size, row)
