"""AEAD throughput: the epoch crypto floor and the channel record cost.

Store rows, over a store-shaped workload (N uniform slots) at
``value_size`` in {16, 160, 256, 1024}:

* ``vector``: the counter-mode cipher
  (:class:`~repro.crypto.vector.VectorAead`) over the whole batch —
  ``seal_lanes``/``open_lanes``, one nonce-derived keystream,
  whole-buffer XOR, vectorized polynomial MAC, O(1) Python calls.
* ``per_slot``: the same cipher one slot at a time (``seal_one``/
  ``open_one`` at each slot's lane; byte-identical output).
* ``scalar``: per-slot ``seal``/``open`` of the audited oracle
  (:class:`~repro.crypto.aead.AeadKey`, ``crypto="scalar"``), reported
  as MB/s only.

The 160-byte row is one whole subORAM partition of the served
``scan_rw`` workload (16,384 slots), sealed and opened the way the
store does each epoch.

The write-back scan re-encrypts every slot every epoch, so these MB/s
*are* the epoch crypto floor.  ``seal_speedup`` / ``open_speedup``
compare ``vector`` against ``per_slot``: the gain that exists only while
the batch path stays vectorized.  Every row names its ``(kernel,
crypto, backend)`` and its baseline's; ``None`` marks an axis the
measurement does not exercise (the ciphers are called directly — no
oblivious kernel, no execution backend).

Channel rows time one :class:`~repro.crypto.aead.AeadKey` record on the
serve path: a 69-byte request record and a 16 KiB coalesced response
record (µs per seal/open and MB/s).

Results land in ``BENCH_aead.json``; set ``SNOOPY_BENCH_SMOKE=1`` for
CI's reduced sizes.  The run fails if the batch path clears less than
``VECTOR_GATE``x over the per-slot loop of the same cipher at any size
(the CI regression gate).
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
#: The CI regression gate: the batch path must clear this over the same
#: cipher's per-slot loop at every value size.
VECTOR_GATE = 4.0

#: Channel records: a REQUEST frame record and a coalesced RESPONSE record.
CHANNEL_RECORDS = {"request_69B": 69, "response_16KiB": 16 * 1024}
#: Records sealed/opened per measured pass.
CHANNEL_CALLS = {"request_69B": 500, "response_16KiB": 50} if SMOKE else {
    "request_69B": 5000, "response_16KiB": 500
}

KEY_BYTES = b"bench-aead-key-0123456789abcdef01"
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

    # The counter-mode kernel: one batch nonce, epoch-reused scratch.
    batch_nonce = (11 * count + 5).to_bytes(NONCE_LEN, "big")
    plain_buf = b"".join(plaintexts)
    scratch = {}
    vec_sealed = bytes(
        VEC.seal_lanes(batch_nonce, plain_buf, count, plain_size,
                       scratch=scratch)
    )
    slot_size = len(vec_sealed) // count
    blobs = [
        vec_sealed[i * slot_size : (i + 1) * slot_size] for i in range(count)
    ]
    # The per-slot baseline seals the very same bytes, lane by lane.
    assert b"".join(
        VEC.seal_one(batch_nonce, pt, lane=i)
        for i, pt in enumerate(plaintexts)
    ) == vec_sealed
    per_slot_seal = _timed(lambda: [
        VEC.seal_one(batch_nonce, pt, lane=i)
        for i, pt in enumerate(plaintexts)
    ])
    per_slot_open = _timed(lambda: [
        VEC.open_one(batch_nonce, blob, lane=i)
        for i, blob in enumerate(blobs)
    ])
    vector_seal = _timed(
        lambda: VEC.seal_lanes(batch_nonce, plain_buf, count, plain_size,
                               scratch=scratch)
    )
    vector_open = _timed(
        lambda: VEC.open_lanes(batch_nonce, vec_sealed, count, plain_size,
                               scratch=scratch)
    )
    return {
        "config": _axes("vector"),
        "baseline": _axes("vector"),
        "baseline_path": "seal_one/open_one per slot",
        "slots": count,
        "plain_size": plain_size,
        "scalar_seal_mbps": volume_mb / scalar_seal,
        "scalar_open_mbps": volume_mb / scalar_open,
        "per_slot_seal_mbps": volume_mb / per_slot_seal,
        "per_slot_open_mbps": volume_mb / per_slot_open,
        "vector_seal_mbps": volume_mb / vector_seal,
        "vector_open_mbps": volume_mb / vector_open,
        "seal_speedup": per_slot_seal / max(vector_seal, 1e-9),
        "open_speedup": per_slot_open / max(vector_open, 1e-9),
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
    """Batch vs per-slot AEAD MB/s, plus the channel record cost."""
    results = {size: _crypto_row(size) for size in VALUE_SIZES}
    channel = {name: _channel_row(name) for name in CHANNEL_RECORDS}

    lines = [
        "value  scalar-seal  per-slot-seal  vector-seal  speedup | "
        "scalar-open  per-slot-open  vector-open  speedup"
    ]
    for size, row in results.items():
        lines.append(
            f"{size:<6} {row['scalar_seal_mbps']:>8.1f}MB/s "
            f"{row['per_slot_seal_mbps']:>10.1f}MB/s "
            f"{row['vector_seal_mbps']:>8.1f}MB/s "
            f"{row['seal_speedup']:>6.1f}x | "
            f"{row['scalar_open_mbps']:>8.1f}MB/s "
            f"{row['per_slot_open_mbps']:>10.1f}MB/s "
            f"{row['vector_open_mbps']:>8.1f}MB/s "
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
        # The CI regression gate: the batch path must hold its margin
        # over the same cipher's per-slot loop at every size.
        assert row["seal_speedup"] >= VECTOR_GATE, (size, row)
        assert row["open_speedup"] >= VECTOR_GATE, (size, row)
