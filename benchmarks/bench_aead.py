"""Vectorized AEAD throughput: the epoch crypto floor.

The store's two crypto modes over a store-shaped workload (N uniform
slots) at ``value_size`` in {16, 256, 1024}: ``crypto="scalar"``,
per-slot ``seal``/``open`` of the audited HMAC oracle, vs
``crypto="vector"``, the counter-mode cipher
(:class:`~repro.crypto.vector.VectorAead`) — one nonce-derived keystream
for the whole batch, whole-buffer XOR, vectorized polynomial MAC, O(1)
Python calls per epoch.

The write-back scan re-encrypts every slot every epoch, so these MB/s
*are* the epoch crypto floor.  ``seal_speedup`` / ``open_speedup``
compare vector against scalar.  Every row names its ``(kernel, crypto,
backend)`` and its baseline's; ``None`` marks an axis the measurement
does not exercise (the ciphers are called directly — no oblivious
kernel, no execution backend).

Results land in ``BENCH_aead.json``; set ``SNOOPY_BENCH_SMOKE=1`` for
CI's reduced sizes.  The run fails if the vector kernel clears less
than ``VECTOR_GATE``x over the scalar oracle at any size (the CI
regression gate).
"""

import json
import os
import pathlib
import time

from repro.crypto.aead import AeadKey, NONCE_LEN
from repro.crypto.vector import VectorAead

from conftest import report

SMOKE = os.environ.get("SNOOPY_BENCH_SMOKE") == "1"

VALUE_SIZES = [16, 256, 1024]
#: Slots per measured pass, chosen so each pass moves ~the same volume.
SLOTS = {16: 512, 256: 256, 1024: 128} if SMOKE else {
    16: 4096, 256: 2048, 1024: 512
}
REPEATS = 3
#: The CI regression gate: the vector kernel must clear this over the
#: scalar oracle at every value size (full runs at 1KB clear >= 8x).
VECTOR_GATE = 4.0

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
    plain_buf = b"".join(plaintexts)

    scalar_seal = _timed(lambda: [
        KEY.seal(n, pt, aad) for n, pt, aad in zip(nonces, plaintexts, aads)
    ])
    scalar_open = _timed(lambda: [
        KEY.open(n, blob, aad) for n, blob, aad in zip(nonces, sealed, aads)
    ])

    # The counter-mode kernel: one batch nonce, epoch-reused scratch.
    batch_nonce = (11 * count + 5).to_bytes(NONCE_LEN, "big")
    scratch = {}
    vec_sealed = bytes(
        VEC.seal_lanes(batch_nonce, plain_buf, count, plain_size,
                       scratch=scratch)
    )
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
        "baseline": _axes("scalar"),
        "slots": count,
        "plain_size": plain_size,
        "scalar_seal_mbps": volume_mb / scalar_seal,
        "scalar_open_mbps": volume_mb / scalar_open,
        "vector_seal_mbps": volume_mb / vector_seal,
        "vector_open_mbps": volume_mb / vector_open,
        "seal_speedup": scalar_seal / max(vector_seal, 1e-9),
        "open_speedup": scalar_open / max(vector_open, 1e-9),
    }


def test_vector_aead_throughput():
    """Scalar vs vector AEAD MB/s."""
    results = {size: _crypto_row(size) for size in VALUE_SIZES}

    lines = [
        "value  scalar-seal  vector-seal  speedup | "
        "scalar-open  vector-open  speedup"
    ]
    for size, row in results.items():
        lines.append(
            f"{size:<6} {row['scalar_seal_mbps']:>8.1f}MB/s "
            f"{row['vector_seal_mbps']:>8.1f}MB/s "
            f"{row['seal_speedup']:>6.1f}x | "
            f"{row['scalar_open_mbps']:>8.1f}MB/s "
            f"{row['vector_open_mbps']:>8.1f}MB/s "
            f"{row['open_speedup']:>6.1f}x"
        )
    report("Vectorized AEAD", "\n".join(lines))

    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_aead.json"
    out.write_text(json.dumps(
        {
            "benchmark": "vector_aead_throughput",
            "smoke": SMOKE,
            "vector_gate": VECTOR_GATE,
            "results": {str(s): row for s, row in results.items()},
        },
        indent=2,
    ) + "\n")

    for size, row in results.items():
        # The CI regression gate: the counter-mode kernel must hold its
        # margin over the scalar oracle at every size.
        assert row["seal_speedup"] >= VECTOR_GATE, (size, row)
        assert row["open_speedup"] >= VECTOR_GATE, (size, row)
