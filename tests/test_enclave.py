"""Tests for the abstract enclave model, attestation, and rollback defense."""

import pytest

from repro.enclave.attestation import AttestationService
from repro.enclave.model import Enclave, EpcModel
from repro.enclave.sealed import MonotonicCounter, SealedStore
from repro.errors import AttestationError, RollbackError


class TestEpcModel:
    def test_resident_cheaper_than_paged(self):
        epc = EpcModel(epc_bytes=1000)
        resident = epc.scan_seconds(500, 500)
        paged = epc.scan_seconds(5000, 500)
        assert resident < paged

    def test_scales_with_bytes(self):
        epc = EpcModel()
        assert epc.scan_seconds(100, 200) == pytest.approx(
            2 * epc.scan_seconds(100, 100)
        )


class TestEnclave:
    def test_heap_traces(self):
        enclave = Enclave("suboram-0")
        heap = enclave.heap([1, 2, 3])
        _ = heap[0]
        heap[1] = 9
        assert enclave.trace.events == [("R", 0), ("W", 1)]

    def test_measurement_deterministic_per_program(self):
        assert Enclave("lb").measurement == Enclave("lb").measurement
        assert Enclave("lb").measurement != Enclave("so").measurement


class TestAttestation:
    def test_trusted_quote_verifies(self):
        service = AttestationService(b"sign" * 8)
        enclave = Enclave("lb-0")
        service.trust(enclave.measurement)
        quote = service.quote(enclave, b"share" * 6 + b"xx")
        assert service.verify(quote) == b"share" * 6 + b"xx"

    def test_unknown_measurement_rejected(self):
        service = AttestationService(b"sign" * 8)
        rogue = Enclave("malware")
        quote = service.quote(rogue, b"s" * 32)
        with pytest.raises(AttestationError, match="not a trusted"):
            service.verify(quote)

    def test_tampered_quote_rejected(self):
        service = AttestationService(b"sign" * 8)
        enclave = Enclave("lb-0")
        service.trust(enclave.measurement)
        quote = service.quote(enclave, b"s" * 32)
        forged = type(quote)(
            quote.enclave_name, quote.measurement, b"x" * 32, quote.signature
        )
        with pytest.raises(AttestationError, match="signature"):
            service.verify(forged)


class TestRollbackDefense:
    def test_seal_unseal_roundtrip(self):
        store = SealedStore(b"seal" * 8)
        nonce, blob = store.seal(b"state-v1")
        assert store.unseal(nonce, blob) == b"state-v1"

    def test_stale_blob_rejected(self):
        store = SealedStore(b"seal" * 8)
        old_nonce, old_blob = store.seal(b"state-v1")
        store.seal(b"state-v2")  # counter bumps
        with pytest.raises(RollbackError):
            store.unseal(old_nonce, old_blob)

    def test_counter_monotone(self):
        counter = MonotonicCounter()
        values = [counter.increment() for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]

    def test_snoopy_bumps_counter_per_epoch(self, small_store):
        start = small_store.counter.value
        small_store.read(1)
        small_store.read(2)
        assert small_store.counter.value == start + 2
