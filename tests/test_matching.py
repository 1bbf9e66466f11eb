"""Tests for oblivious response matching (Figure 6 / Figure 26)."""

from repro.loadbalancer.batching import generate_batches
from repro.loadbalancer.matching import match_responses
from repro.oblivious.soa import Batch
from repro.types import OpType, Request

KEY = b"sharding-key-0123456789abcdef..."
VS = 4


def answer(batches, value_of):
    """The reply of subORAMs that hold ``value_of(key)`` for each key."""
    responses = []
    for batch in batches:
        for entry in batch.entries():
            entry.value = value_of(entry.key)
            responses.append(entry)
    return Batch.from_entries(responses, VS)


def run_pipeline(requests, num_suborams=3, store=None):
    """Generate batches, answer them from a dict 'store', then match."""
    store = store if store is not None else {}
    batches, originals, _ = generate_batches(
        requests, num_suborams, KEY, 16, value_size=VS
    )
    before = originals.to_bytes()
    responses = answer(batches, store.get)
    results = match_responses(originals, responses)
    assert originals.to_bytes() == before  # matching reads, never writes
    return results


class TestMatching:
    def test_simple_reads(self):
        store = {1: b"one.", 2: b"two."}
        results = run_pipeline(
            [Request(OpType.READ, 1, seq=0), Request(OpType.READ, 2, seq=1)],
            store=store,
        )
        assert [r.value for r in results] == [b"one.", b"two."]

    def test_arrival_order_preserved(self):
        store = {k: bytes([k]) * VS for k in range(10)}
        requests = [Request(OpType.READ, k, seq=k) for k in (5, 2, 9, 0, 7)]
        results = run_pipeline(requests, store=store)
        assert [r.key for r in results] == [5, 2, 9, 0, 7]

    def test_duplicates_all_receive_value(self):
        store = {4: b"four"}
        requests = [Request(OpType.READ, 4, seq=i) for i in range(5)]
        results = run_pipeline(requests, store=store)
        assert len(results) == 5
        assert all(r.value == b"four" for r in results)

    def test_dummy_responses_discarded(self):
        store = {1: b"one."}
        results = run_pipeline([Request(OpType.READ, 1, seq=0)], store=store)
        assert len(results) == 1

    def test_missing_key_yields_none(self):
        results = run_pipeline([Request(OpType.READ, 42, seq=0)], store={})
        assert results[0].value is None

    def test_client_routing_metadata_preserved(self):
        store = {1: b"one."}
        results = run_pipeline(
            [Request(OpType.READ, 1, client_id=77, seq=13)], store=store
        )
        assert results[0].client_id == 77
        assert results[0].seq == 13

    def test_denied_request_masked(self):
        """§D: permitted=0 originals get a null value and ok=False."""
        batches, originals, _ = generate_batches(
            [Request(OpType.READ, 1, client_id=1, seq=0)],
            2,
            KEY,
            16,
            permissions={(1, 0): 0},
            value_size=VS,
        )
        responses = answer(batches, lambda key: b"secr")
        [result] = match_responses(originals, responses)
        assert result.value is None
        assert result.ok is False

    def test_mixed_duplicates_and_distinct(self, rng):
        store = {k: bytes([k]) * VS for k in range(30)}
        keys = [rng.randrange(30) for _ in range(40)]
        requests = [Request(OpType.READ, k, seq=i) for i, k in enumerate(keys)]
        results = run_pipeline(requests, store=store)
        assert [r.key for r in results] == keys
        assert all(r.value == bytes([r.key]) * VS for r in results)
