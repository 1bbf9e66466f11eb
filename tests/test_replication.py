"""Tests for quorum-replicated subORAMs with rollback detection (§9)."""

import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.crypto.keys import KeyChain
from repro.errors import RollbackError
from repro.extensions.replication import (
    ReplicaUnavailableError,
    ReplicatedSubOram,
)
from repro.oblivious.soa import Batch
from repro.types import BatchEntry, OpType, Request


class _RecordGroup(ReplicatedSubOram):
    """A replica group driven with record lists (one epoch of one Batch
    per call; the argument must come back byte-equal)."""

    def serve(self, entries):
        batch = Batch.from_entries(entries, 4)
        before = batch.to_bytes()
        [response] = self.run_epoch([batch])
        assert batch.to_bytes() == before
        return response.entries()


def make_group(f=1, r=1):
    group = _RecordGroup(
        suboram_id=0, value_size=4, crash_tolerance=f, rollback_tolerance=r
    )
    group.initialize({k: bytes([k]) * 4 for k in range(20)})
    return group


def read(key):
    return BatchEntry(op=OpType.READ, key=key, is_dummy=False)


def write(key, value):
    return BatchEntry(op=OpType.WRITE, key=key, value=value, is_dummy=False)


class TestHappyPath:
    def test_group_size(self):
        assert make_group(f=1, r=1).group_size == 3
        assert make_group(f=2, r=0).group_size == 3
        assert make_group(f=0, r=0).group_size == 1

    def test_reads_and_writes(self):
        group = make_group()
        [r1] = group.serve([read(3)])
        assert r1.value == bytes([3]) * 4
        group.serve([write(3, b"zzzz")])
        [r2] = group.serve([read(3)])
        assert r2.value == b"zzzz"

    def test_counter_once_per_batch(self):
        group = make_group()
        group.serve([read(1)])
        group.serve([read(2)])
        assert group.counter.value == 2

    def test_replicas_stay_in_sync(self):
        group = make_group()
        group.serve([write(5, b"aaaa")])
        for replica in group.replicas:
            assert replica.suboram.peek(5) == b"aaaa"

    def test_replicas_share_one_input_and_agree(self):
        """No per-replica copy: every replica is handed the very same
        Batch objects, leaves them untouched, and returns equal replies."""
        group = make_group()
        seen = []
        for replica in group.replicas:
            inner = replica.suboram.run_epoch

            def spy(batches, _inner=inner):
                replies = _inner(batches)
                seen.append((
                    tuple(id(batch) for batch in batches),
                    tuple(reply.to_bytes() for reply in replies),
                ))
                return replies

            replica.suboram.run_epoch = spy
        group.serve([write(5, b"aaaa"), read(6), read(999)])
        assert len(seen) == group.group_size
        assert len(set(seen)) == 1


class TestCrashes:
    def test_survives_f_crashes(self):
        group = make_group(f=2, r=0)
        group.crash(0)
        group.crash(1)
        [resp] = group.serve([read(4)])
        assert resp.value == bytes([4]) * 4

    def test_all_crashed_raises(self):
        group = make_group(f=1, r=0)
        group.crash(0)
        group.crash(1)
        with pytest.raises(ReplicaUnavailableError):
            group.serve([read(1)])

    def test_recovery_catches_up(self):
        group = make_group(f=1, r=0)
        group.crash(0)
        group.serve([write(7, b"new!")])
        group.recover_from_peer(0)
        assert group.replicas[0].suboram.peek(7) == b"new!"
        assert group.replicas[0].epoch == group.replicas[1].epoch
        # Recovered replica serves correctly afterwards.
        [resp] = group.serve([read(7)])
        assert resp.value == b"new!"


class TestRollbacks:
    def test_rollback_of_one_replica_tolerated(self):
        """Stale replica's reply is identified and ignored."""
        group = make_group(f=0, r=1)
        snapshot = group.snapshot(0)
        group.serve([write(3, b"v2v2")])
        group.rollback(0, snapshot)
        [resp] = group.serve([read(3)])
        assert resp.value == b"v2v2", "must come from the fresh replica"

    def test_rollback_beyond_tolerance_detected(self):
        """Rolling back every replica trips the trusted counter."""
        group = make_group(f=0, r=1)
        snapshots = [group.snapshot(i) for i in range(group.group_size)]
        group.serve([write(3, b"v2v2")])
        for i, snapshot in enumerate(snapshots):
            group.rollback(i, snapshot)
        with pytest.raises(RollbackError):
            group.serve([read(3)])

    def test_rollback_plus_crash_combined(self):
        group = make_group(f=1, r=1)  # 3 replicas
        snapshot = group.snapshot(0)
        group.serve([write(9, b"good")])
        group.rollback(0, snapshot)
        group.crash(1)
        [resp] = group.serve([read(9)])
        assert resp.value == b"good"


class TestCounterStaysAligned:
    """The trusted counter must only advance when a batch is served."""

    def test_all_crashed_does_not_advance_counter(self):
        group = make_group(f=1, r=0)
        group.serve([read(1)])
        group.crash(0)
        group.crash(1)
        with pytest.raises(ReplicaUnavailableError):
            group.serve([read(1)])
        assert group.counter.value == 1, (
            "a batch no replica served must not bump the counter"
        )

    def test_group_recovers_after_total_crash(self):
        """Post-recovery batches serve correctly: epochs stay in sync."""
        group = make_group(f=1, r=0)
        group.serve([write(2, b"keep")])
        # recover_from_peer needs a live peer, so re-open one replica the
        # way an operator restarting the process would, then heal the
        # other from it.
        group.crash(0)
        group.crash(1)
        with pytest.raises(ReplicaUnavailableError):
            group.serve([read(2)])
        group.replicas[0].crashed = False
        group.recover_from_peer(1)
        [resp] = group.serve([read(2)])
        assert resp.value == b"keep"
        assert group.counter.value == 2

    def test_rollback_detection_still_works_after_crash_epoch(self):
        group = make_group(f=1, r=0)
        group.crash(0)
        group.crash(1)
        with pytest.raises(ReplicaUnavailableError):
            group.serve([read(1)])
        group.replicas[0].crashed = False
        group.replicas[1].crashed = False
        snapshots = [group.snapshot(i) for i in range(group.group_size)]
        group.serve([write(3, b"newv")])
        for i, snapshot in enumerate(snapshots):
            group.rollback(i, snapshot)
        with pytest.raises(RollbackError):
            group.serve([read(3)])


def host_view(suboram):
    return [
        suboram.store.host_ciphertext(s) for s in range(suboram.num_objects)
    ]


class TestGroupState:
    def test_recovery_copies_the_fresh_peers_sealed_state(self):
        group = make_group()
        group.serve([write(1, b"aaaa")])
        assert group.peek(1) == b"aaaa"
        group.crash(0)
        group.serve([write(2, b"bbbb")])
        stale, fresh = (group.replicas[i].suboram for i in (0, 1))
        assert host_view(stale) != host_view(fresh)
        assert stale.peek(2) == bytes([2]) * 4
        assert group.peek(2) == b"bbbb"
        group.recover_from_peer(0)
        recovered = group.replicas[0].suboram
        assert host_view(recovered) == host_view(fresh)
        assert recovered.peek(1) == b"aaaa"
        assert recovered.peek(2) == b"bbbb"


MASTER = b"replication-test-master-key-0123"[:32]


def _workload(num_epochs=5, per_epoch=5, seed=17):
    rng = random.Random(seed)
    epochs = []
    for _ in range(num_epochs):
        requests = []
        for i in range(per_epoch):
            key = rng.randrange(30)
            if rng.random() < 0.5:
                requests.append(
                    Request(OpType.WRITE, key, bytes([i + 1]) * 4, seq=i)
                )
            else:
                requests.append(Request(OpType.READ, key, seq=i))
        epochs.append(requests)
    return epochs


def _drive(store, epochs):
    responses, tickets = [], []
    for requests in epochs:
        for i, request in enumerate(requests):
            tickets.append(store.submit(request, load_balancer=i % 2))
        responses.append(store.run_epoch())
    return responses, [t.result() for t in tickets]


class TestDeploymentIntegration:
    """config.replication=(f, r) drops replica groups into deployments."""

    def _config(self, backend="serial", replication=(1, 1)):
        return SnoopyConfig(
            num_load_balancers=2,
            num_suborams=2,
            value_size=4,
            security_parameter=16,
            execution_backend=backend,
            replication=replication,
        )

    def _build(self, **kwargs):
        store = Snoopy(
            self._config(**kwargs),
            keychain=KeyChain(master=MASTER),
            rng=random.Random(2),
        )
        store.initialize({k: bytes([k]) * 4 for k in range(30)})
        return store

    @pytest.fixture(scope="class")
    def unreplicated_serial(self):
        store = self._build(replication=None)
        responses, results = _drive(store, _workload())
        store.close()
        return responses, results

    def test_snoopy_builds_replica_groups(self):
        store = self._build()
        assert all(
            isinstance(s, ReplicatedSubOram) and s.group_size == 3
            for s in store.suborams
        )
        store.close()

    @pytest.mark.parametrize("backend", ["serial", "thread:4"])
    def test_replicated_run_matches_unreplicated_serial(
        self, unreplicated_serial, backend
    ):
        store = self._build(backend=backend)
        responses, results = _drive(store, _workload())
        assert (responses, results) == unreplicated_serial
        store.close()

    @pytest.mark.parametrize("backend", ["serial", "thread:4"])
    def test_crash_mid_run_recovers_and_stays_byte_identical(
        self, unreplicated_serial, backend
    ):
        store = self._build(backend=backend)
        epochs = _workload()
        responses, tickets = [], []
        for index, requests in enumerate(epochs):
            if index == 2:  # crash a replica mid-run
                store.suborams[0].crash(1)
            for i, request in enumerate(requests):
                tickets.append(store.submit(request, load_balancer=i % 2))
            responses.append(store.run_epoch())
            if index == 2:  # operator heals it before the next epoch
                store.suborams[0].recover_from_peer(1)
        results = [t.result() for t in tickets]
        assert (responses, results) == unreplicated_serial
        # The recovered replica is fully caught up.
        group = store.suborams[0]
        assert group.replicas[1].epoch == group.replicas[0].epoch
        store.close()

    def test_custom_factory_conflicts_with_replication(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Snoopy(self._config(), suboram_factory=lambda s, c, k: None)
