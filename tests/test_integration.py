"""Cross-module integration tests: full-stack scenarios and failure
injection."""

import random

import pytest

from repro.apps.contact_discovery import ContactDiscoveryService
from repro.apps.key_transparency import KeyTransparencyLog
from repro.core.client import Client
from repro.core.config import SnoopyConfig
from repro.core.linearizability import History, check_snoopy_history
from repro.core.snoopy import Snoopy
from repro.errors import IntegrityError
from repro.types import OpType, Request
from repro.workloads import uniform_requests, zipf_requests


class TestWorkloadsEndToEnd:
    def test_uniform_workload_epochs(self):
        rng = random.Random(1)
        store = Snoopy(
            SnoopyConfig(num_load_balancers=2, num_suborams=3, value_size=16,
                         security_parameter=32),
            rng=random.Random(2),
        )
        store.initialize({k: bytes(16) for k in range(200)})
        for _ in range(5):
            requests = uniform_requests(30, 200, value_size=16, rng=rng)
            responses = store.batch(requests)
            assert len(responses) == 30

    def test_zipf_workload_epochs(self):
        """Heavy skew: dedup must absorb it, nothing may drop."""
        rng = random.Random(3)
        store = Snoopy(
            SnoopyConfig(num_load_balancers=1, num_suborams=4, value_size=16,
                         security_parameter=32),
            rng=random.Random(4),
        )
        store.initialize({k: bytes(16) for k in range(100)})
        for _ in range(5):
            requests = zipf_requests(
                40, 100, exponent=1.5, value_size=16, rng=rng
            )
            responses = store.batch(requests)
            assert len(responses) == 40

    def test_write_read_consistency_across_many_epochs(self):
        rng = random.Random(5)
        store = Snoopy(
            SnoopyConfig(num_load_balancers=2, num_suborams=2, value_size=4,
                         security_parameter=16),
            rng=random.Random(6),
        )
        model = {k: bytes([k]) * 4 for k in range(30)}
        store.initialize(dict(model))
        client = Client(store)
        for round_number in range(20):
            key = rng.randrange(30)
            if rng.random() < 0.5:
                value = bytes([round_number]) * 4
                assert client.write(key, value) == model[key]
                model[key] = value
            else:
                assert client.read(key) == model[key]
        check_snoopy_history(
            History(
                initial={k: bytes([k]) * 4 for k in range(30)},
                operations=client.history,
            )
        )


class TestFailureInjection:
    def test_host_tampering_surfaces_through_stack(self):
        """Flipping a ciphertext bit in a subORAM store fails the epoch."""
        store = Snoopy(
            SnoopyConfig(num_suborams=2, value_size=8, security_parameter=16),
            rng=random.Random(7),
        )
        store.initialize({k: bytes(8) for k in range(20)})
        victim = store.suborams[0].store
        _, blob = victim.host_ciphertext(0)
        victim.host_tamper(0, blob[:-1] + bytes([blob[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            store.batch([Request(OpType.READ, k, seq=k) for k in range(20)])

    def test_host_rollback_of_object_detected(self):
        store = Snoopy(
            SnoopyConfig(num_suborams=1, value_size=8, security_parameter=16),
            rng=random.Random(8),
        )
        store.initialize({k: bytes(8) for k in range(5)})
        victim = store.suborams[0].store
        old = victim.host_ciphertext(2)
        store.write(store.suborams[0]._keys[2], b"newvalue")
        victim.host_rollback(2, old)
        with pytest.raises(IntegrityError):
            store.read(0)  # any epoch scans every slot

    def test_recovery_after_failed_epoch_not_silent(self):
        """After an integrity failure, the error repeats (no silent heal)."""
        store = Snoopy(
            SnoopyConfig(num_suborams=1, value_size=8, security_parameter=16),
            rng=random.Random(9),
        )
        store.initialize({k: bytes(8) for k in range(5)})
        victim = store.suborams[0].store
        _, blob = victim.host_ciphertext(1)
        victim.host_tamper(1, b"\x00" * len(blob))
        for _ in range(2):
            with pytest.raises(IntegrityError):
                store.read(0)


class TestApplicationsOnSharedDeployments:
    def test_kt_on_multi_balancer_deployment(self):
        users = {u: bytes([u % 256]) * 32 for u in range(1, 60)}
        log = KeyTransparencyLog(
            users,
            config=SnoopyConfig(
                num_load_balancers=2,
                num_suborams=3,
                value_size=32,
                security_parameter=32,
            ),
        )
        for user in (1, 17, 59):
            assert log.verify_lookup(log.lookup(user))

    def test_contact_discovery_interleaved_with_updates(self):
        service = ContactDiscoveryService(
            key_space=512,
            config=SnoopyConfig(num_suborams=2, value_size=16,
                                security_parameter=32),
        )
        service.initialize(["+100", "+200"])
        assert service.discover(["+100", "+300"]) == {
            "+100": True,
            "+300": False,
        }
        service.register("+300")
        service.unregister("+100")
        assert service.discover(["+100", "+200", "+300"]) == {
            "+100": False,
            "+200": True,
            "+300": True,
        }

    def test_kt_lookup_count_grows_logarithmically(self):
        small = KeyTransparencyLog(
            {u: bytes(32) for u in range(1, 17)},
            config=SnoopyConfig(value_size=32, security_parameter=16),
        )
        large = KeyTransparencyLog(
            {u: bytes(32) for u in range(1, 257)},
            config=SnoopyConfig(value_size=32, security_parameter=16),
        )
        assert large.accesses_per_lookup() == small.accesses_per_lookup() + 4


class TestDifferentialAgainstPlaintext:
    def test_snoopy_matches_plaintext_store(self):
        """Differential testing: identical random workloads produce
        identical results on Snoopy and on the plaintext baseline."""
        from repro.baselines.plaintext import PlaintextStore

        rng = random.Random(99)
        objects = {k: bytes([k]) * 4 for k in range(50)}
        snoopy = Snoopy(
            SnoopyConfig(num_load_balancers=1, num_suborams=3, value_size=4,
                         security_parameter=16),
            rng=random.Random(1),
        )
        snoopy.initialize(dict(objects))
        plaintext = PlaintextStore(4)
        plaintext.initialize(dict(objects))

        for _ in range(8):
            requests = []
            seen_keys = set()
            for i in range(rng.randrange(1, 8)):
                # Distinct keys per epoch so plaintext's sequential
                # semantics match Snoopy's batch semantics exactly.
                key = rng.randrange(50)
                while key in seen_keys:
                    key = rng.randrange(50)
                seen_keys.add(key)
                if rng.random() < 0.5:
                    requests.append(
                        Request(OpType.WRITE, key,
                                bytes([rng.randrange(256)]) * 4, seq=i)
                    )
                else:
                    requests.append(Request(OpType.READ, key, seq=i))
            snoopy_values = {r.seq: r.value for r in snoopy.batch(list(requests))}
            plain_values = {r.seq: r.value for r in plaintext.batch(list(requests))}
            assert snoopy_values == plain_values
