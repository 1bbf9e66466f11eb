"""Telemetry must be oblivious: same-shape workloads, identical exports.

SECURITY.md's "Telemetry is public information" claim, machine-checked:
every exported quantity is a function of the *public* configuration and
batch shape only.  Two workloads that agree on shape — same object
count, same epochs, same per-epoch request count, same read/write
sequence — but access *different keys* and write *different values*
must produce

* byte-identical public Prometheus exports
  (``prometheus_text(public_only=True)``: counters, gauges, histogram
  counts — no timing values), and
* identical span name counts,

on both oblivious kernels under all three execution backends.  A timing
side-channel through the metric *values* is out of scope here (the
paper's §2.1 treats observable timing as public); what this test pins
down is that no *count or series* ever depends on which records were
touched.
"""

import random

import pytest

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.crypto.keys import KeyChain
from repro.telemetry import Telemetry
from repro.types import OpType, Request

MASTER = b"obliviousness-telemetry-key-....."[:32]
NUM_KEYS = 36
EPOCHS = 3
PER_EPOCH = 8

BACKENDS = ["serial", "thread:3"]
KERNELS = ["python", "numpy"]


def shaped_workload(key_seed: int, value_seed: int):
    """A schedule with FIXED shape and seed-dependent content.

    The shape — epoch count, requests per epoch, the read/write flag and
    target balancer of each slot — is a constant; only the accessed keys
    and written values derive from the seeds.  Two calls with different
    seeds are exactly "different access patterns of the same shape".
    """
    key_rng = random.Random(key_seed)
    value_rng = random.Random(value_seed)
    epochs = []
    for _ in range(EPOCHS):
        requests = []
        for i in range(PER_EPOCH):
            key = key_rng.randrange(NUM_KEYS)
            balancer = i % 2
            if i % 3 == 0:  # shape-fixed write slots
                value = bytes([value_rng.randrange(256)]) * 8
                requests.append(
                    (Request(OpType.WRITE, key, value, seq=i), balancer)
                )
            else:
                requests.append((Request(OpType.READ, key, seq=i), balancer))
        epochs.append(requests)
    return epochs


def public_view(backend: str, kernel: str, key_seed: int, value_seed: int):
    """(public Prometheus text, span name counts) for one workload run."""
    telemetry = Telemetry()
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=3,
        value_size=8,
        security_parameter=16,
        execution_backend=backend,
        kernel=kernel,
        telemetry=telemetry,
    )
    with Snoopy(
        config, keychain=KeyChain(master=MASTER), rng=random.Random(2)
    ) as store:
        # Identical initial key set in every run: the *stored* keys are
        # part of the deployment shape; the *accessed* keys are not.
        store.initialize({k: bytes([k]) * 8 for k in range(NUM_KEYS)})
        for requests in shaped_workload(key_seed, value_seed):
            for request, balancer in requests:
                store.submit(request, load_balancer=balancer)
            store.run_epoch()
    return (
        telemetry.registry.prometheus_text(public_only=True),
        dict(telemetry.tracer.name_counts()),
    )


class TestMetricObliviousness:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_same_shape_different_content_identical_exports(
        self, backend, kernel
    ):
        export_a, spans_a = public_view(backend, kernel, 101, 201)
        export_b, spans_b = public_view(backend, kernel, 0xDEAD, 0xBEEF)
        assert export_a == export_b
        assert spans_a == spans_b
        # The comparison is non-trivial: real series and spans exist.
        assert "snoopy_epoch_stage_seconds_count" in export_a
        assert spans_a["epoch"] == EPOCHS

    def test_exports_do_depend_on_shape(self):
        """Sanity: the equality above is not vacuous — changing the
        *shape* (request count) does change the public export."""
        export_a, _ = public_view("serial", "python", 101, 201)
        telemetry = Telemetry()
        config = SnoopyConfig(
            num_load_balancers=2,
            num_suborams=3,
            value_size=8,
            security_parameter=16,
            telemetry=telemetry,
        )
        with Snoopy(
            config, keychain=KeyChain(master=MASTER), rng=random.Random(2)
        ) as store:
            store.initialize({k: bytes([k]) * 8 for k in range(NUM_KEYS)})
            store.submit(Request(OpType.READ, 0))  # one lonely request
            store.run_epoch()
        export_small = telemetry.registry.prometheus_text(public_only=True)
        assert export_small != export_a

    def test_public_export_contains_no_timing_values(self):
        export, _ = public_view("serial", "python", 101, 201)
        assert "quantile" not in export
        assert "_sum" not in export


def served_public_view(key_seed: int, value_seed: int):
    """Public telemetry for one workload served over the real TCP stack.

    The serve layer adds its own metric families (connections, frames,
    sessions, shed counters) on top of the core's — all of which must
    stay functions of the workload *shape* only, even though the bytes
    on the wire now include sealed frames of content-derived data.
    """
    from repro.serve import NetworkSnoopyClient, ServerThread

    telemetry = Telemetry()
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=3,
        value_size=8,
        security_parameter=16,
        telemetry=telemetry,
    )
    with Snoopy(
        config, keychain=KeyChain(master=MASTER), rng=random.Random(2)
    ) as store:
        store.initialize({k: bytes([k]) * 8 for k in range(NUM_KEYS)})
        with ServerThread(store, clock=False) as handle:
            handle.start()
            with NetworkSnoopyClient(
                "127.0.0.1", handle.port, trust=handle.trust,
                client_id=1,
            ) as client:
                tickets = []
                for requests in shaped_workload(key_seed, value_seed):
                    for request, balancer in requests:
                        tickets.append(
                            client.submit(request, load_balancer=balancer)
                        )
                    client.close_epoch(flush=True)
                for ticket in tickets:
                    ticket.result(30.0)
            server_stats = dict(handle.server.stats)
    return (
        telemetry.registry.prometheus_text(public_only=True),
        server_stats,
    )


class TestServeLayerObliviousness:
    def test_served_same_shape_identical_public_telemetry(self):
        export_a, stats_a = served_public_view(101, 201)
        export_b, stats_b = served_public_view(0xDEAD, 0xBEEF)
        assert export_a == export_b
        assert stats_a == stats_b
        # Non-vacuous: the serve layer really contributed series.
        assert "serve_connections_total" in export_a
        assert stats_a["responses"] == EPOCHS * PER_EPOCH


# ---------------------------------------------------------------------------
# Skew insensitivity: hot-key vs uniform workloads of identical shape
# ---------------------------------------------------------------------------
from repro.workloads import WorkloadSpec  # noqa: E402
from tests.harness import (  # noqa: E402
    access_traces,
    tracing_factory,
    workload_schedule,
)

SKEW_SEED = 17
UNIFORM_SPEC = WorkloadSpec(
    distribution="uniform", num_keys=NUM_KEYS, value_size=8
)
HOT_KEY_SPEC = WorkloadSpec(
    distribution="zipf", num_keys=NUM_KEYS, value_size=8, zipf_exponent=1.2
)


def skew_view(backend: str, kernel: str, spec: WorkloadSpec):
    """(public export, span counts, slot-access traces) for one spec.

    The schedules come from :func:`workload_schedule`, whose shape/key
    RNG split makes the uniform and hot-key runs identical in every
    public coordinate by construction — the test then checks the
    *system* holds that line all the way down to the slot level.
    """
    telemetry = Telemetry()
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=3,
        value_size=8,
        security_parameter=16,
        execution_backend=backend,
        kernel=kernel,
        telemetry=telemetry,
    )
    with Snoopy(
        config, keychain=KeyChain(master=MASTER), rng=random.Random(2),
        suboram_factory=tracing_factory,
    ) as store:
        store.initialize({k: bytes([k]) * 8 for k in range(NUM_KEYS)})
        for requests in workload_schedule(
            spec, EPOCHS, PER_EPOCH, seed=SKEW_SEED
        ):
            for request, balancer in requests:
                store.submit(request, load_balancer=balancer)
            store.run_epoch()
        traces = access_traces(store)
    return (
        telemetry.registry.prometheus_text(public_only=True),
        dict(telemetry.tracer.name_counts()),
        traces,
    )


class TestSkewInsensitivity:
    """Zipf s=1.2 hot keys must be invisible in every public signal.

    The §4.1 deduplication and fixed f(R,S,λ) batch padding are exactly
    the mechanisms that make a hot-key workload indistinguishable from
    a uniform one; this pins the claim to byte-identical telemetry AND
    identical epoch batch-access traces (which slots, in which order)
    across both kernels and all three execution backends.
    """

    def test_workloads_differ_only_in_keys(self):
        uniform = workload_schedule(
            UNIFORM_SPEC, EPOCHS, PER_EPOCH, seed=SKEW_SEED
        )
        hot = workload_schedule(
            HOT_KEY_SPEC, EPOCHS, PER_EPOCH, seed=SKEW_SEED
        )
        shape = lambda sched: [  # noqa: E731
            [(r.op, r.value, lb) for r, lb in epoch] for epoch in sched
        ]
        keys = lambda sched: [  # noqa: E731
            [r.key for r, _ in epoch] for epoch in sched
        ]
        assert shape(uniform) == shape(hot)
        assert keys(uniform) != keys(hot)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_hot_key_vs_uniform_identical_public_signals(
        self, backend, kernel
    ):
        export_u, spans_u, traces_u = skew_view(backend, kernel, UNIFORM_SPEC)
        export_z, spans_z, traces_z = skew_view(backend, kernel, HOT_KEY_SPEC)
        assert export_u == export_z
        assert spans_u == spans_z
        assert traces_u == traces_z
        # Non-vacuous: epochs ran and slots were really touched.
        assert spans_u["epoch"] == EPOCHS
        assert sum(len(t) for t in traces_u) > 0
