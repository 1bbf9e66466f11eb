"""The differential matrix: every configuration serves identical bytes.

Runs one seeded workload through the full cross product

    {serial, thread} x {python/scalar, numpy/scalar, numpy/vector}
        x {fault-free, FaultPlan}

via :func:`tests.harness.differential_run` and asserts every cell's
responses, resolved tickets, and workload-invariant public telemetry
match the fault-free serial/python/scalar reference cell exactly.  The
scalar cells seal one slot per HMAC-AEAD call (the audited oracle); the
vector cells seal the whole partition as one AES-GCM message
(:class:`~repro.crypto.vector.VectorAead`) — so a matrix pass is a
proof that the crypto mode changed throughput, not bytes.  The python
kernel runs the scalar store only, so it has no vector cell.
"""

import pytest

from repro.core.faults import FaultEvent, FaultPlan

from tests.harness import (
    INVARIANT_METRICS,
    assert_equivalent,
    differential_run,
    seeded_workload,
)

MASTER = b"harness-test-master-key-01234567"[:32]
NUM_KEYS = 40
EPOCHS = 4

WORKLOAD = seeded_workload(EPOCHS, 6, seed=21, num_keys=NUM_KEYS)
OBJECTS = {k: bytes([k % 256]) * 8 for k in range(NUM_KEYS)}

#: A backend-seam plan every backend (including serial) can absorb.
CHAOS_PLAN = FaultPlan([
    FaultEvent(epoch=2, kind="worker_crash", unit=1),
    FaultEvent(epoch=3, kind="task_timeout", unit=0),
])


@pytest.fixture(scope="module")
def matrix():
    """All 12 cells of the (backend, kernel/crypto, plan) cross product."""
    return differential_run(
        WORKLOAD,
        OBJECTS,
        master=MASTER,
        cryptos=("scalar", "vector"),
        fault_plans=(
            ("fault-free", None),
            # Callable: each cell consumes its own injector cursor.
            ("chaos", lambda: FaultPlan(CHAOS_PLAN.events)),
        ),
    )


def test_matrix_covers_every_cell(matrix):
    keys = {run.key for run in matrix}
    assert len(keys) == len(matrix) == 12
    backends = {backend for backend, _, _, _ in keys}
    stores = {(kernel, crypto) for _, kernel, crypto, _ in keys}
    plans = {plan for _, _, _, plan in keys}
    assert backends == {"serial", "thread:4"}
    assert stores == {
        ("python", "scalar"), ("numpy", "scalar"), ("numpy", "vector"),
    }
    assert plans == {"fault-free", "chaos"}


def test_all_cells_equivalent_to_reference(matrix):
    reference = matrix[0]
    assert reference.key == ("serial", "python", "scalar", "fault-free")
    assert_equivalent(matrix, reference)


def test_invariant_metrics_are_populated(matrix):
    """The compared metric slice is non-trivial in every cell."""
    expected_requests = sum(len(epoch) for epoch in WORKLOAD)
    for run in matrix:
        assert run.invariant_metrics["snoopy_requests_total"] == (
            expected_requests
        )
        assert run.invariant_metrics["snoopy_epochs_total"] == EPOCHS
        assert run.invariant_metrics["snoopy_responses_total"] == (
            expected_requests
        )
        # Every declared invariant series is present.
        bases = {s.split("{")[0] for s in run.invariant_metrics}
        assert bases == set(INVARIANT_METRICS)


def test_batched_cells_actually_batched(matrix):
    """The vector cells of the matrix really used the batch path.

    Guards against the crypto axis silently collapsing to scalar (e.g. a
    ``supports_batch`` regression): every vector cell must have
    recorded whole-partition seals and opens, and no scalar cell may
    have either.
    """

    def series_total(run, base):
        return sum(
            value
            for series, value in run.public_metrics.items()
            if series.split("{")[0].split("#")[0] == base
        )

    for run in matrix:
        seals = series_total(run, "snoopy_store_batch_seals_total")
        opens = series_total(run, "snoopy_store_batch_opens_total")
        if run.crypto == "scalar":
            assert seals == 0 and opens == 0, run.key
        else:
            assert seals > 0 and opens > 0, run.key


def test_chaos_cells_actually_injected_faults(matrix):
    """The chaos half of the matrix is not silently fault-free."""
    for run in matrix:
        if run.plan_name != "chaos":
            continue
        assert run.fault_stats["worker_crashes"] == 1, run.key
        assert run.fault_stats["tasks_timed_out"] == 1, run.key
        assert run.fault_stats["epochs_failed"] == 2, run.key


def test_divergence_is_detected(matrix):
    """assert_equivalent must fail loudly when a cell diverges."""
    import copy

    broken = copy.copy(matrix[1])
    broken.results = list(broken.results)
    broken.results[0] = None
    with pytest.raises(AssertionError, match="diverge"):
        assert_equivalent([matrix[0], broken])
