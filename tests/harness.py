"""Differential-equivalence harness: one driver for every configuration axis.

The repo's strongest guarantee is *configuration transparency*: execution
backend, oblivious kernel, and injected fault plans change wall-clock —
never what the system serves, never its public shape.  Before this
module, ``test_chaos.py`` and ``test_parallel_equivalence.py`` each
carried a private copy of the same drivers (tracing stores, seeded
workloads, store builders).  They now share this harness, and the
matrix test (``test_harness.py``) runs the full cross product

    {serial, thread} x {python, numpy}
        x {scalar, vector} x {fault-free, FaultPlan}

asserting byte-identical responses and identical workload-invariant
public telemetry for every cell.  The crypto axis is the store-crypto
selector of :class:`~repro.core.config.SnoopyConfig`: ``"scalar"`` seals
one slot per HMAC-AEAD call (the audited oracle) and ``"vector"``
seals the whole partition as one AES-GCM message
(:class:`~repro.crypto.vector.VectorAead`) — the matrix proves both
serve identical bytes on every backend.  The python kernel runs the
scalar store only (:func:`repro.suboram.suboram.store_crypto`), so a
python/vector cell is the python/scalar cell and is run once.

Key pieces:

* :class:`TracingStore` / :class:`TracingSubOram` / :func:`tracing_factory`
  — slot-access-logging subORAMs (the access-pattern witness; the log
  rides on the instance so atomic epoch copies carry it along);
* :func:`seeded_workload` — a deterministic multi-epoch (request,
  balancer) schedule, parameterized so both historical test suites'
  schedules are instances of it;
* :func:`build_store` — one fixed-key deployment for any (backend,
  kernel, plan, replication) cell, with an optional telemetry handle;
* :func:`run_workload` — drive a store through the schedule;
* :func:`differential_run` / :func:`assert_equivalent` — execute a cell
  matrix and check every cell against the reference cell (serial,
  python, fault-free by construction: the first cell);
* :func:`array_ops` — the op log (name, operand shapes, dtypes) of the
  whole-array NumPy calls one module makes in one call: the fixed-work
  witness for the oblivious kernels.

**Which metrics must match across cells.**  Only metrics that are pure
functions of the workload shape are compared across *different*
configurations: :data:`INVARIANT_METRICS` (request/epoch/response
counts).  Everything else is honestly configuration-dependent — backends
record different ``exec_*`` series, fault plans add ``fault_*``/
``retry_*`` counters, kernels differ in level counts — and the
*same-configuration* obliviousness guarantee (identical metrics for
same-shape different-content workloads) is asserted separately in
``test_telemetry_obliviousness.py``.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.crypto.keys import KeyChain
from repro.serve.secure import ServeTrust
from repro.serve.workers import WorkerCluster
from repro.suboram.store import EncryptedStore
from repro.suboram.suboram import SubOram, store_crypto
from repro.telemetry import Telemetry
from repro.types import OpType, Request

#: Telemetry series that must be identical across *all* configurations
#: of the same workload: pure functions of the request schedule.
INVARIANT_METRICS = (
    "snoopy_requests_total",
    "snoopy_epochs_total",
    "snoopy_responses_total",
)


class TracingStore(EncryptedStore):
    """A scalar encrypted store that logs every slot access.

    Only the scalar store has a per-slot ``put``, so the witness is
    always ``crypto="scalar"``: the subORAM runs the per-slot Figure 19
    schedule over it whatever its kernel.  The log rides on the
    instance, so an atomic epoch's deep copy of the subORAM extends and
    installs it — making traces comparable across all backends and
    fault plans.
    """

    def __init__(self, encryption_key, num_slots, value_size):
        super().__init__(encryption_key, num_slots, value_size, "scalar")
        self.access_log = []

    def get(self, slot):
        """Log a read access, then delegate."""
        self.access_log.append(("R", slot))
        return super().get(slot)

    def put(self, slot, key, value):
        """Log a write access, then delegate."""
        self.access_log.append(("W", slot))
        super().put(slot, key, value)


class TracingSubOram(SubOram):
    """A subORAM whose encrypted store records its slot-access trace."""

    def initialize(self, objects):
        """Load the partition into a tracing store (log starts empty)."""
        super().initialize(objects)
        tracing = TracingStore(
            self._keychain.subkey(f"suboram/{self.suboram_id}/storage"),
            num_slots=self._store.num_slots,
            value_size=self.value_size,
        )
        for slot, key in enumerate(self._keys):
            tracing.put(slot, key, objects[key])
        tracing.access_log.clear()
        self._store = tracing


def matched_rows(responses, value_size: int = 1):
    """A balancer's matched rows (what ``match_responses`` returns) holding
    ``responses``, for resolving a ticket cut by hand."""
    from repro.oblivious.soa import Batch, values_to_matrix

    value, has_value = values_to_matrix(
        [r.value for r in responses], value_size
    )
    return Batch.filled(
        len(responses), value_size, value=value, has_value=has_value,
        key=[r.key for r in responses],
        client_id=[r.client_id for r in responses],
        seq=[r.seq for r in responses], permitted=[r.ok for r in responses],
    )


def tracing_factory(suboram_id, config, keychain):
    """suboram_factory building trace-recording subORAMs."""
    return TracingSubOram(
        suboram_id=suboram_id,
        value_size=config.value_size,
        keychain=keychain,
        security_parameter=config.security_parameter,
        kernel=config.kernel,
        crypto=config.crypto,
    )


def spy_on_store_passes(monkeypatch) -> List[tuple]:
    """Log ``(pass, id(store))`` for every whole-store ``get_batch`` /
    ``put_batch`` made in this process while the patch is in place."""
    calls: List[tuple] = []
    for name in ("get_batch", "put_batch"):
        inner = getattr(EncryptedStore, name)

        def spy(store, *args, _inner=inner, _name=name, **kwargs):
            calls.append((_name, id(store)))
            return _inner(store, *args, **kwargs)

        monkeypatch.setattr(EncryptedStore, name, spy)
    return calls


def access_traces(store) -> List[list]:
    """The per-subORAM slot-access logs of a tracing deployment."""
    return [list(s.store.access_log) for s in store.suborams]


def seeded_workload(
    num_epochs: int,
    per_epoch: int,
    seed: int,
    *,
    num_keys: int,
    value_size: int = 8,
    num_balancers: int = 2,
    value_offset: int = 0,
) -> List[List[Tuple[Request, int]]]:
    """A deterministic multi-epoch schedule of (request, balancer) pairs.

    Roughly half the requests are writes of ``bytes([i + value_offset]) *
    value_size`` (``i`` the within-epoch index), half reads, keys and
    balancers drawn from ``random.Random(seed)``.  Both historical test
    schedules are instances: equivalence used ``(3, 12, seed=99,
    num_keys=60)``, chaos used ``(10, 6, seed=7, num_keys=48,
    value_offset=1)``.
    """
    rng = random.Random(seed)
    epochs = []
    for _ in range(num_epochs):
        requests = []
        for i in range(per_epoch):
            key = rng.randrange(num_keys)
            balancer = rng.randrange(num_balancers)
            if rng.random() < 0.5:
                requests.append((
                    Request(
                        OpType.WRITE, key,
                        bytes([(i + value_offset) % 256]) * value_size,
                        seq=i,
                    ),
                    balancer,
                ))
            else:
                requests.append((Request(OpType.READ, key, seq=i), balancer))
        epochs.append(requests)
    return epochs


def workload_schedule(
    spec,
    num_epochs: int,
    per_epoch: int,
    seed: int,
    *,
    num_balancers: int = 2,
) -> List[List[Tuple[Request, int]]]:
    """A harness-shaped schedule drawn from a :mod:`repro.workloads` spec.

    ``spec`` is a :class:`repro.workloads.WorkloadSpec` or a CLI
    shorthand string (``"uniform"``, ``"zipf:1.2"``, ...).  The
    schedule comes from :func:`repro.workloads.generate_schedule`, so
    the shape/key RNG split holds: two specs differing only in key
    distribution yield schedules identical in ops, values, and balancer
    assignment for the same ``seed`` — the pair every skew differential
    feeds to :func:`differential_run`.
    """
    from repro.workloads import generate_schedule, parse_workload_spec

    if isinstance(spec, str):
        spec = parse_workload_spec(spec)
    return generate_schedule(
        spec, num_epochs, per_epoch, seed, num_balancers=num_balancers
    )


def build_store(
    backend: Optional[str] = None,
    *,
    master: bytes,
    objects: Dict[int, bytes],
    kernel: Optional[str] = None,
    crypto: Optional[str] = None,
    plan=None,
    replication=None,
    max_attempts: int = 1,
    suboram_factory=None,
    value_size: int = 8,
    num_load_balancers: int = 2,
    num_suborams: int = 3,
    security_parameter: int = 16,
    rng_seed: int = 5,
    telemetry=None,
) -> Snoopy:
    """One initialized deployment with fixed keys and a fixed client RNG.

    Identical arguments produce behaviourally identical deployments no
    matter the (backend, kernel, plan) cell — the property every
    differential test in this suite leans on.  An omitted backend,
    kernel or crypto is ``SnoopyConfig``'s default for that axis.
    The attested deployment is ``suboram_factory=cluster.factory`` over
    an :func:`attested_cluster`.
    """
    config = SnoopyConfig(
        num_load_balancers=num_load_balancers,
        num_suborams=num_suborams,
        value_size=value_size,
        security_parameter=security_parameter,
        execution_backend=backend,
        kernel=kernel,
        crypto=crypto,
        epoch_max_attempts=max_attempts,
        replication=replication,
        telemetry=telemetry,
    )
    store = Snoopy(
        config,
        keychain=KeyChain(master=master),
        rng=random.Random(rng_seed),
        fault_plan=plan,
        suboram_factory=suboram_factory,
    )
    store.initialize(objects)
    return store


#: The trust every :func:`attested_cluster` provisions its links with.
TEST_TRUST = ServeTrust(b"attested-test-cluster-secret-012")


@contextlib.contextmanager
def attested_cluster(
    num_workers: int = 3,
    *,
    value_size: int = 8,
    security_parameter: int = 16,
    kernel: Optional[str] = None,
    **cluster_kwargs,
):
    """A started loopback :class:`~repro.serve.workers.WorkerCluster` whose
    balancer↔worker links run the attested handshake under
    :data:`TEST_TRUST` — the sealed hop of §3.1 that attested tests
    drive through ``Snoopy(config, suboram_factory=cluster.factory)``.
    Stopped on exit."""
    with WorkerCluster(
        num_workers,
        value_size=value_size,
        security_parameter=security_parameter,
        kernel=kernel,
        trust=TEST_TRUST,
        **cluster_kwargs,
    ) as cluster:
        yield cluster.start()


def run_workload(
    store, epochs, *, pipelined: bool = False, pipeline_depth: Optional[int] = None
) -> Tuple[list, list]:
    """Drive the schedule; returns (responses per epoch, tickets).

    With ``pipelined=True`` the same schedule runs through the epoch
    pipeline instead of ``run_epoch``: one ``close_epoch()`` per
    schedule epoch (no wall-clock timer — tests stay deterministic),
    then ``flush()``.  Per-epoch response lists are rebuilt from the
    resolved tickets sorted by ``(load_balancer, arrival)``, which is
    exactly ``run_epoch``'s flattened balancer-then-arrival order — so
    pipelined and sequential runs are directly comparable.
    """
    if not pipelined:
        responses, tickets = [], []
        for requests in epochs:
            for request, balancer in requests:
                tickets.append(store.submit(request, load_balancer=balancer))
            responses.append(store.run_epoch())
        return responses, tickets

    pipeline = store.start_pipeline(depth=pipeline_depth, clock=False)
    epoch_tickets: List[list] = []
    try:
        for requests in epochs:
            batch = [
                store.submit(request, load_balancer=balancer)
                for request, balancer in requests
            ]
            epoch_tickets.append(batch)
            pipeline.close_epoch()
        pipeline.flush()
    finally:
        pipeline.stop()
    responses = [
        [
            ticket.result()
            for ticket in sorted(
                batch, key=lambda t: (t.load_balancer, t.arrival)
            )
        ]
        for batch in epoch_tickets
    ]
    tickets = [ticket for batch in epoch_tickets for ticket in batch]
    return responses, tickets


@dataclass
class RunResult:
    """Everything one matrix cell produced, ready for comparison.

    Attributes:
        backend: the execution-backend spec of this cell.
        kernel: the oblivious-kernel name of this cell.
        crypto: the store-crypto mode the cell's subORAMs ran
            (``"scalar"`` or ``"vector"``; see :func:`differential_run`).
        plan_name: the fault-plan label (``"fault-free"`` or a label the
            caller chose).
        responses: per-epoch response lists, in epoch order.
        results: every ticket's resolved response, in submission order.
        invariant_metrics: rendered-series -> value for
            :data:`INVARIANT_METRICS` (must match across all cells).
        public_metrics: the full public snapshot (counter/gauge values
            and histogram counts) of this cell's registry.
        fault_stats: the deployment's fault counters.
    """

    backend: str
    kernel: str
    crypto: str
    plan_name: str
    responses: list
    results: list
    invariant_metrics: Dict[str, float]
    public_metrics: Dict[str, float]
    fault_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str, str, str]:
        """The cell's (backend, kernel, crypto, plan_name) coordinate."""
        return (self.backend, self.kernel, self.crypto, self.plan_name)


def _invariant_subset(public: Dict[str, float]) -> Dict[str, float]:
    """The workload-invariant slice of a public metrics snapshot."""
    return {
        series: value
        for series, value in public.items()
        if series.split("{")[0].split("#")[0] in INVARIANT_METRICS
    }


def differential_run(
    workload,
    objects: Dict[int, bytes],
    *,
    master: bytes,
    backends: Sequence[str] = ("serial", "thread:4"),
    kernels: Sequence[str] = ("python", "numpy"),
    cryptos: Sequence[str] = ("vector",),
    fault_plans: Sequence[Tuple[str, object]] = (("fault-free", None),),
    replication=None,
    fault_max_attempts: int = 4,
    value_size: int = 8,
    pipelined: bool = False,
    pipeline_depth: Optional[int] = None,
    **build_kwargs,
) -> List[RunResult]:
    """Execute the configuration matrix over one workload.

    Each cell gets a fresh deployment (same master key, same client RNG
    seed, same objects) and a fresh :class:`~repro.telemetry.Telemetry`
    handle.  Fault-plan objects are built per cell by calling the given
    value when it is callable (each cell must consume its own injector
    cursor), or used as-is when it is a plain plan/None.  With
    ``pipelined=True`` every cell runs through the epoch pipeline (see
    :func:`run_workload`); cell results remain directly comparable to a
    sequential run's.

    Each cell records the store crypto its subORAMs actually ran
    (:func:`~repro.suboram.suboram.store_crypto`: the python kernel
    runs the scalar store), and a cell equal to an earlier one runs
    once.  Returns the cells in matrix order — plans outermost, then
    cryptos, then kernels, then backends — so ``results[0]`` is the
    fault-free reference cell when the axes keep their defaults, and
    the scalar (oracle-crypto) cells come first when
    ``cryptos=("scalar", "vector")``.
    """
    cells = {
        (plan_name, store_crypto(kernel, crypto), kernel, backend): plan_spec
        for plan_name, plan_spec in fault_plans
        for crypto in cryptos
        for kernel in kernels
        for backend in backends
    }
    results = []
    for (plan_name, crypto, kernel, backend), plan_spec in cells.items():
        plan = plan_spec() if callable(plan_spec) else plan_spec
        telemetry = Telemetry()
        store = build_store(
            backend,
            master=master,
            objects=dict(objects),
            kernel=kernel,
            crypto=crypto,
            plan=plan,
            replication=replication if plan is not None else None,
            max_attempts=fault_max_attempts if plan is not None else 1,
            value_size=value_size,
            telemetry=telemetry,
            **build_kwargs,
        )
        try:
            responses, tickets = run_workload(
                store,
                workload,
                pipelined=pipelined,
                pipeline_depth=pipeline_depth,
            )
            public = telemetry.registry.public_snapshot()
            results.append(RunResult(
                backend=backend,
                kernel=kernel,
                crypto=crypto,
                plan_name=plan_name,
                responses=responses,
                results=[ticket.result() for ticket in tickets],
                invariant_metrics=_invariant_subset(public),
                public_metrics=public,
                fault_stats=dict(store.fault_stats),
            ))
        finally:
            store.close()
    return results


def assert_equivalent(
    runs: Sequence[RunResult], reference: Optional[RunResult] = None
) -> None:
    """Every run must serve exactly what the reference run served.

    Asserts, for each cell against the reference (default: the first
    cell): byte-identical per-epoch responses, byte-identical resolved
    ticket results, and identical workload-invariant public metrics.
    """
    assert runs, "differential_run produced no cells"
    reference = reference if reference is not None else runs[0]
    for run in runs:
        assert run.responses == reference.responses, (
            f"{run.key}: responses diverge from {reference.key}"
        )
        assert run.results == reference.results, (
            f"{run.key}: ticket results diverge from {reference.key}"
        )
        assert run.invariant_metrics == reference.invariant_metrics, (
            f"{run.key}: invariant telemetry diverges from "
            f"{reference.key}: {run.invariant_metrics} != "
            f"{reference.invariant_metrics}"
        )


class _Counted:
    """A numpy callable that logs (name, ndarray operand shapes, dtypes)."""

    def __init__(self, fn, name, log):
        self._fn, self._name, self._log = fn, name, log

    def __call__(self, *args, **kwargs):
        operands = list(args) + list(kwargs.values())
        arrays = [a for a in operands if isinstance(a, numpy.ndarray)]
        self._log.append((
            self._name,
            tuple(a.shape for a in arrays),
            tuple(a.dtype.str for a in arrays),
        ))
        return self._fn(*args, **kwargs)

    def __getattr__(self, attr):
        return _Counted(
            getattr(self._fn, attr), f"{self._name}.{attr}", self._log
        )


class _CountingNumpy:
    """Thin shim standing in for the numpy module inside a module."""

    def __init__(self):
        self.log = []

    def __getattr__(self, name):
        attr = getattr(numpy, name)
        if isinstance(attr, type) or not callable(attr):
            return attr
        return _Counted(attr, name, self.log)


def array_ops(monkeypatch, module, call) -> List[tuple]:
    """The whole-array numpy calls ``module`` makes in one ``call()``,
    in order.  A first, unlogged call warms per-thread scratch and
    caches; only ``module.np`` is swapped, so operators (``@``, ``+``)
    and methods on arrays stay invisible to the log."""
    call()
    shim = _CountingNumpy()
    monkeypatch.setattr(module, "np", shim)
    call()
    monkeypatch.undo()
    return shim.log
