"""Snoopy reproduction: a scalable oblivious object store in Python.

This library reproduces *Snoopy: Surpassing the Scalability Bottleneck of
Oblivious Storage* (Dauterman, Fang, Demertzis, Crooks, Popa — SOSP 2021):

* the functional system — oblivious load balancers, batch-scan subORAMs,
  the assembled store with linearizable semantics (:mod:`repro.core`);
* its oblivious building blocks — compare-and-set, bitonic sort,
  Goodrich compaction, two-tier oblivious hash tables
  (:mod:`repro.oblivious`);
* the analysis — the Lambert-W batch-size bound (:mod:`repro.analysis`);
* the evaluated baselines — Path/Ring ORAM, Obladi, Oblix, plaintext
  (:mod:`repro.baselines`);
* performance simulation and the planner (:mod:`repro.sim`,
  :mod:`repro.planner`);
* the motivating applications (:mod:`repro.apps`).

Quickstart::

    from repro import Snoopy, SnoopyConfig, Request, OpType

    store = Snoopy(SnoopyConfig(num_load_balancers=2, num_suborams=3,
                                value_size=16))
    store.initialize({key: bytes(16) for key in range(1000)})
    ticket = store.submit(Request(OpType.WRITE, 42, b"hello snoopy 42!"))
    store.run_epoch()
    response = ticket.result()
"""

from repro.types import OpType, Request, Response
from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.core.client import Client, SnoopyClient
from repro.core.faults import FaultEvent, FaultInjector, FaultPlan
from repro.core.resilience import EpochRetryController
from repro.core.pipeline import EpochPipeline
from repro.core.tickets import Ticket
from repro.core.access_control import AccessControlledStore
from repro.errors import (
    CapacityError,
    EpochFailedError,
    FaultError,
    NotInitializedError,
    ReproError,
    TaskTimeoutError,
    TicketPendingError,
    TransportError,
    WorkerCrashError,
)
from repro.exec import (
    ExecutionBackend,
    SerialBackend,
    ThreadPoolBackend,
    make_backend,
)
from repro.planner.planner import Plan, Planner

__version__ = "1.0.0"

__all__ = [
    "AccessControlledStore",
    "CapacityError",
    "Client",
    "EpochFailedError",
    "EpochPipeline",
    "EpochRetryController",
    "ExecutionBackend",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "NotInitializedError",
    "OpType",
    "Plan",
    "Planner",
    "ReproError",
    "Request",
    "Response",
    "SerialBackend",
    "Snoopy",
    "SnoopyClient",
    "SnoopyConfig",
    "TaskTimeoutError",
    "ThreadPoolBackend",
    "Ticket",
    "TicketPendingError",
    "TransportError",
    "WorkerCrashError",
    "make_backend",
    "__version__",
]
