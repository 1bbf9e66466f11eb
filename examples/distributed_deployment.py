#!/usr/bin/env python3
"""A distributed-style deployment: attestation, encrypted transport, and
fault tolerance (§3.1, §9).

Shows the parts the in-process quickstart hides: enclaves attest to each
other before channels come up, every load-balancer <-> subORAM message is
AEAD-sealed with replay protection, and a replicated subORAM group
survives crashes and detects rollback attacks via a trusted counter.

Run:  python examples/distributed_deployment.py
"""

import random

from repro.core.config import SnoopyConfig
from repro.core.deployment import DistributedSnoopy
from repro.enclave.model import Enclave
from repro.errors import AttestationError, IntegrityError, RollbackError
from repro.extensions.replication import ReplicatedSubOram
from repro.oblivious.soa import Batch
from repro.types import OpType, Request


def main() -> None:
    # --- attested, encrypted deployment ---------------------------------
    # The thread backend runs the two subORAMs' sealed round trips
    # concurrently; the channels' replay counters stay in this process.
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=2,
        value_size=8,
        security_parameter=32,
        execution_backend="thread",
    )
    deployment = DistributedSnoopy(config, rng=random.Random(0))
    deployment.initialize({k: bytes([k]) * 8 for k in range(50)})
    print("deployment up: 2 load balancers + 2 subORAMs, channels "
          "established via remote attestation "
          f"(backend: {deployment.backend.name})")

    print("read(5) over encrypted transport ->", deployment.read(5))

    # submit() hands back a Ticket that resolves when the epoch closes.
    ticket = deployment.submit(Request(OpType.READ, 6))
    deployment.run_epoch()
    print("ticketed read(6) ->", ticket.result().value)

    # A rogue enclave (wrong measurement) cannot join.
    try:
        deployment._verify_peer(Enclave("evil-imposter"))
    except AttestationError as exc:
        print(f"rogue enclave rejected: {exc}")

    # A tampering network is detected, not served.
    def tamper(balancer, suboram, nonce, sealed):
        return nonce, sealed[:-1] + bytes([sealed[-1] ^ 1])

    deployment.network_hook = tamper
    try:
        deployment.read(5)
    except IntegrityError:
        print("in-network tampering detected by the AEAD channel")
    deployment.network_hook = lambda b, s, n, c: (n, c)

    # --- replicated subORAM group (§9) -----------------------------------
    print("\nreplicated subORAM: f=1 crash + r=1 rollback tolerance "
          "(3 replicas)")
    group = ReplicatedSubOram(
        suboram_id=0, value_size=4, crash_tolerance=1, rollback_tolerance=1
    )
    group.initialize({k: bytes([k]) * 4 for k in range(10)})

    snapshot = group.snapshot(0)  # what a malicious host might capture
    group.run_epoch(
        [Batch.from_requests([Request(OpType.WRITE, 3, b"v2!!")], 4)]
    )

    group.crash(1)
    group.rollback(0, snapshot)  # replica 0 serves stale state
    [reply] = group.run_epoch(
        [Batch.from_requests([Request(OpType.READ, 3)], 4)]
    )
    [resp] = reply.entries()
    assert resp.value == b"v2!!"
    print("crash + rollback survived: fresh replica's reply selected "
          f"(value {resp.value})")

    # Roll back *every* replica: the trusted counter refuses to serve.
    group.recover_from_peer(1)
    snapshots = [group.snapshot(i) for i in range(group.group_size)]
    group.run_epoch(
        [Batch.from_requests([Request(OpType.WRITE, 3, b"v3!!")], 4)]
    )
    for i, snap in enumerate(snapshots):
        group.rollback(i, snap)
    try:
        group.run_epoch([Batch.from_requests([Request(OpType.READ, 3)], 4)])
    except RollbackError as exc:
        print(f"full rollback detected: {exc}")


if __name__ == "__main__":
    main()
