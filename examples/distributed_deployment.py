#!/usr/bin/env python3
"""A distributed deployment: attestation, sealed links, and fault
tolerance (§3.1, §9).

Shows the parts the in-process quickstart hides: every subORAM runs in
its own worker process, the load balancers reach each one over a TCP
link that comes up only after both ends attest to each other, every
frame on that link is AEAD-sealed with replay protection, and a
replicated subORAM group survives crashes and detects rollback attacks
via a trusted counter.

Run:  python examples/distributed_deployment.py
"""

import random

from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.core.wire import Role
from repro.errors import AttestationError, IntegrityError, RollbackError
from repro.extensions.replication import ReplicatedSubOram
from repro.oblivious.soa import Batch
from repro.serve.secure import ServeTrust, connect_transport
from repro.serve.workers import WorkerCluster
from repro.types import OpType, Request


def main() -> None:
    # --- attested, sealed deployment -------------------------------------
    # One trust root provisions the balancer and every worker; the
    # thread backend runs the two workers' EPOCH round trips concurrently.
    trust = ServeTrust(b"example-deployment-trust-secret!")
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=2,
        value_size=8,
        security_parameter=32,
        execution_backend="thread",
    )
    with WorkerCluster(
        2, value_size=8, security_parameter=32, trust=trust
    ) as cluster, Snoopy(
        config, rng=random.Random(0), suboram_factory=cluster.factory
    ) as deployment:
        cluster.start()
        deployment.initialize({k: bytes([k]) * 8 for k in range(50)})
        print("deployment up: 2 load balancers + 2 subORAM worker "
              "processes, links established via remote attestation "
              f"(backend: {deployment.backend.name})")

        print("read(5) over the sealed worker links ->", deployment.read(5))

        # submit() hands back a Ticket that resolves when the epoch closes.
        ticket = deployment.submit(Request(OpType.READ, 6))
        deployment.run_epoch()
        print("ticketed read(6) ->", ticket.result().value)

        # A tampering network is detected, not served: flip one bit of
        # every sealed record worker 0 sends back.
        channel = cluster._transports[0]._pair.rx
        receive = channel.receive
        channel.receive = lambda nonce, sealed: receive(
            nonce, sealed[:-1] + bytes([sealed[-1] ^ 1])
        )
        try:
            deployment.read(5)
        except IntegrityError:
            print("in-network tampering detected by the sealed link")
        del channel.receive

        # A balancer provisioned with another trust root cannot open a
        # worker link.  (A worker serves one balancer link at a time, so
        # the real one steps aside and re-dials on its next epoch.)
        rogue = ServeTrust(b"an-attacker-provisioned-secret!!")
        cluster._close_channel(0)
        try:
            connect_transport(
                "127.0.0.1", cluster._ports[0],
                role=Role.BALANCER,
                trust=rogue,
                enclave=rogue.enclave(Role.BALANCER),
                expected_roles=(Role.WORKER,),
                link_name="worker-0",
                timeout=10,
            )
        except AttestationError as exc:
            print(f"rogue balancer refused: {exc}")
        print("read(7) after both attacks ->", deployment.read(7))

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
