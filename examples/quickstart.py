#!/usr/bin/env python3
"""Quickstart: stand up a Snoopy deployment and issue oblivious reads/writes.

Run:  python examples/quickstart.py
"""

import random

from repro import Client, OpType, Request, Snoopy, SnoopyConfig


def main() -> None:
    # A deployment with 2 load balancers and 3 subORAMs (5 "machines").
    # security_parameter=32 keeps the dummy padding small for a demo;
    # production would use 128 (the library default).
    # execution_backend picks how epoch stages run: "serial" (reference)
    # or "thread[:N]" (overlap blocking work).
    # kernel picks how each oblivious schedule executes: "python" (the
    # traced scalar reference) or "numpy" (vectorized structure-of-arrays
    # passes over the same schedule).  Results are byte-identical across
    # backends and kernels.
    config = SnoopyConfig(
        num_load_balancers=2,
        num_suborams=3,
        value_size=16,
        security_parameter=32,
        execution_backend="thread:4",
        kernel="numpy",
    )
    store = Snoopy(config, rng=random.Random(0))

    # Load 1,000 objects. Initialization shards them across subORAMs by a
    # keyed hash the cloud never sees.
    store.initialize({key: f"value-{key:06d}".ljust(16).encode() for key in range(1000)})
    print(f"initialized {store.num_objects} objects across "
          f"{config.num_suborams} subORAMs "
          f"(backend: {store.backend.name}, kernel: {config.kernel})")

    # Single-request epochs.
    print("read(7)      ->", store.read(7))
    prior = store.write(7, b"overwritten!!!!!")
    print("write(7)     -> prior value", prior)
    print("read(7)      ->", store.read(7))

    # The asynchronous front door: submit() returns a Ticket immediately;
    # the response exists once the epoch closes.
    ticket = store.submit(Request(OpType.READ, 9))
    print("submitted    ->", ticket)
    store.run_epoch()
    print("resolved     ->", ticket.result().value)

    # A realistic epoch: many clients, duplicate keys, mixed ops.  The
    # load balancer deduplicates, pads each subORAM batch to the same
    # public size f(R, S), and matches responses back.
    requests = []
    for i in range(20):
        key = [3, 3, 3, 5, 9][i % 5]  # heavily skewed on purpose
        if i % 4 == 0:
            requests.append(Request(OpType.WRITE, key, b"x" * 16, seq=i))
        else:
            requests.append(Request(OpType.READ, key, seq=i))
    responses = store.batch(requests)
    print(f"batch of {len(requests)} skewed requests -> "
          f"{len(responses)} responses, all served")

    # The Client wrapper tracks sequence numbers and builds histories for
    # the linearizability checker.
    client = Client(store)
    client.write(42, b"hello snoopy 42!")
    print("client.read(42) ->", client.read(42))
    print(f"client history: {len(client.history)} completed operations")

    print(f"epochs executed: {store.counter.value} "
          "(one trusted-counter bump each)")
    store.close()  # release the thread pool


if __name__ == "__main__":
    main()
