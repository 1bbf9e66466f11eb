"""The benchmark's server process: one pinned deployment behind TCP.

``run.py`` spawns this file once per launch::

    python bench/server_main.py --workload batch_rw [--trace OUT.jsonl]

It builds the workload's deployment with the pinned config of
``config.py``, starts the attested :class:`~repro.serve.server.SnoopyServer`
on a free loopback port, prints ``{"port": ..., "pid": ...}`` as one JSON
line on stdout, serves until its stdin reaches end-of-file
(so it can never outlive the benchmark), drains gracefully, prints one
JSON line of public counters, and exits.  With ``--trace`` the layers'
public callables are wrapped by ``tracing.install`` first and the spans
are written to the given file at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import config  # noqa: E402  (bench/config.py)


def build_store(workload: config.Workload):
    """The workload's deployment, initialised with ``initial_value``."""
    from repro.core.config import SnoopyConfig
    from repro.core.snoopy import Snoopy

    pinned = config.PINNED
    store = Snoopy(
        SnoopyConfig(
            num_load_balancers=workload.load_balancers,
            num_suborams=workload.suborams,
            value_size=workload.value_size,
            security_parameter=pinned["security_parameter"],
            epoch_duration=pinned["epoch_duration"],
            pipeline_depth=pinned["pipeline_depth"],
            execution_backend=pinned["execution_backend"],
            kernel=pinned["kernel"],
            crypto=pinned["crypto"],
        ),
        rng=random.Random(pinned["store_seed"]),
    )
    store.initialize({
        key: config.initial_value(key, workload.value_size)
        for key in range(workload.num_objects)
    })
    return store


async def serve(workload: config.Workload, tracer, trace_path) -> dict:
    """Serve until stdin closes; returns the public counters."""
    from repro.serve.secure import ServeTrust
    from repro.serve.server import SnoopyServer

    pinned = config.PINNED
    store = build_store(workload)
    server = SnoopyServer(
        store,
        clock=pinned["clock"],
        epoch_duration=pinned["epoch_duration"],
        pipeline_depth=pinned["pipeline_depth"],
        max_pending_per_connection=pinned["max_pending_per_connection"],
        attested=pinned["attested"],
        trust=ServeTrust(config.TRUST_SECRET),
    )
    await server.start()
    # (completion time, epoch, requests resolved)
    epochs = []
    server.pipeline.add_epoch_observer(
        lambda epoch, resolved, _latency_s: epochs.append(
            [time.perf_counter(), epoch, resolved]
        )
    )
    print(json.dumps({"port": server.port, "pid": os.getpid()}), flush=True)
    try:
        # The benchmark closes our stdin to ask for a graceful stop; a
        # dead benchmark closes it too.
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.buffer.read
        )
    finally:
        await server.aclose()
        store.close()
    report = {
        "server": dict(server.stats),
        "pipeline": server.pipeline.stats,
        "faults": dict(store.fault_stats),
        "epochs": epochs,
    }
    if tracer is not None:
        report["spans"] = tracer.dump(trace_path)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(config.WORKLOADS)
    )
    parser.add_argument("--trace", metavar="FILE", default=None)
    args = parser.parse_args()
    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    report = asyncio.run(
        serve(config.WORKLOADS[args.workload], tracer, args.trace)
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
