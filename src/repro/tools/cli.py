"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan``    — run the §6 planner for a throughput/latency/data-size SLO.
* ``figures`` — print the modelled series behind the paper's figures.
* ``demo``    — stand up a tiny in-process deployment and exercise it.
* ``serve``   — expose a deployment over TCP (the network front door).
* ``loadgen`` — drive a running server and report throughput/latency.
* ``chaos-net`` — the deterministic network-chaos soak (differential
  robustness check over the attested stack; exit 1 on mismatch).
* ``tune``    — record or load a workload trace and sweep configurations
  against it; emits the best config as JSON (``--verify`` re-replays an
  emitted config and checks the measurement reproduces).
* ``info``    — library version and default cost-model constants.

``serve`` and ``loadgen`` follow the machine-readable convention:
structured results are JSON on **stdout**, human progress goes to
**stderr**, so ``python -m repro loadgen ... > stats.json`` just works.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro import __version__
from repro.core.config import SnoopyConfig
from repro.core.snoopy import Snoopy
from repro.planner.planner import Planner
from repro.sim.cluster import (
    epoch_wallclock_series,
    latency_vs_suborams,
    snoopy_oblix_best_split,
    throughput_scaling_series,
)
from repro.sim.costmodel import obladi_throughput, oblix_throughput
from repro.sim.machines import DEFAULT_PROFILE
from repro.analysis.overhead import capacity_curve, dummy_overhead_percent
from repro.tools.ascii import bar_chart, series_table
from repro.types import OpType, Request


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snoopy (SOSP 2021) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run the configuration planner (§6)")
    plan.add_argument("--spec", type=str, default=None,
                      help="JSON spec file with an 'slo' section "
                           "(overridden by explicit flags)")
    plan.add_argument("--objects", type=int, default=None,
                      help="number of stored objects")
    plan.add_argument("--throughput", type=float, default=None,
                      help="minimum sustained requests/second")
    plan.add_argument("--latency", type=float, default=1.0,
                      help="maximum mean latency in seconds (default 1.0)")
    plan.add_argument("--object-size", type=int, default=160)
    plan.add_argument("--budget", type=float, default=None,
                      help="monthly budget; switches to latency-minimizing "
                           "mode (§6 extension)")

    figures = sub.add_parser(
        "figures", help="print modelled series for the paper's figures"
    )
    figures.add_argument(
        "which",
        choices=["fig3", "fig4", "fig9a", "fig10", "fig11b", "fig13", "all"],
        nargs="?",
        default="all",
    )
    figures.add_argument("--objects", type=int, default=2_000_000)

    demo = sub.add_parser("demo", help="run a tiny live deployment")
    demo.add_argument("--balancers", type=int, default=2)
    demo.add_argument("--suborams", type=int, default=3)
    demo.add_argument("--objects", type=int, default=500)
    demo.add_argument("--requests", type=int, default=40)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--backend", type=str, default=None,
                      help="execution backend spec: serial or thread[:N] "
                           "(default: SnoopyConfig's)")
    demo.add_argument("--workers", type=int, default=None,
                      help="thread-pool size for the thread backend")
    demo.add_argument("--kernel", type=str, default=None,
                      choices=["python", "numpy"],
                      help="oblivious-kernel implementation: the traced "
                           "scalar reference or the vectorized NumPy "
                           "fast path (default: SnoopyConfig's)")
    demo.add_argument("--epochs", type=int, default=1,
                      help="number of epochs to spread the requests over "
                           "(default 1)")
    demo.add_argument("--pipelined", action="store_true",
                      help="let epochs overlap (build/execute/match of "
                           "consecutive epochs; depth 1 otherwise) and "
                           "print the stage-occupancy table")
    demo.add_argument("--pipeline-depth", type=int, default=None,
                      metavar="N",
                      help="max in-flight epochs for --pipelined "
                           "(default: config pipeline_depth, 2)")
    demo.add_argument("--faults", type=int, default=None, metavar="SEED",
                      help="inject a deterministic FaultPlan generated "
                           "from SEED (worker crashes and task timeouts); "
                           "epochs are retried atomically and fault_stats "
                           "printed at the end")
    demo.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                      help="write the final metrics registry to PATH in "
                           "the Prometheus text exposition format")
    demo.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                      help="append the metrics and finished trace-span "
                           "trees to PATH as JSON lines")

    serve = sub.add_parser(
        "serve", help="serve a deployment over TCP (asyncio front door)"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default 0: pick a free port, "
                            "reported in the startup JSON line)")
    serve.add_argument("--balancers", type=int, default=2)
    serve.add_argument("--suborams", type=int, default=2)
    serve.add_argument("--objects", type=int, default=1000)
    serve.add_argument("--value-size", type=int, default=16)
    serve.add_argument("--backend", type=str, default=None,
                       help="execution backend spec: serial or thread[:N] "
                            "(default: SnoopyConfig's; the server "
                            "needs a shared-state backend)")
    serve.add_argument("--kernel", type=str, default=None,
                       choices=["python", "numpy"])
    serve.add_argument("--epoch-duration", type=float, default=0.01,
                       metavar="SECONDS",
                       help="epoch clock period (default 0.01)")
    serve.add_argument("--pipeline-depth", type=int, default=None)
    serve.add_argument("--manual-epochs", action="store_true",
                       help="disable the epoch clock; epochs close only "
                            "on client CLOSE_EPOCH admin frames "
                            "(deterministic mode)")
    serve.add_argument("--max-pending", type=int, default=1024,
                       metavar="N",
                       help="per-connection open-ticket backpressure "
                            "window (default 1024)")
    serve.add_argument("--worker-processes", action="store_true",
                       help="run each subORAM in its own OS process "
                            "behind the wire protocol (the paper's "
                            "deployment boundary) instead of in-process")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="epoch attempts with --worker-processes "
                            "(>1 enables atomic epoch retry)")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="serve for a fixed time then exit "
                            "(default: until interrupted)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--trust-secret", type=str,
                       default="snoopy-dev-trust", metavar="SECRET",
                       help="shared deployment trust secret (>= 16 "
                            "chars) for the attested handshake and "
                            "sealed channels; clients must present the "
                            "same secret (default: a well-known dev "
                            "secret — override it for anything real)")
    serve.add_argument("--plaintext", action="store_true",
                       help="disable channel attestation and sealing "
                            "(benchmark baselines only; attested "
                            "clients will refuse to connect)")

    loadgen = sub.add_parser(
        "loadgen", help="drive a running server over TCP and report stats"
    )
    loadgen.add_argument("--host", type=str, default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--requests", type=int, default=10_000)
    loadgen.add_argument("--connections", type=int, default=4)
    loadgen.add_argument("--window", type=int, default=256,
                         help="open requests kept in flight per "
                              "connection (default 256)")
    loadgen.add_argument("--keys", type=int, default=1000,
                         help="keyspace size requests draw from")
    loadgen.add_argument("--write-fraction", type=float, default=0.5)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--workload", type=str, default=None,
                         metavar="SPEC",
                         help="drive a seeded repro.workloads generator "
                              "instead of the inline uniform stream: "
                              "uniform, zipf[:s], tenant[:NxK], or a "
                              "WorkloadSpec JSON path")
    loadgen.add_argument("--trace-in", type=str, default=None,
                         metavar="PATH",
                         help="replay a recorded trace file over the "
                              "wire (overrides --requests/--workload)")
    loadgen.add_argument("--trace-out", type=str, default=None,
                         metavar="PATH",
                         help="record every request sent (with "
                              "client-side timestamps) as a replayable "
                              "trace file at PATH")
    loadgen.add_argument("--out", type=str, default=None, metavar="PATH",
                         help="also write the JSON stats to PATH")
    loadgen.add_argument("--trust-secret", type=str,
                         default="snoopy-dev-trust", metavar="SECRET",
                         help="trust secret matching the server's "
                              "(attested sealed channels; the default "
                              "matches serve's default)")
    loadgen.add_argument("--plaintext", action="store_true",
                         help="connect without attestation (the server "
                              "must also run --plaintext)")

    chaos = sub.add_parser(
        "chaos-net",
        help="run the deterministic network-chaos soak and report "
             "whether the chaotic run matched the fault-free oracle",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--epochs", type=int, default=12)
    chaos.add_argument("--requests-per-epoch", type=int, default=8)
    chaos.add_argument("--objects", type=int, default=96)
    chaos.add_argument("--balancers", type=int, default=2)
    chaos.add_argument("--suborams", type=int, default=2)
    chaos.add_argument("--intensity", type=int, default=1,
                       help="scheduled events per fault kind per link "
                            "(default 1)")
    chaos.add_argument("--worker-processes", action="store_true",
                       help="also run subORAMs out of process and "
                            "inject faults on the balancer-worker links")
    chaos.add_argument("--kernel", type=str, default=None,
                       choices=["python", "numpy"])
    chaos.add_argument("--timeout", type=float, default=60.0,
                       help="client/admin timeout in seconds")
    chaos.add_argument("--out", type=str, default=None, metavar="PATH",
                       help="also write the JSON report to PATH")

    tune = sub.add_parser(
        "tune",
        help="sweep configurations against a workload trace and emit "
             "the best one as JSON",
    )
    tune.add_argument("--trace", type=str, default=None, metavar="PATH",
                      help="tune against this recorded trace file "
                           "(default: record a synthetic trace from "
                           "--workload first)")
    tune.add_argument("--workload", type=str, default="zipf:1.1",
                      metavar="SPEC",
                      help="workload shorthand used when no --trace is "
                           "given: uniform, zipf[:s], tenant[:NxK], or "
                           "a WorkloadSpec JSON path (default zipf:1.1)")
    tune.add_argument("--arrival", type=str, default="poisson",
                      choices=["poisson", "bursty", "diurnal",
                               "flash_crowd"],
                      help="arrival process for the synthetic trace "
                           "(default poisson)")
    tune.add_argument("--rate", type=float, default=2000.0,
                      help="mean arrival rate for the synthetic trace "
                           "(default 2000 req/s)")
    tune.add_argument("--requests", type=int, default=400,
                      help="synthetic trace length (default 400)")
    tune.add_argument("--keys", type=int, default=512,
                      help="key-space size for --workload (default 512)")
    tune.add_argument("--write-fraction", type=float, default=0.5)
    tune.add_argument("--value-size", type=int, default=32)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--balancers", type=int, default=1)
    tune.add_argument("--suborams", type=int, default=2)
    tune.add_argument("--epoch-durations", type=str, default=None,
                      metavar="LIST",
                      help="comma-separated sweep axis, e.g. 0.05,0.1,0.2")
    tune.add_argument("--backends", type=str, default=None, metavar="LIST",
                      help="comma-separated backend specs, e.g. "
                           "serial,thread:4")
    tune.add_argument("--no-measure", action="store_true",
                      help="model-based selection only; skip the replay "
                           "measurement (fully deterministic output)")
    tune.add_argument("--repeats", type=int, default=2,
                      help="replay repeats per measurement (best-of; "
                           "default 2)")
    tune.add_argument("--verify", action="store_true",
                      help="after tuning, re-replay the emitted config "
                           "and exit 1 unless the measured throughput "
                           "reproduces within 10%%")
    tune.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                      help="also write the (synthetic) trace used for "
                           "tuning to PATH")
    tune.add_argument("--out", type=str, default=None, metavar="PATH",
                      help="write the best-config JSON to PATH (stdout "
                           "always gets the full report)")
    tune.add_argument("--report-out", type=str, default=None,
                      metavar="PATH",
                      help="also write the full report JSON to PATH")

    sub.add_parser("info", help="version and cost-model constants")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def cmd_plan(args) -> int:
    """``plan``: run the planner for an SLO."""
    if args.spec is not None:
        from repro.tools.config_file import load_spec

        _, slo = load_spec(args.spec)
        if args.objects is None:
            args.objects = slo.get("num_objects")
        if args.throughput is None:
            args.throughput = slo.get("min_throughput")
        args.latency = slo.get("max_latency", args.latency)
        args.object_size = slo.get("object_size", args.object_size)
        if args.budget is None:
            args.budget = slo.get("max_monthly_cost")
    if args.objects is None or args.throughput is None:
        raise SystemExit("plan requires --objects and --throughput "
                         "(directly or via --spec)")
    planner = Planner(args.objects, object_size=args.object_size)
    if args.budget is not None:
        plan = planner.plan_min_latency(args.throughput, args.budget)
        mode = f"min-latency within ${args.budget:,.0f}/month"
    else:
        plan = planner.plan(args.throughput, args.latency)
        mode = f"min-cost at <= {args.latency * 1e3:.0f} ms"
    print(f"planner ({mode}) for {args.objects:,} objects:")
    print(f"  load balancers : {plan.num_load_balancers}")
    print(f"  subORAMs       : {plan.num_suborams}")
    print(f"  monthly cost   : ${plan.monthly_cost:,.0f}")
    print(f"  predicted      : {plan.predicted_throughput:,.0f} reqs/s "
          f"@ {plan.predicted_latency * 1e3:.0f} ms mean")
    return 0


def cmd_figures(args) -> int:
    """``figures``: print modelled figure series."""
    which = args.which
    if which in ("fig3", "all"):
        print("== Fig 3: dummy overhead % (lambda=128) ==")
        rows = [
            (r, *(round(dummy_overhead_percent(r, s), 1) for s in (2, 10, 20)))
            for r in (1000, 2000, 5000, 10_000)
        ]
        print(series_table(["R", "S=2", "S=10", "S=20"], rows))
        print()
    if which in ("fig4", "all"):
        print("== Fig 4: real request capacity (1K/subORAM budget) ==")
        curves = capacity_curve(20)
        rows = [
            (s, curves[0][s - 1], curves[80][s - 1], curves[128][s - 1])
            for s in (1, 5, 10, 20)
        ]
        print(series_table(["S", "lambda=0", "lambda=80", "lambda=128"], rows))
        print()
    if which in ("fig9a", "all"):
        print(f"== Fig 9a: throughput vs machines ({args.objects:,} objects, "
              "500 ms) ==")
        series = throughput_scaling_series(
            list(range(4, 19, 2)), args.objects, [0.5]
        )
        print(
            bar_chart(
                [(f"{m} machines", x) for m, _, _, x in series[0.5]],
                unit=" reqs/s",
            )
        )
        print(f"Obladi: {obladi_throughput(args.objects):,.0f}  "
              f"Oblix: {oblix_throughput(args.objects):,.0f}")
        print()
    if which in ("fig10", "all"):
        print("== Fig 10: Snoopy-Oblix hybrid (500 ms) ==")
        rows = []
        for machines in (5, 9, 13, 17):
            balancers, suborams, x = snoopy_oblix_best_split(
                machines, args.objects, 0.5
            )
            rows.append((f"{machines} machines (L={balancers},S={suborams})", x))
        print(bar_chart(rows, unit=" reqs/s"))
        print()
    if which in ("fig11b", "all"):
        print(f"== Fig 11b: latency vs subORAMs ({args.objects:,} objects) ==")
        rows = [
            (f"S={s}", latency * 1e3)
            for s, latency in latency_vs_suborams([1, 5, 10, 15], args.objects)
        ]
        print(bar_chart(rows, unit=" ms"))
        print()
    if which in ("fig13", "all"):
        print("== Fig 13 (engine): measured epoch wall-clock per backend ==")
        series = epoch_wallclock_series(["serial", "thread"])
        rows = [(spec, seconds * 1e3) for spec, seconds in series.items()]
        print(bar_chart(rows, unit=" ms"))
        speedup = series["serial"] / max(series["thread"], 1e-9)
        print(f"thread-backend speedup over serial: {speedup:.1f}x")
        print()
    return 0


def cmd_demo(args) -> int:
    """``demo``: run a tiny in-process deployment."""
    from repro.core.faults import FaultPlan
    from repro.telemetry import Telemetry, stage_breakdown
    from repro.telemetry.sinks import JsonLinesSink, PrometheusTextSink

    rng = random.Random(args.seed)
    fault_plan = None
    if args.faults is not None:
        fault_plan = FaultPlan.generate(
            seed=args.faults,
            epochs=args.epochs,
            num_suborams=args.suborams,
        )
    telemetry = Telemetry()
    if args.metrics_out is not None:
        telemetry.add_sink(PrometheusTextSink(args.metrics_out))
    if args.trace_out is not None:
        telemetry.add_sink(JsonLinesSink(args.trace_out))
    config = SnoopyConfig(
        num_load_balancers=args.balancers,
        num_suborams=args.suborams,
        value_size=16,
        security_parameter=32,
        execution_backend=args.backend,
        max_workers=args.workers,
        kernel=args.kernel,
        epoch_max_attempts=4 if fault_plan is not None else 1,
        telemetry=telemetry,
    )
    with Snoopy(config, rng=random.Random(args.seed),
                fault_plan=fault_plan) as store:
        store.initialize({k: bytes(16) for k in range(args.objects)})
        print(f"deployment: {args.balancers} LB + {args.suborams} subORAMs, "
              f"{store.num_objects} objects "
              f"(partitions {store.partition_sizes}, "
              f"backend {store.backend.name}, kernel {config.kernel})")
        if fault_plan is not None:
            print(f"fault plan (seed {args.faults}): "
                  f"{len(fault_plan)} scheduled events over "
                  f"{args.epochs} epochs")

        requests = []
        for i in range(args.requests):
            key = rng.randrange(args.objects)
            if rng.random() < 0.5:
                requests.append(
                    Request(OpType.WRITE, key, bytes([i % 256]) * 16, seq=i)
                )
            else:
                requests.append(Request(OpType.READ, key, seq=i))
        epochs = max(1, args.epochs)
        per_epoch = (len(requests) + epochs - 1) // epochs
        tickets = []
        with store.start_pipeline(
            depth=args.pipeline_depth if args.pipelined else 1, clock=False
        ) as pipeline:
            for start in range(0, len(requests), per_epoch):
                for request in requests[start:start + per_epoch]:
                    tickets.append(store.submit(request))
                pipeline.close_epoch()
            pipeline.flush()
        responses = [ticket.result() for ticket in tickets]
        reads = sum(1 for r in requests if r.op is OpType.READ)
        print(f"{epochs} epoch(s) served {len(responses)} requests "
              f"({reads} reads, {len(requests) - reads} writes)")
        print(f"trusted counter: {store.counter.value}")
        if args.pipelined:
            stats = pipeline.stats
            print(f"pipeline: depth {stats['depth']}, "
                  f"{stats['epochs_completed']} epochs completed, "
                  f"max {stats['max_inflight']} in flight, "
                  f"build/execute overlap "
                  f"{pipeline.overlap() * 1e3:.1f} ms")
            print("pipeline stage occupancy:")
            occupancy_rows = [
                (row["stage"], int(row["count"]), row["busy_s"] * 1e3,
                 row["span_s"] * 1e3, f"{row['occupancy']:.0%}")
                for row in pipeline.occupancy()
            ]
            print(series_table(
                ["stage", "epochs", "busy ms", "span ms", "occupancy"],
                occupancy_rows,
            ))
        if fault_plan is not None:
            print("fault_stats:")
            for name, count in sorted(store.fault_stats.items()):
                print(f"  {name:20s}: {count}")

        print("epoch-stage breakdown:")
        rows = [
            (row["stage"], row["count"], row["mean_s"] * 1e3,
             row["p95_s"] * 1e3, row["total_s"] * 1e3)
            for row in stage_breakdown(telemetry.registry)
        ]
        print(series_table(
            ["stage", "epochs", "mean ms", "p95 ms", "total ms"], rows
        ))
    telemetry.flush()
    if args.metrics_out is not None:
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out is not None:
        print(f"trace written to {args.trace_out}")
    return 0


def cmd_serve(args) -> int:
    """``serve``: host a deployment behind the TCP front door.

    Emits one JSON line to stdout when listening (machine-readable:
    ``{"event": "listening", "port": ...}``) and progress to stderr;
    serves until interrupted or ``--duration`` elapses.
    """
    import asyncio
    import contextlib
    import json

    from repro.serve import SnoopyServer, WorkerCluster
    from repro.serve.secure import ServeTrust

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    trust = None
    if not args.plaintext:
        trust = ServeTrust(args.trust_secret.encode("utf-8"))
    config = SnoopyConfig(
        num_load_balancers=args.balancers,
        num_suborams=args.suborams,
        value_size=args.value_size,
        security_parameter=32,
        execution_backend=args.backend,
        kernel=args.kernel,
        epoch_max_attempts=args.retries,
    )
    with contextlib.ExitStack() as stack:
        factory = None
        if args.worker_processes:
            # Built from the same config as the front end, so workers
            # cannot serve a different kernel/crypto path than it names.
            cluster = stack.enter_context(WorkerCluster(
                config.num_suborams,
                value_size=config.value_size,
                security_parameter=config.security_parameter,
                kernel=config.kernel,
                crypto=config.crypto,
                trust=trust,
            ))
            cluster.start()
            factory = cluster.factory
            log(f"spawned {args.suborams} subORAM worker processes "
                + ("(attested links)" if trust is not None
                   else "(plaintext links)"))
        store = stack.enter_context(Snoopy(
            config, rng=random.Random(args.seed), suboram_factory=factory,
        ))
        store.initialize(
            {k: bytes(args.value_size) for k in range(args.objects)}
        )
        log(f"deployment: {args.balancers} LB + {args.suborams} subORAMs, "
            f"{store.num_objects} objects, backend {store.backend.name}, "
            f"kernel {config.kernel}")

        async def _serve() -> None:
            server = SnoopyServer(
                store,
                args.host,
                args.port,
                clock=not args.manual_epochs,
                epoch_duration=args.epoch_duration,
                pipeline_depth=args.pipeline_depth,
                max_pending_per_connection=args.max_pending,
                attested=trust is not None,
                trust=trust,
            )
            await server.start()
            print(json.dumps({
                "event": "listening",
                "host": args.host,
                "port": server.port,
                "attested": trust is not None,
                "value_size": args.value_size,
                "num_load_balancers": args.balancers,
                "num_suborams": args.suborams,
                "kernel": config.kernel,
                "crypto": config.crypto,
                "backend": store.backend.name,
                "epoch_duration_s": (
                    None if args.manual_epochs else args.epoch_duration
                ),
            }), flush=True)
            try:
                if args.duration is not None:
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            server.serve_forever(), timeout=args.duration
                        )
                else:
                    await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.aclose()
                log(f"served {server.stats['responses']} responses over "
                    f"{server.stats['connections']} connections, "
                    f"{server.stats['epochs']} epochs")

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            log("interrupted; shut down cleanly")
    return 0


def cmd_loadgen(args) -> int:
    """``loadgen``: drive a running server, print JSON stats to stdout."""
    import json

    from repro.serve import run_loadgen

    trust = None
    if not args.plaintext:
        trust = args.trust_secret.encode("utf-8")
    print(f"loadgen: {args.requests} requests over {args.connections} "
          f"connections (window {args.window}, "
          f"{'attested' if trust is not None else 'plaintext'}) against "
          f"{args.host}:{args.port}", file=sys.stderr, flush=True)
    stats = run_loadgen(
        args.host,
        args.port,
        requests=args.requests,
        connections=args.connections,
        window=args.window,
        num_keys=args.keys,
        write_fraction=args.write_fraction,
        seed=args.seed,
        trust=trust,
        workload=args.workload,
        trace_in=args.trace_in,
        trace_out=args.trace_out,
    )
    rendered = json.dumps(stats, indent=2, sort_keys=True)
    print(rendered)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(f"stats written to {args.out}", file=sys.stderr)
    return 0


def cmd_chaos_net(args) -> int:
    """``chaos-net``: deterministic network-chaos soak, JSON verdict.

    Exit code 0 when the chaos-soaked attested run matched the
    fault-free oracle byte-for-byte *and* every scheduled fault fired
    exactly once; 1 otherwise.
    """
    import json

    from repro.serve.chaos import run_network_soak

    print(f"chaos-net: seed {args.seed}, {args.epochs} epochs x "
          f"{args.requests_per_epoch} requests, intensity "
          f"{args.intensity}"
          + (", worker processes" if args.worker_processes else ""),
          file=sys.stderr, flush=True)
    report = run_network_soak(
        seed=args.seed,
        epochs=args.epochs,
        requests_per_epoch=args.requests_per_epoch,
        objects=args.objects,
        num_load_balancers=args.balancers,
        num_suborams=args.suborams,
        intensity=args.intensity,
        worker_processes=args.worker_processes,
        kernel=args.kernel,
        timeout=args.timeout,
    )
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    return 0 if report["matched"] else 1


def cmd_tune(args) -> int:
    """``tune``: sweep configs against a trace, emit the best as JSON.

    Follows the machine-readable convention: the full report JSON goes
    to stdout, progress to stderr.  ``--out`` captures just the
    deterministic best-config document (byte-stable for a given trace
    and sweep).  With ``--verify`` the emitted config is re-replayed
    and the exit code reflects whether the measured throughput
    reproduced within tolerance.
    """
    import dataclasses
    import json

    from repro.workloads import (
        TunerSweep,
        load_trace,
        parse_workload_spec,
        record_trace,
        dump_trace,
        tune,
        verify_reproduction,
    )

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    if args.trace is not None:
        trace = load_trace(args.trace)
        log(f"tune: loaded trace {args.trace} "
            f"({len(trace)} records, checksum "
            f"{trace.checksum()[:12]}...)")
    else:
        spec = parse_workload_spec(
            args.workload, num_keys=args.keys,
            write_fraction=args.write_fraction, value_size=args.value_size,
        )
        trace = record_trace(
            spec, args.requests, args.seed,
            arrival=args.arrival, rate=args.rate,
        )
        log(f"tune: recorded synthetic trace ({args.workload}, "
            f"{args.arrival} arrivals at {args.rate:g}/s, "
            f"{len(trace)} records)")
    if args.trace_out is not None:
        dump_trace(trace, args.trace_out)
        log(f"trace written to {args.trace_out}")

    sweep_kwargs = {}
    if args.epoch_durations is not None:
        sweep_kwargs["epoch_durations"] = tuple(
            float(x) for x in args.epoch_durations.split(",") if x
        )
    if args.backends is not None:
        sweep_kwargs["backends"] = tuple(
            x for x in args.backends.split(",") if x
        )
    sweep = dataclasses.replace(TunerSweep(), **sweep_kwargs)
    result = tune(
        trace,
        sweep=sweep,
        num_load_balancers=args.balancers,
        num_suborams=args.suborams,
        measure=not args.no_measure,
        repeats=args.repeats,
    )
    log(f"best config: {result.best.to_dict()}")
    if result.measured is not None:
        log(f"measured: {result.measured['best_rps']:,.0f} rps "
            f"(default {result.measured['default_rps']:,.0f} rps, "
            f"{result.measured['speedup_over_default']:.2f}x)")
    print(json.dumps(result.report(), indent=2, sort_keys=True))
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(result.best_config_json())
        log(f"best config written to {args.out}")
    if args.report_out is not None:
        with open(args.report_out, "w") as handle:
            handle.write(
                json.dumps(result.report(), indent=2, sort_keys=True) + "\n"
            )
        log(f"report written to {args.report_out}")
    if args.verify:
        if result.measured is None:
            raise SystemExit("--verify requires measurement "
                             "(drop --no-measure)")
        verdict = verify_reproduction(trace, result, repeats=args.repeats)
        log(f"verify: reported {verdict['reported_rps']:,.0f} rps, "
            f"replayed {verdict['replayed_rps']:,.0f} rps "
            f"(error {verdict['relative_error']:.1%}, digest "
            f"{'ok' if verdict['digest_matches'] else 'MISMATCH'})")
        if not (verdict["within_tolerance"] and verdict["digest_matches"]):
            return 1
    return 0


def cmd_info(_args) -> int:
    """``info``: version and cost-model constants."""
    profile = DEFAULT_PROFILE
    print(f"snoopy-repro {__version__}")
    print(f"cost-model profile (calibrated to the paper's anchors):")
    print(f"  cores                : {profile.cores}")
    print(f"  usable EPC           : {profile.epc_bytes / 1e6:.1f} MB")
    print(f"  sort comparator      : {profile.sort_compare_s * 1e9:.0f} ns")
    print(f"  scan per object      : {profile.scan_object_s * 1e9:.0f} ns + "
          f"{profile.scan_byte_resident_s * 1e9:.1f}/"
          f"{profile.scan_byte_paged_s * 1e9:.1f} ns/B (resident/paged)")
    print(f"  Obladi access        : {profile.obladi_access_s * 1e6:.0f} us")
    print(f"  Oblix block          : {profile.oblix_block_s * 1e6:.1f} us")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "plan": cmd_plan,
        "figures": cmd_figures,
        "demo": cmd_demo,
        "serve": cmd_serve,
        "loadgen": cmd_loadgen,
        "chaos-net": cmd_chaos_net,
        "tune": cmd_tune,
        "info": cmd_info,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
