"""The canonical served benchmark (see bench/README.md).

Driver form — one workload, one JSON object as the last stdout line::

    python3 bench/run.py --workload batch_rw --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` measures the per-layer metrics from a traced
server.  Without ``--workload`` every workload runs, both ways, and one
JSON document holding every metric by name is printed (``--out`` also
writes it to a file, ``--repeat K`` runs K sets back to back for the A/A
criterion, ``--smoke`` is a short plumbing check that refuses ``--out``).
Logs go to stderr; stdout is always JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import config  # noqa: E402
from canary import Canary  # noqa: E402
import history  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from loadgen import LoadGen  # noqa: E402

from repro.core.linearizability import (  # noqa: E402
    History,
    LinearizabilityViolation,
)
from repro.telemetry.registry import nearest_rank_percentile  # noqa: E402
from repro.workloads.arrivals import poisson_arrivals  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
CLOCK_TICK = os.sysconf("SC_CLK_TCK")

#: Closed-loop warm-up before the measured windows (discarded).
WARMUP_S = 4.0
#: ``--smoke``: 3 s per phase and one launch, a plumbing check only.
SMOKE_SECONDS = 6
SMOKE_WARMUP_S = 0.5
STOP_TIMEOUT_S = 60.0


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------
class Server:
    """One launch of ``server_main.py`` and its /proc readings."""

    def __init__(self, proc, port: int, pid: int, spawned: float):
        self.proc = proc
        self.port = port
        self.pid = pid
        self.spawned = spawned

    @classmethod
    async def launch(cls, workload, trace_path=None) -> "Server":
        command = [
            sys.executable, os.path.join(HERE, "server_main.py"),
            "--workload", workload.name,
        ]
        if trace_path is not None:
            command += ["--trace", trace_path]
        spawned = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *command,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 26,
        )
        line = await proc.stdout.readline()
        if not line:
            await proc.wait()
            raise RuntimeError(
                f"server exited with code {proc.returncode} before listening"
            )
        ready = json.loads(line)
        return cls(proc, ready["port"], ready["pid"], spawned)

    async def stop(self) -> dict:
        """Close the server's stdin, collect its counters, wait for exit."""
        self.proc.stdin.close()
        try:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), STOP_TIMEOUT_S
            )
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
            raise RuntimeError("server did not stop; killed")
        if self.proc.returncode != 0 or not line:
            raise RuntimeError(
                f"server exited with code {self.proc.returncode}"
            )
        return json.loads(line)

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()

    def cpu_s(self, tid=None) -> float:
        """utime+stime of the process (all threads) or of one thread."""
        path = (
            f"/proc/{self.pid}/stat" if tid is None
            else f"/proc/{self.pid}/task/{tid}/stat"
        )
        with open(path) as stat:
            fields = stat.read().rsplit(") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICK

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")


async def timed_launch(workload, seed, trace_path=None):
    """Launch, connect, PING: returns ``(server, loadgen, setup seconds)``."""
    gc.collect()   # the collector is off while load runs (see main)
    server = await Server.launch(workload, trace_path)
    try:
        loadgen = LoadGen(server.port, workload, seed)
        await loadgen.ping()
        setup_s = time.perf_counter() - server.spawned
    except BaseException:
        await server.kill()
        raise
    return server, loadgen, setup_s


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def verify(loadgen: LoadGen, workload) -> dict:
    """Failure counts plus the history replay; ``correct`` iff both clean."""
    failures = loadgen.failures()
    violation = None
    initial = {
        key: config.initial_value(key, workload.value_size)
        for key in range(workload.num_objects)
    }
    try:
        history.check_history(
            History(initial, history.operations_from(loadgen))
        )
    except LinearizabilityViolation as exc:
        violation = str(exc)
        failures["history"] = 1
    failed = sum(failures.values())
    return {
        "attempted": loadgen.attempted,
        "failed": failed,
        "failures": failures,
        "violation": violation,
        "correct": failed == 0,
    }


def window_stat(windows, key: str, speed_power: int = 0) -> dict:
    """Median over a phase's windows of ``window[key]``.

    ``speed_power`` scales each window's value to the canary's reference
    machine speed before the median is taken: +1 for a rate (a machine
    running 20 % slow serves 20 % fewer requests), -1 for a time, 0 for
    none.  The median as measured is kept beside it.
    """
    usable = [w for w in windows if w.get(key) is not None]
    if not usable:
        return {"value": None, "windows": 0}
    scaled = [w[key] * w["slowdown"] ** speed_power for w in usable]
    return {
        "value": statistics.median(scaled),
        "min": min(scaled), "max": max(scaled), "windows": len(usable),
        "as_measured": statistics.median(w[key] for w in usable),
    }


def add_slowdown(windows, canary: Canary) -> None:
    """Give every window the canary's reading over its own interval."""
    for window in windows:
        if "begin" in window:
            window["slowdown"] = canary.slowdown(
                window["begin"], window["end"]
            )


async def closed_with_cpu(
    server: Server, loadgen: LoadGen, seconds: float, warmup: float,
    canary: Canary,
):
    """A closed phase with server CPU read at every window edge.

    ``server_main`` runs its event loop on the main thread (tid == pid),
    so that thread's CPU is read alongside the whole process's.
    """
    phase = await loadgen.closed_phase(
        seconds, warmup,
        probe=lambda: (server.cpu_s(), server.cpu_s(server.pid)),
    )
    for window in phase.windows:
        window["cpu_ms_per_req"] = None
        if window["replies"]:
            begin, end = window.pop("probe")
            window["cpu_s"] = end[0] - begin[0]
            window["loop_cpu_s"] = end[1] - begin[1]
            window["cpu_ms_per_req"] = window["cpu_s"] * 1e3 / window["replies"]
    add_slowdown(phase.windows, canary)
    return phase


async def run_untraced(
    workload, seed: int, seconds: float, canary: Canary,
    warmup: float = WARMUP_S, launches: int = config.SETUP_LAUNCHES,
) -> dict:
    """Cold launches, closed phase, open phase — tracing off."""
    setups = []
    for launch in range(launches):
        server, loadgen, setup_s = await timed_launch(workload, seed)
        setups.append(setup_s)
        log(f"{workload.name}: launch {launch + 1} ready in {setup_s:.3f} s")
        if launch + 1 < launches:
            await server.stop()
    try:
        open_s = closed_s = seconds / 2.0
        arrivals = list(poisson_arrivals(
            workload.open_rate, open_s, random.Random(seed)
        ))
        loadgen.ensure_requests(
            int(workload.sized_for_rps * (warmup + closed_s)) + len(arrivals)
        )
        await loadgen.connect()
        closed = await closed_with_cpu(
            server, loadgen, closed_s, warmup, canary
        )
        rss_mib = server.peak_rss_mib()
        opened = await loadgen.open_phase(open_s, arrivals)
        add_slowdown(opened.windows, canary)
        await loadgen.close()
        stats = await server.stop()
    except BaseException:
        await server.kill()
        raise
    check = verify(loadgen, workload)

    late = sorted(opened.late_ms)
    answered = sum(w["samples"] for w in opened.windows)
    p50 = window_stat(opened.windows, "p50_ms", -1)
    gen_late_p99 = nearest_rank_percentile(late, 99)
    diagnostics = {
        "setup_launches_s": setups,
        "failed_share": check["failed"] / check["attempted"],
        "open": {
            "offered_rps": workload.open_rate,
            "scheduled": len(arrivals),
            "achieved_rps": answered / open_s,
            "backlog_end": opened.backlog_end,
            # Backlog is growing when replies fall behind arrivals or the
            # last window waits much longer than the first.
            "sustained": (
                answered >= 0.95 * len(arrivals)
                and all(w["samples"] for w in opened.windows)
                and opened.windows[-1]["p50_ms"]
                <= 1.5 * opened.windows[0]["p50_ms"]
            ),
            "gen_late_p50_ms": statistics.median(late),
            "gen_late_p99_ms": gen_late_p99,
            "valid": (
                bool(answered) and gen_late_p99 <= 0.10 * p50["as_measured"]
            ),
            "windows": opened.windows,
        },
        "closed": {
            "users_per_connection": 2 * workload.window,
            "connections": config.CONNECTIONS,
            "windows": closed.windows,
        },
        "server": stats["server"],
        "pipeline": stats["pipeline"],
        "faults": stats["faults"],
        "check": check,
    }
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "sat_rps": dict(window_stat(closed.windows, "rps", +1), unit="req/s"),
        "lat_p50_ms": dict(p50, unit="ms"),
        "lat_p99_ms": dict(
            window_stat(opened.windows, "p99_ms", -1), unit="ms",
            samples_beyond_p99_per_window=min(
                w["samples"] - int(0.99 * w["samples"])
                for w in opened.windows
            ),
        ),
        "cpu_ms_per_req": dict(
            window_stat(closed.windows, "cpu_ms_per_req", -1), unit="ms"
        ),
        "rss_mb": {"value": rss_mib, "unit": "MiB"},
    }
    return {"metrics": metrics, "check": check, "diagnostics": diagnostics}


async def closed_only(
    workload, seed, seconds, warmup, canary: Canary, trace_path=None
):
    """One launch and one closed phase; returns what a trace needs."""
    server, loadgen, _setup_s = await timed_launch(workload, seed, trace_path)
    try:
        loadgen.ensure_requests(
            int(workload.sized_for_rps * (warmup + seconds))
        )
        await loadgen.connect()
        closed = await closed_with_cpu(
            server, loadgen, seconds, warmup, canary
        )
        await loadgen.close()
        stats = await server.stop()
    except BaseException:
        await server.kill()
        raise
    return {
        "phase": closed,
        "stats": stats,
        "check": verify(loadgen, workload),
        "handshake_ms": loadgen.handshake_ms,
        "pid": server.pid,
        "rps": window_stat(closed.windows, "rps", +1)["value"],
    }


async def run_traced(
    workload, seed: int, seconds: float, canary: Canary,
    warmup: float = WARMUP_S, untraced_rps=None,
) -> dict:
    """Per-layer metrics from a traced launch (plus an untraced yardstick)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{workload.name}.trace.jsonl")
    checks = []
    traced_s = seconds
    if untraced_rps is None:
        # Driver form: spend a third of the run on the untraced yardstick
        # that trace.overhead is measured against.
        traced_s = seconds * 2.0 / 3.0
        plain = await closed_only(
            workload, seed, seconds - traced_s, warmup, canary
        )
        untraced_rps = plain["rps"]
        checks.append(plain["check"])
    traced = await closed_only(
        workload, seed, traced_s, warmup, canary, trace_path
    )
    checks.append(traced["check"])
    windows = [w for w in traced["phase"].windows if w["replies"]]
    trace = layers.Trace(
        tracing.load_spans(trace_path),
        windows[0]["begin"], windows[-1]["end"],
    )
    process_cpu_s = sum(w["cpu_s"] for w in windows)
    metrics = layers.compute(
        trace,
        workload=workload,
        replies=sum(w["replies"] for w in windows),
        process_cpu_s=process_cpu_s,
        loop_cpu_s=sum(w["loop_cpu_s"] for w in windows),
        loop_tid=traced["pid"],
        stats=traced["stats"],
        handshake_ms=traced["handshake_ms"],
        traced_rps=traced["rps"],
        untraced_rps=untraced_rps,
        slowdown=statistics.median(w["slowdown"] for w in windows),
    )
    check = {
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "failures": [c["failures"] for c in checks],
        "correct": all(c["correct"] for c in checks),
    }
    return {
        "metrics": metrics,
        "check": check,
        "trace": trace_path,
        "cpu_shares": layers.cpu_shares(trace, process_cpu_s),
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def contract_line(result: dict, declared: list) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    metrics = {}
    for entry in declared:
        measured = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {
            "value": measured["value"], "unit": entry["unit"],
        }
    check = result["check"]
    return json.dumps({
        "correct": check["correct"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    })


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> dict:
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


async def run_set(names, seed, seconds, canary, warmup, launches) -> dict:
    """Every named workload, untraced then traced."""
    rows = {}
    for name in names:
        workload = config.WORKLOADS[name]
        untraced = await run_untraced(
            workload, seed, seconds, canary, warmup, launches
        )
        traced = await run_traced(
            workload, seed, seconds / 2.0, canary, warmup,
            untraced_rps=untraced["metrics"]["sat_rps"]["value"],
        )
        rows[name] = {
            "config": dict(config.PINNED, **{
                field: getattr(workload, field) for field in (
                    "num_objects", "value_size", "load_balancers",
                    "suborams", "distribution", "zipf_exponent",
                    "write_fraction", "open_rate", "window",
                )
            }),
            "correct": untraced["check"]["correct"]
            and traced["check"]["correct"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "cpu_shares": traced["cpu_shares"],
            "diagnostics": untraced["diagnostics"],
            "trace_file": os.path.relpath(traced["trace"], ROOT),
        }
        log(f"{name}: " + ", ".join(
            f"{key}={value['value']:.4g}"
            for key, value in untraced["metrics"].items()
        ))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(config.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    # A generation-2 collection over 10^5 recorded requests stalls the
    # generator for tens of milliseconds and shows up as open-loop
    # lateness; the hot path allocates no cycles, so collect between
    # launches instead.
    gc.disable()
    contract = load_contract()
    if args.smoke and args.out:
        parser.error("--smoke results are not a baseline: refusing --out")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    warmup = SMOKE_WARMUP_S if args.smoke else WARMUP_S
    launches = 1 if args.smoke else config.SETUP_LAUNCHES
    canary = Canary()
    canary.start()
    try:
        return measure(args, contract, canary, seconds, warmup, launches)
    finally:
        canary.stop()


def measure(args, contract, canary, seconds, warmup, launches) -> int:
    """Driver form (one workload, one line) or the full document."""
    if args.workload is not None and args.trace is not None:
        workload = config.WORKLOADS[args.workload]
        if args.trace:
            result = asyncio.run(
                run_traced(workload, args.seed, seconds, canary, warmup)
            )
            declared = contract["per_layer"]
        else:
            result = asyncio.run(
                run_untraced(
                    workload, args.seed, seconds, canary, warmup, launches
                )
            )
            declared = contract["end_to_end"]
            log(json.dumps(result["diagnostics"]["open"], default=str))
        if not result["check"]["correct"]:
            log(f"INCORRECT: {json.dumps(result['check'])}")
        print(contract_line(result, declared))
        return 0 if result["check"]["correct"] else 1

    names = [args.workload] if args.workload else list(config.WORKLOADS)
    document = {
        "benchmark": "snoopy-served",
        "smoke": args.smoke,
        "seconds": seconds,
        "environment": environment(),
        "sets": [],
    }
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        document["sets"].append({
            "seed": seed,
            "workloads": asyncio.run(
                run_set(names, seed, seconds, canary, warmup, launches)
            ),
        })
    text = json.dumps(document, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    correct = all(
        row["correct"]
        for one in document["sets"] for row in one["workloads"].values()
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
