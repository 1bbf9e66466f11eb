"""Per-layer metrics from one traced closed phase.

Input is the span list of ``tracing.py`` plus what the load generator
measured around it (the window, verified replies, server CPU from
``/proc``).  Only spans that lie wholly inside the measured window count.

* Self CPU of a span = its CPU minus its children's (children run on the
  same thread by construction of the parent stack).
* ``*_ms`` metrics: CPU, self plus children, summed over every call of
  that name in one epoch; the median over the epochs whose three stages
  all lie in the window.  ``core.stage_*_ms`` are wall-clock instead.
* ``*_us`` metrics: CPU summed over the window, per verified reply.
* Wall minus CPU inside a span is time spent waiting (GIL, scheduler).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

ID, PARENT, NAME, TID, START, END, CPU, EPOCH, NOTE = range(9)

STAGE_SPANS = ("core.stage_build", "core.stage_execute", "core.stage_match")

#: name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "serve.channel_seal_us": "us",
    "serve.channel_open_us": "us",
    "serve.frames_per_record": "ratio",
    "serve.wire_codec_us": "us",
    "serve.loop_residual_us": "us",
    "serve.handshake_ms": "ms",
    "serve.open_tickets_peak": "count",
    "serve.busy_rejections": "count",
    "core.submit_us": "us",
    "core.epochs": "count",
    "core.requests_per_epoch": "count",
    "core.epoch_period_ms": "ms",
    "core.stage_build_ms": "ms",
    "core.stage_execute_ms": "ms",
    "core.stage_match_ms": "ms",
    "core.stage_wait_ms": "ms",
    "core.execute_occupancy": "ratio",
    "core.retries": "count",
    "loadbalancer.build_ms": "ms",
    "loadbalancer.build_self_ms": "ms",
    "loadbalancer.match_ms": "ms",
    "loadbalancer.padded_entries": "count",
    "loadbalancer.real_ratio": "ratio",
    "suboram.batch_access_ms": "ms",
    "suboram.batch_access_self_ms": "ms",
    "suboram.store_get_ms": "ms",
    "suboram.store_put_ms": "ms",
    "suboram.objects_scanned_per_req": "count",
    "suboram.bytes_resealed_per_req": "B",
    "oblivious.table_build_ms": "ms",
    "oblivious.compact_calls": "count",
    "oblivious.lookup_matrix_ms": "ms",
    "oblivious.extract_ms": "ms",
    "oblivious.kernel_sort_ms": "ms",
    "oblivious.kernel_compact_ms": "ms",
    "oblivious.kernel_scan_ms": "ms",
    "crypto.prf_range_many_ms": "ms",
    "crypto.prf_inputs": "count",
    "crypto.aead_seal_ms": "ms",
    "crypto.aead_open_ms": "ms",
    "crypto.aead_mb_per_s": "MB/s",
    "exec.unit_start_delay_ms": "ms",
    "exec.wait_share": "ratio",
    "trace.coverage": "ratio",
    "trace.attributed": "ratio",
    "trace.overhead": "ratio",
    "canary.slowdown": "ratio",
}

#: ``<layer>.<x>_ms`` metrics that are plain per-epoch CPU sums of one span.
_EPOCH_CPU = {
    "loadbalancer.build_ms": "loadbalancer.build",
    "loadbalancer.match_ms": "loadbalancer.match",
    "suboram.batch_access_ms": "suboram.batch_access",
    "suboram.store_get_ms": "suboram.store_get",
    "suboram.store_put_ms": "suboram.store_put",
    "oblivious.table_build_ms": "oblivious.table_build",
    "oblivious.lookup_matrix_ms": "oblivious.lookup_matrix",
    "oblivious.extract_ms": "oblivious.extract",
    "oblivious.kernel_sort_ms": "oblivious.kernel_sort",
    "oblivious.kernel_compact_ms": "oblivious.kernel_compact",
    "oblivious.kernel_scan_ms": "oblivious.kernel_scan",
    "crypto.prf_range_many_ms": "crypto.prf_range_many",
    "crypto.aead_seal_ms": "crypto.aead_seal",
    "crypto.aead_open_ms": "crypto.aead_open",
}


class Trace:
    """Spans of one window, indexed the ways the metrics need."""

    def __init__(self, spans: List[list], start: float, end: float):
        self.start, self.end = start, end
        self.spans = [s for s in spans if s[START] >= start and s[END] <= end]
        #: When the clock closed each epoch, in close order.
        self.closes = sorted(
            s[END] for s in spans
            if s[NAME] == "core.close_epoch" and s[NOTE] is not None
        )
        by_id = {s[ID]: s for s in self.spans}
        child_cpu: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] in by_id:
                child_cpu[span[PARENT]] += span[CPU]
        self.self_cpu = {
            s[ID]: s[CPU] - child_cpu[s[ID]] for s in self.spans
        }
        # A span without its own epoch stamp inherits its parent's.  Ids
        # are handed out at entry, so parents come first in id order.
        self.epoch_of: Dict[int, int] = {}
        for span in sorted(self.spans, key=lambda s: s[ID]):
            self.epoch_of[span[ID]] = (
                span[EPOCH] or self.epoch_of.get(span[PARENT], 0)
            )
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span[NAME]].append(span)
        stages = [
            {s[EPOCH]: s for s in self.by_name[name]} for name in STAGE_SPANS
        ]
        #: Epochs whose build, execute and match all lie in the window.
        self.epochs = sorted(
            set(stages[0]) & set(stages[1]) & set(stages[2])
        )
        self.stage = dict(zip(("build", "execute", "match"), stages))

    def per_epoch(self, name: str, value) -> List[float]:
        """``sum(value(span))`` over ``name`` spans, one entry per epoch."""
        sums = dict.fromkeys(self.epochs, 0.0)
        for span in self.by_name[name]:
            epoch = self.epoch_of[span[ID]]
            if epoch in sums:
                sums[epoch] += value(span)
        return [sums[epoch] for epoch in self.epochs]

    def total_cpu(self, *names: str) -> float:
        return sum(s[CPU] for name in names for s in self.by_name[name])


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def compute(
    trace: Trace, *, workload, replies, process_cpu_s, loop_cpu_s,
    loop_tid, stats, handshake_ms, traced_rps, untraced_rps, slowdown,
) -> Dict[str, dict]:
    """Every per-layer metric of ``UNITS`` as ``{"value", "unit"}``."""
    start, end = trace.start, trace.end
    out: Dict[str, float] = {}
    per_reply_us = 1e6 / max(1, replies)

    # serve
    out["serve.channel_seal_us"] = (
        trace.total_cpu("serve.channel_seal") * per_reply_us
    )
    out["serve.channel_open_us"] = (
        trace.total_cpu("serve.channel_open") * per_reply_us
    )
    out["serve.frames_per_record"] = (
        len(trace.by_name["serve.encode_frame"])
        / max(1, len(trace.by_name["serve.channel_seal"]))
    )
    out["serve.wire_codec_us"] = trace.total_cpu(
        "serve.decode_request", "serve.encode_response", "serve.encode_frame"
    ) * per_reply_us
    loop_span_cpu = sum(
        trace.self_cpu[s[ID]] for s in trace.spans if s[TID] == loop_tid
    )
    loop_residual_s = max(0.0, loop_cpu_s - loop_span_cpu)
    out["serve.loop_residual_us"] = loop_residual_s * per_reply_us
    out["serve.handshake_ms"] = _median(handshake_ms)
    out["serve.open_tickets_peak"] = stats["server"]["peak_open_tickets"]
    out["serve.busy_rejections"] = stats["server"]["busy_rejections"]

    # core
    out["core.submit_us"] = trace.total_cpu("core.submit") * per_reply_us
    completions = [row for row in stats["epochs"] if start <= row[0] <= end]
    out["core.epochs"] = len(trace.epochs)
    out["core.requests_per_epoch"] = _median(row[2] for row in completions)
    # Mean spacing: under depth-2 pipelining epochs alternate between a
    # long and a short gap, which makes the median jump between the two.
    out["core.epoch_period_ms"] = (
        1e3 * (completions[-1][0] - completions[0][0]) / (len(completions) - 1)
        if len(completions) > 1 else 0.0
    )
    for stage in ("build", "execute", "match"):
        out[f"core.stage_{stage}_ms"] = 1e3 * _median(
            trace.stage[stage][e][END] - trace.stage[stage][e][START]
            for e in trace.epochs
        )
    # The k-th epoch the clock closed is the k-th the builder picked up.
    closes = trace.closes
    waits = []
    for epoch in trace.epochs:
        if epoch > len(closes):
            continue
        build, execute, match = (
            trace.stage[stage][epoch] for stage in ("build", "execute", "match")
        )
        waits.append(
            (build[START] - closes[epoch - 1])
            + (execute[START] - build[END])
            + (match[START] - execute[END])
        )
    out["core.stage_wait_ms"] = 1e3 * _median(waits)
    out["core.execute_occupancy"] = sum(
        s[END] - s[START] for s in trace.by_name["core.stage_execute"]
    ) / (end - start)
    out["core.retries"] = stats["faults"].get("epochs_retried", 0)

    # per-epoch CPU of one span name
    for metric, name in _EPOCH_CPU.items():
        out[metric] = 1e3 * _median(trace.per_epoch(name, lambda s: s[CPU]))
    for metric, name in (
        ("loadbalancer.build_self_ms", "loadbalancer.build"),
        ("suboram.batch_access_self_ms", "suboram.batch_access"),
    ):
        out[metric] = 1e3 * _median(
            trace.per_epoch(name, lambda s: trace.self_cpu[s[ID]])
        )

    # work counts
    real = trace.per_epoch("loadbalancer.build", lambda s: s[NOTE][0])
    padded = trace.per_epoch(
        "loadbalancer.build", lambda s: s[NOTE][0] + s[NOTE][1]
    )
    scanned = trace.per_epoch("suboram.batch_access", lambda s: s[NOTE][1])
    out["loadbalancer.padded_entries"] = _median(padded)
    out["loadbalancer.real_ratio"] = _median(
        r / p for r, p in zip(real, padded) if p
    )
    out["suboram.objects_scanned_per_req"] = _median(
        n / r for n, r in zip(scanned, real) if r
    )
    out["suboram.bytes_resealed_per_req"] = (
        out["suboram.objects_scanned_per_req"] * workload.value_size
    )
    out["oblivious.compact_calls"] = _median(
        trace.per_epoch("oblivious.compact", lambda s: 1)
    )
    out["crypto.prf_inputs"] = _median(
        trace.per_epoch("crypto.prf_range_many", lambda s: s[NOTE])
    )
    aead = trace.by_name["crypto.aead_seal"] + trace.by_name["crypto.aead_open"]
    aead_cpu = sum(s[CPU] for s in aead)
    out["crypto.aead_mb_per_s"] = (
        sum(s[NOTE] for s in aead) / aead_cpu / 1e6 if aead_cpu else 0.0
    )

    # exec: how long a unit waits for a pool thread, and for the GIL
    delays = []
    by_parent = {s[PARENT]: s for s in trace.by_name["exec.map"]}
    for epoch in trace.epochs:
        fan_out = by_parent.get(trace.stage["execute"][epoch][ID])
        if fan_out is None:
            continue
        first_start: Dict[int, float] = {}
        for span in trace.by_name["suboram.batch_access"]:
            if trace.epoch_of[span[ID]] == epoch:
                unit = span[NOTE][0]
                first_start[unit] = min(
                    first_start.get(unit, span[START]), span[START]
                )
        delays.extend(t - fan_out[START] for t in first_start.values())
    out["exec.unit_start_delay_ms"] = 1e3 * _median(delays)
    units = trace.by_name["suboram.batch_access"]
    unit_wall = sum(s[END] - s[START] for s in units)
    out["exec.wait_share"] = (
        sum(s[END] - s[START] - s[CPU] for s in units) / unit_wall
        if unit_wall else 0.0
    )

    # trace
    span_cpu_s = sum(trace.self_cpu.values())
    out["trace.coverage"] = span_cpu_s / process_cpu_s
    # ... plus the event loop's own slice (serve.loop_residual_us), which
    # is measured from /proc because asyncio's internals are not wrapped.
    out["trace.attributed"] = (span_cpu_s + loop_residual_s) / process_cpu_s
    # Both rates are already scaled to the canary's reference speed.
    out["trace.overhead"] = 1.0 - traced_rps / untraced_rps
    out["canary.slowdown"] = slowdown
    return {
        name: {"value": out[name], "unit": unit}
        for name, unit in UNITS.items()
    }


def cpu_shares(trace: Trace, process_cpu_s: float) -> Dict[str, float]:
    """Self CPU per span name as a share of server CPU (README's table)."""
    shares: Dict[str, float] = defaultdict(float)
    for span in trace.spans:
        shares[span[NAME]] += trace.self_cpu[span[ID]] / process_cpu_s
    shares["(untraced)"] = max(0.0, 1.0 - sum(shares.values()))
    return dict(sorted(shares.items(), key=lambda item: -item[1]))
