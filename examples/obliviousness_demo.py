#!/usr/bin/env python3
"""See obliviousness: identical access traces for different secrets.

Runs the load balancer's batch pipeline twice — once on a uniform
workload, once on an all-duplicates workload for a single hot object —
records every memory address touched, and shows the traces are *equal*.
Then does the same for bitonic sort, and shows a contrast: a naive
(non-oblivious) filter whose trace gives the secret away.

Run:  python examples/obliviousness_demo.py
"""

import random

from repro.loadbalancer.batching import generate_batches
from repro.oblivious.memory import AccessTrace, TracedMemory
from repro.oblivious.sort import bitonic_sort
from repro.tools.traceview import diff_summary, shade_strip
from repro.types import OpType, Request

KEY = b"demo-sharding-key-0123456789abcd"


def collect(workload):
    trace = AccessTrace()
    generate_batches(
        workload, 3, KEY, security_parameter=16,
        mem_factory=lambda items, t=trace: TracedMemory(items, trace=t),
        value_size=1,
    )
    return trace


def main() -> None:
    rng = random.Random(0)

    print("== load balancer batch pipeline: 24 requests, 3 subORAMs ==")
    uniform = [Request(OpType.READ, k, seq=i)
               for i, k in enumerate(rng.sample(range(10**6), 24))]
    hot = [Request(OpType.READ, 7, seq=i) for i in range(24)]
    t_uniform, t_hot = collect(uniform), collect(hot)
    print(f"uniform workload : {shade_strip(t_uniform)}")
    print(f"hot-key workload : {shade_strip(t_hot)}")
    equal, summary = diff_summary(t_uniform, t_hot)
    print(summary)
    assert equal

    print("\n== bitonic sort: sorted vs reversed input ==")
    def sort_trace(data):
        trace = AccessTrace()
        bitonic_sort(
            data,
            mem_factory=lambda items, t=trace: TracedMemory(items, trace=t),
        )
        return trace

    t_sorted = sort_trace(list(range(32)))
    t_reversed = sort_trace(list(range(31, -1, -1)))
    equal, summary = diff_summary(t_sorted, t_reversed)
    print(summary)
    assert equal

    print("\n== the contrast: a NAIVE filter leaks ==")
    def naive_filter_trace(flags):
        trace = AccessTrace()
        memory = TracedMemory(list(range(len(flags))), trace=trace)
        kept = []
        for i, flag in enumerate(flags):
            if flag:  # data-dependent branch: the access pattern leaks!
                kept.append(memory[i])
        return trace

    t_few = naive_filter_trace([1, 0, 0, 0, 0, 0, 0, 0])
    t_many = naive_filter_trace([1, 1, 1, 1, 1, 1, 1, 0])
    equal, summary = diff_summary(t_few, t_many)
    print(summary)
    assert not equal
    print("-> the naive filter's trace reveals how many (and which) items "
          "matched; Goodrich compaction exists to close exactly this leak")


if __name__ == "__main__":
    main()
