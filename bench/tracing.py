"""Outside-in span tracing: wrap the layers' public callables from here.

``server_main.py --trace`` calls :func:`install` before the deployment is
built.  Every target in :data:`TARGETS` is replaced *where it is looked
up* — a module global such as ``repro.core.epoch.generate_batches``, or a
class attribute for methods — by a wrapper that records one span per
call.  Nothing under ``src/`` is edited, so the untraced server runs the
shipped code byte for byte.

A span is the list ``[id, parent, name, tid, start, end, cpu, epoch,
note]``: ``parent`` is the enclosing span on the same thread (0 for a
root), ``start``/``end`` are ``time.perf_counter()`` (CLOCK_MONOTONIC, so
comparable with the load generator's clock), ``cpu`` is the
``time.thread_time()`` the call consumed including its children,
``epoch`` is the ordinal of the pipeline epoch for the calls that belong
to one (children inherit it from their root), and ``note`` is a small
per-target count (batch length, bytes sealed, ...).  Spans stay in memory
and :meth:`Tracer.dump` writes them as JSON lines when the server exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Callable, List, Optional

SPAN_FIELDS = (
    "id", "parent", "name", "tid", "start", "end", "cpu", "epoch", "note",
)

#: The pipeline stage threads are single FIFO consumers, so the k-th call
#: of a stage method is the k-th closed epoch.
STAGES = ("build", "execute", "match")


class Tracer:
    """In-memory span recorder with a thread-local parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage_epoch = dict.fromkeys(STAGES, 0)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        stage: Optional[str] = None,
        bump: bool = False,
        note: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped to record one span per call.

        ``stage`` stamps the span with that stage's current epoch ordinal
        (``bump`` advances it first — the stage methods themselves);
        ``note(args, kwargs, result)`` supplies the span's count.
        """
        spans, ids, local = self.spans, self._ids, self._local
        stage_epoch = self._stage_epoch
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.tid = threading.get_native_id()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            epoch = 0
            if stage is not None:
                if bump:
                    stage_epoch[stage] += 1
                epoch = stage_epoch[stage]
            stack.append(span_id)
            result = None
            cpu0 = thread_time()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                cpu = thread_time() - cpu0
                stack.pop()
                spans.append([
                    span_id, parent, name, local.tid, start, end, cpu, epoch,
                    note(args, kwargs, result) if note is not None else None,
                ])

        return traced

    def dump(self, path: str) -> int:
        """Write every span as one JSON array per line; returns the count."""
        spans = sorted(self.spans, key=lambda span: span[0])
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in spans:
                out.write(json.dumps(span) + "\n")
        return len(spans)


def load_spans(path: str) -> List[list]:
    """Read a ``.trace.jsonl`` back into span lists (header skipped)."""
    with open(path, encoding="utf-8") as lines:
        header = json.loads(next(lines))
        if tuple(header["fields"]) != SPAN_FIELDS:
            raise ValueError(f"{path}: unexpected span fields {header}")
        return [json.loads(line) for line in lines]


# ---------------------------------------------------------------------------
# Per-target counts
# ---------------------------------------------------------------------------
def _lanes_bytes(args, _kwargs, _result):
    # seal_lanes/open_lanes(self, nonce, buffer, count, plain_size, ...)
    return args[3] * args[4]


def _batches_note(args, _kwargs, result):
    # generate_batches(requests, num_suborams, ...) ->
    # (batches, originals, batch_size): [R, S * f(R, S)]
    if result is None:
        return None
    return [len(args[0]), args[1] * result[2]]


def _batch_access_note(args, _kwargs, _result):
    suboram, batch = args[0], args[1]
    return [suboram.suboram_id, suboram.num_objects, len(batch)]


#: (module, attribute path, span name, wrap options).  The span name's
#: prefix is the ``src/repro/`` package that owns the callable.
TARGETS = (
    # serve: the sealed channel and the frame codec, server side
    ("repro.crypto.aead", "SecureChannel.send", "serve.channel_seal",
     {"note": lambda a, k, r: len(a[1])}),
    ("repro.crypto.aead", "SecureChannel.receive", "serve.channel_open",
     {"note": lambda a, k, r: len(a[2])}),
    ("repro.serve.server", "decode_request", "serve.decode_request", {}),
    ("repro.serve.server", "encode_response", "serve.encode_response", {}),
    ("repro.serve.secure", "encode_frame", "serve.encode_frame", {}),
    # core: ticketing, epoch close, the three stages, ticket resolution
    ("repro.core.pipeline", "EpochPipeline.submit", "core.submit", {}),
    ("repro.core.pipeline", "EpochPipeline.close_epoch", "core.close_epoch",
     {"note": lambda a, k, r: r}),
    ("repro.core.epoch", "EpochDriver.run_build", "core.stage_build",
     {"stage": "build", "bump": True}),
    ("repro.core.epoch", "EpochDriver.run_execute", "core.stage_execute",
     {"stage": "execute", "bump": True}),
    ("repro.core.epoch", "EpochDriver.run_match", "core.stage_match",
     {"stage": "match", "bump": True}),
    ("repro.core.tickets", "TicketBook.resolve_cut", "core.resolve",
     {"stage": "match", "note": lambda a, k, r: r}),
    # exec: fan-out of a stage's units over the thread pool
    ("repro.exec.pools", "ThreadPoolBackend.map", "exec.map",
     {"note": lambda a, k, r: len(r) if r is not None else None}),
    # loadbalancer
    ("repro.core.epoch", "generate_batches", "loadbalancer.build",
     {"stage": "build", "note": _batches_note}),
    ("repro.core.epoch", "match_responses", "loadbalancer.match",
     {"stage": "match"}),
    # suboram
    ("repro.suboram.suboram", "SubOram.batch_access", "suboram.batch_access",
     {"stage": "execute", "note": _batch_access_note}),
    ("repro.suboram.store", "EncryptedStore.get_batch", "suboram.store_get",
     {}),
    ("repro.suboram.store", "EncryptedStore.put_batch", "suboram.store_put",
     {}),
    # oblivious
    ("repro.oblivious.hashtable", "TwoTierHashTable.build",
     "oblivious.table_build", {}),
    ("repro.oblivious.hashtable", "TwoTierHashTable.lookup_matrix",
     "oblivious.lookup_matrix", {}),
    ("repro.oblivious.hashtable", "TwoTierHashTable.extract_real",
     "oblivious.extract", {}),
    ("repro.oblivious.kernels", "Kernel.compact", "oblivious.compact", {}),
    ("repro.oblivious.kernels", "NumpyKernel.sort", "oblivious.kernel_sort",
     {}),
    ("repro.oblivious.kernels", "NumpyKernel.compact_full",
     "oblivious.kernel_compact", {}),
    ("repro.oblivious.kernels", "NumpyKernel.scan_soa",
     "oblivious.kernel_scan", {}),
    # crypto
    ("repro.crypto.prf", "Prf.range_many", "crypto.prf_range_many",
     {"note": lambda a, k, r: len(a[1])}),
    ("repro.crypto.vector", "VectorAead.seal_lanes", "crypto.aead_seal",
     {"note": _lanes_bytes}),
    ("repro.crypto.vector", "VectorAead.open_lanes", "crypto.aead_open",
     {"note": _lanes_bytes}),
)


def install(tracer: Tracer) -> None:
    """Patch every target in :data:`TARGETS` to record into ``tracer``."""
    for module_name, path, span_name, options in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        static = inspect.getattr_static(owner, attribute)
        if isinstance(static, classmethod):
            wrapped = classmethod(
                tracer.wrap(static.__func__, span_name, **options)
            )
        elif isinstance(static, staticmethod):
            wrapped = staticmethod(
                tracer.wrap(static.__func__, span_name, **options)
            )
        else:
            wrapped = tracer.wrap(static, span_name, **options)
        setattr(owner, attribute, wrapped)
