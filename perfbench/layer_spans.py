"""Per-layer spans for the traced benchmark run.

The library's own spans stop at the engine, router and merge
boundaries, so the benchmark times each layer itself: it replaces the
public functions and methods listed in :func:`_boundaries` with
wrappers that record a span (name, id, parent id, thread, start, end)
when the recorder is enabled and call straight through when it is not.
Module functions are replaced in the module that imports them, so the
call sites inside the library pick the wrapper up.

A span's self time is its duration minus the durations of its direct
children in the same thread.  Spans are kept in memory and written out
as JSON when the run ends.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: the span name of backend calls: they contain layers but are none
CONTAINER = "backend"


class Span:
    __slots__ = ("name", "span_id", "parent_id", "thread", "start", "end", "child", "info")

    def __init__(self, name: str, span_id: int, parent_id: int, thread: int) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "self": self.self_time,
            "info": self.info,
        }


class SpanRecorder:
    """Wraps layer boundaries; records spans while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        info: Optional[Callable[[Tuple[Any, ...], Dict[str, Any], Any], Any]] = None,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return function(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else None
            span = Span(
                name, next(recorder._ids), parent.span_id if parent else 0, threading.get_ident()
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                recorder.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every boundary with its wrapper (for the whole process)."""
        for owner, attribute, name, info in _boundaries():
            # the owner's own attribute, never an inherited one
            setattr(owner, attribute, self.wrap(name, vars(owner)[attribute], info))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


# ----------------------------------------------------------------------
# boundaries
# ----------------------------------------------------------------------
def _length(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    """Pairs evaluated, rows hashed or rows inserted: the result's length."""
    return int(len(result))


def _one(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    return 1


def _sample_h(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    return {"budget": int(result.sample_size)}


def _sample_l(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    # sample_stratum_l(stratum_size, source, evaluator, tau, delta, max_samples, ...)
    budget = kwargs["max_samples"] if "max_samples" in kwargs else args[5]
    return {
        "taken": int(result.samples_taken),
        "budget": int(budget),
        "fallback": not result.reached_answer_threshold,
    }


def _frame(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    op, payload = args[0], args[1]
    rows = 0
    if op == "ingest" and isinstance(payload, dict):
        rows = len(payload.get("events", ()))
        collection = payload.get("collection")
        if collection is not None:
            rows += int(collection.size)
    return {"bytes": len(result), "rows": rows}


def _boundaries() -> List[Tuple[Any, str, str, Any]]:
    """(owner, attribute, span name, info) for every timed boundary."""
    import repro.cluster.transport as transport
    import repro.core.lsh_ss as lsh_ss
    import repro.shard.merge as merge
    import repro.streaming.estimator as streaming_estimator
    from repro.engine.backends import ShardedBackend, StaticBackend, StreamingBackend
    from repro.engine.engine import JoinEstimationEngine
    from repro.lsh.families import LSHFamily
    from repro.lsh.table import LSHTable
    from repro.shard.partition import KeyPartitioner, RendezvousPartitioner
    from repro.shard.router import ShardRouter
    from repro.shard.sharded_index import ShardedMutableIndex
    from repro.streaming.mutable_index import MutableLSHIndex, MutableLSHTable

    boundaries: List[Tuple[Any, str, str, Any]] = [
        (lsh_ss, "cosine_pairs", "vectors.pair_sim", _length),
        (MutableLSHIndex, "cosine_pairs", "vectors.pair_sim", _length),
        (ShardedMutableIndex, "cosine_pairs", "vectors.pair_sim", _length),
        (LSHFamily, "hash_matrix", "lsh.hash", _length),
        (MutableLSHTable, "same_bucket_many", "streaming.same_bucket", None),
        (MutableLSHIndex, "insert", "streaming.insert", _one),
        (MutableLSHIndex, "insert_many", "streaming.insert", _length),
        (MutableLSHIndex, "delete", "streaming.delete", _one),
        (ShardRouter, "insert", "shard.route", None),
        (ShardRouter, "delete", "shard.route", None),
        (ShardRouter, "flush", "shard.route", None),
        (KeyPartitioner, "shard_of_signatures", "shard.partition", None),
        (RendezvousPartitioner, "shard_of_signatures", "shard.partition", None),
        (ShardedMutableIndex, "commit_batch", "shard.commit", None),
        (merge.ShardedStreamingEstimator, "estimate", "shard.merge", None),
        (JoinEstimationEngine, "estimate", "engine.facade", None),
        (JoinEstimationEngine, "ingest", "engine.facade", None),
        (transport, "encode_message", "transport.encode", _frame),
        (transport, "decode_message", "transport.decode", None),
    ]
    for owner in (LSHTable, MutableLSHIndex, ShardedMutableIndex):
        boundaries.append((owner, "sample_collision_pairs", "lsh.draw_h", None))
        boundaries.append((owner, "sample_non_collision_pairs", "lsh.draw_l", None))
    for module in (lsh_ss, streaming_estimator, merge):
        boundaries.append((module, "sample_stratum_h", "core.sampleh", _sample_h))
        boundaries.append((module, "sample_stratum_l", "core.samplel", _sample_l))
    for backend in (StaticBackend, StreamingBackend, ShardedBackend):
        for method in ("estimate", "ingest_collection", "apply_event"):
            boundaries.append((backend, method, CONTAINER, None))
    return boundaries


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------
#: per-layer time metrics (self seconds per traced cycle)
TIME_LAYERS = (
    "vectors.pair_sim",
    "lsh.hash",
    "lsh.draw_h",
    "lsh.draw_l",
    "core.sampleh",
    "core.samplel",
    "streaming.insert",
    "streaming.delete",
    "streaming.same_bucket",
    "shard.route",
    "shard.partition",
    "shard.commit",
    "shard.merge",
    "engine.facade",
    "transport.encode",
    "transport.decode",
)


class Op:
    """One end-to-end call of the measured loop."""

    __slots__ = ("kind", "start", "end", "traced", "pairs", "budget", "mark")

    def __init__(self, kind: str, start: float, end: float, traced: bool) -> None:
        self.kind = kind
        self.start = start
        self.end = end
        self.traced = traced
        #: pairs evaluated and the m_H + m_L budget (traced estimates)
        self.pairs = 0
        self.budget = 0
        #: position of the first pace probe taken after the op (pace.py)
        self.mark = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_metrics(
    spans: Sequence[Span],
    ops: Sequence[Op],
    *,
    cycles: int,
    main_thread: int,
    cross_thread: bool,
) -> Dict[str, float]:
    """Reduce the spans of traced ops to per-cycle layer metrics.

    Also fills each traced op's :attr:`Op.pairs` and :attr:`Op.budget`.

    ``cross_thread`` says whether the client's ops block on work done in
    other threads (the in-process server) — then spans of every thread
    inside an op's window belong to it, and the serve layer is what is
    left of the op once those spans are taken out.  Otherwise only the
    client thread's spans count (router worker threads run under the
    client's ``shard.route`` span, which already covers their time).
    """
    spans = sorted(spans, key=lambda span: span.start)
    starts = [span.start for span in spans]
    totals = {name: 0.0 for name in TIME_LAYERS}
    counts = {"pair_sim_calls": 0, "pairs": 0, "hash_rows": 0, "events": 0, "bytes": 0}
    ingest_bytes = 0
    ingest_rows = 0
    serve_self = 0.0
    e2e = 0.0
    overhead_estimate: List[float] = []
    ack_wait = 0.0
    fallback_pairs = 0
    samplel_pairs = 0
    for op in ops:
        if not op.traced:
            continue
        e2e += op.duration
        window = spans[bisect.bisect_left(starts, op.start) : bisect.bisect_right(starts, op.end)]
        window = [
            span
            for span in window
            if span.end <= op.end and (cross_thread or span.thread == main_thread)
        ]
        by_id = {span.span_id: span for span in window}
        root_time = 0.0
        server_engine = 0.0
        for span in window:
            parent = by_id.get(span.parent_id)
            if parent is None:
                root_time += span.duration
                if span.thread != main_thread and span.name == "engine.facade":
                    server_engine += span.duration
            if span.name != CONTAINER:
                totals[span.name] += span.self_time
            if span.name == "vectors.pair_sim" and (parent is None or parent.name != span.name):
                counts["pair_sim_calls"] += 1
                counts["pairs"] += span.info
                op.pairs += span.info
            elif span.name == "lsh.hash":
                counts["hash_rows"] += span.info
            elif span.name in ("streaming.insert", "streaming.delete") and (
                parent is None or parent.name not in ("streaming.insert", "streaming.delete")
            ):
                counts["events"] += span.info
            elif span.name == "transport.encode":
                counts["bytes"] += span.info["bytes"]
                if span.info["rows"]:
                    ingest_bytes += span.info["bytes"]
                    ingest_rows += span.info["rows"]
            elif span.name == "core.sampleh":
                op.budget += span.info["budget"]
            elif span.name == "core.samplel":
                op.budget += span.info["budget"]
                samplel_pairs += span.info["taken"]
                if span.info["fallback"]:
                    fallback_pairs += span.info["taken"]
        if cross_thread:
            serve_self += op.duration - root_time
            if op.kind == "estimate":
                overhead_estimate.append(op.duration - server_engine)
            else:
                ack_wait += op.duration - server_engine
    cycles = max(cycles, 1)
    named = sum(totals.values()) + serve_self
    metrics: Dict[str, float] = {f"{name}_s": totals[name] / cycles for name in TIME_LAYERS}
    metrics.update(
        {
            "vectors.pair_sim_calls": counts["pair_sim_calls"] / cycles,
            "vectors.pairs_evaluated": counts["pairs"] / cycles,
            "lsh.hash_rows": counts["hash_rows"] / cycles,
            "streaming.events": counts["events"] / cycles,
            "transport.bytes": counts["bytes"] / cycles,
            "transport.bytes_per_row": ingest_bytes / ingest_rows if ingest_rows else 0.0,
            "core.samplel_fallback_frac": fallback_pairs / samplel_pairs if samplel_pairs else 0.0,
            "serve.overhead_ms_p50": (
                1000.0 * statistics.median(overhead_estimate) if overhead_estimate else 0.0
            ),
            "serve.ingest_ack_wait_s": ack_wait / cycles,
            "unattributed_frac": (e2e - named) / e2e if e2e else 0.0,
        }
    )
    return metrics
