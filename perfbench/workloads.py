"""The three benchmark workloads and their output checks.

Each workload is a closed loop from one client: it sends the next call
only after the previous one returned.

* ``static-sweep`` — ``engine.estimate`` (mode auto) on the static
  backend, thresholds cycling through :data:`THRESHOLDS`, no writes.
* ``sharded-churn`` — the sharded backend (4 shards, 2 router workers):
  a batch of churn events, ``flush``, then one exact-mode estimate.
* ``serve-churn`` — an in-process ``EstimationServer`` (streaming
  backend) and one ``ServeClient`` connection alternating an ingest
  batch and one exact-mode estimate.

A *cycle* is one estimate (static) or one batch plus one estimate
(churn).  In a traced run every second cycle is traced, so per-layer
numbers and the tracing overhead come from the same run.  Every cycle
and every timed set-up is followed by pace probes (``pace.py``), and the
end-to-end times are reported at the reference host's pace.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from bench_inputs import INSERT, THRESHOLDS, ChurnTruth, load_churn
from layer_spans import Op, SpanRecorder, layer_metrics
from pace import Pace

WORKLOADS = ("static-sweep", "sharded-churn", "serve-churn")
#: k, the LSH width of every engine (one table)
NUM_HASHES = 20
#: timed set-ups per run; setup_s is their median
SETUP_REPEATS = {"static-sweep": 50, "sharded-churn": 8, "serve-churn": 4}
#: churn events per write batch
BATCH_SIZE = {"sharded-churn": 500, "serve-churn": 200}
#: pace probes after each cycle, and before and after each timed set-up
CYCLE_PROBES = {"static-sweep": 1, "sharded-churn": 3, "serve-churn": 3}
SETUP_PROBES = 3
NUM_SHARDS = 4
ROUTER_WORKERS = 2
#: the tail percentile of estimate and write-batch times: the highest
#: with ten samples beyond it in every run (a sharded-churn run holds
#: about 55 cycles on the reference host, static-sweep 50 bulk loads)
TAIL = 80
#: cycles after which rss_growth_mb is read: a fixed amount of work, so
#: memory does not grow with how many cycles a faster host fits in
RSS_CYCLES = {"static-sweep": 200, "sharded-churn": 40, "serve-churn": 40}
#: estimates re-checked against a hand-built index (static-sweep)
DETERMINISM_CHECKS = 10
#: leading traced estimates that core.pairs_per_estimate averages
COST_PREFIX = 10


def call_seed(seed: int, index: int) -> int:
    """The per-call estimate seed of estimate ``index``."""
    return seed * 1_000_003 + index


def check_seed(seed: int, index: int) -> int:
    """Seeds of the estimates made by the output checks."""
    return seed * 1_000_003 + 900_000 + index


def rss_mb() -> float:
    """Resident memory of this process, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


@dataclass
class Context:
    cache: Path
    seed: int
    seconds: float
    trace: bool
    matrix: Any
    truth: np.ndarray
    log: Callable[[str], None]
    pace: Pace
    recorder: SpanRecorder = field(default_factory=SpanRecorder)


@dataclass
class Record:
    """One estimate of the measured loop."""

    index: int
    threshold: float
    seed: int
    value: Optional[float]
    details: Dict[str, Any]
    live: int
    stream_pos: int = 0


@dataclass
class Outcome:
    metrics: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]


# ----------------------------------------------------------------------
# targets: what a client talks to
# ----------------------------------------------------------------------
class EngineTarget:
    """An engine driven in-process (static and sharded workloads)."""

    def __init__(self, config: Any, mode: str) -> None:
        from repro import JoinEstimationEngine

        self.engine = JoinEstimationEngine(config).open()
        self.mode = mode

    def bulk(self, collection: Any) -> None:
        self.engine.ingest(collection)
        if self.mode == "auto":
            self.engine.quiesce()  # the static backend builds its index here
        else:
            self.engine.flush()

    def ingest(self, events: List[Any]) -> None:
        self.engine.ingest(events)
        self.engine.flush()

    def estimate(self, threshold: float, seed: int) -> Any:
        return self.engine.estimate(threshold, mode=self.mode, seed=seed)

    def size(self) -> int:
        return self.engine.size

    def close(self) -> None:
        self.engine.close()


class ServeTarget:
    """An in-process server and one client connection to it."""

    def __init__(self, config: Any) -> None:
        from repro import EstimationServer, ServeClient

        self.server = EstimationServer(config, listen=("127.0.0.1", 0)).start()
        self.client = ServeClient(self.server.address)

    def bulk(self, collection: Any) -> None:
        self.client.ingest(collection)
        # the write barrier also loads the second engine of the pair
        self.client.flush()

    def ingest(self, events: List[Any]) -> None:
        self.client.ingest(events)

    def estimate(self, threshold: float, seed: int) -> Any:
        return self.client.estimate(threshold, mode="exact", seed=seed)

    def size(self) -> int:
        return int(self.client.describe()["describe"]["size"])

    def busy_replies(self) -> int:
        snapshot = self.server.metrics.snapshot().to_dict()
        return int(
            sum(entry["value"] for entry in snapshot["counters"] if entry["name"] == "serve_rejected_total")
        )

    def close(self) -> None:
        self.client.close()


def shutdown_servers(servers: List[ServeTarget]) -> Callable[[], List[float]]:
    """Start shutting idle servers down, concurrently and in the background.

    Returns the call that waits for every shutdown to end and gives each
    one's seconds.  An idle shutdown mostly waits, so the untimed checks
    can run meanwhile.
    """
    seconds = [0.0] * len(servers)

    def stop(position: int) -> None:
        started = time.perf_counter()
        servers[position].server.shutdown()
        seconds[position] = time.perf_counter() - started

    threads = [threading.Thread(target=stop, args=(i,)) for i in range(len(servers))]
    for thread in threads:
        thread.start()

    def wait() -> List[float]:
        for thread in threads:
            thread.join()
        return seconds

    return wait


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _config(ctx: Context, workload: str) -> Any:
    from repro import EngineConfig

    dimension = int(ctx.matrix.shape[1])
    if workload == "static-sweep":
        return EngineConfig(backend="static", num_hashes=NUM_HASHES, seed=ctx.seed)
    if workload == "sharded-churn":
        return EngineConfig(
            backend="sharded",
            num_hashes=NUM_HASHES,
            seed=ctx.seed,
            dimension=dimension,
            options={"num_shards": NUM_SHARDS, "workers": ROUTER_WORKERS},
        )
    return EngineConfig(backend="streaming", num_hashes=NUM_HASHES, seed=ctx.seed, dimension=dimension)


def _open(ctx: Context, workload: str) -> Any:
    config = _config(ctx, workload)
    if workload == "serve-churn":
        return ServeTarget(config)
    return EngineTarget(config, "auto" if workload == "static-sweep" else "exact")


@dataclass
class SetUps:
    """Timed set-ups of one run and the servers they left running."""

    #: paced seconds of each timed set-up and of its bulk load
    seconds: List[float] = field(default_factory=list)
    bulk_seconds: List[float] = field(default_factory=list)
    #: wall-clock seconds of each timed set-up
    wall_seconds: List[float] = field(default_factory=list)
    servers: List[ServeTarget] = field(default_factory=list)
    #: lsh.hash self seconds of the traced set-up
    hash_seconds: float = 0.0


def _set_up(
    ctx: Context, workload: str, collection: Any, setups: SetUps, *, timed: bool = True, keep: bool = False
) -> Any:
    """One set-up: open, bulk ingest, first estimate.

    A kept target is the one the measured loop drives (and, in a traced
    run, the traced set-up).  Servers stay up until the run ends, when
    they are shut down together: shutdown is slow and never timed.
    """
    gc.collect()  # free the previous set-up before timing the next
    traced = ctx.trace and keep
    first_span = len(ctx.recorder.spans)
    ctx.recorder.enabled = traced
    before = ctx.pace.mark(SETUP_PROBES) if timed else 0
    started = time.perf_counter()
    target = _open(ctx, workload)
    bulk_started = time.perf_counter()
    target.bulk(collection)
    bulk_done = time.perf_counter()
    target.estimate(THRESHOLDS[0], check_seed(ctx.seed, 100 + len(setups.seconds)))
    done = time.perf_counter()
    ctx.recorder.enabled = False
    if timed:
        after = ctx.pace.mark(SETUP_PROBES) + SETUP_PROBES
        setups.seconds.append(ctx.pace.paced(done - started, before, after))
        setups.bulk_seconds.append(ctx.pace.paced(bulk_done - bulk_started, before, after))
        setups.wall_seconds.append(done - started)
    if traced:
        setups.hash_seconds = sum(
            span.self_time for span in ctx.recorder.spans[first_span:] if span.name == "lsh.hash"
        )
    if isinstance(target, ServeTarget):
        setups.servers.append(target)
    elif not keep:
        target.close()
    return target


def _set_up_target(ctx: Context, workload: str, collection: Any) -> Tuple[Any, SetUps]:
    """The target the measured loop drives, set up once and untimed.

    It is the process's first set-up, so it also absorbs the process's
    start (allocator, CPU clock).  The timed set-ups run after the loop
    (:func:`_set_up_timed`), so the loop shares the process with its own
    target only.
    """
    # the benchmark's own inputs (corpus, insert payloads) are long-lived:
    # keep them out of the collector's way so they do not slow the system
    gc.collect()
    gc.freeze()
    setups = SetUps()
    return _set_up(ctx, workload, collection, setups, timed=False, keep=True), setups


def _set_up_timed(ctx: Context, workload: str, collection: Any, setups: SetUps) -> None:
    """The timed set-ups; setup_s is their median."""
    for _ in range(SETUP_REPEATS[workload]):
        _set_up(ctx, workload, collection, setups)


def _timed(ops: List[Op], kind: str, traced: bool, call: Callable[[], Any]) -> Any:
    started = time.perf_counter()
    try:
        return call()
    finally:
        ops.append(Op(kind, started, time.perf_counter(), traced))


def _rss_growth(
    ctx: Context, workload: str, cycles: int, growth: Optional[float], baseline: float
) -> float:
    """The growth read after :data:`RSS_CYCLES`, or at the end of a shorter run."""
    if growth is not None:
        return growth
    ctx.log(f"only {cycles} of {RSS_CYCLES[workload]} cycles ran: rss_growth_mb read at the end")
    return rss_mb() - baseline


def _check_cost(records: List[Record], problems: List[str]) -> None:
    """The paper's cost model: SampleL examines at most m_L = n pairs."""
    for record in records:
        taken = record.details.get("samples_taken_l")
        if record.value is not None and taken is not None and taken > record.live:
            problems.append(
                f"estimate {record.index}: SampleL took {taken} pairs > m_L = n = {record.live}"
            )


def _log_samplel(ctx: Context, records: List[Record]) -> None:
    by_threshold: Dict[float, List[int]] = {}
    for record in records:
        if record.value is not None and "samples_taken_l" in record.details:
            by_threshold.setdefault(record.threshold, []).append(record.details["samples_taken_l"])
    for threshold in THRESHOLDS:
        taken = by_threshold.get(threshold, [])
        if taken:
            ctx.log(
                f"tau={threshold}: samples_taken_l mean {statistics.fmean(taken):.0f} "
                f"(min {min(taken)}, max {max(taken)}, {len(taken)} estimates)"
            )


def _trace_checks(
    ctx: Context,
    target: Any,
    ops: List[Op],
    cross_thread: bool,
    problems: List[str],
) -> Dict[str, float]:
    """Per-layer metrics plus the traced-equals-untraced check."""
    recorder = ctx.recorder
    layers = layer_metrics(
        recorder.spans,
        ops,
        # every cycle ends with exactly one estimate
        cycles=sum(1 for op in ops if op.kind == "estimate" and op.traced),
        main_thread=threading.get_ident(),
        cross_thread=cross_thread,
    )
    traced_estimates = [op for op in ops if op.kind == "estimate" and op.traced]
    for position, op in enumerate(traced_estimates):
        if op.pairs > op.budget:
            problems.append(
                f"traced estimate {position}: {op.pairs} pairs evaluated > m_H + m_L = {op.budget}"
            )
    prefix = traced_estimates[:COST_PREFIX]
    layers["core.pairs_per_estimate"] = (
        sum(op.pairs for op in prefix) / len(prefix) if prefix else 0.0
    )
    untraced = [op.duration for op in ops if op.kind == "estimate" and not op.traced]
    traced = [op.duration for op in traced_estimates]
    layers["obs.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
    )
    # the same calls with and without tracing give bit-identical values
    for index, threshold in enumerate(THRESHOLDS):
        seed = check_seed(ctx.seed, index)
        plain = target.estimate(threshold, seed).value
        recorder.enabled = True
        try:
            traced_value = target.estimate(threshold, seed).value
        finally:
            recorder.enabled = False
        if plain != traced_value:
            problems.append(f"traced estimate {traced_value!r} != untraced {plain!r} at tau={threshold}")
    return layers


def _paced(ctx: Context, workload: str, ops: List[Op], kind: str) -> Tuple[List[float], List[float]]:
    """(paced, wall-clock) seconds of the untraced ops of ``kind``."""
    chosen = [op for op in ops if op.kind == kind and not op.traced]
    probes = CYCLE_PROBES[workload]
    return (
        [ctx.pace.paced(op.duration, op.mark, op.mark + probes) for op in chosen],
        [op.duration for op in chosen],
    )


def _end_to_end(
    ctx: Context,
    workload: str,
    setups: SetUps,
    ops: List[Op],
    errors: List[float],
    attempted: int,
    failed: int,
    rss_growth: float,
) -> Dict[str, float]:
    estimates, wall = _paced(ctx, workload, ops, "estimate")
    ctx.log(
        f"wall clock: estimate p50 {1000.0 * percentile(wall, 50):.2f} ms, "
        f"set-up median {statistics.median(setups.wall_seconds):.3f} s; host pace "
        f"{ctx.pace.factor():.3f} x the reference over {len(ctx.pace.probes)} probes"
    )
    return {
        "setup_s": statistics.median(setups.seconds),
        "estimate_p50_ms": 1000.0 * percentile(estimates, 50),
        "estimate_p80_ms": 1000.0 * percentile(estimates, TAIL),
        "success_frac": 1.0 - failed / attempted if attempted else 0.0,
        "abs_rel_error_p50": float(np.median(errors)) if errors else float("nan"),
        "rss_growth_mb": rss_growth,
    }


# ----------------------------------------------------------------------
# static-sweep
# ----------------------------------------------------------------------
def run_static(ctx: Context, collection: Any, rss_baseline: float) -> Outcome:
    from repro import LSHIndex, LSHSSEstimator, ReproError

    target, setups = _set_up_target(ctx, "static-sweep", collection)
    ops: List[Op] = []
    records: List[Record] = []
    failed = 0
    problems: List[str] = []
    live = collection.size
    rss_growth: Optional[float] = None
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while time.perf_counter() < deadline:
        threshold = THRESHOLDS[index % len(THRESHOLDS)]
        seed = call_seed(ctx.seed, index)
        traced = ctx.trace and index % 2 == 1
        ctx.recorder.enabled = traced
        try:
            result = _timed(ops, "estimate", traced, lambda: target.estimate(threshold, seed))
        except ReproError as error:
            failed += 1
            problems.append(f"estimate {index} failed: {error!r}")
            result = None
        finally:
            ctx.recorder.enabled = False
        ops[-1].mark = ctx.pace.mark(CYCLE_PROBES["static-sweep"])
        records.append(
            Record(index, threshold, seed, None if result is None else result.value,
                   {} if result is None else result.details, live)
        )
        index += 1
        if index == RSS_CYCLES["static-sweep"]:
            rss_growth = rss_mb() - rss_baseline
    rss_growth = _rss_growth(ctx, "static-sweep", index, rss_growth, rss_baseline)
    attempted = len(ops)
    _set_up_timed(ctx, "static-sweep", collection, setups)

    # the engine's determinism contract: a hand-built index from seed + 1
    reference_index = LSHIndex(collection, num_hashes=NUM_HASHES, random_state=ctx.seed + 1)
    reference = LSHSSEstimator(reference_index.primary_table)
    for record in records[:DETERMINISM_CHECKS]:
        attempted += 1
        expected = reference.estimate(record.threshold, random_state=record.seed).value
        if record.value != expected:
            failed += 1
            problems.append(
                f"estimate {record.index}: engine {record.value!r} != hand-built {expected!r}"
            )
    _check_cost(records, problems)
    _log_samplel(ctx, records)
    truth = dict(zip(THRESHOLDS, ctx.truth))
    errors = [
        abs(record.value - truth[record.threshold]) / truth[record.threshold]
        for record in records
        if record.value is not None
    ]
    layers: Dict[str, float] = {}
    if ctx.trace:
        layers = _trace_checks(ctx, target, ops, False, problems)
        layers["lsh.setup_hash_s"] = setups.hash_seconds
    metrics = _end_to_end(ctx, "static-sweep", setups, ops, errors, attempted, failed, rss_growth)
    # the static backend's ingest is the bulk load (rows + index build)
    metrics["ingest_events_per_s"] = live / statistics.median(setups.bulk_seconds)
    metrics["ingest_batch_p80_ms"] = 1000.0 * percentile(setups.bulk_seconds, TAIL)
    ctx.log(
        f"static-sweep: {len(ops)} estimates, {len(setups.bulk_seconds)} bulk loads of {live} rows"
    )
    target.close()
    return Outcome(metrics, layers, attempted, failed, problems)


# ----------------------------------------------------------------------
# sharded-churn and serve-churn
# ----------------------------------------------------------------------
def _row_payloads(matrix: Any) -> List[Dict[int, float]]:
    """Each corpus row as a sparse ``{dimension: value}`` insert payload."""
    payloads = []
    for row in range(matrix.shape[0]):
        start, stop = matrix.indptr[row], matrix.indptr[row + 1]
        payloads.append(
            dict(zip(matrix.indices[start:stop].tolist(), matrix.data[start:stop].tolist()))
        )
    return payloads


def _events(stream: Any, payloads: List[Dict[int, float]], start: int, stop: int) -> List[Any]:
    from repro import Delete, Insert

    return [
        Insert(payloads[row]) if op == INSERT else Delete(int(vector_id))
        for op, row, vector_id in zip(
            stream.ops[start:stop].tolist(),
            stream.rows[start:stop].tolist(),
            stream.ids[start:stop].tolist(),
        )
    ]


def run_churn(ctx: Context, workload: str, collection: Any, rss_baseline: float) -> Outcome:
    from repro import EngineConfig, JoinEstimationEngine, ReproError

    stream = load_churn(ctx.cache, ctx.seed)
    payloads = _row_payloads(ctx.matrix)
    batch = BATCH_SIZE[workload]
    target, setups = _set_up_target(ctx, workload, collection)
    ops: List[Op] = []
    records: List[Record] = []
    failed = 0
    problems: List[str] = []
    live = collection.size
    position = 0
    cycle = 0
    rss_growth: Optional[float] = None
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline and position + batch <= len(stream):
        events = _events(stream, payloads, position, position + batch)
        inserts = int(np.count_nonzero(stream.ops[position : position + batch] == INSERT))
        live += 2 * inserts - batch
        position += batch
        threshold = THRESHOLDS[cycle % len(THRESHOLDS)]
        seed = call_seed(ctx.seed, cycle)
        traced = ctx.trace and cycle % 2 == 1
        ctx.recorder.enabled = traced
        result = None
        first_op = len(ops)
        try:
            _timed(ops, "ingest", traced, lambda: target.ingest(events))
            result = _timed(ops, "estimate", traced, lambda: target.estimate(threshold, seed))
        except (ReproError, OSError) as error:
            failed += 1
            problems.append(f"cycle {cycle} failed: {error!r}")
        finally:
            ctx.recorder.enabled = False
        mark = ctx.pace.mark(CYCLE_PROBES[workload])
        for op in ops[first_op:]:
            op.mark = mark
        records.append(
            Record(cycle, threshold, seed, None if result is None else result.value,
                   {} if result is None else result.details, live, position)
        )
        cycle += 1
        if cycle == RSS_CYCLES[workload]:
            rss_growth = rss_mb() - rss_baseline
    rss_growth = _rss_growth(ctx, workload, cycle, rss_growth, rss_baseline)
    attempted = len(ops)
    if position + batch > len(stream):
        problems.append("the churn stream ran out before the run ended")

    _set_up_timed(ctx, workload, collection, setups)
    ctx.log(f"set-ups took {', '.join(f'{x:.3f}' for x in setups.wall_seconds)} s (wall clock)")
    # read everything the checks need from the target, then let it go
    target_size = target.size()
    checks = [(record.threshold, record.seed, record.value) for record in records[-1:]]
    checks += [
        (threshold, check_seed(ctx.seed, index), target.estimate(threshold, check_seed(ctx.seed, index)).value)
        for index, threshold in enumerate(THRESHOLDS)
    ]
    layers: Dict[str, float] = {}
    if ctx.trace:
        layers = _trace_checks(ctx, target, ops, workload == "serve-churn", problems)
        layers["lsh.setup_hash_s"] = setups.hash_seconds
    wait_for_shutdown = None
    if workload == "serve-churn":
        layers["serve.busy_replies"] = float(sum(server.busy_replies() for server in setups.servers))
        for server in setups.servers:
            server.close()
        wait_for_shutdown = shutdown_servers(setups.servers)
    else:
        target.close()

    # exact J(tau) of the live set after every batch
    truth = ChurnTruth(ctx.matrix, ctx.truth)
    errors: List[float] = []
    previous = 0
    for record in records:
        sizes = dict(zip(THRESHOLDS, truth.advance(stream, previous, record.stream_pos)))
        previous = record.stream_pos
        if record.value is not None:
            errors.append(abs(record.value - sizes[record.threshold]) / sizes[record.threshold])

    # an in-process streaming engine replaying the same events agrees
    reference = JoinEstimationEngine(
        EngineConfig(
            backend="streaming",
            num_hashes=NUM_HASHES,
            seed=ctx.seed,
            dimension=int(ctx.matrix.shape[1]),
        )
    ).open()
    reference.ingest(collection)
    reference.ingest(_events(stream, payloads, 0, position))
    attempted += 1
    sizes = (target_size, reference.size, len(truth.live_rows), live)
    if len(set(sizes)) != 1:
        failed += 1
        problems.append(f"live sizes disagree (target, reference, truth, stream): {sizes}")
    for threshold, seed, value in checks:
        attempted += 1
        expected = reference.estimate(threshold, mode="exact", seed=seed).value
        if value != expected:
            failed += 1
            problems.append(
                f"{workload} exact estimate {value!r} != streaming replay {expected!r} "
                f"at tau={threshold}, seed={seed}"
            )
    reference.close()
    _check_cost(records, problems)
    _log_samplel(ctx, records)

    metrics = _end_to_end(ctx, workload, setups, ops, errors, attempted, failed, rss_growth)
    ingests, _ = _paced(ctx, workload, ops, "ingest")
    metrics["ingest_events_per_s"] = batch / statistics.median(ingests) if ingests else 0.0
    metrics["ingest_batch_p80_ms"] = 1000.0 * percentile(ingests, TAIL)
    ctx.log(
        f"{workload}: {cycle} cycles of {batch} events + 1 exact estimate, "
        f"{position} events, live set {live}"
    )
    if wait_for_shutdown is not None:
        seconds = wait_for_shutdown()
        layers["serve.shutdown_s"] = statistics.median(seconds)
        ctx.log(f"idle server shutdown took {', '.join(f'{s:.2f}' for s in seconds)} s")
    return Outcome(metrics, layers, attempted, failed, problems)
