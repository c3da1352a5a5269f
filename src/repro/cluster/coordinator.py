"""The cluster coordinator: a ``ShardedMutableIndex`` whose shards are processes.

:class:`ClusterCoordinator` subclasses
:class:`~repro.shard.sharded_index.ShardedMutableIndex` and swaps the
in-process shards for **worker processes**: each
:class:`~repro.shard.sharded_index.IndexShard` holds a
:class:`RemoteIndexProxy` / :class:`RemoteEstimatorProxy` pair speaking
the length-prefixed pickle protocol of :mod:`repro.cluster.transport` to
one :mod:`repro.cluster.worker` process.  Everything above the shard
boundary — bucket-key routing, the global SampleH stitch, rebalance
planning, the merged estimator — is inherited *unchanged*, which is what
keeps the exact-mode estimates of a process cluster bit-identical to an
unsharded estimator for the same seed:

* hashing and partitioning stay on the coordinator (it owns the hash
  families; workers receive already-hashed batch slices), so ids, bucket
  keys, and shard targets are assigned exactly as in process;
* the merge layer's three remote touch points —
  :meth:`_bucket_members_on_shard`, :meth:`_gather_rows_on_shard`, and
  the per-shard SampleH/SampleL fallbacks — return the same values a
  local shard would, and sampling draws executed worker-side ship the
  coordinator's generator state in and out, consuming its stream exactly
  like a local draw;
* per-shard ``size`` / ``N_H`` live in coordinator-side mirrors updated
  from every mutating reply, so strata sizes never need a round trip.

Ingest is where the processes pay off: :meth:`commit_batch` *pipelines*
a routed batch — every worker receives its slice before any reply is
awaited, and the coordinator performs its own merge bookkeeping while
the workers ingest in parallel (real parallelism: separate processes,
no GIL).

Failure model: every request carries a timeout; a worker that crashed or
hung raises :class:`~repro.errors.WorkerCrashError` naming the shard
instead of hanging the coordinator.  Because a transport failure can
leave a pipelined commit half-applied, it marks the whole cluster
*broken*: further operations raise, and :meth:`close` falls back from
the graceful shutdown handshake to terminating the worker processes.
``close`` is idempotent and always reaps every spawned process.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import secrets
import socket
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.cluster.transport import (
    PROTOCOL_VERSION,
    Connection,
    parse_address,
)
from repro.cluster.worker import run_spawned_worker
from repro.errors import ClusterError, ValidationError, WorkerCrashError
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.tracing import current_trace_context, get_tracer, trace
from repro.rng import RandomState, ensure_rng, generator_state, spawn
from repro.shard.sharded_index import IndexShard, PreparedBatch, ShardedMutableIndex
from repro.streaming.mutable_index import restore_estimator_states
from repro.streaming.rowstore import csr_from_segments

DEFAULT_REQUEST_TIMEOUT = 120.0
DEFAULT_SPAWN_TIMEOUT = 120.0
_SHUTDOWN_GRACE = 5.0


def _default_start_method() -> str:
    """Prefer ``forkserver``: cheap forks from a warm server *and* no
    inheritance of the coordinator's sockets (a fork-inherited duplicate
    of another worker's connection would keep that worker from ever
    seeing EOF after a coordinator crash)."""
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


class WorkerHandle:
    """One worker process/endpoint: connection, liveness, shutdown."""

    def __init__(
        self,
        shard_id: int,
        conn: Connection,
        coordinator: "ClusterCoordinator",
        *,
        process: Any = None,
        pid: Optional[int] = None,
        address: Optional[Tuple[str, int]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.conn = conn
        self.process = process
        self.pid = pid
        self.address = address
        self.broken = False
        #: cumulative seconds the coordinator spent blocked on this
        #: worker's replies (operational telemetry; bench_cluster derives
        #: the coordinator-stage time of its pipeline model from it)
        self.blocked_seconds = 0.0
        #: worker-reported handler wall time of the most recent reply
        #: (from the reply meta envelope; 0.0 before the first reply)
        self.last_op_seconds = 0.0
        self._coordinator = coordinator
        self._metrics = coordinator.metrics
        self._op_counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def describe(self) -> str:
        if self.address is not None:
            return f"at {self.address[0]}:{self.address[1]} (pid {self.pid})"
        return f"(spawned, pid {self.pid})"

    @property
    def alive(self) -> bool:
        if self.broken:
            return False
        if self.process is not None:
            return self.process.is_alive()
        return not self.conn.closed

    def _check(self) -> None:
        if self.broken:
            raise WorkerCrashError(
                f"shard {self.shard_id} worker {self.describe()} is gone "
                "(earlier transport failure)"
            )
        self._coordinator._check_usable()

    def _fail(self, error: BaseException, op: str) -> None:
        self.broken = True
        self._coordinator._mark_broken(
            f"shard {self.shard_id} worker {self.describe()} failed during {op!r}"
        )
        raise WorkerCrashError(
            f"shard {self.shard_id} worker {self.describe()} died or stopped "
            f"responding during {op!r}: {error}"
        ) from error

    # ------------------------------------------------------------------
    def send_request(self, op: str, payload: Any = None) -> None:
        """First half of a pipelined request (reply via :meth:`recv_reply`).

        The caller's trace context (if a span is open) rides along in the
        frame meta, so worker-side spans stitch into the caller's tree;
        retries of the same logical request reship the *same* context.
        """
        self._check()
        counter = self._op_counters.get(op)
        if counter is None:
            counter = self._op_counters[op] = self._metrics.counter(
                "cluster_requests_total", op=op
            )
        counter.inc()
        trace_ctx = current_trace_context()
        try:
            self.conn.send(op, payload, {"trace": trace_ctx} if trace_ctx else None)
        except WorkerCrashError as error:
            self._fail(error, op)

    def recv_reply(self, op: str) -> Any:
        """Await the reply of an earlier :meth:`send_request`.

        Worker-side *operation* errors re-raise as their own library
        types (the stream stays aligned — the worker survives them);
        transport errors mark the worker, and the cluster, broken.

        The reply meta envelope is unpacked here: ``seconds`` lands in
        :attr:`last_op_seconds` (even for error replies) and shipped-back
        worker spans are adopted into the coordinator's tracer.
        """
        started = time.perf_counter()
        try:
            return self.conn.recv_reply(context=f"shard {self.shard_id} op {op!r}")
        except WorkerCrashError as error:
            self._fail(error, op)
        finally:
            self.blocked_seconds += time.perf_counter() - started
            meta = self.conn.last_meta
            self.last_op_seconds = float(meta.get("seconds", 0.0))
            spans = meta.get("spans")
            if spans:
                get_tracer().adopt(spans)

    def request(self, op: str, payload: Any = None) -> Any:
        self.send_request(op, payload)
        return self.recv_reply(op)

    # ------------------------------------------------------------------
    def stop(self, *, graceful: bool = True) -> None:
        """End the session and reap the process; never hangs, never raises."""
        if not self.conn.closed:
            if graceful and not self.broken:
                with contextlib.suppress(Exception):  # reprolint: disable=R007 - best-effort goodbye to a possibly-dead peer; terminate follows either way
                    self.conn.set_timeout(_SHUTDOWN_GRACE)
                    self.conn.send("shutdown")
                    self.conn.recv()
            self.conn.close()
        if self.process is not None:
            self.process.join(timeout=_SHUTDOWN_GRACE)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join(timeout=1.0)


class _RemoteTableProxy:
    """The ``primary_table`` stand-in of one remote shard.

    Signature keys and bucket sizes answer from the coordinator's own
    facade columns (it routed every insert, so it knows each live id's
    primary bucket); only bucket *contents* go to the worker.
    """

    def __init__(self, index: "RemoteIndexProxy") -> None:
        self._index = index

    @property
    def num_vectors(self) -> int:
        return self._index.size

    @property
    def num_hashes(self) -> int:
        return self._index.num_hashes

    @property
    def num_collision_pairs(self) -> int:
        return self._index.num_collision_pairs

    @property
    def num_buckets(self) -> int:
        return int(self._index._handle.request("stats")["num_buckets"])

    def signature_key(self, vector_id: int) -> bytes:
        return self._index._owner.primary_table.signature_key(vector_id)

    def bucket_size_of(self, vector_id: int) -> int:
        return self._index._owner.primary_table.bucket_size_of(vector_id)

    def same_bucket(self, u: int, v: int) -> bool:
        return self._index._owner.primary_table.same_bucket(u, v)

    def bucket_members_by_key(self, key: bytes) -> List[int]:
        return self._index._handle.request("bucket_members", {"keys": [key]})["members"][0]


class RemoteIndexProxy:
    """The ``MutableLSHIndex`` surface of one shard, served by a worker.

    Keeps coordinator-side mirrors of the shard's live-id order (same
    append / swap-pop discipline the worker applies, so ``ids`` matches
    the worker's order element for element) and of ``N_H`` (updated from
    every mutating reply), so the statistics the merge layer reads per
    estimate cost no round trips.
    """

    def __init__(self, owner: "ClusterCoordinator", handle: WorkerHandle) -> None:
        self._owner = owner
        self._handle = handle
        self._live_ids: List[int] = []
        self._live_position: Dict[int, int] = {}
        self._num_collision_pairs = 0
        #: cumulative worker-side ingest compute (from insert replies)
        self.worker_ingest_seconds = 0.0
        self.primary_table = _RemoteTableProxy(self)

    # -- statistics (coordinator-local) --------------------------------
    @property
    def dimension(self) -> int:
        return self._owner.dimension

    @property
    def num_hashes(self) -> int:
        return self._owner.num_hashes

    @property
    def num_tables(self) -> int:
        return self._owner.num_tables

    @property
    def size(self) -> int:
        return len(self._live_ids)

    @property
    def ids(self) -> np.ndarray:
        return np.asarray(self._live_ids, dtype=np.int64)

    @property
    def total_pairs(self) -> int:
        n = self.size
        return n * (n - 1) // 2

    @property
    def num_collision_pairs(self) -> int:
        return self._num_collision_pairs

    @property
    def num_non_collision_pairs(self) -> int:
        return self.total_pairs - self._num_collision_pairs

    @property
    def estimators(self) -> Tuple[object, ...]:
        return ()

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._live_position

    def __len__(self) -> int:
        return self.size

    # -- mirror maintenance --------------------------------------------
    def _apply_stats(self, reply: Mapping[str, Any]) -> None:
        self._num_collision_pairs = int(reply["num_collision_pairs"])
        if int(reply["size"]) != self.size:
            raise ClusterError(
                f"shard {self._handle.shard_id} drifted: worker holds "
                f"{reply['size']} vectors, coordinator mirror {self.size}"
            )

    def _mirror_insert_many(self, ids: Sequence[int]) -> None:
        for vector_id in ids:
            self._live_position[int(vector_id)] = len(self._live_ids)
            self._live_ids.append(int(vector_id))

    def _mirror_delete(self, vector_id: int) -> None:
        # same swap-pop the worker's index performs, keeping orders equal
        position = self._live_position.pop(vector_id)
        last = self._live_ids.pop()
        if last != vector_id:
            self._live_ids[position] = last
            self._live_position[last] = position

    def _load_state_mirror(self, state: Mapping[str, Any], reply: Mapping[str, Any]) -> None:
        self._live_ids = [int(i) for i in state["live_ids"]]
        self._live_position = {
            vector_id: position for position, vector_id in enumerate(self._live_ids)
        }
        self._apply_stats(reply)

    # -- mutation -------------------------------------------------------
    def _insert_prepared(self, vector_id: int, row: Any, signatures: Any) -> int:
        reply = self._handle.request(
            "insert_prepared",
            {
                "ids": np.asarray([int(vector_id)], dtype=np.int64),
                "csr": row,
                "signatures": [np.asarray(signature)[None, :] for signature in signatures],
            },
        )
        self._mirror_insert_many([int(vector_id)])
        self._apply_stats(reply)
        # ingest accounting draws on the reply meta's handler wall time;
        # only insert ops count (delete/check report seconds too now)
        self.worker_ingest_seconds += self._handle.last_op_seconds
        return int(vector_id)

    def insert_many_prepared(self, ids: Any, csr: Any, signatures: Any) -> np.ndarray:
        reply = self._handle.request(
            "insert_prepared", {"ids": ids, "csr": csr, "signatures": list(signatures)}
        )
        self._mirror_insert_many(ids)
        self._apply_stats(reply)
        self.worker_ingest_seconds += self._handle.last_op_seconds
        return ids

    def delete(self, vector_id: int) -> None:
        reply = self._handle.request("delete", {"vector_id": int(vector_id)})
        self._mirror_delete(int(vector_id))
        self._apply_stats(reply)

    # -- sampling (generator-state shipping) ---------------------------
    def _sample_remote(
        self, stratum: str, sample_size: int, random_state: RandomState
    ) -> Tuple[Any, Any]:
        rng = ensure_rng(random_state)
        reply = self._handle.request(
            "sample_pairs",
            {"stratum": stratum, "count": int(sample_size), "rng": generator_state(rng)},
        )
        # adopt the advanced stream position: the remote draw consumed
        # the caller's generator exactly as a local draw would have
        rng.bit_generator.state = reply["rng"]
        return reply["left"], reply["right"]

    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[Any, Any]:
        return self._sample_remote("h", sample_size, random_state)

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[Any, Any]:
        return self._sample_remote("l", sample_size, random_state)

    # -- state / verification ------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        return self._handle.request("snapshot")["state"]

    def row(self, vector_id: int) -> sparse.csr_matrix:
        reply = self._handle.request(
            "gather_rows",
            {"ids": np.asarray([int(vector_id)], dtype=np.int64), "normalized": False},
        )
        return csr_from_segments(
            reply["data"], reply["indices"], reply["lengths"], self.dimension
        )

    def check_invariants(self) -> None:
        reply = self._handle.request("check")
        self._apply_stats(reply)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RemoteIndexProxy(shard={self._handle.shard_id}, n={self.size}, "
            f"NH={self._num_collision_pairs}, worker={self._handle.describe()})"
        )


class RemoteEstimatorProxy:
    """The worker-hosted :class:`StreamingEstimator`, as seen by the merge layer."""

    def __init__(self, handle: WorkerHandle) -> None:
        self._handle = handle
        self._cached: Dict[str, Dict[str, Any]] = {}

    def _fetch(self, stratum: str) -> Dict[str, Any]:
        reply = self._handle.request("reservoir", {"stratum": stratum})
        self._cached[stratum] = reply
        return reply

    def reservoir_usable(self, stratum: str) -> bool:
        # one fetch answers both the usability probe and the immediately
        # following reservoir_pairs call of the merge layer
        return bool(self._fetch(stratum)["usable"])

    def reservoir_pairs(self, stratum: str) -> Tuple[Any, Any]:
        reply = self._cached.pop(stratum, None)
        if reply is None:
            reply = self._fetch(stratum)
            self._cached.pop(stratum, None)
        return reply["left"], reply["right"]

    def account_for_migration(
        self,
        *,
        departed_ids: Sequence[int] = (),
        unseen_collision_pairs: int = 0,
        unseen_non_collision_pairs: int = 0,
    ) -> None:
        self._handle.request(
            "account_migration",
            {
                "departed_ids": [int(i) for i in departed_ids],
                "unseen_collision_pairs": int(unseen_collision_pairs),
                "unseen_non_collision_pairs": int(unseen_non_collision_pairs),
            },
        )

    def close(self) -> None:
        if not self._handle.broken and not self._handle.conn.closed:
            self._handle.request("close_estimator")


class ClusterCoordinator(ShardedMutableIndex):
    """A :class:`ShardedMutableIndex` served by one worker process per shard.

    Parameters beyond the inherited ones
    ------------------------------------
    addresses:
        ``["host:port", …]`` of pre-started ``repro worker`` processes,
        one per shard.  When omitted (the default) the coordinator
        spawns local worker processes itself and reaps them on
        :meth:`close`.
    token:
        Shared handshake secret.  Auto-generated for spawned workers;
        for external workers pass the value their ``--token`` expects.
    request_timeout:
        Seconds before a pending worker reply raises
        :class:`~repro.errors.WorkerCrashError` instead of blocking
        forever.
    start_method:
        ``multiprocessing`` start method for spawned workers (default:
        ``forkserver`` where available, else ``spawn`` — both keep the
        coordinator's sockets out of the children).
    """

    def __init__(
        self,
        dimension: int,
        *,
        num_shards: int = 4,
        num_hashes: int = 20,
        num_tables: int = 1,
        family: Any = "cosine",
        random_state: RandomState = None,
        partitioner: Any = "modulo",
        shard_estimators: bool = True,
        estimator_kwargs: Optional[Dict[str, object]] = None,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        token: Optional[str] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._init_cluster_plumbing(
            addresses=addresses,
            token=token,
            request_timeout=request_timeout,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
            metrics=metrics,
        )
        if self._addresses is not None and len(self._addresses) != int(num_shards):
            self.close()
            raise ValidationError(
                f"got {len(self._addresses)} worker addresses for "
                f"{num_shards} shards (need exactly one each)"
            )
        try:
            super().__init__(
                dimension,
                num_shards=num_shards,
                num_hashes=num_hashes,
                num_tables=num_tables,
                family=family,
                random_state=random_state,
                partitioner=partitioner,
                shard_estimators=shard_estimators,
                estimator_kwargs=estimator_kwargs,
            )
        except BaseException:  # reprolint: disable=R007 - cleanup-and-reraise
            # never leak worker processes from a half-built coordinator
            self.close()
            raise

    def _init_cluster_plumbing(
        self,
        *,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]],
        token: Optional[str],
        request_timeout: Optional[float],
        spawn_timeout: float,
        start_method: Optional[str],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._metrics = metrics  # resolved lazily by the `metrics` property
        self._handles: List[WorkerHandle] = []
        self._broken: Optional[str] = None
        self._closed = False
        self._addresses = (
            [parse_address(a) if isinstance(a, str) else (str(a[0]), int(a[1])) for a in addresses]
            if addresses
            else None
        )
        self._token = token if token is not None else secrets.token_hex(16)
        self._request_timeout = request_timeout
        self._spawn_timeout = float(spawn_timeout)
        self._start_method = start_method
        self._mp_context = None
        self._listener: Optional[socket.socket] = None
        if self._addresses is None:
            self._listener = socket.create_server(("127.0.0.1", 0))
            self._listener.settimeout(1.0)

    # ------------------------------------------------------------------
    # lifecycle / failure bookkeeping
    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._closed:
            raise ClusterError("the cluster coordinator is closed")
        if self._broken is not None:
            raise ClusterError(
                f"the cluster is broken ({self._broken}); its state may be "
                "partially applied — restore a snapshot onto a fresh cluster"
            )

    def _mark_broken(self, reason: str) -> None:
        if self._broken is None:
            self._broken = reason

    @property
    def broken(self) -> Optional[str]:
        """Why the cluster became unusable, or ``None`` while healthy."""
        return self._broken

    def close(self) -> None:
        """Shut down every worker; idempotent, never hangs.

        Healthy workers get the ``shutdown`` handshake; broken ones (or
        any that ignore it) are terminated and, as a last resort,
        killed.  Spawned processes are always reaped.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.stop(graceful=self._broken is None)
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
            self._listener = None

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    @property
    def worker_infos(self) -> List[Dict[str, Any]]:
        """Shard → worker diagnostics (pid, endpoint, liveness)."""
        return [
            {
                "shard_id": handle.shard_id,
                "pid": handle.pid,
                "address": None
                if handle.address is None
                else f"{handle.address[0]}:{handle.address[1]}",
                "spawned": handle.process is not None,
                "alive": handle.alive,
            }
            for handle in self._handles
        ]

    def stats(self) -> Dict[str, Any]:
        """Cluster-wide operational statistics in one batched round trip.

        Sends ``stats`` (with the metrics opt-in) to every worker before
        awaiting any reply — the fan-out costs one round-trip latency,
        not one per shard.  Returns per-worker rows (size, buckets,
        staleness, :attr:`WorkerHandle.blocked_seconds`,
        :attr:`RemoteIndexProxy.worker_ingest_seconds`) plus a single
        merged metrics snapshot: the coordinator's own registry folded
        together with every worker's process-global registry.
        """
        self._check_usable()
        with trace("cluster.stats", shards=len(self.shards)):
            for shard in self.shards:
                shard.index._handle.send_request("stats", {"metrics": True})
            merged = self.metrics.snapshot()
            workers: List[Dict[str, Any]] = []
            for shard in self.shards:
                handle = shard.index._handle
                reply = dict(handle.recv_reply("stats"))
                worker_metrics = reply.pop("metrics", None)
                if worker_metrics:
                    merged = merged.merge(MetricsSnapshot.from_dict(worker_metrics))
                row: Dict[str, Any] = {
                    "shard_id": handle.shard_id,
                    "pid": handle.pid,
                    "address": None
                    if handle.address is None
                    else f"{handle.address[0]}:{handle.address[1]}",
                    "alive": handle.alive,
                    "blocked_seconds": handle.blocked_seconds,
                    "worker_ingest_seconds": shard.index.worker_ingest_seconds,
                }
                for key in ("size", "num_buckets", "staleness_h", "staleness_l"):
                    if key in reply:
                        row[key] = reply[key]
                workers.append(row)
            return {"workers": workers, "metrics": merged.to_dict()}

    # ------------------------------------------------------------------
    # worker construction
    # ------------------------------------------------------------------
    def _context(self) -> Any:
        if self._mp_context is None:
            method = self._start_method or _default_start_method()
            context = multiprocessing.get_context(method)
            if method == "forkserver":
                # pre-import the worker stack (numpy/scipy) once, so
                # every later worker forks from a warm server
                with contextlib.suppress(Exception):  # reprolint: disable=R007 - preload is a warm-up optimisation; a cold forkserver is still correct
                    context.set_forkserver_preload(["repro.cluster.worker"])
            self._mp_context = context
        return self._mp_context

    def _spawn_worker(self, shard_id: int) -> WorkerHandle:
        host, port = self._listener.getsockname()[:2]
        process = self._context().Process(
            target=run_spawned_worker,
            args=(host, port, self._token, shard_id),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        deadline = time.monotonic() + self._spawn_timeout
        while True:
            try:
                client, _peer = self._listener.accept()
                break
            except socket.timeout:
                if process.exitcode is not None:
                    raise WorkerCrashError(
                        f"shard {shard_id} worker exited with code "
                        f"{process.exitcode} before connecting"
                    ) from None
                if time.monotonic() > deadline:
                    process.terminate()
                    raise WorkerCrashError(
                        f"shard {shard_id} worker did not connect within "
                        f"{self._spawn_timeout:.0f}s"
                    ) from None
        conn = Connection(client, timeout=self._request_timeout, metrics=self.metrics)
        try:
            op, payload, _meta = conn.recv()
            if op != "hello":
                raise ClusterError(f"expected worker 'hello', got {op!r}")
            payload = payload or {}
            if payload.get("token") != self._token:
                raise ClusterError("a connecting worker presented a wrong token")
            if int(payload.get("protocol", -1)) != PROTOCOL_VERSION:
                raise ClusterError(
                    f"worker speaks protocol {payload.get('protocol')!r}, "
                    f"coordinator speaks {PROTOCOL_VERSION}"
                )
            if int(payload.get("shard_id", -1)) != shard_id:
                raise ClusterError(
                    f"worker identified as shard {payload.get('shard_id')!r}, "
                    f"expected {shard_id}"
                )
            conn.send("ok", {"protocol": PROTOCOL_VERSION})
        except BaseException:  # reprolint: disable=R007 - never leak the spawned process on a failed handshake
            conn.close()
            process.terminate()
            raise
        return WorkerHandle(
            shard_id, conn, self, process=process, pid=payload.get("pid")
        )

    def _connect_external(self, shard_id: int) -> WorkerHandle:
        if shard_id >= len(self._addresses):
            raise ClusterError(
                f"no worker address for shard {shard_id}: an address-connected "
                f"cluster cannot grow beyond its {len(self._addresses)} "
                "configured workers"
            )
        address = self._addresses[shard_id]
        try:
            sock = socket.create_connection(address, timeout=self._request_timeout)
        except OSError as error:
            raise WorkerCrashError(
                f"cannot reach the shard {shard_id} worker at "
                f"{address[0]}:{address[1]}: {error}"
            ) from error
        conn = Connection(sock, timeout=self._request_timeout, metrics=self.metrics)
        try:
            conn.send(
                "hello",
                {"protocol": PROTOCOL_VERSION, "token": self._token, "shard_id": shard_id},
            )
            payload = conn.recv_reply(context=f"handshake with shard {shard_id}")
        except BaseException:  # reprolint: disable=R007 - close the socket on a failed handshake before re-raising
            conn.close()
            raise
        return WorkerHandle(
            shard_id, conn, self, pid=(payload or {}).get("pid"), address=address
        )

    def _connect_worker(self, shard_id: int) -> WorkerHandle:
        if self._addresses is not None:
            return self._connect_external(shard_id)
        return self._spawn_worker(shard_id)

    def _new_shard(self, shard_id: int, estimator_rng: RandomState = None) -> IndexShard:
        """Bring up (or dial) one worker and configure its empty shard."""
        handle = self._connect_worker(shard_id)
        try:
            reply = handle.request(
                "configure",
                {
                    "shard_id": shard_id,
                    "dimension": self.dimension,
                    "num_hashes": self.num_hashes,
                    "num_tables": self.num_tables,
                    "families": self.families,
                    "shard_estimators": self._shard_estimators,
                    "estimator_kwargs": self._estimator_kwargs,
                    "estimator_rng": estimator_rng,
                },
            )
        except BaseException:  # reprolint: disable=R007 - reap the worker whose bootstrap failed before re-raising
            handle.stop(graceful=False)
            raise
        self._handles.append(handle)
        proxy = RemoteIndexProxy(self, handle)
        proxy._apply_stats(reply)
        estimator = RemoteEstimatorProxy(handle) if self._shard_estimators else None
        return IndexShard(shard_id, proxy, estimator)

    def drop_trailing_shards(self, new_total: int) -> None:
        dropped = self._handles[new_total:]
        super().drop_trailing_shards(new_total)  # validates emptiness first
        for handle in dropped:
            handle.stop(graceful=True)
        del self._handles[new_total:]

    # ------------------------------------------------------------------
    # merge-layer touch points (one batched round trip per shard)
    # ------------------------------------------------------------------
    def _bucket_members_on_shard(self, shard_id: int, keys: Sequence[bytes]) -> List[List[int]]:
        return self._handles[shard_id].request("bucket_members", {"keys": list(keys)})[
            "members"
        ]

    def _gather_rows_on_shard(
        self, shard_id: int, ids: np.ndarray, *, normalized: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        reply = self._handles[shard_id].request(
            "gather_rows",
            {"ids": np.asarray(ids, dtype=np.int64), "normalized": normalized},
        )
        return reply["data"], reply["indices"], reply["lengths"]

    # ------------------------------------------------------------------
    # mutation (pipelined ingest)
    # ------------------------------------------------------------------
    def delete(self, vector_id: int) -> None:
        self._check_usable()
        super().delete(vector_id)

    def commit_batch(self, batch: PreparedBatch, *, executor: Any = None) -> np.ndarray:
        """Apply a prepared batch with every worker ingesting in parallel.

        All shard slices are *sent* before any reply is awaited
        (``executor`` is accepted for interface compatibility and
        ignored — process parallelism replaces the thread pool), and the
        coordinator interleaves its own merge bookkeeping with the
        workers' ingest.  A transport failure mid-commit leaves shard
        slices partially applied, so it marks the cluster broken — the
        router layer above then refuses further flushes, exactly like an
        in-process partial commit.
        """
        self._check_usable()
        histogram, rows_total = self._commit_instruments()
        commit_started = time.perf_counter()
        with trace("cluster.commit_batch", rows=len(batch)):
            jobs = []
            for shard in self.shards:
                rows = np.flatnonzero(batch.shard_ids == shard.shard_id)
                if rows.size == 0:
                    continue
                payload = {
                    "ids": batch.ids[rows],
                    "csr": batch.csr[rows],
                    "signatures": [
                        table_signatures[rows] for table_signatures in batch.signatures
                    ],
                }
                jobs.append((shard, payload))
            for shard, payload in jobs:
                shard.index._handle.send_request("insert_prepared", payload)
            # merge bookkeeping overlaps with the workers' bucket inserts
            for position in range(len(batch)):
                self._track_insert(
                    int(batch.ids[position]), batch.keys[position], int(batch.shard_ids[position])
                )
            for shard, payload in jobs:
                reply = shard.index._handle.recv_reply("insert_prepared")
                shard.index._mirror_insert_many(payload["ids"])
                shard.index._apply_stats(reply)
                shard.index.worker_ingest_seconds += shard.index._handle.last_op_seconds
            for position in range(len(batch)):
                vector_id = int(batch.ids[position])
                for observer in self._observers:
                    observer.on_insert(vector_id)
        histogram.observe(time.perf_counter() - commit_started)
        rows_total.inc(len(batch))
        return batch.ids

    # ------------------------------------------------------------------
    # snapshot / restore / rebalance substrate
    # ------------------------------------------------------------------
    def _adopt_shard_state(self, shard_id: int, state: Mapping[str, Any]) -> None:
        """Ship a split/spliced shard state to its worker (remote rebalance)."""
        self._check_usable()
        handle = self._handles[shard_id]
        reply = handle.request(
            "restore",
            {
                "state": state,
                "shard_id": shard_id,
                "shard_estimators": self._shard_estimators,
                "estimator_kwargs": self._estimator_kwargs,
                "build_missing": False,
            },
        )
        proxy = self.shards[shard_id].index
        proxy._load_state_mirror(state, reply)
        self.shards[shard_id].estimator = (
            RemoteEstimatorProxy(handle) if reply["has_estimator"] else None
        )

    @classmethod
    def from_state(
        cls,
        state: Mapping[str, Any],
        *,
        estimator_seed: RandomState = None,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        token: Optional[str] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ClusterCoordinator":
        """Revive a cluster from a :meth:`ShardedMutableIndex.to_state` snapshot.

        Snapshots are portable across deployment shapes: the same state
        an in-process cluster writes restores here (each shard state is
        shipped to a fresh worker), and vice versa.
        """
        state = cls._unwrap_sharded_state(state)
        cluster = cls.__new__(cls)
        cluster._init_cluster_plumbing(
            addresses=addresses,
            token=token,
            request_timeout=request_timeout,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
            metrics=metrics,
        )
        try:
            num_shards = int(state["num_shards"])
            if cluster._addresses is not None and len(cluster._addresses) != num_shards:
                raise ValidationError(
                    f"got {len(cluster._addresses)} worker addresses for a "
                    f"{num_shards}-shard snapshot"
                )
            cluster._restore_facade_fields(state)
            shard_states = state["shards"]
            cluster.families = shard_states[0]["families"] if shard_states else []
            estimator_rngs = spawn(ensure_rng(estimator_seed), num_shards)
            cluster.shards = []
            for shard_id, shard_state in enumerate(shard_states):
                handle = cluster._connect_worker(shard_id)
                cluster._handles.append(handle)
                reply = handle.request(
                    "restore",
                    {
                        "state": shard_state,
                        "shard_id": shard_id,
                        "shard_estimators": cluster._shard_estimators,
                        "estimator_kwargs": cluster._estimator_kwargs,
                        "estimator_rng": estimator_rngs[shard_id],
                        "build_missing": True,
                    },
                )
                proxy = RemoteIndexProxy(cluster, handle)
                proxy._load_state_mirror(shard_state, reply)
                estimator = RemoteEstimatorProxy(handle) if reply["has_estimator"] else None
                cluster.shards.append(IndexShard(shard_id, proxy, estimator))
            cluster._restore_facade_bookkeeping(state)
            cluster._refresh_owner_alignment()
            restore_estimator_states(cluster, state.get("estimators", ()))
        except BaseException:  # reprolint: disable=R007 - unwind the half-restored cluster before re-raising
            cluster.close()
            raise
        return cluster

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify coordinator mirrors against every worker's bookkeeping."""
        self._check_usable()
        if self.partitioner.num_shards != len(self.shards):
            raise AssertionError(
                f"partitioner covers {self.partitioner.num_shards} shards, "
                f"cluster has {len(self.shards)}"
            )
        total_buckets = 0
        for shard in self.shards:
            reply = shard.index._handle.request("check")  # worker-side invariants
            if int(reply["size"]) != shard.index.size:
                raise AssertionError(
                    f"shard {shard.shard_id} live-id mirror drifted from the worker"
                )
            if int(reply["num_collision_pairs"]) != shard.index.num_collision_pairs:
                raise AssertionError(
                    f"shard {shard.shard_id} N_H mirror drifted from the worker"
                )
            total_buckets += int(reply["num_buckets"])
        if sum(shard.size for shard in self.shards) != self.size:
            raise AssertionError("facade live-id count drifted from the shard mirrors")
        if total_buckets != len(self._bucket_refs):
            raise AssertionError("bucket key registry drifted from the workers")
        wanted: Dict[int, List[bytes]] = {}
        for key, ref in self._bucket_refs.items():
            wanted.setdefault(ref[1], []).append(key)
        self._check_bucket_registry(
            (key, members)
            for shard_id, keys in wanted.items()
            for key, members in zip(keys, self._bucket_members_on_shard(shard_id, keys))
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "closed" if self._closed else ("broken" if self._broken else "live")
        return (
            f"ClusterCoordinator(n={self.size}, shards={self.num_shards}, "
            f"d={self.dimension}, k={self.num_hashes}, {status})"
        )


__all__ = [
    "ClusterCoordinator",
    "RemoteIndexProxy",
    "RemoteEstimatorProxy",
    "WorkerHandle",
    "DEFAULT_REQUEST_TIMEOUT",
]
