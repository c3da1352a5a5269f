"""The shard worker: one process hosting one mutable index + estimator.

A worker owns exactly one shard of a multi-process cluster: a
:class:`~repro.streaming.mutable_index.MutableLSHIndex` (sharing the
coordinator's hash families, shipped at configure time, so every worker
hashes identically) plus an optional locally repaired
:class:`~repro.streaming.estimator.StreamingEstimator`.  It speaks the
length-prefixed pickle protocol of :mod:`repro.cluster.transport` and
understands a small op set, all of whose payloads are the library's
existing serialisations:

=====================  ====================================================
``configure``          build an empty index from families + estimator spec
``restore``            revive the index from a ``to_state`` snapshot
``snapshot``           return the index ``to_state`` (estimators embedded)
``insert_prepared``    apply a routed batch slice (ids, CSR rows, signatures)
``delete``             delete one id; reply carries its bucket key
``bucket_members``     member lists for a batch of owned bucket keys
``gather_rows``        (normalized) row segments (data, indices, lengths)
``sample_pairs``       SampleH / SampleL draw with generator-state shipping
``reservoir``          the estimator's current reservoir pairs for a stratum
``account_migration``  repair reservoirs after a key-range migration
``close_estimator``    detach the estimator (pre-shutdown of a drained shard)
``check`` / ``stats``  invariants / size + ``N_H`` bookkeeping
``ping`` / ``shutdown``  liveness / end of session
=====================  ====================================================

Mutating ops reply with the post-op ``(size, N_H)`` so the coordinator's
local mirrors never need a second round trip.  ``sample_pairs`` ships the
coordinator's generator *state* in and the advanced state back out, so a
draw executed in the worker consumes the coordinator's stream exactly as
an in-process draw would — the keystone of the bit-identical exact mode.

Run modes: :func:`run_spawned_worker` (connect back to the coordinator
that spawned this process) and :func:`serve` (standalone ``repro
worker`` — listen on an address, serve one coordinator session at a
time).
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Dict, Optional, Tuple

from repro.cluster.transport import (
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    describe_error,
)
from repro.errors import ClusterError, ValidationError
from repro.obs.metrics import get_global_registry
from repro.obs.tracing import activate_trace_context, get_tracer, trace
from repro.rng import generator_from_state, generator_state
from repro.streaming.estimator import StreamingEstimator
from repro.streaming.mutable_index import MutableLSHIndex


class ShardWorker:
    """Dispatch table + state for one shard-hosting worker process."""

    def __init__(self, shard_id: Optional[int] = None) -> None:
        self.shard_id = shard_id
        self.index: Optional[MutableLSHIndex] = None
        self.estimator: Optional[StreamingEstimator] = None

    # ------------------------------------------------------------------
    def _require_index(self) -> MutableLSHIndex:
        if self.index is None:
            raise ClusterError("worker holds no index yet (send 'configure' or 'restore')")
        return self.index

    def _require_estimator(self) -> StreamingEstimator:
        if self.estimator is None:
            raise ClusterError("this shard carries no streaming estimator")
        return self.estimator

    def _stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "size": 0,
            "num_collision_pairs": 0,
            "num_buckets": 0,
            "has_estimator": self.estimator is not None,
        }
        if self.index is not None:
            stats["size"] = self.index.size
            stats["num_collision_pairs"] = self.index.num_collision_pairs
            stats["num_buckets"] = self.index.primary_table.num_buckets
        if self.estimator is not None:
            stats["staleness_h"] = self.estimator.staleness_h
            stats["staleness_l"] = self.estimator.staleness_l
        return stats

    def _attach_estimator(
        self,
        *,
        shard_estimators: bool,
        estimator_kwargs: Dict[str, Any],
        estimator_rng: Any,
        build_missing: bool,
    ) -> None:
        """Adopt a restored estimator, build a fresh one, or detach."""
        index = self._require_index()
        restored = index.estimators
        if not shard_estimators:
            for estimator in restored:
                estimator.close()
            self.estimator = None
        elif restored:
            self.estimator = restored[0]
        elif build_missing:
            self.estimator = StreamingEstimator(
                index, random_state=estimator_rng, **dict(estimator_kwargs or {})
            )
        else:
            self.estimator = None

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def op_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"pid": os.getpid(), "shard_id": self.shard_id, **self._stats()}

    def op_configure(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self.index is not None:
            raise ClusterError("worker is already configured")
        self.shard_id = int(payload["shard_id"])
        self.index = MutableLSHIndex(
            int(payload["dimension"]),
            num_hashes=int(payload["num_hashes"]),
            num_tables=int(payload["num_tables"]),
            families=payload["families"],
        )
        if payload.get("shard_estimators"):
            self.estimator = StreamingEstimator(
                self.index,
                random_state=payload.get("estimator_rng"),
                **dict(payload.get("estimator_kwargs") or {}),
            )
        return self._stats()

    def op_restore(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if "shard_id" in payload and payload["shard_id"] is not None:
            self.shard_id = int(payload["shard_id"])
        if self.estimator is not None:
            self.estimator.close()
            self.estimator = None
        self.index = MutableLSHIndex.from_state(payload["state"])
        self._attach_estimator(
            shard_estimators=bool(payload.get("shard_estimators")),
            estimator_kwargs=payload.get("estimator_kwargs") or {},
            estimator_rng=payload.get("estimator_rng"),
            build_missing=bool(payload.get("build_missing")),
        )
        return self._stats()

    def op_snapshot(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"state": self._require_index().to_state()}

    def op_insert_prepared(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        index = self._require_index()
        index.insert_many_prepared(payload["ids"], payload["csr"], payload["signatures"])
        return self._stats()

    def op_delete(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        index = self._require_index()
        vector_id = int(payload["vector_id"])
        key = index.primary_table.signature_key(vector_id)
        index.delete(vector_id)
        return {"key": key, **self._stats()}

    def op_bucket_members(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        table = self._require_index().primary_table
        return {
            "members": [list(table.bucket_members_by_key(key)) for key in payload["keys"]]
        }

    def op_gather_rows(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        data, indices, lengths = self._require_index()._rows.segments(
            payload["ids"], normalized=bool(payload.get("normalized"))
        )
        return {"data": data, "indices": indices, "lengths": lengths}

    def op_sample_pairs(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        index = self._require_index()
        stratum = payload["stratum"]
        rng = generator_from_state(dict(payload["rng"]))
        count = int(payload["count"])
        if stratum == "h":
            left, right = index.sample_collision_pairs(count, random_state=rng)
        elif stratum == "l":
            left, right = index.sample_non_collision_pairs(count, random_state=rng)
        else:
            raise ValidationError(f"stratum must be 'h' or 'l', got {stratum!r}")
        return {"left": left, "right": right, "rng": generator_state(rng)}

    def op_reservoir(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        estimator = self._require_estimator()
        stratum = payload["stratum"]
        usable = estimator.reservoir_usable(stratum)
        left, right = estimator.reservoir_pairs(stratum)
        return {"usable": usable, "left": left, "right": right}

    def op_account_migration(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._require_estimator().account_for_migration(
            departed_ids=payload.get("departed_ids", ()),
            unseen_collision_pairs=int(payload.get("unseen_collision_pairs", 0)),
            unseen_non_collision_pairs=int(payload.get("unseen_non_collision_pairs", 0)),
        )
        return self._stats()

    def op_close_estimator(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self.estimator is not None:
            self.estimator.close()
            self.estimator = None
        return self._stats()

    def op_check(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._require_index().check_invariants()
        return self._stats()

    def op_stats(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        stats = self._stats()
        if payload.get("metrics"):
            # opt-in: the worker's process-global registry (per-op latency
            # histograms etc.), merged coordinator-side by stats fan-outs
            stats["metrics"] = get_global_registry().snapshot().to_dict()
        return stats

    # ------------------------------------------------------------------
    def handle(self, op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise ClusterError(f"unknown worker op {op!r}")
        return handler(payload or {})


def serve_connection(conn: Connection, worker: ShardWorker) -> bool:
    """Serve one coordinator session; returns True on explicit shutdown.

    The loop survives per-op failures (the error is reported in the
    reply and the session continues) and ends cleanly on EOF — a
    coordinator that crashed without saying goodbye must not leave the
    worker process spinning.

    Telemetry lives in the reply *meta* envelope, never the payload: every
    reply carries ``{"seconds": <handler wall time>}`` (this feeds
    ``RemoteIndexProxy.worker_ingest_seconds`` and the bench_cluster
    pipeline model), and when the request meta shipped a trace context the
    worker's finished spans ride back as ``{"spans": [...]}`` so the
    coordinator stitches them into the caller's trace tree.  Per-op wall
    time also lands in this process's global metrics registry
    (``worker_op_seconds{op=...}``), exported on ``stats`` fan-outs.
    """
    registry = get_global_registry()
    tracer = get_tracer()
    op_histograms: Dict[str, Any] = {}
    while True:
        try:
            op, payload, request_meta = conn.recv()
        except ConnectionClosed:
            return False  # coordinator went away: end of session
        if op == "shutdown":
            try:
                conn.send("ok", {})
            except ConnectionClosed:
                pass
            return True
        trace_ctx = request_meta.get("trace")
        started = time.perf_counter()
        span = None
        try:
            if trace_ctx is not None:
                with activate_trace_context(trace_ctx):
                    with trace(f"worker.{op}", shard_id=worker.shard_id) as span:
                        result = worker.handle(op, payload)
            else:
                result = worker.handle(op, payload)
        except Exception as error:  # noqa: BLE001  # reprolint: disable=R007 - protocol boundary: every failure becomes an error reply to the coordinator
            status, body = "error", describe_error(error)
            if span is not None:
                span.set_attribute("error", body["type"])
        else:
            status, body = "ok", result
        elapsed = time.perf_counter() - started
        histogram = op_histograms.get(op)
        if histogram is None:
            histogram = op_histograms[op] = registry.histogram(
                "worker_op_seconds", op=op
            )
        histogram.observe(elapsed)
        reply_meta: Dict[str, Any] = {"seconds": elapsed}
        if trace_ctx is not None:
            # ship only this trace's spans; anything else (same-process
            # test harnesses sharing the global tracer) goes back in the
            # buffer untouched
            drained = tracer.drain()
            mine = [s for s in drained if s.trace_id == trace_ctx["trace_id"]]
            tracer.adopt(s for s in drained if s.trace_id != trace_ctx["trace_id"])
            reply_meta["spans"] = [s.to_dict() for s in mine]
        try:
            conn.send(status, body, reply_meta)
        except ConnectionClosed:
            return False


# ----------------------------------------------------------------------
# run modes
# ----------------------------------------------------------------------
def run_spawned_worker(
    host: str, port: int, token: str, shard_id: int, connect_timeout: float = 30.0
) -> None:
    """Entry point of a coordinator-spawned worker process.

    Connects back to the coordinator's rendezvous listener, identifies
    itself (token + shard id), then serves until shutdown or EOF.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    conn = Connection(sock, timeout=connect_timeout)
    conn.send(
        "hello",
        {
            "protocol": PROTOCOL_VERSION,
            "token": token,
            "shard_id": shard_id,
            "pid": os.getpid(),
        },
    )
    conn.recv_reply(context="worker handshake")
    # session established: block indefinitely for requests (the socket
    # EOFs if the coordinator dies, which ends the serve loop)
    sock.settimeout(None)
    try:
        serve_connection(conn, ShardWorker(shard_id))
    finally:
        conn.close()


def _check_hello(payload: Dict[str, Any], token: Optional[str]) -> None:
    if int(payload.get("protocol", -1)) != PROTOCOL_VERSION:
        raise ClusterError(
            f"protocol mismatch: worker speaks {PROTOCOL_VERSION}, "
            f"coordinator sent {payload.get('protocol')!r}"
        )
    if token is not None and payload.get("token") != token:
        raise ClusterError("coordinator presented a wrong or missing token")


def serve(
    address: Tuple[str, int],
    *,
    token: Optional[str] = None,
    once: bool = False,
    on_ready: Any = None,
) -> None:
    """Standalone worker loop (the ``repro worker`` CLI command).

    Listens on ``address`` and serves one coordinator session at a time;
    each session begins with the coordinator's ``hello`` (protocol +
    token check) and ends at shutdown/EOF.  With ``once`` the process
    returns after the first session instead of waiting for the next
    coordinator.  ``on_ready`` (if given) is called with the bound
    ``(host, port)`` once the socket is listening.
    """
    listener = socket.create_server(address, backlog=1)
    try:
        if on_ready is not None:
            on_ready(listener.getsockname()[:2])
        while True:
            client, _peer = listener.accept()
            conn = Connection(client, timeout=None)
            try:
                op, payload, _meta = conn.recv()
                if op != "hello":
                    raise ClusterError(f"expected 'hello', got {op!r}")
                _check_hello(payload or {}, token)
            except ClusterError as error:
                try:
                    conn.send("error", describe_error(error))
                except ConnectionClosed:
                    pass  # the peer is gone; nothing to tell it
                finally:
                    conn.close()
                continue
            except ConnectionClosed:
                conn.close()
                continue
            try:
                conn.send("ok", {"pid": os.getpid(), "protocol": PROTOCOL_VERSION})
            except ConnectionClosed:
                # the client vanished between hello and our reply: this was
                # never a session — keep listening (even under ``once``)
                conn.close()
                continue
            shard_id = payload.get("shard_id")
            try:
                serve_connection(
                    conn, ShardWorker(None if shard_id is None else int(shard_id))
                )
            finally:
                conn.close()
            if once:
                return
    finally:
        listener.close()


__all__ = ["ShardWorker", "serve", "serve_connection", "run_spawned_worker"]
