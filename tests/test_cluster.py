"""Tests for the multi-process shard serving subsystem (repro.cluster).

Every test that spawns worker processes carries a hard
``@pytest.mark.timeout`` (see tests/conftest.py): a deadlocked worker or
coordinator must fail the test quickly, never hang the suite.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator, ProcessBackend, parse_address
from repro.cluster import worker as worker_module
from repro.engine import EngineConfig, JoinEstimationEngine, available_backends
from repro.errors import (
    ClusterError,
    InsufficientSampleError,
    ValidationError,
    WorkerCrashError,
)
from repro.shard import ShardedMutableIndex, ShardedStreamingEstimator, ShardRouter
from repro.streaming import ChangeLog, Delete, Insert, MutableLSHIndex, StreamingEstimator
from repro.vectors import VectorCollection

SEED = 7
NUM_HASHES = 10
THRESHOLD = 0.7

#: fail fast in tests: a worker that needs >30s for one op is stuck
FAST = {"request_timeout": 30.0}


def process_config(dimension, shards=3, **options):
    merged = {"shards": shards, **FAST, **options}
    return EngineConfig(
        backend="process",
        num_hashes=NUM_HASHES,
        seed=SEED,
        dimension=dimension,
        options=merged,
    )


def reference_estimator(collection, log):
    """The unsharded stack under the engine's determinism contract."""
    index = MutableLSHIndex(
        collection.dimension, num_hashes=NUM_HASHES, random_state=SEED + 1
    )
    log.replay(index)
    return StreamingEstimator(index, random_state=SEED + 2)


@pytest.fixture(scope="module")
def churned_cluster(small_collection, churn_log_factory):
    """(unsharded StreamingEstimator, open process engine) on one churn log."""
    log = churn_log_factory(small_collection, 250)
    engine = JoinEstimationEngine(process_config(small_collection.dimension)).open()
    engine.ingest(log)
    engine.flush()
    yield reference_estimator(small_collection, log), engine
    engine.close()


class TestProcessBackendFidelity:
    def test_registered(self):
        assert "process" in available_backends()
        assert "multi-process" in ProcessBackend.CAPABILITIES

    @pytest.mark.timeout(180)
    def test_exact_mode_bit_identical_to_unsharded(self, churned_cluster):
        reference, engine = churned_cluster
        for seed in (3, 11, 101):
            ours = engine.estimate(THRESHOLD, seed=seed, mode="exact")
            theirs = reference.estimate(THRESHOLD, random_state=seed, mode="exact")
            assert ours.value == theirs.value
            assert ours.provenance.backend == "process"
        details = ours.provenance.backend_details
        assert details["num_shards"] == 3
        assert sum(details["shard_sizes"]) == details["size"]
        assert len(details["workers"]) == 3
        assert all(info["alive"] for info in details["workers"])

    @pytest.mark.timeout(180)
    def test_strata_match_reference(self, churned_cluster):
        reference, engine = churned_cluster
        backend = engine.backend
        assert backend.size == reference.index.size
        assert backend.index.num_collision_pairs == reference.index.num_collision_pairs
        assert backend.index.num_non_collision_pairs == reference.index.num_non_collision_pairs
        backend.index.check_invariants()

    @pytest.mark.timeout(180)
    def test_merged_mode_serves_from_worker_reservoirs(self, churned_cluster):
        reference, engine = churned_cluster
        exact = engine.estimate(THRESHOLD, seed=2, mode="exact")
        merged = engine.estimate(THRESHOLD, seed=2, mode="merged")
        assert merged.value >= 0.0
        # merged pools per-worker reservoirs; it must stay in the same
        # ballpark as the exact stratified answer on this corpus
        scale = max(exact.value, 1.0)
        assert abs(merged.value - exact.value) / scale < 1.5

    @pytest.mark.timeout(180)
    def test_snapshot_restores_bit_identically_across_shapes(
        self, churned_cluster, tmp_path
    ):
        reference, engine = churned_cluster
        want = engine.estimate(THRESHOLD, seed=13, mode="exact").value
        path = tmp_path / "cluster.pkl"
        engine.snapshot(path)
        # same shape: a fresh process cluster
        revived = JoinEstimationEngine.restore(path)
        try:
            assert revived.config.backend == "process"
            assert revived.estimate(THRESHOLD, seed=13, mode="exact").value == want
            revived.backend.index.check_invariants()
        finally:
            revived.close()
        # cross shape: the embedded index state revives in process too
        import pickle

        with open(path, "rb") as handle:
            state = pickle.load(handle)
        in_process = ShardedMutableIndex.from_state(
            state["backend"]["index"], estimator_seed=SEED + 2
        )
        in_process.check_invariants()
        merged = ShardedStreamingEstimator(in_process)
        assert merged.estimate(THRESHOLD, random_state=13, mode="exact").value == want


class TestRemoteRebalance:
    @pytest.mark.timeout(240)
    def test_grow_and_shrink_keep_exact_estimates(self, small_collection, churn_log_factory):
        log = churn_log_factory(small_collection, 150)
        reference = reference_estimator(small_collection, log)
        want = reference.estimate(THRESHOLD, random_state=9, mode="exact").value
        config = process_config(small_collection.dimension, shards=2, partitioner="rendezvous")
        with JoinEstimationEngine(config) as engine:
            engine.ingest(log)
            engine.flush()
            plan = engine.rebalance(num_shards=4)
            assert plan.moved_keys >= 0
            cluster = engine.backend.index
            assert cluster.num_shards == 4
            assert len(cluster.worker_infos) == 4
            cluster.check_invariants()
            assert engine.estimate(THRESHOLD, seed=9, mode="exact").value == want
            engine.rebalance(num_shards=3)
            cluster = engine.backend.index
            assert cluster.num_shards == 3
            # the dropped shard's worker process must be reaped
            assert len(cluster.worker_infos) == 3
            cluster.check_invariants()
            assert engine.estimate(THRESHOLD, seed=9, mode="exact").value == want
            # merged mode still serves after migration-repaired reservoirs
            assert engine.estimate(THRESHOLD, seed=9, mode="merged").value >= 0.0
            # the rebalance-synced config carries no stale 'shards' alias
            # next to the adopted 'num_shards' — it must re-open cleanly
            assert "shards" not in engine.config.options
            assert engine.config.options["num_shards"] == 3
            ProcessBackend(EngineConfig.from_dict(engine.config.to_dict()))


class TestClusterFailurePaths:
    @pytest.mark.timeout(120)
    def test_worker_crash_mid_ingest_surfaces_not_hangs(self, small_collection):
        engine = JoinEstimationEngine(
            process_config(small_collection.dimension, shards=3, batch_size=16)
        ).open()
        coordinator = engine.backend.index
        try:
            engine.ingest(small_collection)
            victim = coordinator._handles[1]
            victim.process.kill()
            victim.process.join(timeout=10)
            # the bulk ingest commits straight through the coordinator and
            # must surface the dead worker, not hang
            with pytest.raises(WorkerCrashError):
                engine.ingest(small_collection)
            assert coordinator.broken is not None
            # once broken, every further op reports the cluster state clearly
            with pytest.raises(ClusterError):
                engine.ingest(Insert(np.zeros(small_collection.dimension)))
                engine.flush()  # the buffered insert must not commit quietly
            # the unapplied row stays recoverable; with the buffer drained,
            # estimates surface the broken cluster rather than hanging
            assert len(engine.backend._router.drain_pending()) == 1
            with pytest.raises(ClusterError):
                engine.estimate(THRESHOLD, seed=1, mode="exact")
        finally:
            try:
                engine.close()
            except ClusterError:
                pass
        for info in coordinator.worker_infos:
            assert not info["alive"]

    @pytest.mark.timeout(120)
    def test_worker_crash_mid_estimate_surfaces_not_hangs(self, small_collection):
        engine = JoinEstimationEngine(process_config(small_collection.dimension)).open()
        try:
            engine.ingest(small_collection)
            victim = engine.backend.index._handles[0]
            victim.process.kill()
            victim.process.join(timeout=10)
            with pytest.raises(WorkerCrashError):
                engine.estimate(THRESHOLD, seed=1, mode="exact")
        finally:
            try:
                engine.close()
            except ClusterError:
                pass

    @pytest.mark.timeout(120)
    def test_close_is_idempotent_and_reaps_workers(self, small_collection):
        engine = JoinEstimationEngine(process_config(small_collection.dimension)).open()
        engine.ingest(small_collection)
        coordinator = engine.backend.index
        processes = [handle.process for handle in coordinator._handles]
        engine.close()
        engine.close()  # idempotent
        coordinator.close()  # and directly on the coordinator too
        for process in processes:
            assert not process.is_alive()
        with pytest.raises(ClusterError):
            coordinator.insert(np.zeros(small_collection.dimension))

    @pytest.mark.timeout(120)
    def test_unreachable_worker_fails_fast(self):
        # nothing listens on the discard port: construction fails with a
        # clear error instead of hanging
        with pytest.raises(ClusterError):
            ClusterCoordinator(
                8,
                num_shards=2,
                num_hashes=4,
                addresses=["127.0.0.1:9", "127.0.0.1:9"],
                request_timeout=5.0,
            )

    @pytest.mark.timeout(120)
    def test_worker_side_config_error_propagates_as_library_type(self):
        # the worker's StreamingEstimator rejects reservoir_size < 1; the
        # error must come back as the same library type, and the half-built
        # cluster must tear its already-spawned workers down on the way out
        with pytest.raises(ValidationError):
            ClusterCoordinator(
                8,
                num_shards=2,
                num_hashes=4,
                estimator_kwargs={"reservoir_size": -1},
                **FAST,
            )

    def test_option_validation(self):
        # conflicting shard-count aliases are rejected when the backend opens
        config = EngineConfig(
            backend="process", dimension=8, options={"shards": 2, "num_shards": 3}
        )
        with pytest.raises(ValidationError):
            JoinEstimationEngine(config).open()
        with pytest.raises(ValidationError):
            EngineConfig(backend="process", dimension=8, options={"bogus": 1})
        with pytest.raises(ValidationError):
            ClusterCoordinator(8, num_shards=3, addresses=["127.0.0.1:1024"])

    def test_parse_address(self):
        assert parse_address("localhost:1234") == ("localhost", 1234)
        for bad in ("nope", "host:", "host:0", "host:notaport", ":88"):
            with pytest.raises(ValidationError):
                parse_address(bad)


class TestStandaloneWorkers:
    """The ``repro worker`` serving loop, exercised in-process via threads."""

    @staticmethod
    def _start_worker(token=None, once=True):
        ready = threading.Event()
        bound = {}

        def on_ready(address):
            bound["address"] = address
            ready.set()

        thread = threading.Thread(
            target=worker_module.serve,
            args=(("127.0.0.1", 0),),
            kwargs={"token": token, "once": once, "on_ready": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30), "worker never started listening"
        return thread, bound["address"]

    @pytest.mark.timeout(120)
    def test_coordinator_over_external_workers(self, small_collection, churn_log_factory):
        threads_addresses = [self._start_worker(token="hunter2") for _ in range(2)]
        addresses = [f"{host}:{port}" for _thread, (host, port) in threads_addresses]
        log = churn_log_factory(small_collection, 120)
        reference = reference_estimator(small_collection, log)
        config = process_config(
            small_collection.dimension, shards=2, addresses=addresses, token="hunter2"
        )
        with JoinEstimationEngine(config) as engine:
            engine.ingest(log)
            engine.flush()
            ours = engine.estimate(THRESHOLD, seed=21, mode="exact")
            theirs = reference.estimate(THRESHOLD, random_state=21, mode="exact")
            assert ours.value == theirs.value
            infos = engine.backend.index.worker_infos
            assert all(info["address"] is not None for info in infos)
        for thread, _address in threads_addresses:
            thread.join(timeout=30)  # --once: session end stops the worker
            assert not thread.is_alive()

    @pytest.mark.timeout(120)
    def test_wrong_token_rejected(self):
        thread, (host, port) = self._start_worker(token="right", once=True)
        with pytest.raises(ClusterError):
            ClusterCoordinator(
                8,
                num_shards=1,
                num_hashes=4,
                addresses=[f"{host}:{port}"],
                token="wrong",
                request_timeout=10.0,
            )
        # the worker survives a bad handshake and still serves a good one
        cluster = ClusterCoordinator(
            8,
            num_shards=1,
            num_hashes=4,
            addresses=[f"{host}:{port}"],
            token="right",
            request_timeout=10.0,
        )
        try:
            cluster.insert(np.arange(8, dtype=float))
            assert cluster.size == 1
        finally:
            cluster.close()
        thread.join(timeout=30)

    def test_cli_parser_accepts_worker(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["worker", "--listen", "127.0.0.1:7070", "--token", "t", "--once"]
        )
        assert args.command == "worker"
        assert args.listen == "127.0.0.1:7070"
        assert args.once


class TestShardWorkerOps:
    """Protocol-level tests of the worker dispatch, driven in process.

    These pin the op semantics (and keep the worker code measurable by
    the coverage job, which cannot see child processes).
    """

    @staticmethod
    def _configured_worker(shard_estimators=True):
        template = MutableLSHIndex(6, num_hashes=4, num_tables=2, random_state=3)
        worker = worker_module.ShardWorker()
        stats = worker.handle(
            "configure",
            {
                "shard_id": 0,
                "dimension": 6,
                "num_hashes": 4,
                "num_tables": 2,
                "families": template.families,
                "shard_estimators": shard_estimators,
                "estimator_kwargs": {"reservoir_size": 32},
                "estimator_rng": np.random.default_rng(5),
            },
        )
        assert stats["size"] == 0 and stats["has_estimator"] is shard_estimators
        return worker

    @staticmethod
    def _insert(worker, rows, first_id=0):
        from scipy import sparse

        csr = sparse.csr_matrix(np.asarray(rows, dtype=float))
        signatures = [
            family.hash_matrix(csr) for family in worker.index.families
        ]
        ids = np.arange(first_id, first_id + csr.shape[0], dtype=np.int64)
        return worker.handle(
            "insert_prepared", {"ids": ids, "csr": csr, "signatures": signatures}
        )

    def test_mutation_replies_carry_mirror_stats(self):
        worker = self._configured_worker()
        rows = np.eye(6)[:4] + 0.1
        reply = self._insert(worker, rows)
        assert reply["size"] == 4
        # timing moved out of op payloads into the reply meta envelope
        # (serve_connection stamps meta["seconds"]); payloads stay data-only
        assert "seconds" not in reply
        assert reply["num_collision_pairs"] == worker.index.num_collision_pairs
        expected_key = worker.index.primary_table.signature_key(2)
        deleted = worker.handle("delete", {"vector_id": 2})
        assert deleted["size"] == 3
        assert deleted["key"] == expected_key  # one round trip tells the
        # coordinator which bucket ref to decrement
        ping = worker.handle("ping", {})
        assert ping["shard_id"] == 0 and ping["size"] == 3

    def test_bucket_members_gather_and_sample(self):
        worker = self._configured_worker()
        rows = [[1.0, 0, 0, 0, 0, 0]] * 3 + [[0, 1.0, 0, 0, 0, 0]]
        self._insert(worker, rows)
        key = worker.index.primary_table.signature_key(0)
        members = worker.handle("bucket_members", {"keys": [key]})["members"]
        assert members == [[0, 1, 2]]
        gathered = worker.handle(
            "gather_rows", {"ids": np.asarray([3, 0]), "normalized": True}
        )
        # row segments in request order: id 3 = e1, id 0 = e0 (normalised)
        np.testing.assert_array_equal(gathered["lengths"], [1, 1])
        np.testing.assert_array_equal(gathered["indices"], [1, 0])
        np.testing.assert_array_equal(gathered["data"], [1.0, 1.0])
        from repro.rng import generator_state

        rng = np.random.default_rng(9)
        reference = np.random.default_rng(9)
        reply = worker.handle(
            "sample_pairs", {"stratum": "h", "count": 8, "rng": generator_state(rng)}
        )
        left, right = worker.index.sample_collision_pairs(8, random_state=reference)
        np.testing.assert_array_equal(reply["left"], left)
        np.testing.assert_array_equal(reply["right"], right)
        # the advanced generator state is shipped back (stream continuity)
        assert reply["rng"] == generator_state(reference)
        with pytest.raises(ValidationError):
            worker.handle("sample_pairs", {"stratum": "x", "count": 1, "rng": generator_state(rng)})

    def test_snapshot_restore_and_estimator_lifecycle(self):
        worker = self._configured_worker()
        self._insert(worker, np.eye(6) + 0.2)
        reservoir = worker.handle("reservoir", {"stratum": "l"})
        assert reservoir["usable"] and len(reservoir["left"]) > 0
        state = worker.handle("snapshot", {})["state"]
        revived = worker_module.ShardWorker()
        stats = revived.handle(
            "restore",
            {
                "state": state,
                "shard_id": 1,
                "shard_estimators": True,
                "estimator_kwargs": {},
                "build_missing": False,
            },
        )
        assert stats["size"] == 6 and stats["has_estimator"]  # adopted from state
        revived.handle(
            "account_migration",
            {"departed_ids": [0], "unseen_collision_pairs": 1,
             "unseen_non_collision_pairs": 2},
        )
        revived.handle("check", {})
        closed = revived.handle("close_estimator", {})
        assert not closed["has_estimator"]
        with pytest.raises(ClusterError):
            revived.handle("reservoir", {"stratum": "l"})

    def test_unconfigured_and_unknown_ops_fail_cleanly(self):
        worker = worker_module.ShardWorker()
        with pytest.raises(ClusterError):
            worker.handle("stats_snapshot", {})  # unknown op
        with pytest.raises(ClusterError):
            worker.handle("snapshot", {})  # not configured yet
        self._configured_worker()  # sanity: configure path works
        worker2 = self._configured_worker()
        with pytest.raises(ClusterError):
            worker2.handle("configure", {"shard_id": 0})  # double configure


class TestTransportFraming:
    def test_round_trip_and_error_descriptions(self):
        import socket as socket_module

        from repro.cluster.transport import (
            Connection,
            describe_error,
            raise_remote_error,
            recv_message,
            send_message,
        )

        left, right = socket_module.socketpair()
        try:
            send_message(left, "ping", {"value": np.arange(3)})
            op, payload, meta = recv_message(right)
            assert op == "ping"
            assert meta == {}
            np.testing.assert_array_equal(payload["value"], np.arange(3))
            conn = Connection(left, timeout=5.0)
            conn.send("ok", {"x": 1})
            assert recv_message(right) == ("ok", {"x": 1}, {})
            conn.close()
            conn.close()  # idempotent
        finally:
            for sock in (left, right):
                try:
                    sock.close()
                except OSError:
                    pass
        # library errors travel as objects and re-raise as themselves
        payload = describe_error(ValidationError("bad value"))
        with pytest.raises(ValidationError, match="bad value"):
            raise_remote_error(payload, context="test")
        # third-party errors re-raise as ClusterError with the traceback
        payload = describe_error(RuntimeError("boom"))
        with pytest.raises(ClusterError, match="boom"):
            raise_remote_error(payload, context="test")

    def test_closed_peer_raises_connection_closed(self):
        import socket as socket_module

        from repro.cluster.transport import Connection, ConnectionClosed

        left, right = socket_module.socketpair()
        right.close()
        conn = Connection(left, timeout=5.0)
        with pytest.raises(ConnectionClosed):
            conn.recv()
        conn.close()


class TestClusterPropertyBased:
    """Acceptance sweep: any event sequence replayed through a process
    cluster serves the exact-mode estimate of an unsharded estimator,
    bit for bit, for the same seed."""

    POOL_SEED = 31

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestClusterPropertyBased.POOL_SEED)
        dense = (rng.random((24, 8)) < 0.4) * rng.random((24, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @pytest.mark.timeout(600)
    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
        st.sampled_from([1, 2]),
    )
    def test_any_op_sequence_matches_unsharded(self, ops, num_shards):
        pool = self._pool()
        log = ChangeLog()
        live = []
        next_id = 0
        for op in ops:
            if live and op % 3 == 0:
                log.append(Delete(live.pop(op % len(live))))
            else:
                log.append(Insert(pool.row_dict(op % pool.size)))
                live.append(next_id)
                next_id += 1
        unsharded = MutableLSHIndex(pool.dimension, num_hashes=6, random_state=13)
        log.replay(unsharded)
        cluster = ClusterCoordinator(
            pool.dimension,
            num_shards=num_shards,
            num_hashes=6,
            random_state=13,
            **FAST,
        )
        try:
            with ShardRouter(cluster, batch_size=7) as router:
                router.replay(log)
            cluster.check_invariants()
            assert cluster.size == unsharded.size
            assert cluster.num_collision_pairs == unsharded.num_collision_pairs
            assert cluster.num_non_collision_pairs == unsharded.num_non_collision_pairs
            if cluster.size == 0:
                assert ShardedStreamingEstimator(cluster).estimate(0.5).value == 0.0
                return
            ours = ShardedStreamingEstimator(cluster).estimate(
                0.5, random_state=1, mode="exact"
            )
            theirs = StreamingEstimator(unsharded, random_state=5).estimate(
                0.5, random_state=1, mode="exact"
            )
            assert ours.value == theirs.value
        except InsufficientSampleError:
            with pytest.raises(InsufficientSampleError):
                StreamingEstimator(unsharded, random_state=5).estimate(
                    0.5, random_state=1, mode="exact"
                )
        finally:
            cluster.close()
