"""Tests for the sharded scale-out subsystem (repro.shard)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StrandedWritesError, ValidationError
from repro.shard import (
    KeyPartitioner,
    MergedStrata,
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    merge_strata,
    rebalance_cluster,
)
from repro.shard.partition import signature_shard_hash
from repro.streaming import (
    ChangeLog,
    Delete,
    Insert,
    MutableLSHIndex,
    StreamingEstimator,
)
from repro.vectors import VectorCollection

SEED = 19
NUM_HASHES = 10


@pytest.fixture(scope="module")
def churned_pair(small_collection, churn_log_factory):
    """(unsharded index, sharded S=4 index) fed the same 400-op churn log."""
    log = churn_log_factory(small_collection, 400)
    unsharded = MutableLSHIndex(
        small_collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
    )
    log.replay(unsharded)
    sharded = ShardedMutableIndex(
        small_collection.dimension, num_shards=4, num_hashes=NUM_HASHES, random_state=SEED
    )
    with ShardRouter(sharded, batch_size=32) as router:
        router.replay(log)
    return unsharded, sharded


class TestKeyPartitioner:
    def test_validation(self):
        with pytest.raises(ValidationError):
            KeyPartitioner(0)

    def test_single_shard_is_constant(self):
        partitioner = KeyPartitioner(1)
        assert partitioner(b"\x01" * 16) == 0

    def test_key_and_signature_paths_agree(self):
        partitioner = KeyPartitioner(7)
        rng = np.random.default_rng(0)
        signatures = rng.integers(0, 2, size=(50, 12)).astype(np.int64)
        batch = partitioner.shard_of_signatures(signatures)
        for position in range(signatures.shape[0]):
            key = np.ascontiguousarray(signatures[position]).tobytes()
            assert partitioner.shard_of(key) == batch[position]

    def test_deterministic_and_spread(self):
        partitioner = KeyPartitioner(4)
        rng = np.random.default_rng(1)
        signatures = rng.integers(0, 2, size=(2000, 16)).astype(np.int64)
        first = partitioner.shard_of_signatures(signatures)
        second = partitioner.shard_of_signatures(signatures)
        np.testing.assert_array_equal(first, second)
        counts = np.bincount(first, minlength=4)
        # 0/1-valued SimHash signatures must still spread across shards
        assert counts.min() > 0.15 * signatures.shape[0]

    def test_hash_handles_1d_and_2d(self):
        one = signature_shard_hash(np.array([1, 0, 1], dtype=np.int64))
        two = signature_shard_hash(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64))
        assert one.shape == (1,)
        assert two.shape == (2,)
        assert one[0] == two[0]          # same row → same hash
        assert two[0] != two[1]          # differing rows must split


class TestShardedMutableIndex:
    def test_strata_match_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        sharded.check_invariants()
        assert sharded.size == unsharded.size
        assert sharded.num_collision_pairs == unsharded.num_collision_pairs
        assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
        assert sorted(sharded.ids.tolist()) == sorted(unsharded.ids.tolist())

    def test_live_id_order_matches_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        np.testing.assert_array_equal(sharded.ids, unsharded.ids)

    def test_cosine_pairs_match_unsharded(self, churned_pair, rng):
        unsharded, sharded = churned_pair
        ids = unsharded.ids
        left = ids[rng.integers(0, ids.size, size=64)]
        right = ids[rng.integers(0, ids.size, size=64)]
        np.testing.assert_array_equal(
            sharded.cosine_pairs(left, right), unsharded.cosine_pairs(left, right)
        )

    def test_sampling_bit_identical_to_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        for seed in (0, 7):
            u_left, u_right = unsharded.sample_collision_pairs(128, random_state=seed)
            s_left, s_right = sharded.sample_collision_pairs(128, random_state=seed)
            np.testing.assert_array_equal(s_left, u_left)
            np.testing.assert_array_equal(s_right, u_right)
            u_left, u_right = unsharded.sample_non_collision_pairs(128, random_state=seed)
            s_left, s_right = sharded.sample_non_collision_pairs(128, random_state=seed)
            np.testing.assert_array_equal(s_left, u_left)
            np.testing.assert_array_equal(s_right, u_right)

    def test_facade_streaming_estimator_bit_identical(self, small_collection, churn_log_factory):
        """A plain StreamingEstimator over the facade — reservoirs and all —
        tracks the unsharded one bit for bit through churn."""
        log = churn_log_factory(small_collection, 250, seed=5)
        unsharded = MutableLSHIndex(
            small_collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
        )
        reference = StreamingEstimator(unsharded, random_state=7)
        log.replay(unsharded)
        sharded = ShardedMutableIndex(
            small_collection.dimension,
            num_shards=3,
            num_hashes=NUM_HASHES,
            random_state=SEED,
            shard_estimators=False,
        )
        facade_estimator = StreamingEstimator(sharded, random_state=7)
        log.replay(sharded)  # the facade is a drop-in index for replay
        for mode in ("auto", "exact", "reservoir"):
            ours = facade_estimator.estimate(0.7, random_state=123, mode=mode)
            theirs = reference.estimate(0.7, random_state=123, mode=mode)
            assert ours.value == theirs.value

    def test_to_collection_matches_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        u_coll, u_ids = unsharded.to_collection()
        s_coll, s_ids = sharded.to_collection()
        np.testing.assert_array_equal(s_ids, u_ids)
        assert (u_coll.matrix != s_coll.matrix).nnz == 0

    def test_insert_validation(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        with pytest.raises(ValidationError):
            index.insert([1.0, 2.0])  # wrong dimension
        vector_id = index.insert([1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValidationError):
            index.insert([0.0, 1.0, 0.0, 0.0], vector_id=vector_id)
        with pytest.raises(ValidationError):
            index.delete(vector_id + 1)
        index.delete(vector_id)
        assert index.size == 0

    def test_row_and_contains(self):
        index = ShardedMutableIndex(3, num_shards=2, num_hashes=4, random_state=0)
        vector_id = index.insert({0: 2.0, 2: 1.0})
        assert vector_id in index
        row = index.row(vector_id)
        assert row.shape == (1, 3)
        assert row[0, 0] == 2.0
        with pytest.raises(ValidationError):
            index.row(99)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            ShardedMutableIndex(0, num_shards=2)
        with pytest.raises(ValidationError):
            ShardedMutableIndex(4, num_shards=0)


class TestShardRouter:
    def test_async_matches_sync(self, small_collection, churn_log_factory):
        log = churn_log_factory(small_collection, 300, seed=9)
        results = []
        for workers in (0, 4):
            sharded = ShardedMutableIndex(
                small_collection.dimension,
                num_shards=4,
                num_hashes=NUM_HASHES,
                random_state=SEED,
            )
            with ShardRouter(sharded, batch_size=25, max_workers=workers) as router:
                router.replay(log)
            estimate = ShardedStreamingEstimator(sharded).estimate(
                0.7, random_state=3, mode="exact"
            )
            results.append((sharded.num_collision_pairs, sharded.size, estimate.value))
        assert results[0] == results[1]

    def test_delete_of_buffered_insert_flushes_first(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.insert([0.0, 1.0, 0.0, 0.0])
        assert router.pending == 2 and index.size == 0
        router.delete(0)  # targets a still-buffered row
        assert router.pending == 0 and index.size == 1
        router.close()

    def test_replay_emits_at_checkpoints(self, small_collection, churn_log_factory):
        log = churn_log_factory(small_collection, 120, seed=3, checkpoint=True)
        sharded = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=SEED
        )
        estimator = ShardedStreamingEstimator(sharded)
        with ShardRouter(sharded, batch_size=50) as router:
            results = router.replay(log, estimator=estimator, threshold=0.7, random_state=1)
        assert [label for label, _ in results] == ["end"]
        assert results[0][1].value >= 0.0

    def test_validation(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        with pytest.raises(ValidationError):
            ShardRouter(index, batch_size=0)
        with pytest.raises(ValidationError):
            ShardRouter(index, max_workers=-1)


class TestRouterFailurePaths:
    """Regression tests for the shutdown / failure hardening of the router."""

    @staticmethod
    def _router_with_failed_commit(buffered=3, batch_size=100):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=batch_size)
        for position in range(buffered):
            row = [0.0, 0.0, 0.0, 0.0]
            row[position % 4] = 1.0
            router.insert(row)

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        for shard in index.shards:
            shard.index.insert_many_prepared = explode
        with pytest.raises(RuntimeError):
            router.flush()
        return index, router

    def test_close_raises_instead_of_stranding_buffered_rows(self):
        _index, router = self._router_with_failed_commit(buffered=3)
        assert router.commit_failed and router.pending == 3
        with pytest.raises(StrandedWritesError) as excinfo:
            router.close()
        stranded = excinfo.value.pending_rows
        assert len(stranded) == 3
        # the stranded rows are the actual unapplied inserts, replayable
        # onto a fresh cluster
        assert all(row.shape == (1, 4) for row in stranded)
        # executor already shut down, buffer drained: now idempotent
        router.close()
        router.close()

    def test_drain_pending_then_close_quietly(self):
        _index, router = self._router_with_failed_commit(buffered=2)
        rows = router.drain_pending()
        assert len(rows) == 2 and router.pending == 0
        router.close()  # nothing stranded any more
        fresh = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        with ShardRouter(fresh) as replacement:
            for row in rows:
                replacement.insert(row)
        assert fresh.size == 2

    def test_context_manager_chains_stranded_error_under_original(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError) as excinfo:
            with ShardRouter(index, batch_size=100) as router:
                router.insert([1.0, 0.0, 0.0, 0.0])
                for shard in index.shards:
                    shard.index.insert_many_prepared = explode
                router.flush()
        # the with-body error stays primary; the close-time stranding is
        # chained context, not a mask
        assert isinstance(excinfo.value.__context__, StrandedWritesError)

    def test_replay_midbatch_failure_chains_flush_error(self, small_collection):
        index = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=4, random_state=0
        )
        router = ShardRouter(index, batch_size=50)
        events = [
            Insert(small_collection.row_dict(0)),
            Insert(small_collection.row_dict(1)),
            object(),  # unknown event type fails mid-stream, 2 rows buffered
        ]

        def explode(*args, **kwargs):
            raise RuntimeError("flush also failed")

        index.commit_batch = explode  # …and the recovery flush fails too
        with pytest.raises(ValidationError) as excinfo:
            router.replay(events)
        # the recovery-flush failure is attached to the original error's
        # context chain instead of being swallowed
        context = excinfo.value.__context__
        assert isinstance(context, RuntimeError)
        assert "flush also failed" in str(context)
        # the unapplied rows stay recoverable
        assert router.pending == 2
        assert len(router.drain_pending()) == 2
        router.close()

    def test_write_after_close_falls_back_to_synchronous(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100, max_workers=4)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.close()
        assert index.size == 1
        # late writers after close: buffered, then flushed synchronously
        router.insert([0.0, 1.0, 0.0, 0.0])
        assert router.pending == 1
        router.close()
        assert index.size == 2 and router.pending == 0
        index.check_invariants()

    def test_workers_zero_synchronous_mode_matches_threaded(
        self, small_collection, churn_log_factory
    ):
        log = churn_log_factory(small_collection, 150, seed=9)
        results = []
        for workers in (0, 4):
            sharded = ShardedMutableIndex(
                small_collection.dimension,
                num_shards=4,
                num_hashes=NUM_HASHES,
                random_state=SEED,
            )
            with ShardRouter(sharded, batch_size=32, max_workers=workers) as router:
                router.replay(log)
            sharded.check_invariants()
            estimator = ShardedStreamingEstimator(sharded)
            results.append(estimator.estimate(0.7, random_state=4, mode="exact").value)
        assert results[0] == results[1]


class TestMergeLayer:
    def test_merged_strata_identities(self, churned_pair):
        _, sharded = churned_pair
        strata = merge_strata(sharded)
        assert isinstance(strata, MergedStrata)
        assert strata.num_collision_pairs == sum(strata.shard_collision_pairs)
        assert (
            strata.num_collision_pairs + strata.num_non_collision_pairs
            == strata.total_pairs
        )
        intra_l = sum(strata.shard_intra_non_collision_pairs)
        assert strata.num_non_collision_pairs == intra_l + strata.cross_shard_pairs
        assert strata.cross_shard_pairs >= 0

    def test_exact_mode_bit_identical(self, churned_pair):
        unsharded, sharded = churned_pair
        reference = StreamingEstimator(unsharded, random_state=0)
        estimator = ShardedStreamingEstimator(sharded)
        for seed in (1, 99):
            ours = estimator.estimate(0.7, random_state=seed, mode="exact")
            theirs = reference.estimate(0.7, random_state=seed, mode="exact")
            assert ours.value == theirs.value
            assert ours.details["num_collision_pairs"] == theirs.details["num_collision_pairs"]

    @pytest.mark.parametrize("missing", [-1, 10**6])
    def test_same_bucket_many_names_a_missing_id(self, churned_pair, missing):
        _, sharded = churned_pair
        view = sharded.primary_table
        live = sharded.ids[:2]
        deleted = next(i for i in range(sharded._next_id) if i not in sharded)
        for bad in (missing, deleted):
            left = np.asarray([live[0], bad])
            with pytest.raises(ValidationError, match=f"vector id {bad} "):
                view.same_bucket_many(left, live)
            with pytest.raises(ValidationError, match=f"vector id {bad} "):
                view.same_bucket_many(live, left)
            with pytest.raises(ValidationError, match=f"vector id {bad} "):
                view.signature_key(bad)
            with pytest.raises(ValidationError, match=f"vector id {bad} "):
                sharded.cosine_pairs(left, live)

    def test_merged_mode_samples_valid_strata(self, churned_pair):
        _, sharded = churned_pair
        estimator = ShardedStreamingEstimator(sharded)
        view = sharded.primary_table
        strata = merge_strata(sharded)
        source_h = estimator._merged_source_h(strata)
        source_l = estimator._merged_source_l(strata)
        rng = np.random.default_rng(0)
        left, right = source_h(200, rng)
        assert np.all(view.same_bucket_many(left, right))
        assert np.all(left != right)
        left, right = source_l(200, rng)
        assert not np.any(view.same_bucket_many(left, right))

    def test_merged_mode_estimates_reasonable(self, small_collection, churn_log_factory):
        """Pooled-reservoir estimates agree with the exact path's scale.

        Per-shard reservoirs are enlarged and refreshed so the comparison
        measures the merge arithmetic, not one stale reservoir draw."""
        log = churn_log_factory(small_collection, 400)
        sharded = ShardedMutableIndex(
            small_collection.dimension,
            num_shards=4,
            num_hashes=NUM_HASHES,
            random_state=SEED,
            estimator_kwargs={"reservoir_size": 2048},
        )
        with ShardRouter(sharded, batch_size=32) as router:
            router.replay(log)
        for shard in sharded.shards:
            shard.estimator.refresh()
        estimator = ShardedStreamingEstimator(sharded)
        threshold = 0.5
        # medians: SampleL's adaptive scale-up is heavy-tailed under
        # with-replacement reservoir draws, exactly as in unsharded
        # reservoir mode — the merge layer must not shift the location
        merged = np.median(
            [estimator.estimate(threshold, random_state=s, mode="merged").value
             for s in range(15)]
        )
        exact = np.median(
            [estimator.estimate(threshold, random_state=s, mode="exact").value
             for s in range(15)]
        )
        assert merged == pytest.approx(exact, rel=0.5)

    def test_parameter_validation(self, churned_pair):
        _, sharded = churned_pair
        with pytest.raises(ValidationError):
            ShardedStreamingEstimator(sharded, sample_size_h=0)
        with pytest.raises(ValidationError):
            ShardedStreamingEstimator(sharded, dampening=2.0)
        estimator = ShardedStreamingEstimator(sharded)
        with pytest.raises(ValidationError):
            estimator.estimate(0.7, mode="telepathy")

    def test_empty_cluster_estimates_zero(self):
        sharded = ShardedMutableIndex(4, num_shards=3, num_hashes=4, random_state=0)
        estimator = ShardedStreamingEstimator(sharded)
        assert estimator.estimate(0.5, random_state=0).value == 0.0


class TestSnapshotRestore:
    def test_mutable_index_round_trip(self, small_collection, tmp_path):
        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=NUM_HASHES, num_tables=2, random_state=SEED
        )
        index.delete(3)
        index.insert(small_collection.row(1))
        path = tmp_path / "index.pkl"
        index.snapshot(path)
        revived = MutableLSHIndex.restore(path)
        revived.check_invariants()
        assert revived.size == index.size
        assert revived.num_collision_pairs == index.num_collision_pairs
        # identical sampling draws and similarities after restore
        left, right = index.sample_collision_pairs(64, random_state=5)
        r_left, r_right = revived.sample_collision_pairs(64, random_state=5)
        np.testing.assert_array_equal(r_left, left)
        np.testing.assert_array_equal(r_right, right)
        np.testing.assert_array_equal(
            revived.cosine_pairs(left, right), index.cosine_pairs(left, right)
        )
        # restored index accepts further mutations with fresh ids
        new_id = revived.insert(small_collection.row(0))
        assert new_id == index._next_id

    def test_sharded_round_trip(self, churned_pair, tmp_path):
        _, sharded = churned_pair
        path = tmp_path / "cluster.pkl"
        sharded.snapshot(path)
        revived = ShardedMutableIndex.restore(path)
        revived.check_invariants()
        assert revived.num_shards == sharded.num_shards
        assert revived.num_collision_pairs == sharded.num_collision_pairs
        original = ShardedStreamingEstimator(sharded).estimate(
            0.7, random_state=42, mode="exact"
        )
        restored = ShardedStreamingEstimator(revived).estimate(
            0.7, random_state=42, mode="exact"
        )
        assert restored.value == original.value

    def test_bad_snapshot_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            MutableLSHIndex.from_state({"format": 99})
        with pytest.raises(ValidationError):
            ShardedMutableIndex.from_state({"format": 1, "kind": "plain"})


class TestShardMergePropertyBased:
    """Hypothesis acceptance property: any event sequence replayed through a
    ShardRouter over S shards yields the same strata counts and the same
    (bit-identical) exact estimate as one unsharded MutableLSHIndex."""

    POOL_SEED = 77

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestShardMergePropertyBased.POOL_SEED)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40),
        st.sampled_from([1, 2, 7]),
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
        sharded = ShardedMutableIndex(
            pool.dimension, num_shards=num_shards, num_hashes=6, random_state=13
        )
        with ShardRouter(sharded, batch_size=7) as router:
            router.replay(log)
        sharded.check_invariants()
        assert sharded.size == unsharded.size
        assert sharded.num_collision_pairs == unsharded.num_collision_pairs
        assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
        if sharded.size == 0:
            assert ShardedStreamingEstimator(sharded).estimate(0.5).value == 0.0
            return
        ours = ShardedStreamingEstimator(sharded).estimate(
            0.5, random_state=1, mode="exact"
        )
        theirs = StreamingEstimator(unsharded, random_state=5).estimate(
            0.5, random_state=1, mode="exact"
        )
        assert ours.value == theirs.value


class TestIdColumnsPropertyBased:
    """Hypothesis property over random mutation sequences: the id-indexed
    columns (bucket ordinals, shard owners, cached live ids) always answer
    exactly what the scalar per-id lookups answer, on the unsharded index,
    every shard, and the sharded facade — across inserts, batches,
    deletes, a rendezvous rebalance and snapshot→restore."""

    OPS = ("insert", "insert_many", "commit_batch", "delete", "rebalance", "restore")

    @staticmethod
    def _vectors(seed: int, count: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        dense = (rng.random((count, 6)) < 0.5) * rng.random((count, 6))
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return dense

    @staticmethod
    def _check_columns(index, tables) -> None:
        """Vectorised same-bucket == scalar key equality; cached ids == live set."""
        index.check_invariants()
        ids = index.ids
        assert ids.tolist() == list(index._live_ids)
        if ids.size == 0:
            return
        rng = np.random.default_rng(ids.size)
        left = ids[rng.integers(0, ids.size, size=64)]
        right = ids[rng.integers(0, ids.size, size=64)]
        for table in tables:
            key = table.signature_key
            expected = [key(u) == key(v) for u, v in zip(left, right)]
            assert table.same_bucket_many(left, right).tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=30,
        )
    )
    def test_columns_match_scalar_lookups(self, steps):
        unsharded = MutableLSHIndex(6, num_hashes=3, random_state=29)
        sharded = ShardedMutableIndex(
            6, num_shards=3, num_hashes=3, random_state=29, partitioner="rendezvous"
        )
        for op, value in steps:
            live = list(sharded.ids)
            if op == "delete" and live:
                victim = int(live[value % len(live)])
                unsharded.delete(victim)
                sharded.delete(victim)
            elif op == "insert":
                vector = self._vectors(value, 1)[0]
                assert unsharded.insert(vector) == sharded.insert(vector)
            elif op in ("insert_many", "commit_batch"):
                matrix = self._vectors(value, 1 + value % 5)
                expected = unsharded.insert_many(matrix)
                if op == "insert_many":
                    got = sharded.insert_many(matrix)
                else:
                    got = sharded.commit_batch(sharded.prepare_batch(matrix))
                np.testing.assert_array_equal(got, expected)
            elif op == "rebalance":
                rebalance_cluster(sharded, num_shards=1 + value % 4)
            elif op == "restore":
                unsharded = MutableLSHIndex.from_state(unsharded.to_state())
                sharded = ShardedMutableIndex.from_state(sharded.to_state())
            np.testing.assert_array_equal(sharded.ids, unsharded.ids)
            self._check_columns(unsharded, unsharded.tables)
            self._check_columns(sharded, [sharded.primary_table])
            for shard in sharded.shards:
                self._check_columns(shard.index, [shard.index.primary_table])
            assert sharded.num_collision_pairs == unsharded.num_collision_pairs
