"""Tests for online shard rebalancing (repro.shard.rebalance + partitioners)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StrandedWritesError, ValidationError
from repro.shard import (
    KeyMove,
    KeyPartitioner,
    RebalancePlan,
    RendezvousPartitioner,
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    apply_plan,
    plan_rebalance,
    rebalance_cluster,
    resolve_partitioner,
)
from repro.shard.partition import (
    key_signature_matrix,
    partitioner_from_state,
    partitioner_state,
)
from repro.shard.rebalance import split_index_state, splice_index_state
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


def _build_pair(collection, churn_log, *, num_shards, partitioner="rendezvous",
                shard_estimators=True, estimator_kwargs=None):
    """(unsharded reference estimator, sharded cluster) over the same log."""
    log = churn_log
    unsharded = MutableLSHIndex(
        collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
    )
    log.replay(unsharded)
    reference = StreamingEstimator(unsharded, random_state=0)
    sharded = ShardedMutableIndex(
        collection.dimension,
        num_shards=num_shards,
        num_hashes=NUM_HASHES,
        random_state=SEED,
        partitioner=partitioner,
        shard_estimators=shard_estimators,
        estimator_kwargs=estimator_kwargs,
    )
    with ShardRouter(sharded, batch_size=64) as router:
        router.replay(log)
    return reference, sharded


def _assert_matches_reference(sharded, reference, *, seeds=(11, 99)):
    sharded.check_invariants()
    unsharded = reference.index
    assert sharded.size == unsharded.size
    assert sharded.num_collision_pairs == unsharded.num_collision_pairs
    assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
    estimator = ShardedStreamingEstimator(sharded)
    for seed in seeds:
        ours = estimator.estimate(0.7, random_state=seed, mode="exact")
        theirs = reference.estimate(0.7, random_state=seed, mode="exact")
        assert ours.value == theirs.value


class TestRendezvousPartitioner:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RendezvousPartitioner(0)

    def test_single_shard_is_constant(self):
        assert RendezvousPartitioner(1)(b"\x01" * 16) == 0

    def test_key_and_signature_paths_agree(self):
        partitioner = RendezvousPartitioner(7)
        rng = np.random.default_rng(0)
        signatures = rng.integers(-4, 4, size=(60, 12)).astype(np.int64)
        batch = partitioner.shard_of_signatures(signatures)
        for position in range(signatures.shape[0]):
            key = np.ascontiguousarray(signatures[position]).tobytes()
            assert partitioner.shard_of(key) == batch[position]

    def test_deterministic_and_spread(self):
        partitioner = RendezvousPartitioner(4)
        rng = np.random.default_rng(1)
        signatures = rng.integers(0, 2, size=(2000, 16)).astype(np.int64)
        first = partitioner.shard_of_signatures(signatures)
        np.testing.assert_array_equal(
            first, partitioner.shard_of_signatures(signatures)
        )
        counts = np.bincount(first, minlength=4)
        assert counts.min() > 0.15 * signatures.shape[0]

    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_resize_moves_minimal_fraction(self, num_shards):
        """Growing S → S+1 relocates ~1/(S+1) of keys, all onto the new shard."""
        rng = np.random.default_rng(3)
        signatures = rng.integers(-8, 8, size=(20000, 12)).astype(np.int64)
        old = RendezvousPartitioner(num_shards).shard_of_signatures(signatures)
        new = RendezvousPartitioner(num_shards).with_num_shards(
            num_shards + 1
        ).shard_of_signatures(signatures)
        moved = old != new
        assert np.mean(moved) <= 1.5 / (num_shards + 1)
        assert np.all(new[moved] == num_shards)  # only arrivals at the new shard

    def test_state_round_trip_and_equality(self):
        for partitioner in (RendezvousPartitioner(5), KeyPartitioner(3)):
            revived = partitioner_from_state(partitioner_state(partitioner))
            assert revived == partitioner
        assert RendezvousPartitioner(3) != KeyPartitioner(3)

    def test_resolve_partitioner(self):
        assert resolve_partitioner("rendezvous", 3) == RendezvousPartitioner(3)
        assert resolve_partitioner("modulo", 2) == KeyPartitioner(2)
        assert resolve_partitioner(KeyPartitioner, 4) == KeyPartitioner(4)
        with pytest.raises(ValidationError):
            resolve_partitioner("fibonacci", 2)
        with pytest.raises(ValidationError):
            resolve_partitioner(KeyPartitioner(2), 3)  # instance must match S

    def test_key_signature_matrix_round_trip(self):
        rng = np.random.default_rng(9)
        signatures = rng.integers(-4, 4, size=(25, 6)).astype(np.int64)
        keys = [np.ascontiguousarray(row).tobytes() for row in signatures]
        np.testing.assert_array_equal(key_signature_matrix(keys, 6), signatures)
        assert key_signature_matrix([], 6).shape == (0, 6)
        with pytest.raises(ValidationError):
            key_signature_matrix(keys, 5)


class TestSplitSplice:
    """State-level key-range extraction on the snapshot substrate."""

    def _index(self, small_collection):
        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=NUM_HASHES, num_tables=2, random_state=SEED
        )
        for row in range(10):  # duplicates: multi-member buckets exist
            index.insert(small_collection.row(row))
        return index

    def test_split_then_splice_is_lossless(self, small_collection):
        index = self._index(small_collection)
        state = index.to_state()
        primary_keys = [key for key, _ in state["tables"][0]]
        moved_keys = set(primary_keys[::3])
        remaining, payload = split_index_state(state, moved_keys)
        # the two sides partition the vectors
        assert set(remaining["live_ids"]).isdisjoint(payload["ids"])
        assert sorted(remaining["live_ids"] + payload["ids"]) == sorted(
            state["live_ids"]
        )
        # moved collision pairs counted exactly
        sizes = [len(m) for k, m in state["tables"][0] if k in moved_keys]
        assert payload["collision_pairs"] == sum(s * (s - 1) // 2 for s in sizes)
        # splicing into an empty shard of the same cluster shape works
        empty = MutableLSHIndex(
            small_collection.dimension,
            num_hashes=NUM_HASHES,
            num_tables=2,
            families=index.families,
        ).to_state()
        target = MutableLSHIndex.from_state(splice_index_state(empty, payload))
        source = MutableLSHIndex.from_state(remaining)
        target.check_invariants()
        source.check_invariants()
        assert source.size + target.size == index.size
        assert (
            source.num_collision_pairs + target.num_collision_pairs
            == index.num_collision_pairs
        )
        # migrated rows are bit-identical
        moved = np.asarray(payload["ids"], dtype=np.int64)
        np.testing.assert_array_equal(
            target.cosine_pairs(moved, moved), index.cosine_pairs(moved, moved)
        )

    def test_split_unknown_key_rejected(self, small_collection):
        state = self._index(small_collection).to_state()
        absent = np.full(NUM_HASHES, 12345, dtype=np.int64).tobytes()
        with pytest.raises(ValidationError):
            split_index_state(state, [absent])

    def test_splice_duplicate_ids_rejected(self, small_collection):
        index = self._index(small_collection)
        state = index.to_state()
        keys = [key for key, _ in state["tables"][0]][:2]
        _, payload = split_index_state(state, keys)
        with pytest.raises(ValidationError):
            splice_index_state(state, payload)  # ids still live in the source

    def test_splice_straddling_bucket_rejected(self, small_collection):
        index = self._index(small_collection)
        state = index.to_state()
        keys = [key for key, _ in state["tables"][0]][:1]
        remaining, payload = split_index_state(state, keys)
        spliced = splice_index_state(remaining, payload)
        with pytest.raises(ValidationError):
            # same bucket key arriving twice must be refused
            shifted = dict(payload, ids=[i + 10 ** 5 for i in payload["ids"]])
            splice_index_state(spliced, shifted)


class TestRebalance:
    def test_grow_keeps_exact_estimates_bit_identical(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        plan = rebalance_cluster(sharded, num_shards=3)
        assert sharded.num_shards == 3
        assert plan.moved_fraction <= 1.5 / 3
        assert plan.moved_vectors > 0
        _assert_matches_reference(sharded, reference)

    def test_shrink_keeps_exact_estimates_bit_identical(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=3)
        rebalance_cluster(sharded, num_shards=2)
        assert sharded.num_shards == 2
        assert len(sharded.shards) == 2
        _assert_matches_reference(sharded, reference)

    def test_partitioner_switch_keeps_exact_estimates(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400),
            num_shards=4, partitioner="modulo"
        )
        plan = rebalance_cluster(sharded, partitioner="rendezvous")
        assert sharded.partitioner == RendezvousPartitioner(4)
        assert plan.moved_keys > 0  # a kind switch reshuffles
        _assert_matches_reference(sharded, reference)

    def test_snapshot_partitioner_kind_round_trips(self, small_collection, churn_log_factory, tmp_path):
        _, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        path = tmp_path / "cluster.pkl"
        sharded.snapshot(path)
        revived = ShardedMutableIndex.restore(path)
        assert revived.partitioner == sharded.partitioner
        assert revived.partitioner.kind == "rendezvous"

    def test_inserts_after_rebalance_follow_new_owners(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        rebalance_cluster(sharded, num_shards=3)
        # duplicates of already-indexed vectors land in existing (possibly
        # migrated) buckets — both write paths must hit the owning shard
        for row in range(20):
            sharded.insert(small_collection.row(row))
            reference.index.insert(small_collection.row(row))
        sharded.insert_many(small_collection.matrix[:15])
        reference.index.insert_many(small_collection.matrix[:15])
        _assert_matches_reference(sharded, reference)

    def test_empty_cluster_rebalance(self):
        sharded = ShardedMutableIndex(
            4, num_shards=2, num_hashes=4, random_state=0, partitioner="rendezvous"
        )
        plan = rebalance_cluster(sharded, num_shards=3)
        assert plan.moved_keys == 0 and plan.total_keys == 0
        assert sharded.num_shards == 3
        sharded.check_invariants()

    def test_noop_rebalance(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        plan = rebalance_cluster(sharded)
        assert plan.moved_keys == 0
        _assert_matches_reference(sharded, reference)

    def test_manual_plan_migrates_chosen_keys(self, small_collection, churn_log_factory):
        """A hand-built plan (partitioner=None) performs a raw key-range
        migration; the facade keeps routing to the new owners."""
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        keys = [
            key for key, ref in sharded._bucket_refs.items()
            if ref[1] == 0
        ][:5]
        plan = RebalancePlan(
            moves=[KeyMove(key, 0, 1) for key in keys],
            total_keys=len(sharded._bucket_refs),
        )
        apply_plan(sharded, plan)
        for key in keys:
            assert sharded._bucket_refs[key][1] == 1
        _assert_matches_reference(sharded, reference)

    def test_stale_plan_rejected(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        key = next(iter(sharded._bucket_refs))
        owner = sharded._bucket_refs[key][1]
        bad_source = RebalancePlan(
            moves=[KeyMove(key, 1 - owner, owner)], total_keys=1
        )
        with pytest.raises(ValidationError):
            apply_plan(sharded, bad_source)
        with pytest.raises(ValidationError):
            apply_plan(
                sharded, RebalancePlan(moves=[KeyMove(key, owner, 9)], total_keys=1)
            )
        with pytest.raises(ValidationError):
            apply_plan(
                sharded, RebalancePlan(moves=[KeyMove(b"nope", 0, 1)], total_keys=1)
            )

    def test_shrink_with_occupied_trailing_shard_rejected(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=3)
        with pytest.raises(ValidationError):
            sharded.drop_trailing_shards(2)  # nothing migrated away yet

    def test_plan_requires_grown_cluster(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        with pytest.raises(ValidationError):
            plan_rebalance(sharded, RendezvousPartitioner(5))


class TestEstimatorMigration:
    """Per-shard reservoirs survive a migration repaired, not redrawn."""

    def test_reservoirs_stay_valid_after_rebalance(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(
            small_collection,
            churn_log_factory(small_collection, 400),
            num_shards=2,
            estimator_kwargs={"reservoir_size": 128},
        )
        rebalance_cluster(sharded, num_shards=3)
        for shard in sharded.shards:
            estimator = shard.estimator
            assert estimator is not None
            assert estimator.index is shard.index  # rebound to the new index
            table = shard.index.primary_table
            for stratum, colliding in (("h", True), ("l", False)):
                left, right = estimator.reservoir_pairs(stratum)
                for u, v in zip(left, right):
                    # every surviving pair lives wholly inside this shard
                    # and still belongs to its stratum
                    assert int(u) in shard.index and int(v) in shard.index
                    assert table.same_bucket(int(u), int(v)) == colliding

    def test_merged_mode_still_serves_after_rebalance(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(
            small_collection,
            churn_log_factory(small_collection, 400),
            num_shards=2,
            estimator_kwargs={"reservoir_size": 256},
        )
        estimator = ShardedStreamingEstimator(sharded)
        before = np.median(
            [estimator.estimate(0.5, random_state=s, mode="exact").value
             for s in range(9)]
        )
        rebalance_cluster(sharded, num_shards=3)
        for shard in sharded.shards:
            shard.estimator.refresh()
        merged = np.median(
            [estimator.estimate(0.5, random_state=s, mode="merged").value
             for s in range(9)]
        )
        assert merged == pytest.approx(before, rel=0.5)

    def test_sharded_restore_preserves_merged_estimates(self, small_collection, churn_log_factory, tmp_path):
        """The PR-2 bug: restores used to redraw every reservoir.  Now the
        merged (reservoir-pooling) estimate replays bit-identically."""
        _, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400),
            num_shards=3, estimator_kwargs={"reservoir_size": 64}
        )
        path = tmp_path / "cluster.pkl"
        sharded.snapshot(path)
        revived = ShardedMutableIndex.restore(path)
        original = ShardedStreamingEstimator(sharded)
        restored = ShardedStreamingEstimator(revived)
        for seed in (1, 42):
            for mode in ("merged", "exact"):
                ours = restored.estimate(0.7, random_state=seed, mode=mode)
                theirs = original.estimate(0.7, random_state=seed, mode=mode)
                assert ours.value == theirs.value, (seed, mode)

    def test_legacy_snapshot_without_estimators_restores(self, small_collection, churn_log_factory):
        """Pre-rebalance snapshots (no partitioner / estimator states) load."""
        _, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2, partitioner="modulo")
        state = sharded.to_state()
        state.pop("partitioner")
        state.pop("estimators", None)
        for shard_state in state["shards"]:
            shard_state.pop("estimators", None)
        revived = ShardedMutableIndex.from_state(state, estimator_seed=7)
        revived.check_invariants()
        assert revived.partitioner == KeyPartitioner(2)
        assert all(shard.estimator is not None for shard in revived.shards)


class TestMigrationPropertyBased:
    """Acceptance property (b): for arbitrary event sequences, migrating a
    cluster (grow by one shard, then shrink back) leaves exact-mode
    estimates bit-identical to an unsharded estimator, at S ∈ {2, 3}."""

    POOL_SEED = 78

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestMigrationPropertyBased.POOL_SEED)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40),
        st.sampled_from([2, 3]),
    )
    def test_migrate_then_estimate_matches_unsharded(self, ops, num_shards):
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
            pool.dimension,
            num_shards=num_shards,
            num_hashes=6,
            random_state=13,
            partitioner="rendezvous",
        )
        with ShardRouter(sharded, batch_size=7) as router:
            router.replay(log)
        rebalance_cluster(sharded, num_shards=num_shards + 1)
        rebalance_cluster(sharded, num_shards=num_shards)
        sharded.check_invariants()
        assert sharded.size == unsharded.size
        assert sharded.num_collision_pairs == unsharded.num_collision_pairs
        assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
        if sharded.size == 0:
            return
        ours = ShardedStreamingEstimator(sharded).estimate(
            0.5, random_state=1, mode="exact"
        )
        theirs = StreamingEstimator(unsharded, random_state=5).estimate(
            0.5, random_state=1, mode="exact"
        )
        assert ours.value == theirs.value


class TestRouterFlushGuarantees:
    """Regressions: buffered inserts must never be silently dropped."""

    def test_replay_flushes_buffer_when_an_event_fails(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        log = ChangeLog()
        log.append(Insert([1.0, 0.0, 0.0, 0.0]))
        log.append(Insert([0.0, 1.0, 0.0, 0.0]))
        log.append(Insert([0.0, 0.0, 0.0]))  # wrong dimension: replay fails
        router = ShardRouter(index, batch_size=100)
        with pytest.raises(ValidationError):
            router.replay(log)
        # the two valid buffered inserts were committed, not dropped
        assert router.pending == 0
        assert index.size == 2
        router.close()

    def test_replay_without_trailing_checkpoint_flushes(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        log = ChangeLog()
        for _ in range(3):
            log.append(Insert([1.0, 0.5, 0.0, 0.0]))
        with ShardRouter(index, batch_size=100) as router:
            router.replay(log)  # ends mid-batch
            assert router.pending == 0
        assert index.size == 3

    def test_estimate_sees_buffered_inserts(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        estimator = ShardedStreamingEstimator(index, router=router)
        for _ in range(4):
            router.insert([1.0, 0.5, 0.0, 0.0])
        assert router.pending == 4
        estimate = estimator.estimate(0.5, random_state=0, mode="exact")
        assert router.pending == 0
        assert index.size == 4
        assert estimate.value > 0.0  # four duplicates: a real join size
        router.close()

    def test_close_is_idempotent_and_late_writes_flush(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100, max_workers=4)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.close()
        router.close()
        assert index.size == 1
        router.insert([0.0, 1.0, 0.0, 0.0])  # post-close writes fall back
        router.flush()
        assert index.size == 2


class TestOwnerOverrideFastPath:
    """The hot ingest path skips owner re-checks unless owners diverge."""

    def test_flag_clear_after_full_rebalance(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400), num_shards=2
        )
        assert not sharded._owner_overrides  # never-rebalanced cluster
        rebalance_cluster(sharded, num_shards=3)
        # a full plan realigns every owner with the new partitioner
        assert not sharded._owner_overrides

    def test_flag_set_by_manual_plan_and_restored(self, small_collection,
                                                  churn_log_factory, tmp_path):
        _, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400), num_shards=2
        )
        keys = [
            key for key, ref in sharded._bucket_refs.items()
            if ref[1] == 0
        ][:3]
        apply_plan(
            sharded,
            RebalancePlan(moves=[KeyMove(key, 0, 1) for key in keys],
                          total_keys=len(sharded._bucket_refs)),
        )
        assert sharded._owner_overrides  # owners now deviate from the partitioner
        path = tmp_path / "cluster.pkl"
        sharded.snapshot(path)
        revived = ShardedMutableIndex.restore(path)
        assert revived._owner_overrides  # restore re-detects the divergence
        # routing still honours the manual owners on both write paths
        for row in range(10):
            revived.insert(small_collection.row(row))
        revived.insert_many(small_collection.matrix[:10])
        revived.check_invariants()


class TestCommitFailureSafety:
    """A commit that fails partway must poison the router, not double-ingest."""

    def test_failed_commit_refuses_retry(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        for _ in range(3):
            router.insert([1.0, 0.5, 0.0, 0.0])

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        originals = [shard.index.insert_many_prepared for shard in index.shards]
        for shard in index.shards:
            shard.index.insert_many_prepared = explode
        with pytest.raises(RuntimeError):
            router.flush()
        for shard, original in zip(index.shards, originals):
            shard.index.insert_many_prepared = original
        # the commit may have partially applied: retrying would re-claim
        # ids and ingest the rows twice, so the router refuses
        with pytest.raises(ValidationError):
            router.flush()
        # close skips the unsafe final flush but must not strand the
        # buffered rows silently: it raises, carrying the unapplied rows
        with pytest.raises(StrandedWritesError) as excinfo:
            router.close()
        assert len(excinfo.value.pending_rows) == 3
        router.close()  # rows were drained into the error: now idempotent
        index.check_invariants()
        assert index.size == 0

    def test_legacy_snapshot_with_out_of_range_budget_restores(self, small_collection,
                                                               churn_log_factory):
        """PR-2-era snapshots could store staleness_budget > 1 (then valid,
        meaning 'never repair'); they must keep restoring, clamped to the
        equivalent 1.0."""
        _, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 200), num_shards=2
        )
        state = sharded.to_state()
        state["estimator_kwargs"] = {"staleness_budget": 100.0}
        for shard_state in state["shards"]:
            shard_state.pop("estimators", None)  # old snapshots had none
        revived = ShardedMutableIndex.from_state(state, estimator_seed=3)
        revived.check_invariants()
        for shard in revived.shards:
            assert shard.estimator.staleness_budget == 1.0
