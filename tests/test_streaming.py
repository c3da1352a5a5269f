"""Tests for the streaming subsystem (mutable index, estimator, events)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import LSHSSEstimator
from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh import LSHIndex, SignRandomProjectionFamily
from repro.streaming import (
    ChangeLog,
    Checkpoint,
    Delete,
    Insert,
    MutableLSHIndex,
    MutableLSHTable,
    StreamingEstimator,
)
from repro.streaming.events import event_from_dict, event_to_dict
from repro.vectors import VectorCollection, cosine_pairs


def _bucket_stats(table: MutableLSHTable):
    """Order-independent bucket fingerprint: (n, N_H, sorted bucket sizes)."""
    return (
        table.num_vectors,
        table.num_collision_pairs,
        sorted(table.bucket_sizes.tolist()),
    )


@pytest.fixture
def mutable_index(small_collection) -> MutableLSHIndex:
    return MutableLSHIndex.from_collection(
        small_collection, num_hashes=12, num_tables=2, random_state=19
    )


class TestMutableLSHTable:
    def test_insert_delete_bookkeeping(self):
        family = SignRandomProjectionFamily(4, random_state=0)
        family.ensure_initialised(3)
        table = MutableLSHTable(family)
        signature = np.array([1, 0, 1, 0])
        assert table.insert(0, signature) == 0
        assert table.insert(1, signature) == 1  # same bucket: one new pair
        assert table.insert(2, np.array([0, 0, 0, 0])) == 0
        assert table.num_collision_pairs == 1
        assert table.num_buckets == 2
        assert table.delete(1) == 1
        assert table.num_collision_pairs == 0
        table.check_invariants()

    def test_duplicate_id_rejected(self):
        table = MutableLSHTable(SignRandomProjectionFamily(2, random_state=0))
        table.insert(5, np.array([1, 0]))
        with pytest.raises(ValidationError):
            table.insert(5, np.array([0, 1]))

    @pytest.mark.parametrize("vector_id", [-1, 1 << 27])
    def test_out_of_range_id_rejected_before_any_bucket_opens(self, vector_id):
        table = MutableLSHTable(SignRandomProjectionFamily(2, random_state=0))
        with pytest.raises(ValidationError):
            table.insert(vector_id, np.array([1, 0]))
        assert table.num_buckets == 0
        table.check_invariants()

    def test_unknown_id_delete_rejected(self):
        table = MutableLSHTable(SignRandomProjectionFamily(2, random_state=0))
        with pytest.raises(ValidationError):
            table.delete(3)

    def test_wrong_signature_length_rejected(self):
        table = MutableLSHTable(SignRandomProjectionFamily(3, random_state=0))
        with pytest.raises(ValidationError):
            table.insert(0, np.array([1, 0]))

    @pytest.mark.parametrize("missing", [2, -1, 10_000])
    def test_same_bucket_many_names_a_missing_id(self, missing):
        # deleted, negative, and beyond the ordinal column's size: always a
        # ValidationError naming the id (never KeyError / IndexError, never
        # a negative index silently wrapping onto a live id)
        table = MutableLSHTable(SignRandomProjectionFamily(2, random_state=0))
        for vector_id in range(3):
            table.insert(vector_id, np.array([1, 0]))
        table.delete(2)
        for left, right in (([0, missing], [1, 0]), ([0, 1], [1, missing])):
            with pytest.raises(ValidationError, match=f"vector id {missing} "):
                table.same_bucket_many(np.asarray(left), np.asarray(right))
        with pytest.raises(ValidationError, match=f"vector id {missing} "):
            table.signature_key(missing)

    def test_sample_collision_pairs_share_bucket(self, mutable_index, rng):
        table = mutable_index.primary_table
        left, right = table.sample_collision_pairs(64, random_state=rng)
        assert np.all(table.same_bucket_many(left, right))
        assert np.all(left != right)

    def test_sample_collision_pairs_empty_stratum(self):
        table = MutableLSHTable(SignRandomProjectionFamily(2, random_state=0))
        table.insert(0, np.array([1, 0]))
        with pytest.raises(InsufficientSampleError):
            table.sample_collision_pairs(4)


class TestMutableLSHIndex:
    def test_bulk_load_matches_static_build(self, small_collection):
        mutable = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, num_tables=3, random_state=19
        )
        static = LSHIndex(small_collection, num_hashes=12, num_tables=3, random_state=19)
        for mutable_table, static_table in zip(mutable.tables, static.tables):
            assert mutable_table.num_collision_pairs == static_table.num_collision_pairs
            assert mutable_table.num_buckets == static_table.num_buckets
            assert sorted(mutable_table.bucket_sizes.tolist()) == sorted(
                static_table.bucket_counts.tolist()
            )

    def test_incremental_inserts_match_bulk_load(self, small_collection):
        bulk = MutableLSHIndex.from_collection(small_collection, num_hashes=10, random_state=3)
        one_by_one = MutableLSHIndex(small_collection.dimension, num_hashes=10, random_state=3)
        for row in range(small_collection.size):
            one_by_one.insert(small_collection.row(row))
        assert one_by_one.num_collision_pairs == bulk.num_collision_pairs
        assert one_by_one.primary_table.signature_key(5) == bulk.primary_table.signature_key(5)

    def test_sequential_ids_never_reused(self, tiny_collection):
        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        first = index.insert(tiny_collection.row(0))
        second = index.insert(tiny_collection.row(1))
        assert (first, second) == (0, 1)
        index.delete(first)
        assert index.insert(tiny_collection.row(2)) == 2
        assert first not in index and second in index

    def test_insert_accepts_dict_dense_and_sparse(self):
        index = MutableLSHIndex(5, num_hashes=4, random_state=0)
        index.insert({0: 1.0, 3: 2.0})
        index.insert([0.0, 1.0, 0.0, 0.0, 1.0])
        index.insert(sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 1.0, 0.0]])))
        assert index.size == 3

    def test_insert_validation(self):
        index = MutableLSHIndex(3, num_hashes=4, random_state=0)
        with pytest.raises(ValidationError):
            index.insert({7: 1.0})  # out-of-range dimension index
        with pytest.raises(ValidationError):
            index.insert([1.0, 2.0])  # wrong dimensionality
        with pytest.raises(ValidationError):
            index.insert([1.0, float("nan"), 0.0])
        with pytest.raises(ValidationError):
            index.delete(99)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            MutableLSHIndex(0, num_hashes=4)
        with pytest.raises(ValidationError):
            MutableLSHIndex(4, num_tables=0)

    def test_insert_delete_round_trip_restores_bucket_stats(self, mutable_index, small_collection):
        before = [_bucket_stats(table) for table in mutable_index.tables]
        pairs_before = mutable_index.num_collision_pairs
        extra_ids = [mutable_index.insert(small_collection.row(r)) for r in range(12)]
        assert mutable_index.num_collision_pairs > pairs_before  # duplicates collide
        for vector_id in extra_ids:
            mutable_index.delete(vector_id)
        mutable_index.check_invariants()
        assert [_bucket_stats(table) for table in mutable_index.tables] == before
        assert mutable_index.num_collision_pairs == pairs_before

    def test_strata_partition_all_pairs(self, mutable_index):
        assert (
            mutable_index.num_collision_pairs + mutable_index.num_non_collision_pairs
            == mutable_index.total_pairs
        )

    def test_cosine_pairs_matches_static(self, mutable_index, small_collection, rng):
        left = rng.integers(0, small_collection.size, size=50)
        right = rng.integers(0, small_collection.size, size=50)
        np.testing.assert_allclose(
            mutable_index.cosine_pairs(left, right),
            cosine_pairs(small_collection, left, right),
        )

    def test_cosine_pairs_unknown_id(self, mutable_index):
        with pytest.raises(ValidationError):
            mutable_index.cosine_pairs([10 ** 6], [0])

    def test_sample_non_collision_pairs_cross_bucket(self, mutable_index, rng):
        left, right = mutable_index.sample_non_collision_pairs(64, random_state=rng)
        table = mutable_index.primary_table
        assert not np.any(table.same_bucket_many(left, right))

    def test_to_collection_round_trip(self, mutable_index, small_collection):
        collection, ids = mutable_index.to_collection()
        assert collection.size == small_collection.size
        position = int(np.flatnonzero(ids == 7)[0])
        np.testing.assert_allclose(
            collection.row_dense(position), small_collection.row_dense(7)
        )

    def test_churn_matches_fresh_build(self, small_collection):
        """After arbitrary churn, N_H equals a fresh batch build's (same seed)."""
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=10, random_state=11)
        rng = np.random.default_rng(0)
        live = list(range(small_collection.size))
        for _ in range(60):
            victim = live.pop(int(rng.integers(0, len(live))))
            index.delete(victim)
        for row in range(20):
            index.insert(small_collection.row(row))
        final_collection, _ = index.to_collection()
        fresh = LSHIndex(final_collection, num_hashes=10, random_state=11)
        assert index.num_collision_pairs == fresh.primary_table.num_collision_pairs
        assert index.total_pairs == final_collection.total_pairs


class TestChangeLogEvents:
    def test_jsonl_round_trip(self, tmp_path):
        log = ChangeLog()
        log.append(Insert({0: 1.0, 2: 0.5}))
        log.append(Insert([0.0, 1.0, 1.0]))
        log.append(Delete(0))
        log.append(Checkpoint("after-first"))
        path = tmp_path / "events.jsonl"
        log.to_jsonl(path)
        loaded = ChangeLog.from_jsonl(path)
        assert len(loaded) == 4
        assert loaded[0] == Insert({0: 1.0, 2: 0.5})
        assert loaded[1] == Insert([0.0, 1.0, 1.0])
        assert loaded[2] == Delete(0)
        assert loaded[3] == Checkpoint("after-first")
        assert loaded.num_mutations == 3

    def test_event_dict_errors(self):
        with pytest.raises(ValidationError):
            event_from_dict({"op": "upsert"})
        with pytest.raises(ValidationError):
            event_from_dict({"op": "insert"})
        with pytest.raises(ValidationError):
            event_from_dict({"op": "delete"})
        with pytest.raises(ValidationError):
            event_to_dict("not an event")

    def test_malformed_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "insert", "dense": [1.0]}\nnot json\n')
        with pytest.raises(ValidationError):
            ChangeLog.from_jsonl(path)

    def test_replay_emits_estimates_at_checkpoints(self, small_collection):
        log = ChangeLog()
        for row in range(40):
            log.append(Insert(small_collection.row_dict(row)))
        log.append(Checkpoint("mid"))
        for row in range(40, 80):
            log.append(Insert(small_collection.row_dict(row)))
        log.append(Delete(3))
        log.append(Checkpoint("end"))
        index = MutableLSHIndex(small_collection.dimension, num_hashes=8, random_state=5)
        estimator = StreamingEstimator(index, random_state=1)
        results = log.replay(index, estimator=estimator, threshold=0.8, random_state=2)
        assert [label for label, _ in results] == ["mid", "end"]
        assert index.size == 79
        assert all(estimate.value >= 0 for _, estimate in results)

    def test_replay_matches_fresh_build_property(self, small_collection):
        """Acceptance property: replaying a log yields the strata a fresh
        LSH-SS build over the final collection reports (same seed)."""
        rng = np.random.default_rng(42)
        log = ChangeLog()
        live: list = []
        next_id = 0
        for step in range(200):
            if live and rng.random() < 0.3:
                victim = int(rng.choice(live))
                live.remove(victim)
                log.append(Delete(victim))
            else:
                row = int(rng.integers(0, small_collection.size))
                log.append(Insert(small_collection.row_dict(row)))
                live.append(next_id)
                next_id += 1
        index = MutableLSHIndex(small_collection.dimension, num_hashes=10, random_state=23)
        estimator = StreamingEstimator(index, random_state=7)
        log.replay(index)
        index.check_invariants()

        final_collection, _ = index.to_collection()
        fresh_index = LSHIndex(final_collection, num_hashes=10, random_state=23)
        fresh_estimator = LSHSSEstimator(fresh_index.primary_table)

        streamed = estimator.estimate(0.7, random_state=99, mode="exact")
        batch = fresh_estimator.estimate(0.7, random_state=99)
        assert streamed.details["num_collision_pairs"] == batch.details["num_collision_pairs"]
        assert (
            streamed.details["num_non_collision_pairs"]
            == batch.details["num_non_collision_pairs"]
        )

    def test_pure_insert_replay_estimates_identical_to_batch(self, small_collection):
        """With inserts only, exact-mode draws coincide with the static
        estimator's bit for bit: same seed ⇒ the same estimate value."""
        log = ChangeLog([Insert(small_collection.row_dict(r)) for r in range(small_collection.size)])
        index = MutableLSHIndex(small_collection.dimension, num_hashes=12, random_state=19)
        log.replay(index)
        estimator = StreamingEstimator(index, random_state=3)

        static_index = LSHIndex(small_collection, num_hashes=12, random_state=19)
        static_estimator = LSHSSEstimator(static_index.primary_table)
        for threshold in (0.5, 0.8):
            streamed = estimator.estimate(threshold, random_state=123, mode="exact")
            batch = static_estimator.estimate(threshold, random_state=123)
            assert streamed.value == batch.value


class TestStreamingEstimator:
    def test_parameter_validation(self, mutable_index):
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, sample_size_h=0)
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, reservoir_size=0)
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, staleness_budget=0.0)
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, dampening=1.5)

    def test_invalid_mode_rejected(self, mutable_index):
        estimator = StreamingEstimator(mutable_index, random_state=0)
        with pytest.raises(ValidationError):
            estimator.estimate(0.5, mode="telepathy")

    def test_reservoirs_hold_valid_stratum_pairs(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(index, reservoir_size=64, random_state=0)
        table = index.primary_table
        h_left, h_right = estimator._reservoir_h.arrays()
        l_left, l_right = estimator._reservoir_l.arrays()
        assert h_left.size == 64 and l_left.size == 64
        assert np.all(table.same_bucket_many(h_left, h_right))
        assert not np.any(table.same_bucket_many(l_left, l_right))

    def test_delete_evicts_reservoir_pairs(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        # maximum budget: repairs never trigger, so evictions stay visible
        estimator = StreamingEstimator(
            index, reservoir_size=64, staleness_budget=1.0, random_state=0
        )
        victims = set()
        h_left, h_right = estimator._reservoir_h.arrays()
        victims.add(int(h_left[0]))
        victims.add(int(h_right[-1]))
        for victim in victims:
            index.delete(victim)
        for reservoir in (estimator._reservoir_h, estimator._reservoir_l):
            left, right = reservoir.arrays()
            assert not (set(left.tolist()) | set(right.tolist())) & victims

    def test_staleness_grows_and_refresh_resets(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(
            index, reservoir_size=32, staleness_budget=1.0, random_state=0
        )
        assert estimator.staleness_h == 0.0
        for row in range(10):
            index.insert(small_collection.row(row))  # duplicates: must land in buckets
        assert estimator.staleness_h > 0.0
        assert estimator.staleness_l > 0.0
        estimator.refresh()
        assert estimator.staleness_h == 0.0
        assert estimator.staleness_l == 0.0

    def test_auto_repair_keeps_staleness_within_budget(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(
            index, reservoir_size=32, staleness_budget=0.2, random_state=0
        )
        rng = np.random.default_rng(1)
        live = list(range(small_collection.size))
        for step in range(120):
            if live and rng.random() < 0.4:
                victim = live.pop(int(rng.integers(0, len(live))))
                index.delete(victim)
            else:
                live.append(index.insert(small_collection.row(int(rng.integers(0, 100)))))
            assert estimator.staleness_h <= 0.2
            assert estimator.staleness_l <= 0.2
            deficit_h = 1.0 - len(estimator._reservoir_h) / estimator.reservoir_size
            assert deficit_h <= 0.2

    def test_estimate_details_and_modes(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(index, random_state=0)
        for mode in ("auto", "exact", "reservoir"):
            estimate = estimator.estimate(0.7, random_state=11, mode=mode)
            assert estimate.details["mode"] == mode
            assert estimate.details["n"] == small_collection.size
            assert 0.0 <= estimate.value <= index.total_pairs
        assert estimator.estimate(0.7, random_state=11, mode="exact").details["source_h"] == "exact"
        assert estimator.estimate(0.7, random_state=11, mode="auto").details["source_h"] == "reservoir"

    def test_estimate_on_tiny_index(self):
        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        estimator = StreamingEstimator(index, random_state=0)
        assert estimator.estimate(0.5).value == 0.0  # no pairs at all
        index.insert([1.0, 0.0, 0.0, 0.0])
        assert estimator.estimate(0.5).value == 0.0  # still no pairs
        index.insert([1.0, 0.0, 0.0, 0.0])
        estimate = estimator.estimate(0.5, random_state=1)
        assert estimate.value == pytest.approx(1.0)  # the duplicate pair

    def test_reservoir_mode_estimates_are_reasonable(self, small_collection, small_table):
        """Reservoir-path estimates agree with the static estimator's scale."""
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(index, reservoir_size=1024, random_state=0)
        static = LSHSSEstimator(small_table)
        threshold = 0.5
        streamed = np.mean(
            [estimator.estimate(threshold, random_state=s, mode="reservoir").value for s in range(10)]
        )
        batch = np.mean([static.estimate(threshold, random_state=s).value for s in range(10)])
        assert streamed == pytest.approx(batch, rel=0.5)


class TestReplayPropertyBased:
    """Hypothesis sweep of the replay ≡ fresh-build acceptance property."""

    POOL_SEED = 77

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestReplayPropertyBased.POOL_SEED)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40))
    def test_any_op_sequence_matches_fresh_build(self, ops):
        pool = self._pool()
        index = MutableLSHIndex(pool.dimension, num_hashes=6, random_state=13)
        estimator = StreamingEstimator(index, reservoir_size=16, random_state=5)
        live = []
        for op in ops:
            if live and op % 3 == 0:
                victim = live.pop(op % len(live))
                index.delete(victim)
            else:
                live.append(index.insert(pool.row(op % pool.size)))
        index.check_invariants()
        if index.size == 0:
            assert estimator.estimate(0.5, random_state=0).value == 0.0
            return
        final_collection, _ = index.to_collection()
        fresh = LSHIndex(final_collection, num_hashes=6, random_state=13)
        streamed = estimator.estimate(0.5, random_state=1, mode="exact")
        assert streamed.details["num_collision_pairs"] == fresh.primary_table.num_collision_pairs
        assert (
            streamed.details["num_non_collision_pairs"]
            == fresh.primary_table.num_non_collision_pairs
        )


class TestReviewRegressions:
    def test_mutations_never_raise_when_repair_cannot_sample(self):
        """A degenerate stream (rejection sampling of stratum L exhausts its
        attempts) must degrade the reservoir, not fail the mutation."""
        index = MutableLSHIndex(4, num_hashes=2, random_state=0)
        estimator = StreamingEstimator(
            index, reservoir_size=8, staleness_budget=0.01, random_state=0
        )
        vector = [1.0, 0.5, 0.0, 0.0]
        for _ in range(200):
            index.insert(vector)  # one giant bucket: stratum L stays empty
        outlier = index.insert([0.0, 0.0, 1.0, -1.0])  # tiny stratum L appears
        for _ in range(20):
            index.insert(vector)  # repairs keep triggering; must not raise
        index.delete(outlier)
        index.check_invariants()
        # the L reservoir is degraded, and auto estimates still work
        assert estimator.estimate(0.9, random_state=1).value >= 0.0

    def test_insert_many_with_explicit_zeros_matches_insert(self):
        """Explicit stored zeros must not change jaccard signatures between
        the bulk and per-vector paths (replay == fresh build invariant)."""
        data = np.array([1.0, 0.0, 2.0])          # explicit zero at column 2
        indices = np.array([0, 2, 3])
        matrix = sparse.csr_matrix((data, indices, [0, 3]), shape=(1, 5))
        bulk = MutableLSHIndex(5, num_hashes=6, family="jaccard", random_state=9)
        bulk.insert_many(matrix)
        incremental = MutableLSHIndex(5, num_hashes=6, family="jaccard", random_state=9)
        incremental.insert(matrix)
        assert (
            bulk.primary_table.signature_key(0)
            == incremental.primary_table.signature_key(0)
        )

    def test_close_detaches_estimator(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(
            index, reservoir_size=16, staleness_budget=1.0, random_state=0
        )
        estimator.close()
        index.insert(small_collection.row(0))
        assert estimator.staleness_h == 0.0  # no longer notified
        index.unregister_observer(estimator)  # double-unregister is a no-op

    def test_insert_never_mutates_or_aliases_caller_matrix(self):
        data = np.array([1.0, 0.0, 2.0])  # explicit stored zero
        caller_row = sparse.csr_matrix((data, np.array([0, 2, 3]), [0, 3]), shape=(1, 5))
        index = MutableLSHIndex(5, num_hashes=4, random_state=0)
        vector_id = index.insert(caller_row)
        assert caller_row.nnz == 3  # caller's explicit zero untouched
        assert index._rows[vector_id] is not caller_row
        caller_row[0, 0] = 99.0  # later caller-side write must not leak in
        assert index.cosine_pairs([vector_id], [vector_id])[0] == pytest.approx(1.0)
        assert index._rows[vector_id][0, 0] == 1.0

    def test_explicit_reservoir_mode_refuses_degraded_reservoir(self):
        """mode='reservoir' must honour its bucket-free contract: raise on an
        unusable reservoir rather than silently sampling buckets."""
        index = MutableLSHIndex(4, num_hashes=2, random_state=0)
        estimator = StreamingEstimator(
            index, reservoir_size=8, staleness_budget=0.01, random_state=0
        )
        for _ in range(50):
            index.insert([1.0, 0.5, 0.0, 0.0])
        index.insert([0.0, 0.0, 1.0, -1.0])  # stratum L non-empty
        estimator._reservoir_l.clear()       # force the degraded state a
        estimator._reservoir_l.degraded = True  # failed refill leaves behind
        with pytest.raises(InsufficientSampleError):
            estimator.estimate(0.9, random_state=1, mode="reservoir")
        # empty strata are fine: no reservoir is *needed*
        tiny = MutableLSHIndex(4, num_hashes=4, random_state=0)
        tiny_estimator = StreamingEstimator(tiny, random_state=0)
        assert tiny_estimator.estimate(0.5, mode="reservoir").value == 0.0


class TestRowStore:
    """Unit tests for the pooled row store behind MutableLSHIndex."""

    @staticmethod
    def _store_with(rows):
        from repro.streaming.rowstore import RowStore

        store = RowStore(rows.shape[1])
        matrix = sparse.csr_matrix(np.asarray(rows, dtype=np.float64))
        matrix.sort_indices()
        store.add_many(range(matrix.shape[0]), matrix)
        return store

    def test_gather_round_trips_rows(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
        store = self._store_with(dense)
        gathered = store.gather_raw([2, 0, 1])
        np.testing.assert_allclose(gathered.toarray(), dense[[2, 0, 1]])

    def test_gather_normalized_matches_manual(self):
        dense = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        store = self._store_with(dense)
        normalized = store.gather_normalized([0, 1]).toarray()
        np.testing.assert_allclose(normalized[0], [0.6, 0.8, 0.0])
        np.testing.assert_allclose(normalized[1], [0.0, 0.0, 1.0])

    def test_zero_row_keeps_unit_scale(self):
        dense = np.array([[0.0, 0.0], [1.0, 0.0]])
        store = self._store_with(dense)
        assert store.inv_norm(0) == 1.0
        np.testing.assert_allclose(store.gather_normalized([0]).toarray(), [[0.0, 0.0]])

    def test_missing_and_duplicate_ids_rejected(self):
        from repro.streaming.rowstore import RowStore

        store = self._store_with(np.eye(3))
        with pytest.raises(ValidationError):
            store.gather_raw([5])
        with pytest.raises(ValidationError):
            store.add(0, sparse.csr_matrix(np.array([[1.0, 0.0, 0.0]])))
        with pytest.raises(ValidationError):
            store.remove(42)
        with pytest.raises(ValidationError):
            RowStore(0)

    def test_slot_reuse_and_compaction_under_churn(self):
        from repro.streaming.rowstore import RowStore

        rng = np.random.default_rng(0)
        store = RowStore(16)
        reference = {}
        next_id = 0
        for _ in range(3000):
            if reference and rng.random() < 0.45:
                victim = int(rng.choice(list(reference)))
                store.remove(victim)
                del reference[victim]
            else:
                row = (rng.random(16) < 0.3) * rng.random(16)
                store.add(next_id, sparse.csr_matrix(row[None, :]))
                reference[next_id] = row
                next_id += 1
            store.check_invariants()
        assert len(store) == len(reference)
        ids = sorted(reference)
        gathered = store.gather_raw(ids).toarray()
        np.testing.assert_allclose(gathered, np.array([reference[i] for i in ids]))

    def test_state_round_trip(self):
        store = self._store_with(np.array([[1.0, 0.0], [0.0, 2.5]]))
        store.remove(0)
        from repro.streaming.rowstore import RowStore

        revived = RowStore.from_state(store.state())
        revived.check_invariants()
        assert list(revived.ids()) == [1]
        np.testing.assert_allclose(revived.gather_raw([1]).toarray(), [[0.0, 2.5]])

    def test_add_many_length_mismatch_rejected(self):
        from repro.streaming.rowstore import RowStore

        store = RowStore(2)
        with pytest.raises(ValidationError):
            store.add_many([0, 1, 2], sparse.csr_matrix(np.eye(2)))


class TestExternalIdsAndSnapshot:
    def test_insert_with_explicit_ids(self, tiny_collection):
        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        assert index.insert(tiny_collection.row(0), vector_id=10) == 10
        assert index.insert(tiny_collection.row(1)) == 11  # next id follows
        with pytest.raises(ValidationError):
            index.insert(tiny_collection.row(2), vector_id=10)
        with pytest.raises(ValidationError):
            index.insert(tiny_collection.row(2), vector_id=-1)
        ids = index.insert_many(
            tiny_collection.matrix[2:4], vector_ids=[20, 30]
        )
        assert ids.tolist() == [20, 30]
        with pytest.raises(ValidationError):
            index.insert_many(tiny_collection.matrix[2:4], vector_ids=[40, 40])

    def test_failed_batch_leaves_index_untouched(self, tiny_collection):
        """A rejected insert_many batch must not corrupt the index (review
        regression: ids beyond the id space used to half-apply)."""
        from repro.streaming.rowstore import _MAX_ID

        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        index.insert(tiny_collection.row(0))
        with pytest.raises(ValidationError):
            index.insert_many(tiny_collection.matrix[1:3], vector_ids=[5, _MAX_ID])
        with pytest.raises(ValidationError):
            index.insert(tiny_collection.row(1), vector_id=_MAX_ID + 7)
        index.check_invariants()
        assert index.size == 1
        assert index.insert(tiny_collection.row(1)) == 1  # next id not poisoned

    def test_snapshot_preserves_estimates(self, small_collection, tmp_path):
        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, random_state=19
        )
        rng = np.random.default_rng(1)
        live = list(range(small_collection.size))
        for _ in range(80):
            if rng.random() < 0.5 and len(live) > 2:
                index.delete(live.pop(int(rng.integers(0, len(live)))))
            else:
                live.append(index.insert(small_collection.row(int(rng.integers(0, 100)))))
        path = tmp_path / "index.pkl"
        index.snapshot(path)
        revived = MutableLSHIndex.restore(path)
        revived.check_invariants()
        original = StreamingEstimator(index, random_state=0).estimate(
            0.7, random_state=9, mode="exact"
        )
        restored = StreamingEstimator(revived, random_state=0).estimate(
            0.7, random_state=9, mode="exact"
        )
        assert restored.value == original.value


class TestEstimatorPersistence:
    """Reservoir pairs + staleness counters survive snapshot/restore."""

    def test_staleness_budget_above_one_rejected(self, mutable_index):
        # a budget > 1 could never be exceeded (staleness is a capped
        # fraction), silently disabling repair while claiming a bound
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, staleness_budget=1.5)
        StreamingEstimator(mutable_index, staleness_budget=1.0).close()

    def test_state_round_trip_preserves_reservoirs(self, small_collection):
        import pickle

        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, random_state=19
        )
        estimator = StreamingEstimator(index, reservoir_size=64, random_state=0)
        for row in range(15):
            index.insert(small_collection.row(row))
        index.delete(4)
        state = pickle.loads(pickle.dumps(index.to_state()))
        revived = MutableLSHIndex.from_state(state)
        (restored,) = revived.estimators
        assert isinstance(restored, StreamingEstimator)
        for stratum in ("h", "l"):
            left, right = estimator.reservoir_pairs(stratum)
            r_left, r_right = restored.reservoir_pairs(stratum)
            np.testing.assert_array_equal(r_left, left)
            np.testing.assert_array_equal(r_right, right)
        assert restored.staleness_h == estimator.staleness_h
        assert restored.staleness_l == estimator.staleness_l
        for mode in ("reservoir", "exact", "auto"):
            ours = restored.estimate(0.7, random_state=42, mode=mode)
            theirs = estimator.estimate(0.7, random_state=42, mode=mode)
            assert ours.value == theirs.value

    def test_restored_estimator_replays_repairs_bit_identically(self, small_collection):
        """The maintenance generator resumes mid-stream: mutations applied
        after a restore trigger the same partial resamples the original
        estimator performs."""
        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, random_state=19
        )
        estimator = StreamingEstimator(
            index, reservoir_size=32, staleness_budget=0.1, random_state=7
        )
        revived = MutableLSHIndex.from_state(index.to_state())
        (restored,) = revived.estimators
        rng = np.random.default_rng(3)
        for _ in range(60):  # heavy churn: repairs must fire on both sides
            row = small_collection.row(int(rng.integers(0, small_collection.size)))
            index.insert(row)
            revived.insert(row)
        ours = restored.estimate(0.7, random_state=1, mode="auto")
        theirs = estimator.estimate(0.7, random_state=1, mode="auto")
        assert ours.value == theirs.value
        for stratum in ("h", "l"):
            left, right = estimator.reservoir_pairs(stratum)
            r_left, r_right = restored.reservoir_pairs(stratum)
            np.testing.assert_array_equal(r_left, left)
            np.testing.assert_array_equal(r_right, right)

    def test_bad_estimator_state_rejected(self, mutable_index):
        with pytest.raises(ValidationError):
            StreamingEstimator.from_state(mutable_index, {"format": 99})

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40))
    def test_snapshot_restore_estimate_matches_no_snapshot(self, ops):
        """Acceptance property (a): for arbitrary event sequences, a
        snapshot → restore → estimate in reservoir mode equals the
        estimate the never-snapshotted estimator serves."""
        rng = np.random.default_rng(55)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        pool = VectorCollection.from_dense(dense)
        index = MutableLSHIndex(pool.dimension, num_hashes=6, random_state=13)
        estimator = StreamingEstimator(index, reservoir_size=16, random_state=5)
        live = []
        for op in ops:
            if live and op % 3 == 0:
                index.delete(live.pop(op % len(live)))
            else:
                live.append(index.insert(pool.row(op % pool.size)))
        revived = MutableLSHIndex.from_state(index.to_state())
        (restored,) = revived.estimators

        def outcome(est):
            try:
                return est.estimate(0.5, random_state=11, mode="reservoir").value
            except InsufficientSampleError:
                return "insufficient"

        assert outcome(restored) == outcome(estimator)
