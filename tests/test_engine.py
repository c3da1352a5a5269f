"""Tests for the unified estimation engine (config, backends, front door)."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LSHSSEstimator, RandomPairSampling
from repro.engine import (
    EngineConfig,
    EstimateRequest,
    EstimatorBackend,
    JoinEstimationEngine,
    available_backends,
    register_backend,
)
from repro.engine.backends import _REGISTRY, resolve_backend
from repro.errors import (
    IndexNotBuiltError,
    ReproError,
    UnsupportedOperationError,
    ValidationError,
)
from repro.lsh import LSHIndex
from repro.shard import (
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
)
from repro.streaming import (
    ChangeLog,
    Checkpoint,
    Delete,
    Insert,
    MutableLSHIndex,
    StreamingEstimator,
)


# ----------------------------------------------------------------------
# EngineConfig
# ----------------------------------------------------------------------
class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "static"
        assert config.family == "cosine"
        assert config.dimension is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            EngineConfig(backend="quantum")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValidationError, match="unknown option"):
            EngineConfig(backend="static", options={"num_shards": 4})

    def test_family_must_be_string(self):
        from repro.lsh import SignRandomProjectionFamily

        with pytest.raises(ValidationError, match="name string"):
            EngineConfig(family=SignRandomProjectionFamily)

    @pytest.mark.parametrize("backend", ["static", "streaming", "sharded"])
    def test_unknown_family_rejected_at_construction(self, backend):
        # fails in the constructor, not at the first estimate (the static
        # backend would otherwise only resolve it in its lazy index build)
        with pytest.raises(ValidationError, match="unknown LSH family"):
            EngineConfig(family="simhash", backend=backend, dimension=8)

    @pytest.mark.parametrize("field,value", [
        ("num_hashes", 0),
        ("num_tables", 0),
        ("dimension", 0),
        ("num_hashes", "20"),
        ("seed", 1.5),
    ])
    def test_bad_scalar_rejected(self, field, value):
        with pytest.raises(ValidationError):
            EngineConfig(**{field: value})

    def test_dict_round_trip(self):
        config = EngineConfig(backend="sharded", dimension=30,
                              options={"num_shards": 3, "partitioner": "rendezvous"})
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = EngineConfig(backend="streaming", dimension=8, seed=11,
                              options={"staleness_budget": 0.5})
        assert EngineConfig.from_json(config.to_json()) == config

    def test_file_round_trip(self, tmp_path):
        config = EngineConfig(num_hashes=6)
        path = tmp_path / "engine.json"
        config.to_file(path)
        assert EngineConfig.from_file(path) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown config field"):
            EngineConfig.from_dict({"backend": "static", "shards": 4})

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            EngineConfig.from_file(tmp_path / "nope.json")

    def test_from_json_invalid(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            EngineConfig.from_json("{nope")

    def test_coerce_forms(self, tmp_path):
        config = EngineConfig(seed=3)
        path = tmp_path / "c.json"
        config.to_file(path)
        assert EngineConfig.coerce(config) is config
        assert EngineConfig.coerce(config.to_dict()) == config
        assert EngineConfig.coerce(path) == config
        with pytest.raises(ValidationError):
            EngineConfig.coerce(42)

    def test_replace_revalidates(self):
        config = EngineConfig(backend="sharded", dimension=10)
        with pytest.raises(ValidationError):
            config.replace(backend="nope")

    # the acceptance-criterion property: any valid config survives the
    # dict→json→dict round trip bit-identically
    @given(
        backend=st.sampled_from(["static", "streaming", "sharded"]),
        family=st.sampled_from(["cosine", "jaccard"]),
        num_hashes=st.integers(min_value=1, max_value=64),
        num_tables=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=-(2**31), max_value=2**31),
        dimension=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_config_round_trip_property(
        self, backend, family, num_hashes, num_tables, seed, dimension
    ):
        options = {}
        if backend == "streaming":
            options = {"staleness_budget": 0.25, "reservoir_size": 64}
        elif backend == "sharded":
            options = {"num_shards": 3, "partitioner": "rendezvous", "batch_size": 32}
        config = EngineConfig(
            backend=backend, family=family, num_hashes=num_hashes,
            num_tables=num_tables, seed=seed, dimension=dimension, options=options,
        )
        via_json = EngineConfig.from_json(config.to_json())
        assert via_json == config
        # and the JSON form is plain data (no repr round-tripping)
        assert json.loads(config.to_json())["backend"] == backend


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
class TestEnvelopes:
    def test_request_dict_round_trip(self):
        request = EstimateRequest(0.8, mode="exact", seed=3, estimator="lsh-s")
        assert EstimateRequest.from_dict(request.to_dict()) == request

    def test_request_needs_threshold(self):
        with pytest.raises(ValidationError, match="threshold"):
            EstimateRequest.from_dict({"mode": "auto"})

    def test_request_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown request field"):
            EstimateRequest.from_dict({"threshold": 0.5, "tau": 0.5})

    def test_result_is_float_convertible(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8)
        assert float(result) == result.value
        payload = result.to_dict()
        assert payload["provenance"]["backend"] == "static"
        assert payload["provenance"]["seed"] == 1  # config seed resolved
        assert payload["provenance"]["wall_time_seconds"] >= 0.0

    def test_result_relative_error(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8)
        assert result.relative_error(result.value) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_estimate_before_open_raises(self):
        engine = JoinEstimationEngine(EngineConfig())
        with pytest.raises(IndexNotBuiltError, match="not open"):
            engine.estimate(0.8)

    def test_double_open_raises(self):
        engine = JoinEstimationEngine(EngineConfig()).open()
        with pytest.raises(ValidationError, match="already open"):
            engine.open()
        engine.close()

    def test_close_idempotent_and_reopenable(self, small_collection):
        engine = JoinEstimationEngine(EngineConfig(num_hashes=8))
        engine.open()
        engine.close()
        engine.close()
        engine.open()  # a closed engine can be reopened fresh
        engine.ingest(small_collection)
        assert engine.size == small_collection.size
        engine.close()

    def test_context_manager_opens_and_closes(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            assert engine.is_open
        assert not engine.is_open

    @staticmethod
    def _engine_with_failing_close():
        engine = JoinEstimationEngine(EngineConfig(num_hashes=8)).open()

        def explode():
            raise RuntimeError("backend close failed")

        engine.backend.close = explode
        return engine

    def test_close_counts_even_when_backend_close_raises(self):
        engine = self._engine_with_failing_close()
        with pytest.raises(RuntimeError, match="backend close failed"):
            engine.close()
        # the error surfaced once; the engine is closed, a second close
        # must not re-raise (double-close would mask the original cause)
        assert not engine.is_open
        engine.close()

    def test_exit_during_exception_does_not_mask_original(self):
        engine = self._engine_with_failing_close()
        with pytest.raises(ValueError, match="body error") as excinfo:
            with engine:
                raise ValueError("body error")
        # the with-body error stays primary; the backend close failure is
        # chained as context instead of replacing it
        context = excinfo.value.__context__
        assert isinstance(context, RuntimeError)
        assert "backend close failed" in str(context)
        assert not engine.is_open

    def test_exit_without_exception_still_raises_close_error(self):
        engine = self._engine_with_failing_close()
        with pytest.raises(RuntimeError, match="backend close failed"):
            with engine:
                pass
        assert not engine.is_open

    def test_constructor_accepts_dict_and_path(self, tmp_path):
        config = EngineConfig(seed=9)
        path = tmp_path / "c.json"
        config.to_file(path)
        assert JoinEstimationEngine(config.to_dict()).config == config
        assert JoinEstimationEngine(path).config == config

    def test_describe_shows_config_and_backend(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            description = engine.describe()
        assert description["config"]["backend"] == "static"
        assert description["backend"]["size"] == small_collection.size

    def test_describe_is_cheap_on_an_unbuilt_static_backend(self, small_collection):
        """describe() never forces (or crashes on) the lazy static build."""
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            assert engine.describe()["backend"] == {"size": 0, "total_pairs": 0}
            engine.ingest(small_collection)
            description = engine.describe()["backend"]
            assert description["size"] == small_collection.size
            assert "num_collision_pairs" not in description  # still unbuilt
            engine.estimate(0.8)
            assert "num_collision_pairs" in engine.describe()["backend"]

    def test_ingest_rejects_garbage(self):
        with JoinEstimationEngine(EngineConfig()) as engine:
            with pytest.raises(ValidationError, match="cannot ingest"):
                engine.ingest(3.14)

    def test_estimate_rejects_garbage_request(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="needs a threshold"):
                engine.estimate()
            with pytest.raises(ValidationError, match="cannot estimate"):
                engine.estimate(object())
            with pytest.raises(ValidationError, match="positionally and by keyword"):
                engine.estimate(0.8, threshold=0.9)

    def test_estimate_kwargs_override_request_fields(self, small_collection):
        """Keywords alongside a request envelope win over its fields."""
        config = EngineConfig(backend="streaming", num_hashes=8, seed=1,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            request = EstimateRequest(0.8, mode="auto", seed=2)
            overridden = engine.estimate(request, mode="exact", seed=5)
            explicit = engine.estimate(EstimateRequest(0.8, mode="exact", seed=5))
        assert overridden.provenance.mode == "exact"
        assert overridden.provenance.seed == 5
        assert overridden.value == explicit.value
        # dict requests get the same treatment, and a threshold keyword
        # completes a threshold-less dict
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate({"threshold": 0.8}, estimator="rs", seed=4)
            completed = engine.estimate({"mode": "exact"}, threshold=0.8, seed=4)
        assert result.estimator == "RS(pop)"
        assert completed.threshold == 0.8
        assert completed.provenance.mode == "exact"


# ----------------------------------------------------------------------
# Bit-identity against direct construction (the engine contract)
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_static_matches_direct(self, small_collection):
        config = EngineConfig(backend="static", num_hashes=10, seed=5)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(EstimateRequest(0.8, seed=3))
        index = LSHIndex(small_collection, num_hashes=10, random_state=6)
        direct = LSHSSEstimator(index.primary_table).estimate(0.8, random_state=3)
        assert via_engine.value == direct.value

    def test_static_estimator_flavors_match_direct(self, small_collection):
        config = EngineConfig(backend="static", num_hashes=10, seed=5)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(0.8, estimator="rs", seed=4)
        direct = RandomPairSampling(small_collection).estimate(0.8, random_state=4)
        assert via_engine.value == direct.value
        assert via_engine.estimator == direct.estimator

    def test_streaming_matches_direct(self, small_collection):
        dimension = small_collection.dimension
        config = EngineConfig(backend="streaming", num_hashes=10, seed=5,
                              dimension=dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(EstimateRequest(0.8, seed=3, mode="auto"))
        index = MutableLSHIndex(dimension, num_hashes=10, random_state=6)
        estimator = StreamingEstimator(index, random_state=7)
        index.insert_many(small_collection.matrix)
        direct = estimator.estimate(0.8, random_state=3, mode="auto")
        assert via_engine.value == direct.value

    @pytest.mark.parametrize("mode", ["exact", "merged"])
    def test_sharded_matches_direct(self, small_collection, mode):
        dimension = small_collection.dimension
        config = EngineConfig(
            backend="sharded", num_hashes=10, seed=5, dimension=dimension,
            options={"num_shards": 3, "partitioner": "rendezvous", "batch_size": 64},
        )
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(EstimateRequest(0.8, seed=3, mode=mode))
        index = ShardedMutableIndex(
            dimension, num_shards=3, num_hashes=10, random_state=6,
            partitioner="rendezvous",
        )
        router = ShardRouter(index, batch_size=64)
        estimator = ShardedStreamingEstimator(index, router=router)
        index.insert_many(small_collection.matrix)
        direct = estimator.estimate(0.8, random_state=3, mode=mode)
        router.close()
        assert via_engine.value == direct.value

    def test_sharded_exact_matches_unsharded_engine(self, small_collection):
        """Shape-independence: sharded exact == streaming exact for one seed."""
        dimension = small_collection.dimension
        sharded_config = EngineConfig(
            backend="sharded", num_hashes=10, seed=5, dimension=dimension,
            options={"num_shards": 4},
        )
        streaming_config = EngineConfig(
            backend="streaming", num_hashes=10, seed=5, dimension=dimension
        )
        with JoinEstimationEngine(sharded_config) as sharded_engine:
            sharded_engine.ingest(small_collection)
            sharded = sharded_engine.estimate(EstimateRequest(0.7, seed=9, mode="exact"))
        with JoinEstimationEngine(streaming_config) as streaming_engine:
            streaming_engine.ingest(small_collection)
            unsharded = streaming_engine.estimate(EstimateRequest(0.7, seed=9, mode="exact"))
        assert sharded.value == unsharded.value


# ----------------------------------------------------------------------
# Ingest forms and event handling
# ----------------------------------------------------------------------
class TestIngest:
    def _events(self):
        return [
            Insert([1.0, 0.0, 0.0]),
            Insert([1.0, 0.0, 0.0]),
            Insert([0.0, 1.0, 0.0]),
            Checkpoint("mid"),
            Delete(1),
        ]

    def test_changelog_and_event_forms(self):
        config = EngineConfig(backend="streaming", num_hashes=4, dimension=3)
        with JoinEstimationEngine(config) as engine:
            log = ChangeLog()
            log.extend(self._events())
            applied = engine.ingest(log)
            assert applied == 4  # checkpoint does not count
            assert engine.size == 2
            assert engine.ingest(Insert([0.0, 0.0, 1.0])) == 1
            assert engine.size == 3

    def test_static_rejects_deletes(self):
        config = EngineConfig(backend="static", num_hashes=4, dimension=3)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(Insert([1.0, 0.0, 0.0]))
            with pytest.raises(UnsupportedOperationError, match="immutable"):
                engine.ingest(Delete(0))

    def test_static_sparse_insert_needs_dimension(self):
        config = EngineConfig(backend="static", num_hashes=4)
        with JoinEstimationEngine(config) as engine:
            with pytest.raises(ValidationError, match="dimension"):
                engine.ingest(Insert({0: 1.0}))

    def test_static_infers_dimension_from_dense_insert(self):
        config = EngineConfig(backend="static", num_hashes=4)
        with JoinEstimationEngine(config) as engine:
            engine.ingest([Insert([1.0, 0.0]), Insert([1.0, 0.0])])
            assert engine.estimate(0.9, seed=0).value >= 0.0

    def test_static_estimate_without_ingest_raises(self):
        with JoinEstimationEngine(EngineConfig(num_hashes=4)) as engine:
            with pytest.raises(ValidationError, match="no ingested vectors"):
                engine.estimate(0.8)

    def test_static_rebuilds_after_further_ingest(self, small_collection):
        config = EngineConfig(backend="static", num_hashes=8, seed=2)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            first = engine.estimate(0.8, seed=1)
            engine.ingest(small_collection)  # doubles the corpus
            second = engine.estimate(0.8, seed=1)
        assert second.provenance.backend_details["size"] == 2 * small_collection.size
        assert first.provenance.backend_details["size"] == small_collection.size

    def test_sharded_checkpoint_flushes_buffered_writes(self, small_collection):
        """A checkpoint in an ingested log drains the router buffer."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=3,
                              options={"num_shards": 2, "batch_size": 1000})
        with JoinEstimationEngine(config) as engine:
            engine.ingest([Insert([1.0, 0.0, 0.0]), Insert([0.0, 1.0, 0.0])])
            # batch_size 1000: nothing flushed yet
            assert engine.backend.describe()["pending_writes"] == 2
            engine.ingest(Checkpoint("consistent"))
            assert engine.backend.describe()["pending_writes"] == 0
            assert engine.size == 2

    def test_mutable_backends_need_dimension(self):
        for backend in ("streaming", "sharded"):
            engine = JoinEstimationEngine(EngineConfig(backend=backend))
            with pytest.raises(ValidationError, match="dimension"):
                engine.open()

    def test_collection_dimension_mismatch_static(self, small_collection):
        config = EngineConfig(backend="static", dimension=small_collection.dimension + 1)
        with JoinEstimationEngine(config) as engine:
            with pytest.raises(ValidationError, match="dimension"):
                engine.ingest(small_collection)


# ----------------------------------------------------------------------
# Mode / estimator-flavor validation per backend
# ----------------------------------------------------------------------
class TestServingValidation:
    def test_static_rejects_streaming_modes(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="modes"):
                engine.estimate(0.8, mode="reservoir")

    def test_static_rejects_unknown_flavor(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="unknown estimator"):
                engine.estimate(0.8, estimator="magic")

    def test_static_default_flavor_from_options(self, small_collection):
        config = EngineConfig(num_hashes=8, seed=1, options={"estimator": "ju"})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            assert engine.estimate(0.8).estimator == "J_U"

    @pytest.mark.parametrize("backend", ["streaming", "sharded"])
    def test_single_estimator_backends_reject_flavors(self, backend, small_collection):
        config = EngineConfig(backend=backend, num_hashes=8,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            with pytest.raises(UnsupportedOperationError, match="single"):
                engine.estimate(0.8, estimator="lsh-ss")

    @pytest.mark.parametrize("backend", ["static", "streaming"])
    def test_rebalance_unsupported(self, backend, small_collection):
        config = EngineConfig(backend=backend, num_hashes=8,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            with pytest.raises(UnsupportedOperationError, match="rebalanc"):
                engine.rebalance(num_shards=2)


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_static_round_trip(self, small_collection, tmp_path):
        config = EngineConfig(num_hashes=8, seed=4)
        path = tmp_path / "static.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = engine.estimate(0.8, seed=2)
            engine.snapshot(path)
        revived = JoinEstimationEngine.restore(path)
        assert revived.config == config
        after = revived.estimate(0.8, seed=2)
        revived.close()
        assert after.value == before.value

    def test_streaming_round_trip_reservoir_state(self, small_collection, tmp_path):
        config = EngineConfig(backend="streaming", num_hashes=8, seed=4,
                              dimension=small_collection.dimension)
        path = tmp_path / "stream.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
            revived = JoinEstimationEngine.restore(path)
            # reservoir mode draws from checkpointed sampled state: the
            # restored engine must replay it bit-identically
            again = revived.estimate(EstimateRequest(0.7, seed=9, mode="reservoir"))
            original = engine.estimate(EstimateRequest(0.7, seed=9, mode="reservoir"))
            revived.close()
        assert again.value == original.value

    def test_sharded_round_trip(self, small_collection, tmp_path):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 3})
        path = tmp_path / "cluster.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
            engine.snapshot(path)
        revived = JoinEstimationEngine.restore(path)
        after = revived.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
        assert revived.config == config
        revived.close()
        assert after.value == before.value

    def test_restore_raw_sharded_snapshot(self, small_collection, tmp_path):
        """Back-compat: bare ShardedMutableIndex snapshots restore too."""
        index = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=8, random_state=5
        )
        index.insert_many(small_collection.matrix)
        path = tmp_path / "raw.pkl"
        index.snapshot(path)
        direct = ShardedStreamingEstimator(index).estimate(0.8, random_state=2, mode="exact")
        engine = JoinEstimationEngine.restore(path)
        assert engine.config.backend == "sharded"
        result = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
        engine.close()
        assert result.value == direct.value

    def test_restore_raw_streaming_snapshot(self, small_collection, tmp_path):
        index = MutableLSHIndex(small_collection.dimension, num_hashes=8, random_state=5)
        index.insert_many(small_collection.matrix)
        path = tmp_path / "raw.pkl"
        index.snapshot(path)
        engine = JoinEstimationEngine.restore(path)
        assert engine.config.backend == "streaming"
        assert engine.size == small_collection.size
        engine.close()

    def test_restore_config_override_must_match_kind(self, small_collection, tmp_path):
        config = EngineConfig(backend="streaming", num_hashes=8,
                              dimension=small_collection.dimension)
        path = tmp_path / "stream.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
        with pytest.raises(ValidationError, match="does not match"):
            JoinEstimationEngine.restore(path, config=EngineConfig(backend="static"))

    def test_restore_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"hello": "world"}, handle)
        with pytest.raises(ValidationError, match="not an engine"):
            JoinEstimationEngine.restore(path)
        with pytest.raises(ValidationError, match="not found"):
            JoinEstimationEngine.restore(tmp_path / "absent.pkl")

    def test_engine_bundle_restores_via_low_level_too(self, small_collection, tmp_path):
        """Forward-compat: low-level restore unwraps engine bundles."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2})
        path = tmp_path / "bundle.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
        revived = ShardedMutableIndex.restore(path)
        revived.check_invariants()
        assert revived.size == small_collection.size
        # the streaming unwrap refuses a sharded bundle with a clear error
        with pytest.raises(ValidationError, match="sharded"):
            MutableLSHIndex.restore(path)

    def test_streaming_bundle_restores_via_low_level_too(self, small_collection, tmp_path):
        config = EngineConfig(backend="streaming", num_hashes=8, seed=4,
                              dimension=small_collection.dimension)
        path = tmp_path / "bundle.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
        revived = MutableLSHIndex.restore(path)
        revived.check_invariants()
        assert revived.size == small_collection.size


# ----------------------------------------------------------------------
# Rebalancing through the front door
# ----------------------------------------------------------------------
class TestRebalance:
    def test_grow_preserves_exact_estimates(self, small_collection):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2, "partitioner": "rendezvous"})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
            plan = engine.rebalance(num_shards=4)
            assert plan.moved_keys >= 0
            assert engine.backend.index.num_shards == 4
            engine.backend.index.check_invariants()
            after = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
        assert after.value == before.value

    def test_dry_run_leaves_data_placement_unchanged(self, small_collection):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 3, "partitioner": "modulo"})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            sizes_before = [shard.size for shard in engine.backend.index.shards]
            plan = engine.rebalance(partitioner="rendezvous", dry_run=True)
            assert plan.total_keys > 0
            assert [shard.size for shard in engine.backend.index.shards] == sizes_before

    def test_growth_dry_run_is_side_effect_free(self, small_collection):
        """A growth dry run must not leave phantom shards behind."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2, "partitioner": "rendezvous"})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            plan = engine.rebalance(num_shards=5, dry_run=True)
            assert plan.partitioner.num_shards == 5
            assert engine.backend.index.num_shards == 2
            assert engine.describe()["backend"]["num_shards"] == 2
            assert engine.config == config

    def test_applied_rebalance_updates_config(self, small_collection, tmp_path):
        """Snapshots taken after a rebalance describe the adopted shape."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2, "partitioner": "modulo"})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            router_before = engine.backend._router
            engine.rebalance(num_shards=4, partitioner="rendezvous")
            assert engine.config.options["num_shards"] == 4
            assert engine.config.options["partitioner"] == "rendezvous"
            # the router pool is rebuilt for the new shard count and the
            # serving estimator follows it; ingest keeps working
            assert engine.backend._router is not router_before
            assert engine.backend._estimator.router is engine.backend._router
            engine.ingest(small_collection)
            assert engine.size == 2 * small_collection.size
            path = tmp_path / "after.pkl"
            engine.snapshot(path)
        revived = JoinEstimationEngine.restore(path)
        assert revived.config.options["num_shards"] == 4
        assert revived.config.options["partitioner"] == "rendezvous"
        revived.close()


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_backends()) >= {"static", "streaming", "sharded"}

    def test_resolve_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            resolve_backend("quantum")

    def test_duplicate_kind_rejected(self):
        # the decorator rejects the duplicate kind before the (abstract)
        # class would ever need to be instantiable
        with pytest.raises(ValidationError, match="already registered"):

            @register_backend("static")
            class Duplicate(EstimatorBackend):  # pragma: no cover - never built
                pass

    def test_non_backend_class_rejected(self):
        with pytest.raises(ValidationError, match="subclass"):
            register_backend("bogus")(int)

    def test_custom_backend_reachable_through_engine(self, small_collection):
        """The plugin seam: a registered kind works with unchanged caller code."""
        from repro.core.base import Estimate

        @register_backend("toy")
        class ToyBackend(EstimatorBackend):
            OPTIONS = frozenset({"answer"})

            def open(self):
                self._n = 0

            def ingest_collection(self, collection):
                self._n += collection.size
                return collection.size

            def apply_event(self, event):
                return 0

            def estimate(self, threshold, *, mode="auto", random_state=None, estimator=None):
                return Estimate(
                    value=float(self.config.options.get("answer", 42)),
                    estimator="toy",
                    threshold=threshold,
                )

            def describe(self):
                return {"size": self._n, "total_pairs": self.total_pairs}

            def to_state(self):
                return {"format": 1, "kind": "toy-backend", "n": self._n}

            @classmethod
            def from_state(cls, config, state):
                backend = cls(config)
                backend.open()
                backend._n = state["n"]
                return backend

            @property
            def size(self):
                return self._n

            @property
            def total_pairs(self):
                return self._n * (self._n - 1) // 2

        try:
            config = EngineConfig(backend="toy", options={"answer": 7})
            with JoinEstimationEngine(config) as engine:
                engine.ingest(small_collection)
                result = engine.estimate(0.5)
            assert result.value == 7.0
            assert result.provenance.backend == "toy"
        finally:
            _REGISTRY.pop("toy", None)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def test_sharded_provenance_fields(self, small_collection):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 3, "partitioner": "rendezvous"})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(EstimateRequest(0.8, seed=1, mode="merged"))
        details = result.provenance.backend_details
        assert details["num_shards"] == 3
        assert sum(details["shard_sizes"]) == small_collection.size
        assert details["partitioner"] == "rendezvous"
        assert details["pending_writes"] == 0
        assert details["num_collision_pairs"] + details["num_non_collision_pairs"] == (
            details["total_pairs"]
        )

    def test_streaming_provenance_has_staleness(self, small_collection):
        config = EngineConfig(backend="streaming", num_hashes=8, seed=4,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8)
        staleness = result.provenance.backend_details["staleness"]
        assert 0.0 <= staleness["h"] <= 1.0
        assert 0.0 <= staleness["l"] <= 1.0

    def test_explicit_request_seed_wins(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8, seed=123)
        assert result.provenance.seed == 123

    def test_errors_are_repro_errors(self):
        """CLI error handling catches one base type for every engine failure."""
        assert issubclass(UnsupportedOperationError, ReproError)
        assert issubclass(ValidationError, ReproError)
        assert issubclass(IndexNotBuiltError, ReproError)
