"""A sharded mutable LSH index: scale-out with a drop-in single-index surface.

:class:`ShardedMutableIndex` partitions the bucket-key space of a
:class:`~repro.streaming.mutable_index.MutableLSHIndex` across ``S``
shards.  Every shard wraps its own ``MutableLSHIndex`` (sharing the *same*
hash-family instances, so all shards hash identically) plus an optional
per-shard :class:`~repro.streaming.estimator.StreamingEstimator` whose
reservoirs are repaired locally as mutations arrive.

The facade exposes the full single-index surface — ``insert`` /
``insert_many`` / ``delete``, observers, SampleH / SampleL, per-pair
cosine — with the *merge layer* built in:

* ``N_H`` is the sum of per-shard ``N_H`` (buckets never straddle
  shards), ``N_L = C(n, 2) − N_H`` (cross-shard pairs are all stratum L);
* the SampleH layout stitches per-shard buckets together in the *global*
  first-appearance order of their keys, which the facade tracks as events
  flow through it — so the stitched layout is exactly the layout one
  unsharded index would have built, and sampling draws are **bit-identical
  for the same seed**;
* member lists inside a bucket evolve only through operations on that
  bucket, all routed to one shard in arrival order, so they too match the
  unsharded index element for element.

Consequently a :class:`~repro.streaming.estimator.StreamingEstimator`
constructed over the facade behaves bit-identically to one constructed
over an unsharded index fed the same event sequence, and the dedicated
:class:`~repro.shard.merge.ShardedStreamingEstimator` adds a
reservoir-pooling mode that merges per-shard samples without touching
any bucket at query time.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from concurrent.futures import Executor
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np
from scipy import sparse

from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh.families import LSHFamily
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, get_global_registry
from repro.obs.tracing import trace
from repro.lsh.index import resolve_family
from repro.lsh.table import sample_uniform_pairs, sample_weighted_bucket_pairs
from repro.rng import RandomState, ensure_rng, spawn
from repro.shard.partition import (
    Partitioner,
    key_signature_matrix,
    partitioner_from_state,
    partitioner_state,
    resolve_partitioner,
)
from repro.streaming.estimator import StreamingEstimator
from repro.streaming.mutable_index import (
    BucketOrdinals,
    MutableLSHIndex,
    VectorInput,
    claim_vector_id,
    coerce_matrix,
    coerce_row,
    collect_estimator_states,
    freeze_bucket_layout,
    frozen_ids,
    restore_estimator_states,
    signature_bucket_key,
)
from repro.streaming.rowstore import (
    csr_from_segments,
    grow_id_column,
    lookup_id_column,
    new_id_column,
    paired_rows_cosine,
    stitch_segments,
)
from repro.vectors.collection import VectorCollection


@dataclass
class IndexShard:
    """One shard: a mutable index plus its locally repaired estimator."""

    shard_id: int
    index: MutableLSHIndex
    estimator: Optional[StreamingEstimator] = None

    @property
    def size(self) -> int:
        return self.index.size

    @property
    def num_collision_pairs(self) -> int:
        """Shard-local ``N_H`` (additive across shards)."""
        return self.index.num_collision_pairs

    @property
    def intra_non_collision_pairs(self) -> int:
        """Shard-local ``N_L`` over *intra-shard* pairs only."""
        return self.index.num_non_collision_pairs

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IndexShard(id={self.shard_id}, n={self.size}, NH={self.num_collision_pairs})"


@dataclass
class PreparedBatch:
    """A routed insert batch: coerced rows, signatures, and shard targets."""

    ids: np.ndarray
    csr: sparse.csr_matrix
    signatures: List[np.ndarray]
    keys: List[bytes]
    shard_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


class _MergedPrimaryView:
    """The facade's stand-in for ``index.primary_table``.

    Implements the subset of the :class:`MutableLSHTable` surface the
    estimators and samplers touch.  Bucket identity answers from the
    facade's own id-indexed bucket-ordinal column (buckets never
    straddle shards, so facade ordinals partition the live ids exactly
    like the shard tables' do) — no per-id hop to the owning shard.
    """

    def __init__(self, owner: "ShardedMutableIndex") -> None:
        self._owner = owner

    @property
    def num_vectors(self) -> int:
        return self._owner.size

    @property
    def num_hashes(self) -> int:
        return self._owner.num_hashes

    @property
    def num_collision_pairs(self) -> int:
        return self._owner.num_collision_pairs

    @property
    def num_buckets(self) -> int:
        return len(self._owner._bucket_refs)

    @property
    def bucket_sizes(self) -> np.ndarray:
        return np.asarray(
            [ref[0] for ref in self._owner._bucket_refs.values()], dtype=np.int64
        )

    def signature_key(self, vector_id: int) -> bytes:
        owner = self._owner
        return owner._ordinals.keys[owner._bucket_ordinal(vector_id)]

    def bucket_size_of(self, vector_id: int) -> int:
        return self._owner._bucket_refs[self.signature_key(vector_id)][0]

    def same_bucket(self, u: int, v: int) -> bool:
        return self._owner._bucket_ordinal(u) == self._owner._bucket_ordinal(v)

    def same_bucket_many(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        column = self._owner._ordinal_of
        return lookup_id_column(column, left) == lookup_id_column(column, right)

    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self._owner.sample_collision_pairs(sample_size, random_state=random_state)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MergedPrimaryView(n={self.num_vectors}, "
            f"buckets={self.num_buckets}, NH={self.num_collision_pairs})"
        )


class ShardedMutableIndex:
    """``S`` bucket-key-partitioned shards behind one mutable-index surface.

    Parameters
    ----------
    dimension, num_hashes, num_tables, family, random_state:
        As in :class:`~repro.streaming.mutable_index.MutableLSHIndex`;
        the hash families are drawn once with exactly the same generator
        sequence, so an unsharded index with the same seed hashes (and
        therefore buckets) every vector identically.
    num_shards:
        ``S`` — number of shards.
    partitioner:
        Bucket-key → shard assignment: a kind string (``"modulo"``, the
        default, or ``"rendezvous"`` for minimal-movement resizes via
        :mod:`repro.shard.rebalance`), a partitioner class, or a
        pre-built instance covering ``num_shards`` shards.
    shard_estimators:
        When true (default), every shard carries a
        :class:`~repro.streaming.estimator.StreamingEstimator` that
        repairs its reservoirs as mutations are routed in; the merge
        layer pools them for bucket-free query serving.
    estimator_kwargs:
        Extra keyword arguments for the per-shard estimators
        (``reservoir_size``, ``staleness_budget``, …).
    """

    def __init__(
        self,
        dimension: int,
        *,
        num_shards: int = 4,
        num_hashes: int = 20,
        num_tables: int = 1,
        family: Union[str, Type[LSHFamily]] = "cosine",
        random_state: RandomState = None,
        partitioner: Union[str, Partitioner, type] = "modulo",
        shard_estimators: bool = True,
        estimator_kwargs: Optional[Dict[str, object]] = None,
    ) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        if num_tables < 1:
            raise ValidationError(f"num_tables (ℓ) must be >= 1, got {num_tables}")
        self.dimension = int(dimension)
        self.num_hashes = int(num_hashes)
        self.num_tables = int(num_tables)
        self.partitioner = resolve_partitioner(partitioner, num_shards)
        # identical family-draw sequence to an unsharded MutableLSHIndex
        family_class = resolve_family(family)
        rng = ensure_rng(random_state)
        self.families: List[LSHFamily] = []
        for child in spawn(rng, num_tables):
            family_instance = family_class(self.num_hashes, random_state=child)
            family_instance.ensure_initialised(self.dimension)
            self.families.append(family_instance)
        self._shard_estimators = bool(shard_estimators)
        self._estimator_kwargs = dict(estimator_kwargs or {})
        self.shards: List[IndexShard] = []
        estimator_rngs = spawn(rng, num_shards) if self._shard_estimators else [None] * num_shards
        for shard_id in range(num_shards):
            self.shards.append(self._new_shard(shard_id, estimator_rngs[shard_id]))
        self._reset_bucket_registry()
        self._live_ids: List[int] = []
        self._live_position: Dict[int, int] = {}
        self._ids_array: Optional[np.ndarray] = None
        self._next_id = 0
        self._observers: List[object] = []
        self._frozen: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None
        #: True while some live bucket's owner differs from the current
        #: partitioner's pick (manual migrations, mid-rebalance snapshots);
        #: keeps owner re-checks off the hot ingest path otherwise
        self._owner_overrides = False

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this cluster records into (global unless injected).

        Lazy ``getattr`` because :class:`ClusterCoordinator` wires its
        plumbing *before* this ``__init__`` runs and ``from_state``
        builds instances via ``__new__``.
        """
        registry = getattr(self, "_metrics", None)
        return registry if registry is not None else get_global_registry()

    @metrics.setter
    def metrics(self, registry: Optional[MetricsRegistry]) -> None:
        self._metrics = registry

    def _commit_instruments(self) -> Tuple[Histogram, Counter]:
        cached = getattr(self, "_commit_metric_handles", None)
        if cached is None:
            cached = self._commit_metric_handles = (
                self.metrics.histogram("commit_batch_seconds"),
                self.metrics.counter("commit_rows_total"),
            )
        return cached

    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        collection: VectorCollection,
        *,
        num_shards: int = 4,
        num_hashes: int = 20,
        num_tables: int = 1,
        family: Union[str, Type[LSHFamily]] = "cosine",
        random_state: RandomState = None,
        **kwargs: Any,
    ) -> "ShardedMutableIndex":
        """Bulk-load a collection (ids ``0 … n−1`` in row order)."""
        index = cls(
            collection.dimension,
            num_shards=num_shards,
            num_hashes=num_hashes,
            num_tables=num_tables,
            family=family,
            random_state=random_state,
            **kwargs,
        )
        index.insert_many(collection.matrix)
        return index

    # ------------------------------------------------------------------
    # shard management (construction + rebalance substrate)
    # ------------------------------------------------------------------
    def _new_shard(self, shard_id: int, estimator_rng: RandomState = None) -> IndexShard:
        """An empty shard sharing the cluster's families (hashing identically)."""
        index = MutableLSHIndex(
            self.dimension,
            num_hashes=self.num_hashes,
            num_tables=self.num_tables,
            families=self.families,
        )
        estimator = None
        if self._shard_estimators:
            estimator = StreamingEstimator(
                index, random_state=estimator_rng, **self._estimator_kwargs
            )
        return IndexShard(shard_id, index, estimator)

    def add_shards(self, new_total: int, *, estimator_seed: RandomState = None) -> None:
        """Grow the cluster to ``new_total`` (empty) shards.

        Existing shards and the partitioner are untouched — callers
        (:func:`repro.shard.rebalance.rebalance_cluster`) follow up by
        a plan under a partitioner that covers the new shard count.
        """
        if new_total < len(self.shards):
            raise ValidationError(
                f"add_shards cannot shrink the cluster "
                f"({len(self.shards)} → {new_total}); use a rebalance"
            )
        extra = new_total - len(self.shards)
        rngs = spawn(ensure_rng(estimator_seed), extra) if self._shard_estimators else [None] * extra
        for offset in range(extra):
            self.shards.append(self._new_shard(len(self.shards), rngs[offset]))

    def drop_trailing_shards(self, new_total: int) -> None:
        """Shrink the cluster to ``new_total`` shards; the rest must be empty."""
        if new_total < 1:
            raise ValidationError(f"a cluster needs >= 1 shard, got {new_total}")
        for shard in self.shards[new_total:]:
            if shard.size:
                raise ValidationError(
                    f"shard {shard.shard_id} still holds {shard.size} vectors; "
                    "rebalance them away before shrinking"
                )
            if shard.estimator is not None:
                shard.estimator.close()
        del self.shards[new_total:]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def size(self) -> int:
        """Number of live vectors ``n`` across all shards."""
        return len(self._live_ids)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._live_position

    @property
    def ids(self) -> np.ndarray:
        """Live vector ids (stable order, as unsharded; read-only, cached per mutation)."""
        if self._ids_array is None:
            self._ids_array = frozen_ids(self._live_ids)
        return self._ids_array

    @property
    def total_pairs(self) -> int:
        """``M = C(n, 2)`` over all live vectors, cross-shard included."""
        n = self.size
        return n * (n - 1) // 2

    @property
    def num_collision_pairs(self) -> int:
        """Global ``N_H``: the sum of per-shard counts (buckets are disjoint)."""
        return sum(shard.num_collision_pairs for shard in self.shards)

    @property
    def num_non_collision_pairs(self) -> int:
        """Global ``N_L = M − N_H`` (includes every cross-shard pair)."""
        return self.total_pairs - self.num_collision_pairs

    @property
    def primary_table(self) -> _MergedPrimaryView:
        """Merged view of the ``S`` primary tables (estimator compatibility)."""
        return _MergedPrimaryView(self)

    def shard_of(self, vector_id: int) -> IndexShard:
        """The shard holding a live vector."""
        if vector_id in self._live_position:
            return self.shards[int(self._shard_of[vector_id])]
        raise ValidationError(f"vector id {vector_id} is not in the index")

    def _bucket_ordinal(self, vector_id: int) -> int:
        """The facade bucket ordinal of a live vector."""
        if vector_id in self._live_position:
            return int(self._ordinal_of[vector_id])
        raise ValidationError(f"vector id {vector_id} is not in the index")

    def row(self, vector_id: int) -> sparse.csr_matrix:
        """The stored (raw) vector as a fresh 1×d CSR row."""
        return self.shard_of(int(vector_id)).index.row(int(vector_id))

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def register_observer(self, observer: object) -> None:
        """Register ``on_insert`` / ``on_delete`` hooks (as unsharded)."""
        self._observers.append(observer)

    def unregister_observer(self, observer: object) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _claim_id(self, vector_id: Optional[int]) -> int:
        vector_id, self._next_id = claim_vector_id(
            vector_id, self._next_id, self._live_position
        )
        return vector_id

    def _reset_bucket_registry(self) -> None:
        """Empty the facade's bucket registry and its id-indexed columns.

        ``_bucket_refs`` maps a primary-table bucket key to ``[live member
        count, owning shard, bucket ordinal]``; its dict order mirrors the
        unsharded table's bucket insertion order.  ``_ordinals`` maps
        ordinals back to keys, and two dense columns indexed by vector id
        (``-1`` = absent, the row store's ``_MAX_ID`` contract) give each
        live id its owning shard and bucket ordinal.
        """
        self._bucket_refs: Dict[bytes, List[int]] = {}
        self._ordinals = BucketOrdinals()
        self._shard_of = new_id_column()
        self._ordinal_of = new_id_column()

    def _track_insert(self, vector_id: int, key: bytes, shard_id: int) -> None:
        self._live_position[vector_id] = len(self._live_ids)
        self._live_ids.append(vector_id)
        self._ids_array = None
        ref = self._bucket_refs.get(key)
        if ref is None:
            ref = self._bucket_refs[key] = [0, shard_id, self._ordinals.claim(key)]
        ref[0] += 1
        self._shard_of = grow_id_column(self._shard_of, vector_id)
        self._ordinal_of = grow_id_column(self._ordinal_of, vector_id)
        self._shard_of[vector_id] = shard_id
        self._ordinal_of[vector_id] = ref[2]
        self._frozen = None

    def _owning_shard(self, key: bytes) -> int:
        """Destination shard for a bucket key: the live bucket's owner, else
        the partitioner's pick.

        After a manual key migration (or mid-rebalance) a live bucket may
        sit on a different shard than the current partitioner would
        choose; routing to the *owner* keeps the never-straddle
        invariant under any owner assignment.  While owners and
        partitioner agree (`_owner_overrides` false — the common case),
        the partitioner's pick *is* the owner and the lookup is skipped.
        """
        if self._owner_overrides:
            ref = self._bucket_refs.get(key)
            if ref is not None:
                return ref[1]
        return self.partitioner(key)

    def _refresh_owner_alignment(self) -> None:
        """Recompute `_owner_overrides` in one vectorised pass over the keys.

        Called after rebalances and restores; everywhere else the flag
        only ever stays aligned (new buckets are placed by the
        partitioner, deletions cannot introduce divergence).
        """
        refs = self._bucket_refs
        if not refs:
            self._owner_overrides = False
            return
        keys = list(refs.keys())
        picks = self.partitioner.shard_of_signatures(
            key_signature_matrix(keys, self.num_hashes)
        )
        owners = np.fromiter(
            (ref[1] for ref in refs.values()), dtype=np.int64, count=len(keys)
        )
        self._owner_overrides = bool(np.any(picks != owners))

    def insert(self, vector: VectorInput, *, vector_id: Optional[int] = None) -> int:
        """Route one vector to its owning shard; returns the global id."""
        row = coerce_row(vector, self.dimension)
        signatures = [family.hash_matrix(row)[0] for family in self.families]
        vector_id = self._claim_id(vector_id)
        key = signature_bucket_key(signatures[0], self.num_hashes)
        shard_id = self._owning_shard(key)
        self.shards[shard_id].index._insert_prepared(vector_id, row, signatures)
        self._track_insert(vector_id, key, shard_id)
        for observer in self._observers:
            observer.on_insert(vector_id)
        return vector_id

    def prepare_batch(
        self,
        matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection],
        *,
        vector_ids: Optional[Sequence[int]] = None,
        coerced: bool = False,
    ) -> PreparedBatch:
        """Coerce, hash (one batch product per table), and route a batch.

        Ids are claimed here; apply the batch with :meth:`commit_batch`.
        ``coerced=True`` skips re-canonicalisation for input that is
        canonical by construction (float64 CSR, sorted indices, no
        explicit zeros, finite) — the router's buffered rows already
        went through :func:`coerce_row` one by one.
        """
        csr = matrix if coerced else coerce_matrix(matrix, self.dimension)
        num_rows = csr.shape[0]
        signatures = [family.hash_matrix(csr) for family in self.families]
        if vector_ids is None:
            ids = np.arange(self._next_id, self._next_id + num_rows, dtype=np.int64)
            self._next_id += num_rows
        else:
            ids = np.asarray(list(vector_ids), dtype=np.int64)
            if ids.size != num_rows:
                raise ValidationError(f"got {ids.size} vector ids for {num_rows} rows")
            if np.unique(ids).size != ids.size:
                raise ValidationError("vector ids must be unique within a batch")
            ids = np.array([self._claim_id(int(i)) for i in ids], dtype=np.int64)
        primary = np.ascontiguousarray(signatures[0])
        keys = [primary[position].tobytes() for position in range(num_rows)]
        shard_ids = self.partitioner.shard_of_signatures(primary)
        if self._owner_overrides:
            # live buckets own their key even when a migration has moved
            # them off the partitioner's current pick (see _owning_shard)
            refs = self._bucket_refs
            for position, key in enumerate(keys):
                ref = refs.get(key)
                if ref is not None and ref[1] != shard_ids[position]:
                    shard_ids[position] = ref[1]
        return PreparedBatch(ids=ids, csr=csr, signatures=signatures, keys=keys, shard_ids=shard_ids)

    def commit_batch(
        self, batch: PreparedBatch, *, executor: Optional[Executor] = None
    ) -> np.ndarray:
        """Apply a prepared batch: shard-grouped ingestion + merge bookkeeping.

        Rows are grouped per shard (arrival order preserved within each
        group, so bucket member lists match an unsharded build) and fed
        through :meth:`MutableLSHIndex.insert_many_prepared` — optionally
        in parallel via ``executor`` (the shard groups touch disjoint
        state).  Facade bucket bookkeeping follows the original row
        order, so the merged SampleH layout is unaffected by the
        grouping; facade observers are notified once the whole batch is
        live (per-event granularity needs the unbatched :meth:`insert`).
        """
        histogram, rows_total = self._commit_instruments()
        started = time.perf_counter()
        with trace("shard.commit_batch", rows=len(batch)):
            result = self._commit_batch_inner(batch, executor=executor)
        histogram.observe(time.perf_counter() - started)
        rows_total.inc(len(batch))
        return result

    def _commit_batch_inner(
        self, batch: PreparedBatch, *, executor: Optional[Executor] = None
    ) -> np.ndarray:
        jobs = []
        for shard in self.shards:
            rows = np.flatnonzero(batch.shard_ids == shard.shard_id)
            if rows.size == 0:
                continue
            sub_ids = batch.ids[rows]
            sub_csr = batch.csr[rows]
            sub_signatures = [table_signatures[rows] for table_signatures in batch.signatures]
            jobs.append((shard, sub_ids, sub_csr, sub_signatures))
        if executor is None:
            for shard, sub_ids, sub_csr, sub_signatures in jobs:
                shard.index.insert_many_prepared(sub_ids, sub_csr, sub_signatures)
        else:
            futures = [
                executor.submit(
                    shard.index.insert_many_prepared, sub_ids, sub_csr, sub_signatures
                )
                for shard, sub_ids, sub_csr, sub_signatures in jobs
            ]
            for future in futures:
                future.result()
        for position in range(len(batch)):
            self._track_insert(
                int(batch.ids[position]), batch.keys[position], int(batch.shard_ids[position])
            )
        for position in range(len(batch)):
            vector_id = int(batch.ids[position])
            for observer in self._observers:
                observer.on_insert(vector_id)
        return batch.ids

    def insert_many(
        self,
        matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection],
        *,
        vector_ids: Optional[Sequence[int]] = None,
        executor: Optional[Executor] = None,
    ) -> np.ndarray:
        """Batched ingestion: hash once, scatter rows to their shards."""
        return self.commit_batch(
            self.prepare_batch(matrix, vector_ids=vector_ids), executor=executor
        )

    def delete(self, vector_id: int) -> None:
        """Remove a live vector from its owning shard."""
        ordinal = self._bucket_ordinal(vector_id)
        self.shards[int(self._shard_of[vector_id])].index.delete(vector_id)
        self._shard_of[vector_id] = -1
        self._ordinal_of[vector_id] = -1
        position = self._live_position.pop(vector_id)
        last = self._live_ids.pop()
        if last != vector_id:
            self._live_ids[position] = last
            self._live_position[last] = position
        self._ids_array = None
        key = self._ordinals.keys[ordinal]
        ref = self._bucket_refs[key]
        ref[0] -= 1
        if ref[0] == 0:
            del self._bucket_refs[key]
            self._ordinals.release(ordinal)
        self._frozen = None
        for observer in self._observers:
            observer.on_delete(vector_id)

    # ------------------------------------------------------------------
    # merged sampling + similarity (the query-side merge layer)
    # ------------------------------------------------------------------
    def _bucket_members_on_shard(
        self, shard_id: int, keys: Sequence[bytes]
    ) -> List[List[int]]:
        """Member lists for ``keys`` (all owned by ``shard_id``), in order.

        The one bucket-content accessor of the merge layer — the
        multi-process coordinator overrides it with a single batched
        worker round trip per shard.
        """
        table = self.shards[shard_id].index.primary_table
        return [table.bucket_members_by_key(key) for key in keys]

    def _frozen_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Global SampleH layout stitched from per-shard buckets.

        Buckets appear in the facade's global key order and carry the
        owning shard's member lists verbatim, which reproduces the layout
        of one unsharded table over the same event sequence — the basis
        of the bit-identical merged estimates.  Members are fetched
        through :meth:`_bucket_members_on_shard` in one batch per shard,
        then reassembled in the global order.
        """
        if self._frozen is None:
            wanted: Dict[int, List[bytes]] = {}
            order: List[Tuple[int, int]] = []  # (shard_id, position in its batch)
            for key, (count, shard_id, _ordinal) in self._bucket_refs.items():
                if count < 2:
                    continue
                batch = wanted.setdefault(shard_id, [])
                order.append((shard_id, len(batch)))
                batch.append(key)
            members = {
                shard_id: self._bucket_members_on_shard(shard_id, keys)
                for shard_id, keys in wanted.items()
            }
            self._frozen = freeze_bucket_layout(
                members[shard_id][position] for shard_id, position in order
            )
        return self._frozen

    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from the merged stratum H (SampleH)."""
        if sample_size < 0:
            raise ValidationError(f"sample_size must be >= 0, got {sample_size}")
        if sample_size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        if self.num_collision_pairs == 0:
            raise InsufficientSampleError(
                "stratum H is empty: every LSH bucket contains a single vector"
            )
        rng = ensure_rng(random_state)
        counts, offsets, members_flat, pair_counts = self._frozen_layout()
        return sample_weighted_bucket_pairs(
            counts, offsets, members_flat, pair_counts, sample_size, rng
        )

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from the merged stratum L via rejection (SampleL)."""
        if sample_size < 0:
            raise ValidationError(f"sample_size must be >= 0, got {sample_size}")
        if sample_size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        if self.num_non_collision_pairs == 0:
            raise InsufficientSampleError(
                "stratum L is empty: every pair of vectors shares a bucket"
            )
        rng = ensure_rng(random_state)
        live = self.ids
        view = self.primary_table
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        remaining = sample_size
        for _attempt in range(max_attempts):
            batch = max(remaining, 16)
            left_pos, right_pos = sample_uniform_pairs(live.size, batch, rng)
            left, right = live[left_pos], live[right_pos]
            keep = ~view.same_bucket_many(left, right)
            if keep.any():
                lefts.append(left[keep][:remaining])
                rights.append(right[keep][:remaining])
                remaining -= lefts[-1].size
            if remaining <= 0:
                return (
                    np.concatenate(lefts).astype(np.int64),
                    np.concatenate(rights).astype(np.int64),
                )
        raise InsufficientSampleError(
            "could not sample enough stratum-L pairs; the LSH table groups "
            "almost every pair into a single bucket (k is far too small)"
        )

    def _gather_rows_on_shard(
        self, shard_id: int, ids: np.ndarray, *, normalized: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row segments ``(data, indices, lengths)`` of ``ids`` (all on ``shard_id``).

        The one row accessor of the query-side merge layer — the
        multi-process coordinator overrides it with a worker round trip.
        """
        return self.shards[shard_id].index._rows.segments(ids, normalized=normalized)

    def _segments(
        self, ids: np.ndarray, *, normalized: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row segments of ``ids`` gathered from their shards, in ``ids`` order."""
        shard_ids = lookup_id_column(self._shard_of, ids)
        parts = []
        for shard_id in np.unique(shard_ids):
            rows = np.flatnonzero(shard_ids == shard_id)
            segments = self._gather_rows_on_shard(int(shard_id), ids[rows], normalized=normalized)
            parts.append((rows, *segments))
        return stitch_segments(parts, ids.size)

    def cosine_pairs(self, left_ids: Sequence[int], right_ids: Sequence[int]) -> np.ndarray:
        """Cosine similarities for live ``(left, right)`` id pairs across shards."""
        left = np.asarray(left_ids, dtype=np.int64)
        right = np.asarray(right_ids, dtype=np.int64)
        if left.shape != right.shape:
            raise ValidationError("left and right id arrays must have the same length")
        if left.size == 0:
            return np.zeros(0, dtype=np.float64)
        both = self._segments(np.concatenate([left, right]), normalized=True)
        return paired_rows_cosine(both, left.size, self.dimension)

    # ------------------------------------------------------------------
    # export / verification
    # ------------------------------------------------------------------
    def to_collection(self) -> Tuple[VectorCollection, np.ndarray]:
        """Materialise all live vectors as one collection (facade id order)."""
        if not self._live_ids:
            raise ValidationError("cannot materialise an empty index as a collection")
        ids = self.ids.copy()
        rows = csr_from_segments(*self._segments(ids, normalized=False), self.dimension)
        return VectorCollection(rows, copy=False), ids

    def check_invariants(self) -> None:
        """Verify the merge bookkeeping against the shards (tests aid)."""
        if self.partitioner.num_shards != len(self.shards):
            raise AssertionError(
                f"partitioner covers {self.partitioner.num_shards} shards, "
                f"cluster has {len(self.shards)}"
            )
        for shard in self.shards:
            shard.index.check_invariants()
        if sum(shard.size for shard in self.shards) != self.size:
            raise AssertionError("facade live-id count drifted from the shards")
        total_buckets = sum(shard.index.primary_table.num_buckets for shard in self.shards)
        if total_buckets != len(self._bucket_refs):
            raise AssertionError("bucket key registry drifted from the shards")
        self._check_bucket_registry(
            (key, self.shards[ref[1]].index.primary_table.bucket_members_by_key(key))
            for key, ref in self._bucket_refs.items()
        )

    def _check_bucket_registry(self, buckets: Iterable[Tuple[bytes, Sequence[int]]]) -> None:
        """Verify the bucket registry and id columns against shard bucket members.

        ``buckets`` yields ``(key, members)`` for every registered key, as
        the owning shard reports them.  Each member must carry the key's
        shard and ordinal in the facade columns, and no other id may
        carry any.
        """
        live = self.ids
        if not np.array_equal(live, np.asarray(self._live_ids, dtype=np.int64)):
            raise AssertionError("cached live-id array drifted from the live list")
        for column, name in ((self._shard_of, "shard"), (self._ordinal_of, "bucket-ordinal")):
            if int(np.count_nonzero(column >= 0)) != live.size or np.any(column[live] < 0):
                raise AssertionError(f"{name} column drifted from the live set")
        for key, members in buckets:
            count, shard_id, ordinal = self._bucket_refs[key]
            if len(members) != count:
                raise AssertionError("bucket reference counts drifted from the shards")
            member_ids = np.asarray(members, dtype=np.int64)
            if np.any(self._ordinal_of[member_ids] != ordinal):
                raise AssertionError(f"bucket-ordinal column drifted at ordinal {ordinal}")
            if np.any(self._shard_of[member_ids] != shard_id):
                raise AssertionError(f"shard column drifted for bucket ordinal {ordinal}")
        self._ordinals.check({key: ref[2] for key, ref in self._bucket_refs.items()})

    # ------------------------------------------------------------------
    # snapshot / restore (checkpointing + rebalancing substrate)
    # ------------------------------------------------------------------
    def _adopt_shard_state(self, shard_id: int, state: Mapping[str, object]) -> None:
        """Replace one shard's index (and estimator) with a rebuilt state.

        The rebalance layer calls this after splitting/splicing shard
        snapshots: here the state is revived in process; the
        multi-process coordinator overrides it to ship the state to the
        shard's worker instead.  Estimators embedded in the state are
        adopted; a shard whose state carries none ends up with none (the
        caller decides whether to redraw).
        """
        shard = self.shards[shard_id]
        new_index = MutableLSHIndex.from_state(state)
        restored = new_index.estimators
        shard.index = new_index
        shard.estimator = restored[0] if restored else None

    def to_state(self) -> Dict[str, object]:
        """A picklable checkpoint of the facade and every shard.

        Per-shard estimator reservoirs travel inside each shard's state
        (:meth:`MutableLSHIndex.to_state` embeds its registered
        estimators); estimators observing the facade itself are captured
        under ``"estimators"``.  Restores therefore replay estimates
        bit-identically instead of redrawing sampled state.
        """
        state = {
            "format": 1,
            "kind": "sharded",
            "dimension": self.dimension,
            "num_hashes": self.num_hashes,
            "num_tables": self.num_tables,
            "num_shards": self.num_shards,
            "partitioner": partitioner_state(self.partitioner),
            "next_id": self._next_id,
            "live_ids": list(self._live_ids),
            "shard_of": self._shard_of[self.ids].tolist(),
            "bucket_refs": [
                (key, count, shard_id)
                for key, (count, shard_id, _ordinal) in self._bucket_refs.items()
            ],
            "shard_estimators": self._shard_estimators,
            "estimator_kwargs": self._estimator_kwargs,
            "shards": [shard.index.to_state() for shard in self.shards],
        }
        facade_estimators = collect_estimator_states(self._observers)
        if facade_estimators:
            state["estimators"] = facade_estimators
        return state

    @classmethod
    def from_state(
        cls, state: Mapping[str, object], *, estimator_seed: RandomState = None
    ) -> "ShardedMutableIndex":
        """Rebuild a sharded index from :meth:`to_state` output.

        Per-shard estimators embedded in the shard states are reattached
        with their reservoirs, staleness counters, and generator
        positions intact, so restored clusters serve the *same* sampled
        state the original would — the substrate key-range migration
        relies on.  Only when a shard state carries no estimator (older
        snapshots, or ``shard_estimators`` toggled on after the
        snapshot) is a fresh estimator drawn, seeded from
        ``estimator_seed``.
        """
        state = cls._unwrap_sharded_state(state)
        sharded = cls.__new__(cls)
        sharded._restore_facade_fields(state)
        estimator_rngs = spawn(ensure_rng(estimator_seed), int(state["num_shards"]))
        sharded.shards = []
        for shard_id, shard_state in enumerate(state["shards"]):
            index = MutableLSHIndex.from_state(shard_state)
            restored = index.estimators
            if not sharded._shard_estimators:
                for estimator in restored:  # flag toggled off: detach
                    estimator.close()
                estimator = None
            elif restored:
                estimator = restored[0]
            else:
                estimator = StreamingEstimator(
                    index, random_state=estimator_rngs[shard_id], **sharded._estimator_kwargs
                )
            sharded.shards.append(IndexShard(shard_id, index, estimator))
        sharded.families = sharded.shards[0].index.families if sharded.shards else []
        sharded._restore_facade_bookkeeping(state)
        sharded._refresh_owner_alignment()
        restore_estimator_states(sharded, state.get("estimators", ()))
        return sharded

    @staticmethod
    def _unwrap_sharded_state(state: Mapping[str, object]) -> Mapping[str, object]:
        """Validate (and engine-unwrap) a sharded-index snapshot state."""
        if state.get("kind") == "engine-snapshot":
            # engine bundles wrap the index state; unwrap so low-level
            # tooling keeps working on front-door snapshots
            state = state.get("backend", {}).get("index", {})
        if state.get("format") != 1 or state.get("kind") != "sharded":
            raise ValidationError("not a sharded-index snapshot")
        return state

    def _restore_facade_fields(self, state: Mapping[str, object]) -> None:
        """Restore the scalar facade fields (shared with the cluster restore)."""
        self.dimension = int(state["dimension"])
        self.num_hashes = int(state["num_hashes"])
        self.num_tables = int(state["num_tables"])
        if "partitioner" in state:
            self.partitioner = partitioner_from_state(state["partitioner"])
        else:  # pre-rebalance snapshots carried only the shard count
            self.partitioner = resolve_partitioner("modulo", int(state["num_shards"]))
        self._shard_estimators = bool(state["shard_estimators"])
        self._estimator_kwargs = dict(state["estimator_kwargs"])
        budget = self._estimator_kwargs.get("staleness_budget")
        if isinstance(budget, (int, float)) and budget > 1.0:
            # legacy snapshots could carry budgets > 1, which behaved
            # exactly like 1.0 (staleness is a capped fraction); clamp so
            # they keep restoring under the tightened validation
            self._estimator_kwargs["staleness_budget"] = 1.0

    def _restore_facade_bookkeeping(self, state: Mapping[str, object]) -> None:
        """Restore the merge-layer bookkeeping (shared with the cluster restore).

        The id columns are derived state: shards come from ``shard_of``,
        bucket ordinals from the shard states' primary-table layouts
        (ordinals are assigned in registry order).
        """
        self._live_ids = [int(i) for i in state["live_ids"]]
        self._live_position = {
            vector_id: position for position, vector_id in enumerate(self._live_ids)
        }
        self._ids_array = None
        self._reset_bucket_registry()
        for key, count, shard_id in state["bucket_refs"]:
            key = bytes(key)
            self._bucket_refs[key] = [int(count), int(shard_id), self._ordinals.claim(key)]
        live = self.ids
        if live.size:
            self._shard_of = grow_id_column(self._shard_of, int(live.max()))
            self._ordinal_of = grow_id_column(self._ordinal_of, int(live.max()))
            self._shard_of[live] = np.asarray(state["shard_of"], dtype=np.int64)
        for shard_state in state["shards"]:
            for key, members in shard_state["tables"][0]:
                member_ids = np.asarray(members, dtype=np.int64)
                self._ordinal_of[member_ids] = self._bucket_refs[bytes(key)][2]
        self._next_id = int(state["next_id"])
        self._observers = []
        self._frozen = None

    def snapshot(self, path: Union[str, Path]) -> None:
        """Serialise the whole cluster state to one file."""
        with open(path, "wb") as handle:
            pickle.dump(self.to_state(), handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(
        cls, path: Union[str, Path], *, estimator_seed: RandomState = None
    ) -> "ShardedMutableIndex":
        """Revive a cluster from a :meth:`snapshot` file."""
        with open(path, "rb") as handle:
            state = pickle.load(handle)  # reprolint: disable=R005 - operator-supplied local snapshot file, same trust domain as the process
        return cls.from_state(state, estimator_seed=estimator_seed)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ShardedMutableIndex(n={self.size}, shards={self.num_shards}, "
            f"d={self.dimension}, k={self.num_hashes})"
        )


__all__ = ["IndexShard", "PreparedBatch", "ShardedMutableIndex"]
