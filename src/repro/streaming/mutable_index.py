"""A mutable LSH index: the paper's extended index under insert/delete.

The static :class:`~repro.lsh.table.LSHTable` /
:class:`~repro.lsh.index.LSHIndex` pair hashes a whole collection once
and freezes the bucket layout; any change to the collection costs a full
``O(n·k)`` rebuild.  This module provides the mutable counterpart used by
the streaming estimators:

* :class:`MutableLSHTable` — one hash table whose buckets support O(1)
  amortised ``insert`` / ``delete`` while keeping the paper's bucket-count
  bookkeeping (``N_H = Σ_j C(b_j, 2)``) *exact* at every step.  A vector's
  signature — computed through the same
  :meth:`~repro.lsh.families.LSHFamily.hash_matrix` code path as the
  batch build — never changes, so a surviving pair never migrates between
  stratum H and stratum L; mutations only add or remove pairs.
* :class:`MutableLSHIndex` — ``ℓ`` mutable tables over one growing /
  shrinking set of vectors, with stable sequential ids (or caller-assigned
  ids, the substrate of the sharded deployment in :mod:`repro.shard`),
  pooled row storage (:class:`~repro.streaming.rowstore.RowStore`) for
  fast per-pair cosine evaluation, and the SampleH / SampleL primitives
  the LSH-SS kernels need
  (:class:`repro.streaming.estimator.StreamingEstimator` builds on these).

Because signatures are deterministic given the family seed, replaying a
:class:`~repro.streaming.events.ChangeLog` through a mutable index yields
exactly the strata sizes (``N_H`` / ``N_L``) a fresh batch build over the
final collection would produce.

Indexes can be checkpointed with :meth:`MutableLSHIndex.snapshot` and
revived with :meth:`MutableLSHIndex.restore`: the snapshot serialises the
rows, the bucket layout (including dict iteration order, so sampling
draws replay identically), and the hash families themselves.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np
from scipy import sparse

from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh.families import LSHFamily
from repro.lsh.index import resolve_family
from repro.lsh.table import sample_uniform_pairs, sample_weighted_bucket_pairs
from repro.rng import RandomState, ensure_rng, spawn
from repro.streaming.rowstore import (
    _MAX_ID,
    RowStore,
    grow_id_column,
    lookup_id_column,
    new_id_column,
    paired_rows_cosine,
)
from repro.vectors.collection import VectorCollection

VectorInput = Union[Mapping[int, float], Sequence[float], np.ndarray, sparse.spmatrix]

#: Per-table bucket layout in dict iteration order: ``[(key, [member, …]), …]``.
BucketState = List[Tuple[bytes, List[int]]]


def coerce_row(vector: VectorInput, dimension: int) -> sparse.csr_matrix:
    """Canonicalise one input vector into a fresh 1×``dimension`` CSR row.

    Shared by :meth:`MutableLSHIndex.insert` and the shard router, so a
    vector routed through a :class:`repro.shard.ShardedMutableIndex` is
    stored bit-for-bit as a direct insert would store it.
    """
    if isinstance(vector, Mapping):
        indices = np.asarray([int(i) for i in vector.keys()], dtype=np.int64)
        values = np.asarray([float(v) for v in vector.values()], dtype=np.float64)
        if indices.size and (indices.min() < 0 or indices.max() >= dimension):
            raise ValidationError(
                f"vector indices must lie in [0, {dimension}), got "
                f"[{indices.min()}, {indices.max()}]"
            )
        row = sparse.csr_matrix(
            (values, (np.zeros(indices.size, dtype=np.int64), indices)),
            shape=(1, dimension),
            dtype=np.float64,
        )
    elif sparse.issparse(vector):
        # always copy: the row is canonicalised in place and stored, and
        # must never alias (or mutate) the caller's matrix
        row = vector.tocsr().astype(np.float64, copy=True)
    else:
        dense = np.asarray(vector, dtype=np.float64)
        if dense.ndim == 1:
            dense = dense[None, :]
        row = sparse.csr_matrix(dense)
    if row.shape[0] != 1 or row.shape[1] != dimension:
        raise ValidationError(
            f"expected one vector of dimension {dimension}, got shape {row.shape}"
        )
    if not np.all(np.isfinite(row.data)):
        raise ValidationError("vector values must be finite (no NaN / inf)")
    row.eliminate_zeros()
    row.sort_indices()
    return row


def coerce_matrix(
    matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection], dimension: int
) -> sparse.csr_matrix:
    """Canonicalise a whole input matrix the way :func:`coerce_row` does rows.

    Canonicalisation happens BEFORE hashing: families that hash the
    support (e.g. MinHash) must see the same rows ``insert`` / a fresh
    batch build would, or explicit stored zeros would change signatures.
    """
    if isinstance(matrix, VectorCollection):
        matrix = matrix.matrix
    if not sparse.issparse(matrix):
        matrix = sparse.csr_matrix(np.atleast_2d(np.asarray(matrix, dtype=np.float64)))
    csr = matrix.tocsr().astype(np.float64)
    if csr.shape[1] != dimension:
        raise ValidationError(
            f"matrix dimension {csr.shape[1]} does not match index dimension {dimension}"
        )
    if not np.all(np.isfinite(csr.data)):
        raise ValidationError("vector values must be finite (no NaN / inf)")
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def claim_vector_id(
    vector_id: Optional[int], next_id: int, live_position: Mapping[int, int]
) -> Tuple[int, int]:
    """Validate / assign one vector id; returns ``(vector_id, new_next_id)``.

    Shared by :class:`MutableLSHIndex` and the sharded facade so both
    enforce the same id policy: non-negative, below the row store's id
    space, and never currently live.
    """
    if vector_id is None:
        vector_id = next_id
    else:
        vector_id = int(vector_id)
        if not 0 <= vector_id < _MAX_ID:
            raise ValidationError(
                f"vector ids must lie in [0, {_MAX_ID}), got {vector_id}"
            )
        if vector_id in live_position:
            raise ValidationError(f"vector id {vector_id} is already in the index")
    return vector_id, max(next_id, vector_id + 1)


def signature_bucket_key(signature: np.ndarray, num_hashes: int) -> bytes:
    """Serialise a ``(k,)`` signature into the bucket key used by the tables."""
    row = np.ascontiguousarray(np.asarray(signature, dtype=np.int64).ravel())
    if row.size != num_hashes:
        raise ValidationError(
            f"signature has {row.size} values, expected k={num_hashes}"
        )
    return row.tobytes()


class BucketOrdinals:
    """Ordinal → bucket-key table with a free list.

    Shared by :class:`MutableLSHTable` and the sharded facade, whose
    id-indexed ordinal columns it backs: a live bucket's ordinal is
    unique, and an emptied bucket's ordinal is recycled for the next new
    bucket, so the table stays as long as the peak bucket count.
    """

    def __init__(self) -> None:
        #: ordinal → key (``b""`` while the ordinal is free)
        self.keys: List[bytes] = []
        self._free: List[int] = []

    def claim(self, key: bytes) -> int:
        """An ordinal for a newly opened bucket keyed by ``key``."""
        if self._free:
            ordinal = self._free.pop()
            self.keys[ordinal] = key
        else:
            ordinal = len(self.keys)
            self.keys.append(key)
        return ordinal

    def release(self, ordinal: int) -> None:
        """Free the ordinal of a bucket that just emptied."""
        self.keys[ordinal] = b""
        self._free.append(ordinal)

    def check(self, live: Mapping[bytes, int]) -> None:
        """Verify the table against ``live`` (key → ordinal of every live bucket)."""
        for key, ordinal in live.items():
            if self.keys[ordinal] != key:
                raise AssertionError(f"bucket-ordinal key table drifted at ordinal {ordinal}")
        free = set(self._free)
        if len(free) != len(self._free) or any(self.keys[ordinal] for ordinal in free):
            raise AssertionError("bucket-ordinal free list overlaps live buckets")
        if len(free) + len(live) != len(self.keys):
            raise AssertionError("bucket-ordinal key table leaks ordinals")


class MutableLSHTable:
    """One mutable LSH hash table with exact ``N_H`` bookkeeping.

    Buckets are keyed by the serialised signature and numbered by a
    *bucket ordinal* (:class:`BucketOrdinals`): ``_ordinal_of`` is a
    dense int64 column indexed by vector id (``-1`` = absent, the
    :class:`~repro.streaming.rowstore.RowStore` dense-id contract), so
    "same bucket" is one integer comparison and
    :meth:`same_bucket_many` is a vectorised column test.  Members are
    kept in swap-pop lists with a position map so ``insert`` and
    ``delete`` stay O(1) scalar updates.  ``num_collision_pairs`` is
    maintained incrementally: inserting into a bucket of size ``b`` adds
    ``b`` new co-bucket pairs, deleting from a bucket of size ``b``
    removes ``b − 1``.

    The weighted bucket-pair sampler (SampleH) uses a lazily rebuilt flat
    CSR-style view of the buckets; the view is invalidated by any
    mutation and rebuilt in ``O(n)`` on the next sampling call, so bursts
    of updates between queries pay for one rebuild only.
    """

    def __init__(self, family: LSHFamily) -> None:
        self.family = family
        self._clear()

    def _clear(self) -> None:
        #: bucket key → (ordinal, members); dict order is the bucket insertion order
        self._buckets: Dict[bytes, Tuple[int, List[int]]] = {}
        self._ordinals = BucketOrdinals()
        self._ordinal_of = new_id_column()
        self._position: Dict[int, int] = {}
        self._num_collision_pairs = 0
        self._frozen: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vectors(self) -> int:
        """Number of live vectors in the table."""
        return len(self._position)

    @property
    def num_hashes(self) -> int:
        """Number of hash functions ``k`` in ``g``."""
        return self.family.num_hashes

    @property
    def num_buckets(self) -> int:
        """Number of non-empty buckets."""
        return len(self._buckets)

    @property
    def num_collision_pairs(self) -> int:
        """``N_H = Σ_j C(b_j, 2)``, maintained exactly under mutation."""
        return self._num_collision_pairs

    @property
    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all non-empty buckets (arbitrary but stable order)."""
        return np.asarray([len(m) for _, m in self._buckets.values()], dtype=np.int64)

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._position

    def _ordinal(self, vector_id: int) -> int:
        if vector_id in self._position:
            return int(self._ordinal_of[vector_id])
        raise ValidationError(f"vector id {vector_id} is not in the table")

    def signature_key(self, vector_id: int) -> bytes:
        """The serialised signature (bucket key) of a live vector."""
        return self._ordinals.keys[self._ordinal(vector_id)]

    def bucket_size_of(self, vector_id: int) -> int:
        """Size of the bucket containing ``vector_id``."""
        return len(self._buckets[self.signature_key(vector_id)][1])

    def bucket_members_of(self, vector_id: int) -> np.ndarray:
        """Ids sharing a bucket with ``vector_id`` (including itself)."""
        return np.asarray(self._buckets[self.signature_key(vector_id)][1], dtype=np.int64)

    def same_bucket(self, u: int, v: int) -> bool:
        """``True`` iff live vectors ``u`` and ``v`` share a bucket."""
        return self._ordinal(u) == self._ordinal(v)

    def same_bucket_many(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`same_bucket`: one bucket-ordinal comparison per pair."""
        column = self._ordinal_of
        return lookup_id_column(column, left, "table") == lookup_id_column(column, right, "table")

    def bucket_members_by_key(self, key: bytes) -> List[int]:
        """The member list of the bucket keyed by ``key`` (do not mutate).

        Used by the sharded merge layer to stitch per-shard buckets into
        one global SampleH layout without copying through an accessor.
        """
        try:
            return self._buckets[key][1]
        except KeyError:
            raise ValidationError("no bucket with the given signature key") from None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _place(self, vector_id: int, key: bytes) -> int:
        """Append a vector to the bucket keyed by ``key`` (opened if new).

        Returns the bucket's size before.  Validates the id — and grows
        the ordinal column — before any bucket opens.
        """
        self._ordinal_of = grow_id_column(self._ordinal_of, vector_id)
        entry = self._buckets.get(key)
        if entry is None:
            entry = self._buckets[key] = (self._ordinals.claim(key), [])
        ordinal, bucket = entry
        size = len(bucket)
        self._position[vector_id] = size
        bucket.append(vector_id)
        self._ordinal_of[vector_id] = ordinal
        return size

    def insert(self, vector_id: int, signature: np.ndarray) -> int:
        """Insert a vector with a precomputed ``(k,)`` signature row.

        Returns the number of co-bucket pairs the insertion created (the
        size of the target bucket before insertion).
        """
        if vector_id in self._position:
            raise ValidationError(f"vector id {vector_id} is already in the table")
        new_pairs = self._place(vector_id, signature_bucket_key(signature, self.num_hashes))
        self._num_collision_pairs += new_pairs
        self._frozen = None
        return new_pairs

    def delete(self, vector_id: int) -> int:
        """Remove a live vector; returns the number of co-bucket pairs removed."""
        ordinal = self._ordinal(vector_id)
        key = self._ordinals.keys[ordinal]
        bucket = self._buckets[key][1]
        position = self._position.pop(vector_id)
        last = bucket.pop()
        if last != vector_id:
            bucket[position] = last
            self._position[last] = position
        self._ordinal_of[vector_id] = -1
        removed_pairs = len(bucket)
        self._num_collision_pairs -= removed_pairs
        if not bucket:
            del self._buckets[key]
            self._ordinals.release(ordinal)
        self._frozen = None
        return removed_pairs

    # ------------------------------------------------------------------
    # sampling (SampleH primitive)
    # ------------------------------------------------------------------
    def _frozen_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style (counts, offsets, members_flat, pair_counts) over buckets with ≥ 2 members."""
        if self._frozen is None:
            self._frozen = freeze_bucket_layout(
                members for _, members in self._buckets.values() if len(members) >= 2
            )
        return self._frozen

    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample uniform pairs from stratum H (same scheme as the static table)."""
        if sample_size < 0:
            raise ValidationError(f"sample_size must be >= 0, got {sample_size}")
        if sample_size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        if self._num_collision_pairs == 0:
            raise InsufficientSampleError(
                "stratum H is empty: every LSH bucket contains a single vector"
            )
        rng = ensure_rng(random_state)
        counts, offsets, members_flat, pair_counts = self._frozen_layout()
        return sample_weighted_bucket_pairs(
            counts, offsets, members_flat, pair_counts, sample_size, rng
        )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def bucket_state(self) -> BucketState:
        """The bucket layout in dict iteration order (snapshot substrate).

        Preserving the iteration order matters: the SampleH layout is
        derived from it, so a restored table replays the same draws the
        original would for the same generator state.
        """
        return [(key, list(members)) for key, (_, members) in self._buckets.items()]

    def load_bucket_state(self, buckets: BucketState) -> None:
        """Replace the bucket layout with a previously captured state.

        The ordinal column and key table are derived state: they are
        rebuilt here (ordinals in bucket order), never serialised.
        """
        self._clear()
        for key, members in buckets:
            key = bytes(key)
            for member in members:
                vector_id = int(member)
                if vector_id in self._position:
                    raise ValidationError(
                        f"bucket state repeats vector id {vector_id}"
                    )
                self._place(vector_id, key)
            size = len(members)
            self._num_collision_pairs += size * (size - 1) // 2

    def check_invariants(self) -> None:
        """Verify the incremental bookkeeping against a from-scratch recount.

        Covers ``N_H``, the member positions, and the derived ordinal
        column / key table: every member of a live bucket carries that
        bucket's ordinal, and no other id carries any.
        """
        sizes = self.bucket_sizes
        recomputed = int(np.sum(sizes * (sizes - 1) // 2)) if sizes.size else 0
        if recomputed != self._num_collision_pairs:
            raise AssertionError(
                f"N_H bookkeeping drifted: incremental={self._num_collision_pairs}, "
                f"recount={recomputed}"
            )
        if int(sizes.sum()) != len(self._position):
            raise AssertionError("member bookkeeping drifted")
        if int(np.count_nonzero(self._ordinal_of >= 0)) != len(self._position):
            raise AssertionError("bucket-ordinal column holds ids outside the table")
        for ordinal, members in self._buckets.values():
            if not members or any(self._position.get(m) != i for i, m in enumerate(members)):
                raise AssertionError("member positions drifted")
            if np.any(self._ordinal_of[np.asarray(members, dtype=np.int64)] != ordinal):
                raise AssertionError(f"bucket-ordinal column drifted at ordinal {ordinal}")
        self._ordinals.check({key: ordinal for key, (ordinal, _) in self._buckets.items()})

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MutableLSHTable(n={self.num_vectors}, k={self.num_hashes}, "
            f"buckets={self.num_buckets}, NH={self.num_collision_pairs})"
        )


def freeze_bucket_layout(
    buckets: Iterable[Union[Sequence[int], np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten an iterable of member lists into the SampleH CSR layout.

    Shared by :class:`MutableLSHTable` and the sharded merge layer
    (:mod:`repro.shard`), which feeds buckets gathered from many shards —
    identical inputs produce identical layouts, hence identical draws.
    """
    arrays = [np.asarray(members, dtype=np.int64) for members in buckets]
    if arrays:
        counts = np.asarray([a.size for a in arrays], dtype=np.int64)
        members_flat = np.concatenate(arrays)
    else:
        counts = np.zeros(0, dtype=np.int64)
        members_flat = np.zeros(0, dtype=np.int64)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    pair_counts = counts * (counts - 1) // 2
    return counts, offsets, members_flat, pair_counts


def frozen_ids(live_ids: Sequence[int]) -> np.ndarray:
    """A read-only int64 array of ``live_ids`` (the cached ``ids`` of an index)."""
    array = np.asarray(live_ids, dtype=np.int64)
    array.flags.writeable = False
    return array


def collect_estimator_states(observers: Sequence[object]) -> List[Dict[str, object]]:
    """Serialisable states of the estimator observers among ``observers``.

    Duck-typed (``to_state`` + the ``"streaming-estimator"`` kind tag)
    so this module never imports :mod:`repro.streaming.estimator`, which
    imports it back.
    """
    states = []
    for observer in observers:
        to_state = getattr(observer, "to_state", None)
        if not callable(to_state):
            continue
        state = to_state()
        if isinstance(state, dict) and state.get("kind") == "streaming-estimator":
            states.append(state)
    return states


def restore_estimator_states(
    index: "MutableLSHIndex", states: Sequence[Mapping[str, object]]
) -> List[object]:
    """Reattach checkpointed estimators to a restored index (in order)."""
    from repro.streaming.estimator import StreamingEstimator

    return [StreamingEstimator.from_state(index, state) for state in states]


class MutableLSHIndex:
    """``ℓ`` mutable LSH tables over a growing / shrinking vector set.

    Parameters
    ----------
    dimension:
        Dimensionality ``d`` of the vector space; the hash families are
        bound to it eagerly so inserts can be hashed one at a time.
    num_hashes:
        ``k`` — hash functions per table.
    num_tables:
        ``ℓ`` — number of tables.
    family:
        Family name (``"cosine"`` / ``"jaccard"``) or an
        :class:`~repro.lsh.families.LSHFamily` subclass.
    random_state:
        Seed / generator; the ``ℓ`` tables receive independent child
        generators exactly as in the static :class:`~repro.lsh.index.LSHIndex`,
        so the same seed produces the same hash functions.
    families:
        Pre-built family instances, one per table (advanced).  The shard
        layer passes the *same* instances to every shard so all shards
        hash identically; ``family`` / ``random_state`` are ignored when
        given.

    Ids are assigned sequentially from 0 in insertion order and are never
    reused, so a :class:`~repro.streaming.events.ChangeLog` recorded
    against one index replays identically onto a fresh one.  A caller may
    instead assign its own ids (``insert(vector, vector_id=…)``) — the
    shard router uses this to keep *global* ids inside per-shard indexes.
    """

    def __init__(
        self,
        dimension: int,
        *,
        num_hashes: int = 20,
        num_tables: int = 1,
        family: Union[str, Type[LSHFamily]] = "cosine",
        random_state: RandomState = None,
        families: Optional[Sequence[LSHFamily]] = None,
    ) -> None:
        if num_tables < 1:
            raise ValidationError(f"num_tables (ℓ) must be >= 1, got {num_tables}")
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.num_hashes = int(num_hashes)
        self.num_tables = int(num_tables)
        if families is not None:
            families = list(families)
            if len(families) != self.num_tables:
                raise ValidationError(
                    f"got {len(families)} families for {self.num_tables} tables"
                )
            for family_instance in families:
                if family_instance.num_hashes != self.num_hashes:
                    raise ValidationError(
                        "family has k="
                        f"{family_instance.num_hashes}, index expects k={self.num_hashes}"
                    )
                family_instance.ensure_initialised(self.dimension)
            self.tables: List[MutableLSHTable] = [
                MutableLSHTable(family_instance) for family_instance in families
            ]
        else:
            family_class = resolve_family(family)
            rng = ensure_rng(random_state)
            self.tables = []
            for child in spawn(rng, num_tables):
                family_instance = family_class(self.num_hashes, random_state=child)
                family_instance.ensure_initialised(self.dimension)
                self.tables.append(MutableLSHTable(family_instance))
        self._rows = RowStore(self.dimension)
        self._live_ids: List[int] = []
        self._live_position: Dict[int, int] = {}
        #: ``_live_ids`` as an array, built once per mutation epoch
        self._ids_array: Optional[np.ndarray] = None
        self._next_id = 0
        self._observers: List[object] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        collection: VectorCollection,
        *,
        num_hashes: int = 20,
        num_tables: int = 1,
        family: Union[str, Type[LSHFamily]] = "cosine",
        random_state: RandomState = None,
    ) -> "MutableLSHIndex":
        """Bulk-load a collection (ids ``0 … n−1`` in row order)."""
        index = cls(
            collection.dimension,
            num_hashes=num_hashes,
            num_tables=num_tables,
            family=family,
            random_state=random_state,
        )
        index.insert_many(collection.matrix)
        return index

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def families(self) -> List[LSHFamily]:
        """The ``ℓ`` family instances, one per table."""
        return [table.family for table in self.tables]

    @property
    def size(self) -> int:
        """Number of live vectors ``n``."""
        return len(self._live_ids)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._live_position

    @property
    def ids(self) -> np.ndarray:
        """Live vector ids (arbitrary but stable order; a read-only array).

        Cached until the next mutation, so the SampleL rejection loop
        and repeated estimates between writes share one array.
        """
        if self._ids_array is None:
            self._ids_array = frozen_ids(self._live_ids)
        return self._ids_array

    @property
    def primary_table(self) -> MutableLSHTable:
        """The first table — used by the single-table estimators."""
        return self.tables[0]

    @property
    def total_pairs(self) -> int:
        """``M = C(n, 2)`` over the live vectors."""
        n = self.size
        return n * (n - 1) // 2

    @property
    def num_collision_pairs(self) -> int:
        """``N_H`` of the primary table."""
        return self.primary_table.num_collision_pairs

    @property
    def num_non_collision_pairs(self) -> int:
        """``N_L = M − N_H`` of the primary table."""
        return self.total_pairs - self.num_collision_pairs

    def row(self, vector_id: int) -> sparse.csr_matrix:
        """The stored (raw) vector as a fresh 1×d CSR row."""
        return self._rows.gather_raw([vector_id])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def register_observer(self, observer: object) -> None:
        """Register an object with ``on_insert(id)`` / ``on_delete(id)`` hooks.

        :class:`~repro.streaming.estimator.StreamingEstimator` uses this
        to repair its reservoirs as the collection changes.  Observers
        are notified on every mutation until
        :meth:`unregister_observer` is called — discard short-lived
        estimators explicitly (``estimator.close()``), or they keep
        being repaired forever.
        """
        self._observers.append(observer)

    def unregister_observer(self, observer: object) -> None:
        """Stop notifying ``observer``; a no-op if it is not registered."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def _coerce_row(self, vector: VectorInput) -> sparse.csr_matrix:
        return coerce_row(vector, self.dimension)

    def _claim_id(self, vector_id: Optional[int]) -> int:
        vector_id, self._next_id = claim_vector_id(
            vector_id, self._next_id, self._live_position
        )
        return vector_id

    def insert(self, vector: VectorInput, *, vector_id: Optional[int] = None) -> int:
        """Insert one vector; returns its id (assigned sequentially unless given).

        Caller-assigned ids must be fresh (never live before) and
        dense-ish — they index the row store's slot map directly, which
        is what the shard router relies on with its sequential global
        ids.
        """
        row = self._coerce_row(vector)
        signatures = [table.family.hash_matrix(row)[0] for table in self.tables]
        return self._insert_prepared(vector_id, row, signatures)

    def _insert_prepared(
        self,
        vector_id: Optional[int],
        row: sparse.csr_matrix,
        signatures: Sequence[np.ndarray],
    ) -> int:
        """Insert one already-coerced, already-hashed row (router fast path)."""
        vector_id = self._claim_id(vector_id)
        self._rows.add(vector_id, row)
        self._live_position[vector_id] = len(self._live_ids)
        self._live_ids.append(vector_id)
        self._ids_array = None
        for table, signature in zip(self.tables, signatures):
            table.insert(vector_id, signature)
        for observer in self._observers:
            observer.on_insert(vector_id)
        return vector_id

    def insert_many(
        self,
        matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection],
        *,
        vector_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Insert every row of a matrix / collection; returns the assigned ids.

        Signatures are computed in one batch matrix product per table —
        the same cost profile as a static build — while the bucket
        insertions remain incremental.
        """
        csr = coerce_matrix(matrix, self.dimension)
        signatures = [table.family.hash_matrix(csr) for table in self.tables]
        return self.insert_many_prepared(vector_ids, csr, signatures)

    def insert_many_prepared(
        self,
        vector_ids: Optional[Sequence[int]],
        csr: sparse.csr_matrix,
        signatures: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Bulk-insert already-coerced rows with precomputed signatures.

        This is the shard ingestion fast path: the router hashes a whole
        batch once, partitions rows by bucket key, and each shard applies
        its slice here — rows are pooled in one append, bucket insertions
        and observer notifications stay per-row (so estimator staleness
        accounting sees the same intermediate sizes a loop of ``insert``
        calls would produce).
        """
        num_rows = csr.shape[0]
        if vector_ids is None:
            ids = np.arange(self._next_id, self._next_id + num_rows, dtype=np.int64)
        else:
            ids = np.asarray(list(vector_ids), dtype=np.int64)
            if ids.size != num_rows:
                raise ValidationError(
                    f"got {ids.size} vector ids for {num_rows} rows"
                )
            if np.unique(ids).size != ids.size:
                raise ValidationError("vector ids must be unique within a batch")
            for vector_id in ids:
                claim_vector_id(int(vector_id), self._next_id, self._live_position)
        # add_many validates the whole batch (range, duplicates) before
        # mutating, so a bad batch leaves the index untouched; only then
        # is _next_id advanced
        self._rows.add_many(ids, csr)
        if num_rows:
            self._next_id = max(self._next_id, int(ids.max()) + 1)
        for position in range(num_rows):
            vector_id = int(ids[position])
            self._live_position[vector_id] = len(self._live_ids)
            self._live_ids.append(vector_id)
            # per row: observers notified below may read ``ids`` mid-batch
            self._ids_array = None
            for table, table_signatures in zip(self.tables, signatures):
                table.insert(vector_id, table_signatures[position])
            for observer in self._observers:
                observer.on_insert(vector_id)
        return ids

    def delete(self, vector_id: int) -> None:
        """Remove a live vector by id."""
        if vector_id not in self._live_position:
            raise ValidationError(f"vector id {vector_id} is not in the index")
        for table in self.tables:
            table.delete(vector_id)
        position = self._live_position.pop(vector_id)
        last = self._live_ids.pop()
        if last != vector_id:
            self._live_ids[position] = last
            self._live_position[last] = position
        self._ids_array = None
        self._rows.remove(vector_id)
        for observer in self._observers:
            observer.on_delete(vector_id)

    # ------------------------------------------------------------------
    # similarity + sampling primitives
    # ------------------------------------------------------------------
    def cosine_pairs(self, left_ids: Sequence[int], right_ids: Sequence[int]) -> np.ndarray:
        """Cosine similarities for many live ``(left, right)`` id pairs.

        Served from the pooled row store: one vectorised gather for both
        sides instead of a per-row ``vstack``, with inverse norms cached
        lazily (queries pay for normalisation once per row, updates
        never do).
        """
        left = np.asarray(left_ids, dtype=np.int64)
        right = np.asarray(right_ids, dtype=np.int64)
        if left.shape != right.shape:
            raise ValidationError("left and right id arrays must have the same length")
        if left.size == 0:
            return np.zeros(0, dtype=np.float64)
        both = self._rows.segments(np.concatenate([left, right]), normalized=True)
        return paired_rows_cosine(both, left.size, self.dimension)

    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from the primary table's stratum H (SampleH)."""
        return self.primary_table.sample_collision_pairs(sample_size, random_state=random_state)

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from the primary table's stratum L via rejection (SampleL)."""
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
        table = self.primary_table
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        remaining = sample_size
        for _attempt in range(max_attempts):
            batch = max(remaining, 16)
            left_pos, right_pos = sample_uniform_pairs(live.size, batch, rng)
            left, right = live[left_pos], live[right_pos]
            keep = ~table.same_bucket_many(left, right)
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

    # ------------------------------------------------------------------
    # export / verification
    # ------------------------------------------------------------------
    def to_collection(self) -> Tuple[VectorCollection, np.ndarray]:
        """Materialise the live vectors as an immutable collection.

        Returns ``(collection, ids)`` where ``collection.row(i)`` is the
        vector whose streaming id is ``ids[i]``.  Used by tests and
        benchmarks to compare against a fresh static build.
        """
        if not self._live_ids:
            raise ValidationError("cannot materialise an empty index as a collection")
        ids = self.ids.copy()
        stacked = self._rows.gather_raw(ids)
        return VectorCollection(stacked, copy=False), ids

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """A picklable checkpoint: rows, bucket layouts, families, estimators.

        Bucket dict iteration order and the live-id order are both
        preserved, so a restored index produces the same sampling draws
        the original would for the same generator state — a shard can be
        checkpointed on one node and revived on another without
        disturbing the merged estimate.

        Registered :class:`~repro.streaming.estimator.StreamingEstimator`
        observers contribute their reservoir state (pairs, staleness
        counters, generator position) under the ``"estimators"`` key, so
        :meth:`from_state` reattaches them with their sampled state
        intact instead of redrawing.
        """
        state = {
            "format": 1,
            "dimension": self.dimension,
            "num_hashes": self.num_hashes,
            "num_tables": self.num_tables,
            "next_id": self._next_id,
            "live_ids": list(self._live_ids),
            "rows": self._rows.state(),
            "families": self.families,  # reprolint: disable=R013 - LSHFamily carries its seeded hyperplanes; gains its own to_state() in the wire-format migration (ROADMAP)
            "tables": [table.bucket_state() for table in self.tables],
        }
        estimator_states = collect_estimator_states(self._observers)
        if estimator_states:
            state["estimators"] = estimator_states
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "MutableLSHIndex":
        """Rebuild an index from :meth:`to_state` output (no re-hashing).

        Estimator states embedded by :meth:`to_state` are restored and
        re-registered as observers; retrieve them via
        ``index.estimators`` (they resume bit-identically).
        """
        if state.get("kind") == "engine-snapshot":
            # engine bundles wrap the index state; unwrap so low-level
            # tooling keeps working on front-door snapshots
            backend_state = state.get("backend", {})
            if backend_state.get("kind") != "streaming-backend":
                raise ValidationError(
                    "engine snapshot wraps a "
                    f"{backend_state.get('kind', 'unknown')!r} state, not a "
                    "streaming index; restore it with JoinEstimationEngine.restore"
                )
            state = backend_state.get("index", {})
        if state.get("format") != 1:
            raise ValidationError(
                f"unsupported snapshot format {state.get('format')!r}"
            )
        index = cls(
            int(state["dimension"]),
            num_hashes=int(state["num_hashes"]),
            num_tables=int(state["num_tables"]),
            families=state["families"],
        )
        index._rows = RowStore.from_state(state["rows"])
        index._live_ids = [int(i) for i in state["live_ids"]]
        index._live_position = {
            vector_id: position for position, vector_id in enumerate(index._live_ids)
        }
        index._next_id = int(state["next_id"])
        for table, buckets in zip(index.tables, state["tables"]):
            table.load_bucket_state(buckets)
        restore_estimator_states(index, state.get("estimators", ()))
        return index

    @property
    def estimators(self) -> Tuple[object, ...]:
        """The registered streaming estimators (restored ones included)."""
        return tuple(
            observer
            for observer in self._observers
            if callable(getattr(observer, "to_state", None))
        )

    def snapshot(self, path: Union[str, Path]) -> None:
        """Serialise the index to ``path`` (buckets + rows + families)."""
        with open(path, "wb") as handle:
            pickle.dump(self.to_state(), handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, path: Union[str, Path]) -> "MutableLSHIndex":
        """Revive an index from a :meth:`snapshot` file."""
        with open(path, "rb") as handle:
            state = pickle.load(handle)  # reprolint: disable=R005 - operator-supplied local snapshot file, same trust domain as the process
        return cls.from_state(state)

    def check_invariants(self) -> None:
        """Verify bookkeeping across all tables (tests / debugging aid)."""
        for table in self.tables:
            table.check_invariants()
            if table.num_vectors != self.size:
                raise AssertionError(
                    f"table holds {table.num_vectors} vectors, index holds {self.size}"
                )
        if len(self._rows) != self.size:
            raise AssertionError("row storage drifted from live-id bookkeeping")
        if set(self._rows) != set(self._live_position):
            raise AssertionError("row storage holds a different id set than the index")
        if not np.array_equal(self.ids, np.asarray(self._live_ids, dtype=np.int64)):
            raise AssertionError("cached live-id array drifted from the live list")
        self._rows.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MutableLSHIndex(n={self.size}, d={self.dimension}, "
            f"k={self.num_hashes}, tables={self.num_tables})"
        )


__all__ = [
    "BucketOrdinals",
    "MutableLSHTable",
    "MutableLSHIndex",
    "claim_vector_id",
    "coerce_row",
    "coerce_matrix",
    "signature_bucket_key",
    "freeze_bucket_layout",
    "frozen_ids",
    "collect_estimator_states",
    "restore_estimator_states",
]
