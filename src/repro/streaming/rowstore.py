"""Pooled CSR row storage for the mutable index (query-path fix).

:class:`~repro.streaming.mutable_index.MutableLSHIndex` originally kept
one 1×d ``csr_matrix`` object per vector and served ``cosine_pairs`` by
``sparse.vstack``-ing the sampled rows — thousands of single-row matrix
constructions per query, which made mutable-path queries several times
slower than the static path (ROADMAP, E13).

:class:`RowStore` replaces the per-row objects with two flat pools
(``data`` / ``indices``) that, together with an extent-pointer array,
form one valid CSR matrix at all times:

* **amortised appends** — an insert copies its ``nnz`` values to the
  pool tail (the pool doubles when full) and appends one *extent* (a
  row of the pool matrix); a batch insert copies the whole batch in one
  slice.  Extents stay contiguous in append order until a compaction
  rewrites the pool, so the pointer array is the pool's CSR ``indptr``;
* **vectorised gather** — a slot → extent column resolves ids to pool
  rows, and :meth:`segments` is *one* scipy row gather (``csr_row_index``
  in C, the same routine the static path's ``normalized_matrix[ids]``
  runs), no per-row Python work and no ``np.repeat`` position arrays;
* **lazy normalisation** — inverse L2 norms are computed in bulk for
  exactly the rows a cosine query touches for the first time and cached,
  so pure update bursts never pay for normalisation;
* **deferred compaction** — deletes only free the slot; the pool is
  rewritten once the dead fraction exceeds the live one.

Norms are segment sums in index order (``np.add.reduceat``), the same
accumulation order the static
:attr:`~repro.vectors.collection.VectorCollection.normalized_matrix`
uses, so cosine values served from the store are bit-identical to the
static query path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, cast

import numpy as np
from scipy import sparse

from repro.errors import ValidationError

_MIN_CAPACITY = 1024
_MIN_SLOTS = 64
_COMPACTION_FLOOR = 4096
#: pools past this many non-zeros need int64 extent pointers
_INT32_MAX = int(np.iinfo(np.int32).max)
#: Highest admissible vector id.  The id → slot map is a dense array (that
#: is what makes gathers fully vectorised), so ids far beyond the live row
#: count would translate directly into allocated memory; the cap turns a
#: runaway allocation into a validation error.  2^27 ids = 1 GiB of map.
_MAX_ID = 1 << 27


def new_id_column() -> np.ndarray:
    """An empty id-indexed int64 column (every id absent: ``-1``)."""
    return np.full(_MIN_SLOTS, -1, dtype=np.int64)


def grow_id_column(column: np.ndarray, vector_id: int) -> np.ndarray:
    """``column`` grown by doubling (new entries ``-1``) so it covers ``vector_id``.

    Every id-indexed column of the mutable read path (the row store's
    slot map, the tables' bucket ordinals, the sharded facade's shard
    and ordinal columns) shares this growth policy and the ``_MAX_ID``
    cap, so a runaway id is a validation error, never an allocation.
    Returns ``column`` itself when it already covers the id.
    """
    if vector_id < column.size:
        if vector_id < 0:
            raise ValidationError(f"vector ids must be >= 0, got {vector_id}")
        return column
    if vector_id >= _MAX_ID:
        raise ValidationError(
            f"vector id {vector_id} exceeds the supported id space "
            f"(< {_MAX_ID}); ids must stay dense-ish, they index the "
            "id columns directly"
        )
    grown = np.full(min(max(2 * column.size, vector_id + 1), _MAX_ID), -1, dtype=column.dtype)
    grown[: column.size] = column
    return grown


def lookup_id_column(
    column: np.ndarray, vector_ids: np.ndarray, where: str = "index"
) -> np.ndarray:
    """``column[vector_ids]`` for an id-indexed column where ``-1`` means absent.

    Raises :class:`~repro.errors.ValidationError` naming the first id
    that is negative, beyond the column, or absent — never a raw
    ``IndexError`` or a silently wrapped negative index.
    """
    ids = np.asarray(vector_ids, dtype=np.int64)
    values = column.take(ids, mode="clip")
    bad = (values < 0) | (ids < 0) | (ids >= column.size)
    if bad.any():
        missing = int(ids.flat[int(np.argmax(bad))])
        raise ValidationError(f"vector id {missing} is not in the {where}")
    return values


def csr_from_segments(
    data: np.ndarray, indices: np.ndarray, lengths: np.ndarray, dimension: int
) -> sparse.csr_matrix:
    """One CSR matrix whose row ``i`` holds the ``i``-th of the concatenated segments."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return sparse.csr_matrix((data, indices, indptr), shape=(lengths.size, dimension))


def csr_state(matrix: sparse.csr_matrix) -> Dict[str, object]:
    """A CSR matrix as snapshot fields: its dimension and three raw arrays."""
    return {"dimension": int(matrix.shape[1]), "data": matrix.data,
            "indices": matrix.indices, "indptr": matrix.indptr}


def csr_from_state(state: Mapping[str, object]) -> sparse.csr_matrix:
    """The CSR matrix of a :func:`csr_state` (extra keys are ignored)."""
    indptr = np.asarray(state["indptr"])
    return sparse.csr_matrix(
        (np.asarray(state["data"]), np.asarray(state["indices"]), indptr),
        shape=(indptr.size - 1, int(cast(int, state["dimension"]))),
    )


def stitch_segments(
    parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    num_rows: int,
    dimension: int,
) -> sparse.csr_matrix:
    """Merge per-store segments into one row-ordered CSR gather.

    Each part is ``(rows, data, indices, lengths)``: the output rows it
    fills and the segments :meth:`RowStore.segments` returned for them.
    The parts are concatenated once and permuted into row order with one
    scipy row gather, so rows carry exactly the values and order a
    per-part gather would — products over the result are bit-identical
    to stacking the parts and permuting the stacked rows back into place.
    """
    rows = np.concatenate([part[0] for part in parts])
    stacked = csr_from_segments(
        np.concatenate([part[1] for part in parts]),
        np.concatenate([part[2] for part in parts]),
        np.concatenate([part[3] for part in parts]),
        dimension,
    )
    source = np.empty(num_rows, dtype=np.int64)  # output row → concatenated segment
    source[rows] = np.arange(rows.size)
    return stacked[source]


def paired_rows_cosine(rows: sparse.csr_matrix, num_pairs: int) -> np.ndarray:
    """Cosines of rows ``i`` and ``num_pairs + i`` of one normalised gather.

    Lets a cosine query gather both sides in one pass (one id lookup,
    one round of per-store work) and split the result by slicing the
    CSR arrays, without a scipy row slice.
    """
    indptr, dimension = rows.indptr, rows.shape[1]
    cut = int(indptr[num_pairs])
    return pairwise_cosine(
        sparse.csr_matrix(
            (rows.data[:cut], rows.indices[:cut], indptr[: num_pairs + 1]),
            shape=(num_pairs, dimension),
        ),
        sparse.csr_matrix(
            (rows.data[cut:], rows.indices[cut:], indptr[num_pairs:] - cut),
            shape=(rows.shape[0] - num_pairs, dimension),
        ),
    )


def pairwise_cosine(rows_left: sparse.csr_matrix, rows_right: sparse.csr_matrix) -> np.ndarray:
    """Row-wise cosine of two aligned stacks of L2-normalised rows."""
    products = rows_left.multiply(rows_right).sum(axis=1)
    return np.clip(np.asarray(products).ravel(), -1.0, 1.0)


class RowStore:
    """Flat pooled storage of sparse rows keyed by non-negative vector id.

    Ids index a dense slot map, so they are expected to be dense-ish
    (sequentially assigned, never reused — the `MutableLSHIndex`
    contract); ids beyond ``_MAX_ID`` are rejected rather than allowed
    to size the map.
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self._data = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._indices = np.empty(_MIN_CAPACITY, dtype=np.int32)
        self._used = 0
        self._live_nnz = 0
        # the pool's CSR row pointer: extent e spans [ptr[e], ptr[e + 1])
        self._extent_ptr = np.zeros(_MIN_SLOTS + 1, dtype=np.int32)
        self._extent_count = 0
        self._pool_matrix: sparse.csr_matrix | None = None
        # id-indexed slot map (-1 = absent); slot-indexed extent rows and norms
        self._slot_of = new_id_column()
        self._id_of_slot = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._extent_of_slot = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._inv_norms = np.full(_MIN_SLOTS, np.nan, dtype=np.float64)
        self._slot_count = 0
        self._free_slots: List[int] = []

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._slot_count - len(self._free_slots)

    def __contains__(self, vector_id: int) -> bool:
        return 0 <= vector_id < self._slot_of.size and self._slot_of[vector_id] >= 0

    def ids(self) -> np.ndarray:
        """Live vector ids in increasing order."""
        return np.flatnonzero(self._slot_of >= 0)

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self.ids())

    def __getitem__(self, vector_id: int) -> sparse.csr_matrix:
        """Materialise one raw row as a fresh 1×d CSR matrix."""
        return self.gather_raw([vector_id])

    @property
    def nnz(self) -> int:
        """Total non-zeros across live rows."""
        return self._live_nnz

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _ensure_pool(self, extra: int, extents: int) -> None:
        self._pool_matrix = None
        needed_extents = self._extent_count + extents + 1
        if needed_extents > self._extent_ptr.size:
            grown = np.zeros(max(2 * self._extent_ptr.size, needed_extents), self._extent_ptr.dtype)
            grown[: self._extent_ptr.size] = self._extent_ptr
            self._extent_ptr = grown
        needed = self._used + extra
        if needed > _INT32_MAX:
            self._extent_ptr = self._extent_ptr.astype(np.int64, copy=False)
        if needed <= self._data.size:
            return
        capacity = max(self._data.size, _MIN_CAPACITY)
        while capacity < needed:
            capacity *= 2
        self._data = np.concatenate([self._data[: self._used],
                                     np.empty(capacity - self._used, dtype=np.float64)])
        self._indices = np.concatenate([self._indices[: self._used],
                                        np.empty(capacity - self._used, dtype=np.int32)])

    def _claim_slot(self, vector_id: int) -> int:
        self._slot_of = grow_id_column(self._slot_of, vector_id)
        if self._slot_of[vector_id] >= 0:
            raise ValidationError(f"vector id {vector_id} is already stored")
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._slot_count
            if slot >= self._id_of_slot.size:
                new_size = max(2 * self._id_of_slot.size, _MIN_SLOTS)
                for name in ("_id_of_slot", "_extent_of_slot", "_inv_norms"):
                    old = getattr(self, name)
                    fill = np.nan if old.dtype == np.float64 else -1
                    grown = np.full(new_size, fill, dtype=old.dtype)
                    grown[: old.size] = old
                    setattr(self, name, grown)
            self._slot_count += 1
        self._slot_of[vector_id] = slot
        self._id_of_slot[slot] = vector_id
        self._inv_norms[slot] = np.nan
        return slot

    def add(self, vector_id: int, row: sparse.csr_matrix) -> None:
        """Append one canonicalised 1×d CSR row under ``vector_id``."""
        nnz = int(row.nnz)
        self._ensure_pool(nnz, 1)
        slot = self._claim_slot(int(vector_id))
        start = self._used
        self._data[start : start + nnz] = row.data
        self._indices[start : start + nnz] = row.indices
        self._extent_of_slot[slot] = self._extent_count
        self._extent_count += 1
        self._extent_ptr[self._extent_count] = start + nnz
        self._used += nnz
        self._live_nnz += nnz

    def add_many(self, vector_ids: Sequence[int], matrix: sparse.csr_matrix) -> None:
        """Bulk-append the rows of ``matrix`` under the given ids.

        Ids are validated up front, so a bad batch raises without
        mutating the store (no phantom slots or extents).
        """
        if matrix.shape[0] != len(vector_ids):
            raise ValidationError(
                f"got {len(vector_ids)} ids for a matrix of {matrix.shape[0]} rows"
            )
        seen = set()
        for vector_id in vector_ids:
            vector_id = int(vector_id)
            if not 0 <= vector_id < _MAX_ID:
                raise ValidationError(
                    f"vector ids must lie in [0, {_MAX_ID}), got {vector_id}"
                )
            if vector_id in self or vector_id in seen:
                raise ValidationError(f"vector id {vector_id} is already stored")
            seen.add(vector_id)
        nnz = int(matrix.nnz)
        count = len(vector_ids)
        self._ensure_pool(nnz, count)
        start = self._used
        self._data[start : start + nnz] = matrix.data
        self._indices[start : start + nnz] = matrix.indices
        first = self._extent_count
        self._extent_ptr[first + 1 : first + count + 1] = start + matrix.indptr[1:]
        for position, vector_id in enumerate(vector_ids):
            slot = self._claim_slot(int(vector_id))
            self._extent_of_slot[slot] = first + position
        self._extent_count += count
        self._used += nnz
        self._live_nnz += nnz

    def remove(self, vector_id: int) -> None:
        """Drop a row; pool space is reclaimed lazily by compaction."""
        if vector_id not in self:
            raise ValidationError(f"vector id {vector_id} is not in the store")
        slot = int(self._slot_of[vector_id])
        extent = int(self._extent_of_slot[slot])
        self._slot_of[vector_id] = -1
        self._id_of_slot[slot] = -1
        self._extent_of_slot[slot] = -1
        self._free_slots.append(slot)
        self._live_nnz -= int(self._extent_ptr[extent + 1] - self._extent_ptr[extent])
        live = self._slot_count - len(self._free_slots)
        dead = self._used - self._live_nnz
        if dead > max(self._live_nnz, _COMPACTION_FLOOR) or self._extent_count - live > max(
            live, _COMPACTION_FLOOR
        ):
            self._compact()

    def _compact(self) -> None:
        """Rewrite the pools keeping only live rows, one extent each (slot order)."""
        live = np.flatnonzero(self._id_of_slot[: self._slot_count] >= 0)
        kept = self._gather(live)
        total = int(kept.nnz)
        spare = max(total, _MIN_CAPACITY) - total
        self._data = np.concatenate([kept.data, np.empty(spare, dtype=np.float64)])
        self._indices = np.concatenate([kept.indices, np.empty(spare, dtype=np.int32)])
        self._extent_ptr = np.concatenate(
            [kept.indptr, np.zeros(max(live.size, _MIN_SLOTS), dtype=kept.indptr.dtype)]
        )
        self._extent_of_slot[live] = np.arange(live.size)
        self._extent_count = int(live.size)
        self._pool_matrix = None
        self._used = total

    # ------------------------------------------------------------------
    # gathering
    # ------------------------------------------------------------------

    def _pool(self) -> sparse.csr_matrix:
        """The pool as a CSR matrix with one row per extent (cached until a write)."""
        pool = self._pool_matrix
        if pool is None:
            count, used = self._extent_count, self._used
            pool = sparse.csr_matrix(
                (self._data[:used], self._indices[:used], self._extent_ptr[: count + 1]),
                shape=(count, self.dimension),
            )
            self._pool_matrix = pool
        return pool

    def _slots(self, vector_ids: Sequence[int]) -> np.ndarray:
        return lookup_id_column(self._slot_of, np.asarray(vector_ids, dtype=np.int64).ravel())

    def _gather(self, slots: np.ndarray) -> sparse.csr_matrix:
        """The rows of ``slots`` as one fresh CSR matrix (one scipy row gather)."""
        if slots.size == 0:
            return sparse.csr_matrix((0, self.dimension))
        return self._pool()[self._extent_of_slot[slots]]

    def _fill_missing_norms(self, slots: np.ndarray) -> None:
        missing = slots[np.isnan(self._inv_norms[slots])]
        if missing.size == 0:
            return
        missing = np.unique(missing)
        rows = self._gather(missing)
        indptr = rows.indptr
        lengths = np.diff(indptr)
        squared = rows.data * rows.data
        sums = np.zeros(missing.size, dtype=np.float64)
        nonempty = lengths > 0
        if nonempty.any():
            sums[nonempty] = np.add.reduceat(squared, indptr[:-1][nonempty])
        norms = np.sqrt(sums)
        self._inv_norms[missing] = np.where(norms > 0.0, 1.0 / np.where(norms > 0.0, norms, 1.0), 1.0)

    def segments(
        self, vector_ids: Sequence[int], *, normalized: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, lengths)`` of the requested rows, concatenated in order.

        The CSR payload of a gather without the matrix: the sharded
        facade stitches the segments of every shard into one id-ordered
        matrix (:func:`stitch_segments`), and a worker ships them over
        the wire as plain arrays.
        """
        rows = self.gather_normalized(vector_ids) if normalized else self.gather_raw(vector_ids)
        return rows.data, rows.indices, np.diff(rows.indptr).astype(np.int64)

    def inv_norm(self, vector_id: int) -> float:
        """Cached ``1 / ‖row‖₂`` (1.0 for zero rows, as the old path had it)."""
        slots = self._slots([vector_id])
        self._fill_missing_norms(slots)
        return float(self._inv_norms[slots[0]])

    def gather_raw(self, vector_ids: Sequence[int]) -> sparse.csr_matrix:
        """The requested raw rows stacked into one fresh CSR matrix."""
        return self._gather(self._slots(vector_ids))

    def gather_normalized(self, vector_ids: Sequence[int]) -> sparse.csr_matrix:
        """The requested rows L2-normalised, stacked into one CSR matrix."""
        slots = self._slots(vector_ids)
        rows = self._gather(slots)
        self._fill_missing_norms(slots)
        rows.data *= np.repeat(self._inv_norms[slots], np.diff(rows.indptr))
        return rows

    # ------------------------------------------------------------------
    # serialisation (snapshot/restore substrate)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """A snapshot of the live rows: ids plus their CSR arrays (row ``i`` is ``ids[i]``)."""
        ids = self.ids()
        matrix = self.gather_raw(ids) if ids.size else sparse.csr_matrix((0, self.dimension))
        return {"ids": ids.tolist(), **csr_state(matrix)}

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "RowStore":
        store = cls(int(cast(int, state["dimension"])))
        ids = [int(i) for i in cast(Sequence[int], state["ids"])]
        if ids:
            store.add_many(ids, csr_from_state(state))
        return store

    def check_invariants(self) -> None:
        """Verify slot/extent bookkeeping (tests / debugging aid)."""
        live_slots = np.flatnonzero(self._id_of_slot[: self._slot_count] >= 0)
        if live_slots.size != len(self):
            raise AssertionError("slot freelist bookkeeping drifted")
        ids = self._id_of_slot[live_slots]
        if not np.array_equal(self._slot_of[ids], live_slots):
            raise AssertionError("id ↔ slot mapping drifted")
        pointers = self._extent_ptr[: self._extent_count + 1]
        if pointers[0] != 0 or int(pointers[-1]) != self._used or np.any(np.diff(pointers) < 0):
            raise AssertionError("extent pointers are not the pool's CSR row pointer")
        extents = self._extent_of_slot[live_slots]
        if live_slots.size and (int(extents.min()) < 0 or int(extents.max()) >= self._extent_count):
            raise AssertionError("slot → extent column out of range")
        if np.unique(extents).size != extents.size:
            raise AssertionError("two live slots share an extent")
        if int((pointers[extents + 1] - pointers[extents]).sum()) != self._live_nnz:
            raise AssertionError("live nnz bookkeeping drifted")
        free = self._id_of_slot[: self._slot_count] < 0
        if np.any(self._extent_of_slot[: self._slot_count][free] != -1):
            raise AssertionError("a free slot still owns an extent")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RowStore(rows={len(self)}, nnz={self._live_nnz}, "
            f"pool={self._used}/{self._data.size})"
        )


__all__ = [
    "RowStore",
    "csr_from_segments",
    "csr_from_state",
    "csr_state",
    "grow_id_column",
    "lookup_id_column",
    "new_id_column",
    "paired_rows_cosine",
    "pairwise_cosine",
    "stitch_segments",
]
