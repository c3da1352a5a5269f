"""Pooled CSR row storage for the mutable index (query-path fix).

:class:`~repro.streaming.mutable_index.MutableLSHIndex` originally kept
one 1×d ``csr_matrix`` object per vector and served ``cosine_pairs`` by
``sparse.vstack``-ing the sampled rows — thousands of single-row matrix
constructions per query, which made mutable-path queries several times
slower than the static path (ROADMAP, E13).

:class:`RowStore` replaces the per-row objects with two flat pools
(``data`` / ``indices``) plus slot-indexed extent arrays:

* **amortised appends** — an insert copies its ``nnz`` values to the
  pool tail (the pool doubles when full); a batch insert copies the
  whole batch in one slice;
* **vectorised gather** — :meth:`gather_normalized` materialises the
  sampled rows as *one* CSR matrix; the id → slot → extent resolution is
  pure ``numpy`` fancy indexing, no per-row Python work;
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


def stitch_segments(
    parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]], num_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-store segments into the segments of one row-ordered gather.

    Each part is ``(rows, data, indices, lengths)``: the output rows it
    fills and the segments :meth:`RowStore.segments` returned for them.
    The parts are concatenated once and permuted into row order with one
    vectorised position map, so rows carry exactly the values and order
    a per-part gather would — products over the result are bit-identical
    to stacking the parts and permuting the stacked rows back into place.
    """
    rows = np.concatenate([part[0] for part in parts])
    data = np.concatenate([part[1] for part in parts])
    indices = np.concatenate([part[2] for part in parts])
    part_lengths = np.concatenate([part[3] for part in parts])
    part_starts = np.zeros(rows.size, dtype=np.int64)
    np.cumsum(part_lengths[:-1], out=part_starts[1:])
    source = np.empty(num_rows, dtype=np.int64)  # output row → concatenated segment
    source[rows] = np.arange(rows.size)
    lengths = part_lengths[source]
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    positions = _segment_positions(part_starts[source], lengths, indptr)
    return data[positions], indices[positions], lengths


def paired_rows_cosine(
    segments: Tuple[np.ndarray, np.ndarray, np.ndarray], num_pairs: int, dimension: int
) -> np.ndarray:
    """Cosines of rows ``i`` and ``num_pairs + i`` of one normalised segment gather.

    Lets a cosine query gather both sides in one pass (one id lookup,
    one round of per-store work) and split the result without a scipy
    row slice.
    """
    data, indices, lengths = segments
    cut = int(lengths[:num_pairs].sum())
    return pairwise_cosine(
        csr_from_segments(data[:cut], indices[:cut], lengths[:num_pairs], dimension),
        csr_from_segments(data[cut:], indices[cut:], lengths[num_pairs:], dimension),
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
        # id-indexed slot map (-1 = absent); slot-indexed extents and norms
        self._slot_of = new_id_column()
        self._id_of_slot = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._starts = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self._lengths = np.zeros(_MIN_SLOTS, dtype=np.int64)
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
    def _ensure_pool(self, extra: int) -> None:
        needed = self._used + extra
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
            if slot >= self._starts.size:
                new_size = max(2 * self._starts.size, _MIN_SLOTS)
                for name in ("_id_of_slot", "_starts", "_lengths", "_inv_norms"):
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
        self._ensure_pool(nnz)
        slot = self._claim_slot(int(vector_id))
        start = self._used
        self._data[start : start + nnz] = row.data
        self._indices[start : start + nnz] = row.indices
        self._starts[slot] = start
        self._lengths[slot] = nnz
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
        self._ensure_pool(nnz)
        start = self._used
        self._data[start : start + nnz] = matrix.data
        self._indices[start : start + nnz] = matrix.indices
        indptr = matrix.indptr
        for position, vector_id in enumerate(vector_ids):
            slot = self._claim_slot(int(vector_id))
            self._starts[slot] = start + int(indptr[position])
            self._lengths[slot] = int(indptr[position + 1] - indptr[position])
        self._used += nnz
        self._live_nnz += nnz

    def remove(self, vector_id: int) -> None:
        """Drop a row; pool space is reclaimed lazily by compaction."""
        if vector_id not in self:
            raise ValidationError(f"vector id {vector_id} is not in the store")
        slot = int(self._slot_of[vector_id])
        self._slot_of[vector_id] = -1
        self._id_of_slot[slot] = -1
        self._free_slots.append(slot)
        self._live_nnz -= int(self._lengths[slot])
        dead = self._used - self._live_nnz
        if dead > max(self._live_nnz, _COMPACTION_FLOOR):
            self._compact()

    def _compact(self) -> None:
        """Rewrite the pools keeping only live rows (slot order)."""
        live = np.flatnonzero(self._id_of_slot[: self._slot_count] >= 0)
        lengths = self._lengths[live]
        new_starts = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_starts[1:])
        total = int(new_starts[-1])
        positions = _segment_positions(self._starts[live], lengths, new_starts)
        self._data = np.concatenate(
            [self._data[positions], np.empty(max(total, _MIN_CAPACITY) - total, dtype=np.float64)]
        )
        self._indices = np.concatenate(
            [self._indices[positions], np.empty(max(total, _MIN_CAPACITY) - total, dtype=np.int32)]
        )
        self._starts[live] = new_starts[:-1]
        self._used = total

    # ------------------------------------------------------------------
    # gathering
    # ------------------------------------------------------------------

    def _fill_missing_norms(self, slots: np.ndarray) -> None:
        missing = slots[np.isnan(self._inv_norms[slots])]
        if missing.size == 0:
            return
        missing = np.unique(missing)
        lengths = self._lengths[missing]
        indptr = np.zeros(missing.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        positions = _segment_positions(self._starts[missing], lengths, indptr)
        values = self._data[positions]
        squared = values * values
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
        facade scatters the segments of every shard straight into one
        id-ordered matrix (:func:`stitch_segments`), and a worker ships
        them over the wire as plain arrays.
        """
        ids = np.asarray(vector_ids, dtype=np.int64).ravel()
        slots = lookup_id_column(self._slot_of, ids)
        lengths = self._lengths[slots]
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        positions = _segment_positions(self._starts[slots], lengths, indptr)
        data = self._data[positions]
        if normalized:
            self._fill_missing_norms(slots)
            data *= np.repeat(self._inv_norms[slots], lengths)
        return data, self._indices[positions], lengths

    def inv_norm(self, vector_id: int) -> float:
        """Cached ``1 / ‖row‖₂`` (1.0 for zero rows, as the old path had it)."""
        slots = lookup_id_column(self._slot_of, np.asarray([vector_id], dtype=np.int64))
        self._fill_missing_norms(slots)
        return float(self._inv_norms[slots[0]])

    def gather_raw(self, vector_ids: Sequence[int]) -> sparse.csr_matrix:
        """The requested raw rows stacked into one fresh CSR matrix."""
        return csr_from_segments(*self.segments(vector_ids, normalized=False), self.dimension)

    def gather_normalized(self, vector_ids: Sequence[int]) -> sparse.csr_matrix:
        """The requested rows L2-normalised, stacked into one CSR matrix."""
        return csr_from_segments(*self.segments(vector_ids, normalized=True), self.dimension)

    # ------------------------------------------------------------------
    # serialisation (snapshot/restore substrate)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """A picklable snapshot of the live rows (ids + one CSR matrix)."""
        ids = self.ids()
        matrix = self.gather_raw(ids) if ids.size else sparse.csr_matrix((0, self.dimension))
        return {"dimension": self.dimension, "ids": ids.tolist(), "matrix": matrix}  # reprolint: disable=R013 - scipy CSR rows; becomes raw numpy buffer frames in the wire-format migration (ROADMAP)

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "RowStore":
        store = cls(int(state["dimension"]))
        ids = cast(List[int], state["ids"])
        if ids:
            store.add_many(ids, cast(sparse.spmatrix, state["matrix"]).tocsr())
        return store

    def check_invariants(self) -> None:
        """Verify slot/extent bookkeeping (tests / debugging aid)."""
        live_slots = np.flatnonzero(self._id_of_slot[: self._slot_count] >= 0)
        if live_slots.size != len(self):
            raise AssertionError("slot freelist bookkeeping drifted")
        ids = self._id_of_slot[live_slots]
        if not np.array_equal(self._slot_of[ids], live_slots):
            raise AssertionError("id ↔ slot mapping drifted")
        if int(self._lengths[live_slots].sum()) != self._live_nnz:
            raise AssertionError("live nnz bookkeeping drifted")
        ends = self._starts[live_slots] + self._lengths[live_slots]
        if live_slots.size and (int(ends.max()) > self._used or int(self._starts[live_slots].min()) < 0):
            raise AssertionError("row extents out of pool bounds")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RowStore(rows={len(self)}, nnz={self._live_nnz}, "
            f"pool={self._used}/{self._data.size})"
        )


def _segment_positions(
    starts: np.ndarray, lengths: np.ndarray, indptr: np.ndarray
) -> np.ndarray:
    """Pool positions for concatenated segments, fully vectorised.

    ``indptr`` must be the cumulative-sum prefix of ``lengths``; position
    ``i`` of the output addresses element ``i − indptr[j] + starts[j]``
    of the pool for the segment ``j`` containing ``i``.
    """
    positions = np.repeat(starts - indptr[:-1], lengths)
    positions += np.arange(positions.size, dtype=np.int64)
    return positions


__all__ = [
    "RowStore",
    "csr_from_segments",
    "grow_id_column",
    "lookup_id_column",
    "new_id_column",
    "paired_rows_cosine",
    "pairwise_cosine",
    "stitch_segments",
]
