"""Benchmark inputs: the corpus, its exact join sizes and the churn streams.

Everything here is generated once and cached under ``perfbench/_cache``
(ignored by git), because it is expensive and never part of a metric
(times below: one core of a 2-vCPU Intel Xeon VM, Python 3.11):

* the DBLP-like corpus (``make_dblp_like``, n = 20 000) takes about
  40 s to generate, so it is built from a fixed corpus seed
  and shared by every workload seed (the seed still picks the LSH
  functions, the churn stream and every per-call estimate seed);
* its exact join sizes ``J(tau)`` (``exact_join_sizes``, about 3 s);
* one equal-share insert/delete churn stream per workload seed.

Cache keys include a digest of the library sources that produce each
input, so a changed generator or exact join never serves stale data.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np
from scipy import sparse

#: corpus size shared by every workload
NUM_VECTORS = 20_000
#: the corpus is seed-independent (see module docstring)
CORPUS_SEED = 0
#: estimates cycle through these thresholds
THRESHOLDS = (0.9, 0.8, 0.7, 0.5, 0.3)
#: churn events per stream: more than the fastest workload applies in a run
CHURN_LENGTH = 400_000
#: bump when the cached file layout changes
_FORMAT = 1

INSERT = 1
DELETE = 0


@dataclass(frozen=True)
class ChurnStream:
    """Equal-share insert/delete events over corpus rows.

    The bulk load gives corpus row ``i`` the vector id ``i``.  A delete
    removes a uniformly chosen live id; an insert re-adds a uniformly
    chosen corpus row that is not live (it gets the next sequential id),
    so the live set is always a set of distinct corpus rows and its size
    stays close to ``n``.
    """

    ops: np.ndarray  # INSERT / DELETE per event
    rows: np.ndarray  # the corpus row inserted or deleted
    ids: np.ndarray  # the vector id inserted (assigned) or deleted

    def __len__(self) -> int:
        return int(self.ops.size)


def _digest(root: Path, relative_paths: List[str]) -> str:
    hasher = hashlib.sha256(str(_FORMAT).encode())
    for relative in relative_paths:
        path = root / relative
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            hasher.update(file.relative_to(root).as_posix().encode())
            hasher.update(file.read_bytes())
    return hasher.hexdigest()[:16]


@contextlib.contextmanager
def _locked(cache: Path) -> Iterator[None]:
    """Serialise cache builds between benchmark processes."""
    cache.mkdir(parents=True, exist_ok=True)
    with open(cache / ".lock", "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _atomic_save(path: Path, save) -> None:
    temporary = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(temporary, "wb") as handle:
        save(handle)
    os.replace(temporary, path)


def load_corpus(root: Path, cache: Path) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """The corpus matrix and its exact join sizes at :data:`THRESHOLDS`."""
    import repro

    key = _digest(root, ["src/repro/datasets", "src/repro/vectors", "src/repro/rng.py"])
    corpus_path = cache / f"corpus-n{NUM_VECTORS}-s{CORPUS_SEED}-{key}.npz"
    truth_key = _digest(root, ["src/repro/join"])
    truth_path = cache / f"truth-{corpus_path.stem}-{truth_key}.npy"
    with _locked(cache):
        if not corpus_path.exists():
            corpus = repro.make_dblp_like(NUM_VECTORS, random_state=CORPUS_SEED)
            matrix = corpus.collection.matrix.tocsr()
            _atomic_save(corpus_path, lambda handle: sparse.save_npz(handle, matrix))
        matrix = sparse.load_npz(corpus_path).tocsr()
        if not truth_path.exists():
            truth = repro.exact_join_sizes(repro.VectorCollection(matrix), THRESHOLDS)
            _atomic_save(truth_path, lambda handle: np.save(handle, np.asarray(truth)))
        truth = np.load(truth_path)
    return matrix, truth.astype(np.int64)


def _make_churn(num_rows: int, seed: int, length: int) -> ChurnStream:
    rng = np.random.default_rng([seed, 0xC0FFEE])
    coin = rng.random(length)
    pick = rng.random(length)
    ops = np.empty(length, dtype=np.int8)
    rows = np.empty(length, dtype=np.int64)
    ids = np.empty(length, dtype=np.int64)
    live_ids = list(range(num_rows))
    row_of_id = list(range(num_rows))
    dead_rows: List[int] = []
    for step in range(length):
        if dead_rows and coin[step] < 0.5:
            slot = int(pick[step] * len(dead_rows))
            row = dead_rows[slot]
            dead_rows[slot] = dead_rows[-1]
            dead_rows.pop()
            vector_id = len(row_of_id)
            row_of_id.append(row)
            live_ids.append(vector_id)
            ops[step] = INSERT
        else:
            slot = int(pick[step] * len(live_ids))
            vector_id = live_ids[slot]
            live_ids[slot] = live_ids[-1]
            live_ids.pop()
            row = row_of_id[vector_id]
            dead_rows.append(row)
            ops[step] = DELETE
        rows[step] = row
        ids[step] = vector_id
    return ChurnStream(ops=ops, rows=rows, ids=ids)


def load_churn(cache: Path, seed: int) -> ChurnStream:
    """The churn stream of workload seed ``seed`` (cached per seed)."""
    path = cache / f"churn-n{NUM_VECTORS}-len{CHURN_LENGTH}-s{seed}-f{_FORMAT}.npz"
    with _locked(cache):
        if not path.exists():
            stream = _make_churn(NUM_VECTORS, seed, CHURN_LENGTH)
            _atomic_save(
                path,
                lambda handle: np.savez(handle, ops=stream.ops, rows=stream.rows, ids=stream.ids),
            )
        with np.load(path) as data:
            return ChurnStream(ops=data["ops"], rows=data["rows"], ids=data["ids"])


class ChurnTruth:
    """Exact ``J(tau)`` of the live set, updated incrementally per batch.

    The live set is always a set of distinct corpus rows, so the join
    size after a batch follows from the one before it: subtract the true
    pairs that touch the rows that left, add those that touch the rows
    that arrived.  Counting matches ``exact_join_sizes`` (similarities
    clipped at 1, the same 1e-12 tolerance).
    """

    _EPSILON = 1e-12

    def __init__(self, matrix: sparse.csr_matrix, initial: np.ndarray) -> None:
        import repro

        self._normalized = repro.VectorCollection(matrix).normalized_matrix
        self._transposed = self._normalized.T.tocsr()
        self._live = np.ones(matrix.shape[0], dtype=bool)
        self._thresholds = np.asarray(THRESHOLDS) - self._EPSILON
        self.current = np.asarray(initial, dtype=np.int64).copy()

    def _touching(self, rows: np.ndarray, live: np.ndarray) -> np.ndarray:
        """True pairs in ``live`` with at least one member in ``rows``."""
        counts = np.zeros(len(THRESHOLDS), dtype=np.int64)
        if rows.size == 0:
            return counts
        product = (self._normalized[rows] @ self._transposed).tocoo()
        own = rows[product.row]
        keep = live[product.col] & (product.col != own)
        columns = product.col[keep]
        values = np.minimum(product.data[keep], 1.0)
        inside = np.isin(columns, rows)
        for index, threshold in enumerate(self._thresholds):
            hit = values >= threshold
            # a pair inside ``rows`` shows up once from each member
            counts[index] = int(hit.sum()) - int((hit & inside).sum()) // 2
        return counts

    def advance(self, stream: ChurnStream, start: int, stop: int) -> np.ndarray:
        """Apply events ``[start, stop)``; returns ``J(tau)`` afterwards."""
        before = self._live.copy()
        ops = stream.ops[start:stop]
        rows = stream.rows[start:stop]
        # the last event on a row decides whether it ends the batch live
        last_rows, last_positions = np.unique(rows[::-1], return_index=True)
        self._live[last_rows] = ops[::-1][last_positions] == INSERT
        left = np.flatnonzero(before & ~self._live)
        arrived = np.flatnonzero(~before & self._live)
        self.current = (
            self.current - self._touching(left, before) + self._touching(arrived, self._live)
        )
        return self.current.copy()

    @property
    def live_rows(self) -> np.ndarray:
        return np.flatnonzero(self._live)
