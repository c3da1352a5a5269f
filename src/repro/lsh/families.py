"""LSH hash-function families.

Definition 3 of the paper idealises an LSH family as one where
``P(h(u) = h(v)) = sim(u, v)``.  Concrete families satisfy this for
*their* similarity measure:

* :class:`MinHashFamily` — exactly ``P = Jaccard(A, B)`` (Broder).
* :class:`SignRandomProjectionFamily` — ``P = 1 − θ(u, v)/π`` (Charikar),
  i.e. the property holds for the *angular* similarity, a monotone
  transform of cosine similarity.  The analytical estimators account for
  this via :func:`repro.vectors.similarity.cosine_to_angular_collision`.
* :class:`PStableL2Family` — the Datar et al. p-stable family for L2
  distance, provided as an extension point (the paper notes LSH families
  exist for several measures).

Each family knows how to hash an entire :class:`VectorCollection` into an
``(n, k)`` integer signature matrix, and exposes the collision-probability
curve ``P(h(u)=h(v))`` as a function of the underlying similarity, which
the analysis module uses for the f(s) = s^k reasoning of Figure 1.

Hashing is implemented once per family over a raw CSR matrix
(:meth:`LSHFamily.hash_matrix`); the batch path
(:meth:`LSHFamily.hash_collection`) and the streaming per-vector path
(:class:`repro.streaming.MutableLSHIndex`) both delegate to it, so a
vector inserted incrementally receives exactly the signature it would
have received in a build-once batch hash.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np
from scipy import sparse, stats

from repro.errors import ValidationError
from repro.rng import RandomState, ensure_rng, generator_from_state, generator_state
from repro.vectors.collection import VectorCollection

_MERSENNE_PRIME = (1 << 61) - 1
_MASK_30 = np.uint64((1 << 30) - 1)
_MASK_31 = np.uint64((1 << 31) - 1)
_PRIME_U64 = np.uint64(_MERSENNE_PRIME)
#: elements per ``(nnz × k)`` hash block — bounds temporary memory to a few MB
_MINHASH_BLOCK_ELEMENTS = 1 << 20


def _minhash_block(
    support: np.ndarray, a_hi: np.ndarray, a_lo: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """``(a·x + b) mod (2^61 − 1)`` for a block of support indices, vectorised.

    A plain ``a * x`` overflows 64 bits (``a < 2^61``, ``x < 2^31``), so the
    multiplier is split into 31-bit limbs: with ``a = a_hi·2³¹ + a_lo``,

    ``a·x ≡ a_lo·x + (t_hi + t_lo·2³¹)  (mod p)``

    where ``t = a_hi·x = t_hi·2³⁰ + t_lo`` and ``2⁶¹ ≡ 1 (mod p)`` folds the
    high limb back down.  Every intermediate fits in ``uint64``; the final
    Mersenne fold yields the canonical residue, so the result is bit-identical
    to exact (object-dtype) arithmetic.
    """
    x = support.astype(np.uint64)[:, None]
    term_lo = a_lo[None, :] * x                      # < 2^62
    t = a_hi[None, :] * x                            # < 2^61
    total = term_lo + (t >> np.uint64(30)) + ((t & _MASK_30) << np.uint64(31)) + b[None, :]
    total = (total & _PRIME_U64) + (total >> np.uint64(61))
    return np.where(total >= _PRIME_U64, total - _PRIME_U64, total).astype(np.int64)


class LSHFamily(abc.ABC):
    """Abstract base class for LSH hash-function families.

    A family instance represents ``k`` concrete hash functions
    ``g = (h_1, …, h_k)`` drawn from the family, i.e. exactly the ``g``
    used to build one LSH table.

    Parameters
    ----------
    num_hashes:
        The number of hash functions ``k`` concatenated into ``g``.
    random_state:
        Seed or generator controlling the random draws of the functions.
    """

    #: Name of the similarity measure the family is locality sensitive for.
    similarity: str = "abstract"

    def __init__(self, num_hashes: int, *, random_state: RandomState = None):
        if num_hashes < 1:
            raise ValidationError(f"num_hashes (k) must be >= 1, got {num_hashes}")
        self.num_hashes = int(num_hashes)
        self._rng = ensure_rng(random_state)
        self._initialised_dimension: Optional[int] = None
        #: generator position just before the parameters were drawn
        self._rng_state: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _initialise(self, dimension: int) -> None:
        """Draw the random parameters of the ``k`` hash functions."""

    @abc.abstractmethod
    def _hash_matrix(self, matrix: sparse.csr_matrix) -> np.ndarray:
        """Return the ``(rows, k)`` integer signature matrix for a CSR matrix."""

    @abc.abstractmethod
    def collision_probability(self, similarity: np.ndarray) -> np.ndarray:
        """Per-hash collision probability as a function of the native similarity."""

    # ------------------------------------------------------------------
    def ensure_initialised(self, dimension: int) -> None:
        """Bind the family to ``dimension``, drawing parameters on first use.

        The family lazily initialises its random parameters for the first
        dimensionality it sees and then requires every subsequent input to
        share that dimensionality, so the same ``g`` can hash both sides
        of a general (non-self) join, or a stream of vectors arriving one
        at a time.
        """
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        if self._initialised_dimension is None:
            self._rng_state = generator_state(self._rng)
            self._initialise(int(dimension))
            self._initialised_dimension = int(dimension)
        elif self._initialised_dimension != dimension:
            raise ValidationError(
                "this family was initialised for dimension "
                f"{self._initialised_dimension}, got input of dimension "
                f"{dimension}"
            )

    def hash_matrix(self, matrix: Union[sparse.spmatrix, np.ndarray]) -> np.ndarray:
        """Hash the rows of a raw ``(rows, d)`` matrix into signatures.

        This is the single implementation point shared by the batch path
        (:meth:`hash_collection`) and the streaming per-vector path
        (:class:`repro.streaming.MutableLSHIndex`), guaranteeing that
        incremental and build-once signatures are identical.
        """
        if not sparse.issparse(matrix):
            matrix = sparse.csr_matrix(np.atleast_2d(np.asarray(matrix, dtype=np.float64)))
        csr = matrix.tocsr()
        if csr.data.size and not np.all(csr.data):
            # explicitly stored zeros would leak into support-based families
            # (MinHash); canonicalise on a copy so the caller's matrix is
            # never mutated
            csr = csr.copy()
            csr.eliminate_zeros()
        self.ensure_initialised(csr.shape[1])
        signatures = self._hash_matrix(csr)
        if signatures.shape != (csr.shape[0], self.num_hashes):
            raise ValidationError(
                "family produced a signature matrix of shape "
                f"{signatures.shape}, expected {(csr.shape[0], self.num_hashes)}"
            )
        return signatures

    def hash_collection(self, collection: VectorCollection) -> np.ndarray:
        """Hash every vector of ``collection``; returns an ``(n, k)`` int array."""
        return self.hash_matrix(collection.matrix)

    def bucket_collision_probability(self, similarity: np.ndarray) -> np.ndarray:
        """Probability that ``g(u) = g(v)``, i.e. all ``k`` hashes collide."""
        return self.collision_probability(similarity) ** self.num_hashes

    # ------------------------------------------------------------------
    #: constructor keyword arguments a snapshot carries, beyond ``num_hashes``
    _PARAMS: Tuple[str, ...] = ()

    def to_state(self) -> Dict[str, Any]:
        """A plain checkpoint holding the generator state from just before the
        parameters were drawn (not the parameters): :meth:`from_state` replays
        the draw bit for bit.  Only the three shipped families qualify."""
        if _FAMILY_KINDS.get(self.similarity) is not type(self):
            raise ValidationError(f"{type(self).__name__} is not a snapshottable LSH family")
        bound = self._initialised_dimension is not None
        return {
            "kind": "lsh-family",
            "family": self.similarity,
            "num_hashes": self.num_hashes,
            "dimension": self._initialised_dimension,
            "rng": self._rng_state if bound else generator_state(self._rng),
            "params": {name: getattr(self, name) for name in self._PARAMS},
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "LSHFamily":
        """Rebuild a family from :meth:`to_state` output."""
        found = _FAMILY_KINDS.get(str(state.get("family")))
        if state.get("kind") != "lsh-family" or not (found and issubclass(found, cls)):
            raise ValidationError(f"not a {cls.__name__} state: family {state.get('family')!r}")
        try:
            rng = generator_from_state(dict(state["rng"]))
            family = found(int(state["num_hashes"]), random_state=rng, **dict(state["params"]))
        except TypeError as error:
            raise ValidationError(f"bad LSH family parameters: {error}") from error
        if state["dimension"] is not None:
            family.ensure_initialised(int(state["dimension"]))
        return family

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(k={self.num_hashes}, similarity={self.similarity!r})"


class SignRandomProjectionFamily(LSHFamily):
    """Charikar's hyperplane (SimHash) family for cosine similarity.

    Each hash function ``h_r(u) = sign(r · u)`` with ``r`` a random
    Gaussian vector.  Collision probability is ``1 − θ(u, v)/π`` where
    ``θ`` is the angle between the vectors.
    """

    similarity = "cosine"

    def __init__(self, num_hashes: int, *, random_state: RandomState = None):
        super().__init__(num_hashes, random_state=random_state)
        self._projections: Optional[np.ndarray] = None

    def _initialise(self, dimension: int) -> None:
        self._projections = self._rng.standard_normal((dimension, self.num_hashes))

    def _hash_matrix(self, matrix: sparse.csr_matrix) -> np.ndarray:
        assert self._projections is not None
        projected = np.asarray(matrix @ self._projections)
        return (projected > 0.0).astype(np.int64)

    def collision_probability(self, similarity: np.ndarray) -> np.ndarray:
        clipped = np.clip(similarity, -1.0, 1.0)
        return 1.0 - np.arccos(clipped) / np.pi


class MinHashFamily(LSHFamily):
    """Broder's MinHash family for Jaccard similarity over vector supports.

    Vectors are interpreted as the set of their non-zero dimensions; each
    hash function applies a random linear permutation-hash
    ``π_i(x) = (a_i · x + b_i) mod p`` and keeps the minimum over the set.
    ``P(h(A) = h(B)) = Jaccard(A, B)`` exactly.
    """

    similarity = "jaccard"

    def __init__(self, num_hashes: int, *, random_state: RandomState = None):
        super().__init__(num_hashes, random_state=random_state)
        self._coefficients_a: Optional[np.ndarray] = None
        self._coefficients_b: Optional[np.ndarray] = None

    def _initialise(self, dimension: int) -> None:
        self._coefficients_a = self._rng.integers(
            1, _MERSENNE_PRIME, size=self.num_hashes, dtype=np.int64
        )
        self._coefficients_b = self._rng.integers(
            0, _MERSENNE_PRIME, size=self.num_hashes, dtype=np.int64
        )

    def _hash_matrix(self, matrix: sparse.csr_matrix) -> np.ndarray:
        assert self._coefficients_a is not None and self._coefficients_b is not None
        num_rows = matrix.shape[0]
        if matrix.shape[1] >= (1 << 31):
            raise ValidationError(
                "MinHashFamily supports dimensions below 2^31, got "
                f"{matrix.shape[1]}"
            )
        signatures = np.full(
            (num_rows, self.num_hashes), _MERSENNE_PRIME, dtype=np.int64
        )
        indptr, indices = matrix.indptr, matrix.indices
        if indices.size == 0:
            return signatures
        a = self._coefficients_a.astype(np.uint64)
        a_hi, a_lo = a >> np.uint64(31), a & _MASK_31
        b = self._coefficients_b.astype(np.uint64)
        # Hash in row-aligned blocks so the (block_nnz × k) temporary stays
        # bounded; per-row minima come from one reduceat per block (rows with
        # empty support keep the sentinel, so segment boundaries stay exact).
        budget = max(1, _MINHASH_BLOCK_ELEMENTS // self.num_hashes)
        start_row = 0
        while start_row < num_rows:
            end_row = int(np.searchsorted(indptr, int(indptr[start_row]) + budget, side="right")) - 1
            end_row = min(max(end_row, start_row + 1), num_rows)
            block = indices[indptr[start_row] : indptr[end_row]]
            if block.size:
                hashed = _minhash_block(block, a_hi, a_lo, b)
                lengths = np.diff(indptr[start_row : end_row + 1])
                occupied = np.flatnonzero(lengths > 0)
                segment_starts = (indptr[start_row + occupied] - indptr[start_row]).astype(np.int64)
                signatures[start_row + occupied] = np.minimum.reduceat(
                    hashed, segment_starts, axis=0
                )
            start_row = end_row
        return signatures

    def collision_probability(self, similarity: np.ndarray) -> np.ndarray:
        return np.clip(similarity, 0.0, 1.0)


class PStableL2Family(LSHFamily):
    """Datar et al. p-stable family for Euclidean (L2) distance.

    ``h(v) = floor((a · v + b) / w)`` with Gaussian ``a`` and uniform
    ``b ∈ [0, w)``.  Included as the extension point the paper mentions
    ("LSH families have been developed for several (dis)similarity
    measures including … ℓ_p distance"); the collision probability is a
    function of the L2 *distance* rather than a similarity in [0, 1].
    """

    similarity = "euclidean"
    _PARAMS = ("bucket_width",)

    def __init__(
        self,
        num_hashes: int,
        *,
        bucket_width: float = 4.0,
        random_state: RandomState = None,
    ):
        super().__init__(num_hashes, random_state=random_state)
        if bucket_width <= 0:
            raise ValidationError(f"bucket_width must be positive, got {bucket_width}")
        self.bucket_width = float(bucket_width)
        self._projections: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None

    def _initialise(self, dimension: int) -> None:
        self._projections = self._rng.standard_normal((dimension, self.num_hashes))
        self._offsets = self._rng.uniform(0.0, self.bucket_width, size=self.num_hashes)

    def _hash_matrix(self, matrix: sparse.csr_matrix) -> np.ndarray:
        assert self._projections is not None and self._offsets is not None
        projected = np.asarray(matrix @ self._projections)
        return np.floor((projected + self._offsets[None, :]) / self.bucket_width).astype(np.int64)

    def collision_probability(self, distance: np.ndarray) -> np.ndarray:
        """Collision probability as a function of L2 *distance* ``c``.

        ``p(c) = 1 − 2·Φ(−w/c) − (2c / (√(2π) w)) (1 − exp(−w² / 2c²))``.
        ``p(0)`` is defined as 1.
        """
        distance_array = np.asarray(distance, dtype=np.float64)
        width = self.bucket_width
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = width / distance_array
            term_normal = 1.0 - 2.0 * stats.norm.cdf(-ratio)
            term_density = (
                2.0
                * distance_array
                / (np.sqrt(2.0 * np.pi) * width)
                * (1.0 - np.exp(-(ratio**2) / 2.0))
            )
            probability = term_normal - term_density
        probability = np.where(distance_array <= 0.0, 1.0, probability)
        result = np.clip(probability, 0.0, 1.0)
        if np.isscalar(distance):
            return float(result)
        return result


#: The checkpointable families, by similarity measure.
_FAMILY_KINDS = {cls.similarity: cls for cls in (SignRandomProjectionFamily, MinHashFamily,
                                                 PStableL2Family)}

__all__ = [
    "LSHFamily",
    "SignRandomProjectionFamily",
    "MinHashFamily",
    "PStableL2Family",
]
