"""Lipton-style adaptive sampling (the SampleL subroutine).

Adaptive sampling [Lipton, Naughton, Schneider 1990] terminates when the
*answer* accumulated from the sample reaches a threshold ``δ`` rather
than when a fixed number of samples has been drawn.  LSH-SS runs this
procedure in stratum L: if ``δ`` true pairs are found within the budget
``m_L`` the scaled-up estimate is reliable; otherwise the procedure falls
back to a safe lower bound (optionally dampened).

The implementation is generic over a *pair source* so that the same code
serves the single-table estimator, the virtual-bucket estimator and the
general (non-self) join estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.errors import ReproError, ValidationError
from repro.rng import RandomState, ensure_rng

PairBatchSource = Callable[[int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]
"""Callable returning ``(left, right)`` index arrays of a requested size."""

SimilarityEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""Callable mapping ``(left, right)`` index arrays to similarity values."""


@dataclass(frozen=True)
class AdaptiveSampleResult:
    """Outcome of one adaptive-sampling run.

    Attributes
    ----------
    true_count:
        Number of sampled pairs satisfying the threshold (``n_L``).
    samples_taken:
        Number of pairs examined (``i``).
    reached_answer_threshold:
        ``True`` when the run terminated because ``true_count ≥ δ``
        (the reliable case); ``False`` when the sample budget ran out.
    answer_threshold:
        The ``δ`` used.
    max_samples:
        The budget ``m_L`` used.
    """

    true_count: int
    samples_taken: int
    reached_answer_threshold: bool
    answer_threshold: int
    max_samples: int

    def estimate(self, population_size: int, *, dampening: float | None = None) -> float:
        """Turn the run into a join-size estimate for a ``population_size`` stratum.

        * Reliable case (``reached_answer_threshold``): scale up by
          ``population / samples_taken`` (Theorem 2.1/2.2 of adaptive
          sampling provide the error bounds).
        * Unreliable case: return the safe lower bound ``true_count``, or
          the dampened scale-up ``true_count · c_s · population / max_samples``
          when a dampening factor ``0 < c_s ≤ 1`` is supplied (§5.1.2).
        """
        if self.reached_answer_threshold:
            return self.true_count * (population_size / max(self.samples_taken, 1))
        if dampening is None:
            return float(self.true_count)
        if not 0.0 < dampening <= 1.0:
            raise ValidationError(f"dampening factor must be in (0, 1], got {dampening}")
        return self.true_count * dampening * (population_size / max(self.max_samples, 1))


def adaptive_sample(
    pair_source: PairBatchSource,
    similarity_evaluator: SimilarityEvaluator,
    threshold: float,
    *,
    answer_threshold: int,
    max_samples: int,
    batch_size: int | None = None,
    random_state: RandomState = None,
) -> AdaptiveSampleResult:
    """Run adaptive sampling until ``δ`` true pairs are seen or the budget is spent.

    Parameters
    ----------
    pair_source:
        Callable ``(batch_size, rng) -> (left, right)`` producing uniform
        pairs from the target stratum.
    similarity_evaluator:
        Callable mapping index arrays to similarity values.
    threshold:
        The similarity threshold ``τ``.
    answer_threshold:
        ``δ`` — stop as soon as this many true pairs have been found.
    max_samples:
        ``m_L`` — the maximum number of pairs to examine.
    batch_size:
        Draw granularity: ``pair_source`` is called once per batch of
        ``batch_size`` pairs (the last batch is cut to the remaining
        budget), so the generator stream is that of a batch-at-a-time
        loop.  Evaluation is grouped: the draws of 1, 2, 4, … batches
        are concatenated and passed to ``similarity_evaluator`` in one
        call, which cuts a budget of ``B`` batches to at most
        ``⌈log2(B + 1)⌉`` evaluator calls.  The sample index at which the
        ``δ``-th true pair appeared is recovered within the group, and
        the generator is rewound to its state right after the batch that
        holds it, so results and the generator's final state are exactly
        those of drawing (and evaluating) the pairs one batch at a time.
        Pairs drawn after that batch are evaluated but never counted.
        A draw that raises a :class:`~repro.errors.ReproError` (say, a
        stratum too small to sample) first has the batches drawn before
        it evaluated, so it propagates only where a batch-at-a-time loop
        would have reached it.
    random_state:
        Seed or generator.
    """
    if answer_threshold < 1:
        raise ValidationError(f"answer_threshold (δ) must be >= 1, got {answer_threshold}")
    if max_samples < 1:
        raise ValidationError(f"max_samples (m_L) must be >= 1, got {max_samples}")
    rng = ensure_rng(random_state)
    if batch_size is None:
        batch_size = int(min(max_samples, max(256, 8 * answer_threshold)))
    samples_taken = 0
    true_count = 0
    group_batches = 1
    while samples_taken < max_samples and true_count < answer_threshold:
        lefts, rights, states = [], [], []
        failure: ReproError | None = None
        drawn = samples_taken
        while len(lefts) < group_batches and drawn < max_samples:
            try:
                left, right = pair_source(int(min(batch_size, max_samples - drawn)), rng)
            except ReproError as error:
                if not lefts:
                    raise
                # a batch-at-a-time loop would evaluate the batches drawn
                # so far before this draw, and may stop before it
                failure = error
                break
            lefts.append(np.asarray(left))
            rights.append(np.asarray(right))
            states.append(rng.bit_generator.state)
            drawn += lefts[-1].size
        batch_ends = np.cumsum([left.size for left in lefts])
        similarities = similarity_evaluator(np.concatenate(lefts), np.concatenate(rights))
        is_true = np.asarray(similarities) >= threshold
        cumulative = np.cumsum(is_true.astype(np.int64)) + true_count
        hit = np.flatnonzero(cumulative >= answer_threshold)
        if hit.size > 0:
            # The δ-th true pair appeared at position hit[0] within this
            # group; only the samples up to and including it count toward
            # i, and the batches drawn after its own are handed back.
            batch = int(np.searchsorted(batch_ends, hit[0], side="right"))
            rng.bit_generator.state = states[batch]
            samples_taken += int(hit[0]) + 1
            true_count = int(cumulative[hit[0]])
            return AdaptiveSampleResult(
                true_count=true_count,
                samples_taken=samples_taken,
                reached_answer_threshold=True,
                answer_threshold=answer_threshold,
                max_samples=max_samples,
            )
        if failure is not None:
            raise failure
        samples_taken += int(is_true.size)
        true_count = int(cumulative[-1]) if is_true.size else true_count
        group_batches *= 2
    return AdaptiveSampleResult(
        true_count=true_count,
        samples_taken=samples_taken,
        reached_answer_threshold=true_count >= answer_threshold,
        answer_threshold=answer_threshold,
        max_samples=max_samples,
    )


__all__ = ["AdaptiveSampleResult", "adaptive_sample", "PairBatchSource", "SimilarityEvaluator"]
