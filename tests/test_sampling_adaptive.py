"""Tests for Lipton-style adaptive sampling (the SampleL subroutine)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientSampleError, ValidationError
from repro.sampling import AdaptiveSampleResult, adaptive_sample


def make_source(population_similarities: np.ndarray):
    """Pair source drawing uniformly from a fixed population of similarities."""

    def source(batch_size, rng):
        indices = rng.integers(0, population_similarities.size, size=batch_size)
        return indices, indices  # left == right index into the population

    def evaluator(left, _right):
        return population_similarities[left]

    return source, evaluator


class TestAdaptiveSample:
    def test_terminates_by_answer_threshold_when_true_pairs_common(self):
        population = np.concatenate([np.full(500, 0.9), np.full(500, 0.1)])
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=10, max_samples=10_000, random_state=0
        )
        assert result.reached_answer_threshold
        assert result.true_count == 10
        assert result.samples_taken <= 10_000

    def test_exact_sample_index_of_delta_th_true_pair(self):
        # deterministic population: every 2nd pair is true -> the 5th true pair
        # is found at sample index ~10 (within one batch, order is random but
        # the count at termination must be exactly delta).
        population = np.array([0.9, 0.1] * 50)
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=5, max_samples=1000, random_state=1
        )
        assert result.true_count == 5
        assert result.samples_taken >= 5

    def test_budget_exhausted_returns_partial_count(self):
        population = np.full(1000, 0.1)  # no true pairs at threshold 0.5
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=5, max_samples=200, random_state=0
        )
        assert not result.reached_answer_threshold
        assert result.true_count == 0
        assert result.samples_taken == 200

    def test_scaled_estimate_when_reliable(self):
        population = np.concatenate([np.full(100, 0.9), np.full(900, 0.1)])
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=20, max_samples=50_000, random_state=3
        )
        assert result.reached_answer_threshold
        estimate = result.estimate(population_size=1_000_000)
        # true fraction is 10%, so the estimate should be near 100_000
        assert estimate == pytest.approx(100_000, rel=0.5)

    def test_safe_lower_bound_when_unreliable(self):
        population = np.concatenate([np.full(2, 0.9), np.full(9998, 0.1)])
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=50, max_samples=300, random_state=0
        )
        assert not result.reached_answer_threshold
        estimate = result.estimate(population_size=10**9)
        assert estimate == result.true_count  # not scaled up

    def test_dampened_estimate(self):
        result = AdaptiveSampleResult(
            true_count=4,
            samples_taken=1000,
            reached_answer_threshold=False,
            answer_threshold=10,
            max_samples=1000,
        )
        plain = result.estimate(1_000_000)
        dampened = result.estimate(1_000_000, dampening=0.5)
        assert plain == 4
        assert dampened == pytest.approx(4 * 0.5 * 1_000_000 / 1000)

    def test_dampening_out_of_range(self):
        result = AdaptiveSampleResult(
            true_count=1,
            samples_taken=10,
            reached_answer_threshold=False,
            answer_threshold=5,
            max_samples=10,
        )
        with pytest.raises(ValidationError):
            result.estimate(100, dampening=1.5)

    def test_dampening_ignored_when_reliable(self):
        result = AdaptiveSampleResult(
            true_count=10,
            samples_taken=100,
            reached_answer_threshold=True,
            answer_threshold=10,
            max_samples=1000,
        )
        assert result.estimate(10_000, dampening=0.1) == pytest.approx(1000.0)

    def test_invalid_parameters(self):
        source, evaluator = make_source(np.full(10, 0.5))
        with pytest.raises(ValidationError):
            adaptive_sample(source, evaluator, 0.5, answer_threshold=0, max_samples=10)
        with pytest.raises(ValidationError):
            adaptive_sample(source, evaluator, 0.5, answer_threshold=1, max_samples=0)

    def test_samples_never_exceed_budget(self):
        population = np.full(100, 0.1)
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=3, max_samples=77, random_state=0,
            batch_size=10,
        )
        assert result.samples_taken == 77

    def test_estimator_unbiased_over_repeats(self):
        """Scaled-up adaptive estimates average out near the true count."""
        population = np.concatenate([np.full(50, 0.95), np.full(950, 0.05)])
        source, evaluator = make_source(population)
        population_size = 1000
        estimates = []
        for seed in range(40):
            result = adaptive_sample(
                source,
                evaluator,
                0.5,
                answer_threshold=5,
                max_samples=2000,
                random_state=seed,
            )
            estimates.append(result.estimate(population_size))
        assert np.mean(estimates) == pytest.approx(50, rel=0.35)


def _batch_at_a_time(pair_source, evaluator, threshold, *, answer_threshold, max_samples,
                     batch_size, rng):
    """Reference SampleL loop: draw and evaluate one batch at a time."""
    samples_taken = 0
    true_count = 0
    while samples_taken < max_samples and true_count < answer_threshold:
        request = min(batch_size, max_samples - samples_taken)
        left, right = pair_source(request, rng)
        is_true = np.asarray(evaluator(left, right)) >= threshold
        cumulative = np.cumsum(is_true.astype(np.int64)) + true_count
        hit = np.flatnonzero(cumulative >= answer_threshold)
        if hit.size > 0:
            return AdaptiveSampleResult(
                true_count=int(cumulative[hit[0]]),
                samples_taken=samples_taken + int(hit[0]) + 1,
                reached_answer_threshold=True,
                answer_threshold=answer_threshold,
                max_samples=max_samples,
            )
        samples_taken += int(is_true.size)
        true_count = int(cumulative[-1])
    return AdaptiveSampleResult(
        true_count=true_count,
        samples_taken=samples_taken,
        reached_answer_threshold=true_count >= answer_threshold,
        answer_threshold=answer_threshold,
        max_samples=max_samples,
    )


class TestGroupedEvaluation:
    """Grouped evaluation must be invisible: same result, same generator state."""

    @settings(max_examples=200, deadline=None)
    @given(
        population_seed=st.integers(0, 2**32 - 1),
        true_fraction=st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.5, 1.0]),
        answer_threshold=st.integers(1, 60),
        max_samples=st.integers(1, 3000),
        batch_size=st.one_of(st.none(), st.integers(1, 300)),
        draw_seed=st.integers(0, 2**32 - 1),
        failing_draw=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_matches_batch_at_a_time_reference(
        self, population_seed, true_fraction, answer_threshold, max_samples, batch_size,
        draw_seed, failing_draw,
    ):
        population = np.where(
            np.random.default_rng(population_seed).random(997) < true_fraction, 0.9, 0.1
        )
        source, evaluator = make_source(population)

        def run(sampler, **kwargs):
            draws = []

            def failing_source(size, generator):
                # a stratum too small to draw from fails mid-stream, after
                # consuming the generator (as the LSH tables' rejection loops do)
                draws.append(size)
                pairs = source(size, generator)
                if len(draws) == failing_draw:
                    raise InsufficientSampleError("stratum exhausted")
                return pairs

            try:
                return sampler(
                    failing_source, evaluator, 0.5, answer_threshold=answer_threshold,
                    max_samples=max_samples, **kwargs,
                )
            except InsufficientSampleError:
                return "raised"

        grouped_rng = np.random.default_rng(draw_seed)
        reference_rng = np.random.default_rng(draw_seed)
        grouped = run(adaptive_sample, batch_size=batch_size, random_state=grouped_rng)
        reference = run(
            _batch_at_a_time,
            batch_size=batch_size or min(max_samples, max(256, 8 * answer_threshold)),
            rng=reference_rng,
        )
        assert grouped == reference
        assert grouped_rng.bit_generator.state == reference_rng.bit_generator.state
        assert grouped_rng.random() == reference_rng.random()

    @pytest.mark.parametrize(("max_samples", "batch_size"), [(1, 1), (77, 10), (256, 16),
                                                             (1000, 7), (2560, 256)])
    def test_full_budget_takes_logarithmically_many_evaluator_calls(
        self, max_samples, batch_size
    ):
        source, evaluator = make_source(np.full(100, 0.1))  # never a true pair
        calls = []

        def counting_evaluator(left, right):
            calls.append(left.size)
            return evaluator(left, right)

        result = adaptive_sample(
            source, counting_evaluator, 0.5, answer_threshold=1, max_samples=max_samples,
            batch_size=batch_size, random_state=0,
        )
        assert result.samples_taken == max_samples == sum(calls)
        batches = -(-max_samples // batch_size)
        assert len(calls) <= math.ceil(math.log2(batches + 1))

    def test_failing_draw_after_delta_is_never_reached(self):
        # δ = 5 true pairs fill the first two 3-pair batches; a batch-at-a-time
        # loop stops there and never makes the third draw, which would fail
        source, evaluator = make_source(np.full(100, 0.9))
        calls = []

        def failing_source(size, rng):
            calls.append(size)
            if len(calls) == 3:
                raise InsufficientSampleError("stratum exhausted")
            return source(size, rng)

        rng = np.random.default_rng(0)
        reference_rng = np.random.default_rng(0)
        result = adaptive_sample(
            failing_source, evaluator, 0.5, answer_threshold=5, max_samples=100,
            batch_size=3, random_state=rng,
        )
        assert result == _batch_at_a_time(
            source, evaluator, 0.5, answer_threshold=5, max_samples=100, batch_size=3,
            rng=reference_rng,
        )
        assert result.samples_taken == 5
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_draws_stay_batch_sized(self):
        requests = []
        source, evaluator = make_source(np.full(100, 0.1))

        def recording_source(size, rng):
            requests.append(size)
            return source(size, rng)

        adaptive_sample(
            recording_source, evaluator, 0.5, answer_threshold=1, max_samples=95,
            batch_size=10, random_state=0,
        )
        assert requests == [10] * 9 + [5]
