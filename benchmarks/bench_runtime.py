"""E12 — §6.2 runtime comparison of the estimators.

The paper reports wall-clock estimation times (LSH-SS < 1s, LSH-S ~1s,
LC ~3s, RS ~0.8s on 800K vectors).  Absolute numbers are hardware- and
scale-dependent; what must hold is that every estimator is dramatically
cheaper than executing the exact join, and that LSH-SS's cost is in the
same ballpark as plain random sampling (both examine Θ(n) pairs).

This benchmark uses pytest-benchmark's timing machinery directly (one
benchmarked estimator per test) so the usual benchmark table doubles as
the runtime comparison.

Gate (§6.2 runtime parity): one LSH-SS estimate costs at most
``REPRO_BENCH_RUNTIME_GATE`` (default 2.0) times one RS(pop) estimate,
best of interleaved rounds.  The claim is about cost per pair evaluated
(LSH-SS examines m_H + m_L = 2n pairs, RS(pop) 1.5n), so the gate runs at
n = 20k, where the fixed per-call cost of small collections no longer
dominates, whatever size the other benchmarks use.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._helpers import emit, env_float, format_table
from repro.core import (
    LSHSEstimator,
    LSHSSEstimator,
    LatticeCountingEstimator,
    RandomPairSampling,
    UniformityEstimator,
)
from repro.datasets import make_dblp_like
from repro.join import exact_join_size
from repro.lsh import LSHIndex

THRESHOLD = 0.7

PARITY_N = 20_000
PARITY_THRESHOLDS = (0.5, 0.7, 0.9)
PARITY_SEEDS = (0, 1, 2)
PARITY_ROUNDS = 5


def test_runtime_lsh_ss(benchmark, dblp_index):
    estimator = LSHSSEstimator(dblp_index.primary_table)
    benchmark(lambda: estimator.estimate(THRESHOLD, random_state=0))


def test_runtime_lsh_ss_dampened(benchmark, dblp_index):
    estimator = LSHSSEstimator(dblp_index.primary_table, dampening="auto")
    benchmark(lambda: estimator.estimate(THRESHOLD, random_state=0))


def test_runtime_lsh_s(benchmark, dblp_index):
    estimator = LSHSEstimator(dblp_index.primary_table)
    benchmark(lambda: estimator.estimate(THRESHOLD, random_state=0))


def test_runtime_random_sampling(benchmark, dblp_collection):
    estimator = RandomPairSampling(dblp_collection)
    benchmark(lambda: estimator.estimate(THRESHOLD, random_state=0))


def test_runtime_uniformity(benchmark, dblp_index):
    estimator = UniformityEstimator(dblp_index.primary_table)
    benchmark(lambda: estimator.estimate(THRESHOLD, random_state=0))


def test_runtime_lattice_counting_estimate(benchmark, dblp_index):
    estimator = LatticeCountingEstimator(dblp_index.primary_table)
    benchmark(lambda: estimator.estimate(THRESHOLD, random_state=0))


def test_runtime_summary_vs_exact_join(
    benchmark, dblp_collection, dblp_index, results_dir
):
    """Aggregate comparison including the exact join, persisted to results/."""

    def run():
        table = dblp_index.primary_table
        estimators = {
            "LSH-SS": LSHSSEstimator(table),
            "LSH-S": LSHSEstimator(table),
            "J_U": UniformityEstimator(table),
            "LC": LatticeCountingEstimator(table),
            "RS(pop)": RandomPairSampling(dblp_collection),
        }
        rows = []
        for name, estimator in estimators.items():
            start = time.perf_counter()
            for seed in range(3):
                estimator.estimate(THRESHOLD, random_state=seed)
            elapsed = (time.perf_counter() - start) / 3
            rows.append([name, elapsed * 1000.0])
        start = time.perf_counter()
        exact_join_size(dblp_collection, THRESHOLD)
        rows.append(["exact join (oracle)", (time.perf_counter() - start) * 1000.0])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    body = format_table(["method", "runtime (ms)"], rows, float_format="{:.2f}")
    emit(
        "E12_runtime",
        "§6.2 — estimation runtime comparison at tau = 0.7 (DBLP-like)",
        body,
        results_dir,
        benchmark=benchmark,
        extra_info={row[0]: row[1] for row in rows},
    )

    runtime = {row[0]: row[1] for row in rows}
    assert runtime["LSH-SS"] < runtime["exact join (oracle)"]


@pytest.fixture(scope="module")
def parity_corpus():
    collection = make_dblp_like(num_vectors=PARITY_N, random_state=7).collection
    return collection, LSHIndex(collection, num_hashes=20, num_tables=1, random_state=42)


def test_runtime_parity_lsh_ss_vs_random_sampling(benchmark, parity_corpus, results_dir):
    """Gate: one LSH-SS estimate costs at most the gate times one RS(pop) estimate."""
    gate = env_float("REPRO_BENCH_RUNTIME_GATE", 2.0)
    collection, index = parity_corpus
    estimators = {
        "LSH-SS": LSHSSEstimator(index.primary_table),
        "RS(pop)": RandomPairSampling(collection),
    }
    queries = [(t, s) for t in PARITY_THRESHOLDS for s in PARITY_SEEDS]
    for threshold, seed in queries:  # warm-up (lazy normalisation, bucket layouts)
        for estimator in estimators.values():
            estimator.estimate(threshold, random_state=seed)

    def run():
        # rounds interleave the estimators so host drift hits both alike;
        # each keeps its fastest round
        best = {name: float("inf") for name in estimators}
        for _ in range(PARITY_ROUNDS):
            for name, estimator in estimators.items():
                start = time.perf_counter()
                for threshold, seed in queries:
                    estimator.estimate(threshold, random_state=seed)
                best[name] = min(best[name], (time.perf_counter() - start) / len(queries))
        return best

    best = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = best["LSH-SS"] / max(best["RS(pop)"], 1e-9)
    body = format_table(
        ["method", "per estimate (ms)"],
        [[name, seconds * 1000.0] for name, seconds in best.items()],
        float_format="{:.2f}",
    )
    body += (
        f"\nn={collection.size}, k=20, τ ∈ {PARITY_THRESHOLDS}, seeds {PARITY_SEEDS}, "
        f"best of {PARITY_ROUNDS} rounds; LSH-SS / RS(pop) = {ratio:.2f}x (gate ≤ {gate}x)"
    )
    emit(
        "E12_runtime_parity",
        "§6.2 — LSH-SS vs RS(pop) cost per estimate",
        body,
        results_dir,
        benchmark=benchmark,
        extra_info={"lsh_ss_vs_rs": ratio},
    )
    assert ratio <= gate, f"one LSH-SS estimate costs {ratio:.2f}x one RS(pop) estimate"
