"""The repository benchmark: LSH-SS estimate and ingest cost, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static-sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``static-sweep``, ``sharded-churn``,
``serve-churn``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` wraps every layer boundary and reports
per-layer metrics instead.  Log lines go to standard output first; the
last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

End-to-end times are reported at the pace of a reference host: each
is scaled by how fast a fixed probe ran around it (see ``pace.py``),
so a shared host's drifting speed does not show as a change of the
program.  The raw wall-clock medians are logged.

The library is imported from ``src/`` of the checkout; the first run in
a checkout also builds the cached inputs (see ``bench_inputs.py``).
Exit status: 0 when every output check passed, 1 when a check failed,
2 when the library or an argument is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / "perfbench" / "_cache"


def metric_units() -> tuple:
    """(end-to-end, per-layer) ``{name: unit}`` as declared in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    The CPUs of a shared host drift in speed independently of each
    other, so the pace probe (``pace.py``) only tracks the speed the
    program ran at when both run on the same CPU.  Called before numpy
    is imported, so every thread started later inherits the mask.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def log(message: str) -> None:
    print(f"[perfbench] {message}", flush=True)


def parse_args(argv: list) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    pin_to_one_cpu()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the library sources are missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from bench_inputs import THRESHOLDS, load_corpus
    from pace import Pace
    from workloads import Context, rss_mb, run_churn, run_static

    import repro

    started = time.perf_counter()
    matrix, truth = load_corpus(ROOT, CACHE)
    collection = repro.VectorCollection(matrix, copy=False)
    log(f"inputs ready in {time.perf_counter() - started:.1f} s: n={matrix.shape[0]}, "
        f"d={matrix.shape[1]}, J(tau)={dict(zip(THRESHOLDS, truth.tolist()))}")
    ctx = Context(
        cache=CACHE,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        matrix=matrix,
        truth=truth,
        log=log,
        pace=Pace(matrix),
    )
    if ctx.trace:
        ctx.recorder.install()
    rss_baseline = rss_mb()
    if args.workload == "static-sweep":
        outcome = run_static(ctx, collection, rss_baseline)
    else:
        outcome = run_churn(ctx, args.workload, collection, rss_baseline)
    if ctx.trace:
        outcome.layers["host.pace_factor"] = ctx.pace.factor()
        out = ROOT / "perfbench" / "_runs" / f"spans-{args.workload}-seed{args.seed}.json"
        ctx.recorder.write(out)
        log(f"{len(ctx.recorder.spans)} spans written to {out.relative_to(ROOT)}")

    end_to_end_units, per_layer_units = metric_units()
    metrics = {}
    for name, unit in (per_layer_units if ctx.trace else end_to_end_units).items():
        # a layer the workload never reaches (no shards, no server) reads 0
        value = float(outcome.layers.get(name, 0.0) if ctx.trace else outcome.metrics[name])
        if not math.isfinite(value):
            outcome.problems.append(f"metric {name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        log(f"{name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        log(f"CHECK FAILED: {problem}")
    correct = not outcome.problems and outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
