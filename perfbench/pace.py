"""Host pace: a fixed reference load that says how fast the host runs now.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to about 2x over seconds to minutes (neighbours' load, clock
changes), far more than the change a later commit should be judged on.
So every timed call is followed by a *probe*: a fixed piece of work
made of the same kinds of steps as the library's (sparse row products
and sums in scipy/numpy, dict and set lookups in the interpreter, a
pickle round trip), built from the corpus with a fixed seed and never
touching the library.  A call's time divided by the median probe time
around it is the call's cost in probe units, independent of the host's
current pace; multiplied by :data:`REFERENCE_PROBE_S` it reads as
milliseconds on the reference host.

The host's CPUs drift independently of each other, so the benchmark
runs on one CPU (``run.py``): the probe then sees the CPU the program
ran on.  Every end-to-end time the benchmark reports is paced this way;
each run also logs its raw wall-clock medians and the pace it saw.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import List

import numpy as np

#: median probe time on the reference host (one core of a 2-vCPU Intel
#: Xeon VM at 2.1 GHz, Python 3.11, measured with the host otherwise idle)
REFERENCE_PROBE_S = 0.00398
#: probes on each side of a call whose median paces it: enough to
#: follow the host's drift over seconds, not its jitter between calls
WINDOW = 10
#: fixed seed of the probe's inputs
_PROBE_SEED = 20_110_826
_PAIRS = 4_000
_DICT_ROWS = 2_000


class Pace:
    """The probe and the pacing of timed calls."""

    def __init__(self, matrix) -> None:
        rng = np.random.default_rng(_PROBE_SEED)
        self._matrix = matrix
        self._left = rng.integers(0, matrix.shape[0], _PAIRS)
        self._right = rng.integers(0, matrix.shape[0], _PAIRS)
        self._rows = []
        for row in rng.integers(0, matrix.shape[0], _DICT_ROWS).tolist():
            start, stop = matrix.indptr[row], matrix.indptr[row + 1]
            self._rows.append(
                dict(zip(matrix.indices[start:stop].tolist(), matrix.data[start:stop].tolist()))
            )
        self.probes: List[float] = []
        for _ in range(3):  # warm the allocator and the code paths
            self.probe()
        self.probes.clear()

    def _work(self) -> float:
        products = self._matrix[self._left].multiply(self._matrix[self._right])
        total = float(np.asarray(products.sum(axis=1)).sum())
        rows = self._rows
        for position in range(0, len(rows) - 1, 2):
            first, second = rows[position], rows[position + 1]
            total += sum(value * second[key] for key, value in first.items() if key in second)
        total += len(pickle.loads(pickle.dumps(rows[:200], protocol=pickle.HIGHEST_PROTOCOL)))
        return total

    def probe(self) -> float:
        """Run the probe once; records and returns its seconds."""
        started = time.perf_counter()
        self._work()
        seconds = time.perf_counter() - started
        self.probes.append(seconds)
        return seconds

    def mark(self, count: int = 1) -> int:
        """Probe ``count`` times; returns the position of the first probe."""
        first = len(self.probes)
        for _ in range(count):
            self.probe()
        return first

    def local(self, first: int, last: int) -> float:
        """Median probe seconds around probes ``[first, last)``."""
        window = self.probes[max(first - WINDOW, 0) : last + WINDOW]
        return statistics.median(window)

    def paced(self, seconds: float, first: int, last: int) -> float:
        """``seconds`` of wall time at the reference host's pace."""
        return seconds * REFERENCE_PROBE_S / self.local(first, last)

    def factor(self) -> float:
        """This run's median probe time over the reference (1 = reference pace)."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S if self.probes else 1.0

