"""Host-speed sampling: a fixed pure-Python kernel timed while the program runs.

On a shared host the CPU the benchmark runs on flips, within fractions of
a second, between a fast state and one up to twice as slow (most likely
another tenant busy on the same core), and the share of time spent slow drifts
over minutes.  That drift, not the program, made whole runs faster or
slower.  The `Sampler` thread runs a few milliseconds of a fixed kernel
every PERIOD_S seconds on the CPU the workload's processes are pinned to,
preempting them briefly, so its CPU time per pass measures how fast that
CPU executes Python during each invocation.  run.py divides the
workload's times by it.

The kernel does the kind of work `hopfcalc` does (exact arithmetic with
`Fraction`, small polynomial products reduced modulo a cyclotomic
polynomial, dictionaries keyed by tuples, Gaussian elimination), but it
is part of the benchmark, not of the program: no change to `src/`
changes its cost.  See README.md in this directory, Noise.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

# one kernel pass (about 4 ms on the machine where the benchmark was
# defined) every PERIOD_S seconds: about 4% of the CPU the program runs on
PERIOD_S = 0.1


def _mul_mod_phi8(a, b):
    """Product in Q(zeta_8) = Q[x]/(x^4 + 1), coefficients low to high."""
    out = [Fraction(0)] * 7
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    for k in range(6, 3, -1):
        if out[k]:
            out[k - 4] -= out[k]
            out[k] = Fraction(0)
    return tuple(out[:4])


def _work() -> int:
    # a sparse vector over Q(zeta_8): basis tuple -> 4-tuple of Fractions
    scalars = [tuple(Fraction((3 * i + k) % 5 - 2, 1 + (i + k) % 3) for k in range(4)) for i in range(8)]
    acc: dict[tuple[int, int], tuple] = {}
    for i, a in enumerate(scalars):
        for j, b in enumerate(scalars):
            key = ((i * j) % 7, (i + j) % 5)
            prod = _mul_mod_phi8(a, b)
            old = acc.get(key)
            acc[key] = prod if old is None else tuple(x + y for x, y in zip(old, prod))
    # row-reduce a fixed rational matrix
    n, m = 6, 8
    rows = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 4) for j in range(m)] for i in range(n)]
    rank = 0
    for col in range(m):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank + len(acc)


def probe() -> float:
    """CPU seconds of one kernel pass in this thread."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


class Sampler(threading.Thread):
    """Times one kernel pass every PERIOD_S seconds until stopped.

    `samples` holds (start_ns, end_ns, cpu_s) per pass, the stamps on the
    CLOCK_MONOTONIC clock that run.py stamps invocations with.
    """

    def __init__(self):
        super().__init__(name="calibrate", daemon=True)
        self.samples: list[tuple[int, int, float]] = []
        self._halt = threading.Event()

    def run(self):
        probe()
        while not self._halt.wait(PERIOD_S):
            start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            cpu = probe()
            self.samples.append((start, time.clock_gettime_ns(time.CLOCK_MONOTONIC), cpu))

    def within(self, start_ns: int, end_ns: int) -> list[float]:
        """CPU seconds of the passes made entirely between two stamps."""
        return [cpu for s, e, cpu in list(self.samples) if start_ns <= s and e <= end_ns]

    def stop(self):
        self._halt.set()
        self.join()
