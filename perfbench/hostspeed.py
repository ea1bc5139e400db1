"""Host speed: a fixed pure-Python loop, timed all through a run.

The benchmark shares a few cores of a host whose speed drifts by 20 to 40 %
over minutes, and a process's CPU time drifts with it, so two runs of the
same code minutes apart can differ by more than any useful bound.  The loop
below does the kind of work the program does (dictionaries of ``Fraction``
coefficients keyed by exponent tuples, multiplied, substituted and reduced by
Gaussian elimination) but calls nothing of the program, so a change to the
program cannot move it.  Timed in short chunks every fraction of a second
through a run, it measures how fast the host is while the operations run;
dividing a run's times by ``slowdown`` expresses them in seconds of the
reference host.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Median seconds one ``chunk()`` took on the reference host: a shared 2-core
# x86-64 Linux host with CPython 3.11.7.
REFERENCE_CHUNK_S = 0.0242

# What ``chunk()`` returns; a different value means the loop itself changed.
CHECKSUM = 538


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank, cols = 0, len(rows[0])
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def chunk() -> int:
    """One fixed unit of work; returns ``CHECKSUM``."""
    a = {(i, -j): Fraction(i + 1, j + 2) for i in range(9) for j in range(9)}
    b = {(j - 3, i): Fraction(j - 4, i + 3) for i in range(7) for j in range(7)}
    p = _mul(a, b)
    # substitute x -> x * y^-1 term by term, as a monomial change of coordinates
    q = _mul({(i, j - i): v for (i, j), v in p.items()}, {(0, 0): Fraction(1), (1, -1): Fraction(-1, 2)})
    rows = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 5) for j in range(9)] for i in range(8)]
    return len(p) + len(q) + _rank(rows) + sum(1 for v in q.values() if v.denominator > 1000)


class Meter:
    """Runs ``chunk()`` from a wall-clock timer signal every ``interval``
    seconds while active, so that the host's speed is sampled evenly through
    every operation, however long.  ``clock()`` is the wall clock minus the
    time spent in chunks, so the chunks add nothing to what it times.

    Use as a context manager; leaving it stops the timer.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.chunks = 0
        self.seconds = 0.0
        self._previous = None
        if chunk() != CHECKSUM:  # also warms the loop up before any timing
            raise RuntimeError("the host-speed loop changed; set CHECKSUM and REFERENCE_CHUNK_S again")

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        chunk()
        self.seconds += time.perf_counter() - t0
        self.chunks += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Seconds of wall clock not spent in chunks."""
        while True:
            # a chunk may run between any two bytecodes; retry if one did
            n = self.chunks
            now = time.perf_counter() - self.seconds
            if n == self.chunks:
                return now

    def slowdown(self) -> float:
        """This host's time per chunk over the reference host's."""
        return self.seconds / self.chunks / REFERENCE_CHUNK_S
