"""Host speed, sampled with a fixed reference computation between solves.

On a shared host, the CPU's speed changes while the benchmark runs.  On
the 2-vCPU VM where this benchmark was tuned, for seconds to minutes at a
time the same pure-Python code took up to twice as long.  A spell like
that can last longer than a run, so no run length averages it out.

So every solve and every set-up is preceded by one ``reference()`` call,
timed on its own and never counted as part of what it precedes.  A time
the benchmark reports is

    measured seconds * REFERENCE_S / median reference time within WINDOW_S

that is, the time the work would have taken at the host speed where one
``reference()`` takes ``REFERENCE_S``.

Slow spells do not slow all code alike: a Fraction polynomial product
slows about 1.5 times as much (in log terms) as a plain integer loop, and
weylgb solves fall between the two, nearer the loop.  So the reference is
an integer loop and a small Fraction polynomial product, about 4:1 in
time; the frequent solves of every workload move with it at log-log slopes
of 0.92-1.24 (DESIGN.md has the figures).  The reference is part of the
benchmark, not of weylgb, so no change to weylgb changes it: a faster or
slower engine moves the reported times in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# One reference() on a 2.1 GHz Intel Xeon vCPU with Python 3.11.7, in a
# quiet spell of the host.  It only sets the scale of the reported times.
REFERENCE_S = 0.0035
# Reference samples this close (in seconds) to a timed interval set its speed.
WINDOW_S = 2.0

_TERMS = {(i, j): Fraction(i + 2 * j + 1, 1 + i * j % 5) for i in range(4) for j in range(4)}


def reference():
    """An integer loop, then the square of a fixed 16-term polynomial."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    square = {}
    for (a, b), x in _TERMS.items():
        for (c, d), y in _TERMS.items():
            key = (a + c, b + d)
            square[key] = square.get(key, 0) + x * y
    return total, square


class SpeedLog:
    """Reference timings taken through a run, in time order."""

    def __init__(self):
        self.times = []  # midpoint of each reference call
        self.seconds = []  # its duration

    def add(self, at, seconds):
        self.times.append(at)
        self.seconds.append(seconds)

    def sample(self):
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.add((start + end) / 2, end - start)

    def factor(self, start, end):
        """REFERENCE_S over the median reference time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            raise ValueError(f"no reference sample near [{start}, {end}]")
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def scaled(self, intervals):
        """Durations of (start, end) intervals, scaled to the reference speed."""
        return [(end - start) * self.factor(start, end) for start, end in intervals]
