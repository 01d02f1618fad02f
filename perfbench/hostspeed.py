"""Host-speed reference for the timed figures.

The benchmark runs on small shared hosts whose single-core speed moves by
half or more from one stretch of seconds to the next.  `HostSpeed.sample()`
times a fixed pure-Python reference loop: rational additions in the style of
`Fraction` (a new object per step, gcd in Python code) and dict updates, the
kinds of work rieszkit does, so it slows down with the host much as rieszkit
does.  It uses its own rational class, so the tracer's `Fraction` counter
never sees it.

The closed loop takes a sample between operations every SAMPLE_EVERY
seconds, outside the timed region, and `scale(t0, t1)` turns a time measured
in [t0, t1] into the time it would have taken on a host where the reference
loop takes REFERENCE_S: the measured time times REFERENCE_S over the median
of the samples taken around that interval.

A change to rieszkit cannot change the reference loop, so a faster or slower
rieszkit moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

# a round figure for one reference loop on the host the baseline was taken on
# (2-core Intel Xeon VM at 2.1 GHz, Python 3.11.7), where it takes 0.38-0.6 ms
REFERENCE_S = 0.0005
SAMPLE_EVERY = 0.025
NEIGHBOURS = 5  # samples taken on each side of an interval


class _Ratio:
    """A small rational in the style of `fractions.Fraction`: a new object
    per operation, reduced by gcd in Python code."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)


def reference_loop() -> int:
    acc = _Ratio(0, 1)
    for i in range(1, 150):
        acc = acc + _Ratio(1, i)
    table: dict[int, int] = {}
    for i in range(1000):
        table[i % 977] = table.get(i % 977, 0) + i
    return acc.den % 1000 + len(table)


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.samples: list[float] = []  # its duration
        self._last = -math.inf

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self._last = t1

    def sample_around(self) -> None:
        """The samples `scale` reads on one side of an interval."""
        for _ in range(NEIGHBOURS):
            self.sample()

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that converts a time measured in [t0, t1] to the reference
        host."""
        lo = max(0, bisect.bisect_left(self.times, t0) - NEIGHBOURS)
        hi = bisect.bisect_right(self.times, t1) + NEIGHBOURS
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
