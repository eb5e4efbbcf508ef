"""Fixed reference loops that measure how fast the machine runs right now.

On a shared machine the same work can take 30% longer for seconds at a
time, in wall time and in CPU time alike, because other tenants contend
for the cores and caches. Code of the same kind slows down by nearly the
same factor, but two kinds in gridmc respond differently: interpreter
work on dicts and closures (the per-trial evaluator) and many small numpy
calls on scalars (the inverse CDFs, ranks, interpreter start-up). So the
benchmark times one loop of each kind every REF_EVERY_S seconds while it
times operations, and divides each operation's time by the slowdown of
the loops during and around it, blended by the operation's share of
numpy-call work: times are reported at the speed at which the loops take
PYTHON_MS and NUMPY_MS. The loops run with the garbage collector off, so a
collection that the program's heap makes due never lands in a sample and
a slowdown of the program's own is not divided away.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

# Median times of the two loops on the machine the reference figures in
# README.md come from; fixed constants, so scaled times stay comparable.
PYTHON_MS = 0.8
NUMPY_MS = 1.3
REF_EVERY_S = 0.1  # wall time between two samples of the loops


def python_loop():
    """Interpreter work like the evaluator's: tuple-keyed dict traffic,
    calls and float arithmetic. Independent of gridmc."""
    table = {}
    step = (lambda x: x * 1.0001 + 0.5)
    total = 0.0
    for i in range(2400):
        key = (i & 63, i & 7)
        table[key] = step(table.get(key, 0.0))
        total += table[key]
    return total


def numpy_loop():
    """Many small numpy calls on 0-d arrays, like a scalar inverse CDF:
    conversion, comparisons, masks, fancy assignment. Independent of gridmc."""
    total = 0.0
    for i in range(35):
        u = np.asarray(0.01 + i * 0.028)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise ValueError("u out of range")
        out = np.empty_like(u)
        lo, hi = u < 0.025, u > 0.975
        mid = ~(lo | hi)
        if np.any(mid):
            q = u[mid] - 0.5
            out[mid] = q * (q * q * 0.3 + 1.0)
        if np.any(lo):
            out[lo] = np.sqrt(-2.0 * np.log(u[lo]))
        if np.any(hi):
            out[hi] = -np.sqrt(-2.0 * np.log(1.0 - u[hi]))
        total += float(out)
    return total


class SpeedProbe:
    """Samples both loops every REF_EVERY_S seconds, from a SIGALRM handler
    while entered, and scales operation times with them. numpy_share is
    the share of numpy-call work in the operations it scales."""

    def __init__(self, numpy_share):
        self.numpy_share = numpy_share
        self.starts = []  # start of each sample
        self.ends = []  # its end
        self.slowdowns = []  # blended loop time over its nominal time
        self._previous = None

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            python_loop()
            middle = time.perf_counter()
            numpy_loop()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.slowdowns.append(
            (1 - self.numpy_share) * (middle - start) * 1e3 / PYTHON_MS
            + self.numpy_share * (end - middle) * 1e3 / NUMPY_MS)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _window(self, start, end):
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = sum(e - s for s, e in zip(self.starts[first:last], self.ends[first:last]))
        return first, last, inside

    def net(self, start, end):
        """Time from `start` to `end` less the samples taken inside it."""
        return end - start - self._window(start, end)[2]

    def scaled(self, start, end):
        """net() over the mean slowdown of the samples inside the interval
        and just before and after it. The mean, not the median: contention
        that hits part of an operation shows in only some of its samples,
        and a median would discard it (figures in README.md)."""
        first, last, inside = self._window(start, end)
        around = self.slowdowns[max(first - 1, 0):last + 1]
        return (end - start - inside) / statistics.fmean(around)
