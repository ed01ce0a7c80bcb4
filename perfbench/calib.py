"""A fixed calibration kernel that times the host, not weilq.

The reference host is a share of a busy machine whose speed moves between
levels about 1.4x apart for tens of seconds to minutes at a time, in CPU
time as much as in wall time.  A pass therefore times this kernel between
its steps, and the benchmark scales each step's time by REF_S over the
kernel's time around it: the result is the time the step would take on a
host where one kernel round takes REF_S seconds.  The kernel uses only the
standard library (Fraction arithmetic, dict and list traffic, as weilq's
hot loops do), so no change to weilq changes it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.007   # about one round on the fast level of the reference host
ROUNDS = 7      # rounds per sample; a sample is their median
EVERY_S = 0.5   # a pass takes a sample after the first step that ends later


def _round() -> Fraction:
    """Gauss-Jordan on a fixed Hilbert system, then a truncated series square."""
    n = 6
    m = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i - 2)]
         for i in range(n)]
    for c in range(n):
        pivot = m[c][c]
        m[c] = row = [x / pivot for x in m[c]]
        for r in range(n):
            f = m[r][c]
            if r != c and f:
                m[r] = [a - f * b for a, b in zip(m[r], row)]
    series = {e: Fraction(e % 7 - 3, 1 + e % 4) for e in range(0, 120, 2)}
    square = {}
    for e1, c1 in series.items():
        for e2, c2 in series.items():
            if e1 + e2 < 120:
                square[e1 + e2] = square.get(e1 + e2, 0) + c1 * c2
    return sum(r[-1] for r in m) + sum(square.values())


def sample() -> float:
    """Median time of ROUNDS kernel rounds, in seconds."""
    times = []
    for _ in range(ROUNDS):
        t0 = perf_counter()
        _round()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(times: list, samples: list) -> list:
    """Step times scaled to the reference host.

    ``samples`` holds (steps done, kernel time) pairs in order, the first
    taken before step 0 and the last after the final step; each step is
    scaled by the mean of the two samples around it.
    """
    out = []
    for (i0, c0), (i1, c1) in zip(samples, samples[1:]):
        factor = REF_S / ((c0 + c1) / 2)
        out += [t * factor for t in times[i0:i1]]
    return out
