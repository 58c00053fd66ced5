"""A fixed probe of the host's speed, for scaling latencies to one speed.

On a shared virtual machine the speed of this process switches between
levels up to about 1.9x apart, for seconds to tens of seconds at a time, as
neighbours come and go.  A run of 25 s can sit wholly in one level, so no
statistic of raw latencies agrees between runs.  The probe is a fixed piece
of exact arithmetic of the same kind as planeinv's (``Fraction`` Gaussian
elimination in pure Python), and it lives in the benchmark, not in planeinv,
so no change to planeinv changes it.  Timed next to an operation, it
measures the speed the operation ran at.  On a 2-vCPU virtual machine, from
the fastest level to the slowest, the ratio of an operation's latency to
the probe around it moved by at most 8% on each of the four workloads,
while the raw latency moved by up to 1.8x.

``scaled`` turns a latency into the latency at the reference speed, the
speed at which one probe takes ``REFERENCE_S``.  That constant is about the
probe's time on the fastest level of that machine under Python 3.11, so
there scaled and wall-clock times roughly agree.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.0016
REPEATS = 3  # a probe is the best of this many runs, to skip a stray pause

# Entries of 48-bit numerators over 40-bit denominators: the multi-word
# integer arithmetic is what makes the probe slow down with the host in step
# with planeinv's operations; with small entries it slowed up to 30% more.
_rng = random.Random(20240501)
_MATRICES = [
    [[Fraction(_rng.getrandbits(48) - 2**47, _rng.getrandbits(40) + 1) for _ in range(6)] for _ in range(6)]
    for _ in range(2)
]


def _det(m) -> Fraction:
    a = [row[:] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det


def probe() -> float:
    """Seconds for one run of the fixed task; the best of ``REPEATS``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for m in _MATRICES:
            _det(m)
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured at the speed where one probe took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
