"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared machine whose speed moves by
up to half over seconds to minutes as other tenants load it: the process is
not descheduled (its CPU time equals its wall time), each instruction just
takes longer.  Raw op times then spread more between runs than any bound a
regression check could use.

So the worker runs this kernel before every op and once after the last, and
scales each op's measured time by the host's slowdown around it: the median
time of the kernel over the `WINDOW` samples on either side of the op,
over its time at the reference speed.  A scaled figure reads as seconds on
a host that runs the kernel at the reference speed, about its median time
on the 2-vCPU Xeon host the benchmark was sized on.  The kernel calls no
`walshvp` code, so a change to the library cannot change it.  Raw times are
printed beside the scaled ones.

The kernel has two parts, timed apart, because contention from other
tenants slows them by different amounts:
- `cached`: interpreted integer loops, `Fraction` sums and numpy passes over
  an array that stays in the L2 cache;
- `large`: Hadamard butterfly stages over a fresh 8 MiB array, four times
  the L2 cache, allocated and filled as the library's transforms at N = 20
  allocate theirs, so it sees what they see: the shared L3 cache, memory,
  page faults and huge-page allocation.
A workload's slowdown is the mean of the two parts' slowdowns, weighted by
the share of its time that it spends on arrays beyond L2
(`Workload.large_share`, read off its trace).  A workload with no such
share skips the large part.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

# Median seconds of each part at the reference speed.
CACHED_S = 0.010
LARGE_S = 0.016
# Reference samples taken on either side of an op, beyond the two adjacent
# to it, that enter its median.
WINDOW = 2
# Samples taken after a set-up, which has no ops around it.
SETUP_SAMPLES = 5

_SMALL = np.random.default_rng(0).random(1 << 14)


def _cached():
    total = 0
    for i in range(60000):
        total += i * i % 7
    harmonic = Fraction(0)
    for i in range(1, 300):
        harmonic += Fraction(1, i)
    x = _SMALL
    for _ in range(20):
        x = np.abs(np.sort(x) - 0.5)
    return total, harmonic, x


def _large():
    # In place but for the copied left halves, so that the part adds at most
    # 12 MiB, for a moment, to the process's resident set.
    a = np.ones(1 << 20)
    for h in (1 << 3, 1 << 18):
        rows = a.reshape(-1, 2 * h)
        left = rows[:, :h].copy()
        rows[:, :h] += rows[:, h:]
        np.subtract(left, rows[:, h:], out=rows[:, h:])


def sample(large_share: float) -> Tuple[float, float]:
    """Seconds the cached and the large part take now; the large part is
    skipped, and reads 0, for a workload with no large-array share."""
    t0 = time.perf_counter()
    _cached()
    t1 = time.perf_counter()
    if large_share:
        _large()
    return t1 - t0, time.perf_counter() - t1


def _factor(samples: Sequence[Tuple[float, float]], large_share: float) -> float:
    cached = statistics.median(s[0] for s in samples) / CACHED_S
    large = statistics.median(s[1] for s in samples) / LARGE_S
    return 1.0 / ((1.0 - large_share) * cached + large_share * large)


def setup_factor(large_share: float) -> float:
    """Scale factor for a time measured just before this call."""
    return _factor([sample(large_share) for _ in range(SETUP_SAMPLES)], large_share)


def op_factors(refs: Sequence[Tuple[float, float]], large_share: float) -> List[float]:
    """Scale factor of each op in run order, where refs[k] was sampled just
    before op k and refs[k + 1] just after it."""
    return [
        _factor(refs[max(0, k - WINDOW): k + WINDOW + 2], large_share)
        for k in range(len(refs) - 1)
    ]
