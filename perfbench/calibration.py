"""Host-speed calibration for wall-clock figures.

On a shared host the same code runs tens of percent slower for stretches
of seconds to minutes while neighbouring tenants are busy; both wall and
CPU time show it. A fixed kernel that touches neither the package nor the
benchmark inputs is therefore timed before and after every timed call,
and the call's wall time is scaled by ``NOMINAL_S / kernel time``. The
figures then read as seconds on the host at its nominal speed: a slowdown
of the whole host moves the kernel and the program alike and cancels,
while a slower program does not move the kernel.

The kernel mixes what the program spends its time on. Compared with a
kernel of plain integer loops and numpy calls, adding tuple and dict work
and scipy.stats calls cut the residual run-to-run variation of calibrated
KDE, parametric and 5000-price evaluations by about a third.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from scipy import special, stats

# Median kernel time on the 2-vCPU Xeon host the benchmark was defined on.
NOMINAL_S = 0.005
REPEATS = 5

_SMALL = np.linspace(-3.0, 3.0, 300 * 30).reshape(300, 30)
_LARGE = np.linspace(-3.0, 3.0, 100 * 2000).reshape(100, 2000)
_SAMPLE = np.linspace(1.0, 2.0, 30)


def kernel() -> int:
    """Interpreted tuple and dict work, small-array numpy, scipy.stats
    frozen distributions and one large-array pass."""
    counts: dict[tuple[int, ...], int] = {}
    for i in range(1500):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        counts[key] = counts.get(key, 0) + 1
    for _ in range(5):
        special.ndtr(_SMALL)
        np.exp(_SMALL)
    for scale in (0.5, 2.0):
        dist = stats.gamma(2.0, scale=scale)
        dist.cdf(_SAMPLE)
        dist.logpdf(_SAMPLE)
    special.ndtr(_LARGE)
    return len(counts)


def kernel_seconds() -> float:
    """Median wall time of a few kernel runs, robust to a single stall."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def settle() -> float:
    """Pin this process to the allowed CPU where the kernel runs fastest
    now, and return that kernel time.

    On the defining host the slow stretches come from one vCPU at a time,
    so a call pinned to the faster one is less likely to straddle a change
    of speed, which the kernel timings around it cannot correct.
    """
    allowed = sorted(os.sched_getaffinity(0))
    timings = []
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        timings.append((kernel_seconds(), cpu))
    best, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds between two kernel timings into
    nominal-speed seconds."""
    return NOMINAL_S / (0.5 * (before + after))
