"""Drift correction of measured times to a reference machine speed.

The shared 2-core machine these benchmarks were written on changes speed
by up to about 50% from one second to the next, because other virtual
machines contend for the host; it stays in one state for seconds to tens of
seconds.  Medians within a run cannot remove that.

``probe`` times fixed reference kernels in a short burst.  The benchmark
probes in its own process while the program under test is stopped (the
child's whole process group gets SIGSTOP, then SIGCONT), about once a
second during an operation and once between operations.  The program never
runs during a probe, so it cannot change the factor: a program that uses
more threads or cores has its times scaled exactly like one that does not.
Each stretch of running between two probes is scaled by those two probes:

    scaled = measured / mean(probe before, probe after)

where a probe is the kernels' time relative to their time at a reference
speed.

A faster program lowers the raw and the scaled times in the same
proportion.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

PROBE_S = 0.1  # length of one probe burst

_X = np.arange(1.0, 65.0)
_Y = np.linspace(0.0, 1.0, 4096)
_TEXT = [f"{x:.6g}" for x in np.random.default_rng(0).normal(size=600)]


def scalar_kernel() -> float:
    """Scalar and 0-d numpy calls, parsing numbers from text, and building
    and sorting a dict; about 1 ms.  On the machine above this slows down
    under the host's contention by about as much as the scalar p-to-z
    transform and the linker do."""
    acc = 0.0
    for i in range(500):
        acc += float(np.sqrt(_X[i & 63]))
    table = {}
    for i, text in enumerate(_TEXT):
        v = float(text)
        acc += math.exp(-v * v)
        table[text] = (i, text.upper())
    acc += len(sorted(table.items(), key=lambda kv: kv[1][0] % 7))
    for i in range(150):
        a = np.asarray(_Y[i])
        acc += float(np.where(a > 0.5, np.log1p(a), np.sqrt(a)))
    return acc


def array_kernel() -> float:
    """A tight integer loop and numpy on 4k-element arrays; about 0.7 ms.
    This slows down under contention by less than ``scalar_kernel``, about
    as much as the logit fit and the other array work of a decomposition."""
    s = 0
    for j in range(10_000):
        s += j * j
    acc = 0.0
    for _ in range(4):
        acc += float(np.sort(_Y[::-1])[0]) + float(np.exp(_Y).dot(_Y))
    return acc + s


_BIG = np.random.default_rng(1).normal(size=4_000_000)  # 32 MB, well past the caches
_GATHER = np.random.default_rng(2).integers(0, len(_BIG), 100_000)


def memory_kernel() -> float:
    """Random reads from a 32 MB array; about 0.5 ms.  This slows down when
    other machines contend for memory and cache, which a big registry's
    objects feel and the other kernels, whose data fit in cache, do not."""
    return float(_BIG[_GATHER].sum())


# kernel -> its time in seconds at the reference speed
KERNELS = {scalar_kernel: 1.2e-3, array_kernel: 0.8e-3, memory_kernel: 0.45e-3}


def probe() -> float:
    """The machine's current slowness: over a burst of about ``PROBE_S``,
    the median of rounds, each the mean over the kernels of a kernel's time
    relative to its time at the reference speed.  The kernels weigh equally
    and no one of them tracks every workload: on the machine above, the
    sweep's time varied 20% between operations (IQR over median), 7% after
    correction by the scalar kernel alone and 3% by all three.  The median is
    insensitive to a single preemption."""
    rounds = []
    end = time.perf_counter() + PROBE_S
    while not rounds or time.perf_counter() < end:
        total = 0.0
        for kernel, reference in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            total += (time.perf_counter() - t0) / reference
        rounds.append(total / len(KERNELS))
    return statistics.median(rounds)


def factor(before: float, after: float) -> float:
    """Scale factor for work done between two probes."""
    return 2.0 / (before + after)
