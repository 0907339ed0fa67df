"""The Sheather-Jones bandwidth by plain bisection: the objective evaluated
at every midpoint of [sd/n, 2*sd] down to a relative 1e-6.  It is the test
oracle for :func:`trialscope.density.sj_bandwidth`, which reaches the same
root by Brent's method and a replay of this bisection."""

from __future__ import annotations

import math

import numpy as np

from trialscope import density as dens


def sj_bandwidth(sample, weights=None, nb: int = 1024) -> dens.BandwidthResult:
    x, c = dens._draws(sample, weights)
    if dens._n_distinct(x) < 10:
        raise ValueError("need at least 10 distinct values for a plug-in bandwidth")
    n = int(c.sum())
    sd_full, lam = dens._spread(x, c)
    dist, cnt = dens._pair_distances(*dens._pair_counts(x, c, nb=nb))

    a = 0.920 * lam * n ** (-1.0 / 7.0)
    b = 0.912 * lam * n ** (-1.0 / 9.0)
    tdb = -dens._phi6_sum(dist, cnt, n, b)
    sda = dens._phi4_sum(dist, cnt, n, a)

    lo, hi = sd_full / n, 2.0 * sd_full

    def objective(h: float) -> float:
        if tdb <= 0 or sda <= 0:
            return float("nan")
        alpha2 = 1.357 * (sda / tdb) ** (1.0 / 7.0) * h ** (5.0 / 7.0)
        s = dens._phi4_sum(dist, cnt, n, alpha2)
        if s <= 0:
            return float("nan")
        return (1.0 / (2.0 * math.sqrt(math.pi) * n * s)) ** 0.2 - h

    fallback = dens.BandwidthResult(h=dens._silverman(lam, n), fallback=True)
    f_lo, f_hi = objective(lo), objective(hi)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi > 0:
        return fallback

    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if not np.isfinite(f_mid):
            return fallback
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return dens.BandwidthResult(h=0.5 * (lo + hi) * dens.EPAN_OVER_GAUSS, fallback=False)
