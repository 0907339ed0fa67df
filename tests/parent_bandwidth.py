"""The Sheather-Jones bandwidth with the kernel it had before its pair sums
lost their float powers: pair distances, not their squares, scaled as
``(dist / h) ** 2``, and polynomials in powers of delta.  It is the test
oracle for :func:`trialscope.density.sj_bandwidth`, whose bandwidths must
equal these bit for bit.  The kernel and ``sj_bandwidth`` are copied as
they were; the draws, the spread and Brent's method, which the rewrite
left alone, are the package's."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from trialscope.density import (
    EPAN_OVER_GAUSS,
    BandwidthResult,
    _brent,
    _draws,
    _n_distinct,
    _silverman,
    _SQRT_2PI,
    _spread,
)


def _pair_counts(x: np.ndarray, c: np.ndarray, nb: int = 1024) -> tuple[np.ndarray, float]:
    """Histogram pair counts of sorted drawn values with counts ``c``:
    cnt[k] = number of unordered pairs whose binned distance is k bin
    widths (k >= 1); cnt[0] counts same-bin pairs."""
    xmin, xmax = float(x[0]), float(x[-1])
    rang = (xmax - xmin) * 1.01
    d = rang / nb
    idx = np.minimum((x - xmin) / d, nb - 1).astype(np.int64)
    counts = np.bincount(idx, weights=c, minlength=nb)
    # autocorrelation of bin counts via FFT
    size = 1 << int(np.ceil(np.log2(2 * nb)))
    f = np.fft.rfft(counts, size)
    ac = np.fft.irfft(f * np.conj(f), size)[:nb]
    ac = np.rint(ac)
    cnt = np.empty(nb)
    cnt[0] = (ac[0] - c.sum()) / 2.0
    cnt[1:] = ac[1:]
    return cnt, d


def _pair_distances(cnt: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Distances and pair counts of the nonempty pair-count bins, in
    increasing distance."""
    k = np.flatnonzero(cnt)
    return k * d, cnt[k]


def _scaled(dist: np.ndarray, cnt: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared scaled distances below 1000 and their counts; the squares
    increase with the distances, so they are a prefix."""
    delta = (dist / h) ** 2
    m = int(np.searchsorted(delta, 1000.0))
    return delta[:m], cnt[:m]


def _phi4_sum(dist: np.ndarray, cnt: np.ndarray, n: int, h: float) -> float:
    """Estimate of the integrated squared second density derivative."""
    delta, c = _scaled(dist, cnt, h)
    terms = np.exp(-delta / 2.0) * (delta * delta - 6.0 * delta + 3.0)
    s = float(np.dot(terms, c))
    s = 2.0 * s + n * 3.0
    return s / (n * (n - 1) * h**5 * _SQRT_2PI)


def _phi6_sum(dist: np.ndarray, cnt: np.ndarray, n: int, h: float) -> float:
    delta, c = _scaled(dist, cnt, h)
    terms = np.exp(-delta / 2.0) * (
        delta**3 - 15.0 * delta * delta + 45.0 * delta - 15.0
    )
    s = float(np.dot(terms, c))
    s = 2.0 * s + n * (-15.0)
    return s / (n * (n - 1) * h**7 * _SQRT_2PI)



def sj_bandwidth(
    sample: Sequence[float], weights=None, nb: int = 1024, *, drawn: bool = False
) -> BandwidthResult:
    """Sheather-Jones solve-the-equation plug-in bandwidth, Epanechnikov scale.

    Solves h = [R(K) / (n * S(alpha2(h)))]^(1/5) for a Gaussian kernel on
    [sd/n, 2*sd] to a relative 1e-6, where S estimates the integrated
    squared second density derivative at a pilot bandwidth coupled to h,
    then rescales the root by the canonical kernel ratio.  Falls back to
    the Silverman rule (flagged) when the bracket has no sign change or the
    objective turns non-finite.

    The root is that of bisection to 1e-6, bit for bit, from fewer than
    half of its objective evaluations.  The Gaussian rule of thumb g
    splits the bracket at 0.3 g and g; Brent's method narrows the part
    with the sign change to a relative 1e-10.  The bisection is then
    replayed: a midpoint on either side of that narrow bracket goes the
    way its end does, and only one inside it evaluates the objective.  The replay is exact when
    the objective changes sign once on [sd/n, 2*sd]; where it changes sign
    more often, which root the bisection finds is arbitrary anyway, and the
    replay may find another.

    ``weights`` are integer frequency weights, such as the draw counts of a
    bootstrap rep: the result is that of the sample with each value
    repeated that often, read off the counts of a sample sorted once.
    With ``drawn`` they are taken as a caller already has them from
    ``_draws``, with at least 10 distinct values, and not checked again.
    """
    if drawn:
        x, c = sample, weights
    else:
        x, c = _draws(sample, weights)
        if _n_distinct(x) < 10:
            raise ValueError("need at least 10 distinct values for a plug-in bandwidth")
    n = int(c.sum())
    sd_full, lam = _spread(x, c)
    dist, cnt = _pair_distances(*_pair_counts(x, c, nb=nb))

    a = 0.920 * lam * n ** (-1.0 / 7.0)
    b = 0.912 * lam * n ** (-1.0 / 9.0)
    tdb = -_phi6_sum(dist, cnt, n, b)
    sda = _phi4_sum(dist, cnt, n, a)

    lo, hi = sd_full / n, 2.0 * sd_full

    def objective(h: float) -> float:
        if tdb <= 0 or sda <= 0:
            return float("nan")
        alpha2 = 1.357 * (sda / tdb) ** (1.0 / 7.0) * h ** (5.0 / 7.0)
        s = _phi4_sum(dist, cnt, n, alpha2)
        if s <= 0:
            return float("nan")
        return (1.0 / (2.0 * math.sqrt(math.pi) * n * s)) ** 0.2 - h

    fallback = BandwidthResult(h=_silverman(lam, n), fallback=True)
    f_lo, f_hi = objective(lo), objective(hi)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi > 0:
        return fallback

    # the bisection moves hi to a midpoint where f_lo * f <= 0: with f
    # signed so that f_lo > 0, that is where f <= 0, as in _brent
    r_lo = r_hi = lo  # f_lo == 0: every midpoint moves hi
    if f_lo != 0:
        sign = math.copysign(1.0, f_lo)

        def signed(h: float) -> float:
            return sign * objective(h)

        r_lo, r_hi, fr_lo, fr_hi = lo, hi, abs(f_lo), sign * f_hi
        g = 0.9 * lam * n ** -0.2
        for t in (0.3 * g, g):
            if r_lo < t < r_hi:
                ft = signed(t)
                if not math.isfinite(ft):
                    return fallback
                if ft > 0:
                    r_lo, fr_lo = t, ft
                else:
                    r_hi, fr_hi = t, ft
                    break
        root = _brent(signed, r_lo, r_hi, fr_lo, fr_hi)
        if root is None:
            return fallback
        r_lo, r_hi = root

    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if r_lo < mid < r_hi:
            f_mid = objective(mid)
            if not np.isfinite(f_mid):
                return fallback
            moves_hi = f_lo * f_mid <= 0
        else:
            moves_hi = mid >= r_hi
        if moves_hi:
            hi = mid
        else:
            lo = mid
    h_gauss = 0.5 * (lo + hi)
    return BandwidthResult(h=h_gauss * EPAN_OVER_GAUSS, fallback=False)
