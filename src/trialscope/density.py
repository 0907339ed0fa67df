"""Weighted Epanechnikov kernel density estimation.

Bandwidth selection uses the Sheather-Jones solve-the-equation plug-in,
computed with Gaussian pilot kernels on binned pair counts and rescaled to
the Epanechnikov kernel by canonical kernel equivalence.  Censored
z-scores never enter a density curve; they re-enter share computations as
point masses at their censor bound (or imputed value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "KdeSpec",
    "DensityCurve",
    "BandwidthResult",
    "sj_bandwidth",
    "silverman_bandwidth",
    "kde",
    "default_grid",
    "epanechnikov",
    "epanechnikov_survival",
]

# canonical bandwidth ratio delta(Epanechnikov)/delta(Gaussian):
# [R(K)/sigma_K^4]^(1/5) with R=3/5, sigma^2=1/5 vs R=1/(2 sqrt(pi)), sigma^2=1
EPAN_OVER_GAUSS = (15.0 * 2.0 * math.sqrt(math.pi)) ** 0.2

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# grid centres per kernel block of a density curve
_BLOCK = 16

# elements of the bootstrap reps' weight rows held at once (1 MiB)
_REP_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class BandwidthResult:
    h: float
    # True when the root bracket had no sign change or the objective turned
    # non-finite in Brent's method or the bisection, and Silverman was used
    fallback: bool = False

    def __float__(self) -> float:
        return self.h


@dataclass(frozen=True)
class KdeSpec:
    """Epanechnikov KDE configuration.

    bandwidth may be a positive float or "auto" (Sheather-Jones).  weights
    default to one per observation.  boundary_reflection reflects kernel
    mass at zero for nonnegative supports (off by default).
    """

    bandwidth: float | str = "auto"
    weights: np.ndarray | None = None
    boundary_reflection: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                raise ValueError(f"bandwidth must be positive or 'auto', got {self.bandwidth!r}")
        elif not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            if w.sum() <= 0:
                raise ValueError("weights must not sum to zero")


@dataclass(frozen=True)
class DensityCurve:
    grid: np.ndarray
    values: np.ndarray
    band_low: np.ndarray | None = None
    band_high: np.ndarray | None = None
    bandwidth: float = float("nan")

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


def _finite(values: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first non-finite entry of ``values``."""
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"non-finite {what} {values[i]} at index {i}")


def _draws(sample, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The drawn values of a sample in increasing order, with how often each
    was drawn: every value once, or with integer frequency weights the
    values of positive weight.  A sample already in order is not sorted."""
    x = np.asarray(sample, dtype=float)
    _finite(x, "sample value")
    if weights is None:
        c = np.ones(x.shape, dtype=np.int64)
    else:
        c = np.asarray(weights)
        if c.shape != x.shape:
            raise ValueError(f"weights shape {c.shape} does not match sample {x.shape}")
        if not np.issubdtype(c.dtype, np.integer):
            raise ValueError("weights must be integer counts")
        if np.any(c < 0):
            raise ValueError("weights must be nonnegative")
        drawn = c > 0
        x, c = x[drawn], c[drawn]
    if np.any(x[1:] < x[:-1]):
        order = np.argsort(x, kind="stable")
        x, c = x[order], c[order]
    return x, c


def _n_distinct(x: np.ndarray) -> int:
    """Number of distinct values of a sorted sample."""
    return int(np.count_nonzero(x[1:] != x[:-1])) + 1 if x.size else 0


def _order_stat(x: np.ndarray, cum: np.ndarray, q: float):
    """The ``q`` quantile of a sample sorted along axis 0 with cumulative
    counts ``cum``, interpolated between order statistics as
    ``np.percentile`` does; of each column, for a matrix.  Unlike
    ``np.percentile`` it calls no ``np.unique``, which imports ``numpy.ma``."""
    pos = (cum[-1] - 1) * q
    k = math.floor(pos)
    t = pos - k
    a, b = x[np.searchsorted(cum, [k, min(k + 1, cum[-1] - 1)], side="right")]
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _spread(x: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """Standard deviation (ddof 1) of drawn values with counts, and the
    smaller positive one of it and IQR/1.349."""
    n = c.sum()
    mean = np.dot(c, x) / n
    sd = math.sqrt(np.dot(c, (x - mean) ** 2) / (n - 1)) if n > 1 else float("nan")
    cum = np.cumsum(c)
    iqr = float(_order_stat(x, cum, 0.75) - _order_stat(x, cum, 0.25)) / 1.349
    candidates = [s for s in (sd, iqr) if s > 0]
    if not candidates:
        raise ValueError("sample has zero spread")
    return sd, min(candidates)


def _silverman(scale: float, n: int) -> float:
    return 0.9 * scale * n ** (-0.2) * EPAN_OVER_GAUSS


def silverman_bandwidth(sample: Sequence[float], weights=None) -> float:
    """Rule-of-thumb bandwidth on the Epanechnikov scale.  ``weights`` are
    integer frequency weights: the bandwidth of the sample with each value
    repeated that often."""
    x, c = _draws(sample, weights)
    return _silverman(_spread(x, c)[1], int(c.sum()))


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
    """Squared distances and pair counts of the nonempty pair-count bins,
    in increasing distance."""
    k = np.flatnonzero(cnt)
    dist = k * d
    return dist * dist, cnt[k]


def _scaled(dist2: np.ndarray, cnt: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared scaled distances below 1000 and their counts, from the
    squared distances ``dist2``; they increase with the distances, so they
    are a prefix."""
    delta = dist2 * (1.0 / (h * h))
    m = int(np.searchsorted(delta, 1000.0))
    return delta[:m], cnt[:m]


def _phi4_sum(dist2: np.ndarray, cnt: np.ndarray, n: int, h: float) -> float:
    """Estimate of the integrated squared second density derivative, from
    the squared pair distances ``dist2``."""
    delta, c = _scaled(dist2, cnt, h)
    # exp(-delta/2) (delta^2 - 6 delta + 3), the polynomial in Horner form
    terms = np.exp(delta * -0.5)
    terms *= (delta - 6.0) * delta + 3.0
    s = 2.0 * float(np.dot(terms, c)) + n * 3.0
    return s / (n * (n - 1) * h**5 * _SQRT_2PI)


def _phi6_sum(dist2: np.ndarray, cnt: np.ndarray, n: int, h: float) -> float:
    delta, c = _scaled(dist2, cnt, h)
    # exp(-delta/2) (delta^3 - 15 delta^2 + 45 delta - 15)
    terms = np.exp(delta * -0.5)
    terms *= ((delta - 15.0) * delta + 45.0) * delta - 15.0
    s = 2.0 * float(np.dot(terms, c)) + n * (-15.0)
    return s / (n * (n - 1) * h**7 * _SQRT_2PI)


def _brent(f, a: float, b: float, fa: float, fb: float, rtol: float = 1e-8):
    """Brent's method (Brent 1973, ch. 4, ``zeroin``) on a bracket a < b
    with f(a) = fa > 0 >= fb = f(b).  Every step stays strictly inside the
    bracket, so it only narrows, and its left end keeps f > 0.  Returns its
    ends (r_lo, r_hi), f(r_lo) > 0 >= f(r_hi), once the bracket is at most
    ``rtol`` wide relative to them, or None at a non-finite value."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * rtol * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return (b, c) if b < c else (c, b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            # an interpolation step must head for c, stop short of 3/4 of
            # the bracket and halve the step before last; else bisect
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if not math.isfinite(fb):
            return None


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
    with the sign change to a relative 1e-8, a hundredth of the
    bisection's tolerance, so that a midpoint seldom falls inside it.  The
    bisection is then replayed: a midpoint on either side of that narrow
    bracket goes the way its end does, and only one inside it evaluates
    the objective.  The replay is exact when
    the objective changes sign once on [sd/n, 2*sd]; where it changes sign
    more often, which root the bisection finds is arbitrary anyway, and the
    replay may find another.

    ``weights`` are integer frequency weights, such as the draw counts of a
    bootstrap rep: the result is that of the sample with each value
    repeated that often, read off the counts of a sample sorted once.
    With ``drawn`` the sample and counts are taken as ``_draws`` gives
    them, sorted values of positive count, with at least 10 distinct
    values, and are not checked again.
    """
    if drawn:
        x, c = sample, weights
    else:
        x, c = _draws(sample, weights)
        if _n_distinct(x) < 10:
            raise ValueError("need at least 10 distinct values for a plug-in bandwidth")
    n = int(c.sum())
    sd_full, lam = _spread(x, c)
    dist2, cnt = _pair_distances(*_pair_counts(x, c, nb=nb))

    a = 0.920 * lam * n ** (-1.0 / 7.0)
    b = 0.912 * lam * n ** (-1.0 / 9.0)
    tdb = -_phi6_sum(dist2, cnt, n, b)
    sda = _phi4_sum(dist2, cnt, n, a)

    fallback = BandwidthResult(h=_silverman(lam, n), fallback=True)
    if tdb <= 0 or sda <= 0:  # the objective is undefined everywhere
        return fallback
    lo, hi = sd_full / n, 2.0 * sd_full
    # the pilot alpha2 = 1.357 (sda/tdb)^(1/7) h^(5/7), and n / R(K) =
    # 2 sqrt(pi) n for the Gaussian kernel: the factors that do not depend
    # on h, rounded as in the expression written out, so no value changes
    pilot = 1.357 * (sda / tdb) ** (1.0 / 7.0)
    n_over_rk = 2.0 * math.sqrt(math.pi) * n

    def objective(h: float) -> float:
        s = _phi4_sum(dist2, cnt, n, pilot * h ** (5.0 / 7.0))
        if s <= 0:
            return float("nan")
        return (1.0 / (n_over_rk * s)) ** 0.2 - h

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


def epanechnikov(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, out, 0.0)


def epanechnikov_survival(u) -> np.ndarray:
    """Integral of the Epanechnikov kernel from u to 1 (1 below -1, 0 above 1)."""
    u = np.asarray(u, dtype=float)
    uc = np.minimum(np.maximum(u, -1.0), 1.0)  # np.clip, with less overhead
    return 0.5 - 0.75 * uc + 0.25 * (uc * uc * uc)


def default_grid(sample: Sequence[float], h: float, n_points: int = 512) -> np.ndarray:
    x = np.asarray(sample, dtype=float)
    return np.linspace(0.0, float(x.max()) + 4.0 * h, n_points)


def _resolve(sample, spec: KdeSpec) -> tuple[np.ndarray, np.ndarray, float]:
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    w = (
        np.ones_like(x)
        if spec.weights is None
        else np.asarray(spec.weights, dtype=float)
    )
    if w.shape != x.shape:
        raise ValueError(f"weights shape {w.shape} does not match sample {x.shape}")
    _finite(x, "sample value")
    _finite(w, "weight")
    if w.sum() <= 0:
        raise ValueError("weights sum to zero")
    h = float(sj_bandwidth(x)) if spec.bandwidth == "auto" else float(spec.bandwidth)
    return x, w, h


class _KernelSums:
    """Weighted Epanechnikov density of one sample at fixed centres, by
    direct kernel sums in float64 over the sorted sample.

    Each centre g only sees the observations within one bandwidth of it,
    a window of the sorted sample.  The centres are taken ``_BLOCK`` at a
    time: a block holds one dense kernel matrix over the union of its
    centres' windows, 0.75 (1 - u^2) with u = (g - x) / h inside a centre's
    own window and 0 outside it, so a curve is a row of weights times each
    block.  Direct sums need no guard against the cancellation of fast
    exact updating (Fan & Marron 1994).

    The sort and the blocks depend on the sample, h and the grid alone, so
    they are built once; each call takes one weight per observation, or a
    matrix of them, a row per curve, and a bootstrap rep is the sample
    reweighted by its draw counts.
    """

    def __init__(self, x: np.ndarray, h: float, grid: np.ndarray, reflect: bool):
        self.order = np.argsort(x)
        xs = x[self.order]
        self.h = h
        self.size = grid.size
        self.blocks = []
        # the reflected pass puts the centres at -g
        for centres in (grid, -grid) if reflect else (grid,):
            lo = np.searchsorted(xs, centres - h, side="left")
            hi = np.searchsorted(xs, centres + h, side="right")
            for b in range(0, centres.size, _BLOCK):
                cols = slice(b, b + _BLOCK)
                a, z = int(lo[cols].min()), int(hi[cols].max())
                if a >= z:
                    continue
                u = (centres[cols] - xs[a:z, None]) / h
                k = 0.75 * (1.0 - u * u)
                rows = np.arange(a, z)[:, None]
                # an observation at g +- h in floating point may round to
                # a kernel value a few units below zero
                k[(rows < lo[cols]) | (rows >= hi[cols]) | (k < 0.0)] = 0.0
                self.blocks.append((a, z, cols, k))

    def curves(self, ws: np.ndarray) -> np.ndarray:
        """The densities of the rows of weights ``ws``, in sorted order."""
        out = np.zeros((ws.shape[0], self.size))
        for a, z, cols, k in self.blocks:
            out[:, cols] += ws[:, a:z] @ k
        out /= ws.sum(axis=1, keepdims=True) * self.h
        return out

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return self.curves(w[None, self.order])[0]


def kde(
    sample: Sequence[float],
    spec: KdeSpec,
    grid: Sequence[float] | None = None,
    bootstrap_bands: bool = False,
    bootstrap_reps: int = 200,
    seed: int | None = None,
) -> DensityCurve:
    """Weighted Epanechnikov density estimate on a grid.

    Optional pointwise 95% bands from a nonparametric bootstrap that
    resamples (observation, weight) pairs; per-rep streams are derived
    from the seed by counter so results do not depend on scheduling.  The
    reps are evaluated a chunk of weight rows at a time, about
    ``_REP_ELEMENTS`` weights, so memory does not grow with reps x n.
    """
    if bootstrap_bands and bootstrap_reps < 1:
        raise ValueError(f"bootstrap_reps must be >= 1 for bands, got {bootstrap_reps}")
    x, w, h = _resolve(sample, spec)
    g = default_grid(x, h) if grid is None else np.asarray(grid, dtype=float)
    _finite(g, "grid point")
    if np.any(np.diff(g) < 0):
        raise ValueError("grid must be ascending")
    sums = _KernelSums(x, h, g, spec.boundary_reflection)
    values = sums(w)

    band_low = band_high = None
    if bootstrap_bands:
        n = x.size
        reps = np.empty((bootstrap_reps, g.size))
        streams = np.random.SeedSequence(seed).spawn(bootstrap_reps)
        ws = w[sums.order]
        # the reps' weights, a bounded chunk of rows at a time
        chunk = np.empty((min(bootstrap_reps, max(1, _REP_ELEMENTS // n)), n))
        for a in range(0, bootstrap_reps, len(chunk)):
            rows = chunk[:bootstrap_reps - a]
            for row, stream in zip(rows, streams[a:a + len(rows)]):
                rng = np.random.default_rng(stream)
                counts = np.bincount(rng.integers(0, n, size=n), minlength=n)[sums.order]
                np.multiply(ws, counts, out=row)
                if row.sum() <= 0:
                    row[:] = counts
            reps[a:a + len(rows)] = sums.curves(rows)
        reps.sort(axis=0)
        cum = np.arange(1, bootstrap_reps + 1)
        band_low, band_high = (_order_stat(reps, cum, q) for q in (0.025, 0.975))

    return DensityCurve(grid=g, values=values, band_low=band_low, band_high=band_high, bandwidth=h)
