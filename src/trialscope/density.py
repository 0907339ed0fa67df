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


@dataclass(frozen=True)
class BandwidthResult:
    h: float
    fallback: bool = False  # True when bisection failed and Silverman was used

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
        elif self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
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

    def mass_above(self, cutoff: float) -> float:
        """Trapezoid mass of the curve at or above ``cutoff``."""
        g, v = self.grid, self.values
        if cutoff <= g[0]:
            return self.integral()
        if cutoff >= g[-1]:
            return 0.0
        i = int(np.searchsorted(g, cutoff))
        v_c = float(np.interp(cutoff, g, v))
        partial = 0.5 * (v_c + v[i]) * (g[i] - cutoff)
        return partial + float(np.trapezoid(v[i:], g[i:]))


def _scale(x: np.ndarray) -> float:
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    iqr = (q75 - q25) / 1.349
    candidates = [s for s in (sd, iqr) if s > 0]
    if not candidates:
        raise ValueError("sample has zero spread")
    return min(candidates)


def silverman_bandwidth(sample: Sequence[float]) -> float:
    """Rule-of-thumb bandwidth on the Epanechnikov scale."""
    x = np.asarray(sample, dtype=float)
    return 0.9 * _scale(x) * len(x) ** (-0.2) * EPAN_OVER_GAUSS


def _pair_counts(x: np.ndarray, nb: int = 1024) -> tuple[np.ndarray, float]:
    """Histogram pair counts: cnt[k] = number of unordered pairs whose
    binned distance is k bin widths (k >= 1); cnt[0] counts same-bin pairs."""
    xmin, xmax = float(x.min()), float(x.max())
    rang = (xmax - xmin) * 1.01
    d = rang / nb
    idx = np.minimum((x - xmin) / d, nb - 1).astype(np.int64)
    counts = np.bincount(idx, minlength=nb).astype(float)
    # autocorrelation of bin counts via FFT
    size = 1 << int(np.ceil(np.log2(2 * nb)))
    f = np.fft.rfft(counts, size)
    ac = np.fft.irfft(f * np.conj(f), size)[:nb]
    ac = np.rint(ac)
    n = len(x)
    cnt = np.empty(nb)
    cnt[0] = (ac[0] - n) / 2.0
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


def sj_bandwidth(sample: Sequence[float], nb: int = 1024) -> BandwidthResult:
    """Sheather-Jones solve-the-equation plug-in bandwidth, Epanechnikov scale.

    Solves h = [R(K) / (n * S(alpha2(h)))]^(1/5) for a Gaussian kernel by
    bisection on [sd/n, 2*sd] (relative tolerance 1e-6), where S estimates
    the integrated squared second density derivative at a pilot bandwidth
    coupled to h, then rescales the root by the canonical kernel ratio.
    Falls back to the Silverman rule (flagged) when the bracket has no root.
    """
    x = np.asarray(sample, dtype=float)
    if len(np.unique(x)) < 10:
        raise ValueError("need at least 10 distinct values for a plug-in bandwidth")
    n = len(x)
    lam = _scale(x)
    dist, cnt = _pair_distances(*_pair_counts(x, nb=nb))

    a = 0.920 * lam * n ** (-1.0 / 7.0)
    b = 0.912 * lam * n ** (-1.0 / 9.0)
    tdb = -_phi6_sum(dist, cnt, n, b)
    sda = _phi4_sum(dist, cnt, n, a)

    sd_full = float(np.std(x, ddof=1))
    lo, hi = sd_full / n, 2.0 * sd_full

    def objective(h: float) -> float:
        if tdb <= 0 or sda <= 0:
            return float("nan")
        alpha2 = 1.357 * (sda / tdb) ** (1.0 / 7.0) * h ** (5.0 / 7.0)
        s = _phi4_sum(dist, cnt, n, alpha2)
        if s <= 0:
            return float("nan")
        return (1.0 / (2.0 * math.sqrt(math.pi) * n * s)) ** 0.2 - h

    f_lo, f_hi = objective(lo), objective(hi)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi > 0:
        return BandwidthResult(h=silverman_bandwidth(x), fallback=True)

    while (hi - lo) > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if not np.isfinite(f_mid):
            return BandwidthResult(h=silverman_bandwidth(x), fallback=True)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    h_gauss = 0.5 * (lo + hi)
    return BandwidthResult(h=h_gauss * EPAN_OVER_GAUSS, fallback=False)


def epanechnikov(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, out, 0.0)


def epanechnikov_survival(u) -> np.ndarray:
    """Integral of the Epanechnikov kernel from u to 1 (1 below -1, 0 above 1)."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, -1.0, 1.0)
    return 0.5 - 0.75 * uc + 0.25 * uc**3


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
    if w.sum() <= 0:
        raise ValueError("weights sum to zero")
    h = float(sj_bandwidth(x)) if spec.bandwidth == "auto" else float(spec.bandwidth)
    return x, w, h


def _evaluate(x: np.ndarray, w: np.ndarray, h: float, grid: np.ndarray, reflect: bool) -> np.ndarray:
    W = w.sum()
    order = np.argsort(x)
    xs, ws = x[order], w[order]
    out = np.zeros_like(grid, dtype=float)
    # each grid point only sees observations within one bandwidth
    lo = np.searchsorted(xs, grid - h, side="left")
    hi = np.searchsorted(xs, grid + h, side="right")
    for i, g in enumerate(grid):
        s = slice(lo[i], hi[i])
        if s.start == s.stop:
            continue
        u = (g - xs[s]) / h
        out[i] = np.dot(ws[s], 0.75 * (1.0 - u * u))
    out /= W * h
    if reflect:
        ref = np.zeros_like(grid, dtype=float)
        lo = np.searchsorted(xs, -grid - h, side="left")
        hi = np.searchsorted(xs, -grid + h, side="right")
        for i, g in enumerate(grid):
            s = slice(lo[i], hi[i])
            if s.start == s.stop:
                continue
            u = (-g - xs[s]) / h
            ref[i] = np.dot(ws[s], 0.75 * (1.0 - u * u))
        out += ref / (W * h)
    return out


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
    from the seed by counter so results do not depend on scheduling.
    """
    x, w, h = _resolve(sample, spec)
    g = default_grid(x, h) if grid is None else np.asarray(grid, dtype=float)
    if np.any(np.diff(g) < 0):
        raise ValueError("grid must be ascending")
    values = _evaluate(x, w, h, g, spec.boundary_reflection)

    band_low = band_high = None
    if bootstrap_bands:
        reps = np.empty((bootstrap_reps, g.size))
        streams = np.random.SeedSequence(seed).spawn(bootstrap_reps)
        n = x.size
        for r in range(bootstrap_reps):
            rng = np.random.default_rng(streams[r])
            idx = rng.integers(0, n, size=n)
            wr = w[idx]
            if wr.sum() <= 0:
                wr = np.ones(n)
            reps[r] = _evaluate(x[idx], wr, h, g, spec.boundary_reflection)
        band_low = np.percentile(reps, 2.5, axis=0)
        band_high = np.percentile(reps, 97.5, axis=0)

    return DensityCurve(grid=g, values=values, band_low=band_low, band_high=band_high, bandwidth=h)
