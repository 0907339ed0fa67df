"""Density discontinuity (manipulation) tests at a known cutoff.

The main test fits weighted local polynomials to the empirical CDF on
each side of the cutoff (triangular kernel, no pre-binning); the slope
coefficient estimates the boundary density.  A refit one order higher at
the same bandwidth gives the bias-corrected estimate used for inference,
with a jackknife-style variance built from the estimator's influence
function over the full sample (covariance across sides included).  A
simple pre-binned histogram test is provided as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pz import OutcomeTable, norm_sf
from .registry import Phase, SponsorSplit

__all__ = [
    "DiscontinuityResult",
    "cjm_test",
    "binned_test",
    "sponsor_sweep",
]


@dataclass(frozen=True)
class DiscontinuityResult:
    cutoff: float
    f_left: float
    f_right: float
    jump: float
    std_err: float
    t_stat: float
    p_value: float
    h_left: float
    h_right: float
    n_left: int
    n_right: int


# ---------------------------------------------------------------------------
# Kernel constants for the plug-in bandwidth, one-sided triangular kernel
# K(u) = 1 - u on [0, 1]:
#   S[j,k] = int u^(j+k) K,   m[j] = int u^(j+q+1) K,
#   G[j,k] = int int u^j v^k min(u,v) K(u) K(v)

def _moment_matrix(q: int) -> np.ndarray:
    idx = np.arange(q + 1)
    jk = idx[:, None] + idx[None, :]
    return 1.0 / (jk + 1) - 1.0 / (jk + 2)


def _bias_vector(q: int) -> np.ndarray:
    j = np.arange(q + 1) + q + 1
    return 1.0 / (j + 1) - 1.0 / (j + 2)


def _min_matrix(q: int, n_nodes: int = 96) -> np.ndarray:
    nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * wts * (1.0 - u)  # kernel folded into the weight
    upow = u[:, None] ** np.arange(q + 1)[None, :]
    m = np.minimum.outer(u, u)
    core = (w[:, None] * w[None, :]) * m
    return upow.T @ core @ upow


@functools.cache
def _slope_constants(q: int) -> tuple[float, float]:
    """(bias constant, variance constant) of the boundary density slope.

    They depend on the order alone, so each order is computed once."""
    s_inv = np.linalg.inv(_moment_matrix(q))
    e = s_inv[1]  # row selecting the linear coefficient
    c_bias = float(e @ _bias_vector(q)) / math.factorial(q + 1)
    c_var = float(e @ _min_matrix(q) @ e)
    return c_bias, c_var


# ---------------------------------------------------------------------------
# Local polynomial machinery

def _ecdf_values(x_sorted: np.ndarray) -> np.ndarray:
    # rank/n with ties sharing the highest rank, matching F(x) = P(X <= x)
    n = x_sorted.size
    return np.searchsorted(x_sorted, x_sorted, side="right") / n


def _side_fit(
    t: np.ndarray, y: np.ndarray, q: int
) -> tuple[float, np.ndarray]:
    """WLS fit of y on powers of t in [-1,0] or [0,1] with triangular
    weights; returns the u-scale slope and the influence row a such that
    slope = a . y."""
    k = 1.0 - np.abs(t)
    U = np.vander(t, q + 1, increasing=True)
    A = U * k[:, None]
    M = U.T @ A
    try:
        minv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate design in local polynomial fit") from exc
    a = minv[1] @ A.T
    return float(a @ y), a


def _suffix_g(
    x_sorted: np.ndarray, window_x: np.ndarray, a: np.ndarray, h: float
) -> np.ndarray:
    """G(x_k) = (1/h) * sum of influence coefficients a_j over window
    points with X_j >= x_k, for every point of the full sorted sample."""
    order = np.argsort(window_x, kind="stable")
    wx, wa = window_x[order], a[order]
    suffix = np.concatenate([np.cumsum(wa[::-1])[::-1], [0.0]])
    pos = np.searchsorted(wx, x_sorted, side="left")
    return suffix[pos] / h


def _pilot_curvature(
    x_side: np.ndarray, y_side: np.ndarray, span: float
) -> tuple[float, float]:
    """Pilot estimates (f, f'') at the cutoff from an unweighted quartic
    fit to the ECDF over the whole side (t already centered at cutoff).
    The design is scale-normalized so conditioning, and hence the result,
    is exactly location/scale equivariant."""
    s = x_side / span
    U = np.vander(s, 5, increasing=True)
    beta, *_ = np.linalg.lstsq(U, y_side, rcond=None)
    f = max(float(beta[1]) / span, 1e-12)
    fpp = 6.0 * float(beta[3]) / span**3
    return f, fpp


def _plugin_bandwidth(
    x_side: np.ndarray, y_side: np.ndarray, n_total: int, q: int
) -> float:
    """MSE-optimal bandwidth for the order-q slope estimate on one side."""
    c_bias, c_var = _slope_constants(q)
    abs_x = np.sort(np.abs(x_side))
    span = float(abs_x[-1])
    f, fpp = _pilot_curvature(x_side, y_side, span)
    # curvature floor keeps h finite on locally linear densities
    fpp_floor = 0.1 * f / span**2
    fpp_eff = max(abs(fpp), fpp_floor)
    h = (c_var * f / (2.0 * q * c_bias**2 * fpp_eff**2 * n_total)) ** (1.0 / (2 * q + 1))
    # keep enough observations in the window for the higher-order refit
    h_min = abs_x[min(max(20, 2 * (q + 3)), abs_x.size - 1)]
    return float(min(max(h, h_min), span))


def cjm_test(
    sample: Sequence[float],
    cutoff: float = 1.96,
    poly_order: int = 2,
    bandwidth: float | tuple[float, float] | None = None,
) -> DiscontinuityResult:
    """Local polynomial density discontinuity test at a cutoff.

    Fits the empirical CDF on each side with polynomials of order
    ``poly_order`` and ``poly_order + 1`` (triangular kernel weights,
    plug-in MSE-optimal bandwidth per side unless overridden); reports the
    higher-order (bias-corrected) boundary densities, their difference,
    a jackknife-style standard error, and a two-sided normal p-value.
    """
    if poly_order < 2:
        raise ValueError("poly_order must be at least 2")
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    y = _ecdf_values(x)
    t_all = x - cutoff

    left_mask = t_all < 0
    right_mask = ~left_mask
    for name, mask in (("left", left_mask), ("right", right_mask)):
        if mask.sum() < 50:
            raise ValueError(
                f"insufficient data on the {name} side of {cutoff:g}: "
                f"{int(mask.sum())} < 50 observations"
            )
        if np.ptp(x[mask]) == 0:
            raise ValueError(f"degenerate sample on the {name} side of {cutoff:g}")

    if bandwidth is None:
        h_left = _plugin_bandwidth(t_all[left_mask], y[left_mask], n, poly_order)
        h_right = _plugin_bandwidth(t_all[right_mask], y[right_mask], n, poly_order)
    elif isinstance(bandwidth, tuple):
        h_left, h_right = float(bandwidth[0]), float(bandwidth[1])
    else:
        h_left = h_right = float(bandwidth)
    if h_left <= 0 or h_right <= 0:
        raise ValueError("bandwidths must be positive")

    q_bc = poly_order + 1

    def side(mask: np.ndarray, h: float, side_sign: float):
        tw = t_all[mask] / h
        in_win = np.abs(tw) <= 1.0
        t_fit = tw[in_win]
        y_fit = y[mask][in_win]
        x_fit = x[mask][in_win]
        if t_fit.size < q_bc + 2:
            name = "left" if side_sign < 0 else "right"
            raise ValueError(f"window on the {name} side contains too few points")
        slope_u, a = _side_fit(t_fit, y_fit, q_bc)
        g = _suffix_g(x, x_fit, a, h)
        return slope_u / h, g, int(t_fit.size)

    f_left, g_left, n_left = side(left_mask, h_left, -1.0)
    f_right, g_right, n_right = side(right_mask, h_right, +1.0)

    psi = g_right - g_left
    var_jump = float(np.sum((psi - psi.mean()) ** 2)) / (n * (n - 1))
    se = math.sqrt(max(var_jump, 1e-300))

    jump = f_right - f_left
    t_stat = jump / se
    p_value = 2.0 * norm_sf(abs(t_stat))
    return DiscontinuityResult(
        cutoff=float(cutoff),
        f_left=f_left,
        f_right=f_right,
        jump=jump,
        std_err=se,
        t_stat=t_stat,
        p_value=float(p_value),
        h_left=h_left,
        h_right=h_right,
        n_left=n_left,
        n_right=n_right,
    )


# ---------------------------------------------------------------------------
# Pre-binned cross-check

def binned_test(
    sample: Sequence[float],
    cutoff: float,
    bin_width: float,
    n_bins_side: int = 25,
) -> DiscontinuityResult:
    """Histogram-based discontinuity cross-check.

    Builds a histogram with a bin edge at the cutoff, fits a line to the
    bin heights on each side of it, and compares the extrapolated heights
    at the cutoff; the standard error comes from the delta method with
    multinomial bin variances.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    x = np.asarray(sample, dtype=float)
    n = x.size
    span_left = cutoff - float(x.min())
    span_right = float(x.max()) - cutoff
    k_left = min(int(span_left / bin_width), n_bins_side)
    k_right = min(int(span_right / bin_width), n_bins_side)
    if k_left < 20 or k_right < 20:
        raise ValueError(
            f"need at least 20 bins per side within the data range; "
            f"got {k_left} left, {k_right} right"
        )

    def side_fit(k: int, sign: float):
        edges = cutoff + sign * bin_width * np.arange(k + 1)
        lo, hi = (edges[:-1], edges[1:]) if sign > 0 else (edges[1:], edges[:-1])
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        counts = np.array(
            [((x >= a) & (x < b)).sum() for a, b in zip(lo, hi)], dtype=float
        )
        heights = counts / (n * bin_width)
        centers = cutoff + sign * bin_width * (np.arange(k) + 0.5)
        U = np.column_stack([np.ones(k), centers - cutoff])
        beta, *_ = np.linalg.lstsq(U, heights, rcond=None)
        fitted = np.maximum(U @ beta, 1.0 / (n * bin_width * 10.0))
        # delta method: intercept = a . heights, Var(height_b) ~ f_b/(n*bw)
        proj = np.linalg.inv(U.T @ U) @ U.T
        a0 = proj[0]
        var = float(np.sum(a0**2 * fitted / (n * bin_width)))
        return float(beta[0]), var, int(counts.sum())

    fl, var_l, nl = side_fit(k_left, -1.0)
    fr, var_r, nr = side_fit(k_right, +1.0)
    jump = fr - fl
    se = math.sqrt(max(var_l + var_r, 1e-300))
    t_stat = jump / se
    return DiscontinuityResult(
        cutoff=float(cutoff),
        f_left=fl,
        f_right=fr,
        jump=jump,
        std_err=se,
        t_stat=t_stat,
        p_value=float(2.0 * norm_sf(abs(t_stat))),
        h_left=k_left * bin_width,
        h_right=k_right * bin_width,
        n_left=nl,
        n_right=nr,
    )


# ---------------------------------------------------------------------------
# Robustness sweep over large-vs-small sponsor definitions

def sponsor_sweep(
    table: OutcomeTable,
    splits: Sequence[SponsorSplit],
    phase: Phase,
    cutoff: float = 1.96,
    poly_order: int = 2,
) -> list[dict]:
    """Run the discontinuity test for every split x {Large, Small} cell.

    Each cell holds the precise primary-outcome z-scores of the industry
    trials of ``phase`` in that group.  Failed cells carry an ``error``
    reason instead of results.
    """
    rows: list[dict] = []
    cache: dict[tuple, DiscontinuityResult | str] = {}
    sample = table.sample(phase) & table.precise
    for split in splits:
        for group, members in table.sponsor_groups(split):
            in_cell = sample & members
            zs = table.z[in_cell]
            key = (group, in_cell.tobytes())
            if key not in cache:
                try:
                    cache[key] = cjm_test(zs, cutoff=cutoff, poly_order=poly_order)
                except ValueError as exc:
                    cache[key] = str(exc)
            res = cache[key]
            row = {
                "criterion": split.criterion,
                "k": split.k,
                "group": group,
                "n": len(zs),
            }
            if isinstance(res, str):
                row.update({"p_value": None, "jump": None, "error": res})
            else:
                row.update({"p_value": res.p_value, "jump": res.jump, "error": ""})
            rows.append(row)
    return rows
