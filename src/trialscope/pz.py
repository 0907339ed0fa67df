"""Transform reported p-values into censored z-scores.

Reported p-values become absolute z-statistics of a two-sided normal test
(one-sided variant available).  Very small p-values are almost never
reported precisely, so the right tail of the z-distribution is censored:
"p<0.001" and "p<0.0001" map to dedicated censor kinds, anything censored
at some other level is carried as an interval with an imputable value.

A transformed p-value has one form: a row of the :class:`OutcomeTable`
columns ``kind``, ``z``, ``bound`` and ``below``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np
# scipy's erfc, not math.erfc: the two differ by a few units in the last
# place for about 40% of arguments, and the simulator draws its reported
# p-values through norm_cdf, so a switch would change every generated registry
from scipy.special import erfc

from .registry import (
    OutcomeRank,
    Phase,
    Registry,
    ReportedP,
    SponsorSplit,
    Trials,
)

__all__ = [
    "Sidedness",
    "ZKind",
    "OutcomeTable",
    "Z_D1",
    "Z_D2",
    "Z_SIG",
    "inv_norm_cdf",
    "norm_cdf",
    "norm_sf",
    "transform",
    "transform_arrays",
    "impute_other_censors",
    "outcome_table",
]

# Censor bounds for "p<0.001" / "p<0.0001" under the two-sided transform as
# published, to 4 decimals, for use as inputs; the D1/D2 rows of a table
# carry the exact bounds, -inv_norm_cdf(0.0005) and -inv_norm_cdf(0.00005).
Z_D1 = 3.2905
Z_D2 = 3.8906

# Exact p-values below this are indistinguishable from a reported zero.
_P_UNDERFLOW = 1e-15


class Sidedness(enum.Enum):
    TWO_SIDED = "two-sided"
    ONE_SIDED = "one-sided"


class ZKind(enum.Enum):
    PRECISE = "precise"
    ABOVE_D1 = "above_d1"  # z > 3.29  (p reported as < 0.001)
    ABOVE_D2 = "above_d2"  # z > 3.89  (p reported as < 0.0001 or exactly 0)
    OTHER_CENSOR = "other_censor"


# Acklam's rational approximation to the standard normal quantile,
# refined below with one Halley step against an erfc-based CDF.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_SPLIT = 0.02425

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(z):
    """Standard normal CDF via the complementary error function."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * erfc(-z / _SQRT2)
    return out if out.ndim else float(out)


def norm_sf(z):
    """Upper-tail probability 1 - CDF(z), accurate in the far tail where
    the literal subtraction would cancel."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * erfc(z / _SQRT2)
    return out if out.ndim else float(out)


def _acklam(q: np.ndarray) -> np.ndarray:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    x = np.empty_like(q)

    lo = q < _ACKLAM_SPLIT
    hi = q > 1.0 - _ACKLAM_SPLIT
    mid = ~(lo | hi)

    if np.any(lo):
        r = np.sqrt(-2.0 * np.log(q[lo]))
        x[lo] = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / (
            (((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0
        )
    if np.any(hi):
        r = np.sqrt(-2.0 * np.log(1.0 - q[hi]))
        x[hi] = -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / (
            (((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0
        )
    if np.any(mid):
        u = q[mid] - 0.5
        r = u * u
        x[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * u / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    return x


def inv_norm_cdf(q):
    """Inverse standard normal CDF, absolute error below 1e-10 on (0, 1).

    Acklam's approximation gives ~1e-9 accuracy; one Halley refinement step
    against the erfc-based CDF brings it to machine-level precision.
    """
    q_arr = np.asarray(q, dtype=float)
    scalar = q_arr.ndim == 0
    q_arr = np.atleast_1d(q_arr)
    if np.any(~np.isfinite(q_arr)) or np.any(q_arr <= 0.0) or np.any(q_arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")

    x = _acklam(q_arr)

    # Halley: x <- x - f/f' * (1 - f*f''/(2 f'^2))^-1 with f = Phi(x) - q.
    # Work on the tail side of the split to keep f well conditioned.
    upper = q_arr > 0.5
    err = np.where(upper, norm_sf(x) - (1.0 - q_arr), norm_cdf(x) - q_arr)
    err = np.where(upper, -err, err)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    u = err / pdf
    x = x - u / (1.0 + 0.5 * x * u)

    return float(x[0]) if scalar else x


def transform_arrays(kind, value, side: Sidedness = Sidedness.TWO_SIDED):
    """Map reported p-values to z-scores, elementwise.

    ``kind`` holds the reported kinds ("exact", "lt", "gt") and ``value``
    the p-values or censor thresholds.  Exact p-values map through the
    normal quantile; the censor thresholds 0.001 and 0.0001 (and exact
    values indistinguishable from zero) map to the dedicated D1/D2 kinds
    regardless of sidedness; any other inequality becomes an OTHER_CENSOR.
    Returns the ZKind values, the precise z (NaN on censored rows) and the
    censor bound on the active z scale (NaN on precise rows).
    """
    kind = np.asarray(kind, dtype=str)
    p = np.asarray(value, dtype=float)
    unknown = ~np.isin(kind, ("exact", "lt", "gt"))
    if unknown.any():
        raise ValueError(f"unknown reported-p kind: {str(kind[unknown][0])!r}")
    exact, lt = kind == "exact", kind == "lt"
    underflow = exact & (p <= _P_UNDERFLOW)
    precise = exact & ~underflow
    d1 = lt & (p == 0.001)
    d2 = underflow | (lt & (p == 0.0001))
    p = np.where(underflow, 0.0001, p)
    # one-sided arguments can reach 1.0 exactly; step inside the open
    # domain by one representable unit
    q = p / 2.0 if side is Sidedness.TWO_SIDED else np.minimum(p, 1.0 - 2.5e-16)
    zq = -inv_norm_cdf(q)
    codes = np.select(
        [precise, d1, d2],
        [ZKind.PRECISE.value, ZKind.ABOVE_D1.value, ZKind.ABOVE_D2.value],
        ZKind.OTHER_CENSOR.value,
    )
    return codes, np.where(precise, zq, np.nan), np.where(precise, np.nan, zq)


def transform(p: ReportedP, side: Sidedness = Sidedness.TWO_SIDED) -> tuple[ZKind, float, float]:
    """The table row of one reported p-value as ``(kind, z, bound)``: z is
    NaN on a censored row and bound is NaN on a precise one; see
    :func:`transform_arrays`.  A "p>t" censor is a bound with z below it."""
    (code,), (z,), (bound,) = transform_arrays([p.kind], [p.value], side)
    return ZKind(code), float(z), float(bound)


# z-value of p = 0.05 two-sided; shares use ">= Z_SIG" so a p reported as
# exactly 0.05 counts as significant
Z_SIG = float(-inv_norm_cdf(0.025))


def impute_other_censors(kind, z, bound, below) -> np.ndarray:
    """Fill the OTHER_CENSOR rows of one sample whose z is NaN with the mean
    of the sample's precise z values on the censored side of their bound
    (below it where ``below``, above it otherwise).

    Returns a new array; raises if some bound has no precise value on the
    required side.
    """
    out = np.array(z, dtype=float)
    todo = (kind == ZKind.OTHER_CENSOR.value) & np.isnan(out)
    precise = out[kind == ZKind.PRECISE.value]
    missing: list[str] = []
    for is_below, b in sorted(set(zip(below[todo].tolist(), bound[todo].tolist()))):
        pool = precise[precise < b] if is_below else precise[precise > b]
        if pool.size == 0:
            missing.append(f"z {'below' if is_below else 'above'} {b:g}")
            continue
        out[todo & (below == is_below) & (bound == b)] = pool.mean()
    if missing:
        raise ValueError(
            f"no precise z-scores available to impute censors: {', '.join(missing)}"
        )
    return out


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """The outcomes of a registry as columns, one row per outcome in
    registry order, transformed once under ``side``.

    ``kind`` holds ZKind values, ``z`` the precise z (NaN on censored rows),
    ``bound`` the censor bound on the z scale (NaN on precise rows) and
    ``below`` marks "p>t" censors.  Stages select their samples as boolean
    row masks.  ``trial_code`` is each row's trial in ``trials``, the
    registry's trial columns, which subsets share; trial-level columns
    are read through it.
    """

    side: Sidedness
    trials: Trials
    trial_code: np.ndarray
    phase: np.ndarray  # Phase values
    rank: np.ndarray  # OutcomeRank values
    kind: np.ndarray
    z: np.ndarray
    bound: np.ndarray
    below: np.ndarray
    mht: np.ndarray

    @classmethod
    def of(cls, reg: Registry, side: Sidedness, kind, z, bound) -> "OutcomeTable":
        """Table of ``reg`` given the transformed columns of its outcomes."""
        t, o = reg.trials, reg.outcomes
        return cls(
            side=side,
            trials=t,
            trial_code=o.trial,
            phase=t.phase[o.trial],
            rank=o.rank,
            kind=np.asarray(kind, dtype=str),
            z=np.asarray(z, dtype=float),
            bound=np.asarray(bound, dtype=float),
            below=o.p_kind == "gt",
            mht=o.mht.astype(int),
        )

    def subset(self, rows: np.ndarray) -> "OutcomeTable":
        """The rows selected by a mask or index array, in table order."""
        # one index array gathers every column faster than a mask each
        idx = np.flatnonzero(rows) if rows.dtype == bool else rows
        return replace(self, **{
            f.name: getattr(self, f.name)[idx]
            for f in fields(self) if f.name not in ("side", "trials")
        })

    @property
    def trial_id(self) -> np.ndarray:
        """The trial id of each row."""
        return self.trials.ids[self.trial_code]

    @property
    def industry(self) -> np.ndarray:
        """Row mask of the outcomes of industry trials."""
        return self.trials.industry[self.trial_code]

    @property
    def precise(self) -> np.ndarray:
        """Row mask of the precisely reported outcomes."""
        return self.kind == ZKind.PRECISE.value

    def sample(self, phase: Phase, outcome_rank: OutcomeRank = OutcomeRank.PRIMARY) -> np.ndarray:
        """Row mask of the outcomes of one rank in trials of one phase."""
        return (self.phase == phase.value) & (self.rank == outcome_rank.value)

    def group_mask(self, split: SponsorSplit, group: str) -> np.ndarray:
        """Trial mask of the industry trials, outcomes or not, in one group
        ("Large" or "Small") of a sponsor split."""
        large = np.array([split.classification.get(k) == "Large"
                          for k in self.trials.sponsor_keys.tolist()], dtype=bool)
        return self.trials.industry & (large == (group == "Large"))[self.trials.sponsor]

    def sponsor_groups(self, split: SponsorSplit) -> tuple[tuple[str, np.ndarray], ...]:
        """Industry row masks of the Large and Small groups of a sponsor split."""
        return tuple((g, self.group_mask(split, g)[self.trial_code]) for g in ("Large", "Small"))


def outcome_table(reg: Registry, side: Sidedness = Sidedness.TWO_SIDED) -> OutcomeTable:
    """Transform every outcome of ``reg`` at once into an :class:`OutcomeTable`."""
    return OutcomeTable.of(
        reg, side, *transform_arrays(reg.outcomes.p_kind, reg.outcomes.p_value, side)
    )
