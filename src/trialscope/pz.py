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

# The complementary error function is Cephes erfc (Moshier 1989, "Methods
# and Programs for Mathematical Functions", ndtr.c), the function that
# scipy.special.erfc evaluates, ported here with its tables, Horner order
# and underflow cut so that it gives scipy's results bit for bit without
# the cost of importing scipy in every command.  Not math.erfc: it differs
# from Cephes by a few units in the last place for about 40% of arguments,
# and the simulator draws its reported p-values through norm_cdf, so a
# switch would change every generated registry.  exp(-x^2) is math.exp,
# the C library's exp that Cephes calls, never np.exp: numpy's SIMD exp
# differs from it in the last place for a few percent of arguments.
_ERFC_P = (  # erfc(x) exp(x^2) = P(x) / Q(x) on 1 <= x < 8
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (  # monic: the leading 1 is implicit, as in Cephes p1evl
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (  # erfc(x) exp(x^2) = R(x) / S(x) on x >= 8
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (  # monic
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (  # erf(x) = x T(x^2) / U(x^2) on |x| < 1
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (  # monic
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# exp(-x^2) underflows beyond x^2 = log(DBL_MAX)
_MAXLOG = 7.09782712893383996843e2


def _horner(coefficients, x, monic=False):
    """The polynomial of ``coefficients``, highest degree first, at ``x``,
    in Cephes' Horner order: polevl, or p1evl with the leading 1 implicit
    when ``monic``."""
    y = x + coefficients[0] if monic else coefficients[0]
    for c in coefficients[1:]:
        y = y * x + c
    return y


def _erfc(a):
    """Cephes erfc, elementwise, of an array or a number; a float for a
    number or a 0-d array.  Each element evaluates only its own branch, and
    NaN propagates."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    x = np.abs(flat)
    with np.errstate(over="ignore"):  # past 1e154 -x^2 is -inf, and underflows
        z = -flat * flat
    out = (flat < 0.0) * 2.0  # where exp(-x^2) underflows
    out[np.isnan(flat)] = np.nan
    small = np.flatnonzero(x < 1.0)
    if small.size:  # erfc = 1 - erf
        v = flat[small]
        out[small] = 1.0 - v * _horner(_ERF_T, v * v) / _horner(_ERF_U, v * v, monic=True)
    for rows, num, den in ((np.flatnonzero((x >= 1.0) & (x < 8.0)), _ERFC_P, _ERFC_Q),
                           (np.flatnonzero((x >= 8.0) & (z >= -_MAXLOG)), _ERFC_R, _ERFC_S)):
        if rows.size:
            e = np.fromiter(map(math.exp, z[rows].tolist()), float, count=rows.size)
            y = (e * _horner(num, x[rows])) / _horner(den, x[rows], monic=True)
            out[rows] = np.where(flat[rows] < 0.0, 2.0 - y, y)
    return out.reshape(a.shape) if a.ndim else float(out[0])


def norm_cdf(z):
    """Standard normal CDF via the complementary error function."""
    return norm_sf(-np.asarray(z, dtype=float))


def norm_sf(z):
    """Upper-tail probability 1 - CDF(z), accurate in the far tail where
    the literal subtraction would cancel; a float for a number or a 0-d
    array."""
    z = np.asarray(z, dtype=float)
    sf = 0.5 * _erfc(z / _SQRT2)
    return sf if z.ndim else float(sf)


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
    err = np.empty_like(x)
    err[upper] = -(norm_sf(x[upper]) - (1.0 - q_arr[upper]))
    err[~upper] = norm_cdf(x[~upper]) - q_arr[~upper]
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
