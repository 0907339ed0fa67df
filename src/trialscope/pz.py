"""Transform reported p-values into censored z-scores.

Reported p-values become absolute z-statistics of a two-sided normal test
(one-sided variant available).  Very small p-values are almost never
reported precisely, so the right tail of the z-distribution is censored:
"p<0.001" and "p<0.0001" map to dedicated censor kinds, anything censored
at some other level is carried as an interval with an imputable value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.special import erfc

from .registry import (
    OutcomeRank,
    Phase,
    Registry,
    ReportedP,
    SponsorClass,
    SponsorSplit,
    canonical_sponsor,
)

__all__ = [
    "Sidedness",
    "ZKind",
    "ZScore",
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
    "impute_arrays",
    "outcome_table",
]

# Censor bounds for "p<0.001" / "p<0.0001" under the two-sided transform,
# fixed to 4 decimals.
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


@dataclass(frozen=True)
class ZScore:
    """A z-statistic that is either precise or known only as an inequality.

    For OTHER_CENSOR, ``bound`` is the censor level on the z scale,
    ``direction`` is "above" or "below", and ``imputed_z`` is filled in by
    :func:`impute_other_censors` (None until then).
    """

    kind: ZKind
    z: float | None = None
    direction: str | None = None
    bound: float | None = None
    imputed_z: float | None = None

    def __post_init__(self) -> None:
        if self.kind is ZKind.PRECISE:
            # two-sided transforms yield z >= 0; one-sided values go
            # negative for p above one half, so only finiteness is enforced
            if self.z is None or not math.isfinite(self.z):
                raise ValueError(f"precise z must be finite, got {self.z}")
        elif self.kind is ZKind.OTHER_CENSOR:
            if self.direction not in ("above", "below"):
                raise ValueError(f"bad censor direction: {self.direction!r}")
            if self.bound is None:
                raise ValueError("other_censor requires a bound")
            if self.imputed_z is not None:
                lo_ok = self.direction == "above" and self.imputed_z > self.bound
                hi_ok = self.direction == "below" and self.imputed_z < self.bound
                if not (lo_ok or hi_ok):
                    raise ValueError(
                        f"imputed z {self.imputed_z} not strictly "
                        f"{self.direction} bound {self.bound}"
                    )

    @classmethod
    def precise(cls, z: float) -> "ZScore":
        return cls(ZKind.PRECISE, z=float(z))

    @classmethod
    def above_d1(cls, bound: float = Z_D1) -> "ZScore":
        return cls(ZKind.ABOVE_D1, direction="above", bound=bound)

    @classmethod
    def above_d2(cls, bound: float = Z_D2) -> "ZScore":
        return cls(ZKind.ABOVE_D2, direction="above", bound=bound)

    @classmethod
    def other_censor(cls, direction: str, bound: float) -> "ZScore":
        return cls(ZKind.OTHER_CENSOR, direction=direction, bound=float(bound))

    @property
    def is_precise(self) -> bool:
        return self.kind is ZKind.PRECISE

    def effective_z(self) -> float:
        """Value used in share computations: precise z, the censor bound for
        D1/D2 (all mass sits above it), or the imputed value."""
        if self.kind is ZKind.PRECISE:
            return self.z  # type: ignore[return-value]
        if self.kind in (ZKind.ABOVE_D1, ZKind.ABOVE_D2):
            return self.bound  # type: ignore[return-value]
        if self.imputed_z is None:
            raise ValueError("other_censor score has no imputed value yet")
        return self.imputed_z


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


def transform(p: ReportedP, side: Sidedness = Sidedness.TWO_SIDED) -> ZScore:
    """Map one reported p-value to its (possibly censored) z-score; see
    :func:`transform_arrays`.  OTHER_CENSOR bounds face away from the
    reported inequality: "p<t" means z above the bound."""
    (code,), (z,), (bound,) = transform_arrays([p.kind], [p.value], side)
    kind = ZKind(code)
    if kind is ZKind.PRECISE:
        return ZScore.precise(z)
    direction = "below" if p.kind == "gt" else "above"
    return ZScore(kind, direction=direction, bound=float(bound))


# z-value of p = 0.05 two-sided; shares use ">= Z_SIG" so a p reported as
# exactly 0.05 counts as significant
Z_SIG = float(-inv_norm_cdf(0.025))


def impute_arrays(kind, z, bound, below) -> np.ndarray:
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


def impute_other_censors(scores: Sequence[ZScore]) -> list[ZScore]:
    """Fill every OTHER_CENSOR with the mean of the precise z values on its
    censored side of the bound, computed within this collection; see
    :func:`impute_arrays`.  Returns a new list."""
    filled = impute_arrays(
        np.array([s.kind.value for s in scores], dtype=str),
        [s.z if s.is_precise else s.imputed_z for s in scores],
        np.array([np.nan if s.bound is None else s.bound for s in scores]),
        np.array([s.direction == "below" for s in scores], dtype=bool),
    )
    return [
        replace(s, imputed_z=float(v))
        if s.kind is ZKind.OTHER_CENSOR and s.imputed_z is None else s
        for s, v in zip(scores, filled)
    ]


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """The outcomes of a registry as columns, one row per outcome in
    registry order, transformed once under ``side``.

    ``kind`` holds ZKind values, ``z`` the precise z (NaN on censored rows),
    ``bound`` the censor bound on the z scale (NaN on precise rows) and
    ``below`` marks "p>t" censors.  Stages select their samples as boolean
    row masks.  The trial-level columns (phase, industry flag, canonical
    sponsor key and the selection regressors) repeat on each row of a trial.
    """

    side: Sidedness
    trial_id: np.ndarray
    phase: np.ndarray  # Phase values
    industry: np.ndarray
    sponsor: np.ndarray
    rank: np.ndarray  # OutcomeRank values
    kind: np.ndarray
    z: np.ndarray
    bound: np.ndarray
    below: np.ndarray
    mht: np.ndarray
    sqrt_enroll: np.ndarray
    placebo: np.ndarray
    condition: np.ndarray
    year: np.ndarray
    # canonical sponsor key of every industry trial of the registry,
    # with or without outcomes
    industry_sponsor: Mapping[str, str]

    @classmethod
    def of(cls, reg: Registry, side: Sidedness, kind, z, bound) -> "OutcomeTable":
        """Table of ``reg`` given the transformed columns of its outcomes."""
        trial_cols = {
            tid: (
                t.phase.value,
                t.sponsor_class is SponsorClass.INDUSTRY,
                canonical_sponsor(t.sponsor_name),
                math.sqrt(t.enrollment),
                int(t.placebo_comparator),
                t.condition_category,
                str(t.completion_date.year) if t.completion_date is not None else "unknown",
            )
            for tid, t in reg.trials.items()
        }
        per_row = [trial_cols[o.trial_id] for o in reg.outcomes]

        def col(j: int, dtype) -> np.ndarray:
            return np.array([r[j] for r in per_row], dtype=dtype)

        return cls(
            side=side,
            trial_id=np.array([o.trial_id for o in reg.outcomes], dtype=str),
            phase=col(0, str),
            industry=col(1, bool),
            sponsor=col(2, str),
            rank=np.array([o.outcome_rank.value for o in reg.outcomes], dtype=str),
            kind=np.asarray(kind, dtype=str),
            z=np.asarray(z, dtype=float),
            bound=np.asarray(bound, dtype=float),
            below=np.array([o.raw_p.kind == "gt" for o in reg.outcomes], dtype=bool),
            mht=np.array([o.mht_adjusted for o in reg.outcomes], dtype=int),
            sqrt_enroll=col(3, float),
            placebo=col(4, int),
            condition=col(5, str),
            year=col(6, str),
            industry_sponsor={tid: c[2] for tid, c in trial_cols.items() if c[1]},
        )

    def subset(self, rows: np.ndarray) -> "OutcomeTable":
        """The rows selected by a mask or index array, in table order."""
        return replace(self, **{
            f.name: getattr(self, f.name)[rows]
            for f in fields(self) if f.name not in ("side", "industry_sponsor")
        })

    def isin(self, column: str, values) -> np.ndarray:
        """Row mask: the value of ``column`` is one of ``values``."""
        return np.isin(getattr(self, column), np.array(list(values), dtype=str))

    @property
    def precise(self) -> np.ndarray:
        """Row mask of the precisely reported outcomes."""
        return self.kind == ZKind.PRECISE.value

    def sample(self, phase: Phase, outcome_rank: OutcomeRank = OutcomeRank.PRIMARY) -> np.ndarray:
        """Row mask of the outcomes of one rank in trials of one phase."""
        return (self.phase == phase.value) & (self.rank == outcome_rank.value)

    def sponsor_groups(self, split: SponsorSplit) -> tuple[tuple[str, np.ndarray], ...]:
        """Industry row masks of the Large and Small groups of a sponsor split."""
        large = self.isin("sponsor", (k for k, g in split.classification.items() if g == "Large"))
        return ("Large", self.industry & large), ("Small", self.industry & ~large)

    def group_trials(self, split: SponsorSplit, group: str) -> frozenset[str]:
        """The industry trials of the registry, outcomes or not, in one group
        ("Large" or "Small") of a sponsor split."""
        large = group == "Large"
        return frozenset(
            tid for tid, key in self.industry_sponsor.items()
            if (split.classification.get(key) == "Large") == large
        )


def outcome_table(reg: Registry, side: Sidedness = Sidedness.TWO_SIDED) -> OutcomeTable:
    """Transform every outcome of ``reg`` at once into an :class:`OutcomeTable`."""
    raw = [o.raw_p for o in reg.outcomes]
    return OutcomeTable.of(
        reg, side, *transform_arrays([p.kind for p in raw], [p.value for p in raw], side)
    )
