"""Logit selection function for continuation into the next phase.

One observation per trial-outcome: continuation regressed on the phase II
z-score (zeroed for censored scores), censor dummies, controls, condition
and completion-year fixed effects.  Maximum likelihood via iteratively
reweighted least squares; covariance is a cluster-robust sandwich with a
small-sample factor, clustered at the condition-category level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .linker import LinkResult
from .pz import OutcomeTable, Sidedness, ZKind, impute_arrays, transform
from .registry import OutcomeRank, Phase, Registry

__all__ = [
    "PinnedDesign",
    "SelectionDesign",
    "SelectionModel",
    "SeparationError",
    "build_design",
    "design_rows",
    "link_labels",
    "fit_logit",
    "wald_equality",
    "predict",
    "CORE_COEFS",
]

CORE_COEFS = ("const", "z_ph2", "d1", "d2")


class SeparationError(RuntimeError):
    pass


@dataclass
class SelectionDesign:
    """Columnar trial-outcome design.  ``bound`` is each row's censor bound
    on the z scale (NaN on precise rows); ``z`` is the regressor, zero on
    D1/D2 rows."""

    y: np.ndarray
    z: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    sqrt_enroll: np.ndarray
    placebo: np.ndarray
    mht: np.ndarray
    condition: np.ndarray
    year: np.ndarray
    trial_id: np.ndarray
    kind: np.ndarray  # z-score kind code per row ("precise", "above_d1", ...)
    bound: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.y)
        for name in ("z", "d1", "d2", "sqrt_enroll", "placebo", "mht",
                     "condition", "year", "trial_id", "kind", "bound"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if np.any(self.d1 * self.d2 != 0):
            raise ValueError("d1 and d2 are mutually exclusive")
        if np.any((self.z != 0) & ((self.d1 == 1) | (self.d2 == 1))):
            raise ValueError("censored rows must carry z = 0")

    @property
    def n_obs(self) -> int:
        return len(self.y)

    @property
    def n_trials(self) -> int:
        return len(np.unique(self.trial_id))

    @property
    def share_z(self) -> np.ndarray:
        """The z at which each row enters a share: D1/D2 rows at their bound."""
        return np.where((self.d1 == 1) | (self.d2 == 1), self.bound, self.z)

    def subset(self, idx: np.ndarray) -> "SelectionDesign":
        return SelectionDesign(
            y=self.y[idx], z=self.z[idx], d1=self.d1[idx], d2=self.d2[idx],
            sqrt_enroll=self.sqrt_enroll[idx], placebo=self.placebo[idx],
            mht=self.mht[idx], condition=self.condition[idx], year=self.year[idx],
            trial_id=self.trial_id[idx], kind=self.kind[idx], bound=self.bound[idx],
        )


_DESIGN_COLUMNS = frozenset(f.name for f in fields(SelectionDesign))


@dataclass
class SelectionModel:
    names: list[str]
    coef: np.ndarray
    vcov: np.ndarray
    converged: bool
    n_obs: int
    n_trials: int
    n_clusters: int
    log_likelihood: float
    mean_dep: float
    levels: dict = field(default_factory=dict)  # categorical -> (ref, other levels)
    dropped: list[str] = field(default_factory=list)

    @property
    def coefficients(self) -> dict[str, float]:
        return dict(zip(self.names, self.coef.tolist()))

    def se(self) -> dict[str, float]:
        return dict(zip(self.names, np.sqrt(np.diag(self.vcov)).tolist()))


# ---------------------------------------------------------------------------
# Design construction

def link_labels(trial_id: np.ndarray, link_results: Sequence[LinkResult]) -> np.ndarray:
    """Continuation label per row: 1.0 or 0.0 for rows of trials eligible
    for linking, NaN elsewhere."""
    eligible = [r.phase2_id for r in link_results if r.eligible]
    continued = [r.phase2_id for r in link_results if r.eligible and r.continued]
    return np.where(
        np.isin(trial_id, np.array(eligible, dtype=str)),
        np.isin(trial_id, np.array(continued, dtype=str)).astype(float),
        np.nan,
    )


def design_rows(table: OutcomeTable, rows: np.ndarray, y: np.ndarray) -> SelectionDesign:
    """Design over the table rows selected by a mask, with labels ``y``.
    Other censors are imputed within these rows."""
    if not rows.any():
        raise ValueError("selection design is empty")
    t = table.subset(rows)
    d1 = (t.kind == ZKind.ABOVE_D1.value).astype(int)
    d2 = (t.kind == ZKind.ABOVE_D2.value).astype(int)
    z = impute_arrays(t.kind, t.z, t.bound, t.below)
    return SelectionDesign(
        y=y, z=np.where((d1 == 1) | (d2 == 1), 0.0, z), d1=d1, d2=d2,
        sqrt_enroll=t.sqrt_enroll, placebo=t.placebo, mht=t.mht,
        condition=t.condition, year=t.year, trial_id=t.trial_id, kind=t.kind,
        bound=t.bound,
    )


def build_design(
    table: OutcomeTable | Registry,
    link_results: Sequence[LinkResult],
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
) -> SelectionDesign:
    """One row per industry phase II trial-outcome with a linked
    continuation label.  Censored scores enter with z = 0 and the matching
    dummy; other censors get their imputed value as the z regressor.

    A registry is transformed two-sided, one outcome at a time through the
    scalar :func:`transform`; pipelines pass the table of
    :func:`~trialscope.pz.outcome_table`, built once.
    """
    if isinstance(table, Registry):
        scores = [transform(o.raw_p) for o in table.outcomes]
        table = OutcomeTable.of(
            table, Sidedness.TWO_SIDED, [s.kind.value for s in scores],
            [s.z if s.is_precise else np.nan for s in scores],
            [np.nan if s.is_precise else s.bound for s in scores],
        )
    labels = link_labels(table.trial_id, link_results)
    rows = table.industry & table.sample(Phase.PHASE2, outcome_rank) & ~np.isnan(labels)
    return design_rows(table, rows, labels[rows])


def _dummy_levels(values: np.ndarray, fixed: tuple | None) -> tuple[str, list[str]]:
    """Reference level (most frequent) and remaining levels, or the fixed
    assignment when refitting/predicting with an existing layout."""
    if fixed is not None:
        return fixed
    vals, counts = np.unique(values.astype(str), return_counts=True)
    order = np.lexsort((vals, -counts))
    ref = vals[order[0]]
    others = sorted(v for v in vals if v != ref)
    return str(ref), [str(v) for v in others]


def build_matrix(
    design: SelectionDesign,
    levels: Mapping[str, tuple] | None = None,
    warn_unseen: bool = False,
) -> tuple[np.ndarray, list[str], dict]:
    """Design matrix with explicit fixed-effect dummies.

    ``levels`` pins the categorical layout (reference + levels) so a
    matrix for new data aligns with a fitted model; unseen levels fold
    into the reference.
    """
    fixed = levels or {}
    cond_ref, cond_levels = _dummy_levels(design.condition, fixed.get("condition"))
    year_ref, year_levels = _dummy_levels(design.year, fixed.get("year"))

    cols = [np.ones(design.n_obs), design.z, design.d1, design.d2,
            design.sqrt_enroll, design.placebo, design.mht]
    names = ["const", "z_ph2", "d1", "d2", "sqrt_enroll", "placebo", "mht_adjusted"]
    cond = design.condition.astype(str)
    year = design.year.astype(str)
    if warn_unseen:
        for label, vals, known, ref in (
            ("condition", cond, cond_levels, cond_ref),
            ("year", year, year_levels, year_ref),
        ):
            unseen = set(np.unique(vals)) - set(known) - {ref}
            if unseen:
                warnings.warn(
                    f"unseen {label} levels {sorted(unseen)} folded into "
                    f"reference {ref!r}"
                )
    for lv in cond_levels:
        cols.append((cond == lv).astype(float))
        names.append(f"cond:{lv}")
    for lv in year_levels:
        cols.append((year == lv).astype(float))
        names.append(f"year:{lv}")
    X = np.column_stack(cols)
    out_levels = {"condition": (cond_ref, cond_levels), "year": (year_ref, year_levels)}
    return X, names, out_levels


def _drop_collinear(
    X: np.ndarray, names: Sequence[str], tol: float = 1e-8
) -> tuple[np.ndarray, list[str]]:
    """Indices of the columns a greedy Gram-Schmidt pass keeps, and the
    names it drops.  A column is kept when its residual on the kept
    earlier columns exceeds ``tol`` times its norm (at least 1); earlier
    columns win, so the core regressors (listed first) are always retained.

    Columns of norm at most ``tol`` are dropped first: the greedy pass
    drops them and they leave its basis unchanged.  The residual norms of
    the others are the pivots of the Cholesky factor of X'X; when every
    pivot clears 100 times its tolerance, the greedy pass would keep every
    column and is skipped.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    cols = np.flatnonzero(norms > tol)
    Xc = X if len(cols) == X.shape[1] else X[:, cols]
    floor = tol * np.maximum(norms[cols], 1.0)
    try:
        pivots = np.diag(np.linalg.cholesky(Xc.T @ Xc))
        screened = bool(np.all(pivots > 100.0 * floor))
    except np.linalg.LinAlgError:
        screened = False
    if not screened:
        cols = cols[_greedy_keep(Xc, floor)]
    kept = set(cols.tolist())
    dropped = [nm for j, nm in enumerate(names) if j not in kept]
    if dropped:
        warnings.warn(f"dropping collinear columns: {dropped}")
    return cols, dropped


def _greedy_keep(X: np.ndarray, floor: np.ndarray) -> list[int]:
    """Columns whose Gram-Schmidt residual on the kept earlier columns
    exceeds their ``floor``."""
    Q = np.empty((X.shape[0], 0))
    keep = []
    for j in range(X.shape[1]):
        col = X[:, j]
        resid = col - Q @ (Q.T @ col) if Q.shape[1] else col.copy()
        norm = np.linalg.norm(resid)
        if norm > floor[j]:
            keep.append(j)
            Q = np.column_stack([Q, resid / norm])
    return keep


def _expit(eta: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-free: 1/(1+e^-x) for x >= 0 and
    e^x/(1+e^x) below."""
    ex = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _log_likelihood(y: np.ndarray, p: np.ndarray, c: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(np.sum(c * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _cluster_sums(scores: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """Row sums of ``scores`` within each cluster present, one row per
    cluster, for integer cluster codes (rows already in code order are
    not sorted)."""
    if np.any(clusters[1:] < clusters[:-1]):
        order = np.argsort(clusters, kind="stable")
        scores, clusters = scores[order], clusters[order]
    starts = np.flatnonzero(np.r_[True, clusters[1:] != clusters[:-1]])
    return np.add.reduceat(scores, starts, axis=0)


@dataclass
class _Fit:
    beta: np.ndarray
    converged: bool
    vcov: np.ndarray
    n_clusters: int
    log_likelihood: float


def _irls(
    X: np.ndarray,
    y: np.ndarray,
    clusters: np.ndarray,
    beta: np.ndarray,
    names: Sequence[str],
    max_iter: int = 100,
    score_tol: float = 1e-8,
    ll_tol: float = 1e-12,
    weights: np.ndarray | None = None,
) -> _Fit:
    """The logit fit on a screened matrix: IRLS from ``beta``, the
    separation check and the clustered sandwich covariance (``clusters``
    are integer codes) with its positive-semidefiniteness check.

    ``weights`` are positive frequency weights: a row of weight c counts as
    c copies of it in every term, and the small-sample factor counts
    sum(c) observations.  None is one per row."""
    if y.size == 0 or y.min() == y.max():
        raise ValueError("need both outcome classes to fit a logit")
    c = np.ones(y.size) if weights is None else weights
    n, k = float(c.sum()), X.shape[1]
    p = _expit(X @ beta)
    ll = _log_likelihood(y, p, c)
    ll_old = -np.inf
    converged = False
    for _ in range(max_iter):
        score = X.T @ (c * (y - p))
        if np.max(np.abs(score)) < score_tol:
            converged = True
            break
        if np.isfinite(ll_old) and abs(ll - ll_old) < ll_tol * (abs(ll_old) + 1e-30):
            converged = True
            break
        ll_old = ll
        w = c * np.maximum(p * (1.0 - p), 1e-10)
        XtWX = (X * w[:, None]).T @ X
        try:
            delta = np.linalg.solve(XtWX, score)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(f"singular information matrix: {exc}") from exc
        # dampened step if the likelihood would not improve
        step = 1.0
        for _ in range(8):
            cand = beta + step * delta
            p_cand = _expit(X @ cand)
            ll_cand = _log_likelihood(y, p_cand, c)
            if ll_cand >= ll - 1e-12:
                break
            step *= 0.5
        else:
            cand = beta + step * delta
            p_cand = _expit(X @ cand)
            ll_cand = _log_likelihood(y, p_cand, c)
        beta, p, ll = cand, p_cand, ll_cand

    w = c * np.maximum(p * (1.0 - p), 1e-10)
    XtWX = (X * w[:, None]).T @ X
    bread = np.linalg.inv(XtWX)

    plain_se = np.sqrt(np.maximum(np.diag(bread), 0.0))
    blown = (np.abs(beta) > 15.0) & (plain_se > 5.0)
    if np.any(blown):
        bad = [names[j] for j in np.where(blown)[0]]
        raise SeparationError(
            f"complete separation suspected: runaway coefficient on {bad}"
        )

    sums = _cluster_sums((c * (y - p))[:, None] * X, clusters)
    meat = sums.T @ sums
    n_clusters = len(sums)
    if n_clusters > 1:
        factor = (n_clusters / (n_clusters - 1.0)) * ((n - 1.0) / max(n - k, 1.0))
    else:
        factor = 1.0
    vcov = factor * bread @ meat @ bread
    vcov = 0.5 * (vcov + vcov.T)
    eigs = np.linalg.eigvalsh(vcov)
    if eigs.min() < -1e-8 * max(eigs.max(), 1.0):
        raise RuntimeError("clustered covariance is not positive semidefinite")
    return _Fit(beta, converged, vcov, n_clusters, ll)


def fit_logit(
    design: SelectionDesign,
    cluster_by: str = "condition",
    max_iter: int = 100,
    score_tol: float = 1e-8,
    ll_tol: float = 1e-12,
    warm_start: Mapping[str, float] | None = None,
) -> SelectionModel:
    """IRLS maximum likelihood with a clustered sandwich covariance.

    Convergence when the largest score component falls below ``score_tol``
    or the relative log-likelihood change falls below ``ll_tol``.
    Clusters are the values of the design column ``cluster_by``, by
    default the condition category; the sandwich carries the
    G/(G-1) * (N-1)/(N-K) small-sample factor.  ``warm_start`` seeds named
    coefficients (bootstrap refits converge in a few steps).
    """
    if cluster_by not in _DESIGN_COLUMNS:
        raise ValueError(f"unknown cluster column {cluster_by!r}")
    clusters = np.unique(getattr(design, cluster_by).astype(str), return_inverse=True)[1]
    y = design.y.astype(float)
    X_full, names_full, levels = build_matrix(design)
    cols, dropped = _drop_collinear(X_full, names_full)
    names = [names_full[j] for j in cols]
    warm = warm_start or {}
    beta = np.array([warm.get(nm, 0.0) for nm in names])
    fit = _irls(X_full[:, cols], y, clusters, beta, names, max_iter, score_tol, ll_tol)
    return SelectionModel(
        names=names,
        coef=fit.beta,
        vcov=fit.vcov,
        converged=fit.converged,
        n_obs=len(y),
        n_trials=design.n_trials,
        n_clusters=fit.n_clusters,
        log_likelihood=fit.log_likelihood,
        mean_dep=float(y.mean()),
        levels=levels,
        dropped=dropped,
    )


class PinnedDesign:
    """The matrix of a design, built once with its full-sample dummy
    layout, for logit refits on reweightings of its rows (bootstrap reps).

    Rows labelled NaN enter predictions but not fits.  A refit screens the
    columns of its weighted fitting rows, so a dummy level absent from
    them folds into the reference, and starts from the coefficients of
    ``start``.
    """

    def __init__(self, design: SelectionDesign, labels: np.ndarray, start: SelectionModel):
        self.X, self.names, _ = build_matrix(design)
        clusters = np.unique(design.condition.astype(str), return_inverse=True)[1]
        # fitting rows in cluster order, so a refit's cluster sums need no sort
        fitting = np.flatnonzero(~np.isnan(labels))
        self.fitting = fitting[np.argsort(clusters[fitting], kind="stable")]
        self.X_fit = self.X[self.fitting]
        self.y_fit = labels[self.fitting]
        self.clusters_fit = clusters[self.fitting]
        warm = start.coefficients
        self.beta0 = np.array([warm.get(nm, 0.0) for nm in self.names])

    def refit_predict(self, counts: np.ndarray) -> np.ndarray | None:
        """Continuation probabilities of every row from a refit in which
        each labelled row counts ``counts`` times, clustered by condition;
        None when the refit does not converge.  Equals a refit on the rows
        repeated that often.  Raises like :func:`fit_logit`."""
        counts = counts[self.fitting]
        drawn = np.flatnonzero(counts)
        c = counts[drawn].astype(float)
        X_fit = self.X_fit[drawn]
        # the screen sees sqrt(c) X, whose Gram matrix is that of the repeated rows
        cols, _ = _drop_collinear(np.sqrt(c)[:, None] * X_fit, self.names)
        X = self.X
        if len(cols) < len(self.names):
            X, X_fit = X[:, cols], X_fit[:, cols]
        fit = _irls(
            X_fit, self.y_fit[drawn], self.clusters_fit[drawn], self.beta0[cols],
            [self.names[j] for j in cols], weights=c,
        )
        return _expit(X @ fit.beta) if fit.converged else None


def wald_equality(
    model_a: SelectionModel,
    model_b: SelectionModel,
    coef_names: Sequence[str] = CORE_COEFS,
) -> float:
    """P-value of the Wald test that the named coefficients are jointly
    equal across two independently fitted models."""
    if not (model_a.converged and model_b.converged):
        raise ValueError("both models must have converged")
    for name in coef_names:
        if name not in model_a.names or name not in model_b.names:
            raise ValueError(f"coefficient {name!r} missing from a model")
    ia = [model_a.names.index(c) for c in coef_names]
    ib = [model_b.names.index(c) for c in coef_names]
    diff = model_a.coef[ia] - model_b.coef[ib]
    V = model_a.vcov[np.ix_(ia, ia)] + model_b.vcov[np.ix_(ib, ib)]
    try:
        sol = np.linalg.solve(V, diff)
    except np.linalg.LinAlgError as exc:
        raise ValueError("combined covariance is singular") from exc
    stat = float(diff @ sol)
    # imported here: scipy.stats takes most of a second to load, and no CLI
    # command needs it
    from scipy.stats import chi2

    return float(chi2.sf(stat, df=len(coef_names)))


def predict(model: SelectionModel, design: SelectionDesign) -> np.ndarray:
    """Continuation probabilities for rows sharing the design schema."""
    if not model.converged:
        raise ValueError("model did not converge")
    X, names, _ = build_matrix(design, levels=model.levels, warn_unseen=True)
    name_to_col = {nm: j for j, nm in enumerate(names)}
    cols = [name_to_col[nm] for nm in model.names]
    return _expit(X[:, cols] @ model.coef)


def predict_at_mean(
    model: SelectionModel, design: SelectionDesign, z_grid: Sequence[float]
) -> np.ndarray:
    """Predicted continuation probability as a function of the z-score,
    every other regressor held at its sample mean (censor dummies off)."""
    X, names, _ = build_matrix(design, levels=model.levels)
    cols = [names.index(nm) for nm in model.names]
    xbar = X[:, cols].mean(axis=0)
    rows = np.tile(xbar, (len(z_grid), 1))
    for special, value in (("z_ph2", np.asarray(z_grid, dtype=float)), ("d1", 0.0), ("d2", 0.0)):
        if special in model.names:
            rows[:, model.names.index(special)] = value
    return _expit(rows @ model.coef)
