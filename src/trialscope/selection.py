"""Logit selection function for continuation into the next phase.

One observation per trial-outcome: continuation regressed on the phase II
z-score (zeroed for censored scores), censor dummies, controls, condition
and completion-year fixed effects.  Maximum likelihood via iteratively
reweighted least squares; covariance is a cluster-robust sandwich with a
small-sample factor, clustered at the condition-category level.

The fixed-effect dummies of a row depend on it only through its
(condition, year) cell, so the design matrix is held factored: 7 dense
columns, each row's cell, and the dummies of each cell.  Fits, refits and
predictions never materialise the 0/1 columns; ``build_matrix`` does, for
callers that want the dense matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .linker import Links
from .pz import OutcomeTable, Sidedness, ZKind, impute_other_censors, transform
from .registry import OutcomeRank, Phase, Registry, ReportedP, Trials

__all__ = [
    "PinnedDesign",
    "PinnedRows",
    "SelectionDesign",
    "SelectionModel",
    "SeparationError",
    "build_design",
    "design_rows",
    "fit_logit",
    "wald_equality",
    "predict",
    "CORE_COEFS",
]

CORE_COEFS = ("const", "z_ph2", "d1", "d2")

# IRLS stops after MAX_ITER Newton steps, or once the largest score
# component falls below SCORE_TOL or the relative log-likelihood change
# below LL_TOL
MAX_ITER, SCORE_TOL, LL_TOL = 100, 1e-8, 1e-12


class SeparationError(RuntimeError):
    pass


@dataclass
class SelectionDesign:
    """Columnar trial-outcome design.  ``bound`` is each row's censor bound
    on the z scale (NaN on precise rows); ``z`` is the regressor, zero on
    D1/D2 rows.  ``trial_code`` is each row's trial in ``trials``, through
    which the trial-level regressors are read."""

    trials: Trials
    y: np.ndarray
    z: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    mht: np.ndarray
    trial_code: np.ndarray
    kind: np.ndarray  # z-score kind code per row ("precise", "above_d1", ...)
    bound: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.y)
        for f in fields(self)[1:]:
            if len(getattr(self, f.name)) != n:
                raise ValueError(f"column {f.name} has wrong length")
        if np.any(self.d1 * self.d2 != 0):
            raise ValueError("d1 and d2 are mutually exclusive")
        if np.any((self.z != 0) & ((self.d1 == 1) | (self.d2 == 1))):
            raise ValueError("censored rows must carry z = 0")

    @property
    def n_obs(self) -> int:
        return len(self.y)

    @property
    def n_trials(self) -> int:
        return int(np.count_nonzero(np.bincount(self.trial_code)))

    @property
    def sqrt_enroll(self) -> np.ndarray:
        return np.sqrt(self.trials.enrollment[self.trial_code])

    @property
    def placebo(self) -> np.ndarray:
        return self.trials.placebo[self.trial_code].astype(int)

    @property
    def condition(self) -> np.ndarray:  # codes into trials.conditions
        return self.trials.condition[self.trial_code]

    @property
    def year(self) -> np.ndarray:  # codes into trials.years
        return self.trials.year[self.trial_code]

    @property
    def share_z(self) -> np.ndarray:
        """The z at which each row enters a share: D1/D2 rows at their bound."""
        return np.where((self.d1 == 1) | (self.d2 == 1), self.bound, self.z)

    def subset(self, idx: np.ndarray) -> "SelectionDesign":
        return replace(self, **{f.name: getattr(self, f.name)[idx] for f in fields(self)[1:]})


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

def design_rows(table: OutcomeTable, rows: np.ndarray, y: np.ndarray) -> SelectionDesign:
    """Design over the table rows selected by a mask, with labels ``y``.
    Other censors are imputed within these rows."""
    if not rows.any():
        raise ValueError("selection design is empty")
    t = table.subset(rows)
    d1 = (t.kind == ZKind.ABOVE_D1.value).astype(int)
    d2 = (t.kind == ZKind.ABOVE_D2.value).astype(int)
    z = impute_other_censors(t.kind, t.z, t.bound, t.below)
    return SelectionDesign(
        trials=t.trials, y=y, z=np.where((d1 == 1) | (d2 == 1), 0.0, z), d1=d1, d2=d2,
        mht=t.mht, trial_code=t.trial_code, kind=t.kind, bound=t.bound,
    )


def build_design(
    table: OutcomeTable | Registry,
    links: Links,
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
        o = table.outcomes  # reshape: an empty registry gives three empty columns
        kind, z, bound = np.array(
            [transform(ReportedP(k, v)) for k, v in zip(o.p_kind.tolist(), o.p_value.tolist())],
            dtype=object,
        ).reshape(-1, 3).T
        table = OutcomeTable.of(table, Sidedness.TWO_SIDED, [k.value for k in kind], z, bound)
    labels = links.labels(table.trials.ids)[table.trial_code]
    rows = table.industry & table.sample(Phase.PHASE2, outcome_rank) & ~np.isnan(labels)
    return design_rows(table, rows, labels[rows])


DENSE_COLUMNS = ("const", "z_ph2", "d1", "d2", "sqrt_enroll", "placebo", "mht_adjusted")


def _layout(
    codes: np.ndarray, names: np.ndarray, fixed: tuple | None, label: str, warn_unseen: bool
) -> tuple[tuple[str, list[str]], np.ndarray]:
    """The layout of a categorical column coded into the sorted level
    ``names``: its reference level (the most frequent, the smallest name
    among ties) and the remaining levels present, or the ``fixed`` layout
    of an existing fit, by name; and the 0/1 dummies of each code, one
    column per remaining level.  Values outside the layout fold into the
    reference."""
    counts = np.bincount(codes, minlength=len(names))
    names = names.tolist()
    present = [names[j] for j in np.flatnonzero(counts).tolist()]
    if fixed is None:
        ref = names[int(np.argmax(counts))]
        fixed = (ref, [v for v in present if v != ref])
    ref, levels = fixed
    unseen = set(present) - set(levels) - {ref}
    if warn_unseen and unseen:
        warnings.warn(f"unseen {label} levels {sorted(unseen)} folded into reference {ref!r}")
    at = {v: j for j, v in enumerate(names)}
    level_codes = np.array([at.get(lv, -1) for lv in levels], dtype=np.intp)
    return fixed, (np.arange(len(names))[:, None] == level_codes).astype(float)


class _Cells:
    """A design matrix X = [dense, incidence[cell]] in factored form: the
    7 dense columns of each row, and the condition and year dummies, which
    depend on a row only through its (condition, year) cell.  Row j of
    ``incidence`` holds the dummies of cell j, condition-major, and
    ``cell`` is each row's cell; no 0/1 column is built.

    The sums over rows (X'WX, X'r, the cluster sums) take n x 7 dense
    products and one ``np.add.reduceat`` over the runs of equal cells; the
    rest are products of cell-level matrices.  They hold in any row order,
    and rows grouped by cell, then cluster (:meth:`grouped`), make one run
    per cell and sum condition clusters without a sort.
    """

    def __init__(self, dense, cell, incidence, names, clusters=None):
        # column-major: each product and sum over rows reads contiguous columns
        self.dense, self.cell = np.asfortranarray(dense), cell
        self.incidence, self.names, self.clusters = incidence, names, clusters

    def take(self, rows: np.ndarray) -> "_Cells":
        clusters = None if self.clusters is None else self.clusters[rows]
        return _Cells(_take_rows(self.dense, rows), self.cell[rows], self.incidence, self.names,
                      clusters)

    def grouped(self) -> tuple["_Cells", np.ndarray]:
        """The rows sorted by cell, then cluster, and the sorting order.
        Cells are condition-major, so condition clusters stay in order."""
        order = np.lexsort((self.clusters, self.cell))
        return self.take(order), order

    def dot(self, beta: np.ndarray) -> np.ndarray:
        """X @ beta."""
        k = self.dense.shape[1]
        return self.dense @ beta[:k] + (self.incidence @ beta[k:])[self.cell]

    def materialise(self) -> np.ndarray:
        return np.hstack([self.dense, self.incidence[self.cell]])

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first row of each cell run and the dummies of its cell."""
        starts = _run_starts(self.cell[1:] != self.cell[:-1])
        return starts, self.incidence[self.cell[starts]]

    def gram(self, w: np.ndarray) -> np.ndarray:
        """X'WX for the row weights ``w``."""
        starts, M = self._runs
        k = self.dense.shape[1]
        Dw = self.dense * w[:, None]
        S = np.add.reduceat(Dw, starts)  # per cell; column 0 sums w
        G = np.empty((k + M.shape[1],) * 2)
        np.matmul(Dw.T, self.dense, out=G[:k, :k])
        np.matmul(S.T, M, out=G[:k, k:])
        G[k:, :k] = G[:k, k:].T
        np.matmul(M.T * S[:, 0], M, out=G[k:, k:])
        return G

    def xt(self, r: np.ndarray) -> np.ndarray:
        """X'r."""
        starts, M = self._runs
        return np.concatenate([r @ self.dense, np.add.reduceat(r, starts) @ M])

    def cluster_sums(self, r: np.ndarray) -> np.ndarray:
        """Sums of the rows of X scaled by ``r`` within each cluster present,
        one row per cluster in code order.  Each (cell, cluster) run is
        summed first; the runs are sorted by cluster only when out of order."""
        split = (self.cell[1:] != self.cell[:-1]) | (self.clusters[1:] != self.clusters[:-1])
        starts = _run_starts(split)
        U = np.add.reduceat(r[:, None] * self.dense, starts)  # column 0 sums r
        scores = np.hstack([U, U[:, :1] * self.incidence[self.cell[starts]]])
        clusters = self.clusters[starts]
        if np.any(clusters[1:] < clusters[:-1]):
            order = np.argsort(clusters, kind="stable")
            scores, clusters = scores[order], clusters[order]
        return np.add.reduceat(scores, _run_starts(clusters[1:] != clusters[:-1]))


def _run_starts(change: np.ndarray) -> np.ndarray:
    """The first index of each run of a sequence, given ``change``, where
    each element after the first differs from the one before it."""
    return np.concatenate(([0], np.flatnonzero(change) + 1))


def _take_rows(dense: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of a column-major matrix, column-major."""
    return dense.T[:, rows].T


def _dense(trials: Trials, trial_code, z, d1, d2, mht) -> np.ndarray:
    """The dense columns of rows of trials ``trial_code``, column-major."""
    # one (7, n) block, whose transpose is column-major: much faster than
    # np.column_stack
    return np.array([np.ones(len(z)), z, d1, d2, np.sqrt(trials.enrollment[trial_code]),
                     trials.placebo[trial_code], mht], dtype=float).T


def _cells(
    design: SelectionDesign,
    levels: Mapping[str, tuple] | None = None,
    warn_unseen: bool = False,
    clusters: np.ndarray | None = None,
) -> tuple[_Cells, dict]:
    """The factored design matrix of ``design``, rows in design order, and
    its categorical layout.  ``levels`` pins the layout (reference +
    levels) so a matrix for new data aligns with a fitted model; unseen
    levels fold into the reference."""
    dense = _dense(design.trials, design.trial_code, design.z, design.d1, design.d2, design.mht)
    return _factored(dense, design.condition, design.year, design.trials, levels, warn_unseen,
                     clusters)


def _factored(
    dense: np.ndarray,
    condition: np.ndarray,
    year: np.ndarray,
    trials: Trials,
    levels: Mapping[str, tuple] | None = None,
    warn_unseen: bool = False,
    clusters: np.ndarray | None = None,
) -> tuple[_Cells, dict]:
    """The factored matrix of rows with dense columns ``dense`` and the
    condition and year codes into ``trials``' vocabularies, and its
    layout, as :func:`_cells`."""
    fixed = levels or {}
    names, out_levels, blocks = list(DENSE_COLUMNS), {}, []
    for label, prefix, codes in (("condition", "cond", condition), ("year", "year", year)):
        layout, block = _layout(codes, getattr(trials, f"{label}s"),
                                fixed.get(label), label, warn_unseen)
        out_levels[label] = layout
        blocks.append(block)
        names += [f"{prefix}:{lv}" for lv in layout[1]]
    by_condition, by_year = blocks
    n_years = len(by_year)
    incidence = np.hstack([np.repeat(by_condition, n_years, axis=0),
                           np.tile(by_year, (len(by_condition), 1))])
    cell = condition.astype(np.intp) * n_years + year
    return _Cells(dense, cell, incidence, names, clusters), out_levels


def build_matrix(
    design: SelectionDesign,
    levels: Mapping[str, tuple] | None = None,
    warn_unseen: bool = False,
) -> tuple[np.ndarray, list[str], dict]:
    """The dense design matrix, with explicit 0/1 fixed-effect dummies: the
    factored matrix of the fits and predictions, materialised.  ``levels``
    pins the categorical layout as in :func:`predict`."""
    X, out_levels = _cells(design, levels, warn_unseen)
    return X.materialise(), X.names, out_levels


def _drop_collinear(
    X: _Cells, weights: np.ndarray | None = None, tol: float = 1e-8
) -> tuple[np.ndarray, list[str]]:
    """Indices of the columns of X (rows scaled by the square roots of the
    frequency ``weights``, so the Gram matrix is X'WX) that a greedy
    Gram-Schmidt pass keeps, and the names it drops.  A column is kept when
    its residual on the kept earlier columns exceeds ``tol`` times its
    norm (at least 1); earlier columns win, so the core regressors (listed
    first) are always retained.

    Columns of norm at most ``tol`` are dropped first: the greedy pass
    drops them and they leave its basis unchanged.  The residual norms of
    the others are the pivots of the Cholesky factor of the Gram matrix;
    when every pivot clears 100 times its tolerance, the greedy pass would
    keep every column and is skipped.  Otherwise it runs on the
    materialised columns: on the Gram matrix, an exactly collinear column
    would leave a residual of about sqrt(eps) times its norm.
    """
    c = np.ones(len(X.cell)) if weights is None else weights
    G = X.gram(c)
    norms = np.sqrt(np.diag(G))
    cols = np.flatnonzero(norms > tol)
    floor = tol * np.maximum(norms[cols], 1.0)
    try:
        pivots = np.diag(np.linalg.cholesky(G if len(cols) == len(G) else G[np.ix_(cols, cols)]))
        screened = bool(np.all(pivots > 100.0 * floor))
    except np.linalg.LinAlgError:
        screened = False
    if not screened:
        cols = cols[_greedy_keep(np.sqrt(c)[:, None] * X.materialise()[:, cols], floor)]
    kept = set(cols.tolist())
    dropped = [nm for j, nm in enumerate(X.names) if j not in kept]
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
    return np.where(eta >= 0, 1.0, ex) / (1.0 + ex)


def _log_likelihood(one: np.ndarray, p: np.ndarray, c: np.ndarray) -> float:
    """Weighted Bernoulli log-likelihood of 0/1 labels, ``one`` where they
    are 1 (the labels themselves mark the same rows).  One log per row, of
    p or 1 - p: exactly y log p + (1 - y) log(1 - p), since the labels
    (continuation, from ``Links.labels``) are exactly 0 or 1."""
    p = np.minimum(np.maximum(p, 1e-12), 1.0 - 1e-12)  # np.clip, with less overhead
    return float(np.sum(c * np.log(np.where(one, p, 1.0 - p))))


@dataclass
class _Fit:
    beta: np.ndarray
    converged: bool
    vcov: np.ndarray
    n_clusters: int
    log_likelihood: float


def _irls(
    X: _Cells,
    y: np.ndarray,
    beta: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray | None = None,
) -> _Fit:
    """The logit fit on the columns ``cols`` of a factored matrix: IRLS
    from ``beta``, the separation check and the sandwich covariance
    clustered by ``X.clusters`` (integer codes) with its
    positive-semidefiniteness check.  The other columns enter with
    coefficient 0.

    ``weights`` are positive frequency weights: a row of weight c counts as
    c copies of it in every term, and the small-sample factor counts
    sum(c) observations.  None is one per row."""
    if y.size == 0 or y.min() == y.max():
        raise ValueError("need both outcome classes to fit a logit")
    c = np.ones(y.size) if weights is None else weights
    n, k = float(c.sum()), len(cols)
    one = y == 1
    if k == len(X.names):  # every column kept: no scatter, no copy
        pick = sub = slice(None)

        def probabilities(b):
            return _expit(X.dot(b))
    else:
        pick, sub = cols, np.ix_(cols, cols)
        full = np.zeros(len(X.names))

        def probabilities(b):
            full[cols] = b
            return _expit(X.dot(full))

    p = probabilities(beta)
    ll = _log_likelihood(one, p, c)
    ll_old = -np.inf
    converged = False
    for _ in range(MAX_ITER):
        score = X.xt(c * (y - p))[pick]
        if np.max(np.abs(score)) < SCORE_TOL:
            converged = True
            break
        if np.isfinite(ll_old) and abs(ll - ll_old) < LL_TOL * (abs(ll_old) + 1e-30):
            converged = True
            break
        ll_old = ll
        w = c * np.maximum(p * (1.0 - p), 1e-10)
        try:
            delta = np.linalg.solve(X.gram(w)[sub], score)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(f"singular information matrix: {exc}") from exc
        # dampened step if the likelihood would not improve
        step = 1.0
        for _ in range(8):
            cand = beta + step * delta
            p_cand = probabilities(cand)
            ll_cand = _log_likelihood(one, p_cand, c)
            if ll_cand >= ll - 1e-12:
                break
            step *= 0.5
        else:
            cand = beta + step * delta
            p_cand = probabilities(cand)
            ll_cand = _log_likelihood(one, p_cand, c)
        beta, p, ll = cand, p_cand, ll_cand

    w = c * np.maximum(p * (1.0 - p), 1e-10)
    bread = np.linalg.inv(X.gram(w)[sub])

    plain_se = np.sqrt(np.maximum(np.diag(bread), 0.0))
    blown = (np.abs(beta) > 15.0) & (plain_se > 5.0)
    if np.any(blown):
        bad = [X.names[cols[j]] for j in np.where(blown)[0]]
        raise SeparationError(
            f"complete separation suspected: runaway coefficient on {bad}"
        )

    sums = X.cluster_sums(c * (y - p))[:, pick]
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


def _coef(model: SelectionModel, names: Sequence[str]) -> np.ndarray:
    """The model's coefficients on the columns ``names``, 0 where dropped."""
    coef = model.coefficients
    return np.array([coef.get(nm, 0.0) for nm in names])


def fit_logit(
    design: SelectionDesign,
    cluster_by: str = "condition",
    warm_start: Mapping[str, float] | None = None,
) -> SelectionModel:
    """IRLS maximum likelihood with a clustered sandwich covariance.

    Convergence when the largest score component falls below
    ``SCORE_TOL`` or the relative log-likelihood change falls below
    ``LL_TOL``, within ``MAX_ITER`` Newton steps.
    Clusters are the codes of the design column ``cluster_by``:
    "condition" (the default), "year" or "trial_code".  The sandwich
    carries the G/(G-1) * (N-1)/(N-K) small-sample factor.  ``warm_start``
    seeds named coefficients (bootstrap refits converge in a few steps).
    """
    if cluster_by not in ("condition", "year", "trial_code"):
        raise ValueError(f"unknown cluster column {cluster_by!r}")
    X, levels = _cells(design, clusters=getattr(design, cluster_by))
    X, order = X.grouped()
    return _fit(X, design.y.astype(float)[order], levels, design.n_trials, warm_start)


def _fit(
    X: _Cells,
    y: np.ndarray,
    levels: dict,
    n_trials: int,
    warm_start: Mapping[str, float] | None = None,
) -> SelectionModel:
    """The model of :func:`fit_logit` on a factored matrix whose rows are
    grouped (:meth:`_Cells.grouped`), labels ``y`` in the same order."""
    cols, dropped = _drop_collinear(X)
    names = [X.names[j] for j in cols]
    warm = warm_start or {}
    beta = np.array([warm.get(nm, 0.0) for nm in names])
    fit = _irls(X, y, beta, cols)
    return SelectionModel(
        names=names,
        coef=fit.beta,
        vcov=fit.vcov,
        converged=fit.converged,
        n_obs=len(y),
        n_trials=n_trials,
        n_clusters=fit.n_clusters,
        log_likelihood=fit.log_likelihood,
        mean_dep=float(y.mean()),
        levels=levels,
        dropped=dropped,
    )


class PinnedDesign:
    """The factored matrix of pinned design rows, built once with their
    dummy layout, for logit refits on reweightings of the rows (bootstrap
    reps).  ``z`` is every row's z, as :meth:`PinnedRows.imputed` gives it.

    Rows labelled NaN enter predictions but not fits.  A refit screens the
    columns of its weighted fitting rows, so a dummy level absent from
    them folds into the reference, and starts from the coefficients of
    ``start``.
    """

    def __init__(self, rows: PinnedRows, z: np.ndarray, labels: np.ndarray,
                 start: SelectionModel):
        self.X, _ = rows._matrix(np.arange(len(z)), z, clusters=True)
        self.names = self.X.names
        # fitting rows grouped by cell, so a refit's sums need no sort
        fitting = np.flatnonzero(~np.isnan(labels))
        self.X_fit, order = self.X.take(fitting).grouped()
        self.fitting = fitting[order]
        self.y_fit = labels[self.fitting]
        self.beta0 = _coef(start, self.names)

    def refit_predict(self, counts: np.ndarray) -> np.ndarray | None:
        """Continuation probabilities of every row from a refit in which
        each labelled row counts ``counts`` times, clustered by condition;
        None when the refit does not converge.  Equals a refit on the rows
        repeated that often.  Raises like :func:`fit_logit`."""
        counts = counts[self.fitting]
        drawn = np.flatnonzero(counts)
        c = counts[drawn].astype(float)
        X_fit = self.X_fit.take(drawn)
        cols, _ = _drop_collinear(X_fit, c)
        fit = _irls(X_fit, self.y_fit[drawn], self.beta0[cols], cols, weights=c)
        if not fit.converged:
            return None
        beta = np.zeros(len(self.names))
        beta[cols] = fit.beta
        return _expit(self.X.dot(beta))


class PinnedRows:
    """The design rows of a table's row mask, pinned once for the designs
    of their subsets (a phase sample and the samples of a sponsor sweep's
    cells).

    A subset, given as ascending indices ``rows`` into the pinned rows, is
    the design that :func:`design_rows` would build from its table rows:
    :meth:`imputed` imputes its other censors within it, :meth:`fit` is
    :func:`fit_logit` on it and :meth:`predict` is :func:`predict` on it,
    each on its own dummy layout.  Only the layout is built per subset:
    the dense columns, the cells and the grouped row order are read off
    the pinned ones, which the first fit or prediction builds, so rows
    that are only ever sampled never hold them.
    """

    def __init__(self, table: OutcomeTable, rows: np.ndarray):
        t = table.subset(rows)
        self.trials, self.trial_code, self.bound = t.trials, t.trial_code, t.bound
        self.z_raw = t.z  # NaN on censored rows
        self._kind, self._below, self._mht = t.kind, t.below, t.mht
        self.is_precise = t.kind == ZKind.PRECISE.value
        self.bounded = (t.kind == ZKind.ABOVE_D1.value) | (t.kind == ZKind.ABOVE_D2.value)
        self._other = (t.kind == ZKind.OTHER_CENSOR.value) & np.isnan(t.z)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dense columns (z_ph2 is set per subset), condition and year
        codes of every row."""
        k, code = self._kind, self.trial_code
        return (_dense(self.trials, code, np.zeros(len(k)), k == ZKind.ABOVE_D1.value,
                       k == ZKind.ABOVE_D2.value, self._mht),
                self.trials.condition[code], self.trials.year[code])

    @cached_property
    def _grouped(self) -> np.ndarray:
        """Every row by cell, then condition cluster, as :meth:`_Cells.grouped`
        sorts: the rows of a subset in this order are grouped.  Built on
        the first fit."""
        _, condition, year = self._columns
        return np.lexsort((condition, condition.astype(np.intp) * len(self.trials.years) + year))

    def imputed(self, rows: np.ndarray) -> np.ndarray:
        """The z of the rows, other censors imputed within them; NaN on
        D1/D2 rows."""
        if not len(rows):
            raise ValueError("selection design is empty")
        if not self._other[rows].any():
            return self.z_raw[rows]
        return impute_other_censors(self._kind[rows], self.z_raw[rows], self.bound[rows],
                                    self._below[rows])

    def _matrix(self, rows, z, levels=None, warn_unseen=False, clusters=False):
        dense, condition, year = self._columns
        dense, condition = _take_rows(dense, rows), condition[rows]
        dense[:, 1] = np.where(self.bounded[rows], 0.0, z)
        return _factored(dense, condition, year[rows], self.trials, levels, warn_unseen,
                         condition if clusters else None)

    def fit(self, rows: np.ndarray, z: np.ndarray, y: np.ndarray) -> SelectionModel:
        """:func:`fit_logit` of the subset ``rows`` with z from :meth:`imputed`
        and labels ``y``, clustered by condition."""
        at = np.zeros(len(self.trial_code), dtype=bool)
        at[rows] = True
        grouped = self._grouped[at[self._grouped]]
        pos = (np.cumsum(at) - 1)[grouped]
        X, levels = self._matrix(grouped, z[pos], clusters=True)
        n_trials = int(np.count_nonzero(np.bincount(self.trial_code[rows])))
        return _fit(X, y[pos].astype(float), levels, n_trials)

    def predict(self, model: SelectionModel, rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        """:func:`predict` on the subset ``rows`` with z from :meth:`imputed`."""
        if not model.converged:
            raise ValueError("model did not converge")
        X, _ = self._matrix(rows, z, model.levels, warn_unseen=True)
        return _expit(X.dot(_coef(model, X.names)))


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
    X, _ = _cells(design, levels=model.levels, warn_unseen=True)
    return _expit(X.dot(_coef(model, X.names)))


def predict_at_mean(
    model: SelectionModel, design: SelectionDesign, z_grid: Sequence[float]
) -> np.ndarray:
    """Predicted continuation probability as a function of the z-score,
    every other regressor held at its sample mean (censor dummies off)."""
    X, _ = _cells(design, levels=model.levels)
    cells = np.bincount(X.cell, minlength=len(X.incidence)).astype(float)
    xbar = np.concatenate([X.dense.mean(axis=0), cells @ X.incidence / design.n_obs])
    rows = np.tile(xbar, (len(z_grid), 1))
    # z_ph2, d1 and d2; a dropped column has coefficient 0 either way
    rows[:, 1], rows[:, 2:4] = np.asarray(z_grid, dtype=float), 0.0
    return _expit(rows @ _coef(model, X.names))
