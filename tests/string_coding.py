"""The selection matrix, clusters and fits with condition and year coded as
strings, sorted again by ``np.unique`` in every call: the reference for the
integer codes that ``trialscope.selection`` reads through ``trial_code``.

Dummy layouts, cells and clusters are built here from the level names, as
the selection function built them before the levels became trial codes;
the screen and the IRLS core are the package's own, on the factored
matrix."""

import warnings

import numpy as np

from trialscope import selection as sel


def level_names(design, label: str) -> np.ndarray:
    """The level name of each row of a categorical design column."""
    vocabulary = {"condition": design.trials.conditions, "year": design.trials.years}[label]
    return vocabulary[getattr(design, label)]


def dummies(values, fixed, label, warn_unseen):
    vals, inv = np.unique(values.astype(str), return_inverse=True)
    if fixed is None:
        counts = np.bincount(inv, minlength=len(vals))
        ref = str(vals[np.lexsort((vals, -counts))[0]])
        fixed = (ref, [v for v in vals.tolist() if v != ref])
    ref, levels = fixed
    at = {v: j for j, v in enumerate(vals.tolist())}
    unseen = set(at) - set(levels) - {ref}
    if warn_unseen and unseen:
        warnings.warn(f"unseen {label} levels {sorted(unseen)} folded into reference {ref!r}")
    return fixed, [(inv == at.get(lv, -1)).astype(float) for lv in levels]


def build_matrix(design, levels=None, warn_unseen=False):
    fixed = levels or {}
    cols = [np.ones(design.n_obs), design.z, design.d1, design.d2,
            design.sqrt_enroll, design.placebo, design.mht]
    names = ["const", "z_ph2", "d1", "d2", "sqrt_enroll", "placebo", "mht_adjusted"]
    out_levels = {}
    for label, prefix in (("condition", "cond"), ("year", "year")):
        layout, dums = dummies(level_names(design, label), fixed.get(label), label, warn_unseen)
        out_levels[label] = layout
        cols += dums
        names += [f"{prefix}:{lv}" for lv in layout[1]]
    return np.array(cols, dtype=float).T.copy(), names, out_levels


def clusters(design, cluster_by: str) -> np.ndarray:
    values = level_names(design, cluster_by) if cluster_by != "trial_code" else design.trial_code
    return np.unique(values.astype(str), return_inverse=True)[1]


def cells(design, levels=None, warn_unseen=False, clusters=None):
    """The factored matrix from the level names: a row's cell ranks its
    (condition, year) pair of names, condition first, and a cell's dummies
    are those of its rows."""
    X, names, out_levels = build_matrix(design, levels, warn_unseen)
    ranks = [np.unique(level_names(design, label).astype(str), return_inverse=True)
             for label in ("condition", "year")]
    (conditions, by_condition), (years, by_year) = ranks
    cell = by_condition * len(years) + by_year
    incidence = np.zeros((len(conditions) * len(years), X.shape[1] - len(sel.DENSE_COLUMNS)))
    incidence[cell] = X[:, len(sel.DENSE_COLUMNS):]
    dense = X[:, :len(sel.DENSE_COLUMNS)].copy()
    return sel._Cells(dense, cell, incidence, names, clusters), out_levels


def fit_logit(design, cluster_by="condition"):
    """The fit, kept coefficient names, layout and dropped names."""
    X, levels = cells(design, clusters=clusters(design, cluster_by))
    X, order = X.grouped()
    cols, dropped = sel._drop_collinear(X)
    fit = sel._irls(X, design.y.astype(float)[order], np.zeros(len(cols)), cols)
    return fit, [X.names[j] for j in cols], levels, dropped


def predict(model, design):
    X, _ = cells(design, levels=model.levels, warn_unseen=True)
    return sel._expit(X.dot(np.array([model.coefficients.get(nm, 0.0) for nm in X.names])))


def refit_predict(design, labels, start, counts):
    """A pinned refit with draw counts, clustered by condition."""
    X, _ = cells(design, clusters=clusters(design, "condition"))
    fitting = np.flatnonzero(~np.isnan(labels))
    X_fit, order = X.take(fitting).grouped()
    fitting = fitting[order]
    counts = counts[fitting]
    drawn = np.flatnonzero(counts)
    c = counts[drawn].astype(float)
    X_fit = X_fit.take(drawn)
    cols, _ = sel._drop_collinear(X_fit, c)
    beta0 = np.array([start.coefficients.get(nm, 0.0) for nm in X.names])
    fit = sel._irls(X_fit, labels[fitting][drawn], beta0[cols], cols, weights=c)
    if not fit.converged:
        return None
    beta = np.zeros(len(X.names))
    beta[cols] = fit.beta
    return sel._expit(X.dot(beta))
