"""The selection matrix, clusters and fits with condition and year coded as
strings, sorted again by ``np.unique`` in every call: the reference for the
integer codes that ``trialscope.selection`` reads through ``trial_code``.

Dummy layouts and clusters are built here from the level names, as the
selection function built them before the levels became trial codes; the
screen and the IRLS core are the package's own."""

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


def fit_logit(design, cluster_by="condition"):
    """The fit, kept coefficient names, layout and dropped names."""
    X, names, levels = build_matrix(design)
    cols, dropped = sel._drop_collinear(X, names)
    kept = [names[j] for j in cols]
    fit = sel._irls(X[:, cols], design.y.astype(float), clusters(design, cluster_by),
                    np.zeros(len(cols)), kept)
    return fit, kept, levels, dropped


def predict(model, design):
    X, names, _ = build_matrix(design, levels=model.levels, warn_unseen=True)
    return sel._expit(X[:, [names.index(nm) for nm in model.names]] @ model.coef)


def refit_predict(design, labels, start, counts):
    """A pinned refit with draw counts, clustered by condition."""
    X, names, _ = build_matrix(design)
    by_condition = clusters(design, "condition")
    fitting = np.flatnonzero(~np.isnan(labels))
    fitting = fitting[np.argsort(by_condition[fitting], kind="stable")]
    counts = counts[fitting]
    drawn = np.flatnonzero(counts)
    c = counts[drawn].astype(float)
    X_fit = X[fitting][drawn]
    cols, _ = sel._drop_collinear(np.sqrt(c)[:, None] * X_fit, names)
    beta0 = np.array([start.coefficients.get(nm, 0.0) for nm in names])
    fit = sel._irls(X_fit[:, cols], labels[fitting][drawn], by_condition[fitting][drawn],
                    beta0[cols], [names[j] for j in cols], weights=c)
    return sel._expit(X[:, cols] @ fit.beta) if fit.converged else None
