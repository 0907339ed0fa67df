"""The selection logit on a dense design matrix, with every fixed-effect dummy
a materialised 0/1 column: the reference for the factored design of
``trialscope.selection``, whose sums run over 7 dense columns and the
(condition, year) cells.

``irls``, ``drop_collinear`` and ``cluster_sums`` are the fit core, column
screen and cluster sums the package ran on ``build_matrix`` before the
design was factored; ``expit`` and ``log_likelihood`` are its logistic and
likelihood formulas.  ``fit_logit``, ``predict`` and ``refit_predict`` run
them as the package's entry points did."""

import warnings

import numpy as np

from trialscope import selection as sel


def expit(eta):
    ex = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def log_likelihood(y, p, c):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(np.sum(c * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def drop_collinear(X, names, tol=1e-8):
    """Kept column indices and dropped names: the Cholesky screen of X'X,
    and the greedy Gram-Schmidt pass when the screen fails."""
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
        cols = cols[sel._greedy_keep(Xc, floor)]
    kept = set(cols.tolist())
    dropped = [nm for j, nm in enumerate(names) if j not in kept]
    if dropped:
        warnings.warn(f"dropping collinear columns: {dropped}")
    return cols, dropped


def cluster_sums(scores, clusters):
    if np.any(clusters[1:] < clusters[:-1]):
        order = np.argsort(clusters, kind="stable")
        scores, clusters = scores[order], clusters[order]
    starts = np.flatnonzero(np.r_[True, clusters[1:] != clusters[:-1]])
    return np.add.reduceat(scores, starts, axis=0)


def irls(X, y, clusters, beta, names, max_iter=100, score_tol=1e-8, ll_tol=1e-12,
         weights=None):
    """IRLS from ``beta`` on the dense X, the separation check and the
    clustered sandwich, with frequency ``weights``."""
    if y.size == 0 or y.min() == y.max():
        raise ValueError("need both outcome classes to fit a logit")
    c = np.ones(y.size) if weights is None else weights
    n, k = float(c.sum()), X.shape[1]
    p = expit(X @ beta)
    ll = log_likelihood(y, p, c)
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
        try:
            delta = np.linalg.solve((X * w[:, None]).T @ X, score)
        except np.linalg.LinAlgError as exc:
            raise sel.SeparationError(f"singular information matrix: {exc}") from exc
        step = 1.0
        for _ in range(8):
            cand = beta + step * delta
            p_cand = expit(X @ cand)
            ll_cand = log_likelihood(y, p_cand, c)
            if ll_cand >= ll - 1e-12:
                break
            step *= 0.5
        else:
            cand = beta + step * delta
            p_cand = expit(X @ cand)
            ll_cand = log_likelihood(y, p_cand, c)
        beta, p, ll = cand, p_cand, ll_cand

    w = c * np.maximum(p * (1.0 - p), 1e-10)
    bread = np.linalg.inv((X * w[:, None]).T @ X)
    plain_se = np.sqrt(np.maximum(np.diag(bread), 0.0))
    blown = (np.abs(beta) > 15.0) & (plain_se > 5.0)
    if np.any(blown):
        bad = [names[j] for j in np.where(blown)[0]]
        raise sel.SeparationError(f"complete separation suspected: runaway coefficient on {bad}")
    sums = cluster_sums((c * (y - p))[:, None] * X, clusters)
    meat = sums.T @ sums
    n_clusters = len(sums)
    factor = ((n_clusters / (n_clusters - 1.0)) * ((n - 1.0) / max(n - k, 1.0))
              if n_clusters > 1 else 1.0)
    vcov = factor * bread @ meat @ bread
    vcov = 0.5 * (vcov + vcov.T)
    eigs = np.linalg.eigvalsh(vcov)
    if eigs.min() < -1e-8 * max(eigs.max(), 1.0):
        raise RuntimeError("clustered covariance is not positive semidefinite")
    return sel._Fit(beta, converged, vcov, n_clusters, ll)


def fit_logit(design, cluster_by="condition"):
    """The fit on ``build_matrix``, its kept names, layout and dropped names."""
    X, names, levels = sel.build_matrix(design)
    cols, dropped = drop_collinear(X, names)
    kept = [names[j] for j in cols]
    fit = irls(X[:, cols], design.y.astype(float), getattr(design, cluster_by),
               np.zeros(len(cols)), kept)
    return fit, kept, levels, dropped


def predict(model, design):
    X, names, _ = sel.build_matrix(design, levels=model.levels, warn_unseen=True)
    return expit(X[:, [names.index(nm) for nm in model.names]] @ model.coef)


def refit_predict(design, labels, start, counts):
    """A refit of the rows labelled in ``labels`` with draw ``counts`` as
    frequency weights, clustered by condition, from the coefficients of
    ``start``; the predictions of every row, None when it does not converge."""
    X, names, _ = sel.build_matrix(design)
    fitting = np.flatnonzero(~np.isnan(labels))
    fitting = fitting[np.argsort(design.condition[fitting], kind="stable")]
    counts = counts[fitting]
    drawn = np.flatnonzero(counts)
    c = counts[drawn].astype(float)
    X_fit = X[fitting][drawn]
    cols, _ = drop_collinear(np.sqrt(c)[:, None] * X_fit, names)
    beta0 = np.array([start.coefficients.get(nm, 0.0) for nm in names])
    fit = irls(X_fit[:, cols], labels[fitting][drawn], design.condition[fitting][drawn],
               beta0[cols], [names[j] for j in cols], weights=c)
    return expit(X[:, cols] @ fit.beta) if fit.converged else None
