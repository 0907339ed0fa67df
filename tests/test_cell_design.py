"""The factored selection design (7 dense columns, a (condition, year) cell
per row and the dummies of each cell) against the dense matrix of
``build_matrix`` and the dense fit core of ``dense_logit``: the sums,
products, fits, refits and predictions agree within 1e-12, and the
screens drop the same columns."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import dense_logit
from pinned_phase import pinned_phase
from trialscope import selection as sel
from trialscope.decompose import phase_scores
from trialscope.linker import build_synonym_map, link_all
from trialscope.pz import outcome_table
from trialscope.registry import Phase
from trialscope.simulate import Misreporting, SimConfig, generate

# the oracle_mc benchmark pool: seeds 20000-20007, no misreporting and q = 0.3
POOL = [(seed, q) for seed in range(20000, 20008) for q in (None, 0.3)]


def close(got, want, tol=1e-12):
    """Equal within ``tol`` relative to the largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol * max(1.0, np.max(np.abs(want)))


def pipeline(seed, q):
    misreporting = Misreporting.suppress_share(q) if q else Misreporting.none()
    reg, truth = generate(SimConfig(n_trials=2000, seed=seed, misreporting=misreporting))
    links, _ = link_all(reg, synonyms=build_synonym_map(truth.synonym_pairs))
    table = outcome_table(reg)
    rows, z, labels, sample = pinned_phase(table, links)
    ph2 = phase_scores(table, Phase.PHASE2)
    return sel.build_design(table, links), ph2, labels, (rows, z), sample


@pytest.fixture(scope="module")
def pool():
    return {entry: pipeline(*entry) for entry in POOL}


def check_sums(design, clusters, rng):
    """X'WX, X'r, X beta and the cluster sums of the grouped factored matrix
    against the dense matrix in the same row order."""
    X, order = sel._cells(design, clusters=clusters)[0].grouped()
    dense = sel.build_matrix(design)[0][order]
    assert np.array_equal(X.materialise(), dense)
    n, k = dense.shape
    w, r, beta = rng.random(n), rng.normal(size=n), rng.normal(size=k)
    close(X.gram(w), (dense * w[:, None]).T @ dense)
    close(X.xt(r), dense.T @ r)
    close(X.dot(beta), dense @ beta)
    close(X.cluster_sums(r), dense_logit.cluster_sums(r[:, None] * dense, clusters[order]))


def check_fit(design, cluster_by="condition"):
    model = sel.fit_logit(design, cluster_by=cluster_by)
    fit, names, levels, dropped = dense_logit.fit_logit(design, cluster_by)
    assert (model.names, model.dropped, model.levels) == (names, dropped, levels)
    assert model.converged == fit.converged
    assert model.n_clusters == fit.n_clusters
    close(model.coef, fit.beta)
    close(model.vcov, fit.vcov)
    return model


def check_refit(ph2, rows, labels, model, counts):
    """A pinned refit over the pinned rows and z ``rows`` against the dense
    one of the design ``ph2``: the same screen, and the same predictions."""
    pinned = sel.PinnedDesign(*rows, labels, model)
    drawn = np.flatnonzero(counts[pinned.fitting])
    c = counts[pinned.fitting][drawn].astype(float)
    X, names, _ = sel.build_matrix(ph2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cols, dropped = sel._drop_collinear(pinned.X_fit.take(drawn), c)
        cols_ref, dropped_ref = dense_logit.drop_collinear(
            np.sqrt(c)[:, None] * X[pinned.fitting][drawn], names)
        p = pinned.refit_predict(counts)
        p_ref = dense_logit.refit_predict(ph2, labels, model, counts)
    assert cols.tolist() == cols_ref.tolist() and dropped == dropped_ref
    assert (p is None) == (p_ref is None)
    if p is not None:
        close(p, p_ref)
    return dropped


@pytest.mark.parametrize("entry", POOL, ids=[f"{s}-{q}" for s, q in POOL])
def test_pool_design_equals_dense(pool, entry):
    design, ph2, labels, rows, sample = pool[entry]
    rng = np.random.default_rng(entry[0])
    for cluster_by in ("condition", "year", "trial_code"):
        check_sums(design, getattr(design, cluster_by), rng)
        model = check_fit(design, cluster_by)
    close(sel.predict(model, ph2), dense_logit.predict(model, ph2))
    close(sel.predict_at_mean(model, design, np.linspace(-1, 5, 13)),
          dense_logit.expit(predict_at_mean_dense(model, design, np.linspace(-1, 5, 13))))
    for stream in np.random.SeedSequence(entry[0]).spawn(3):
        check_refit(ph2, rows, labels, model, sample.counts(np.random.default_rng(stream)))


def predict_at_mean_dense(model, design, z_grid):
    """The linear index of ``predict_at_mean`` on the dense matrix."""
    X, names, _ = sel.build_matrix(design, levels=model.levels)
    rows = np.tile(X[:, [names.index(nm) for nm in model.names]].mean(axis=0), (len(z_grid), 1))
    for special, value in (("z_ph2", z_grid), ("d1", 0.0), ("d2", 0.0)):
        rows[:, model.names.index(special)] = value
    return rows @ model.coef


@pytest.mark.parametrize("label", ["condition", "year"])
def test_rep_with_an_absent_level(pool, label):
    # no fitting row of one non-reference level is drawn: its dummy is a
    # zero column, which both screens drop
    design, ph2, labels, rows, _ = pool[POOL[0]]
    model = sel.fit_logit(design)
    codes = getattr(ph2, label)
    vocabulary = getattr(ph2.trials, f"{label}s")
    level = model.levels[label][1][0]
    counts = ((codes != np.flatnonzero(vocabulary == level)[0]) & ~np.isnan(labels)).astype(int)
    counts[np.flatnonzero(counts)[::4]] = 3
    prefix = "cond" if label == "condition" else "year"
    assert check_refit(ph2, rows, labels, model, counts) == [f"{prefix}:{level}"]


def test_rep_without_the_reference_level_takes_the_greedy_path(pool, monkeypatch):
    design, ph2, labels, rows, _ = pool[POOL[1]]
    model = sel.fit_logit(design)
    ref = model.levels["condition"][0]
    names = ph2.trials.conditions[ph2.condition]
    counts = ((names != ref) & ~np.isnan(labels)).astype(int)
    calls = []
    real = sel._greedy_keep
    monkeypatch.setattr(sel, "_greedy_keep", lambda *a: calls.append(1) or real(*a))
    assert len(check_refit(ph2, rows, labels, model, counts)) == 1
    assert calls


def test_condition_coinciding_with_a_year_takes_the_greedy_path(pool, monkeypatch):
    # every trial of one condition, and no other, completes in one year:
    # that condition's dummy equals that year's, and the screen must find it
    # on the columns
    design = pool[POOL[2]][0]
    trials = design.trials
    counts = np.bincount(design.condition, minlength=len(trials.conditions))
    level = int(np.argsort(counts)[len(counts) // 2])
    years = np.bincount(design.year, minlength=len(trials.years))
    year, other = (int(j) for j in np.argsort(years)[:2])
    moved = np.where(trials.year == year, other, trials.year)
    moved = np.where(trials.condition == level, year, moved).astype(trials.year.dtype)
    design = replace(design, trials=replace(trials, year=moved))
    calls = []
    real = sel._greedy_keep
    monkeypatch.setattr(sel, "_greedy_keep", lambda *a: calls.append(1) or real(*a))
    with pytest.warns(UserWarning, match="collinear"):
        model = check_fit(design)
    assert calls and len(model.dropped) == 1


def test_predict_unseen_level_warns_like_dense(pool):
    design, ph2, *_ = pool[POOL[3]]
    counts = np.bincount(design.condition)
    rarest = int(np.argmin(np.where(counts > 0, counts, counts.max() + 1)))
    model = sel.fit_logit(design.subset(np.flatnonzero(design.condition != rarest)))
    with pytest.warns(UserWarning, match="unseen") as got:
        p = sel.predict(model, ph2)
    with pytest.warns(UserWarning, match="unseen") as expected:
        p_ref = dense_logit.predict(model, ph2)
    close(p, p_ref)
    assert [str(w.message) for w in got] == [str(w.message) for w in expected]


def test_fits_refits_and_predictions_build_no_dummy_column(pool, monkeypatch):
    design, ph2, labels, rows, sample = pool[POOL[4]]
    calls = []
    real_build, real_materialise = sel.build_matrix, sel._Cells.materialise
    monkeypatch.setattr(sel, "build_matrix",
                        lambda *a, **k: calls.append(1) or real_build(*a, **k))
    monkeypatch.setattr(sel._Cells, "materialise",
                        lambda self: calls.append(1) or real_materialise(self))
    model = sel.fit_logit(design)
    counts = sample.counts(np.random.default_rng(0))
    assert sel.PinnedDesign(*rows, labels, model).refit_predict(counts) is not None
    sel.predict(model, ph2)
    sel.predict_at_mean(model, design, [0.0, 1.0, 2.0])
    assert calls == []


def test_expit_is_bit_identical():
    rng = np.random.default_rng(0)
    eta = np.concatenate([rng.normal(0, 8, 100_000), rng.uniform(-800, 800, 10_000),
                          [-745.5, -709.9, -40.5, -40.0, -0.0, 0.0, 40.0, 40.5, 709.9, 800.0]])
    assert np.array_equal(sel._expit(eta), dense_logit.expit(eta))


def test_log_likelihood_is_bit_identical():
    rng = np.random.default_rng(1)
    eta = np.concatenate([rng.normal(0, 8, 50_000), rng.uniform(-60, 60, 5_000)])
    p = np.concatenate([dense_logit.expit(eta), [0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.5]])
    y = (rng.random(p.size) < 0.5).astype(float)
    for c in (np.ones(p.size), rng.integers(1, 5, p.size).astype(float)):
        assert sel._log_likelihood(y, p, c) == dense_logit.log_likelihood(y, p, c)
