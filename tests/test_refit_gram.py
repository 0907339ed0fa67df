"""The Gram matrices a fit reuses instead of building: a bootstrap refit's
first Newton Gram, which also certifies its collinearity screen, and a
cold start's, a quarter of the screen's.  The certificate never passes a
rep the full screen would cut, and the fits and refits that reuse a Gram
equal, bit for bit, those that build every one.  The row gathers come out
column-major, with no second copy."""

import warnings

import numpy as np
import pytest

from pinned_phase import pinned_phase
from trialscope import selection as sel
from trialscope.linker import build_synonym_map, link_all
from trialscope.pz import outcome_table
from trialscope.simulate import Misreporting, SimConfig, generate

# the first two pipelines of the oracle_mc benchmark pool
PIPELINES = [(20000, None), (20001, 0.3)]
REPS = 200


@pytest.fixture(scope="module", params=PIPELINES, ids=lambda e: f"seed{e[0]}")
def pipeline(request):
    """The pipeline's design, its pinned refit matrix and the phase II draw
    counts of its bootstrap reps, drawn as ``decompose`` draws them."""
    seed, q = request.param
    misreporting = Misreporting.suppress_share(q) if q else Misreporting.none()
    reg, truth = generate(SimConfig(n_trials=2000, seed=seed, misreporting=misreporting))
    links, _ = link_all(reg, synonyms=build_synonym_map(truth.synonym_pairs))
    table = outcome_table(reg)
    design = sel.build_design(table, links)
    rows, z, labels, sample = pinned_phase(table, links)
    model = sel.fit_logit(design)
    pinned = sel.PinnedDesign(rows, z, labels, model)
    streams = np.random.SeedSequence(seed + 1).spawn(REPS)
    counts = [sample.counts(np.random.default_rng(s)) for s in streams]
    # the fitting rows of every condition but the reference, once each
    condition = rows.trials.conditions[rows.trials.condition[rows.trial_code]]
    no_reference = ((condition != model.levels["condition"][0]) & ~np.isnan(labels)).astype(int)
    return design, pinned, counts + [no_reference]


def building_every_gram(monkeypatch):
    """Make every fit build its own Grams, as before any was reused."""
    real = sel._irls
    monkeypatch.setattr(sel, "_irls", lambda *a, p=None, gram=None: real(*a))


def test_certificate_passes_only_reps_the_screen_keeps_whole(pipeline):
    _, pinned, counts = pipeline
    certified = 0
    for c_all in counts:
        c_fit = c_all[pinned.fitting]
        drawn = np.flatnonzero(c_fit)
        c = c_fit[drawn].astype(float)
        X = pinned.X_fit.take(drawn)
        p0 = sel._expit(X.dot(pinned.beta0))
        G_w = X.gram(c * np.maximum(p0 * (1.0 - p0), 1e-10))
        if sel._keeps_every_column(X, c, G_w):
            certified += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cols, dropped = sel._drop_collinear(X, c)
            assert cols.tolist() == list(range(len(pinned.names))) and dropped == []
    # on these pipelines no rep needs the full screen, but the one
    # without the reference level
    assert certified == REPS


def test_rep_without_the_reference_level_takes_the_full_screen(pipeline, monkeypatch):
    _, pinned, counts = pipeline
    with pytest.warns(UserWarning, match="collinear"):
        p = pinned.refit_predict(counts[-1])
    certificates, calls = [], []
    real_certificate, real_greedy = sel._keeps_every_column, sel._greedy_keep
    monkeypatch.setattr(sel, "_keeps_every_column",
                        lambda *a: certificates.append(real_certificate(*a)) or certificates[-1])
    monkeypatch.setattr(sel, "_greedy_keep", lambda *a: calls.append(1) or real_greedy(*a))
    with pytest.warns(UserWarning, match="collinear"):
        assert np.array_equal(pinned.refit_predict(counts[-1]), p)
    assert certificates == [False] and calls


def test_refits_equal_those_that_build_every_gram(pipeline, monkeypatch):
    _, pinned, counts = pipeline
    got = [pinned.refit_predict(c) for c in counts[:40]]
    building_every_gram(monkeypatch)
    monkeypatch.setattr(sel, "_keeps_every_column", lambda *a: False)
    for p, c in zip(got, counts[:40]):
        assert np.array_equal(p, pinned.refit_predict(c))


def test_cold_start_gram_is_a_quarter_of_the_screens(pipeline, monkeypatch):
    design, pinned, _ = pipeline
    for cluster_by in ("condition", "year", "trial_code"):
        X = sel._cells(design, clusters=getattr(design, cluster_by))[0].grouped()[0]
        ones = np.ones(len(X.cell))
        assert np.array_equal(X.gram(0.25 * ones), 0.25 * X.gram(ones))
    ones = np.ones(len(pinned.X_fit.cell))
    assert np.array_equal(pinned.X_fit.gram(0.25 * ones), 0.25 * pinned.X_fit.gram(ones))
    models = [sel.fit_logit(design, cluster_by=k) for k in ("condition", "year", "trial_code")]
    building_every_gram(monkeypatch)
    for model, k in zip(models, ("condition", "year", "trial_code")):
        ref = sel.fit_logit(design, cluster_by=k)
        assert np.array_equal(model.coef, ref.coef) and np.array_equal(model.vcov, ref.vcov)


def test_cluster_sums_over_cell_runs_equal_the_general_ones(pipeline):
    design, pinned, _ = pipeline
    r = np.random.default_rng(0).normal(size=len(pinned.X_fit.cell))
    X = pinned.X_fit
    assert X.by_cell
    general = sel._Cells(X.dense, X.cell, X.incidence, X.names, X.clusters)
    assert np.array_equal(X.cluster_sums(r), general.cluster_sums(r))
    for cluster_by in ("condition", "year"):
        X = sel._cells(design, clusters=getattr(design, cluster_by),
                       by_cell=True)[0].grouped()[0]
        general = sel._Cells(X.dense, X.cell, X.incidence, X.names, X.clusters)
        r = np.random.default_rng(1).normal(size=len(X.cell))
        assert np.array_equal(X.cluster_sums(r), general.cluster_sums(r))


def test_row_gathers_are_column_major_without_a_second_copy(pipeline, monkeypatch):
    _, pinned, counts = pipeline
    dense = pinned.X.dense
    rows = np.flatnonzero(counts[0])
    got = sel._take_rows(dense, rows)
    assert got.flags.f_contiguous and np.array_equal(got, dense[rows])
    gathered, real = [], sel._take_rows
    monkeypatch.setattr(sel, "_take_rows", lambda *a: gathered.append(real(*a)) or gathered[-1])
    assert pinned.X.take(rows).dense is gathered[-1]
