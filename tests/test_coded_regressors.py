"""The selection matrix, fits, predictions and pinned refits read condition
and completion year as trial codes; each equals, bit for bit, the same
computation on the level names (``string_coding``)."""

import numpy as np
import pytest

import string_coding as ref
from pinned_phase import pinned_phase
from trialscope.decompose import phase_scores
from trialscope.pz import outcome_table
from trialscope.registry import Phase
from trialscope.selection import PinnedDesign, build_design, build_matrix, fit_logit, predict

VOCABULARY = {"condition": "conditions", "year": "years"}


def tied(design, label):
    """The design without the first rows of its most frequent level of
    ``label`` that make that level more frequent than the second."""
    codes = getattr(design, label)
    counts = np.bincount(codes)
    first, second = np.argsort(-counts, kind="stable")[:2]
    drop = np.flatnonzero(codes == first)[: counts[first] - counts[second]]
    return design.subset(np.setdiff1d(np.arange(design.n_obs), drop))


@pytest.fixture(scope="module")
def setup(sim_small):
    reg, _, links, _ = sim_small
    table = outcome_table(reg)
    fit = build_design(table, links)
    ph2 = phase_scores(table, Phase.PHASE2)
    designs = {
        "fit": fit, "ph2": ph2, "ph3": phase_scores(table, Phase.PHASE3),
        "condition_tie": tied(fit, "condition"), "year_tie": tied(fit, "year"),
    }
    rows, z, labels, _ = pinned_phase(table, links)
    return designs, labels, (rows, z)


@pytest.mark.parametrize("name", ["fit", "ph2", "ph3", "condition_tie", "year_tie"])
def test_matrix_equals_string_coded(setup, name):
    design = setup[0][name]
    X, names, levels = build_matrix(design)
    X_ref, names_ref, levels_ref = ref.build_matrix(design)
    assert np.array_equal(X, X_ref)
    assert names == names_ref
    assert levels == levels_ref


@pytest.mark.parametrize("label", ["condition", "year"])
def test_tie_takes_the_smallest_name(setup, label):
    design = setup[0][f"{label}_tie"]
    counts = np.bincount(getattr(design, label))
    most = np.flatnonzero(counts == counts.max())
    assert len(most) >= 2
    vocabulary = getattr(design.trials, VOCABULARY[label])
    assert build_matrix(design)[2][label][0] == min(vocabulary[most].tolist())


@pytest.mark.parametrize("cluster_by", ["condition", "year"])
@pytest.mark.parametrize("name", ["fit", "condition_tie", "year_tie"])
def test_fit_equals_string_coded(setup, name, cluster_by):
    design = setup[0][name]
    model = fit_logit(design, cluster_by=cluster_by)
    fit, names, levels, dropped = ref.fit_logit(design, cluster_by)
    assert model.names == names
    assert np.array_equal(model.coef, fit.beta)
    assert np.array_equal(model.vcov, fit.vcov)
    assert model.n_clusters == fit.n_clusters
    assert model.dropped == dropped
    assert model.levels == levels


def test_predict_unseen_level_equals_string_coded(setup):
    designs = setup[0]
    fit, ph2 = designs["fit"], designs["ph2"]
    counts = np.bincount(fit.condition)
    rarest = int(np.argmin(np.where(counts > 0, counts, counts.max() + 1)))
    model = fit_logit(fit.subset(np.flatnonzero(fit.condition != rarest)))
    with pytest.warns(UserWarning, match="unseen") as got:
        p = predict(model, ph2)
    with pytest.warns(UserWarning, match="unseen") as expected:
        p_ref = ref.predict(model, ph2)
    assert np.array_equal(p, p_ref)
    assert [str(w.message) for w in got] == [str(w.message) for w in expected]


def test_pinned_refit_without_reference_equals_string_coded(setup):
    designs, labels, rows = setup
    ph2 = designs["ph2"]
    model = fit_logit(designs["fit"])
    names = ph2.trials.conditions[ph2.condition]
    counts = ((names != model.levels["condition"][0]) & ~np.isnan(labels)).astype(int)
    counts[np.flatnonzero(counts)[::3]] = 2  # some rows drawn twice
    with pytest.warns(UserWarning, match="collinear"):
        p = PinnedDesign(*rows, labels, model).refit_predict(counts)
    with pytest.warns(UserWarning, match="collinear"):
        p_ref = ref.refit_predict(ph2, labels, model, counts)
    assert p is not None
    assert np.array_equal(p, p_ref)
