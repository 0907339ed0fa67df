"""``decompose`` without reps against the point decomposition of the public
design path (``cell_sweep.point``), with and without a given model: every
share, difference, sample size and bandwidth equal with ``==``, error
texts and warnings included; and the decomposition and the sweep run on
the pinned phase rows only."""

import warnings

import numpy as np
import pytest

import cell_sweep
import trialscope.decompose as dec
import trialscope.selection as sel
from test_cell_sweep import POOL_SEEDS, censored_csvs, sweep_inputs  # noqa: F401 (a fixture)
from trialscope.pz import ZKind, outcome_table
from trialscope.registry import OutcomeRank, all_sponsor_splits

FIELDS = ("shares", "diffs", "n_obs", "n_trials", "bandwidths")


def outcome(run):
    """What ``run()`` returns, or its error text, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run()
        except (ValueError, RuntimeError) as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, [str(w.message) for w in caught]


def check(table, links, model=None, **kwargs):
    """decompose without reps equals the design-path point; the point."""
    got, warned = outcome(lambda: dec.decompose(table, links, model, bootstrap_reps=0, **kwargs))
    want, want_warned = outcome(lambda: cell_sweep.point(table, links, model, **kwargs))
    if isinstance(got, dec.DecompositionReport):
        assert all(np.isnan(v) for v in got.std_errs.values())
        assert (got.bootstrap_reps, got.dropped_reps) == (0, 0)
        got = {k: getattr(got, k) for k in FIELDS}
    assert got == want
    assert warned == want_warned
    return got


def other_model(table, links):
    """A model fitted without the trials of the rarest condition: the
    decomposition folds that level into the reference, with a warning."""
    design = sel.build_design(table, links)
    counts = np.bincount(design.condition)
    rarest = int(np.argmin(np.where(counts > 0, counts, counts.max() + 1)))
    return sel.fit_logit(design.subset(np.flatnonzero(design.condition != rarest)))


def check_all(table, links):
    model = other_model(table, links)
    for m in (None, model):
        assert isinstance(check(table, links, m), dict)
        assert isinstance(check(table, links, m, cutoff=1.645), dict)
        assert check(table, links, m, outcome_rank=OutcomeRank.SECONDARY) == (
            "ValueError: selection design is empty")


@pytest.fixture(scope="module")
def small(sim_small):
    reg, _, links, _ = sim_small
    return outcome_table(reg), links


def test_sim_small(small):
    check_all(*small)


def test_unseen_level_warns_alike(small):
    table, links = small
    model = other_model(table, links)
    _, warned = outcome(lambda: dec.decompose(table, links, model, bootstrap_reps=0))
    assert any("unseen condition levels" in w for w in warned)
    check(table, links, model)  # the same warnings on the design path


def test_unconverged_model(small):
    table, links = small
    model = sel.fit_logit(sel.build_design(table, links))
    model.converged = False
    assert check(table, links, model) == "ValueError: model did not converge"


def test_mixed_csvs(mixed_csvs):
    table, links, _ = sweep_inputs(*mixed_csvs)
    check_all(table, links)


def test_other_censors(censored_csvs):
    table, links, _ = sweep_inputs(*censored_csvs)
    assert np.count_nonzero(table.kind == ZKind.OTHER_CENSOR.value) > 100
    check_all(table, links)


@pytest.mark.slow
@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_benchmark_pool_registries(seed, tmp_path):
    from trialscope.cli import main

    assert main(["simulate", "--out", str(tmp_path), "--seed", str(seed),
                 "--n-trials", "2000"]) == 0
    names = ("trials", "outcomes", "rankings", "synonyms")
    table, links, _ = sweep_inputs(*(tmp_path / f"{n}.csv" for n in names))
    check_all(table, links)


def test_one_engine(sim_small, monkeypatch):
    # the decomposition, its reps and the sweep read the pinned phase rows:
    # no design-path sample, design, matrix or prediction is built
    reg, _, links, _ = sim_small
    table = outcome_table(reg)
    model = sel.fit_logit(sel.build_design(table, links))

    def fail(*args, **kwargs):
        pytest.fail("a second decomposition path was taken")

    for module, name in ((dec, "phase_scores"), (dec, "predict"), (sel, "design_rows"),
                         (sel, "_cells")):
        monkeypatch.setattr(module, name, fail)
    assert dec.decompose(table, links, model=model, bootstrap_reps=3, seed=0).dropped_reps == 0
    rows = dec.sponsor_split_sweep(table, links, all_sponsor_splits(reg.rankings))
    assert any(r["ph2"] is not None for r in rows)
