import numpy as np
import pytest

from trialscope.decompose import (
    DecompositionReport,
    censored_aware_share,
    counterfactual_share,
    decompose,
    phase_scores,
    sponsor_split_sweep,
)
from trialscope.linker import build_synonym_map, link_all
from trialscope.pz import Z_D1, Z_D2, Z_SIG, outcome_table
from trialscope.registry import Phase, all_sponsor_splits
from trialscope.selection import build_design, fit_logit
from trialscope.simulate import Misreporting, SimConfig, generate


@pytest.fixture(scope="module")
def fitted(sim_small):
    reg, truth, links, _ = sim_small
    design = build_design(reg, links)
    model = fit_logit(design)
    return reg, truth, links, design, model


class TestShares:
    def test_censored_share_homogeneous_in_weights(self):
        kinds = np.array(["precise", "precise", "above_d1", "above_d2"], dtype=object)
        z = np.array([2.5, 1.0, Z_D1, Z_D2])
        w = np.array([1.0, 2.0, 0.5, 0.25])
        a = censored_aware_share(kinds, z, w, Z_SIG, bandwidth=0.4)
        b = censored_aware_share(kinds, z, 7.7 * w, Z_SIG, bandwidth=0.4)
        assert a == pytest.approx(b, abs=1e-14)

    def test_censored_mass_counts_above(self):
        kinds = np.array(["precise", "above_d1"], dtype=object)
        z = np.array([0.5, Z_D1])
        w = np.ones(2)
        # cutoff far above the precise value: all precise KDE mass below
        share = censored_aware_share(kinds, z, w, 1.96, bandwidth=0.1)
        assert share == pytest.approx(0.5)

    def test_zero_mass_raises(self):
        with pytest.raises(ValueError):
            censored_aware_share(
                np.array(["precise"], dtype=object), np.array([1.0]),
                np.array([0.0]), Z_SIG, 0.3,
            )

    def test_flat_selection_equals_unweighted(self, fitted):
        reg, truth, links, design, model = fitted
        flat = type(model)(
            names=model.names, coef=np.zeros_like(model.coef), vcov=model.vcov,
            converged=True, n_obs=model.n_obs, n_trials=model.n_trials,
            n_clusters=model.n_clusters, log_likelihood=0.0,
            mean_dep=model.mean_dep, levels=model.levels,
        )
        ph2 = phase_scores(outcome_table(reg), Phase.PHASE2)
        h = 0.35
        unweighted = censored_aware_share(
            ph2.kind, ph2.share_z, np.ones(ph2.n_obs), Z_SIG, h
        )
        reweighted = counterfactual_share(ph2, flat, cutoff=Z_SIG, bandwidth=h)
        assert reweighted == pytest.approx(unweighted, abs=1e-14)


class TestDecompose:
    def test_identity_and_report_shape(self, sim_small):
        reg, truth, links, _ = sim_small
        rep = decompose(outcome_table(reg), links, bootstrap_reps=25, seed=3)
        lhs = rep.diffs["ph2_sc_minus_ph2"] + rep.diffs["ph3_minus_ph2_sc"]
        assert lhs == pytest.approx(rep.diffs["ph3_minus_ph2"], abs=1e-12)
        for key in ("ph2", "ph3", "ph2_sc"):
            assert 0.0 <= rep.shares[key] <= 1.0
            assert np.isfinite(rep.std_errs[key])
        assert rep.n_obs["ph2"] > 0 and rep.n_obs["ph3"] > 0
        assert rep.dropped_reps == 0

    def test_bootstrap_determinism(self, sim_small):
        reg, truth, links, _ = sim_small
        a = decompose(outcome_table(reg), links, bootstrap_reps=30, seed=11)
        b = decompose(outcome_table(reg), links, bootstrap_reps=30, seed=11)
        assert a.shares == b.shares
        assert a.std_errs == b.std_errs
        c = decompose(outcome_table(reg), links, bootstrap_reps=30, seed=12)
        assert any(a.std_errs[k] != c.std_errs[k] for k in a.std_errs)

    def test_selection_only_residual_small(self, sim_small):
        reg, truth, links, _ = sim_small
        rep = decompose(outcome_table(reg), links, bootstrap_reps=120, seed=4)
        resid = rep.diffs["ph3_minus_ph2_sc"]
        se = rep.std_errs["ph3_minus_ph2_sc"]
        assert abs(resid) < 3.0 * se

    def test_suppression_creates_positive_residual(self):
        cfg = SimConfig(
            n_trials=1500, seed=42, misreporting=Misreporting.suppress_share(0.35)
        )
        reg, truth = generate(cfg)
        links, _ = link_all(reg, synonyms=build_synonym_map(truth.synonym_pairs))
        rep = decompose(outcome_table(reg), links, bootstrap_reps=120, seed=5)
        resid = rep.diffs["ph3_minus_ph2_sc"]
        se = rep.std_errs["ph3_minus_ph2_sc"]
        assert resid > 1.959964 * se
        assert resid == pytest.approx(truth.suppression_effect(), abs=0.05)

    def test_too_many_failures_raise(self, sim_small, monkeypatch):
        reg, truth, links, _ = sim_small
        design = build_design(reg, links)
        model = fit_logit(design)

        import trialscope.decompose as dec

        def boom(*args, **kwargs):
            raise ValueError("forced failure")

        monkeypatch.setattr(dec, "fit_logit", boom)
        with pytest.raises(RuntimeError, match="failed"):
            decompose(outcome_table(reg), links, model=model, bootstrap_reps=20, seed=1)

    def test_stars_formatting(self):
        rep = DecompositionReport(
            shares={"ph2": 0.4}, diffs={"d": 0.2}, std_errs={"d": 0.05, "ph2": 0.1},
            n_obs={}, n_trials={}, bootstrap_reps=10,
        )
        assert rep.stars("d") == "***"


class TestSweep:
    def test_explained_fraction_cells(self, sim_small):
        reg, truth, links, _ = sim_small
        splits = all_sponsor_splits(reg.rankings, k_range=[10, 11])
        rows = sponsor_split_sweep(outcome_table(reg), links, splits)
        assert len(rows) == 16
        good = [r for r in rows if not r["error"]]
        assert good, "expected at least one computable cell"
        for r in good:
            assert r["explained_fraction"] == pytest.approx(
                (r["ph2_sc"] - r["ph2"]) / (r["ph3"] - r["ph2"])
            )

    def test_degenerate_gap_flagged(self, sim_small):
        reg, truth, links, _ = sim_small
        splits = all_sponsor_splits(reg.rankings, k_range=[10])
        rows = sponsor_split_sweep(outcome_table(reg), links, splits, min_gap=10.0)
        assert all(r["explained_fraction"] is None for r in rows)
        assert all("degenerate" in r["error"] for r in rows if r["error"])
