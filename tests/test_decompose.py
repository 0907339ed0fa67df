from dataclasses import replace

import numpy as np
import pytest

import trialscope.selection as sel
from trialscope.decompose import (
    DecompositionReport,
    _auto_bandwidth,
    _TrialIndex,
    censored_aware_share,
    counterfactual_share,
    decompose,
    phase_scores,
    sponsor_split_sweep,
)
from trialscope.linker import build_synonym_map, link_all
from trialscope.pz import Z_D1, Z_D2, Z_SIG, outcome_table
from trialscope.registry import Phase, all_sponsor_splits
from trialscope.selection import (
    PinnedDesign,
    build_design,
    build_matrix,
    fit_logit,
    link_labels,
)
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

        def boom(*args, **kwargs):
            raise ValueError("forced failure")

        monkeypatch.setattr(sel, "_irls", boom)  # the fit core of every rep
        with pytest.raises(RuntimeError, match="failed"):
            decompose(outcome_table(reg), links, model=model, bootstrap_reps=20, seed=1)

    def test_stars_formatting(self):
        rep = DecompositionReport(
            shares={"ph2": 0.4}, diffs={"d": 0.2}, std_errs={"d": 0.05, "ph2": 0.1},
            n_obs={}, n_trials={}, bootstrap_reps=10,
        )
        assert rep.stars("d") == "***"


def subset_shares(ph2, ph3, labels, warm, rows2, rows3, cutoff=Z_SIG):
    """A rep's (ph2, ph3, ph2_sc) shares and weights from designs subset to
    its rows, a warm-started ``fit_logit`` and ``predict``: the reference
    for the pinned design matrix."""
    ph2_r, ph3_r = ph2.subset(rows2), ph3.subset(rows3)
    labelled = ~np.isnan(labels[rows2])
    fit_r = ph2_r.subset(np.flatnonzero(labelled))
    fit_r.y = labels[rows2][labelled]
    model = fit_logit(fit_r, warm_start=warm)
    b2 = _auto_bandwidth(ph2_r.z[ph2_r.kind == "precise"])
    b3 = _auto_bandwidth(ph3_r.z[ph3_r.kind == "precise"])
    shares = (
        censored_aware_share(ph2_r.kind, ph2_r.share_z, np.ones(ph2_r.n_obs), cutoff, b2),
        censored_aware_share(ph3_r.kind, ph3_r.share_z, np.ones(ph3_r.n_obs), cutoff, b3),
        counterfactual_share(ph2_r, model, cutoff, b2),
    )
    return shares, sel.predict(model, ph2_r), b2


class TestPinnedDesign:
    @pytest.fixture(scope="class")
    def setup(self, sim_small):
        reg, truth, links, _ = sim_small
        table = outcome_table(reg)
        model = fit_logit(build_design(table, links))
        ph2 = phase_scores(table, Phase.PHASE2)
        ph3 = phase_scores(table, Phase.PHASE3)
        labels = link_labels(ph2.trial_id, links)
        return table, links, model, ph2, ph3, labels

    def test_reps_match_subset_refits(self, setup):
        table, links, model, ph2, ph3, labels = setup
        pinned = PinnedDesign(ph2, labels, model)
        idx2, idx3 = _TrialIndex(ph2.trial_id), _TrialIndex(ph3.trial_id)
        draws = []
        for stream in np.random.SeedSequence(9).spawn(5):
            rng = np.random.default_rng(stream)
            rows2, rows3 = idx2.resample_rows(rng), idx3.resample_rows(rng)
            (a, b, c), w_ref, b2 = subset_shares(ph2, ph3, labels, model.coefficients,
                                                 rows2, rows3)
            w = pinned.refit_predict(rows2)
            assert np.max(np.abs(w - w_ref)) < 1e-9
            assert censored_aware_share(
                ph2.kind[rows2], ph2.share_z[rows2], w, Z_SIG, b2
            ) == pytest.approx(c, rel=0, abs=1e-9)
            draws.append((a, b, c, b - a, b - c, c - a))
        rep = decompose(table, links, model=model, bootstrap_reps=5, seed=9)
        assert rep.dropped_reps == 0
        ref = np.std(np.array(draws), axis=0, ddof=1)
        for j, key in enumerate(("ph2", "ph3", "ph2_sc", "ph3_minus_ph2",
                                 "ph3_minus_ph2_sc", "ph2_sc_minus_ph2")):
            assert rep.std_errs[key] == pytest.approx(ref[j], rel=0, abs=1e-9), key

    def test_absent_reference_level(self, setup):
        # without the pinned reference level the other condition dummies sum
        # to the constant; the screen drops one, which reparametrises the fit
        table, links, model, ph2, ph3, labels = setup
        ref_level = build_matrix(ph2)[2]["condition"][0]
        rows2 = np.flatnonzero((ph2.condition != ref_level) & ~np.isnan(labels))
        rows3 = np.arange(ph3.n_obs)
        (_, _, c), w_ref, b2 = subset_shares(ph2, ph3, labels, model.coefficients,
                                             rows2, rows3)
        with pytest.warns(UserWarning, match="collinear"):
            w = PinnedDesign(ph2, labels, model).refit_predict(rows2)
        assert np.max(np.abs(w - w_ref)) < 1e-9
        assert censored_aware_share(
            ph2.kind[rows2], ph2.share_z[rows2], w, Z_SIG, b2
        ) == pytest.approx(c, rel=0, abs=1e-9)

    def test_resample_rows_matches_concatenation(self):
        rng = np.random.default_rng(0)
        tid = rng.choice([f"T{i:03d}" for i in range(40)], 200)  # ~5 outcomes per trial
        order = np.argsort(tid, kind="stable")
        _, starts = np.unique(tid[order], return_index=True)
        bounds = np.append(starts, len(tid))
        groups = [order[bounds[i]:bounds[i + 1]] for i in range(len(starts))]
        index = _TrialIndex(tid)
        for seed in range(5):
            drawn = np.random.default_rng(seed).integers(0, len(groups), size=len(groups))
            expected = np.concatenate([groups[j] for j in drawn])
            assert np.array_equal(index.resample_rows(np.random.default_rng(seed)), expected)

    def test_failed_checks_are_dropped_reps(self, setup, monkeypatch):
        table, links, model, ph2, ph3, labels = setup
        real_irls, real_eigvalsh = sel._irls, np.linalg.eigvalsh
        raised = []

        def irls(X, y, clusters, beta, names, *args, **kwargs):
            call = len(raised)
            raised.append(None)
            try:
                if call == 0:  # labels that z separates: the fit runs away
                    z = X[:, names.index("z_ph2")]
                    y = (z > np.median(z)).astype(float)
                if call == 1:  # the clustered covariance gets a negative eigenvalue
                    with monkeypatch.context() as m:
                        m.setattr(np.linalg, "eigvalsh", lambda a: real_eigvalsh(a) - 1.0)
                        return real_irls(X, y, clusters, beta, names, *args, **kwargs)
                return real_irls(X, y, clusters, beta, names, *args, **kwargs)
            except RuntimeError as exc:
                raised[call] = str(exc)
                raise

        monkeypatch.setattr(sel, "_irls", irls)
        rep = decompose(table, links, model=model, bootstrap_reps=25, seed=2)
        assert "separation" in raised[0]
        assert "positive semidefinite" in raised[1]
        assert raised[2:] == [None] * 23
        assert rep.dropped_reps == 2
        assert all(np.isfinite(v) for v in rep.std_errs.values())


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

    def test_cross_group_match_is_cut(self, sim_small):
        # a Large phase II trial whose only match is a Small phase III trial
        # has not continued within the Large cell
        reg, truth, links, _ = sim_small
        table = outcome_table(reg)
        split = all_sponsor_splits(reg.rankings, k_range=[10])[0]
        large_rows = table.sponsor_groups(split)[0][1]
        fitted = set(build_design(table.subset(large_rows), links).trial_id)
        target = next(r for r in links if r.phase2_id in fitted and not r.continued)
        small_ph3 = min(t for t in table.group_trials(split, "Small")
                        if reg.trials[t].phase is Phase.PHASE3)
        crossed = [
            replace(r, matched_phase3_ids=frozenset({small_ph3})) if r is target else r
            for r in links
        ]
        assert sponsor_split_sweep(table, crossed, [split]) == sponsor_split_sweep(
            table, links, [split]
        )
        uncut = decompose(table.subset(large_rows), crossed, bootstrap_reps=0)
        cut = decompose(table.subset(large_rows), links, bootstrap_reps=0)
        assert uncut.shares["ph2_sc"] != cut.shares["ph2_sc"]
