from dataclasses import replace

import numpy as np
import pytest

import dense_logit
import trialscope.selection as sel
from pinned_phase import pinned_phase
from trialscope.decompose import (
    DecompositionReport,
    _auto_bandwidth,
    _PhaseSample,
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

    def test_rep_shares_equal_censored_aware_share(self):
        # a rep's two phase II shares read one kernel vector; each equals
        # the share function on its own weights, bit for bit
        reg, truth = generate(SimConfig(n_trials=2000, seed=20000))
        links, _ = link_all(reg, synonyms=build_synonym_map(truth.synonym_pairs))
        table = outcome_table(reg)
        model = fit_logit(build_design(table, links))
        ph2 = phase_scores(table, Phase.PHASE2)
        rows, z, labels, sample = pinned_phase(table, links)
        pinned = PinnedDesign(rows, z, labels, model)
        for stream in np.random.SeedSequence(20001).spawn(50):
            counts = sample.counts(np.random.default_rng(stream))
            w = counts * pinned.refit_predict(counts)
            h = sample.bandwidth(counts)
            expected = [censored_aware_share(ph2.kind, ph2.share_z, weights, Z_SIG, h)
                        for weights in (counts, w)]
            assert sample.shares((counts, w), Z_SIG, h) == expected

    def test_phase_sample_rejects_censored_rows_without_z(self):
        # a precise row and an other censor without an imputed z
        with pytest.raises(ValueError, match="censored rows need a bound or an imputed z"):
            _PhaseSample(np.array([0, 1]), np.array([True, False]), np.array([1.0, np.nan]),
                         np.array([0]))


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

    def test_negative_reps_rejected(self, sim_small):
        reg, truth, links, _ = sim_small
        with pytest.raises(ValueError, match="bootstrap_reps must be >= 0"):
            decompose(outcome_table(reg), links, bootstrap_reps=-1)

    def test_one_rep_rejected(self, sim_small, monkeypatch):
        # one draw has no standard deviation: rejected before any fit
        import trialscope.decompose as dec

        reg, truth, links, _ = sim_small
        monkeypatch.setattr(dec, "fit_logit", lambda *a, **k: pytest.fail("fitted"))
        with pytest.raises(ValueError, match="bootstrap_reps must be 0 or at least 2, got 1"):
            decompose(outcome_table(reg), links, bootstrap_reps=1)

    def test_stars_formatting(self):
        rep = DecompositionReport(
            shares={"ph2": 0.4}, diffs={"d": 0.2}, std_errs={"d": 0.05, "ph2": 0.1},
            n_obs={}, n_trials={}, bootstrap_reps=10,
        )
        assert rep.stars("d") == "***"


def resample_rows(trial_code, rng):
    """The rows of as many trials as there are, drawn with replacement,
    trial by trial in draw order: the gather path of a rep, and the
    reference for its draw counts."""
    order = np.argsort(trial_code, kind="stable")
    _, starts, sizes = np.unique(trial_code[order], return_index=True, return_counts=True)
    drawn = rng.integers(0, len(starts), size=len(starts))
    return np.concatenate([order[starts[j]:starts[j] + sizes[j]] for j in drawn])


def gather_rep(pinned, ph2, ph3, labels, rows2, rows3, cutoff=Z_SIG):
    """A rep on gathered rows, the reference for the draw counts: the rows
    of the dense matrix repeated as drawn, screened and refitted through
    the unweighted dense IRLS core, and the bandwidths and shares of the
    gathered samples.  Returns the weights of the gathered rows, the
    bandwidths and the rep's six draws."""
    X, names, _ = build_matrix(ph2)
    assert names == pinned.names
    X = X[rows2]
    fitting = ~np.isnan(labels[rows2])
    cols, _ = dense_logit.drop_collinear(X[fitting], names)
    clusters = ph2.condition
    fit_rows = rows2[fitting]
    fit = dense_logit.irls(
        X[fitting][:, cols], labels[fit_rows], clusters[fit_rows], pinned.beta0[cols],
        [names[j] for j in cols],
    )
    assert fit.converged
    w = dense_logit.expit(X[:, cols] @ fit.beta)
    b2 = _auto_bandwidth(ph2.z[rows2][ph2.kind[rows2] == "precise"])
    b3 = _auto_bandwidth(ph3.z[rows3][ph3.kind[rows3] == "precise"])
    a = censored_aware_share(ph2.kind[rows2], ph2.share_z[rows2], np.ones(len(rows2)),
                             cutoff, b2)
    b = censored_aware_share(ph3.kind[rows3], ph3.share_z[rows3], np.ones(len(rows3)),
                             cutoff, b3)
    c = censored_aware_share(ph2.kind[rows2], ph2.share_z[rows2], w, cutoff, b2)
    return w, (b2, b3), (a, b, c, b - a, b - c, c - a)


def count_rep(pinned, ph2, ph3, counts2, counts3, cutoff=Z_SIG):
    """The same rep from draw counts, as :func:`decompose` runs it."""
    p = pinned.refit_predict(counts2)
    b2, b3 = ph2.bandwidth(counts2), ph3.bandwidth(counts3)
    a, c = ph2.shares((counts2, counts2 * p), cutoff, b2)
    (b,) = ph3.shares((counts3,), cutoff, b3)
    return p, (b2, b3), (a, b, c, b - a, b - c, c - a)


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


KEYS = ("ph2", "ph3", "ph2_sc", "ph3_minus_ph2", "ph3_minus_ph2_sc", "ph2_sc_minus_ph2")


class TestPinnedDesign:
    @pytest.fixture(scope="class")
    def setup(self, sim_small):
        reg, truth, links, _ = sim_small
        table = outcome_table(reg)
        model = fit_logit(build_design(table, links))
        ph2 = phase_scores(table, Phase.PHASE2)
        ph3 = phase_scores(table, Phase.PHASE3)
        rows, z, labels, s2 = pinned_phase(table, links)
        s3 = pinned_phase(table, links, Phase.PHASE3)[3]
        return table, links, model, ph2, ph3, labels, PinnedDesign(rows, z, labels, model), s2, s3

    def test_reps_match_subset_refits(self, setup):
        table, links, model, ph2, ph3, labels, pinned, s2, s3 = setup
        draws = []
        for stream in np.random.SeedSequence(9).spawn(5):
            rng = np.random.default_rng(stream)
            counts2, counts3 = s2.counts(rng), s3.counts(rng)
            rng = np.random.default_rng(stream)
            rows2, rows3 = resample_rows(ph2.trial_code, rng), resample_rows(ph3.trial_code, rng)
            (a, b, c), w_ref, b2 = subset_shares(ph2, ph3, labels, model.coefficients,
                                                 rows2, rows3)
            p, _, draw = count_rep(pinned, s2, s3, counts2, counts3)
            assert np.max(np.abs(p[rows2] - w_ref)) < 1e-9
            assert draw[:3] == pytest.approx((a, b, c), rel=0, abs=1e-9)
            draws.append(draw)
        rep = decompose(table, links, model=model, bootstrap_reps=5, seed=9)
        assert rep.dropped_reps == 0
        ref = np.std(np.array(draws), axis=0, ddof=1)
        for j, key in enumerate(KEYS):
            assert rep.std_errs[key] == pytest.approx(ref[j], rel=0, abs=1e-9), key

    def test_pinned_rows_build_their_matrix_on_first_fit(self, sim_small):
        reg, _, links, _ = sim_small
        table = outcome_table(reg)
        rows2, z2, labels, _ = pinned_phase(table, links)
        rows3 = pinned_phase(table, links, Phase.PHASE3)[0]
        lazy = {"_columns", "_grouped"}
        assert lazy.isdisjoint(vars(rows2)) and lazy.isdisjoint(vars(rows3))
        rows2.fit(np.arange(len(z2)), z2, labels)
        assert lazy <= set(vars(rows2))

    def test_count_reps_match_gather_reps(self, setup):
        table, links, model, ph2, ph3, labels, pinned, s2, s3 = setup
        draws = []
        for stream in np.random.SeedSequence(17).spawn(20):
            counts_rng, rows_rng = np.random.default_rng(stream), np.random.default_rng(stream)
            counts2, counts3 = s2.counts(counts_rng), s3.counts(counts_rng)
            rows2 = resample_rows(ph2.trial_code, rows_rng)
            rows3 = resample_rows(ph3.trial_code, rows_rng)
            w_ref, h_ref, draw_ref = gather_rep(pinned, ph2, ph3, labels, rows2, rows3)
            p, h, draw = count_rep(pinned, s2, s3, counts2, counts3)
            assert np.max(np.abs(p[rows2] - w_ref)) < 1e-12
            assert h == pytest.approx(h_ref, rel=1e-12, abs=0)
            assert draw == pytest.approx(draw_ref, rel=0, abs=1e-12)
            draws.append(draw_ref)
        rep = decompose(table, links, model=model, bootstrap_reps=20, seed=17)
        assert rep.dropped_reps == 0
        ref = np.std(np.array(draws), axis=0, ddof=1)
        for j, key in enumerate(KEYS):
            assert rep.std_errs[key] == pytest.approx(ref[j], rel=1e-12, abs=0), key

    def test_absent_reference_level(self, setup):
        # without the pinned reference level the other condition dummies sum
        # to the constant; the screen drops one, which reparametrises the fit
        table, links, model, ph2, ph3, labels, pinned, s2, _ = setup
        ref_level = build_matrix(ph2)[2]["condition"][0]
        conditions = ph2.trials.conditions[ph2.condition]
        counts2 = ((conditions != ref_level) & ~np.isnan(labels)).astype(int)
        counts2[np.flatnonzero(counts2)[::3]] = 2  # some rows drawn twice
        rows2 = np.repeat(np.arange(ph2.n_obs), counts2)
        rows3 = np.arange(ph3.n_obs)
        (_, _, c), w_ref, b2 = subset_shares(ph2, ph3, labels, model.coefficients,
                                             rows2, rows3)
        with pytest.warns(UserWarning, match="collinear"):
            w_gather = gather_rep(pinned, ph2, ph3, labels, rows2, rows3)[0]
        with pytest.warns(UserWarning, match="collinear"):
            p = pinned.refit_predict(counts2)
        assert np.max(np.abs(p[rows2] - w_gather)) < 1e-12
        assert np.max(np.abs(p[rows2] - w_ref)) < 1e-9
        assert s2.shares((counts2 * p,), Z_SIG, b2)[0] == pytest.approx(
            c, rel=0, abs=1e-9
        )

    def test_resample_rows_matches_concatenation(self):
        rng = np.random.default_rng(0)
        # 40 trials with sparse codes, ~5 outcomes per trial
        code = rng.choice(np.arange(0, 400, 10), 200)
        order = np.argsort(code, kind="stable")
        _, starts = np.unique(code[order], return_index=True)
        bounds = np.append(starts, len(code))
        groups = [order[bounds[i]:bounds[i + 1]] for i in range(len(starts))]
        sample = _PhaseSample(code, np.ones(len(code), dtype=bool), np.zeros(len(code)),
                              np.arange(len(code)))
        for seed in range(5):
            drawn = np.random.default_rng(seed).integers(0, len(groups), size=len(groups))
            expected = np.concatenate([groups[j] for j in drawn])
            assert np.array_equal(resample_rows(code, np.random.default_rng(seed)), expected)
            # a rep's draw counts are the bincount of its concatenated rows
            counts = sample.counts(np.random.default_rng(seed))
            assert np.array_equal(counts, np.bincount(expected, minlength=len(code)))

    def test_failed_checks_are_dropped_reps(self, setup, monkeypatch):
        table, links, model, *_ = setup
        real_irls, real_eigvalsh = sel._irls, np.linalg.eigvalsh
        raised = []

        def irls(X, y, beta, cols, *args, **kwargs):
            call = len(raised)
            raised.append(None)
            try:
                if call == 0:  # labels that z separates: the fit runs away
                    z = X.dense[:, X.names.index("z_ph2")]
                    y = (z > np.median(z)).astype(float)
                if call == 1:  # the clustered covariance gets a negative eigenvalue
                    with monkeypatch.context() as m:
                        m.setattr(np.linalg, "eigvalsh", lambda a: real_eigvalsh(a) - 1.0)
                        return real_irls(X, y, beta, cols, *args, **kwargs)
                return real_irls(X, y, beta, cols, *args, **kwargs)
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
        fitted = set(build_design(table.subset(large_rows), links).trial_code.tolist())
        target = next(i for i, code in enumerate(links.phase2.tolist())
                      if code in fitted and links.n_matches[i] == 0)
        small_ph3 = min(c for c in np.flatnonzero(table.group_mask(split, "Small"))
                        if table.trials.phase[c] == Phase.PHASE3.value)
        at = links.offsets[target]
        crossed = replace(
            links, offsets=np.r_[links.offsets[:target + 1], links.offsets[target + 1:] + 1],
            matched=np.insert(links.matched, at, small_ph3),
        )
        assert crossed.labels(table.trials.ids)[links.phase2[target]] == 1.0
        assert sponsor_split_sweep(table, crossed, [split]) == sponsor_split_sweep(
            table, links, [split]
        )
        uncut = decompose(table.subset(large_rows), crossed, bootstrap_reps=0)
        cut = decompose(table.subset(large_rows), links, bootstrap_reps=0)
        assert uncut.shares["ph2_sc"] != cut.shares["ph2_sc"]
