import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from trialscope.pz import Z_D1, Z_D2, outcome_table
from trialscope.registry import OutcomeRank
from trialscope.selection import (
    CORE_COEFS,
    SelectionDesign,
    SelectionModel,
    SeparationError,
    _drop_collinear,
    _irls,
    build_design,
    build_matrix,
    fit_logit,
    predict,
    predict_at_mean,
    wald_equality,
)


def synthetic_design(rng, n, beta=None, n_cond=12, n_years=8, rows_per_trial=1):
    """Bernoulli draws from a known logistic index over realistic columns."""
    beta = beta or {
        "const": -1.8, "z_ph2": 0.331, "d1": 1.063, "d2": 1.232,
        "sqrt_enroll": 0.01, "placebo": 0.1, "mht_adjusted": 0.2,
    }
    z = np.abs(rng.normal(0.8, 1.2, n))
    cens = rng.random(n)
    d1 = (cens < 0.18).astype(int)
    d2 = ((cens >= 0.18) & (cens < 0.31)).astype(int)
    z = np.where((d1 == 1) | (d2 == 1), 0.0, z)
    sqrt_enroll = np.sqrt(rng.integers(20, 400, n).astype(float))
    placebo = rng.integers(0, 2, n)
    mht = (rng.random(n) < 0.03).astype(int)
    cond = rng.choice([f"C{i:02d}" for i in range(1, n_cond + 1)], n)
    year = rng.choice([str(y) for y in range(2009, 2009 + n_years)], n)
    eta = (beta["const"] + beta["z_ph2"] * z + beta["d1"] * d1 + beta["d2"] * d2
           + beta["sqrt_enroll"] * sqrt_enroll + beta["placebo"] * placebo
           + beta["mht_adjusted"] * mht)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    kind = np.where(d1 == 1, "above_d1", np.where(d2 == 1, "above_d2", "precise"))
    tid = np.array([f"T{i // rows_per_trial:05d}" for i in range(n)], dtype=object)
    bound = np.where(d1 == 1, Z_D1, np.where(d2 == 1, Z_D2, np.nan))
    return SelectionDesign(
        y=y, z=z, d1=d1, d2=d2, sqrt_enroll=sqrt_enroll,
        placebo=placebo.astype(int), mht=mht, condition=cond.astype(object),
        year=year.astype(object), trial_id=tid, kind=kind.astype(object), bound=bound,
    ), beta


class TestDesign:
    def test_censored_rows(self, sim_small):
        reg, truth, links, _ = sim_small
        design = build_design(outcome_table(reg), links)
        assert design.n_obs == sum(
            1 for o in reg.outcomes
            if o.outcome_rank is OutcomeRank.PRIMARY and o.trial_id.startswith("SIM2")
        )
        d2_rows = design.kind == "above_d2"
        assert np.all(design.z[d2_rows] == 0.0)
        assert np.all(design.d2[d2_rows] == 1)
        assert np.all(design.d1 * design.d2 == 0)
        assert np.all(design.share_z[d2_rows] == design.bound[d2_rows])
        assert np.all(np.isnan(design.bound[design.kind == "precise"]))

    def test_empty_design_raises(self, sim_small):
        reg, truth, links, _ = sim_small
        empty = reg.filter_trials(lambda t: False)
        with pytest.raises(ValueError, match="empty"):
            build_design(outcome_table(empty), links)

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SelectionDesign(
                y=np.array([1.0]), z=np.array([0.0]), d1=np.array([1]),
                d2=np.array([1]), sqrt_enroll=np.array([1.0]),
                placebo=np.array([0]), mht=np.array([0]),
                condition=np.array(["A"], dtype=object),
                year=np.array(["2010"], dtype=object),
                trial_id=np.array(["T"], dtype=object),
                kind=np.array(["above_d1"], dtype=object),
                bound=np.array([Z_D1]),
            )

    def test_table_matches_scalar_registry_path(self, sim_small):
        # a registry is transformed outcome by outcome through the scalar
        # transform; the table of outcome_table is transformed at once
        reg, truth, links, _ = sim_small
        a = build_design(reg, links)
        b = build_design(outcome_table(reg), links)
        for name in ("y", "z", "d1", "d2", "sqrt_enroll", "placebo", "mht",
                     "condition", "year", "trial_id", "kind", "bound"):
            col_a, col_b = getattr(a, name), getattr(b, name)
            assert col_a.dtype.kind == col_b.dtype.kind, name
            assert np.array_equal(col_a, col_b, equal_nan=col_a.dtype.kind == "f"), name


class TestFit:
    def test_score_at_optimum(self):
        design, _ = synthetic_design(np.random.default_rng(0), 3000)
        m = fit_logit(design)
        X, names, _ = build_matrix(design)
        X = X[:, [names.index(nm) for nm in m.names]]
        p = 1.0 / (1.0 + np.exp(-(X @ m.coef)))
        assert np.max(np.abs(X.T @ (design.y - p))) < 1e-6
        assert m.converged

    def test_brute_force_clustered_sandwich(self):
        design, _ = synthetic_design(np.random.default_rng(1), 50, n_cond=5, n_years=3)
        m = fit_logit(design)
        X, names, _ = build_matrix(design)
        X = X[:, [names.index(nm) for nm in m.names]]
        p = 1.0 / (1.0 + np.exp(-(X @ m.coef)))
        w = p * (1 - p)
        bread = np.linalg.inv(X.T @ (X * w[:, None]))
        meat = np.zeros((X.shape[1], X.shape[1]))
        for g in np.unique(design.condition.astype(str)):
            rows = np.where(design.condition.astype(str) == g)[0]
            s = np.zeros(X.shape[1])
            for i in rows:
                s += X[i] * (design.y[i] - p[i])
            meat += np.outer(s, s)
        G = len(np.unique(design.condition.astype(str)))
        n, k = X.shape
        factor = G / (G - 1) * (n - 1) / (n - k)
        vcov = factor * bread @ meat @ bread
        assert np.max(np.abs(vcov - m.vcov)) < 1e-10

    def test_single_class_raises(self):
        design, _ = synthetic_design(np.random.default_rng(2), 200)
        design.y[:] = 1.0
        with pytest.raises(ValueError, match="both outcome classes"):
            fit_logit(design)

    def test_separation_detected(self):
        design, _ = synthetic_design(np.random.default_rng(3), 400)
        design.y = design.placebo.astype(float)  # placebo separates perfectly
        with pytest.raises(SeparationError, match="placebo"):
            fit_logit(design)

    def test_collinear_dropped_with_warning(self):
        design, _ = synthetic_design(np.random.default_rng(4), 300, n_cond=1)
        # a single condition level makes its dummy collinear with nothing
        # (absorbed into reference); cook a direct collinearity instead
        design.mht = design.placebo.copy()
        with pytest.warns(UserWarning, match="collinear"):
            m = fit_logit(design)
        assert "mht_adjusted" in m.dropped
        assert m.converged

    def test_year_relabeling_invariance(self):
        design, _ = synthetic_design(np.random.default_rng(5), 1500)
        m1 = fit_logit(design)
        p1 = predict(m1, design)
        shifted = SelectionDesign(
            y=design.y, z=design.z, d1=design.d1, d2=design.d2,
            sqrt_enroll=design.sqrt_enroll, placebo=design.placebo,
            mht=design.mht, condition=design.condition,
            year=np.array([str(int(v) + 1000) for v in design.year], dtype=object),
            trial_id=design.trial_id, kind=design.kind, bound=design.bound,
        )
        m2 = fit_logit(shifted)
        p2 = predict(m2, shifted)
        assert np.max(np.abs(p1 - p2)) < 1e-8

    def test_warm_start_agrees(self):
        design, _ = synthetic_design(np.random.default_rng(6), 1200)
        m1 = fit_logit(design)
        m2 = fit_logit(design, warm_start=dict(zip(m1.names, m1.coef)))
        assert np.max(np.abs(m1.coef - m2.coef)) < 1e-7

    def test_frequency_weights_equal_repeated_rows(self):
        # every term of the weighted core (score, information, likelihood,
        # cluster sums, small-sample factor) counts a row of weight c c times
        rng = np.random.default_rng(7)
        design, _ = synthetic_design(rng, 600, n_cond=8, n_years=4)
        X, names, _ = build_matrix(design)
        clusters = np.unique(design.condition.astype(str), return_inverse=True)[1]
        c = rng.integers(1, 4, design.n_obs)
        rows = np.repeat(np.arange(design.n_obs), c)
        start = np.zeros(X.shape[1])
        ref = _irls(X[rows], design.y[rows], clusters[rows], start, names)
        got = _irls(X, design.y, clusters, start, names, weights=c.astype(float))
        assert got.converged and ref.converged
        assert got.n_clusters == ref.n_clusters
        np.testing.assert_allclose(got.beta, ref.beta, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.vcov, ref.vcov, rtol=1e-10, atol=1e-14)
        assert got.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-12)


def greedy_columns(X, tol=1e-8):
    """Columns kept by the greedy Gram-Schmidt filter, one column at a time:
    the reference for the screened ``_drop_collinear``."""
    Q = np.empty((X.shape[0], 0))
    keep = []
    for j in range(X.shape[1]):
        col = X[:, j]
        resid = col - Q @ (Q.T @ col) if Q.shape[1] else col.copy()
        norm = np.linalg.norm(resid)
        if norm > tol * max(np.linalg.norm(col), 1.0):
            keep.append(j)
            Q = np.column_stack([Q, resid / norm])
    return keep


class TestColumnScreen:
    @pytest.fixture
    def matrix(self):
        design, _ = synthetic_design(np.random.default_rng(12), 800)
        X, names, _ = build_matrix(design)
        return X, names

    def screened(self, X, names):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _drop_collinear(X, names)[0].tolist()

    def test_full_rank_keeps_all(self, matrix):
        X, names = matrix
        assert self.screened(X, names) == greedy_columns(X) == list(range(X.shape[1]))

    @pytest.mark.parametrize("offset, kept", [(0.0, False), (1e-7, True), (1e-10, False)])
    def test_duplicate_and_near_duplicate(self, matrix, offset, kept):
        X, names = matrix
        rng = np.random.default_rng(13)
        noise = rng.normal(size=X.shape[0])
        # column 5 (placebo) is replaced by z plus a residual of relative size offset
        X = X.copy()
        X[:, 5] = X[:, 1] + offset * np.linalg.norm(X[:, 1]) * noise / np.linalg.norm(noise)
        expected = greedy_columns(X)
        assert (5 in expected) is kept
        assert self.screened(X, names) == expected

    def test_zero_and_constant_sum_columns(self, matrix):
        X, names = matrix
        X = X.copy()
        X[:, 8] = 0.0  # a level absent from the rows
        X[:, 9] = X[:, 0] - X[:, 10:].sum(axis=1)  # dummies summing to the constant
        expected = greedy_columns(X)
        assert len(expected) < X.shape[1] - 1
        with pytest.warns(UserWarning, match="collinear"):
            cols, dropped = _drop_collinear(X, names)
        assert cols.tolist() == expected
        assert dropped == [names[j] for j in range(X.shape[1]) if j not in expected]


class TestWald:
    def test_identical_models_p_one(self):
        design, _ = synthetic_design(np.random.default_rng(7), 1500)
        m = fit_logit(design)
        assert wald_equality(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_split_halves_uniform(self):
        # the chi-square reference needs well-estimated covariances, so
        # cluster by trial here (hundreds of clusters); with the ~16
        # condition clusters of the headline specification the usual
        # few-cluster overdispersion applies
        ps = []
        for s in range(200):
            design, _ = synthetic_design(
                np.random.default_rng(100 + s), 2000, rows_per_trial=2
            )
            half = design.n_obs // 2
            ma = fit_logit(design.subset(np.arange(half)), cluster_by="trial_id")
            mb = fit_logit(design.subset(np.arange(half, design.n_obs)),
                           cluster_by="trial_id")
            ps.append(wald_equality(ma, mb))
        stat = kstest(ps, "uniform")
        assert stat.pvalue > 0.01

    def test_cluster_by_any_column(self):
        design, _ = synthetic_design(np.random.default_rng(14), 600)
        assert fit_logit(design, cluster_by="year").n_clusters == len(np.unique(design.year))
        assert fit_logit(design, cluster_by="trial_id").n_clusters == design.n_trials

    def test_unknown_cluster_column(self):
        design, _ = synthetic_design(np.random.default_rng(15), 300)
        with pytest.raises(ValueError, match="cluster column 'sponsor'"):
            fit_logit(design, cluster_by="sponsor")

    def test_missing_coefficient(self):
        design, _ = synthetic_design(np.random.default_rng(8), 800)
        m = fit_logit(design)
        with pytest.raises(ValueError, match="missing"):
            wald_equality(m, m, coef_names=("nonexistent",))

    def test_chi2_df_matches_coefs(self):
        assert len(CORE_COEFS) == 4


class TestPredict:
    def test_zero_coefficients_give_half(self):
        design, _ = synthetic_design(np.random.default_rng(9), 2000)
        m = fit_logit(design)
        m.coef = np.zeros_like(m.coef)
        assert np.allclose(predict(m, design), 0.5)

    def test_monotone_in_z(self):
        design, _ = synthetic_design(np.random.default_rng(10), 2000)
        m = fit_logit(design)
        grid = np.linspace(0, 5, 21)
        curve = predict_at_mean(m, design, grid)
        assert np.all(np.diff(curve) > 0)
        assert np.all((curve > 0) & (curve < 1))

    def test_unseen_level_warns_and_uses_reference(self):
        design, _ = synthetic_design(np.random.default_rng(11), 600)
        m = fit_logit(design)
        other = SelectionDesign(
            y=design.y[:5], z=design.z[:5], d1=design.d1[:5], d2=design.d2[:5],
            sqrt_enroll=design.sqrt_enroll[:5], placebo=design.placebo[:5],
            mht=design.mht[:5],
            condition=np.array(["NEVER_SEEN"] * 5, dtype=object),
            year=design.year[:5], trial_id=design.trial_id[:5], kind=design.kind[:5],
            bound=design.bound[:5],
        )
        with pytest.warns(UserWarning, match="unseen"):
            p = predict(m, other)
        ref = SelectionDesign(
            y=design.y[:5], z=design.z[:5], d1=design.d1[:5], d2=design.d2[:5],
            sqrt_enroll=design.sqrt_enroll[:5], placebo=design.placebo[:5],
            mht=design.mht[:5],
            condition=np.array([m.levels["condition"][0]] * 5, dtype=object),
            year=design.year[:5], trial_id=design.trial_id[:5], kind=design.kind[:5],
            bound=design.bound[:5],
        )
        assert np.allclose(p, predict(m, ref))


class TestSecondaryContrast:
    def test_secondary_coefficient_indistinguishable_from_zero(self):
        # continuation in the simulator depends only on the primary z, so a
        # fit on secondary outcomes should find nothing
        from trialscope.linker import build_synonym_map, link_all
        from trialscope.simulate import SimConfig, generate

        hits = 0
        reps = 12
        for s in range(reps):
            cfg = SimConfig(n_trials=700, seed=4000 + s, secondary_outcomes_per_trial=2)
            reg, truth = generate(cfg)
            links, _ = link_all(reg, synonyms=build_synonym_map(truth.synonym_pairs))
            design = build_design(outcome_table(reg), links, outcome_rank=OutcomeRank.SECONDARY)
            m = fit_logit(design)
            se = m.se()["z_ph2"]
            t = m.coefficients["z_ph2"] / se
            hits += abs(t) < 1.959964
        assert hits / reps >= 0.9
