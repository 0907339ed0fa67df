import io

import numpy as np
import pytest
from scipy.stats import chi2_contingency, kstest

from trialscope.discontinuity import binned_test, cjm_test
from trialscope.pz import Z_SIG
from trialscope.registry import write_outcomes_csv, write_trials_csv
from trialscope.simulate import (
    Misreporting,
    SimConfig,
    continuation_probability,
    expected_phase3_value,
    generate,
)


def registry_bytes(reg, tmp_path, tag):
    t = tmp_path / f"t{tag}.csv"
    o = tmp_path / f"o{tag}.csv"
    write_trials_csv(reg, t)
    write_outcomes_csv(reg, o)
    return t.read_bytes() + o.read_bytes()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_trials=0)
        with pytest.raises(ValueError):
            SimConfig(discount=0.0)
        with pytest.raises(ValueError):
            SimConfig(decision_rule="flip a coin")
        with pytest.raises(ValueError):
            Misreporting("suppress", q=1.5)
        with pytest.raises(ValueError):
            Misreporting("inflate", q=0.1, window=-1.0)


class TestGenerate:
    def test_seed_determinism(self, tmp_path):
        cfg = SimConfig(n_trials=250, seed=77)
        a, _ = generate(cfg)
        b, _ = generate(cfg)
        assert registry_bytes(a, tmp_path, "a") == registry_bytes(b, tmp_path, "b")

    def test_seed_sensitivity(self, tmp_path):
        a, _ = generate(SimConfig(n_trials=250, seed=77))
        b, _ = generate(SimConfig(n_trials=250, seed=78))
        assert registry_bytes(a, tmp_path, "a") != registry_bytes(b, tmp_path, "b")

    @pytest.mark.slow
    def test_decision_rules_statistically_equal(self):
        n = 50_000
        reg_l, truth_l = generate(SimConfig(n_trials=n, seed=5, decision_rule="logistic"))
        reg_s, truth_s = generate(SimConfig(n_trials=n, seed=5, decision_rule="shocks"))
        cont_l = np.array([t.continued for t in truth_l.trials])
        cont_s = np.array([t.continued for t in truth_s.trials])
        p = np.array([t.p_continue for t in truth_l.trials])
        # each empirical frequency within 3 MC standard errors of the mean
        # closed-form probability
        se = np.sqrt(np.sum(p * (1 - p))) / n
        assert abs(cont_l.mean() - p.mean()) < 3 * se
        assert abs(cont_s.mean() - p.mean()) < 3 * se
        table = np.array(
            [[cont_l.sum(), n - cont_l.sum()], [cont_s.sum(), n - cont_s.sum()]]
        )
        assert chi2_contingency(table).pvalue > 0.01

    def test_huge_cost_stops_everything(self):
        _, truth = generate(SimConfig(n_trials=2000, seed=6, cost=1e6))
        assert sum(t.continued for t in truth.trials) == 0

    def test_zero_effect_gives_half_normal(self):
        cfg = SimConfig(n_trials=20_000, seed=7, effect_mean=0.0, effect_sd=0.0)
        _, truth = generate(cfg)
        z2 = np.array([t.z2 for t in truth.trials])

        def half_normal_cdf(x):
            from scipy.stats import norm
            return 2.0 * norm.cdf(x) - 1.0

        stat = kstest(z2, half_normal_cdf).statistic
        assert stat < 0.02

    def test_carryover_keeps_phase3_equal(self):
        _, truth = generate(SimConfig(n_trials=500, seed=8))
        for t in truth.trials:
            if t.continued:
                assert t.z3_true == pytest.approx(t.z2, abs=1e-12)

    def test_fresh_noise_decorrelates(self):
        _, truth = generate(SimConfig(n_trials=4000, seed=9, phase3_fresh_noise=1.0))
        z2 = np.array([t.z2 for t in truth.trials if t.continued])
        z3 = np.array([t.z3_true for t in truth.trials if t.continued])
        corr = np.corrcoef(z2, z3)[0, 1]
        assert 0.05 < corr < 0.95

    def test_registry_consistency(self, sim_small):
        reg, truth, _, _ = sim_small
        for t in truth.trials:
            if t.continued:
                p3 = reg.trials[t.phase3_id]
                p2 = reg.trials[t.trial_id]
                assert p2.start_date < p3.start_date
                assert p2.mesh_conditions <= p3.mesh_conditions

    def test_structural_value_monotone_in_z(self):
        cfg = SimConfig(n_trials=10, seed=0)
        z = np.linspace(0.0, 4.0, 41)
        s2 = np.full_like(z, np.sqrt(200 / 4.0))
        ev = expected_phase3_value(z, s2, cfg)
        p = continuation_probability(z, s2, cfg)
        assert np.all(np.diff(ev) > -1e-12)
        assert np.all(np.diff(p) > -1e-9)


class TestMisreporting:
    def test_suppression_bookkeeping(self):
        cfg = SimConfig(n_trials=4000, seed=10, misreporting=Misreporting.suppress_share(0.3))
        reg, truth = generate(cfg)
        nonsig = [t for t in truth.trials if t.continued and t.z3_true < Z_SIG]
        suppressed = [t for t in nonsig if t.suppressed]
        assert 0.2 < len(suppressed) / len(nonsig) < 0.4
        sig = [t for t in truth.trials if t.continued and t.z3_true >= Z_SIG]
        assert not any(t.suppressed for t in sig)
        # suppressed results leave no outcome rows
        reported_p3 = {o.trial_id for o in reg.outcomes if o.trial_id.startswith("SIM3")}
        for t in suppressed:
            assert t.phase3_id not in reported_p3
        # but the phase III registration itself remains for linking
        for t in suppressed:
            assert t.phase3_id in reg.trials

    def test_suppression_effect_sign(self):
        cfg = SimConfig(n_trials=6000, seed=11, misreporting=Misreporting.suppress_share(0.5))
        _, truth = generate(cfg)
        assert truth.suppression_effect() > 0.05

    def test_inflate_zero_width_spikes_at_threshold(self):
        cfg = SimConfig(
            n_trials=6000, seed=12, misreporting=Misreporting.inflate_spike(0.1, 0.0)
        )
        _, truth = generate(cfg)
        inflated = [t for t in truth.trials if t.inflated]
        assert inflated
        assert all(t.z3_reported == pytest.approx(Z_SIG) for t in inflated)

    @pytest.mark.slow
    def test_inflate_detected_by_binned_test(self):
        hits = 0
        reps = 20
        for s in range(reps):
            cfg = SimConfig(
                n_trials=6600, seed=1000 + s,
                misreporting=Misreporting.inflate_spike(0.1, 0.0),
            )
            _, truth = generate(cfg)
            z = np.array(
                [t.z3_reported for t in truth.trials if t.continued][:3000]
            )
            r = binned_test(z, cutoff=Z_SIG, bin_width=0.08)
            hits += r.p_value < 0.05
        assert hits / reps >= 0.8

    @pytest.mark.slow
    def test_no_misreporting_cjm_size(self):
        rejections = 0
        reps = 60
        for s in range(reps):
            _, truth = generate(SimConfig(n_trials=7000, seed=2000 + s))
            z = np.array([t.z3_reported for t in truth.trials if t.continued])
            r = cjm_test(z, cutoff=Z_SIG)
            rejections += r.p_value < 0.05
        assert rejections / reps <= 0.12


class TestEndToEndTruthCheck:
    def test_selection_only_report(self):
        from trialscope.simulate import end_to_end_truth_check

        out = end_to_end_truth_check(SimConfig(n_trials=1200, seed=321),
                                     bootstrap_reps=60)
        assert out["oracle_suppression_effect"] == 0.0
        resid, se = out["residual"], out["residual_se"]
        assert abs(resid) < 3 * se
        assert out["link_summary"].n_continued > 0
        assert out["model"].converged
        assert not isinstance(out["cjm_phase3"], str)
        # identity of the underlying report
        rep = out["decomposition"]
        lhs = rep.diffs["ph2_sc_minus_ph2"] + rep.diffs["ph3_minus_ph2_sc"]
        assert lhs == pytest.approx(rep.diffs["ph3_minus_ph2"], abs=1e-12)

    def test_suppression_report_matches_oracle(self):
        from trialscope.simulate import end_to_end_truth_check

        cfg = SimConfig(n_trials=1600, seed=654,
                        misreporting=Misreporting.suppress_share(0.3))
        out = end_to_end_truth_check(cfg, bootstrap_reps=60)
        assert out["oracle_suppression_effect"] > 0.0
        assert out["residual"] == pytest.approx(
            out["oracle_suppression_effect"], abs=0.05
        )

    def test_inflation_detected(self):
        from trialscope.simulate import end_to_end_truth_check

        cfg = SimConfig(n_trials=5000, seed=987,
                        misreporting=Misreporting.inflate_spike(0.1, 0.0))
        out = end_to_end_truth_check(cfg, bootstrap_reps=0)
        assert out["binned_phase3"].p_value < 0.05
