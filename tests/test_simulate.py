import hashlib
import io
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency, kstest

from trialscope import simulate
from trialscope.discontinuity import binned_test, cjm_test
from trialscope.pz import Z_SIG
from trialscope.registry import write_outcomes_csv, write_trials_csv
from trialscope.simulate import (
    Misreporting,
    SimConfig,
    continuation_probability,
    expected_phase3_value,
    generate,
    write_truth_csv,
)

from records import records


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
        cont_l, cont_s, p = truth_l.continued, truth_s.continued, truth_l.p_continue
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
        assert truth.continued.sum() == 0

    def test_zero_effect_gives_half_normal(self):
        cfg = SimConfig(n_trials=20_000, seed=7, effect_mean=0.0, effect_sd=0.0)
        _, truth = generate(cfg)
        z2 = truth.z2

        def half_normal_cdf(x):
            from scipy.stats import norm
            return 2.0 * norm.cdf(x) - 1.0

        stat = kstest(z2, half_normal_cdf).statistic
        assert stat < 0.02

    def test_carryover_keeps_phase3_equal(self):
        _, truth = generate(SimConfig(n_trials=500, seed=8))
        cont = truth.continued
        for z3, z2 in zip(truth.z3_true[cont].tolist(), truth.z2[cont].tolist()):
            assert z3 == pytest.approx(z2, abs=1e-12)

    def test_fresh_noise_decorrelates(self):
        _, truth = generate(SimConfig(n_trials=4000, seed=9, phase3_fresh_noise=1.0))
        z2, z3 = truth.z2[truth.continued], truth.z3_true[truth.continued]
        corr = np.corrcoef(z2, z3)[0, 1]
        assert 0.05 < corr < 0.95

    def test_registry_consistency(self, sim_small):
        reg, truth, _, _ = sim_small
        trials = records(reg)
        cont = truth.continued
        for trial_id, phase3_id in zip(truth.trial_id[cont].tolist(),
                                       truth.phase3_id[cont].tolist()):
            p3 = trials[phase3_id]
            p2 = trials[trial_id]
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


# truth.csv of a run with each misreporting kind: its config and sha256,
# recorded from the writer of per-trial truth records that the columns replaced
TRUTH_SHA256 = {
    "suppress": (SimConfig(n_trials=400, seed=21, misreporting=Misreporting.suppress_share(0.3)),
                 "dfe76002f2be0bd4d3a59536921458c0163caecf5e7fd486d433aec7f4c75935"),
    "inflate": (SimConfig(n_trials=400, seed=22,
                          misreporting=Misreporting.inflate_spike(0.3, 0.4)),
                "c66d415e72fd436537c07fccec9c64a89e8ec22e70135cfd6419671a6d6c8ad7"),
}


class TestTruth:
    @pytest.mark.parametrize("kind", sorted(TRUTH_SHA256))
    def test_truth_csv_bytes(self, tmp_path, kind):
        cfg, sha256 = TRUTH_SHA256[kind]
        _, truth = generate(cfg)
        assert (truth.suppressed if kind == "suppress" else truth.inflated).any()
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_phase3_cells_are_empty_where_a_trial_stopped(self):
        cfg, _ = TRUTH_SHA256["inflate"]
        _, truth = generate(cfg)
        cont, stop = truth.continued, ~truth.continued
        assert cont.any() and stop.any()
        assert {len(getattr(truth, c)) for c in ("trial_id", "theta", "t2", "z2", "p_continue",
                                                 "continued", "phase3_id", "z3_true",
                                                 "z3_reported", "suppressed",
                                                 "inflated")} == {cfg.n_trials}
        assert (truth.phase3_id[stop] == "").all()
        assert np.isnan(truth.z3_true[stop]).all() and np.isnan(truth.z3_reported[stop]).all()
        assert not (truth.suppressed[stop] | truth.inflated[stop]).any()
        assert not np.isnan(truth.z3_true[cont]).any()
        assert [i.replace("SIM3", "SIM2") for i in truth.phase3_id[cont].tolist()] == \
            truth.trial_id[cont].tolist()
        assert truth.continued_ids() == set(truth.trial_id[cont].tolist())


# trials.csv, outcomes.csv and truth.csv of runs whose sizes are not
# multiples of 8, recorded with the Gauss-Hermite grid in blocks of 1,000
# trials and the registry columns passed as lists of str
CSV_SHA256 = {
    "suppress_1003": (
        SimConfig(n_trials=1003, seed=23, misreporting=Misreporting.suppress_share(0.3)),
        {"trials": "faafc45bc6427ffb0e278ce4f3990155726ec6285f9462ed607c51efc9f991a0",
         "outcomes": "57012f72c84c2b04b65e9357b29be164ada35cd38248def6c638d252d3149537",
         "truth": "98463fa9e2392db7dd5f32a4e63ed0545782144c05ad1b0788fa412cfd6dc0b3"}),
    "inflate_2001": (
        SimConfig(n_trials=2001, seed=24, misreporting=Misreporting.inflate_spike(0.3, 0.4)),
        {"trials": "9a716e0ecbf94df7305c922ca4ad78620657436f7cf5688017e1b4179bb146e3",
         "outcomes": "5c13d7b7275a9e20278da641d3e5aad3cc0fced00bb9d2a388c33eb19c5096e2",
         "truth": "e6bbb8d0c8879d5d7469ceeea5969a19da5534002349efc4e07084f9122cb15d"}),
}


class TestBytes:
    @pytest.mark.parametrize("name", sorted(CSV_SHA256))
    def test_csv_bytes(self, tmp_path, name):
        cfg, expected = CSV_SHA256[name]
        reg, truth = generate(cfg)
        write_trials_csv(reg, tmp_path / "trials")
        write_outcomes_csv(reg, tmp_path / "outcomes")
        write_truth_csv(truth, tmp_path / "truth")
        assert {k: hashlib.sha256((tmp_path / k).read_bytes()).hexdigest()
                for k in expected} == expected

    def test_shocks_rule_evaluates_one_grid(self, tmp_path, monkeypatch):
        # recorded when the shocks rule evaluated the Gauss-Hermite grid twice
        expected = {
            "trials": "82233d724c764e813aef15c8739a2eb000e75445f94613357d9ad263045fe70f",
            "outcomes": "751729a9c39c8d4f3ba3b4f66c9ebe4e6c22237bd0a00457730ad2b2a94d1894",
            "truth": "3ceb8241c08dc4ddf2c062a4922a8c3c545e0ef59b36d85cfbcecd4170be17ef"}
        calls, real = [], simulate.expected_phase3_value
        monkeypatch.setattr(simulate, "expected_phase3_value",
                            lambda *a: calls.append(1) or real(*a))
        reg, truth = generate(SimConfig(n_trials=1003, seed=25, decision_rule="shocks"))
        assert len(calls) == 1
        write_trials_csv(reg, tmp_path / "trials")
        write_outcomes_csv(reg, tmp_path / "outcomes")
        write_truth_csv(truth, tmp_path / "truth")
        assert {k: hashlib.sha256((tmp_path / k).read_bytes()).hexdigest()
                for k in expected} == expected

    @pytest.mark.parametrize("n", [7, 1003, 2001])
    def test_gauss_hermite_blocks_keep_the_bits(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        s2 = np.sqrt(rng.integers(40, 401, size=n) / 4.0)
        t2 = s2 * rng.normal(0.12, 0.25, size=n) + rng.normal(size=n)
        values = []
        for block in (8, 256, 1000, n):
            monkeypatch.setattr(simulate, "_GH_BLOCK", block)
            values.append(expected_phase3_value(t2, s2, SimConfig()).tobytes())
        assert len(set(values)) == 1


class TestMemory:
    def test_generate_traced_peak(self):
        # the traced peak of this call was 40.5 MiB with the Gauss-Hermite
        # grid in blocks of 1,000 trials and every registry column a list,
        # and 28.1 MiB with blocks of 256, numeric columns as arrays and one
        # str object per distinct phase, sponsor and MeSH cell
        tracemalloc.start()
        try:
            generate(SimConfig(n_trials=20_000, seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 34 * 2**20

    @pytest.mark.slow
    def test_simulate_200k_peak_rss(self, tmp_path):
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status")
        code = textwrap.dedent("""
            import sys
            from trialscope.cli import main
            assert main(sys.argv[1:]) == 0
            with open("/proc/self/status") as fh:
                hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
            print(hwm[0] if hwm else "missing")
        """)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(simulate.__file__))}
        out = subprocess.run(
            [sys.executable, "-c", code, "simulate", "--n-trials", "200000", "--seed", "7",
             "--out", str(tmp_path / "sim")],
            capture_output=True, text=True, check=True, timeout=600, env=env)
        hwm = out.stdout.strip().splitlines()[-1]
        if hwm == "missing":
            pytest.skip("/proc/self/status has no VmHWM")
        assert int(hwm) <= 450 * 1024  # kB


class TestMisreporting:
    def test_suppression_bookkeeping(self):
        cfg = SimConfig(n_trials=4000, seed=10, misreporting=Misreporting.suppress_share(0.3))
        reg, truth = generate(cfg)
        nonsig = truth.continued & (truth.z3_true < Z_SIG)
        suppressed = nonsig & truth.suppressed
        assert 0.2 < suppressed.sum() / nonsig.sum() < 0.4
        sig = truth.continued & (truth.z3_true >= Z_SIG)
        assert not truth.suppressed[sig].any()
        # suppressed results leave no outcome rows
        reported_p3 = {t for t in reg.trials.ids[reg.outcomes.trial] if t.startswith("SIM3")}
        for phase3_id in truth.phase3_id[suppressed].tolist():
            assert phase3_id not in reported_p3
        # but the phase III registration itself remains for linking
        for phase3_id in truth.phase3_id[suppressed].tolist():
            assert phase3_id in reg.trials.ids

    def test_suppression_effect_sign(self):
        cfg = SimConfig(n_trials=6000, seed=11, misreporting=Misreporting.suppress_share(0.5))
        _, truth = generate(cfg)
        assert truth.suppression_effect() > 0.05

    def test_inflate_zero_width_spikes_at_threshold(self):
        cfg = SimConfig(
            n_trials=6000, seed=12, misreporting=Misreporting.inflate_spike(0.1, 0.0)
        )
        _, truth = generate(cfg)
        inflated = truth.z3_reported[truth.inflated].tolist()
        assert inflated
        assert all(z == pytest.approx(Z_SIG) for z in inflated)

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
            z = truth.z3_reported[truth.continued][:3000]
            r = binned_test(z, cutoff=Z_SIG, bin_width=0.08)
            hits += r.p_value < 0.05
        assert hits / reps >= 0.8

    @pytest.mark.slow
    def test_no_misreporting_cjm_size(self):
        rejections = 0
        reps = 60
        for s in range(reps):
            _, truth = generate(SimConfig(n_trials=7000, seed=2000 + s))
            z = truth.z3_reported[truth.continued]
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
