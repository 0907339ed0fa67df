import numpy as np
import pytest

from trialscope import discontinuity
from trialscope.discontinuity import (
    DiscontinuityResult,
    binned_test,
    cjm_test,
    sponsor_sweep,
)
from trialscope.pz import outcome_table
from trialscope.registry import Phase, all_sponsor_splits
from trialscope.simulate import SimConfig, generate


def shifted_sample(rng, n, q=0.15):
    """Half-normal with a fraction q of the (1.6, 1.96) mass relocated
    uniformly into (1.96, 2.4)."""
    x = np.abs(rng.normal(size=n))
    win = (x > 1.6) & (x < 1.96)
    move = win & (rng.random(n) < q)
    x[move] = rng.uniform(1.96, 2.4, size=int(move.sum()))
    return x


class TestCjm:
    def test_equivariance(self):
        x = np.abs(np.random.default_rng(3).normal(size=3000))
        r1 = cjm_test(x, 1.96)
        a, b = 2.7, -1.3
        r2 = cjm_test(a * x + b, a * 1.96 + b)
        assert r2.t_stat == pytest.approx(r1.t_stat, abs=1e-8)
        assert r2.p_value == pytest.approx(r1.p_value, abs=1e-8)
        assert r2.jump == pytest.approx(r1.jump / a, rel=1e-8)

    def test_mirror_symmetry(self):
        x = np.abs(np.random.default_rng(4).normal(size=3000))
        r1 = cjm_test(x, 1.96)
        r3 = cjm_test(2 * 1.96 - x, 1.96)
        assert r3.jump == pytest.approx(-r1.jump, abs=1e-10)
        assert abs(r3.t_stat) == pytest.approx(abs(r1.t_stat), abs=1e-8)

    def test_uniform_grid_jump_vanishes(self):
        x = np.linspace(0.0, 4.0, 10_000)
        r = cjm_test(x, cutoff=2.0)
        assert abs(r.jump) < 0.02
        assert r.f_left == pytest.approx(0.25, abs=0.02)
        assert r.f_right == pytest.approx(0.25, abs=0.02)

    def test_result_invariants(self):
        x = np.abs(np.random.default_rng(5).normal(size=2000))
        r = cjm_test(x, 1.96)
        assert r.jump == pytest.approx(r.f_right - r.f_left)
        from trialscope.pz import norm_cdf
        assert r.p_value == pytest.approx(2 * (1 - norm_cdf(abs(r.t_stat))))
        assert r.n_left >= 50 and r.n_right >= 50

    def test_detects_constructed_jump(self):
        # density 0.35 left, 0.65 right of the cutoff: huge relative break
        rng = np.random.default_rng(6)
        n = 8000
        u = rng.random(n)
        x = np.where(u < 0.35, rng.uniform(0, 1, n), 1.0 + rng.uniform(0, 1, n))
        r = cjm_test(x, cutoff=1.0)
        assert r.p_value < 0.01
        assert r.jump > 0.15

    def test_insufficient_side_named(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(0, 1, 500), rng.uniform(1, 2, 10)])
        with pytest.raises(ValueError, match="right"):
            cjm_test(x, cutoff=1.0)
        with pytest.raises(ValueError, match="left"):
            cjm_test(-x, cutoff=-1.0)

    def test_degenerate_side(self):
        x = np.concatenate([np.full(100, 0.5), np.random.default_rng(8).uniform(1, 2, 100)])
        with pytest.raises(ValueError, match="degenerate"):
            cjm_test(x, cutoff=1.0)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="poly_order"):
            cjm_test(np.random.default_rng(9).uniform(0, 2, 200), 1.0, poly_order=1)

    def test_bandwidth_override(self):
        x = np.abs(np.random.default_rng(10).normal(size=2000))
        r = cjm_test(x, 1.96, bandwidth=0.6)
        assert r.h_left == 0.6 and r.h_right == 0.6
        r2 = cjm_test(x, 1.96, bandwidth=(0.5, 0.7))
        assert r2.h_left == 0.5 and r2.h_right == 0.7

    def test_sign_agreement_with_binned_on_shift(self):
        agree = 0
        n_seeds = 40
        for s in range(n_seeds):
            rng = np.random.default_rng(900 + s)
            x = shifted_sample(rng, 8000)
            a = cjm_test(x, 1.96)
            b = binned_test(x, 1.96, bin_width=0.05)
            agree += (a.jump > 0) == (b.jump > 0)
        assert agree / n_seeds >= 0.9


class TestSlopeConstants:
    def test_cached_equals_fresh(self):
        for q in (1, 2, 3):
            assert discontinuity._slope_constants(q) == discontinuity._slope_constants.__wrapped__(q)

    def test_second_test_builds_no_quadrature(self, monkeypatch):
        x = np.abs(np.random.default_rng(12).normal(size=2000))
        first = cjm_test(x, 1.96)
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        second = cjm_test(x, 1.96)
        assert calls == []
        assert second == first


class TestBinned:
    def test_piecewise_constant_jump(self):
        rng = np.random.default_rng(11)
        n = 10_000
        u = rng.random(n)
        x = np.where(u < 0.4, rng.random(n), 1.0 + rng.random(n))
        r = binned_test(x, cutoff=1.0, bin_width=0.04)
        assert r.jump == pytest.approx(0.2, abs=0.05)

    def test_uniform_size(self):
        hits = 0
        for s in range(150):
            x = np.random.default_rng(2000 + s).uniform(0, 4, 4000)
            r = binned_test(x, 2.0, 0.05)
            hits += abs(r.t_stat) < 2.0
        assert hits / 150 >= 0.95

    def test_bad_bin_width(self):
        with pytest.raises(ValueError, match="bin_width"):
            binned_test([1.0, 2.0], 1.5, bin_width=0.0)

    def test_too_few_bins(self):
        x = np.random.default_rng(12).uniform(0, 0.5, 200)
        with pytest.raises(ValueError, match="20 bins"):
            binned_test(x, 0.25, bin_width=0.05)


@pytest.fixture(scope="module")
def sim_reg():
    reg, truth = generate(SimConfig(n_trials=2600, seed=31))
    return reg


class TestSponsorSweep:
    def test_identical_classifications_identical_pvalues(self, sim_reg):
        splits = all_sponsor_splits(sim_reg.rankings, k_range=[10])
        twin = [splits[0], splits[0]]
        rows = sponsor_sweep(outcome_table(sim_reg), twin, Phase.PHASE3)
        large = [r for r in rows if r["group"] == "Large"]
        assert large[0]["p_value"] == large[1]["p_value"]

    def test_no_discontinuity_pvalues_spread(self):
        # cells within one registry draw are heavily correlated (samples
        # overlap across split definitions), so calibration is judged on
        # the average over several independent draws
        fracs, pooled = [], []
        for seed in (31, 77, 123, 500, 901):
            reg, _ = generate(SimConfig(n_trials=2600, seed=seed))
            splits = all_sponsor_splits(reg.rankings)
            rows = sponsor_sweep(outcome_table(reg), splits, Phase.PHASE3)
            assert len(rows) == 2 * len(splits)
            ok = np.asarray([r["p_value"] for r in rows if not r["error"]])
            assert ok.size > 60
            fracs.append(float(np.mean(ok < 0.05)))
            pooled.extend(ok.tolist())
        assert np.mean(fracs) < 0.15
        assert 0.3 < np.mean(pooled) < 0.8

    def test_failed_cells_carry_reason(self, sim_reg):
        # keep only two sponsors so the Large cell goes empty for k where
        # neither is ranked in the top group
        splits = all_sponsor_splits(sim_reg.rankings, k_range=[7])
        few = sim_reg.subset(sim_reg.trials.sponsor_name == "Sponsor 01")
        rows = sponsor_sweep(outcome_table(few), splits[:1], Phase.PHASE3)
        errs = [r for r in rows if r["error"]]
        assert errs, "expected at least one failed cell"
        assert all(r["p_value"] is None for r in errs)


def test_huge_t_keeps_a_positive_p_value():
    # 2 * (1 - Phi(|t|)) cancels to exactly 0 beyond |t| ~ 8.3
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(0.0, 1.96, 300), rng.uniform(1.96, 4.0, 6000)])
    for r in (cjm_test(x, 1.96), binned_test(x, 1.96, bin_width=0.05)):
        assert r.t_stat > 10.0
        assert 0.0 < r.p_value < 1e-30


class TestShiftedCutoffs:
    def test_cutoffs_above_threshold(self):
        # the same operation runs at displaced cutoffs to distinguish a
        # spike from a persistent shift
        x = np.abs(np.random.default_rng(60).normal(size=6000))
        for cutoff in (1.96, 2.01, 2.46):
            r = cjm_test(x, cutoff=cutoff)
            assert r.cutoff == cutoff
            assert np.isfinite(r.p_value)
        base = cjm_test(x, cutoff=1.96)
        shifted = cjm_test(x, cutoff=2.46)
        assert base.jump != shifted.jump
