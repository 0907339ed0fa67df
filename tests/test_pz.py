import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from trialscope.pz import (
    Sidedness,
    norm_sf,
    Z_D1,
    Z_D2,
    ZKind,
    ZScore,
    impute_other_censors,
    inv_norm_cdf,
    norm_cdf,
    transform,
    transform_arrays,
)
from trialscope.registry import ReportedP


def quad_sf(z):
    """Independent normal survival function by adaptive quadrature of the
    density over the upper tail (relative accuracy holds far out)."""
    val, _ = quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
        z, math.inf, epsabs=1e-300, epsrel=1e-12, limit=300,
    )
    return val


def quad_quantile(q):
    # solve on whichever tail keeps the target probability exactly
    # representable (no 1-q rounding)
    if q < 0.5:
        return -brentq(lambda z: quad_sf(z) - q, -1.0, 45.0, xtol=1e-14)
    return brentq(lambda z: quad_sf(z) - (1.0 - q), -1.0, 45.0, xtol=1e-14)


class TestInvNormCdf:
    def test_median_is_zero(self):
        assert inv_norm_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_significance_threshold(self):
        assert inv_norm_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_three_sigma_vs_quadrature(self):
        assert inv_norm_cdf(0.9986501) == pytest.approx(3.000, abs=1e-3)
        assert inv_norm_cdf(0.9986501) == pytest.approx(quad_quantile(0.9986501), abs=1e-10)

    def test_accuracy_against_quadrature_oracle(self):
        qs = np.concatenate(
            [np.logspace(-12, -1, 12), np.linspace(0.2, 0.8, 7), 1 - np.logspace(-12, -2, 11)]
        )
        for q in qs:
            assert abs(inv_norm_cdf(q) - quad_quantile(q)) < 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            inv_norm_cdf(bad)

    def test_vectorized(self):
        out = inv_norm_cdf(np.array([0.25, 0.5, 0.75]))
        assert out.shape == (3,)
        assert out[0] == pytest.approx(-out[2])


class TestTransform:
    def test_p05_two_sided(self):
        s = transform(ReportedP.exact(0.05))
        assert s.kind is ZKind.PRECISE
        assert s.z == pytest.approx(1.959964, abs=1e-6)

    def test_p1_maps_to_zero(self):
        assert transform(ReportedP.exact(1.0)).z == pytest.approx(0.0, abs=1e-12)

    def test_p05_one_sided(self):
        s = transform(ReportedP.exact(0.05), Sidedness.ONE_SIDED)
        assert s.z == pytest.approx(1.6449, abs=1e-4)

    def test_censor_thresholds(self):
        assert transform(ReportedP.less(0.001)).kind is ZKind.ABOVE_D1
        assert transform(ReportedP.less(0.0001)).kind is ZKind.ABOVE_D2
        assert transform(ReportedP.exact(0.0)).kind is ZKind.ABOVE_D2

    def test_hardcoded_bounds_match_quadrature(self):
        assert Z_D1 == pytest.approx(-quad_quantile(0.001 / 2), abs=1e-4)
        assert Z_D2 == pytest.approx(-quad_quantile(0.0001 / 2), abs=1e-4)

    def test_underflow_exact_p_is_d2(self):
        assert transform(ReportedP.exact(1e-16)).kind is ZKind.ABOVE_D2

    def test_other_censors(self):
        s = transform(ReportedP.less(0.05))
        assert s.kind is ZKind.OTHER_CENSOR and s.direction == "above"
        assert s.bound == pytest.approx(1.959964, abs=1e-6)
        assert s.imputed_z is None
        t = transform(ReportedP.greater(0.1))
        assert t.direction == "below"
        assert t.bound == pytest.approx(1.6449, abs=1e-4)

    @given(st.floats(min_value=1e-12, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, p):
        z = transform(ReportedP.exact(p)).z
        # the tail evaluated through the survival function, which carries
        # relative precision where 1 - CDF would cancel
        assert 2.0 * norm_sf(z) == pytest.approx(p, rel=1e-8, abs=1e-20)

    @given(
        st.floats(min_value=1e-12, max_value=1.0),
        st.floats(min_value=1e-12, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        if (hi - lo) / hi < 1e-12:  # below quantile resolution in double
            return
        for side in Sidedness:
            z_lo = transform(ReportedP.exact(lo), side).z
            z_hi = transform(ReportedP.exact(hi), side).z
            assert z_lo > z_hi

    def test_share_above_invariant(self):
        from trialscope.pz import Z_SIG

        rng = np.random.default_rng(5)
        ps = rng.uniform(1e-6, 1.0, size=500)
        ps[rng.integers(0, 500, 30)] = 0.05  # boundary cases included
        zs = [transform(ReportedP.exact(p)).z for p in ps]
        assert sum(p <= 0.05 for p in ps) == sum(z >= Z_SIG for z in zs)

    def test_sidedness_preserves_ordering(self):
        rng = np.random.default_rng(6)
        ps = rng.uniform(1e-9, 1.0, size=200)
        z2 = np.array([transform(ReportedP.exact(p)).z for p in ps])
        z1 = np.array([transform(ReportedP.exact(p), Sidedness.ONE_SIDED).z for p in ps])
        assert np.array_equal(np.argsort(z2), np.argsort(z1))


class TestTransformArrays:
    CASES = [
        ("exact", 0.0), ("exact", 1e-16), ("exact", 1e-15), ("exact", 2e-15),
        ("exact", 1e-9), ("exact", 0.0004), ("exact", 0.05), ("exact", 0.5),
        ("exact", 1.0), ("lt", 0.001), ("lt", 0.0001), ("lt", 0.05), ("lt", 0.01),
        ("gt", 0.05), ("gt", 0.1), ("gt", 0.9),
    ]

    @pytest.mark.parametrize("side", list(Sidedness))
    def test_equals_scalar_transform(self, side):
        rng = np.random.default_rng(17)
        cases = self.CASES + [("exact", float(p)) for p in 10.0 ** rng.uniform(-12, 0, 200)]
        kinds, zs, bounds = transform_arrays([k for k, _ in cases], [v for _, v in cases], side)
        for (k, v), code, z, bound in zip(cases, kinds, zs, bounds):
            s = transform(ReportedP(k, v), side)
            assert code == s.kind.value
            if s.is_precise:
                assert z == s.z and np.isnan(bound)
                # the array quantile equals the scalar quantile bit for bit
                q = v / 2.0 if side is Sidedness.TWO_SIDED else min(v, 1.0 - 2.5e-16)
                assert z == -inv_norm_cdf(q)
            else:
                assert bound == s.bound and np.isnan(z)
                assert s.direction == ("below" if k == "gt" else "above")

    def test_one_sided_p_one_is_finite(self):
        _, z, _ = transform_arrays(["exact"], [1.0], Sidedness.ONE_SIDED)
        assert np.isfinite(z[0]) and z[0] < -8.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            transform_arrays(["eq"], [0.5])


class TestImputation:
    def test_conditional_mean_above(self):
        scores = [ZScore.precise(v) for v in (1.0, 2.0, 3.0)]
        scores.append(ZScore.other_censor("above", 1.5))
        out = impute_other_censors(scores)
        assert out[-1].imputed_z == pytest.approx(2.5)

    def test_single_element_below(self):
        scores = [ZScore.precise(1.0), ZScore.other_censor("below", 2.0)]
        out = impute_other_censors(scores)
        assert out[-1].imputed_z == pytest.approx(1.0)

    def test_no_donor_raises(self):
        scores = [ZScore.precise(1.0), ZScore.other_censor("above", 5.0)]
        with pytest.raises(ValueError, match="5"):
            impute_other_censors(scores)

    def test_original_collection_untouched(self):
        scores = [ZScore.precise(2.5), ZScore.other_censor("above", 1.5)]
        impute_other_censors(scores)
        assert scores[1].imputed_z is None


class TestZScoreInvariants:
    def test_precise_must_be_finite(self):
        # negative values are legal (one-sided transform above the median)
        assert ZScore.precise(-0.5).z == -0.5
        with pytest.raises(ValueError):
            ZScore.precise(float("nan"))
        with pytest.raises(ValueError):
            ZScore.precise(float("inf"))

    def test_imputed_strictly_on_censored_side(self):
        with pytest.raises(ValueError):
            ZScore(ZKind.OTHER_CENSOR, direction="above", bound=2.0, imputed_z=1.5)

    def test_effective_z(self):
        assert ZScore.above_d1().effective_z() == Z_D1
        assert ZScore.above_d2().effective_z() == Z_D2
        assert ZScore.precise(1.2).effective_z() == 1.2
        with pytest.raises(ValueError):
            ZScore.other_censor("above", 2.0).effective_z()
