import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc as scipy_erfc

from trialscope import pz
from trialscope.pz import (
    Sidedness,
    norm_sf,
    Z_D1,
    Z_D2,
    ZKind,
    impute_other_censors,
    inv_norm_cdf,
    norm_cdf,
    outcome_table,
    transform,
    transform_arrays,
)
from trialscope.registry import ReportedP, ingest


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

    def test_one_tail_per_element_equals_both_tails(self):
        # the Halley step evaluates each quantile's own tail only; the
        # reference evaluates both tails everywhere and picks one
        rng = np.random.default_rng(12)
        q = np.concatenate([
            rng.uniform(0.0, 1.0, 600_000), 10.0 ** -rng.uniform(1.0, 300.0, 200_000),
            1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 200_000),
            [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1e-300, 1.0 - 1e-16],
        ])
        q = q[(q > 0.0) & (q < 1.0)]
        x = pz._acklam(q)
        upper = q > 0.5
        err = np.where(upper, norm_sf(x) - (1.0 - q), norm_cdf(x) - q)
        err = np.where(upper, -err, err)
        u = err / (pz._INV_SQRT_2PI * np.exp(-0.5 * x * x))
        assert_same_floats(inv_norm_cdf(q), x - u / (1.0 + 0.5 * x * u))
        assert_same_floats([inv_norm_cdf(v) for v in q[-5:].tolist()],
                           (x - u / (1.0 + 0.5 * x * u))[-5:])


def assert_same_floats(got, ref):
    """Equal as IEEE doubles: ``==`` elementwise, NaN where the reference is
    NaN, and zeros of the same sign."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    bad = np.flatnonzero((got != ref)[~nan])
    assert bad.size == 0, f"{bad.size} mismatches, first at {ref[~nan][bad[:3]]}"
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(ref[~nan]))


def scipy_backed_erfc(a):
    """scipy.special.erfc in the port's call convention: a float for a float."""
    out = scipy_erfc(a)
    return float(out) if type(a) is float else out


# sqrt(MAXLOG): beyond it Cephes erfc returns 0 or 2 without evaluating exp
ERFC_CUT = math.sqrt(7.09782712893383996843e2)


def branch_arguments(n=10**6):
    """``n`` random arguments, both signs, in each branch of Cephes erfc:
    |x| < 1, 1 <= |x| < 8, 8 <= |x| up to the underflow cut, and beyond it
    (where between the cut and about 27.3 the result is subnormal)."""
    rng = np.random.default_rng(2024)
    edges = [(0.0, 1.0), (1.0, 8.0), (8.0, ERFC_CUT), (ERFC_CUT, 40.0)]
    return {
        f"{lo:g}-{hi:g}": rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
        for lo, hi in edges
    }


ERFC_EDGES = [
    np.nextafter(1.0, 0.0), 1.0, np.nextafter(8.0, 0.0), 8.0, 26.64, 27.3,
    np.nextafter(ERFC_CUT, 0.0), ERFC_CUT, np.nextafter(ERFC_CUT, 99.0),
    0.0, np.inf, np.nan, 5e-324, 1e-300, 1e300,
]
ERFC_EDGES = ERFC_EDGES + [-v for v in ERFC_EDGES]


class TestErfcPort:
    """The in-house Cephes erfc equals scipy.special.erfc bit for bit,
    compared with ``==``, never with a tolerance."""

    @pytest.fixture(scope="class")
    def branches(self):
        return branch_arguments()

    def test_arrays_in_every_branch(self, branches):
        for a in branches.values():
            assert_same_floats(pz._erfc(a), scipy_erfc(a))

    @pytest.mark.slow
    def test_python_floats_in_every_branch(self, branches):
        for a in branches.values():
            a = a[:100_000]
            got = [pz._erfc(v) for v in a.tolist()]
            assert all(type(v) is float for v in got)
            assert_same_floats(got, scipy_erfc(a))

    def test_branch_edges_and_special_values(self):
        edges = np.array(ERFC_EDGES)
        assert_same_floats(pz._erfc(edges), scipy_erfc(edges))
        assert_same_floats([pz._erfc(float(v)) for v in edges], scipy_erfc(edges))
        assert pz._erfc(-0.0) == pz._erfc(0.0) == 1.0
        assert pz._erfc(np.inf) == 0.0 and pz._erfc(-np.inf) == 2.0
        assert pz._erfc(27.3) == 0.0 < pz._erfc(26.64) < 1e-300

    @pytest.mark.parametrize("shape", ["float", "0-d", "1-d", "2-d", "empty"])
    def test_norm_cdf_and_sf_on_every_input_shape(self, shape, monkeypatch):
        z = np.random.default_rng(7).normal(0.0, 8.0, 600)
        arg = {"float": float(z[0]), "0-d": np.array(z[0]), "1-d": z,
               "2-d": z.reshape(20, 30), "empty": z[:0]}[shape]
        got = {f: f(arg) for f in (norm_cdf, norm_sf)}
        monkeypatch.setattr(pz, "_erfc", scipy_backed_erfc)
        for f, value in got.items():
            ref = f(arg)
            assert type(value) is type(ref)
            assert type(value) is (float if shape in ("float", "0-d") else np.ndarray)
            assert_same_floats(value, ref)

    def test_inv_norm_cdf_and_z_sig(self, monkeypatch):
        rng = np.random.default_rng(8)
        q = np.concatenate([rng.uniform(0.0, 1.0, 200_000),
                            10.0 ** -rng.uniform(1.0, 300.0, 50_000),
                            1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 50_000)])
        q = q[(q > 0.0) & (q < 1.0)]
        got = inv_norm_cdf(q), [inv_norm_cdf(v) for v in q[:2000].tolist()]
        z_sig = pz.Z_SIG
        monkeypatch.setattr(pz, "_erfc", scipy_backed_erfc)
        assert_same_floats(got[0], inv_norm_cdf(q))
        assert_same_floats(got[1], [inv_norm_cdf(v) for v in q[:2000].tolist()])
        assert z_sig == -inv_norm_cdf(0.025)


class TestTransform:
    def test_p05_two_sided(self):
        kind, z, bound = transform(ReportedP.exact(0.05))
        assert kind is ZKind.PRECISE
        assert z == pytest.approx(1.959964, abs=1e-6)
        assert np.isnan(bound)

    def test_p1_maps_to_zero(self):
        assert transform(ReportedP.exact(1.0))[1] == pytest.approx(0.0, abs=1e-12)

    def test_p05_one_sided(self):
        _, z, _ = transform(ReportedP.exact(0.05), Sidedness.ONE_SIDED)
        assert z == pytest.approx(1.6449, abs=1e-4)

    def test_censor_thresholds(self):
        assert transform(ReportedP.less(0.001))[0] is ZKind.ABOVE_D1
        assert transform(ReportedP.less(0.0001))[0] is ZKind.ABOVE_D2
        assert transform(ReportedP.exact(0.0))[0] is ZKind.ABOVE_D2

    def test_hardcoded_bounds_match_quadrature(self):
        assert Z_D1 == pytest.approx(-quad_quantile(0.001 / 2), abs=1e-4)
        assert Z_D2 == pytest.approx(-quad_quantile(0.0001 / 2), abs=1e-4)

    def test_table_rows_carry_exact_censor_bounds(self):
        # the D1/D2 rows hold the exact bounds; Z_D1/Z_D2 are their
        # published 4-decimal roundings
        for p, published in ((0.001, Z_D1), (0.0001, Z_D2)):
            kind, z, bound = transform(ReportedP.less(p))
            assert np.isnan(z)
            assert bound == -inv_norm_cdf(p / 2.0)
            assert bound == pytest.approx(published, abs=1e-4)

    def test_underflow_exact_p_is_d2(self):
        assert transform(ReportedP.exact(1e-16))[0] is ZKind.ABOVE_D2

    def test_other_censors(self):
        kind, z, bound = transform(ReportedP.less(0.05))
        assert kind is ZKind.OTHER_CENSOR and np.isnan(z)
        assert bound == pytest.approx(1.959964, abs=1e-6)
        kind, z, bound = transform(ReportedP.greater(0.1))
        assert kind is ZKind.OTHER_CENSOR and np.isnan(z)
        assert bound == pytest.approx(1.6449, abs=1e-4)

    def test_table_marks_greater_than_censors_below(self, toy_csvs):
        # the censor's direction is the table's ``below`` column
        trials, outcomes, rankings = toy_csvs
        outcomes.write_text(
            "trial_id,outcome_rank,p_kind,p_value,mht_adjusted\n"
            "NCT001,primary,lt,0.05,false\n"
            "NCT001,secondary,gt,0.1,false\n"
            "NCT002,primary,exact,0.2,true\n"
        )
        t = outcome_table(ingest(trials, outcomes, rankings))
        censored = t.kind == ZKind.OTHER_CENSOR.value
        assert censored.sum() == 2
        assert t.below[censored & (t.bound > 1.9)].tolist() == [False]
        assert t.below[censored & (t.bound < 1.9)].tolist() == [True]
        assert t.bound[t.below][0] == pytest.approx(1.6449, abs=1e-4)
        assert not t.below[~censored].any()

    @given(st.floats(min_value=1e-12, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, p):
        _, z, _ = transform(ReportedP.exact(p))
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
            z_lo = transform(ReportedP.exact(lo), side)[1]
            z_hi = transform(ReportedP.exact(hi), side)[1]
            assert z_lo > z_hi

    def test_share_above_invariant(self):
        from trialscope.pz import Z_SIG

        rng = np.random.default_rng(5)
        ps = rng.uniform(1e-6, 1.0, size=500)
        ps[rng.integers(0, 500, 30)] = 0.05  # boundary cases included
        zs = [transform(ReportedP.exact(p))[1] for p in ps]
        assert sum(p <= 0.05 for p in ps) == sum(z >= Z_SIG for z in zs)

    def test_sidedness_preserves_ordering(self):
        rng = np.random.default_rng(6)
        ps = rng.uniform(1e-9, 1.0, size=200)
        z2 = np.array([transform(ReportedP.exact(p))[1] for p in ps])
        z1 = np.array([transform(ReportedP.exact(p), Sidedness.ONE_SIDED)[1] for p in ps])
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
            s_kind, s_z, s_bound = transform(ReportedP(k, v), side)
            assert code == s_kind.value
            if s_kind is ZKind.PRECISE:
                assert z == s_z and np.isnan(bound) and np.isnan(s_bound)
                # the array quantile equals the scalar quantile bit for bit
                q = v / 2.0 if side is Sidedness.TWO_SIDED else min(v, 1.0 - 2.5e-16)
                assert z == -inv_norm_cdf(q)
            else:
                assert bound == s_bound and np.isnan(z) and np.isnan(s_z)

    def test_precise_z_is_finite(self):
        # one-sided values go negative for p above one half, so finiteness
        # is all a precise z is held to
        for side in Sidedness:
            kinds, zs, _ = transform_arrays(
                [k for k, _ in self.CASES], [v for _, v in self.CASES], side)
            precise = kinds == ZKind.PRECISE.value
            assert precise.sum() == 6
            assert np.all(np.isfinite(zs[precise]))

    @pytest.mark.parametrize("side, p", [(Sidedness.TWO_SIDED, 1.0), (Sidedness.ONE_SIDED, 0.5)])
    def test_central_p_is_positive_zero(self, side, p):
        # the quantile of 1/2 is 0.0; its z is +0.0, which a CSV writes as 0
        _, z, _ = transform_arrays(["exact"], [p], side)
        assert z[0] == 0.0 and not np.signbit(z[0])
        if side is Sidedness.ONE_SIDED:
            _, _, bound = transform_arrays(["lt", "gt"], [p, p], side)
            assert np.array_equal(bound, [0.0, 0.0]) and not np.signbit(bound).any()

    def test_one_sided_p_one_is_finite(self):
        _, z, _ = transform_arrays(["exact"], [1.0], Sidedness.ONE_SIDED)
        assert np.isfinite(z[0]) and z[0] < -8.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            transform_arrays(["eq"], [0.5])


def censored_sample(precise, censors):
    """Columns of a sample of precise z values followed by other censors,
    each censor a ``(bound, below)`` pair."""
    n, m = len(precise), len(censors)
    kind = np.array([ZKind.PRECISE.value] * n + [ZKind.OTHER_CENSOR.value] * m)
    z = np.concatenate([precise, np.full(m, np.nan)])
    bound = np.concatenate([np.full(n, np.nan), [b for b, _ in censors]])
    below = np.array([False] * n + [bl for _, bl in censors], dtype=bool)
    return kind, z, bound, below


class TestImputation:
    def test_conditional_mean_above(self):
        out = impute_other_censors(*censored_sample([1.0, 2.0, 3.0], [(1.5, False)]))
        assert out[-1] == pytest.approx(2.5)

    def test_single_element_below(self):
        out = impute_other_censors(*censored_sample([1.0], [(2.0, True)]))
        assert out[-1] == pytest.approx(1.0)

    def test_no_donor_raises(self):
        with pytest.raises(ValueError, match="5"):
            impute_other_censors(*censored_sample([1.0], [(5.0, False)]))

    def test_no_donor_error_names_the_bound(self):
        cols = censored_sample([1.0, 2.0], [(1.5, False), (4.25, False), (0.5, True)])
        with pytest.raises(ValueError, match="z above 4.25") as exc:
            impute_other_censors(*cols)
        assert "0.5" in str(exc.value) and "1.5" not in str(exc.value)

    def test_original_collection_untouched(self):
        cols = censored_sample([2.5], [(1.5, False)])
        before = [c.copy() for c in cols]
        out = impute_other_censors(*cols)
        assert out[1] == 2.5 and out is not cols[1]
        for c, b in zip(cols, before):
            assert np.array_equal(c, b, equal_nan=c.dtype.kind == "f")

    def test_two_bounds_in_one_sample(self):
        out = impute_other_censors(*censored_sample(
            [0.5, 1.0, 2.0, 3.0, 4.0], [(1.5, False), (2.5, False), (1.5, False)]))
        assert out[5] == pytest.approx(3.0)
        assert out[6] == pytest.approx(3.5)
        assert out[7] == pytest.approx(3.0)

    def test_above_and_below_at_one_bound(self):
        out = impute_other_censors(*censored_sample(
            [0.5, 1.0, 2.0, 3.0], [(1.5, False), (1.5, True)]))
        assert out[4] == pytest.approx(2.5)
        assert out[5] == pytest.approx(0.75)

    def test_precise_rows_pass_through(self):
        precise = [0.2, 1.7, 3.1]
        out = impute_other_censors(*censored_sample(precise, [(1.0, False)]))
        assert np.array_equal(out[:3], precise)

    def test_imputed_strictly_on_censored_side(self):
        cases = TestTransformArrays.CASES
        below = np.array([k == "gt" for k, _ in cases])
        for side in Sidedness:
            kind, z, bound = transform_arrays([k for k, _ in cases], [v for _, v in cases], side)
            out = impute_other_censors(kind, z, bound, below)
            censored = kind == ZKind.OTHER_CENSOR.value
            assert censored.sum() == 5
            assert np.all(np.where(below, out < bound, out > bound)[censored])
