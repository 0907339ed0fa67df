import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from trialscope.density import (
    BandwidthResult,
    DensityCurve,
    KdeSpec,
    default_grid,
    epanechnikov,
    epanechnikov_survival,
    kde,
    silverman_bandwidth,
    sj_bandwidth,
)
from trialscope.decompose import censored_aware_share
from trialscope.density import _KernelSums
from trialscope.pz import Z_SIG, ZKind, ZScore, outcome_table
from trialscope.registry import Phase
from trialscope.simulate import SimConfig, generate


def lscv_bandwidth(x, lo, hi):
    """Leave-one-out least-squares cross-validation for the Epanechnikov
    kernel by brute force: minimize int f^2 - (2/n) sum f_(-i)(X_i), with
    the squared-density integral taken numerically on a fine grid."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size

    def objective(h):
        grid = np.linspace(x[0] - h, x[-1] + h, 2000)
        f = np.zeros_like(grid)
        for i, g in enumerate(grid):
            f[i] = epanechnikov((g - x) / h).sum() / (n * h)
        int_f2 = np.trapezoid(f * f, grid)
        k = epanechnikov((x[:, None] - x[None, :]) / h)
        np.fill_diagonal(k, 0.0)
        loo = k.sum(axis=1) / ((n - 1) * h)
        return int_f2 - 2.0 * loo.mean()

    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-4})
    return float(res.x)


class TestSjBandwidth:
    def test_matches_loo_cv_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        h_sj = float(sj_bandwidth(x))
        h_cv = lscv_bandwidth(x, 0.1, 2.0)
        assert abs(h_sj - h_cv) / h_cv < 0.10

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        assert float(sj_bandwidth(x + 7.5)) == float(sj_bandwidth(x))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        h1, h2 = float(sj_bandwidth(x)), float(sj_bandwidth(2.0 * x))
        assert h2 / h1 == pytest.approx(2.0, rel=1e-6)

    def test_needs_ten_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            sj_bandwidth([1.0, 2.0, 3.0] * 10)

    def test_fallback_flag_type(self):
        rng = np.random.default_rng(3)
        out = sj_bandwidth(rng.normal(size=100))
        assert isinstance(out, BandwidthResult)
        assert out.h > 0

    @pytest.mark.parametrize("case", ["regular", "silverman fallback", "few distinct"])
    def test_counts_equal_repeated_sample(self, case, monkeypatch):
        # integer frequency weights, zeros included, over a sorted sample:
        # the bandwidth of the sample with each value repeated that often
        import trialscope.density as dens

        rng = np.random.default_rng(31)
        xs = np.sort(rng.standard_t(3, size=400))  # heavy tails: the IQR sets the scale
        if case == "few distinct":
            xs = np.sort(rng.choice(np.linspace(-1.0, 2.0, 7), size=60))
        if case == "silverman fallback":
            monkeypatch.setattr(dens, "_phi6_sum", lambda *a, **k: 1.0)
        for seed in range(4):
            c = np.bincount(np.random.default_rng(seed).integers(0, xs.size, xs.size),
                            minlength=xs.size)
            assert (c == 0).any() and (c > 1).any()
            repeated = np.repeat(xs, c)
            # the rule of thumb from np.std and np.percentile of the repeats
            iqr = np.subtract(*np.percentile(repeated, [75, 25])) / 1.349
            scale = min(s for s in (np.std(repeated, ddof=1), iqr) if s > 0)
            silverman = 0.9 * scale * repeated.size ** -0.2 * dens.EPAN_OVER_GAUSS
            assert silverman_bandwidth(xs, weights=c) == pytest.approx(
                silverman, rel=1e-12, abs=0
            )
            if case == "few distinct":
                for sample, weights in ((xs, c), (repeated, None)):
                    with pytest.raises(ValueError, match="distinct"):
                        sj_bandwidth(sample, weights=weights)
                continue
            got, ref = sj_bandwidth(xs, weights=c), sj_bandwidth(repeated)
            assert got.fallback == ref.fallback == (case == "silverman fallback")
            assert got.h == pytest.approx(ref.h, rel=1e-12, abs=0)
            # the order of the sample does not matter
            perm = rng.permutation(xs.size)
            assert sj_bandwidth(xs[perm], weights=c[perm]).h == pytest.approx(
                ref.h, rel=1e-12, abs=0
            )

    def test_count_validation(self):
        x = np.random.default_rng(4).normal(size=50)
        with pytest.raises(ValueError, match="shape"):
            sj_bandwidth(x, weights=np.ones(49, dtype=int))
        with pytest.raises(ValueError, match="integer"):
            sj_bandwidth(x, weights=np.full(50, 0.5))
        with pytest.raises(ValueError, match="nonnegative"):
            sj_bandwidth(x, weights=-np.ones(50, dtype=int))
        # ten distinct values in the sample but fewer drawn
        c = np.zeros(50, dtype=int)
        c[:9] = 3
        with pytest.raises(ValueError, match="distinct"):
            sj_bandwidth(x, weights=c)


def brute_force_density(x, w, h, grid, reflect):
    """The kernel sum at each grid point, one dot product per point, over
    the observations within one bandwidth (the reference for the prefix-sum
    evaluation)."""
    W = w.sum()
    order = np.argsort(x)
    xs, ws = x[order], w[order]
    out = np.zeros_like(grid, dtype=float)
    lo = np.searchsorted(xs, grid - h, side="left")
    hi = np.searchsorted(xs, grid + h, side="right")
    for i, g in enumerate(grid):
        s = slice(lo[i], hi[i])
        if s.start == s.stop:
            continue
        u = (g - xs[s]) / h
        out[i] = np.dot(ws[s], 0.75 * (1.0 - u * u))
    out /= W * h
    if reflect:
        ref = np.zeros_like(grid, dtype=float)
        lo = np.searchsorted(xs, -grid - h, side="left")
        hi = np.searchsorted(xs, -grid + h, side="right")
        for i, g in enumerate(grid):
            s = slice(lo[i], hi[i])
            if s.start == s.stop:
                continue
            u = (-g - xs[s]) / h
            ref[i] = np.dot(ws[s], 0.75 * (1.0 - u * u))
        out += ref / (W * h)
    return out


@pytest.fixture(scope="module")
def registry_scale_sample():
    """Precise phase II z-scores of a 5,000-trial simulated registry, the
    size of the benchmark's report registry, with their bandwidth and the
    default 512-point grid."""
    reg, _ = generate(SimConfig(n_trials=5000, seed=101))
    t = outcome_table(reg)
    z = t.z[t.sample(Phase.PHASE2) & t.precise]
    h = float(sj_bandwidth(z))
    return z, h, default_grid(z, h)


class TestPrefixSumEvaluation:
    """Small samples pass with plain float64 prefix sums too; only a sample
    at registry scale shows their cancellation."""

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("weighting", ["unit", "random"])
    def test_registry_scale_matches_brute_force(self, registry_scale_sample, reflect, weighting):
        z, h, grid = registry_scale_sample
        assert z.size > 4000 and grid.size == 512
        w = np.ones(z.size) if weighting == "unit" else (
            np.random.default_rng(13).uniform(0.1, 3.0, z.size))
        ref = brute_force_density(z, w, h, grid, reflect)
        for scale in (1.0, 1e-3, 1e3):
            got = _KernelSums(z, h, grid, reflect)(scale * w)
            assert np.max(np.abs(got - ref)) <= 1e-12, scale

    def test_windows_past_the_sample_are_zero(self):
        x = np.random.default_rng(14).uniform(5.0, 6.0, 200)
        grid = np.concatenate([np.linspace(0.0, 4.4, 12), np.linspace(6.6, 9.0, 7)])
        for reflect in (False, True):
            assert np.all(_KernelSums(x, 0.5, grid, reflect)(np.ones(x.size)) == 0.0)

    def test_observations_at_window_edges(self):
        # every grid point has observations exactly at g - h and g + h
        x = np.arange(0.0, 5.0, 0.25)
        w = np.random.default_rng(15).uniform(0.5, 2.0, x.size)
        grid = np.arange(0.0, 6.0, 0.25)
        for reflect in (False, True):
            got = _KernelSums(x, 0.5, grid, reflect)(w)
            assert np.all(got >= 0.0)
            assert np.max(np.abs(got - brute_force_density(x, w, 0.5, grid, reflect))) <= 1e-15
        # a window holding only edge observations
        got = _KernelSums(np.array([1.0, 3.0]), 1.0, np.array([2.0]), False)(np.ones(2))
        assert got[0] == 0.0
        # centres at x +- h in floating point put single observations a
        # rounding error inside or outside their windows
        rng = np.random.default_rng(16)
        for _ in range(50):
            x = rng.normal(3.0, 1.0, 3)
            w = rng.uniform(0.1, 2.0, 3)
            h = rng.uniform(0.05, 1.0)
            grid = np.sort(np.concatenate([x - h, x + h]))
            got = _KernelSums(x, h, grid, False)(w)
            assert np.all(got >= 0.0)
            assert np.max(np.abs(got - brute_force_density(x, w, h, grid, False))) <= 1e-12

    def test_single_observation(self):
        grid = np.linspace(0.0, 4.0, 17)
        got = _KernelSums(np.array([2.0]), 1.0, grid, False)(np.array([3.0]))
        assert np.max(np.abs(got - epanechnikov(grid - 2.0))) <= 1e-15
        assert got[8] == pytest.approx(0.75)


def brute_force_bands(x, w, h, grid, reps, seed):
    """Pointwise 95% bands of kde's bootstrap by the direct route: draw the
    same rows from the same streams, gather them, and sum the kernel."""
    curves = np.empty((reps, grid.size))
    for r, stream in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        idx = np.random.default_rng(stream).integers(0, x.size, size=x.size)
        wr = w[idx] if w[idx].sum() > 0 else np.ones(x.size)
        curves[r] = brute_force_density(x[idx], wr, h, grid, False)
    return np.percentile(curves, 2.5, axis=0), np.percentile(curves, 97.5, axis=0)


class TestKde:
    @pytest.mark.parametrize("n, weighting", [(300, "random"), (12, "one point")])
    def test_bands_match_brute_force_resampling(self, n, weighting):
        # reps reweight the sorted sample by draw counts; with one weighted
        # point, about a third of the reps draw only zero weights and fall
        # back to unit weights
        rng = np.random.default_rng(17)
        x = rng.normal(size=n)
        w = rng.uniform(0.1, 2.0, n) if weighting == "random" else np.eye(n)[0]
        grid = np.linspace(-3.0, 3.0, 61)
        curve = kde(x, KdeSpec(bandwidth=0.8, weights=w), grid=grid,
                    bootstrap_bands=True, bootstrap_reps=40, seed=18)
        low, high = brute_force_bands(x, w, 0.8, grid, 40, 18)
        assert np.max(np.abs(curve.band_low - low)) <= 1e-12
        assert np.max(np.abs(curve.band_high - high)) <= 1e-12

    def test_standard_normal_peak(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=10_000)
        curve = kde(x, KdeSpec(), grid=np.linspace(-0.5, 0.5, 11))
        f0 = curve.values[5]
        assert f0 == pytest.approx(0.3989, abs=0.015)

    def test_single_point_peak_is_kernel_max(self):
        curve = kde([2.0], KdeSpec(bandwidth=1.0), grid=np.array([2.0]))
        assert curve.values[0] == pytest.approx(0.75)

    def test_normalization(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=4000)
        h = float(sj_bandwidth(x))
        grid = np.linspace(x.min() - 4 * h, x.max() + 4 * h, 1500)
        curve = kde(x, KdeSpec(bandwidth=h), grid=grid)
        assert curve.integral() == pytest.approx(1.0, abs=1e-3)

    def test_weight_homogeneity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=300)
        w = rng.random(300) + 0.1
        grid = np.linspace(-3, 3, 101)
        a = kde(x, KdeSpec(bandwidth=0.4, weights=w), grid=grid)
        b = kde(x, KdeSpec(bandwidth=0.4, weights=1000.0 * w), grid=grid)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_weighted_against_binned_brute_force(self):
        # brute force: bin the weighted sample at 0.05 and run the same
        # kernel sum over bin masses; differences are pure discretization
        rng = np.random.default_rng(9)
        x = rng.normal(size=20_000)
        w = 1.0 / (1.0 + np.exp(-x))
        h = 0.3
        grid = np.linspace(-2.0, 2.0, 21)
        curve = kde(x, KdeSpec(bandwidth=h, weights=w), grid=grid)
        bin_w = 0.05
        edges = np.arange(-6.0, 6.0 + bin_w, bin_w)
        idx = np.digitize(x, edges) - 1
        mass = np.zeros(len(edges) - 1)
        for i, wi in zip(idx, w):
            mass[i] += wi
        centers = 0.5 * (edges[:-1] + edges[1:])
        oracle = np.array(
            [epanechnikov((g - centers) / h) @ mass / (w.sum() * h) for g in grid]
        )
        assert np.max(np.abs(curve.values - oracle)) < 5e-3

    def test_bands_seeded_and_cover_point(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=800)
        g = np.linspace(-2, 2, 41)
        c1 = kde(x, KdeSpec(bandwidth=0.35), grid=g, bootstrap_bands=True, seed=5)
        c2 = kde(x, KdeSpec(bandwidth=0.35), grid=g, bootstrap_bands=True, seed=5)
        assert np.array_equal(c1.band_low, c2.band_low)
        assert np.all(c1.band_low <= c1.values + 1e-12)
        assert np.all(c1.band_high >= c1.values - 1e-12)

    def test_reflection_boundary(self):
        rng = np.random.default_rng(11)
        x = np.abs(rng.normal(size=5000))
        g = np.array([0.0])
        plain = kde(x, KdeSpec(bandwidth=0.3), grid=g).values[0]
        refl = kde(x, KdeSpec(bandwidth=0.3, boundary_reflection=True), grid=g).values[0]
        # true half-normal density at 0 is 0.7979; reflection fixes the halving
        assert plain == pytest.approx(0.3989, abs=0.05)
        assert refl == pytest.approx(0.7979, abs=0.08)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            kde([], KdeSpec(bandwidth=1.0), grid=np.array([0.0]))
        with pytest.raises(ValueError):
            kde([1.0, 2.0], KdeSpec(bandwidth=1.0, weights=np.array([0.0, 0.0])),
                grid=np.array([0.0]))
        with pytest.raises(ValueError, match="ascending"):
            kde([1.0, 2.0], KdeSpec(bandwidth=1.0), grid=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            KdeSpec(bandwidth=-1.0)

    def test_stochastic_dominance_of_increasing_weights(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=2000)
        w = 1.0 / (1.0 + np.exp(-1.5 * x))
        xs = np.sort(x)
        order = np.argsort(x)
        wcdf = np.cumsum(w[order]) / w.sum()
        ucdf = np.arange(1, x.size + 1) / x.size
        assert np.all(wcdf <= ucdf + 1e-12)

    def test_mise_decreases_with_n(self):
        def mise(n, seed):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=n)
            g = np.linspace(-4, 4, 201)
            curve = kde(x, KdeSpec(), grid=g)
            truth = np.exp(-0.5 * g * g) / np.sqrt(2 * np.pi)
            return np.trapezoid((curve.values - truth) ** 2, g)

        sizes = (100, 1000, 10_000)
        avg = {n: np.mean([mise(n, 100 + s) for s in range(20)]) for n in sizes}
        assert avg[100] > avg[1000] > avg[10_000]


def significant_share(scores, weights=None, bandwidth=1e-9):
    """censored_aware_share over ZScores; a tiny bandwidth makes the KDE
    mass of a precise score a count on its side of the cutoff."""
    kinds = np.array([s.kind.value for s in scores], dtype=str)
    zvals = np.array([s.effective_z() if s.imputed_z is not None or s.kind is not
                      ZKind.OTHER_CENSOR else np.nan for s in scores], dtype=float)
    w = np.ones(len(scores)) if weights is None else np.asarray(weights, dtype=float)
    return censored_aware_share(kinds, zvals, w, Z_SIG, bandwidth)


class TestSignificantShare:
    def test_three_precise_one_censor(self):
        scores = [ZScore.precise(v) for v in (1.0, 2.0, 2.5)] + [ZScore.above_d1()]
        assert significant_share(scores) == pytest.approx(0.75)

    def test_all_below_no_censors(self):
        scores = [ZScore.precise(v) for v in (0.2, 1.0, 1.5)]
        assert significant_share(scores) == 0.0

    def test_boundary_counts_significant(self):
        # censored mass exactly at the cutoff counts as significant
        assert significant_share([ZScore.above_d1(bound=Z_SIG)]) == 1.0

    def test_weights_and_predicted_tail_counts(self):
        # a predicted tail count enters as the weight of the censored row
        scores = [ZScore.precise(2.5), ZScore.precise(1.0), ZScore.above_d2()]
        share = significant_share(scores, weights=[1.0, 1.0, 2.0])
        assert share == pytest.approx(3.0 / 4.0)

    def test_imputed_censor_counts_by_value(self):
        s = [ZScore.precise(2.2), ZScore.precise(1.8),
             ZScore(ZKind.OTHER_CENSOR, direction="above", bound=2.0, imputed_z=2.2)]
        assert significant_share(s) == pytest.approx(2.0 / 3.0)

    def test_unimputed_censor_raises(self):
        s = [ZScore.precise(2.2), ZScore.other_censor("above", 2.0)]
        with pytest.raises(ValueError):
            significant_share(s)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            significant_share([])

    def test_kde_mass_close_to_count(self):
        rng = np.random.default_rng(13)
        zs = np.abs(rng.normal(size=5000))
        scores = [ZScore.precise(float(v)) for v in zs]
        count_share = float(np.mean(zs >= Z_SIG))
        kde_share = significant_share(scores, bandwidth=0.3)
        assert kde_share == pytest.approx(count_share, abs=0.02)


def test_survival_kernel_algebra():
    assert epanechnikov_survival(-1.0) == pytest.approx(1.0)
    assert epanechnikov_survival(1.0) == pytest.approx(0.0)
    assert epanechnikov_survival(0.0) == pytest.approx(0.5)
    u = np.linspace(-1, 1, 201)
    numeric = [np.trapezoid(epanechnikov(np.linspace(v, 1, 500)),
                        np.linspace(v, 1, 500)) for v in u]
    assert np.max(np.abs(epanechnikov_survival(u) - numeric)) < 1e-4


def test_default_grid_extends_past_sample():
    g = default_grid([1.0, 2.0, 3.0], h=0.5)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(5.0)
    assert g.size == 512


def test_sj_fallback_uses_silverman(monkeypatch):
    import trialscope.density as dens

    rng = np.random.default_rng(21)
    x = rng.normal(size=200)
    monkeypatch.setattr(dens, "_phi6_sum", lambda *a, **k: 1.0)
    out = dens.sj_bandwidth(x)
    assert out.fallback
    assert out.h == pytest.approx(silverman_bandwidth(x))
