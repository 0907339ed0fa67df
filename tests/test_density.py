import tracemalloc

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
from trialscope.density import _KernelSums, _order_stat
from trialscope.pz import Z_D1, Z_D2, Z_SIG, ZKind, outcome_table
from trialscope.registry import Phase
from trialscope.simulate import SimConfig, end_to_end_truth_check, generate

import bisection_bandwidth
import parent_bandwidth


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
    """The blocked kernel sums against one dot product per grid point.
    Small samples would pass with plain float64 prefix sums too; only a
    sample at registry scale shows the cancellation such sums suffer."""

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


def brute_force_bands(x, w, h, grid, reps, seed, reflect=False):
    """Pointwise 95% bands of kde's bootstrap by the direct route: draw the
    same rows from the same streams, gather them, and sum the kernel."""
    curves = np.empty((reps, grid.size))
    for r, stream in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        idx = np.random.default_rng(stream).integers(0, x.size, size=x.size)
        wr = w[idx] if w[idx].sum() > 0 else np.ones(x.size)
        curves[r] = brute_force_density(x[idx], wr, h, grid, reflect)
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

    @pytest.mark.parametrize("ties", [False, True])
    def test_band_quantiles_equal_np_percentile(self, ties):
        # the bands take their quantiles without np.percentile, which
        # imports numpy.ma through np.unique; the values must not move
        reps = np.random.default_rng(12).normal(size=(200, 512))
        if ties:
            reps = np.round(reps, 1)
        sorted_reps, cum = np.sort(reps, axis=0), np.arange(1, 201)
        for q in (2.5, 97.5):
            band = _order_stat(sorted_reps, cum, q / 100)
            assert (band == np.percentile(reps, q, axis=0)).all()

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

    @pytest.mark.parametrize("reps", [0, -3])
    def test_bands_need_a_rep(self, reps):
        x = np.linspace(-2.0, 2.0, 50)
        with pytest.raises(ValueError, match=f"bootstrap_reps must be >= 1 for bands, got {reps}"):
            kde(x, KdeSpec(bandwidth=0.5), bootstrap_bands=True, bootstrap_reps=reps)
        assert kde(x, KdeSpec(bandwidth=0.5), bootstrap_reps=reps).band_low is None

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


class TestChunkedBands:
    """The bands evaluate the reps a bounded chunk of weight rows at a
    time; the chunks must not show in the bands or in the memory."""

    @pytest.mark.parametrize("reflect", [False, True])
    def test_registry_scale_matches_brute_force(self, registry_scale_sample, reflect):
        z, h, grid = registry_scale_sample
        w = np.random.default_rng(19).uniform(0.1, 3.0, z.size)
        curve = kde(z, KdeSpec(bandwidth=h, weights=w, boundary_reflection=reflect),
                    grid=grid, bootstrap_bands=True, bootstrap_reps=200, seed=20)
        low, high = brute_force_bands(z, w, h, grid, 200, 20, reflect)
        assert np.max(np.abs(curve.band_low - low)) <= 1e-12
        assert np.max(np.abs(curve.band_high - high)) <= 1e-12

    @pytest.mark.parametrize("extra", [None, 1])
    def test_one_rep_and_one_chunk_plus_one(self, registry_scale_sample, extra):
        import trialscope.density as dens

        z, h, grid = registry_scale_sample
        rows = dens._REP_ELEMENTS // z.size
        assert 1 < rows < 200
        reps = 1 if extra is None else rows + extra
        curve = kde(z, KdeSpec(bandwidth=h), grid=grid, bootstrap_bands=True,
                    bootstrap_reps=reps, seed=21)
        low, high = brute_force_bands(z, np.ones(z.size), h, grid, reps, 21)
        assert np.max(np.abs(curve.band_low - low)) <= 1e-12
        assert np.max(np.abs(curve.band_high - high)) <= 1e-12

    def test_fallback_reps_straddle_a_chunk_boundary(self, monkeypatch):
        import trialscope.density as dens

        n, rows, reps, seed = 12, 3, 40, 22
        monkeypatch.setattr(dens, "_REP_ELEMENTS", rows * n)
        x = np.random.default_rng(23).normal(size=n)
        w = np.eye(n)[0]
        # the reps that draw only zero weights fall back to unit weights;
        # two of them sit on either side of a chunk boundary
        fallback = [np.random.default_rng(s).integers(0, n, size=n).min() > 0
                    for s in np.random.SeedSequence(seed).spawn(reps)]
        assert any(fallback[r] and fallback[r + 1] for r in range(rows - 1, reps - 1, rows))
        grid = np.linspace(-3.0, 3.0, 61)
        curve = kde(x, KdeSpec(bandwidth=0.8, weights=w), grid=grid,
                    bootstrap_bands=True, bootstrap_reps=reps, seed=seed)
        low, high = brute_force_bands(x, w, 0.8, grid, reps, seed)
        assert np.max(np.abs(curve.band_low - low)) <= 1e-12
        assert np.max(np.abs(curve.band_high - high)) <= 1e-12

    def test_traced_peak_below_every_reps_weights(self, registry_scale_sample):
        # holding every rep's weights at once would take 200 n float64s
        z, h, grid = registry_scale_sample
        bound = 6 * 2**20
        assert bound < 200 * z.size * 8
        tracemalloc.start()
        try:
            kde(z, KdeSpec(bandwidth=h), grid=grid, bootstrap_bands=True,
                bootstrap_reps=200, seed=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{peak / 2**20:.2f} MiB"


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bandwidth", [0.5, "auto"])
    def test_kde_names_a_sample_value(self, bad, bandwidth):
        x = np.random.default_rng(25).normal(size=50)
        x[7] = bad
        with pytest.raises(ValueError, match=f"non-finite sample value {bad} at index 7"):
            kde(x, KdeSpec(bandwidth=bandwidth))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_kde_names_a_weight(self, bad):
        x = np.random.default_rng(26).normal(size=50)
        w = np.ones(50)
        w[3] = bad
        with pytest.raises(ValueError, match=f"non-finite weight {bad} at index 3"):
            kde(x, KdeSpec(bandwidth=0.5, weights=w))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_spec_rejects_a_bandwidth(self, bad):
        with pytest.raises(ValueError, match=f"bandwidth must be positive and finite, got {bad}"):
            KdeSpec(bandwidth=bad)

    def test_kde_names_a_grid_point(self):
        x = np.random.default_rng(28).normal(size=50)
        with pytest.raises(ValueError, match="non-finite grid point nan at index 1"):
            kde(x, KdeSpec(bandwidth=0.5), grid=np.array([0.0, np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("counts", [False, True])
    def test_bandwidths_name_a_sample_value(self, bad, counts):
        x = np.random.default_rng(27).normal(size=50)
        x[11] = bad
        c = np.ones(50, dtype=np.int64) if counts else None
        for select in (sj_bandwidth, silverman_bandwidth):
            with pytest.raises(ValueError, match=f"non-finite sample value {bad} at index 11"):
                select(x, c)


PRECISE, D1, D2, OTHER = (k.value for k in ZKind)


def significant_share(kinds, zvals, weights=None, bandwidth=1e-9):
    """censored_aware_share of a sample given as kind codes and share z
    values: D1/D2 rows at their bound, other censors at their imputed value
    (NaN until imputed).  A tiny bandwidth makes the KDE mass of a precise
    score a count on its side of the cutoff."""
    kinds = np.array(kinds, dtype=str)
    zvals = np.array(zvals, dtype=float)
    w = np.ones(len(kinds)) if weights is None else np.asarray(weights, dtype=float)
    return censored_aware_share(kinds, zvals, w, Z_SIG, bandwidth)


class TestSignificantShare:
    def test_three_precise_one_censor(self):
        share = significant_share([PRECISE] * 3 + [D1], [1.0, 2.0, 2.5, Z_D1])
        assert share == pytest.approx(0.75)

    def test_all_below_no_censors(self):
        assert significant_share([PRECISE] * 3, [0.2, 1.0, 1.5]) == 0.0

    def test_boundary_counts_significant(self):
        # censored mass exactly at the cutoff counts as significant
        assert significant_share([D1], [Z_SIG]) == 1.0

    def test_weights_and_predicted_tail_counts(self):
        # a predicted tail count enters as the weight of the censored row
        share = significant_share([PRECISE, PRECISE, D2], [2.5, 1.0, Z_D2],
                                  weights=[1.0, 1.0, 2.0])
        assert share == pytest.approx(3.0 / 4.0)

    def test_imputed_censor_counts_by_value(self):
        share = significant_share([PRECISE, PRECISE, OTHER], [2.2, 1.8, 2.2])
        assert share == pytest.approx(2.0 / 3.0)

    def test_unimputed_censor_raises(self):
        with pytest.raises(ValueError):
            significant_share([PRECISE, OTHER], [2.2, np.nan])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            significant_share([], [])

    def test_kde_mass_close_to_count(self):
        rng = np.random.default_rng(13)
        zs = np.abs(rng.normal(size=5000))
        count_share = float(np.mean(zs >= Z_SIG))
        kde_share = significant_share([PRECISE] * zs.size, zs, bandwidth=0.3)
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


@pytest.fixture(scope="module")
def pipeline_bandwidth_samples():
    """The (sample, draw counts) of every bandwidth one 2,000-trial
    simulated pipeline asks for: the point estimate's two and two per
    bootstrap rep."""
    import trialscope.decompose as dec

    seen = []

    def recording(x, c=None, **kwargs):
        seen.append((np.array(x), None if c is None else np.array(c)))
        return sj_bandwidth(x, c, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dec, "sj_bandwidth", recording)
        end_to_end_truth_check(SimConfig(n_trials=2000, seed=7), bootstrap_reps=40,
                               run_discontinuity=False)
    assert len(seen) == 2 + 2 * 40
    return seen


def counting_phi4(monkeypatch):
    """Count the ``_phi4_sum`` calls of the bandwidth and of the reference."""
    import trialscope.density as dens

    real, calls = dens._phi4_sum, []

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(dens, "_phi4_sum", counted)
    return calls


def rule_of_thumb_ratio(x):
    """The Gaussian-scale root over the rule of thumb g, 0.9 lambda n^-1/5."""
    import trialscope.density as dens

    xs, c = dens._draws(x)
    g = 0.9 * dens._spread(xs, c)[1] * c.sum() ** -0.2
    return sj_bandwidth(x).h / dens.EPAN_OVER_GAUSS / g


class TestBisectionReplay:
    """Brent's method and the replayed bisection give the bisection's root
    bit for bit: compared with ``==``, not a tolerance."""

    def test_pipeline_samples(self, pipeline_bandwidth_samples, monkeypatch):
        calls = counting_phi4(monkeypatch)
        new = old = 0
        for x, c in pipeline_bandwidth_samples:
            calls.clear()
            got = sj_bandwidth(x, c)
            new += len(calls)
            calls.clear()
            ref = bisection_bandwidth.sj_bandwidth(x, c)
            old += len(calls)
            assert got.h == ref.h and got.fallback == ref.fallback is False
        n = len(pipeline_bandwidth_samples)
        assert new / n <= 14 < 25 <= old / n

    @pytest.mark.parametrize("case", ["bimodal", "heavy tails", "rounded ties", "normal"])
    def test_samples(self, case):
        rng = np.random.default_rng(41)
        x = {
            # the root lies below 0.3 g: Brent starts on [sd/n, 0.3 g]
            "bimodal": np.r_[rng.normal(-4, 0.3, 300), rng.normal(4, 0.3, 300)],
            "heavy tails": rng.standard_t(2, size=800),
            "rounded ties": np.round(np.abs(rng.normal(1.5, 1.2, size=1500)), 2),
            # the root lies above g: Brent starts on [g, 2 sd]
            "normal": rng.normal(size=500),
        }[case]
        if case == "bimodal":
            assert rule_of_thumb_ratio(x) < 0.3
        if case == "normal":
            assert rule_of_thumb_ratio(x) > 1.0
        if case == "rounded ties":
            assert np.unique(x).size < x.size / 2
        got, ref = sj_bandwidth(x), bisection_bandwidth.sj_bandwidth(x)
        assert got.h == ref.h and got.fallback == ref.fallback is False
        # the order of the sample, and of its counts, does not matter
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(x.size)
            assert sj_bandwidth(x[perm]).h == ref.h
            c = np.random.default_rng(seed).integers(0, 3, size=x.size)
            assert sj_bandwidth(x[perm], c[perm]).h == bisection_bandwidth.sj_bandwidth(x, c).h

    def test_replay_of_a_wide_bracket_is_the_bisection(self, monkeypatch):
        # Brent's bracket left as it came: the replay evaluates every midpoint
        import trialscope.density as dens

        monkeypatch.setattr(dens, "_brent", lambda f, a, b, fa, fb: (a, b))
        x = np.random.default_rng(43).gamma(2.0, size=700)
        assert sj_bandwidth(x) == bisection_bandwidth.sj_bandwidth(x)

    @pytest.mark.parametrize("band", ["bracket", "root", "replay"])
    def test_non_finite_objective_falls_back(self, band, monkeypatch):
        import trialscope.density as dens

        x = np.random.default_rng(21).normal(size=300)
        calls = counting_phi4(monkeypatch)
        sj_bandwidth(x)
        # the pilot bandwidths of S: the one S(alpha2) is scaled by, then
        # those of the bracket's ends, and last the one Brent ends at
        pilot, at_lo, at_hi, last = calls[0], calls[1], calls[2], calls[-1]
        lo, hi = (at_lo, at_hi) if band == "bracket" else (last * 0.999, last * 1.001)
        if band == "replay":  # Brent sees no value near the root
            monkeypatch.setattr(dens, "_brent", lambda f, a, b, fa, fb: (a, b))
        counted = dens._phi4_sum

        def negative_inside(dist, cnt, n, h):
            return -1.0 if lo < h < hi and h != pilot else counted(dist, cnt, n, h)

        monkeypatch.setattr(dens, "_phi4_sum", negative_inside)
        silverman = BandwidthResult(h=silverman_bandwidth(x), fallback=True)
        assert sj_bandwidth(x) == silverman == bisection_bandwidth.sj_bandwidth(x)

    def test_no_sign_change_falls_back(self, monkeypatch):
        # a tight cluster and one far outlier: the objective is negative at
        # both ends of [sd/n, 2 sd], so nothing past them is evaluated
        x = np.r_[np.random.default_rng(0).normal(size=200) * 1e-3, 1e4]
        calls = counting_phi4(monkeypatch)
        silverman = BandwidthResult(h=silverman_bandwidth(x), fallback=True)
        assert sj_bandwidth(x) == silverman
        assert len(calls) == 3
        assert bisection_bandwidth.sj_bandwidth(x) == silverman


class TestParentBandwidth:
    """The kernel without float powers (squared pair distances, Horner
    sums) moves the objective by rounding only, which leaves the
    bisection's midpoints, and with them h, where they were: compared with
    the kernel before it (``parent_bandwidth``) by ``==``."""

    def test_pipeline_samples(self, pipeline_bandwidth_samples):
        for x, c in pipeline_bandwidth_samples:
            assert sj_bandwidth(x, c) == parent_bandwidth.sj_bandwidth(x, c)

    @pytest.mark.parametrize("case", ["bimodal", "heavy tails", "rounded ties", "normal"])
    def test_samples(self, case):
        # the samples of TestBisectionReplay.test_samples
        rng = np.random.default_rng(41)
        x = {
            "bimodal": np.r_[rng.normal(-4, 0.3, 300), rng.normal(4, 0.3, 300)],
            "heavy tails": rng.standard_t(2, size=800),
            "rounded ties": np.round(np.abs(rng.normal(1.5, 1.2, size=1500)), 2),
            "normal": rng.normal(size=500),
        }[case]
        assert sj_bandwidth(x) == parent_bandwidth.sj_bandwidth(x)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(x.size)
            c = np.random.default_rng(seed).integers(0, 3, size=x.size)
            assert sj_bandwidth(x[perm], c[perm]) == parent_bandwidth.sj_bandwidth(x, c)

    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.37, 2.5), (5.0, -1.0)])
    def test_ties_at_bin_edges(self, scale, shift):
        # tied values on the edges of the 1,024 pair-count bins, where the
        # binning of a value is a matter of rounding
        rng = np.random.default_rng(47)
        d = 1.01 / 1024  # the bin width of a sample spanning [0, 1]
        k = np.minimum(rng.binomial(1013, 0.4, size=900), 1013)
        x = np.r_[0.0, k * d, 1.0] * scale + shift
        assert np.unique(x).size < x.size / 2
        c = rng.integers(0, 4, size=x.size)
        c[[0, -1]] = 1
        for weights in (None, c):
            got = sj_bandwidth(x, weights)
            assert got == parent_bandwidth.sj_bandwidth(x, weights)
            assert not got.fallback

    @pytest.mark.parametrize("outlier", [1e4, 1e2, -3e3])
    def test_fallbacks(self, outlier):
        # a tight cluster and one far outlier: no sign change, Silverman
        x = np.r_[np.random.default_rng(0).normal(size=200) * 1e-3, outlier]
        got = sj_bandwidth(x)
        assert got.fallback and got == parent_bandwidth.sj_bandwidth(x)
        for sample in ([1.0, 2.0, 3.0] * 10, x[:9]):
            for bandwidth in (sj_bandwidth, parent_bandwidth.sj_bandwidth):
                with pytest.raises(ValueError, match="distinct"):
                    bandwidth(sample)
