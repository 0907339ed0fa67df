"""Metamorphic checks: the results do not depend on the order of the input
rows, on what the trials are called or on the scale of the weights."""

import csv

import numpy as np
import pytest

from trialscope.cli import main
from trialscope.decompose import (
    censored_aware_share,
    decompose,
    phase_scores,
    sponsor_split_sweep,
)
from trialscope.density import KdeSpec, kde
from trialscope.discontinuity import sponsor_sweep
from trialscope.linker import link_all, load_synonyms
from trialscope.pz import Z_SIG, outcome_table
from trialscope.registry import Phase, all_sponsor_splits, apply_sample_filters, ingest


def rewrite(src, dest, order=None, relabel=None):
    """Copy a CSV with its data rows reordered and trial ids renamed."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if order is not None:
        rows = [rows[i] for i in order(len(rows))]
    if relabel is not None:
        col = header.index("trial_id")
        for r in rows:
            r[col] = relabel[r[col]]
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return dest


def results(trials, outcomes, rankings, synonyms, out):
    reg, _ = apply_sample_filters(ingest(trials, outcomes, rankings))
    table = outcome_table(reg)
    links, _ = link_all(reg, synonyms=load_synonyms(synonyms))
    splits = all_sponsor_splits(reg.rankings, k_range=range(7, 21, 3))
    assert main(["disctest", "--trials", str(trials), "--outcomes", str(outcomes),
                 "--out", str(out)]) == 0
    with open(out / "disctest.csv", newline="", encoding="utf-8") as fh:
        disctest = list(csv.reader(fh))
    return {
        "decompose": decompose(table, links, bootstrap_reps=0).shares,
        "sponsor_sweep": sponsor_sweep(table, splits, Phase.PHASE3),
        "sponsor_split_sweep": sponsor_split_sweep(table, links, splits),
        "disctest": disctest,
    }


def assert_close(a, b, where=""):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            assert_close(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert b == pytest.approx(a, rel=0, abs=1e-9), where
    else:
        try:  # CSV cells
            assert float(b) == pytest.approx(float(a), rel=0, abs=1e-9), where
        except (TypeError, ValueError):
            assert a == b, where


@pytest.fixture(scope="module")
def baseline(sim_csvs, tmp_path_factory):
    return results(*sim_csvs, tmp_path_factory.mktemp("base"))


def test_computable_cells_present(baseline):
    assert any(not r["error"] for r in baseline["sponsor_sweep"])
    assert any(not r["error"] for r in baseline["sponsor_split_sweep"])
    assert any(not r[-1] for r in baseline["disctest"][1:])


def test_row_order_invariance(sim_csvs, baseline, tmp_path):
    trials, outcomes, rankings, synonyms = sim_csvs
    rng = np.random.default_rng(8)
    shuffled = (
        rewrite(trials, tmp_path / "trials.csv", order=rng.permutation),
        rewrite(outcomes, tmp_path / "outcomes.csv", order=rng.permutation),
    )
    assert_close(baseline, results(*shuffled, rankings, synonyms, tmp_path))


def test_trial_relabel_invariance(sim_csvs, baseline, tmp_path):
    trials, outcomes, rankings, synonyms = sim_csvs
    with open(trials, newline="", encoding="utf-8") as fh:
        ids = [r["trial_id"] for r in csv.DictReader(fh)]
    perm = np.random.default_rng(9).permutation(len(ids))
    relabel = {tid: f"R{perm[i]:05d}" for i, tid in enumerate(ids)}
    renamed = (
        rewrite(trials, tmp_path / "trials.csv", relabel=relabel),
        rewrite(outcomes, tmp_path / "outcomes.csv", relabel=relabel),
    )
    assert_close(baseline, results(*renamed, rankings, synonyms, tmp_path))


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_weight_scale_invariance(sim_small, scale):
    ph2 = phase_scores(outcome_table(sim_small[0]), Phase.PHASE2)
    w = np.random.default_rng(10).uniform(0.1, 2.0, ph2.n_obs)
    for h in (0.2, 0.45):
        share = censored_aware_share(ph2.kind, ph2.share_z, w, Z_SIG, h)
        scaled = censored_aware_share(ph2.kind, ph2.share_z, scale * w, Z_SIG, h)
        assert scaled == pytest.approx(share, rel=0, abs=1e-12)
    precise = ph2.kind == "precise"
    z, wz = ph2.z[precise], w[precise]
    for spec, scaled_spec in (
        (KdeSpec(weights=wz), KdeSpec(weights=scale * wz)),
        (KdeSpec(bandwidth=0.3, weights=wz, boundary_reflection=True),
         KdeSpec(bandwidth=0.3, weights=scale * wz, boundary_reflection=True)),
    ):
        a = kde(z, spec, bootstrap_bands=True, bootstrap_reps=20, seed=4)
        b = kde(z, scaled_spec, bootstrap_bands=True, bootstrap_reps=20, seed=4)
        assert np.array_equal(a.grid, b.grid)
        for va, vb in ((a.values, b.values), (a.band_low, b.band_low),
                       (a.band_high, b.band_high)):
            assert np.max(np.abs(va - vb)) <= 1e-12
