"""The benchmark's ``oracle_mc`` pipelines, checked in the test suite: the
eight criterion-5 pipelines of its input pool (2,000 trials, seeds
20000-20007, even seeds without misreporting, odd ones with suppression at
q = 0.3, 200 bootstrap reps each).

``oracle_pool.json`` holds their decomposition reports as the code gave
them before the bandwidth kernel lost its float powers and the survival
kernel its ``uc**3``.  Every bandwidth must equal the one of that kernel
(``parent_bandwidth``) bit for bit, no bandwidth may fall back, and the
report fields may move by rounding only."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import trialscope.decompose as dec
from trialscope.simulate import Misreporting, SimConfig, end_to_end_truth_check

import parent_bandwidth

POOL = json.loads((Path(__file__).parent / "oracle_pool.json").read_text())


@pytest.mark.slow
@pytest.mark.parametrize("entry", POOL, ids=lambda e: f"seed{e['seed']}")
def test_oracle_pool_pipeline(entry, monkeypatch):
    seen, sj_bandwidth = [], dec.sj_bandwidth

    def recording(x, c, **kwargs):
        got = sj_bandwidth(x, c, **kwargs)
        seen.append((x, c, got))
        return got

    monkeypatch.setattr(dec, "sj_bandwidth", recording)
    # fewer than 10 distinct drawn scores would take Silverman's rule
    monkeypatch.setattr(dec, "silverman_bandwidth", lambda *a: pytest.fail("Silverman's rule"))
    q = entry["suppress_q"]
    cfg = SimConfig(n_trials=2000, seed=entry["seed"],
                    misreporting=Misreporting.suppress_share(q) if q else Misreporting.none())
    report = end_to_end_truth_check(cfg, bootstrap_reps=200,
                                    run_discontinuity=False)["decomposition"]

    ref = entry["report"]
    assert report.dropped_reps == ref["dropped_reps"] == 0
    assert len(seen) == 2 + 2 * (200 - report.dropped_reps)
    assert not any(got.fallback for _, _, got in seen)
    for x, c, got in seen:
        assert got == parent_bandwidth.sj_bandwidth(x, c)
    assert report.bandwidths == ref["bandwidths"]
    for field in ("n_obs", "n_trials", "bootstrap_reps"):
        assert getattr(report, field) == ref[field]
    for field in ("shares", "diffs", "std_errs"):
        got, want = getattr(report, field), ref[field]
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-15, abs=0), (field, key)
