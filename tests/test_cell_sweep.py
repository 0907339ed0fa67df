"""The pinned cells of ``sponsor_split_sweep`` against the per-cell sweep
of ``cell_sweep``: every row equal with ``==``, shares, explained fraction
and error text, and the same warnings in the same order."""

import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cell_sweep
from trialscope.decompose import sponsor_split_sweep
from trialscope.linker import link_all, load_synonyms
from trialscope.pz import Z_SIG, ZKind, outcome_table
from trialscope.registry import (
    OutcomeRank,
    Phase,
    all_sponsor_splits,
    apply_sample_filters,
    ingest,
)

# the benchmark's sweep inputs: `trialscope simulate --n-trials 2000` at these seeds
POOL_SEEDS = (101, 102, 103, 104)


def sweep_inputs(trials, outcomes, rankings, synonyms):
    """The table, the all-industry links and the splits that the ``sweep``
    command reads off its CSV inputs."""
    reg = apply_sample_filters(ingest(trials, outcomes, rankings))[0]
    table = outcome_table(reg)
    links = link_all(reg, synonyms=load_synonyms(synonyms))[0].within(table.trials.industry)
    return table, links, all_sponsor_splits(reg.rankings)


def both(table, links, splits, **kwargs):
    """The rows of both sweeps, checked equal; the pinned sweep's rows."""
    runs = []
    for sweep in (sponsor_split_sweep, cell_sweep.sponsor_split_sweep):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sweep(table, links, splits, **kwargs)
        runs.append((rows, [str(w.message) for w in caught]))
    (rows, warned), (ref, ref_warned) = runs
    assert len(rows) == 2 * len(splits)
    assert rows == ref
    assert warned == ref_warned
    return rows


def errors(rows):
    return {r["error"] for r in rows if r["error"]}


def computed(rows):
    return [r for r in rows if r["ph2"] is not None]


@pytest.fixture(scope="module")
def small(sim_small):
    reg, _, links, _ = sim_small
    return outcome_table(reg), links, all_sponsor_splits(reg.rankings)


def test_sim_small_splits(small):
    assert computed(both(*small))


def test_another_cutoff(small):
    table, links, splits = small
    assert computed(both(table, links, splits[::4], cutoff=1.645))


def test_an_outcome_rank_without_rows(small):
    # the simulator reports primary outcomes only
    table, links, splits = small
    rows = both(table, links, splits[:4], outcome_rank=OutcomeRank.SECONDARY)
    assert errors(rows) == {"selection design is empty"}


def test_degenerate_gap(small):
    table, links, splits = small
    rows = both(table, links, splits[:6], min_gap=10.0)
    assert errors(rows) and all(r["explained_fraction"] is None for r in rows)


def test_mixed_csvs(mixed_csvs):
    table, links, splits = sweep_inputs(*mixed_csvs)
    assert not table.trials.industry.all()
    assert computed(both(table, links, splits))


@pytest.fixture(scope="module")
def censored_csvs(sim_csvs, tmp_path_factory):
    """The inputs of ``sim_csvs`` with every fifth exact p-value rewritten to
    a "p<t" or "p>t" censor at a level other than 0.001 and 0.0001."""
    trials, outcomes, rankings, synonyms = sim_csvs
    with open(outcomes, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    kind, value = header.index("p_kind"), header.index("p_value")
    levels = [("lt", "0.05"), ("gt", "0.5"), ("lt", "0.002"), ("gt", "0.01"),
              ("lt", "0.2"), ("gt", "0.9")]
    exact = [r for r in rows if r[kind] == "exact"]
    for i, r in enumerate(exact[::5]):
        r[kind], r[value] = levels[i % len(levels)]
    path = tmp_path_factory.mktemp("censored") / "outcomes.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return trials, path, rankings, synonyms


def test_other_censors_are_imputed_per_cell(censored_csvs):
    table, links, splits = sweep_inputs(*censored_csvs)
    assert np.count_nonzero(table.kind == ZKind.OTHER_CENSOR.value) > 100
    assert computed(both(table, links, splits))


def test_cells_without_phase3_rows(small):
    table, links, splits = small
    split = splits[3]
    small_rows = table.sponsor_groups(split)[1][1]
    table = table.subset(~(small_rows & (table.phase == Phase.PHASE3.value)))
    rows = both(table, links, splits)
    assert "selection design is empty" in errors(rows)
    assert computed(rows)


def test_cells_with_one_outcome_class(small):
    table, links, splits = small
    unmatched = replace(links, offsets=np.zeros_like(links.offsets), matched=links.matched[:0])
    rows = both(table, unmatched, splits[:8])
    assert errors(rows) == {"need both outcome classes to fit a logit"}


def test_separated_cells(small):
    # a phase II trial continues exactly when one of its primary outcomes is
    # significant: it is matched to itself, so every cell keeps the match
    table, links, splits = small
    rows = table.industry & table.sample(Phase.PHASE2)
    significant = np.zeros(len(table.trials.ids), dtype=bool)
    share_z = np.where(table.precise, table.z, table.bound)
    significant[table.trial_code[rows & (share_z >= Z_SIG)]] = True
    hit = significant[links.phase2] & (links.skip_reason == "")
    separated = replace(links, offsets=np.concatenate(([0], np.cumsum(hit))),
                        matched=links.phase2[hit])
    failed = errors(both(table, separated, splits[:8]))
    assert any("separation" in e for e in failed), failed


@pytest.mark.slow
@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_benchmark_pool_registries(seed, tmp_path):
    from trialscope.cli import main

    assert main(["simulate", "--out", str(tmp_path), "--seed", str(seed),
                 "--n-trials", "2000"]) == 0
    names = ("trials", "outcomes", "rankings", "synonyms")
    table, links, splits = sweep_inputs(*(tmp_path / f"{n}.csv" for n in names))
    assert len(splits) == 56
    assert computed(both(table, links, splits))
