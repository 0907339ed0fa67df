"""Registries with non-industry trials.  The simulator writes industry
trials only, so these tests read a simulated registry with a third of its
trials rewritten to academic sponsors (the ``mixed_csvs`` fixture)."""

import csv

import trialscope.registry as registry
from trialscope import cli
from trialscope.cli import PipelineConfig, main
from trialscope.linker import link_all, load_synonyms
from trialscope.registry import Phase, SponsorClass, all_sponsor_splits


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def inputs(trials, outcomes, rankings, synonyms):
    return ["--trials", trials, "--outcomes", outcomes, "--rankings", rankings,
            "--synonyms", synonyms]


def run(args):
    return main([str(a) for a in args])


def test_disctest_separates_the_groups(mixed_csvs, tmp_path):
    assert run(["disctest", *inputs(*mixed_csvs), "--out", tmp_path]) == 0
    rows = {(r["group"], r["phase"]): r for r in read_rows(tmp_path / "disctest.csv")}
    for phase in ("phase2", "phase3"):
        every, industry = rows[("all", phase)], rows[("all_industry", phase)]
        non = rows[("non_industry", phase)]
        assert int(non["n"]) > 0
        assert int(every["n"]) == int(industry["n"]) + int(non["n"])
        assert {k: v for k, v in every.items() if k != "group"} != {
            k: v for k, v in industry.items() if k != "group"
        }
        # a result or a named reason, never both and never neither
        assert bool(non["p_value"]) != bool(non["error"])


def test_decompose_unchanged_by_non_industry_trials(mixed_csvs, tmp_path):
    trials, outcomes, rankings, synonyms = mixed_csvs
    rows = read_rows(trials)
    academic = {r["trial_id"] for r in rows if r["sponsor_class"] == "non_industry"}
    # the check has teeth: some industry phase II trial matches an academic
    # phase III trial, a match the industry groups must not see
    reg, _ = registry.apply_sample_filters(registry.ingest(trials, outcomes, rankings))
    links, _ = link_all(reg, synonyms=load_synonyms(synonyms))
    assert any(r.matched_phase3_ids & academic for r in links if r.phase2_id not in academic)

    industry_only = []
    for src in (trials, outcomes):
        dest = tmp_path / f"industry_{src.name}"
        kept = [r for r in read_rows(src) if r["trial_id"] not in academic]
        with open(dest, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=list(kept[0]))
            w.writeheader()
            w.writerows(kept)
        industry_only.append(dest)

    tables = []
    for files in (mixed_csvs, (*industry_only, rankings, synonyms)):
        out = tmp_path / f"dec{len(tables)}"
        assert run(["decompose", *inputs(*files), "--group", "all_industry",
                    "--bootstrap-reps", 20, "--seed", 4, "--out", out]) == 0
        tables.append((out / "decomposition.csv").read_text())
    assert tables[0] == tables[1]


def test_sponsor_groups_read_the_table_keys(mixed_csvs, monkeypatch):
    trials, outcomes, rankings, synonyms = mixed_csvs
    cfg = PipelineConfig.load(None, {"trials": str(trials), "outcomes": str(outcomes),
                                     "rankings": str(rankings), "synonyms": str(synonyms)})
    inp = cli._Inputs(cfg)
    reg = inp.registry
    _ = inp.table
    # the rule the groups followed before: each trial's sponsor classified
    # through SponsorSplit.group_of
    industry = {t for t, r in reg.trials.items() if r.sponsor_class is SponsorClass.INDUSTRY}
    split = [s for s in all_sponsor_splits(cli._rankings(reg), k_range=[cfg["split_k"]])
             if s.criterion == cfg["split_criterion"]][0]
    expected = {
        "all": set(reg.trials),
        "non_industry": set(reg.trials) - industry,
        "all_industry": industry,
        "top_industry": {t for t in industry
                         if split.group_of(reg.trials[t].sponsor_name) == "Large"},
        "small_industry": {t for t in industry
                           if split.group_of(reg.trials[t].sponsor_name) == "Small"},
    }
    assert all(expected.values())
    calls = []
    real = registry.canonical_sponsor
    monkeypatch.setattr(registry, "canonical_sponsor",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    for group in cli._GROUPS:
        assert inp.group_ids(group) == expected[group], group
    assert calls == []  # the table's keys were canonicalised once, when it was built
    assert {reg.trials[t].phase for t in expected["non_industry"]} >= {
        Phase.PHASE2, Phase.PHASE3
    }

