from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialscope.cli import main
from trialscope.linker import (
    DEFAULT_MESH_STOPLIST,
    build_synonym_map,
    canonical_drug,
    link_all,
    load_synonyms,
)
from trialscope.pz import outcome_table
from trialscope.registry import Phase, SchemaError, write_outcomes_csv, write_trials_csv
from trialscope.selection import build_design

from linear_linker import link
from records import Trial, records, registry_of


def make_trial(
    trial_id,
    phase,
    interventions,
    mesh,
    start,
    completion=None,
    sponsor="Acme Pharma",
):
    return Trial(
        trial_id=trial_id,
        phase=phase,
        interventions=tuple(frozenset(c) for c in interventions),
        mesh_conditions=frozenset(mesh),
        start_date=start,
        completion_date=completion,
        sponsor_name=sponsor,
    )


def by_phase2_id(links):
    """(skip reason, matched ids) of each phase II trial of ``links``, keyed
    by its id in registry order, as the linear linker reports them."""
    ids = links.ids.tolist()
    matched = {ids[c]: frozenset() for c in links.phase2.tolist()}
    for p2, p3 in zip(*(codes.tolist() for codes in links.pairs())):
        matched[ids[p2]] |= {ids[p3]}
    return {ids[c]: (reason, matched[ids[c]])
            for c, reason in zip(links.phase2.tolist(), links.skip_reason.tolist())}


PH2 = make_trial(
    "P2", Phase.PHASE2, [{"druga", "drugb"}], {"C14:Hypertension"},
    date(2012, 1, 1), date(2014, 6, 30),
)


class TestCriteria:
    def test_superset_interventions_match(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga"}, {"drugb"}, {"drugc"}],
                        {"C14:Hypertension", "C10:Migraine"}, date(2015, 1, 1))
        assert link(PH2, [p3]) == ("", {"P3"})

    def test_synonym_resolution(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"druga"}], {"C14:X"},
                        date(2012, 1, 1), date(2014, 1, 1))
        p3 = make_trial("P3", Phase.PHASE3, [{"brandname"}], {"C14:X"}, date(2015, 1, 1))
        synonyms = build_synonym_map([("druga", "brandname")])
        assert not link(p2, [p3])[1]
        assert link(p2, [p3], synonyms=synonyms)[1]

    def test_equal_start_dates_do_not_match(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga", "drugb"}],
                        {"C14:Hypertension"}, PH2.start_date)
        assert not link(PH2, [p3])[1]

    def test_mesh_subset_required(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga", "drugb"}],
                        {"C10:Migraine"}, date(2015, 1, 1))
        assert not link(PH2, [p3])[1]

    def test_stoplist_ignores_generic_terms(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"druga"}],
                        {"C14:Hypertension", "Disease"}, date(2012, 1, 1), date(2014, 1, 1))
        p3 = make_trial("P3", Phase.PHASE3, [{"druga"}], {"C14:Hypertension"},
                        date(2015, 1, 1))
        assert link(p2, [p3])[1]
        # without the stoplist the generic term blocks the match
        assert not link(p2, [p3], mesh_stoplist=frozenset())[1]

    def test_partial_combination_does_not_match(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga"}], {"C14:Hypertension"},
                        date(2015, 1, 1))
        assert not link(PH2, [p3])[1]

    def test_any_main_set_suffices(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"druga", "drugb"}, {"drugz"}],
                        {"C14:X"}, date(2012, 1, 1), date(2014, 1, 1))
        p3 = make_trial("P3", Phase.PHASE3, [{"drugz"}], {"C14:X"}, date(2015, 1, 1))
        assert link(p2, [p3])[1]

    def test_results_reporting_irrelevant(self):
        # matching is purely on protocol fields; no outcome data involved
        p3 = make_trial("P3", Phase.PHASE3, [{"druga", "drugb"}],
                        {"C14:Hypertension"}, date(2015, 1, 1))
        assert link(PH2, [p3])[1]


class TestSkips:
    def test_no_intervention(self):
        p2 = make_trial("P2", Phase.PHASE2, [], {"C14:X"},
                        date(2012, 1, 1), date(2014, 1, 1))
        assert link(p2, []) == ("no_intervention", frozenset())

    def test_no_completion_date(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"a"}], {"C14:X"}, date(2012, 1, 1), None)
        assert link(p2, [])[0] == "no_completion_date"

    def test_completed_after_cutoff(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"a"}], {"C14:X"},
                        date(2018, 1, 1), date(2019, 6, 1))
        assert link(p2, [])[0] == "completed_after_cutoff"

    def test_boundary_completion_date_eligible(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"a"}], {"C14:X"},
                        date(2016, 1, 1), date(2018, 12, 31))
        assert link(p2, [])[0] == ""


class TestCanonicalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  DrugX   50 mg ", "drugx"),
            ("drugx 2.5mg/kg", "drugx"),
            ("DrugX (100 mg)", "drugx"),
            ("drugx 10 mg/ml", "drugx"),
            ("Multi  Word   Drug", "multi word drug"),
            ("plaindrug", "plaindrug"),
        ],
    )
    def test_dosage_stripping(self, raw, expected):
        assert canonical_drug(raw) == expected

    @given(st.text(alphabet="abcdefg XYZ0123", min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, name):
        once = canonical_drug(name)
        assert canonical_drug(once) == once

    def test_synonym_map_symmetric_keys(self):
        m = build_synonym_map([("canon", "alias"), ("canon", "other alias")])
        assert canonical_drug("ALIAS", m) == canonical_drug("canon", m)
        assert canonical_drug("Other  Alias", m) == "canon"

    def test_synonym_chains_collapse(self):
        m = build_synonym_map([("b", "c"), ("a", "b")])
        assert canonical_drug("c", m) == "a"

    def test_load_synonyms_schema(self, tmp_path):
        f = tmp_path / "syn.csv"
        f.write_text("canonical_drug,synonym\na,b\n", encoding="utf-8")
        assert canonical_drug("b", load_synonyms(f)) == "a"
        bom = tmp_path / "bom.csv"
        bom.write_text("canonical_drug,synonym\na,b\n", encoding="utf-8-sig")
        assert load_synonyms(bom) == load_synonyms(f)
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\na,b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected columns"):
            load_synonyms(bad)

    @pytest.mark.parametrize("row, fields", [("a", 1), ("a,b,c", 3)], ids=["short", "long"])
    def test_load_synonyms_row_of_another_length(self, tmp_path, row, fields):
        f = tmp_path / "syn.csv"
        f.write_text(f"canonical_drug,synonym\n\na,b\n{row}\nc,d\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"expected 2 fields, got {fields}") as exc:
            load_synonyms(f)
        assert (exc.value.file, exc.value.line, exc.value.column) == (str(f), 4, "<row>")

    @pytest.mark.parametrize("row", ["a", "a,b,c"], ids=["short", "long"])
    def test_link_with_a_synonyms_row_of_another_length_exits_one(
            self, tmp_path, capsys, row):
        reg = registry_of([make_trial("P2", Phase.PHASE2, [{"druga"}], {"C14:X"},
                                      date(2012, 1, 1), date(2014, 1, 1))])
        write_trials_csv(reg, tmp_path / "trials.csv")
        write_outcomes_csv(reg, tmp_path / "outcomes.csv")
        syn = tmp_path / "syn.csv"
        syn.write_text(f"canonical_drug,synonym\na,b\n{row}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["link", "--trials", str(tmp_path / "trials.csv"),
                     "--outcomes", str(tmp_path / "outcomes.csv"),
                     "--synonyms", str(syn), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {syn}:3 column '<row>': expected 2 fields")
        assert "Traceback" not in err
        assert not out.exists()


class TestLinkAll:
    def test_monotone_in_pool(self):
        p3a = make_trial("P3A", Phase.PHASE3, [{"druga", "drugb"}],
                         {"C14:Hypertension"}, date(2015, 1, 1))
        p3b = make_trial("P3B", Phase.PHASE3, [{"druga", "drugb", "drugc"}],
                         {"C14:Hypertension"}, date(2016, 1, 1))
        _, small = link(PH2, [p3a])
        _, big = link(PH2, [p3a, p3b])
        assert small
        assert big
        assert small <= big

    def test_zero_pool_all_false(self, sim_small):
        reg, truth, links, summary = sim_small
        only_ph2 = reg.subset(reg.trials.phase == Phase.PHASE2.value)
        links, s = link_all(only_ph2)
        assert len(links.phase2) == only_ph2.n_trials() and links.matched.size == 0
        assert s.n_continued == 0

    def test_pool_order_invariance(self):
        pool = [
            make_trial(f"P3{i}", Phase.PHASE3, [{"druga", "drugb"}],
                       {"C14:Hypertension"}, date(2015 + i, 1, 1))
            for i in range(4)
        ]
        a = link(PH2, pool)
        b = link(PH2, list(reversed(pool)))
        assert a[1] == b[1]

    def test_indexed_matches_reference(self, sim_small):
        reg, truth, links, summary = sim_small
        synonyms = build_synonym_map(truth.synonym_pairs)
        trials = list(records(reg).values())
        pool = [t for t in trials if t.phase is Phase.PHASE3]
        by_id = by_phase2_id(links)
        checked = 0
        for t in trials[:150]:
            if t.phase is not Phase.PHASE2:
                continue
            assert link(t, pool, synonyms) == by_id[t.trial_id]
            checked += 1
        assert checked > 50

    def test_restricted_links_equal_linking_the_subset(self, sim_small):
        reg, truth, links, summary = sim_small
        ids = frozenset(list(records(reg))[::2])
        alone, _ = link_all(reg.subset(np.isin(reg.trials.ids, list(ids))),
                            synonyms=build_synonym_map(truth.synonym_pairs))
        cut = by_phase2_id(links.within(np.isin(links.ids, list(ids))))
        full = by_phase2_id(links)
        assert sum(full[tid] != got for tid, got in cut.items()) > 0
        assert cut == by_phase2_id(alone)
        assert list(cut) == list(by_phase2_id(alone))  # registry order kept

    def test_summary_rates(self, sim_small):
        reg, truth, links, summary = sim_small
        assert summary.n_eligible == summary.n_phase2
        assert summary.n_continued == len(truth.continued_ids())
        ne, nc = summary.by_sponsor_class["industry"]
        assert ne == summary.n_eligible and nc == summary.n_continued
        assert 0.0 < summary.continuation_rate() < 1.0


class TestLinks:
    def test_links_of_another_registry_raise(self, sim_small):
        reg, truth, links, summary = sim_small
        half = reg.subset(np.isin(reg.trials.ids, list(records(reg))[::2]))
        half_links, _ = link_all(half, synonyms=build_synonym_map(truth.synonym_pairs))
        table = outcome_table(reg)
        for bad in (lambda: build_design(table, half_links),
                    lambda: build_design(outcome_table(half), links),
                    lambda: half_links.labels(table.trials.ids),
                    lambda: links.within(np.ones(half.n_trials(), dtype=bool))):
            with pytest.raises(ValueError, match="another registry"):
                bad()
        assert build_design(outcome_table(half), half_links).n_obs > 0
        # a registry's table and links hold its one coding array
        assert table.trials.ids is links.ids is reg.trials.ids

    def test_link_csv_bytes(self, tmp_path):
        # registry order is not id order, and P2-B matches two phase III
        # trials, listed in registry order Z before A
        d = date
        trials = [
            make_trial("P2-B", Phase.PHASE2, [{"druga"}], {"C14:X"}, d(2012, 1, 1), d(2014, 1, 1)),
            make_trial("P3-Z", Phase.PHASE3, [{"druga"}], {"C14:X"}, d(2016, 1, 1)),
            make_trial("P2-A", Phase.PHASE2, [], {"C14:X"}, d(2012, 1, 1), d(2014, 1, 1)),
            make_trial("P3-A", Phase.PHASE3, [{"druga"}, {"drugb"}], {"C14:X"}, d(2015, 1, 1)),
            make_trial("P2-C", Phase.PHASE2, [{"drugb"}], {"C14:X"}, d(2012, 1, 1), d(2014, 1, 1)),
            make_trial("P2-D", Phase.PHASE2, [{"drugq"}], {"C14:X"}, d(2012, 1, 1), d(2014, 1, 1)),
        ]
        reg = registry_of(trials)
        write_trials_csv(reg, tmp_path / "trials.csv")
        write_outcomes_csv(reg, tmp_path / "outcomes.csv")
        assert main(["link", "--trials", str(tmp_path / "trials.csv"),
                     "--outcomes", str(tmp_path / "outcomes.csv"), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "links.csv").read_bytes() == (
            b"phase2_id,phase3_id\r\n"
            b"P2-B,P3-A\r\n"
            b"P2-B,P3-Z\r\n"
            b"P2-C,P3-A\r\n"
        )
        assert (tmp_path / "links_summary.csv").read_bytes() == (
            b"phase2_id,continued,n_matches,skip_reason\r\n"
            b"P2-B,true,2,\r\n"
            b"P2-A,false,0,no_intervention\r\n"
            b"P2-C,true,1,\r\n"
            b"P2-D,false,0,\r\n"
        )


class TestJoinAgainstLinearLinker:
    """A hand-built registry that reaches the paths the simulator never does:
    one drug listed by many phase III trials, combinations of several drugs
    matched in full or in part, synonym chains, dosage suffixes, stoplisted
    MeSH terms, missing and equal start dates."""

    DRUGS = ["druga", "DrugA 50 mg", "drugb", "DRUGB (10 mg)", "drugc", "brand-a", "alias a",
             "drugd 2.5mg/kg", "druge"]
    MESH = ["C14:Hypertension", "C10:Migraine", "Disease", "C04:Syndrome", "Hypertension"]
    STARTS = [None, date(2011, 1, 1), date(2012, 1, 1), date(2012, 1, 1), date(2014, 6, 1),
              date(2016, 1, 1)]
    COMPLETIONS = [None, date(2013, 1, 1), date(2018, 12, 31), date(2019, 1, 1)]
    SYNONYMS = build_synonym_map([("druga", "brand-a"), ("brand-a", "alias a"),
                                  ("drugc", "drugd")])

    def registry(self, seed, n=160):
        rng = np.random.default_rng(seed)

        def combos(k):
            return [set(rng.choice(self.DRUGS, size=rng.integers(1, 4), replace=False))
                    for _ in range(k)]

        trials = []
        for i in range(n):
            phase3 = rng.random() < 0.6
            trials.append(make_trial(
                f"T{rng.permutation(10_000)[0]:04d}-{i}",
                Phase.PHASE3 if phase3 else Phase.PHASE2,
                combos(rng.integers(0 if not phase3 else 1, 4)),
                set(rng.choice(self.MESH, size=rng.integers(0, 3), replace=False)),
                self.STARTS[rng.integers(len(self.STARTS))],
                self.COMPLETIONS[rng.integers(len(self.COMPLETIONS))],
            ))
        return trials

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("with_synonyms", [False, True])
    def test_links_equal_the_linear_linker(self, seed, with_synonyms):
        trials = self.registry(seed)
        synonyms = self.SYNONYMS if with_synonyms else None
        links, summary = link_all(registry_of(trials), synonyms=synonyms)
        pool = [t for t in trials if t.phase is Phase.PHASE3]
        want = {t.trial_id: link(t, pool, synonyms) for t in trials if t.phase is Phase.PHASE2}
        got = by_phase2_id(links)
        assert got == want
        assert list(got) == list(want)  # registry order
        matched = [m for reason, m in want.values() if not reason]
        assert sum(len(m) for m in matched) > 20 and max(len(m) for m in matched) > 3
        assert summary.n_phase2 == len(want)
        assert summary.n_eligible == len(matched)
        assert summary.n_continued == sum(bool(m) for m in matched)
        reasons = [reason for reason, _ in want.values() if reason]
        assert summary.skip_counts == {r: reasons.count(r) for r in dict.fromkeys(reasons)}
        assert summary.by_sponsor_class == {"industry": (len(matched),
                                                         sum(bool(m) for m in matched))}
