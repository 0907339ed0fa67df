from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialscope.linker import (
    DEFAULT_MESH_STOPLIST,
    LinkResult,
    build_synonym_map,
    canonical_drug,
    link_all,
    load_synonyms,
    restrict_links,
)
from trialscope.registry import (
    Phase,
    Registry,
    SponsorClass,
    StudyType,
    TrialRecord,
    assign_condition_category,
)

from linear_linker import link


def make_trial(
    trial_id,
    phase,
    interventions,
    mesh,
    start,
    completion=None,
    sponsor="Acme Pharma",
):
    mesh = frozenset(mesh)
    return TrialRecord(
        trial_id=trial_id,
        phase=phase,
        sponsor_name=sponsor,
        sponsor_class=SponsorClass.INDUSTRY,
        industry_rank_keys={},
        interventions=tuple(frozenset(c) for c in interventions),
        mesh_conditions=mesh,
        condition_category=assign_condition_category(mesh),
        start_date=start,
        completion_date=completion,
        enrollment=100,
        placebo_comparator=True,
        study_type=StudyType.INTERVENTIONAL_SUPERIORITY,
    )


PH2 = make_trial(
    "P2", Phase.PHASE2, [{"druga", "drugb"}], {"C14:Hypertension"},
    date(2012, 1, 1), date(2014, 6, 30),
)


class TestCriteria:
    def test_superset_interventions_match(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga"}, {"drugb"}, {"drugc"}],
                        {"C14:Hypertension", "C10:Migraine"}, date(2015, 1, 1))
        res = link(PH2, [p3])
        assert res.continued and res.matched_phase3_ids == {"P3"}

    def test_synonym_resolution(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"druga"}], {"C14:X"},
                        date(2012, 1, 1), date(2014, 1, 1))
        p3 = make_trial("P3", Phase.PHASE3, [{"brandname"}], {"C14:X"}, date(2015, 1, 1))
        synonyms = build_synonym_map([("druga", "brandname")])
        assert not link(p2, [p3]).continued
        assert link(p2, [p3], synonyms=synonyms).continued

    def test_equal_start_dates_do_not_match(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga", "drugb"}],
                        {"C14:Hypertension"}, PH2.start_date)
        assert not link(PH2, [p3]).continued

    def test_mesh_subset_required(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga", "drugb"}],
                        {"C10:Migraine"}, date(2015, 1, 1))
        assert not link(PH2, [p3]).continued

    def test_stoplist_ignores_generic_terms(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"druga"}],
                        {"C14:Hypertension", "Disease"}, date(2012, 1, 1), date(2014, 1, 1))
        p3 = make_trial("P3", Phase.PHASE3, [{"druga"}], {"C14:Hypertension"},
                        date(2015, 1, 1))
        assert link(p2, [p3]).continued
        # without the stoplist the generic term blocks the match
        assert not link(p2, [p3], mesh_stoplist=frozenset()).continued

    def test_partial_combination_does_not_match(self):
        p3 = make_trial("P3", Phase.PHASE3, [{"druga"}], {"C14:Hypertension"},
                        date(2015, 1, 1))
        assert not link(PH2, [p3]).continued

    def test_any_main_set_suffices(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"druga", "drugb"}, {"drugz"}],
                        {"C14:X"}, date(2012, 1, 1), date(2014, 1, 1))
        p3 = make_trial("P3", Phase.PHASE3, [{"drugz"}], {"C14:X"}, date(2015, 1, 1))
        assert link(p2, [p3]).continued

    def test_results_reporting_irrelevant(self):
        # matching is purely on protocol fields; no outcome data involved
        p3 = make_trial("P3", Phase.PHASE3, [{"druga", "drugb"}],
                        {"C14:Hypertension"}, date(2015, 1, 1))
        assert link(PH2, [p3]).continued


class TestSkips:
    def test_no_intervention(self):
        p2 = make_trial("P2", Phase.PHASE2, [], {"C14:X"},
                        date(2012, 1, 1), date(2014, 1, 1))
        res = link(p2, [])
        assert res.skip_reason == "no_intervention" and not res.eligible

    def test_no_completion_date(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"a"}], {"C14:X"}, date(2012, 1, 1), None)
        assert link(p2, []).skip_reason == "no_completion_date"

    def test_completed_after_cutoff(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"a"}], {"C14:X"},
                        date(2018, 1, 1), date(2019, 6, 1))
        assert link(p2, []).skip_reason == "completed_after_cutoff"

    def test_boundary_completion_date_eligible(self):
        p2 = make_trial("P2", Phase.PHASE2, [{"a"}], {"C14:X"},
                        date(2016, 1, 1), date(2018, 12, 31))
        assert link(p2, []).eligible


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


class TestLinkAll:
    def test_monotone_in_pool(self):
        p3a = make_trial("P3A", Phase.PHASE3, [{"druga", "drugb"}],
                         {"C14:Hypertension"}, date(2015, 1, 1))
        p3b = make_trial("P3B", Phase.PHASE3, [{"druga", "drugb", "drugc"}],
                         {"C14:Hypertension"}, date(2016, 1, 1))
        small = link(PH2, [p3a])
        big = link(PH2, [p3a, p3b])
        assert small.continued
        assert big.continued
        assert small.matched_phase3_ids <= big.matched_phase3_ids

    def test_zero_pool_all_false(self, sim_small):
        reg, truth, links, summary = sim_small
        only_ph2 = reg.filter_trials(lambda t: t.phase is Phase.PHASE2)
        results, s = link_all(only_ph2)
        assert all(not r.continued for r in results)
        assert s.n_continued == 0

    def test_pool_order_invariance(self):
        pool = [
            make_trial(f"P3{i}", Phase.PHASE3, [{"druga", "drugb"}],
                       {"C14:Hypertension"}, date(2015 + i, 1, 1))
            for i in range(4)
        ]
        a = link(PH2, pool)
        b = link(PH2, list(reversed(pool)))
        assert a.matched_phase3_ids == b.matched_phase3_ids

    def test_indexed_matches_reference(self, sim_small):
        reg, truth, links, summary = sim_small
        synonyms = build_synonym_map(truth.synonym_pairs)
        pool = [t for t in reg.trials.values() if t.phase is Phase.PHASE3]
        by_id = {r.phase2_id: r for r in links}
        checked = 0
        for t in list(reg.trials.values())[:150]:
            if t.phase is not Phase.PHASE2:
                continue
            ref = link(t, pool, synonyms)
            got = by_id[t.trial_id]
            assert (ref.matched_phase3_ids, ref.skip_reason) == (
                got.matched_phase3_ids, got.skip_reason
            )
            checked += 1
        assert checked > 50

    def test_restricted_links_equal_linking_the_subset(self, sim_small):
        reg, truth, links, summary = sim_small
        ids = frozenset(list(reg.trials)[::2])
        alone, _ = link_all(reg.filter_trials(lambda t: t.trial_id in ids),
                            synonyms=build_synonym_map(truth.synonym_pairs))
        cut = restrict_links(links, ids)
        assert sum(r.matched_phase3_ids != c.matched_phase3_ids
                   for r, c in zip([r for r in links if r.phase2_id in ids], cut)) > 0
        assert {r.phase2_id: (r.matched_phase3_ids, r.skip_reason) for r in cut} == {
            r.phase2_id: (r.matched_phase3_ids, r.skip_reason) for r in alone
        }

    def test_summary_rates(self, sim_small):
        reg, truth, links, summary = sim_small
        assert summary.n_eligible == summary.n_phase2
        assert summary.n_continued == len(truth.continued_ids())
        ne, nc = summary.by_sponsor_class["industry"]
        assert ne == summary.n_eligible and nc == summary.n_continued
        assert 0.0 < summary.continuation_rate() < 1.0
