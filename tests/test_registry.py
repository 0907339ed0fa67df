import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialscope.registry import (
    EXCLUDED_TRIAL_ID,
    Phase,
    ReportedP,
    SchemaError,
    SponsorClass,
    SponsorSplit,
    all_sponsor_splits,
    apply_sample_filters,
    assign_condition_category,
    canonical_sponsor,
    default_rankings,
    ingest,
    write_outcomes_csv,
    write_rankings_csv,
    write_trials_csv,
)
from trialscope.simulate import SimConfig, generate

from conftest import write


class TestIngest:
    def test_toy_fixture_loads(self, toy_csvs):
        reg = ingest(*toy_csvs)
        assert reg.n_trials() == 2
        assert len(reg.outcomes) == 3
        t1 = reg.trial("NCT001")
        assert t1.phase is Phase.PHASE2
        assert t1.interventions == (frozenset({"drugx"}),)
        assert t1.condition_category == "C14"
        t2 = reg.trial("NCT002")
        assert t2.interventions == (frozenset({"drugx"}), frozenset({"drugy", "drugz"}))
        assert t2.listed_drugs() == frozenset({"drugx", "drugy", "drugz"})
        assert t2.industry_rank_keys == {"revenue2018": 4}
        assert t2.condition_category == "C14"  # 13.215 bn beats C10

    def test_dangling_outcome(self, tmp_path, toy_csvs):
        trials, _, rankings = toy_csvs
        outcomes = write(
            tmp_path / "bad_outcomes.csv",
            """
            trial_id,outcome_rank,p_kind,p_value,mht_adjusted
            NCT999,primary,exact,0.2,false
            """,
        )
        with pytest.raises(ValueError, match="NCT999"):
            ingest(trials, outcomes, rankings)

    def test_schema_error_names_location(self, tmp_path, toy_csvs):
        _, outcomes, rankings = toy_csvs
        trials = write(
            tmp_path / "bad_trials.csv",
            """
            trial_id,phase,sponsor_name,sponsor_class,interventions,mesh_conditions,start_date,completion_date,enrollment,placebo_comparator,study_type
            NCT001,phase2,Sponsor A,industry,drugx,C14:Hypertension,2010-03-01,2012-06-30,-5,true,interventional_superiority
            """,
        )
        with pytest.raises(SchemaError) as exc:
            ingest(trials, outcomes, rankings)
        assert exc.value.line == 2
        assert exc.value.column == "enrollment"
        assert "bad_trials.csv" in str(exc.value)

    def test_bad_p_value(self, tmp_path, toy_csvs):
        trials, _, rankings = toy_csvs
        outcomes = write(
            tmp_path / "bad_p.csv",
            """
            trial_id,outcome_rank,p_kind,p_value,mht_adjusted
            NCT001,primary,lt,1.5,false
            """,
        )
        with pytest.raises(SchemaError, match="p_value"):
            ingest(trials, outcomes, rankings)

    def test_multi_sponsor_flagged(self, tmp_path, toy_csvs):
        _, outcomes, rankings = toy_csvs
        trials = write(
            tmp_path / "multi.csv",
            """
            trial_id,phase,sponsor_name,sponsor_class,interventions,mesh_conditions,start_date,completion_date,enrollment,placebo_comparator,study_type
            NCT001,phase2,A; B,industry,drugx,C14:X,2010-03-01,2012-06-30,5,true,interventional_superiority
            """,
        )
        with pytest.raises(SchemaError, match="lead sponsor"):
            ingest(trials, outcomes, rankings)

    def test_round_trip_bit_identical(self, tmp_path, toy_csvs):
        reg = ingest(*toy_csvs)
        first = (tmp_path / "t1.csv", tmp_path / "o1.csv", tmp_path / "r1.csv")
        write_trials_csv(reg, first[0])
        write_outcomes_csv(reg, first[1])
        write_rankings_csv(reg, first[2])
        reg2 = ingest(*first)
        second = (tmp_path / "t2.csv", tmp_path / "o2.csv", tmp_path / "r2.csv")
        write_trials_csv(reg2, second[0])
        write_outcomes_csv(reg2, second[1])
        write_rankings_csv(reg2, second[2])
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_byte_order_mark_accepted(self, tmp_path, toy_csvs):
        boms = []
        for path in toy_csvs:
            bom = tmp_path / f"bom_{path.name}"
            bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            boms.append(bom)
        assert ingest(*boms) == ingest(*toy_csvs)


class TestFilters:
    def _with_extra_rows(self, tmp_path):
        trials = write(
            tmp_path / "t.csv",
            f"""
            trial_id,phase,sponsor_name,sponsor_class,interventions,mesh_conditions,start_date,completion_date,enrollment,placebo_comparator,study_type
            KEEP1,phase2,Good Pharma,industry,druga,C14:X,2010-01-01,2012-01-01,50,true,interventional_superiority
            COLG1,phase2,Colgate  palmolive,industry,drugb,C17:Y,2010-01-01,2012-01-01,50,true,interventional_superiority
            {EXCLUDED_TRIAL_ID},phase2,Other Pharma,industry,drugc,C17:Y,2010-01-01,2012-01-01,50,true,interventional_superiority
            OBS1,phase2,Other Pharma,industry,drugd,C17:Y,2010-01-01,2012-01-01,50,true,other
            PH4,other,Other Pharma,industry,druge,C17:Y,2010-01-01,2012-01-01,50,true,interventional_superiority
            """,
        )
        outcomes = write(
            tmp_path / "o.csv",
            f"""
            trial_id,outcome_rank,p_kind,p_value,mht_adjusted
            KEEP1,primary,exact,0.03,false
            COLG1,primary,exact,0.05,false
            {EXCLUDED_TRIAL_ID},primary,exact,0.2,false
            OBS1,primary,exact,0.4,false
            PH4,primary,exact,0.6,false
            """,
        )
        return ingest(trials, outcomes)

    def test_all_rules_fire(self, tmp_path):
        reg = self._with_extra_rows(tmp_path)
        filtered, audit = apply_sample_filters(reg)
        assert set(filtered.trials) == {"KEEP1"}
        by_rule = {e["rule"]: e for e in audit.entries}
        assert by_rule["drop_anomalous_sponsor"]["trials_removed"] == 1
        assert "0.05" in by_rule["drop_anomalous_sponsor"]["note"]
        assert by_rule["drop_outlier_trial"]["trials_removed"] == 1
        assert by_rule["keep_interventional_superiority"]["trials_removed"] == 1
        assert by_rule["keep_phase_2_3"]["trials_removed"] == 1
        assert len(filtered.outcomes) == 1

    def test_no_offenders_unchanged(self, toy_csvs):
        reg = ingest(*toy_csvs)
        filtered, audit = apply_sample_filters(reg)
        assert set(filtered.trials) == set(reg.trials)
        assert audit.total_trials_removed() == 0

    def test_idempotent(self, tmp_path):
        reg = self._with_extra_rows(tmp_path)
        once, _ = apply_sample_filters(reg)
        twice, audit2 = apply_sample_filters(once)
        assert set(twice.trials) == set(once.trials)
        assert audit2.total_trials_removed() == 0

    def test_empty_input(self, tmp_path):
        trials = write(
            tmp_path / "e.csv",
            "trial_id,phase,sponsor_name,sponsor_class,interventions,mesh_conditions,start_date,completion_date,enrollment,placebo_comparator,study_type\n",
        )
        outcomes = write(
            tmp_path / "eo.csv",
            "trial_id,outcome_rank,p_kind,p_value,mht_adjusted\n",
        )
        reg = ingest(trials, outcomes)
        filtered, _ = apply_sample_filters(reg)
        assert filtered.n_trials() == 0


class TestConditionCategories:
    def test_single_code(self):
        assert assign_condition_category(["C14:Anything"]) == "C14"

    def test_market_size_tie_break(self):
        assert assign_condition_category(["C14:A", "C17:B"]) == "C14"
        assert assign_condition_category(["C17:B", "C14:A"]) == "C14"

    def test_empty_is_other(self):
        assert assign_condition_category([]) == "Other"
        assert assign_condition_category(["Z99:Unknown"]) == "Other"

    def test_term_table_lookup(self):
        assert assign_condition_category(["Hypertension"]) == "C14"
        # psoriasis is both C17 and C20; larger spending wins
        assert assign_condition_category(["Psoriasis"]) == "C20"
        assert assign_condition_category(["Dermatitis Atopic"]) == "C17"
        # multi-category term resolves by spending
        assert assign_condition_category(["Diabetes Mellitus"]) == "C18"

    def test_merged_codes(self):
        assert assign_condition_category(["C09:Rhinitis"]) == "C08/C09"
        assert assign_condition_category(["C13:Endometriosis"]) == "C12/C13"

    def test_spending_override(self):
        got = assign_condition_category(
            ["C14:A", "C17:B"], spending_override={"C17": 99.0}
        )
        assert got == "C17"

    @given(st.lists(st.sampled_from(
        ["C14:A", "C04:B", "Hypertension", "Asthma", "totally unknown", ""]), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_total_and_deterministic(self, terms):
        a = assign_condition_category(terms)
        b = assign_condition_category(list(reversed(terms)))
        assert a == b
        assert isinstance(a, str)


class TestSponsors:
    def test_canonicalization(self):
        assert canonical_sponsor("  Pfizer ") == "pfizer"
        assert canonical_sponsor("PFIZER") == "pfizer"
        assert canonical_sponsor("Janssen   Research & Development") == "johnson & johnson"

    def test_default_rankings_cover_all_criteria(self):
        rankings = default_rankings()
        for crit, table in rankings.items():
            assert len(table) == 20, crit
            assert sorted(table.values()) == list(range(1, 21))

    def test_56_splits(self):
        splits = all_sponsor_splits(default_rankings())
        assert len(splits) == 56
        assert len({(s.criterion, s.k) for s in splits}) == 56

    def test_exactly_top_k_large(self):
        rankings = default_rankings()
        for s in all_sponsor_splits(rankings):
            larges = [n for n, g in s.classification.items() if g == "Large"]
            assert len(larges) == s.k
            assert all(rankings[s.criterion][n] <= s.k for n in larges)

    def test_split_k_bounds(self):
        with pytest.raises(ValueError):
            SponsorSplit(criterion="revenue2018", k=6, classification={})
        with pytest.raises(ValueError):
            SponsorSplit(criterion="nope", k=10, classification={})

    def test_unranked_sponsor_is_small(self):
        split = all_sponsor_splits(default_rankings(), k_range=[10])[0]
        assert split.group_of("Tiny Biotech LLC") == "Small"
        assert split.group_of("Johnson & Johnson") == "Large"


class TestReportedP:
    def test_exact_zero_allowed(self):
        assert ReportedP.exact(0.0).value == 0.0

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ReportedP.less(0.0)
        with pytest.raises(ValueError):
            ReportedP.greater(1.0)
        with pytest.raises(ValueError):
            ReportedP.exact(1.2)


def test_simulated_registry_round_trips(tmp_path):
    reg, _ = generate(SimConfig(n_trials=60, seed=9))
    t, o, r = tmp_path / "t.csv", tmp_path / "o.csv", tmp_path / "r.csv"
    write_trials_csv(reg, t)
    write_outcomes_csv(reg, o)
    write_rankings_csv(reg, r)
    reg2 = ingest(t, o, r)
    assert set(reg2.trials) == set(reg.trials)
    assert len(reg2.outcomes) == len(reg.outcomes)
    t2 = tmp_path / "t2.csv"
    write_trials_csv(reg2, t2)
    assert t.read_bytes() == t2.read_bytes()


def test_user_overridable_tables(tmp_path):
    from trialscope.registry import (
        use_category_tables,
        use_sponsor_parents,
        _data_path,
    )

    cats = tmp_path / "cats.csv"
    cats.write_text(
        "code,name,medicare_d_spending_bn\nC14,Heart,1.0\nC17,Skin,50.0\n",
        encoding="utf-8",
    )
    terms = tmp_path / "terms.csv"
    terms.write_text("term,code\nMadeUpTerm,C17\n", encoding="utf-8")
    try:
        use_category_tables(cats, terms)
        # the override flips the tie-break and adds a new term
        assert assign_condition_category(["C14:A", "C17:B"]) == "C17"
        assert assign_condition_category(["MadeUpTerm"]) == "C17"

        parents = tmp_path / "parents.csv"
        parents.write_text("subsidiary,parent\nTiny Labs,Mega Corp\n", encoding="utf-8")
        use_sponsor_parents(parents)
        assert canonical_sponsor("tiny  labs") == "mega corp"
        assert canonical_sponsor("Janssen Research & Development") != "johnson & johnson"
    finally:
        use_category_tables(_data_path("condition_categories.csv"),
                            _data_path("mesh_terms.csv"))
        use_sponsor_parents(_data_path("sponsor_parents.csv"))
