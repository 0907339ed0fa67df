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
from trialscope.cli import main
from trialscope.pz import outcome_table
from trialscope.simulate import SimConfig, generate

from conftest import write
from records import assert_same_registry, records


class TestIngest:
    def test_toy_fixture_loads(self, toy_csvs):
        reg = ingest(*toy_csvs)
        assert reg.n_trials() == 2
        assert len(reg.outcomes) == 3
        trials = records(reg)
        t1 = trials["NCT001"]
        assert t1.phase is Phase.PHASE2
        assert t1.interventions == (frozenset({"drugx"}),)
        t2 = trials["NCT002"]
        assert t2.interventions == (frozenset({"drugx"}), frozenset({"drugy", "drugz"}))
        assert t2.listed_drugs() == frozenset({"drugx", "drugy", "drugz"})
        t = reg.trials
        assert t.ids.tolist() == ["NCT001", "NCT002"]
        assert t.sponsor_keys[t.sponsor].tolist() == ["sponsor a", "pfizer"]
        assert reg.rankings["revenue2018"] == {"pfizer": 4}
        assert t.conditions[t.condition].tolist() == ["C14", "C14"]  # 13.215 bn beats C10
        assert reg.outcomes.trial.tolist() == [0, 0, 1]

    def test_completion_years(self, tmp_path, toy_csvs):
        _, outcomes, rankings = toy_csvs
        trials = write(
            tmp_path / "years.csv",
            f"""
            {_TRIALS_HEADER}
            NCT001,phase2,Sponsor A,industry,drugx,C14:X,0999-03-01,,120,true,other
            NCT002,phase3,Pfizer,industry,drugx,C14:X,,1969-12-31,900,false,other
            """,
        )
        table = outcome_table(ingest(trials, outcomes, rankings))
        t = table.trials
        assert t.years[t.year][table.trial_code].tolist() == ["unknown", "unknown", "1969"]

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
        assert_same_registry(ingest(*boms), ingest(*toy_csvs))


_TRIALS_HEADER = (
    "trial_id,phase,sponsor_name,sponsor_class,interventions,mesh_conditions,"
    "start_date,completion_date,enrollment,placebo_comparator,study_type"
)
_GOOD_TRIAL = ("NCT001,phase2,Sponsor A,industry,drugx,C14:X,2010-03-01,2012-06-30,120,true,"
               "interventional_superiority")


def _trial(**cells):
    """The good toy trial row with some cells replaced."""
    row = dict(zip(_TRIALS_HEADER.split(","), _GOOD_TRIAL.split(",")))
    row.update(cells)
    return ",".join(row.values())


# (file of the toy fixture to replace, its rows after the header or a whole
# file with its own header, expected line and column)
_SCHEMA_CASES = {
    "header": ("trials", "trial_id,phase\nNCT001,phase2", 1, "<header>"),
    "empty_trial_id": ("trials", _trial(trial_id=""), 2, "trial_id"),
    "duplicate_trial_id": ("trials", _GOOD_TRIAL + "\n" + _GOOD_TRIAL, 3, "trial_id"),
    "sponsor_class": ("trials", _trial(sponsor_class="pharma"), 2, "sponsor_class"),
    "enrollment_not_int": ("trials", _trial(enrollment="many"), 2, "enrollment"),
    "enrollment_overflow": ("trials", _trial(enrollment="99999999999999999999"), 2, "enrollment"),
    "start_date": ("trials", _trial(start_date="2010-13-01"), 2, "start_date"),
    "completion_date": ("trials", _trial(completion_date="June 2012"), 2, "completion_date"),
    "completion_before_start": (
        "trials", _trial(start_date="2012-07-01"), 2, "completion_date"),
    "ranked_non_industry": (
        "trials", _GOOD_TRIAL + "\n" + _trial(trial_id="NCT002", sponsor_name="PFIZER ",
                                              sponsor_class="non_industry"),
        3, "sponsor_class"),
    "placebo_bool": ("trials", _trial(placebo_comparator="yes"), 2, "placebo_comparator"),
    "outcome_rank": ("outcomes", "NCT001,tertiary,exact,0.2,false", 2, "outcome_rank"),
    "p_kind": ("outcomes", "NCT001,primary,le,0.2,false", 2, "p_kind"),
    "p_not_numeric": ("outcomes", "NCT001,primary,exact,n/a,false", 2, "p_value"),
    "mht_bool": ("outcomes", "NCT001,primary,exact,0.2,maybe", 2, "mht_adjusted"),
    "criterion": ("rankings", "Pfizer,revenue2019,4", 2, "criterion"),
    "rank_not_int": ("rankings", "Pfizer,revenue2018,fourth", 2, "rank"),
    "rank_zero": ("rankings", "Pfizer,revenue2018,0", 2, "rank"),
    "rank_duplicate": (
        "rankings", "Pfizer,revenue2018,4\n pfizer,revenue2018,5", 3, "sponsor_name"),
}

_HEADERS = {
    "trials": _TRIALS_HEADER,
    "outcomes": "trial_id,outcome_rank,p_kind,p_value,mht_adjusted",
    "rankings": "sponsor_name,criterion,rank",
}


@pytest.mark.parametrize("case", sorted(_SCHEMA_CASES))
def test_schema_error_sites(tmp_path, toy_csvs, case):
    which, rows, line, column = _SCHEMA_CASES[case]
    files = dict(zip(("trials", "outcomes", "rankings"), toy_csvs))
    bad = tmp_path / f"bad_{which}.csv"
    text = rows if case == "header" else f"{_HEADERS[which]}\n{rows}"
    bad.write_text(text + "\n", encoding="utf-8")
    files[which] = bad
    with pytest.raises(SchemaError) as exc:
        ingest(files["trials"], files["outcomes"], files["rankings"])
    assert (exc.value.file, exc.value.line, exc.value.column) == (str(bad), line, column)


def test_line_numbers_count_blank_lines(tmp_path, toy_csvs):
    _, outcomes, rankings = toy_csvs
    bad = tmp_path / "blank.csv"
    bad.write_text(f"{_TRIALS_HEADER}\n\n{_trial(enrollment='-5')}\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        ingest(bad, outcomes, rankings)
    assert (exc.value.line, exc.value.column) == (3, "enrollment")
    assert str(exc.value).startswith(f"{bad}:3 ")


@pytest.mark.parametrize("row, n_fields", [
    (",".join(_GOOD_TRIAL.split(",")[:5]), 5),
    (_GOOD_TRIAL + ",extra", 12),
], ids=["short", "long"])
def test_row_field_count_through_cli(tmp_path, toy_csvs, capsys, row, n_fields):
    _, outcomes, rankings = toy_csvs
    bad = tmp_path / "ragged.csv"
    bad.write_text(f"{_TRIALS_HEADER}\n{row}\n", encoding="utf-8")
    code = main(["ingest", "--trials", str(bad), "--outcomes", str(outcomes),
                 "--rankings", str(rankings), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}:2 column '<row>': expected 11 fields, got {n_fields}"]


def test_enrollment_up_to_the_int64_maximum(tmp_path, toy_csvs):
    _, outcomes, rankings = toy_csvs
    largest = 2**63 - 1
    trials = tmp_path / "trials.csv"
    for second in (900, largest + 1):
        trials.write_text(f"{_TRIALS_HEADER}\n{_trial(enrollment=f' {largest} ')}\n"
                          f"{_trial(trial_id='NCT002', enrollment=str(second))}\n", encoding="utf-8")
        if second == 900:
            assert ingest(trials, outcomes, rankings).trials.enrollment.tolist() == [largest, 900]
            continue
        with pytest.raises(SchemaError) as exc:
            ingest(trials, outcomes, rankings)
        assert (exc.value.line, exc.value.column) == (3, "enrollment")
        assert str(exc.value).endswith(f"enrollment must be <= {largest}")


def test_enrollment_overflow_through_cli(tmp_path, toy_csvs, capsys):
    _, outcomes, rankings = toy_csvs
    bad = tmp_path / "big.csv"
    bad.write_text(f"{_TRIALS_HEADER}\n{_trial(enrollment='99999999999999999999')}\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    code = main(["ingest", "--trials", str(bad), "--outcomes", str(outcomes),
                 "--rankings", str(rankings), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}:2 column 'enrollment': enrollment must be <= {2**63 - 1}"]
    assert not out.exists()


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
        assert filtered.trials.ids.tolist() == ["KEEP1"]
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
        assert_same_registry(filtered, reg)
        assert audit.total_trials_removed() == 0

    def test_idempotent(self, tmp_path):
        reg = self._with_extra_rows(tmp_path)
        once, _ = apply_sample_filters(reg)
        twice, audit2 = apply_sample_filters(once)
        assert_same_registry(twice, once)
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
    assert set(reg2.trials.ids) == set(reg.trials.ids)
    assert len(reg2.outcomes) == len(reg.outcomes)
    t2 = tmp_path / "t2.csv"
    write_trials_csv(reg2, t2)
    assert t.read_bytes() == t2.read_bytes()


@pytest.mark.parametrize("cfg", [SimConfig(), SimConfig(n_trials=300, seed=4,
                                                        secondary_outcomes_per_trial=2)])
def test_simulated_registry_equals_its_ingest(tmp_path, cfg):
    # one representation: the simulator and ingest build the same columns
    reg, _ = generate(cfg)
    paths = tmp_path / "t.csv", tmp_path / "o.csv", tmp_path / "r.csv"
    for write_csv, path in zip((write_trials_csv, write_outcomes_csv, write_rankings_csv), paths):
        write_csv(reg, path)
    assert_same_registry(ingest(*paths), reg)
