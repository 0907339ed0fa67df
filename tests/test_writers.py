"""The exact bytes of the registry writers.

The round-trip tests compare a writer only with itself, and the golden
files hold simulated registries only, which lack most cell kinds.  The
registry here has every one: missing start and completion dates, a
non_industry sponsor, study type ``other``, a phase outside phase II/III,
several interventions with ``+`` combinations, an empty interventions and
MeSH cell, a sponsor name that needs quoting, ``lt``/``gt`` p-values, an
exact 0, ``mht`` true, a criterion with no rankings and one absent.  The
expected text was recorded from the row-at-a-time writers that the
columnar ones replaced.
"""

from datetime import date

from trialscope.registry import (
    NO_DATE,
    build_registry,
    ingest,
    write_csv,
    write_outcomes_csv,
    write_rankings_csv,
    write_trials_csv,
)


def pinned_registry():
    day = lambda y, m, d: date(y, m, d).toordinal()  # noqa: E731
    trials = dict(
        ids=["NCT-B", "NCT-A", "NCT-C"],
        phase=["phase2", "phase3", "other"],
        sponsor_name=["Acme Pharma", "City University", 'Quote, "Inc"'],
        industry=[True, False, True],
        interventions=["drug-b + drug-a ; drug-c", "drug-a+drug-b;drug-d+drug-a+drug-d", ""],
        mesh=["C14:Hypertension;C10:Migraine", "C14:Hypertension", ""],
        start=[day(2010, 3, 1), NO_DATE, day(1999, 12, 31)],
        completion=[day(2012, 6, 30), NO_DATE, NO_DATE],
        enrollment=[120, 0, 999],
        placebo=[True, False, False],
        superiority=[True, False, True],
    )
    outcomes = dict(
        trial=[0, 0, 1, 2, 1, 0],
        rank=["primary", "secondary", "primary", "primary", "secondary", "secondary"],
        p_kind=["exact", "lt", "gt", "exact", "exact", "lt"],
        p_value=[0.04, 0.001, 0.1, 0.0, 1 / 3, 1e-05],
        mht=[False, False, True, False, True, False],
    )
    rankings = {"revenue2018": {"acme pharma": 2, "pfizer": 1}, "rx_sales2018": {},
                "rnd2018": {"acme pharma": 1}}
    return build_registry(trials, outcomes, rankings)


TRIALS = (
    "trial_id,phase,sponsor_name,sponsor_class,interventions,mesh_conditions,start_date,"
    "completion_date,enrollment,placebo_comparator,study_type\r\n"
    "NCT-B,phase2,Acme Pharma,industry,drug-a+drug-b;drug-c,C10:Migraine;C14:Hypertension,"
    "2010-03-01,2012-06-30,120,true,interventional_superiority\r\n"
    "NCT-A,phase3,City University,non_industry,drug-a+drug-b;drug-a+drug-d,C14:Hypertension,"
    ",,0,false,other\r\n"
    'NCT-C,other,"Quote, ""Inc""",industry,,,1999-12-31,,999,false,'
    "interventional_superiority\r\n"
)
OUTCOMES = (
    "trial_id,outcome_rank,p_kind,p_value,mht_adjusted\r\n"
    "NCT-B,primary,exact,0.04,false\r\n"
    "NCT-B,secondary,lt,0.001,false\r\n"
    "NCT-A,primary,gt,0.1,true\r\n"
    "NCT-C,primary,exact,0.0,false\r\n"
    "NCT-A,secondary,exact,0.3333333333333333,true\r\n"
    "NCT-B,secondary,lt,1e-05,false\r\n"
)
RANKINGS = (
    "sponsor_name,criterion,rank\r\n"
    "pfizer,revenue2018,1\r\n"
    "acme pharma,revenue2018,2\r\n"
    "acme pharma,rnd2018,1\r\n"
)


def _written(write, tmp_path):
    path = tmp_path / "out.csv"
    write(pinned_registry(), path)
    return path.read_bytes().decode("utf-8")


def test_trials_bytes(tmp_path):
    assert _written(write_trials_csv, tmp_path) == TRIALS


def test_outcomes_bytes(tmp_path):
    assert _written(write_outcomes_csv, tmp_path) == OUTCOMES


def test_rankings_bytes(tmp_path):
    assert _written(write_rankings_csv, tmp_path) == RANKINGS


def test_pinned_files_ingest_to_the_same_trials_and_outcomes(tmp_path):
    paths = [tmp_path / f"{name}.csv" for name in ("trials", "outcomes", "rankings")]
    for path, text in zip(paths, (TRIALS, OUTCOMES, RANKINGS)):
        path.write_bytes(text.encode("utf-8"))
    reg = ingest(*paths)
    for write, text in zip((write_trials_csv, write_outcomes_csv), (TRIALS, OUTCOMES)):
        out = tmp_path / "again.csv"
        write(reg, out)
        assert out.read_bytes().decode("utf-8") == text


def test_write_csv_quotes_cells_and_takes_any_iterable(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], zip(["x", "y,z", 'q"'], ["1", "", "3"]))
    assert path.read_bytes() == b'a,b\r\nx,1\r\n"y,z",\r\n"q""",3\r\n'
    write_csv(path, ["only"], [])
    assert path.read_bytes() == b"only\r\n"
