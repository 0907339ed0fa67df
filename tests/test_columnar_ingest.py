"""The columnar ingest against the row-at-a-time oracle in ``row_ingest``.

On valid files both build the same registry; on corrupted files both raise
the same error: the same type, file, line, column and message.  The
corrupted files come from a seeded corpus of faults placed at random rows,
alone, in pairs in either order, after or before a record with the wrong
number of fields, on outcome rows of absent trials, and in files with a
byte-order mark, blank lines and quoted multi-line cells.
"""

from __future__ import annotations

import csv
import io
import random

import pytest

from trialscope.registry import (
    OUTCOMES_COLUMNS,
    RANKINGS_COLUMNS,
    TRIALS_COLUMNS,
    SchemaError,
    ingest,
    write_outcomes_csv,
    write_rankings_csv,
    write_trials_csv,
)
from trialscope.simulate import Misreporting, SimConfig, generate

import row_ingest
from records import assert_same_registry

FILES = ("trials", "outcomes", "rankings")
HEADERS = {"trials": TRIALS_COLUMNS, "outcomes": OUTCOMES_COLUMNS, "rankings": RANKINGS_COLUMNS}
# file -> column -> its index
INDEX = {name: {c: i for i, c in enumerate(cols)} for name, cols in HEADERS.items()}


def result(load, paths):
    """The registry ``load`` builds from ``paths``, or what its error says."""
    try:
        return load(*paths)
    except SchemaError as exc:
        return ("SchemaError", exc.file, exc.line, exc.column, str(exc))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def assert_same_ingest(paths) -> tuple:
    """Assert that both ingests build the same registry or raise the same
    error; return the error's description, or ("ok",)."""
    got, want = result(ingest, paths), result(row_ingest.ingest, paths)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return want
    assert_same_registry(got, want)
    return ("ok",)


def simulated_rows(tmp_path, cfg):
    """The header and records of each CSV file of a simulated registry."""
    reg, _ = generate(cfg)
    rows = {}
    for name, write_csv in zip(FILES, (write_trials_csv, write_outcomes_csv, write_rankings_csv)):
        path = tmp_path / f"{name}.csv"
        write_csv(reg, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows[name] = list(csv.reader(fh))
    return rows


def write_files(tmp_path, rows, tag, bom=False, blank_lines=()):
    """Write ``rows`` (file -> header and records) as CSV files; ``blank_lines``
    lists (file, record index) pairs to put a blank line before."""
    paths = []
    for name in FILES:
        out = io.StringIO()
        writer = csv.writer(out)
        for i, row in enumerate(rows[name]):
            if (name, i) in blank_lines:
                out.write("\r\n")
            writer.writerow(row)
        path = tmp_path / f"{tag}_{name}.csv"
        path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + out.getvalue().encode("utf-8"))
        paths.append(path)
    return paths


@pytest.mark.parametrize("cfg", [
    SimConfig(n_trials=400, seed=3, secondary_outcomes_per_trial=1),
    SimConfig(n_trials=300, seed=11, misreporting=Misreporting.suppress_share(0.5)),
], ids=["seed3", "seed11"])
def test_simulated_registries(tmp_path, cfg):
    rows = simulated_rows(tmp_path, cfg)
    paths = write_files(tmp_path, rows, "sim")
    assert assert_same_ingest(paths) == ("ok",)
    assert assert_same_ingest(write_files(
        tmp_path, rows, "bom", bom=True, blank_lines={("trials", 5), ("outcomes", 1)})) == ("ok",)


def test_mixed_sponsor_classes(mixed_csvs):
    assert assert_same_ingest(mixed_csvs[:3]) == ("ok",)


# ---------------------------------------------------------------------------
# the corpus of corrupted files

def _set(row, at, value):
    if at < len(row):  # not cut off by a short-row fault
        row[at] = value


def _cell(column, value):
    return _cells(**{column: value})


def _cells(**values):
    def fault(rows, r, rng, index):
        for column, value in values.items():
            _set(rows[r], index[column], value)
    return fault


def _copy_of_other(column):
    def fault(rows, r, rng, index):
        other = rng.choice([i for i in range(1, len(rows)) if i != r] or [r])
        _set(rows[r], index[column], rows[other][index[column]])
    return fault


def _duplicate_rank(rows, r, rng, index):
    other = rng.choice([i for i in range(1, len(rows)) if i != r] or [r])
    rows[r][:2] = [f"  {rows[other][0].upper()} ", rows[other][1]]


def _short(rows, r, rng, index):
    del rows[r][rng.randrange(1, len(rows[r])):]


def _long(rows, r, rng, index):
    rows[r].append("extra")


def _multi_line(column):
    def fault(rows, r, rng, index):
        if index[column] < len(rows[r]):
            rows[r][index[column]] += "\n"
    return fault


# file -> fault name -> mutation of the record at a row; every _SCHEMA_CASES
# fault of test_registry, plus rows of the wrong length and cells that
# are valid but spread a record over two lines
FAULTS = {
    "trials": {
        "empty_trial_id": _cell("trial_id", "  "),
        "duplicate_trial_id": _copy_of_other("trial_id"),
        "multiple_sponsors": _cell("sponsor_name", "Sponsor 01; Sponsor 02"),
        "sponsor_class": _cell("sponsor_class", "pharma"),
        "enrollment_not_int": _cell("enrollment", "many"),
        "enrollment_negative": _cell("enrollment", "-5"),
        "start_date": _cell("start_date", "2010-13-01"),
        "completion_date": _cell("completion_date", "June 2012"),
        "completion_before_start": _cell("start_date", "2031-07-01"),
        "ranked_non_industry": _cell("sponsor_class", " Non_Industry"),
        "placebo_bool": _cell("placebo_comparator", "yes"),
        "short_row": _short,
        "long_row": _long,
        "multi_line_cell": _multi_line("sponsor_name"),
    },
    "outcomes": {
        "outcome_rank": _cell("outcome_rank", "tertiary"),
        "p_kind": _cell("p_kind", "le"),
        "p_not_numeric": _cell("p_value", "n/a"),
        "p_out_of_range": _cell("p_value", "1.5"),
        "censor_at_one": _cells(p_kind="gt", p_value="1.0"),
        "censor_at_zero": _cells(p_kind=" LT ", p_value="0"),
        "mht_bool": _cell("mht_adjusted", "maybe"),
        "dangling": _cell("trial_id", "NCT-ABSENT"),
        "short_row": _short,
        "long_row": _long,
    },
    "rankings": {
        "criterion": _cell("criterion", "revenue2019"),
        "rank_not_int": _cell("rank", "fourth"),
        "rank_zero": _cell("rank", "0"),
        "rank_duplicate": _duplicate_rank,
        "short_row": _short,
    },
}
CASES = [(f, name) for f in FILES for name in FAULTS[f]]


def corrupted(rows, faults, rng):
    """A copy of ``rows`` with each (file, fault, record index) applied in turn."""
    out = {name: [list(r) for r in rows[name]] for name in FILES}
    for which, name, r in faults:
        FAULTS[which][name](out[which], r, rng, INDEX[which])
    return out


@pytest.fixture(scope="module")
def base_rows(tmp_path_factory):
    return simulated_rows(tmp_path_factory.mktemp("base"),
                          SimConfig(n_trials=30, seed=8, secondary_outcomes_per_trial=1))


def test_every_schema_case_is_in_the_corpus():
    from test_registry import _SCHEMA_CASES

    corpus = {name for f in FILES for name in FAULTS[f]}
    assert set(_SCHEMA_CASES) - {"header"} <= corpus


@pytest.mark.parametrize("which, name", CASES, ids=[f"{f}-{n}" for f, n in CASES])
def test_one_fault_at_random_rows(tmp_path, base_rows, which, name):
    rng = random.Random(f"{which}-{name}")
    seen = set()
    for k in range(6):
        r = rng.randrange(1, len(base_rows[which]))
        rows = corrupted(base_rows, [(which, name, r)], rng)
        seen.add(assert_same_ingest(write_files(tmp_path, rows, f"c{k}"))[0])
    if name != "multi_line_cell":
        assert seen <= {"SchemaError", "ValueError"} and seen


def test_two_faults_in_either_order(tmp_path, base_rows):
    rng = random.Random(2)
    kinds = set()
    for k in range(120):
        which = rng.choice(FILES)
        a, b = rng.sample(sorted(FAULTS[which]), 2)
        r1, r2 = sorted(rng.sample(range(1, len(base_rows[which])), 2))
        if k % 3 == 0:  # both in one record
            r2 = r1
        for tag, faults in (("ab", [(which, a, r1), (which, b, r2)]),
                            ("ba", [(which, b, r1), (which, a, r2)])):
            got = assert_same_ingest(write_files(
                tmp_path, corrupted(base_rows, faults, rng), f"{tag}{k}"))
            kinds.add(got[0])
    assert "SchemaError" in kinds


def test_faults_in_two_files(tmp_path, base_rows):
    rng = random.Random(3)
    for k in range(60):
        first, second = rng.sample(FILES, 2)
        faults = [(f, rng.choice(sorted(FAULTS[f])), rng.randrange(1, len(base_rows[f])))
                  for f in (first, second)]
        assert_same_ingest(write_files(tmp_path, corrupted(base_rows, faults, rng), f"f{k}"))


@pytest.mark.parametrize("which", FILES)
def test_short_row_after_and_before_a_bad_cell(tmp_path, base_rows, which):
    rng = random.Random(which)
    bad = {"trials": "enrollment_not_int", "outcomes": "p_kind", "rankings": "rank_zero"}[which]
    lines = []
    for order in ((bad, "short_row"), ("short_row", bad)):
        faults = [(which, order[0], 2), (which, order[1], 4)]
        got = assert_same_ingest(write_files(tmp_path, corrupted(base_rows, faults, rng), "s"))
        lines.append(got[2])
    assert lines == [3, 3]


def test_bad_cells_on_dangling_outcome_rows_are_not_checked(tmp_path, base_rows):
    rng = random.Random(4)
    faults = [("outcomes", "dangling", 3), ("outcomes", "p_kind", 3),
              ("outcomes", "dangling", 6), ("outcomes", "mht_bool", 6)]
    got = assert_same_ingest(write_files(tmp_path, corrupted(base_rows, faults, rng), "d"))
    assert got[0] == "ValueError" and got[1].count("NCT-ABSENT") == 2
    # a bad cell of a present trial's row still wins
    faults.append(("outcomes", "p_not_numeric", 9))
    got = assert_same_ingest(write_files(tmp_path, corrupted(base_rows, faults, rng), "d2"))
    assert got[:4] == ("SchemaError", str(tmp_path / "d2_outcomes.csv"), 10, "p_value")


def test_bom_blank_lines_and_multi_line_cells(tmp_path, base_rows):
    rng = random.Random(5)
    for k in range(40):
        faults = [("trials", "multi_line_cell", rng.randrange(1, len(base_rows["trials"])))
                  for _ in range(2)]
        which = rng.choice(FILES)
        faults.append((which, rng.choice(sorted(FAULTS[which])),
                       rng.randrange(1, len(base_rows[which]))))
        blank = {(f, rng.randrange(1, len(base_rows[f]))) for f in FILES for _ in range(3)}
        rows = corrupted(base_rows, faults, rng)
        assert_same_ingest(write_files(tmp_path, rows, f"m{k}", bom=k % 2 == 0, blank_lines=blank))


def test_bad_header(tmp_path, base_rows):
    for which in FILES:
        rows = corrupted(base_rows, [], random.Random(0))
        rows[which][0] = rows[which][0][:-1]
        got = assert_same_ingest(write_files(tmp_path, rows, f"h{which}"))
        assert got[2:4] == (1, "<header>")


# ---------------------------------------------------------------------------
# the accepted cell language

CELLS = [
    ("trials", "enrollment", v) for v in (" 12 ", "+5", "1_000", "-0", "١٢", "1.0", "")
] + [
    ("outcomes", "p_value", v) for v in ("1e-3", " .5", "nan", "inf", "-0.0", "1_0", "0x1")
] + [
    ("trials", c, v) for c in ("start_date", "completion_date")
    for v in ("20100301", " 2010-03-01 ", "", "2010-W10-1", "2010-3-1")
] + [
    ("trials", "sponsor_class", v) for v in (" Industry ", "NON_INDUSTRY", "non industry")
] + [
    ("trials", "placebo_comparator", v) for v in (" TRUE", "fAlSe ", " 1 ", "yes")
] + [
    ("trials", "phase", v) for v in (" Phase3 ", "PHASE2", "phase 2")
] + [
    ("trials", "study_type", v) for v in (" Interventional_Superiority ", "other")
] + [
    ("outcomes", "outcome_rank", v) for v in ("PRIMARY ", " Secondary", "first")
] + [
    ("outcomes", "p_kind", v) for v in (" EXACT", "Lt ", " gT ", "eq")
] + [
    ("outcomes", "mht_adjusted", v) for v in (" True ", "0", "no")
] + [
    ("trials", "interventions", v)
    for v in (" druga + drugb ;; drugb+druga ", "drugx;", " + ", "a+a", "", "Drug X 50 mg")
] + [
    ("trials", "mesh_conditions", v) for v in (" C14:X ; ;C10:Y ", "", "Hypertension;C14:X")
] + [
    ("rankings", "criterion", v) for v in (" n_trials ", "N_TRIALS")
] + [
    ("rankings", "rank", v) for v in (" 3 ", "+2", "3.0")
]


@pytest.mark.parametrize("which, column, value", CELLS,
                         ids=[f"{c}={v!r}" for _, c, v in CELLS])
def test_accepted_cell_language_is_unchanged(tmp_path, base_rows, which, column, value):
    rows = corrupted(base_rows, [], random.Random(0))
    rows[which][1][INDEX[which][column]] = value
    rows[which][-1][INDEX[which][column]] = value
    assert_same_ingest(write_files(tmp_path, rows, "cell"))
