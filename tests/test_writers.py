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

``write_csv`` serializes a block of rows at a time; the differential tests
compare it with ``csv.writer`` on random rows, at row counts around small
block sizes and, for simple rows, around the block size itself.
"""

import csv
import io
import tempfile
from dataclasses import replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialscope import registry
from trialscope.registry import (
    NO_DATE,
    build_registry,
    ingest,
    write_csv,
    write_outcomes_csv,
    write_rankings_csv,
    write_trials_csv,
)
from trialscope.simulate import TRUTH_COLUMNS, SimConfig, generate, write_truth_csv


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


@pytest.mark.parametrize("block", [1, 2])
def test_blocks_of_any_size_write_the_pinned_bytes(tmp_path, block):
    with mock.patch.object(registry, "_BLOCK", block):
        for write, text in ((write_trials_csv, TRIALS), (write_outcomes_csv, OUTCOMES),
                            (write_rankings_csv, RANKINGS)):
            assert _written(write, tmp_path) == text


def test_truth_blocks_of_any_size_write_the_same_bytes(tmp_path):
    _, truth = generate(SimConfig(n_trials=40, seed=3))
    assert truth.continued.any() and not truth.continued.all()
    write_truth_csv(truth, tmp_path / "one.csv")
    with mock.patch.object(registry, "_BLOCK", 7):
        write_truth_csv(truth, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 7, None])
def test_truth_cells_are_the_repr_of_each_float(tmp_path, block):
    # a z cell copies the digits of an equal float to its left; a zero of
    # the other sign, a value that is not |t2| and a blanked phase III cell
    # must still come out as csv.writer writes them
    _, truth = generate(SimConfig(n_trials=40, seed=3))
    t2, z2, z3, z3r = (c.copy() for c in (truth.t2, truth.z2, truth.z3_true, truth.z3_reported))
    a, b, c, d = np.flatnonzero(truth.continued)[:4]
    t2[a], z2[a], z3[a], z3r[a] = -0.0, 0.0, -0.0, 0.0
    t2[b], z2[b], z3[b], z3r[b] = 1.5, 2.5, 2.5, 3.0
    t2[c], z2[c], z3[c], z3r[c] = -1e-300, 1e-300, 1e-300, 1e-300
    t2[d], z2[d], z3[d], z3r[d] = np.nan, np.nan, np.nan, -np.inf
    stopped = np.flatnonzero(~truth.continued)[0]
    z3[stopped] = z3r[stopped] = z2[stopped]
    truth = replace(truth, t2=t2, z2=z2, z3_true=z3, z3_reported=z3r)
    flag = {True: "true", False: "false"}
    expected = io.StringIO(newline="")
    out = csv.writer(expected)
    out.writerow(TRUTH_COLUMNS)
    for i, cont in enumerate(truth.continued.tolist()):
        out.writerow([truth.trial_id[i], truth.theta[i].item(), t2[i].item(), z2[i].item(),
                      truth.p_continue[i].item(), flag[cont], truth.phase3_id[i],
                      z3[i].item() if cont else "", z3r[i].item() if cont else "",
                      flag[bool(truth.suppressed[i])], flag[bool(truth.inflated[i])]])
    with mock.patch.object(registry, "_BLOCK", block or registry._BLOCK):
        write_truth_csv(truth, tmp_path / "truth.csv")
    text = (tmp_path / "truth.csv").read_bytes().decode("utf-8")
    assert "-0.0" in text and "1e-300" in text
    assert text == expected.getvalue()


def test_write_csv_rejects_rows_of_another_width(tmp_path):
    with pytest.raises(ValueError, match="rows of 3 cells under a header of 2"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [["x", "y", "z"]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [["x", "y"], ["z"]])


# ---------------------------------------------------------------------------
# write_csv against csv.writer

B = registry._BLOCK

_ALPHABET = [",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "中", "😀"]
_TEXT = st.text(alphabet=st.sampled_from(_ALPHABET), max_size=6)
_CELLS = st.one_of(
    _TEXT, st.just(""), st.none(),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300]),
    st.integers(min_value=-(2**70), max_value=2**70), st.booleans(),
    st.floats().map(np.float64), st.sampled_from([np.float64(0.25), np.float64("nan")]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _written_text(header, rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, header, iter(rows))
        return path.read_bytes().decode("utf-8")


@st.composite
def _table(draw):
    """A block size, a header and rectangular rows: a few random rows
    repeated to a row count around the block size."""
    block = draw(st.sampled_from([1, 2, 3, 8]))
    width = draw(st.integers(min_value=1, max_value=4))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    pool = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    n = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))
    return block, header, [pool[i % len(pool)] for i in range(n)]


@given(_table())
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_csv_writer(table):
    block, header, rows = table
    with mock.patch.object(registry, "_BLOCK", block):
        assert _written_text(header, rows) == _csv_text(header, rows)


@given(st.lists(st.one_of(_TEXT, st.none()), max_size=20))
@settings(max_examples=100, deadline=None)
def test_one_column_matches_csv_writer(cells):
    rows = [[c] for c in cells]
    with mock.patch.object(registry, "_BLOCK", 3):
        assert _written_text(["only"], rows) == _csv_text(["only"], rows)
        assert _written_text([""], rows) == _csv_text([""], rows)


def test_numpy_scalars_are_written_by_str():
    # numpy 2's repr of a float64 is np.float64(0.25); csv writes str
    row = [np.float64(0.25), np.int64(-3), np.bool_(True), np.float64("nan"), 1e-300, -0.0]
    assert _written_text(list("abcdef"), [row]) == "a,b,c,d,e,f\r\n0.25,-3,True,nan,1e-300,-0.0\r\n"


def test_carriage_return_is_quoted():
    text = _written_text(["a", "b"], [["x\ry", "z"], ["\r", ""]])
    assert text == 'a,b\r\n"x\ry",z\r\n"\r",\r\n'


class _CountingFile:
    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.writes += 1
        return self.fh.write(text)


@pytest.mark.parametrize("n, blocks", [(0, 0), (1, 1), (B, 1), (B + 1, 2), (3 * B - 1, 3)])
def test_one_write_per_block(tmp_path, monkeypatch, n, blocks):
    files = []

    def counting_open(*args, **kwargs):
        files.append(_CountingFile(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(registry, "open", counting_open, raising=False)
    rows = [(i, f"r{i}", i / 7) for i in range(n)]
    write_csv(tmp_path / "t.csv", ["i", "name", "x"], rows)
    assert [f.writes for f in files] == [1 + blocks]  # the header, then each block
    assert (tmp_path / "t.csv").read_bytes().decode("utf-8") == _csv_text(["i", "name", "x"], rows)
