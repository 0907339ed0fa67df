"""The block reader ``registry._read_columns`` against the ``csv.reader``
oracle in ``csv_columns``.

On any text both give the same columns, the same record lines and the same
fault, or raise the same header error.  The texts are drawn from commas,
quotes, CR, LF, spaces, NUL and byte-order marks, and the block hint is
patched small, so reads end inside lines, inside CRLFs and inside quoted
cells, blocks end every line or few, and a quote or a lone CR first
appears in any block.
"""

from __future__ import annotations

import csv
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialscope import registry
from trialscope.registry import (
    SchemaError,
    ingest,
    write_outcomes_csv,
    write_rankings_csv,
    write_trials_csv,
)
from trialscope.simulate import SimConfig, generate

import csv_columns

# single characters and whole lines, so that well-formed records are common
PIECES = [",", '"', "\r", "\n", "\r\n", " ", "\0", "﻿", "a", "b",
          "a,b\r\n", "a,b,c\r\n", "x\n", "a,\"b\r\nc\",d\n", "\r\n", "\n"]


def outcome(read, path, expected):
    """What ``read`` gives for the file at ``path``: the columns, the record
    lines and the fault's description, the header error's description, or
    the message of the ``csv.Error`` it raises (``csv`` rejects a NUL
    before Python 3.11)."""
    try:
        columns, lines, fault = read(path, expected)
    except SchemaError as exc:
        return "header", exc.file, exc.line, exc.column, str(exc)
    except csv.Error as exc:
        return "csv", str(exc)
    return columns, lines, fault and (fault.file, fault.line, fault.column, str(fault))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "file.csv"


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 3), header=st.sampled_from(["\r\n", "\n", "\r", "", None]),
       body=st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
       bom=st.booleans(), hint=st.integers(1, 24))
def test_same_as_csv_reader(path, n, header, body, bom, hint):
    expected = [f"h{i}" for i in range(n)]
    text = ("﻿" if bom else "") + ("" if header is None else ",".join(expected) + header)
    path.write_text(text + body, encoding="utf-8", newline="")
    with mock.patch.object(registry, "_HINT", hint):
        got = outcome(registry._read_columns, path, expected)
    assert got == outcome(csv_columns.read_columns, path, expected)


@pytest.mark.parametrize("text", [
    "h0,h1\r\na,b\r\n\r\nc,d\r\n",  # a blank line between records
    "h0,h1\na,b\nc\nd,e\n",  # a short record
    "h0,h1\r\na,b\r\nc,d",  # no final terminator
    "h0,h1\r\na,b\rc,d\r\n",  # a lone CR
    "h0,h1\r\na,b\r\n\"c\r\nd\",e\r\n",  # a quoted CRLF in the second block
    "h0,h1\r\na,b\r\nc\"d,e\r\n",  # a stray quote mid-field
    "\r\nh0,h1\r\n",  # a blank line before the header
    '"h0",h1\r\na,b\r\nc,d\r\n',  # a quoted header
    '"h0\r\n",h1\r\na,b\r\n',  # a header cell with a line break
    'h0,"h1\r\na,b\r\n',  # a header quote never closed
    "",
])
@pytest.mark.parametrize("hint", [1, 5, 1 << 16])
def test_edge_cases(path, text, hint):
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(registry, "_HINT", hint):
        got = outcome(registry._read_columns, path, ["h0", "h1"])
    assert got == outcome(csv_columns.read_columns, path, ["h0", "h1"])


def test_a_cell_past_the_field_limit_fails_as_csv_does(path):
    path.write_text("h0,h1\r\na,b\r\n" + "c" * 200 + ",d\r\n", encoding="utf-8", newline="")
    limit = csv.field_size_limit(100)
    try:
        for read in (registry._read_columns, csv_columns.read_columns):
            with pytest.raises(csv.Error, match="field larger than field limit"):
                read(path, ["h0", "h1"])
    finally:
        csv.field_size_limit(limit)


def test_ingest_traced_peak(tmp_path):
    # the traced peak of this ingest was 25.5 MiB with every file read by
    # one csv.reader pass.  Read in blocks of 64 Ki characters, the
    # few-valued columns holding each distinct cell once, it is 20.1 MiB;
    # each file read whole and split at commas takes 32.6 MiB
    reg, _ = generate(SimConfig(n_trials=20_000, seed=7))
    paths = [tmp_path / f"{name}.csv" for name in ("trials", "outcomes", "rankings")]
    for write, path in zip((write_trials_csv, write_outcomes_csv, write_rankings_csv), paths):
        write(reg, path)
    del reg
    tracemalloc.start()
    try:
        ingest(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25.5 * 2**20
