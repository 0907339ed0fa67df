"""The ``csv.reader`` column reader: every record parsed by ``csv.reader``
and moved into the columns a chunk of records at a time.  It is the test
oracle for :func:`trialscope.registry._read_columns`, which must give the
same columns, record lines and fault on any text."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from trialscope.registry import SchemaError

# records moved from rows into the columns at a time
_CHUNK = 4096


def _extend(columns: list[list[str]], chunk: list[list[str]]) -> None:
    for column, cells in zip(columns, zip(*chunk)):
        column.extend(cells)
    chunk.clear()


def read_columns(path: str | Path, expected: Sequence[str]):
    """The cells of the records after a header of the ``expected`` columns,
    one list per column, the line each record starts on, and the error of
    a record with another number of fields, where reading stopped (None
    when every record has them all).  Blank lines are skipped."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        got = next(reader, [])
        if got != list(expected):
            raise SchemaError(str(path), 1, "<header>", f"expected columns {expected}, got {got}")
        n = len(expected)
        columns: list[list[str]] = [[] for _ in expected]
        lines: list[int] = []
        chunk: list[list[str]] = []
        fault = None
        line = reader.line_num + 1
        for values in reader:
            if len(values) == n:
                chunk.append(values)
                lines.append(line)
                if len(chunk) == _CHUNK:
                    _extend(columns, chunk)
            elif values:
                fault = SchemaError(str(path), line, "<row>",
                                    f"expected {n} fields, got {len(values)}")
                break
            line = reader.line_num + 1
        _extend(columns, chunk)
    return columns, lines, fault
