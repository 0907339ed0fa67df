"""Domain types, CSV ingestion, and sample-restriction filters.

The registry is an immutable snapshot of a trial-registry extract: trial
protocol columns, reported outcome p-values, and sponsor size rankings.
Everything downstream (transforms, linking, selection fitting) reads from
it concurrently without locks.
"""

from __future__ import annotations

import csv
import enum
import io
import re
from dataclasses import dataclass, field, fields, replace
from datetime import date
from importlib import resources
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Phase",
    "SponsorClass",
    "StudyType",
    "OutcomeRank",
    "ReportedP",
    "Ragged",
    "Trials",
    "Outcomes",
    "Registry",
    "build_registry",
    "SponsorSplit",
    "FilterAudit",
    "SchemaError",
    "RANK_CRITERIA",
    "NO_DATE",
    "EXCLUDED_SPONSOR",
    "EXCLUDED_TRIAL_ID",
    "canonical_sponsor",
    "assign_condition_category",
    "ingest",
    "apply_sample_filters",
    "all_sponsor_splits",
    "write_csv",
    "write_trials_csv",
    "write_outcomes_csv",
    "write_rankings_csv",
]

RANK_CRITERIA = ("revenue2018", "rx_sales2018", "rnd2018", "n_trials")

EXCLUDED_SPONSOR = "Colgate Palmolive"
EXCLUDED_TRIAL_ID = "NCT02799472"

OTHER_CATEGORY = "Other"

# the date ordinal of a missing date; real ordinals start at 1
NO_DATE = 0

# the date ordinal of 1970-01-01, day 0 of numpy's datetime64[D]
_EPOCH = date(1970, 1, 1).toordinal()


class Phase(enum.Enum):
    PHASE2 = "phase2"
    PHASE3 = "phase3"
    OTHER = "other"


class SponsorClass(enum.Enum):
    NON_INDUSTRY = "non_industry"
    INDUSTRY = "industry"


class StudyType(enum.Enum):
    INTERVENTIONAL_SUPERIORITY = "interventional_superiority"
    OTHER = "other"


class OutcomeRank(enum.Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


class SchemaError(ValueError):
    """CSV row failed validation; carries file, line, and column."""

    def __init__(self, file: str, line: int, column: str, message: str):
        self.file, self.line, self.column = file, line, column
        super().__init__(f"{file}:{line} column {column!r}: {message}")


@dataclass(frozen=True)
class ReportedP:
    """A reported p-value: exact, or censored as p<t / p>t."""

    kind: str  # "exact" | "lt" | "gt"
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "lt", "gt"):
            raise ValueError(f"bad p kind: {self.kind!r}")
        if self.kind == "exact":
            if not 0.0 <= self.value <= 1.0:
                raise ValueError(f"exact p must lie in [0,1], got {self.value}")
        elif not 0.0 < self.value < 1.0:
            raise ValueError(f"censor threshold must lie in (0,1), got {self.value}")

    @classmethod
    def exact(cls, p: float) -> "ReportedP":
        return cls("exact", float(p))

    @classmethod
    def less(cls, p: float) -> "ReportedP":
        return cls("lt", float(p))

    @classmethod
    def greater(cls, p: float) -> "ReportedP":
        return cls("gt", float(p))


@dataclass(frozen=True, eq=False)
class Ragged:
    """Rows of varying length in compressed form: row ``i`` is
    ``values[offsets[i]:offsets[i + 1]]``."""

    offsets: np.ndarray
    values: np.ndarray

    def rows(self) -> list[list[int]]:
        """Every row as a list."""
        vals, off = self.values.tolist(), self.offsets.tolist()
        return [vals[a:b] for a, b in zip(off[:-1], off[1:])]

    def take(self, idx: np.ndarray) -> "Ragged":
        """The rows at the positions ``idx``, in that order."""
        counts = np.diff(self.offsets)[idx]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        at = np.repeat(self.offsets[:-1][idx] - offsets[:-1], counts) + np.arange(offsets[-1])
        return Ragged(offsets, self.values[at])


@dataclass(frozen=True, eq=False)
class Trials:
    """The trials of a registry as columns, indexed by trial code: a
    trial's code is the index of its id in ``ids``, the trial ids in sorted
    order.  ``order`` lists the codes in registry order.

    ``sponsor`` codes each trial's canonical sponsor key in
    ``sponsor_keys``, the distinct keys in sorted order.  Each trial lists
    its drug combinations in ``interventions`` as codes into ``combos``,
    whose rows hold codes into ``drug_names``, by name; ``mesh`` codes its
    set of MeSH terms into ``mesh_sets``, whose rows hold codes into
    ``mesh_terms``, by term.  ``condition`` and ``year`` code the condition
    category and the completion year ("%d", "unknown" when missing) into
    the sorted ``conditions`` and ``years``.  Dates are ordinals, NO_DATE
    when missing.  The vocabularies may hold entries no trial uses.
    """

    ids: np.ndarray
    order: np.ndarray
    phase: np.ndarray  # Phase values
    sponsor_name: np.ndarray
    sponsor: np.ndarray
    industry: np.ndarray
    interventions: Ragged
    mesh: np.ndarray
    condition: np.ndarray
    year: np.ndarray
    start: np.ndarray
    completion: np.ndarray
    enrollment: np.ndarray
    placebo: np.ndarray
    superiority: np.ndarray  # interventional superiority study
    sponsor_keys: np.ndarray
    combos: Ragged
    drug_names: np.ndarray
    mesh_sets: Ragged
    mesh_terms: np.ndarray
    conditions: np.ndarray
    years: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


_VOCABULARIES = (
    "sponsor_keys", "combos", "drug_names", "mesh_sets", "mesh_terms", "conditions", "years")


@dataclass(frozen=True, eq=False)
class Outcomes:
    """The reported outcomes of a registry as columns, in registry order;
    ``trial`` holds each outcome's trial code."""

    trial: np.ndarray
    rank: np.ndarray  # OutcomeRank values
    p_kind: np.ndarray
    p_value: np.ndarray
    mht: np.ndarray

    def __len__(self) -> int:
        return len(self.trial)


@dataclass(frozen=True, eq=False)
class Registry:
    """Immutable collection of trials, outcomes, and sponsor rankings."""

    trials: Trials
    outcomes: Outcomes
    rankings: Mapping[str, Mapping[str, int]]  # criterion -> canonical name -> rank

    def n_trials(self) -> int:
        return len(self.trials)

    def subset(self, keep: np.ndarray) -> "Registry":
        """The registry of the trials in the trial mask ``keep`` and their
        outcomes, coded by the sorted ids of the trials kept."""
        t, o = self.trials, self.outcomes
        code = np.cumsum(keep) - 1
        kept = np.flatnonzero(keep)
        trials = replace(t, order=code[t.order[keep[t.order]]],
                         interventions=t.interventions.take(kept), **{
                             f.name: getattr(t, f.name)[kept] for f in fields(t)
                             if f.name not in ("order", "interventions", *_VOCABULARIES)})
        rows = np.flatnonzero(keep[o.trial])
        outcomes = Outcomes(code[o.trial[rows]].astype(np.int32),
                            *(getattr(o, f.name)[rows] for f in fields(o)[1:]))
        return Registry(trials, outcomes, self.rankings)


@dataclass(frozen=True)
class SponsorSplit:
    """One large-vs-small industry definition: top-k under a criterion."""

    criterion: str
    k: int
    classification: Mapping[str, str]  # canonical sponsor -> "Large" | "Small"

    def __post_init__(self) -> None:
        if self.criterion not in RANK_CRITERIA:
            raise ValueError(f"unknown ranking criterion: {self.criterion!r}")
        if not 7 <= self.k <= 20:
            raise ValueError(f"split size k must lie in [7,20], got {self.k}")

    def group_of(self, sponsor_name: str) -> str:
        return self.classification.get(canonical_sponsor(sponsor_name), "Small")


@dataclass
class FilterAudit:
    """Counts of trials/outcomes removed by each sample-restriction rule."""

    entries: list[dict] = field(default_factory=list)

    def add(self, rule: str, trials_removed: int, outcomes_removed: int, note: str) -> None:
        self.entries.append(
            {
                "rule": rule,
                "trials_removed": trials_removed,
                "outcomes_removed": outcomes_removed,
                "note": note,
            }
        )

    def total_trials_removed(self) -> int:
        return sum(e["trials_removed"] for e in self.entries)


# ---------------------------------------------------------------------------
# Bundled reference tables, read-only

_WS = re.compile(r"\s+")


def _data_path(name: str):
    return resources.files("trialscope._data").joinpath(name)


def _normalize_name(name: str) -> str:
    return _WS.sub(" ", name.strip()).casefold()


def _read_table(name: str) -> list[dict]:
    with _data_path(name).open(encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


_PARENTS: Mapping[str, str] = MappingProxyType({
    _normalize_name(row["subsidiary"]): row["parent"].strip()
    for row in _read_table("sponsor_parents.csv")
})

_CATEGORY_SPENDING: Mapping[str, float] = MappingProxyType({
    row["code"].strip(): float(row["medicare_d_spending_bn"])
    for row in _read_table("condition_categories.csv")
})


def _load_term_codes() -> Mapping[str, frozenset[str]]:
    term_codes: dict[str, set[str]] = {}
    for row in _read_table("mesh_terms.csv"):
        term_codes.setdefault(_normalize_name(row["term"]), set()).add(row["code"].strip())
    return MappingProxyType({term: frozenset(codes) for term, codes in term_codes.items()})


_TERM_CODES = _load_term_codes()


# ---------------------------------------------------------------------------
# Sponsor-name handling

def canonical_sponsor(name: str) -> str:
    """Case-insensitive, whitespace-collapsed sponsor key, with known
    subsidiaries folded into their parent."""
    norm = _normalize_name(name)
    parent = _PARENTS.get(norm)
    return _normalize_name(parent) if parent is not None else norm


# the key of the excluded sponsor, a constant of the bundled tables
_EXCLUDED_KEY = canonical_sponsor(EXCLUDED_SPONSOR)


# ---------------------------------------------------------------------------
# Condition categories

_CODE_PREFIX = re.compile(r"^([A-Z]\d{2})\s*:")

# single tree codes folded into the merged category groups
_MERGED = {"C08": "C08/C09", "C09": "C08/C09", "C12": "C12/C13", "C13": "C12/C13"}


def _codes_for_term(term: str) -> set[str]:
    m = _CODE_PREFIX.match(term.strip())
    if m:
        code = _MERGED.get(m.group(1), m.group(1))
        return {code} if code in _CATEGORY_SPENDING else set()
    return {
        _MERGED.get(c, c)
        for c in _TERM_CODES.get(_normalize_name(term), set())
        if _MERGED.get(c, c) in _CATEGORY_SPENDING
    }


def assign_condition_category(mesh_conditions: Iterable[str]) -> str:
    """Assign a trial to one condition category from its MeSH terms.

    Terms may carry an explicit tree-code prefix ("C14:Hypertension") or be
    looked up in the bundled term table.  When terms match several
    categories the one with the largest Medicare D spending wins; no match
    returns "Other".
    """
    candidates: set[str] = set()
    for term in mesh_conditions:
        candidates |= _codes_for_term(term)
    if not candidates:
        return OTHER_CATEGORY
    return max(candidates, key=lambda c: (_CATEGORY_SPENDING.get(c, 0.0), c))


# ---------------------------------------------------------------------------
# Building the columns

def _first_seen(values: Iterable) -> dict:
    """Each distinct value -> its rank in order of first appearance."""
    distinct = dict.fromkeys(values)
    return dict(zip(distinct, range(len(distinct))))


def _lookup(table: Mapping, values: Sequence) -> np.ndarray:
    """``table[v]`` of every value ``v``, as integers."""
    return np.fromiter(map(table.__getitem__, values), np.int32, count=len(values))


def _interned(rows: Sequence[Iterable]) -> tuple[Ragged, dict]:
    """The ``rows`` of values as rows of codes, and each distinct value ->
    its code, in order of first appearance."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(list(map(len, rows)), out=offsets[1:])
    values = list(chain.from_iterable(rows))
    codes = _first_seen(values)
    return Ragged(offsets, _lookup(codes, values)), codes


def _coded(labels: Sequence[str], code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``labels`` sorted, and ``code`` into ``labels`` recoded into them."""
    vocabulary, recode = np.unique(np.array(labels, dtype=str), return_inverse=True)
    return vocabulary, recode.astype(np.int32)[code]


def _parse_combos(raw: str) -> list[tuple[str, ...]]:
    """The drug combinations of an interventions cell, empty ones dropped,
    each as its distinct drug names sorted."""
    if ";" not in raw and "+" not in raw:  # one drug, or none
        drug = raw.strip()
        return [(drug,)] if drug else []
    combos = []
    for chunk in raw.split(";"):
        drugs = set(map(str.strip, chunk.split("+")))
        drugs.discard("")
        if drugs:
            combos.append(tuple(sorted(drugs)))
    return combos


def _parse_mesh(raw: str) -> frozenset[str]:
    return frozenset(t.strip() for t in raw.split(";") if t.strip())


def _sponsor_keys(names: Iterable[str], keys: dict[str, str]) -> dict[str, str]:
    """``keys``, which maps sponsor names to their canonical keys, with the
    ``names`` it lacks added."""
    for name in set(names).difference(keys):
        keys[name] = canonical_sponsor(name)
    return keys


def build_registry(trials: Mapping[str, Sequence], outcomes: Mapping[str, Sequence],
                   rankings: Mapping[str, Mapping[str, int]],
                   keys: dict[str, str] | None = None) -> Registry:
    """The registry of trial and outcome columns in registry order.

    ``trials`` holds ``ids``, ``phase`` (Phase values), ``sponsor_name``,
    ``industry``, ``interventions`` and ``mesh`` (cells as trials.csv
    writes them), ``start`` and ``completion`` (ordinals, NO_DATE when
    missing), ``enrollment``, ``placebo`` and ``superiority``; ``outcomes``
    holds ``trial`` (the registry row of each outcome's trial), ``rank``
    (OutcomeRank values), ``p_kind``, ``p_value`` and ``mht``; columns
    may be arrays or sequences.  ``keys`` holds the canonical keys of
    sponsor names already seen.

    Each distinct sponsor name is canonicalised once, each distinct
    interventions and MeSH cell parsed once and each distinct MeSH set
    categorised once; drug names, combinations, MeSH terms and MeSH sets
    are interned in order of first appearance."""
    ids = np.array(trials["ids"], dtype=str)
    by_code = np.argsort(ids, kind="stable")  # the registry row of each code
    code = np.empty(len(ids), dtype=np.int32)
    code[by_code] = np.arange(len(ids))

    def col(name: str, dtype) -> np.ndarray:
        return np.asarray(trials[name], dtype=dtype)[by_code]

    names = _first_seen(trials["sponsor_name"])
    name = _lookup(names, trials["sponsor_name"])[by_code]
    keys = _sponsor_keys(names, {} if keys is None else keys)
    sponsor_keys, key_code = np.unique(
        np.array([keys[n] for n in names], dtype=str), return_inverse=True)

    cells = _first_seen(trials["interventions"])
    listed, combos = _interned(list(map(_parse_combos, cells)))
    interventions = listed.take(_lookup(cells, trials["interventions"])[by_code])
    combo_drugs, drugs = _interned(list(combos))

    cells = _first_seen(trials["mesh"])
    terms_of_cell = list(map(_parse_mesh, cells))
    mesh_sets = _first_seen(terms_of_cell)
    mesh = _lookup(mesh_sets, terms_of_cell)[_lookup(cells, trials["mesh"])][by_code]
    conditions, condition = _coded(list(map(assign_condition_category, mesh_sets)), mesh)
    set_terms, terms = _interned(list(map(sorted, mesh_sets)))

    completion = col("completion", np.int64)
    days, day = np.unique(completion, return_inverse=True)
    in_year = (days - _EPOCH).astype("datetime64[D]").astype("datetime64[Y]").astype(np.int64)
    known, known_year = np.unique(np.where(days == NO_DATE, -1, in_year + 1970),
                                  return_inverse=True)
    years, year = _coded(["unknown" if y == -1 else "%d" % y for y in known.tolist()],
                         known_year[day])
    t = Trials(
        ids=ids[by_code], order=code, phase=col("phase", str),
        sponsor_name=np.array(list(names), dtype=str)[name], sponsor=key_code[name],
        industry=col("industry", bool), interventions=interventions,
        mesh=mesh, condition=condition, year=year,
        start=col("start", np.int64), completion=completion,
        enrollment=col("enrollment", np.int64), placebo=col("placebo", bool),
        superiority=col("superiority", bool), sponsor_keys=sponsor_keys,
        combos=combo_drugs, drug_names=np.array(list(drugs), dtype=str),
        mesh_sets=set_terms, mesh_terms=np.array(list(terms), dtype=str),
        conditions=conditions, years=years,
    )
    o = Outcomes(code[np.asarray(outcomes["trial"], dtype=np.int64)],
                 np.asarray(outcomes["rank"], dtype=str),
                 np.asarray(outcomes["p_kind"], dtype=str),
                 np.asarray(outcomes["p_value"], dtype=float),
                 np.asarray(outcomes["mht"], dtype=bool))
    return Registry(t, o, rankings)


# ---------------------------------------------------------------------------
# CSV ingestion, a column and a distinct cell at a time

TRIALS_COLUMNS = [
    "trial_id", "phase", "sponsor_name", "sponsor_class", "interventions",
    "mesh_conditions", "start_date", "completion_date", "enrollment",
    "placebo_comparator", "study_type",
]
OUTCOMES_COLUMNS = ["trial_id", "outcome_rank", "p_kind", "p_value", "mht_adjusted"]
RANKINGS_COLUMNS = ["sponsor_name", "criterion", "rank"]

_PHASES = {"phase2": Phase.PHASE2, "phase3": Phase.PHASE3}

# records moved from rows into the columns at a time
_CHUNK = 4096

# characters read at a time; a block runs on to the end of the line
# that they end in
_HINT = 1 << 16

# the largest enrollment a column of int64 holds
_MAX_ENROLLMENT = int(np.iinfo(np.int64).max)


def _parser(convert, expected: str):
    """A cell parser: ``convert(cell)``, or a ValueError naming the cell when
    that raises ValueError or KeyError."""
    def parse(raw: str):
        try:
            return convert(raw)
        except (ValueError, KeyError):
            raise ValueError(f"expected {expected}, got {raw!r}") from None
    return parse


def _keyword(values: Mapping[str, object], expected: str):
    """A parser of cells naming a key of ``values``, in any case and padding."""
    return _parser(lambda raw: values[raw.strip().casefold()], expected)


_parse_bool = _keyword({"true": True, "false": False, "1": True, "0": False}, "true/false")
_parse_industry = _keyword({c.value: c is SponsorClass.INDUSTRY for c in SponsorClass},
                           "industry/non_industry")
_parse_rank = _keyword({r.value: r.value for r in OutcomeRank}, "primary/secondary")
_parse_p_kind = _keyword({k: k for k in ("exact", "lt", "gt")}, "exact/lt/gt")
_parse_int = _parser(int, "integer")
_parse_float = _parser(float, "number")


def _parse_date(raw: str) -> int:
    raw = raw.strip()
    if not raw:
        return NO_DATE
    try:
        return date.fromisoformat(raw).toordinal()
    except ValueError:
        raise ValueError(f"expected ISO date, got {raw!r}") from None


def _parse_criterion(raw: str) -> str:
    crit = raw.strip()
    if crit not in RANK_CRITERIA:
        raise ValueError(f"unknown criterion {crit!r}; expected one of {RANK_CRITERIA}")
    return crit


def _parse_phase(raw: str) -> str:
    return _PHASES.get(raw.strip().casefold(), Phase.OTHER).value


def _parse_superiority(raw: str) -> bool:
    return raw.strip().casefold() == StudyType.INTERVENTIONAL_SUPERIORITY.value


def _among(chosen, values: Sequence) -> np.ndarray:
    """The mask of the ``values`` in the collection ``chosen``."""
    if not chosen:
        return np.zeros(len(values), bool)
    return np.fromiter(map(chosen.__contains__, values), bool, count=len(values))


class _Parsed(dict):
    """Each cell -> ``parse(cell)``, parsed on its first lookup, or
    ``filler`` where that raises ValueError, whose message goes in
    ``errors``."""

    def __init__(self, parse, filler):
        super().__init__()
        self.parse, self.filler, self.errors = parse, filler, {}

    def __missing__(self, cell):
        try:
            value = self[cell] = self.parse(cell)
        except ValueError as exc:
            value = self[cell] = self.filler
            self.errors[cell] = str(exc)
        return value


def _parsed(parse, cells: Sequence, dtype=None, filler=None):
    """``parse`` of every cell, called once per distinct cell, as a list or
    as an array of ``dtype``, with ``filler`` where it raises ValueError;
    and the failure of a rule on those cells: their mask, and the message
    of the cell at a position."""
    table = _Parsed(parse, filler)
    values = map(table.__getitem__, cells)
    values = list(values) if dtype is None else np.fromiter(values, dtype, count=len(cells))
    return values, (_among(table.errors, cells), lambda i: table.errors[cells[i]])


def _first_positions(values: Sequence) -> tuple[dict, np.ndarray]:
    """Each distinct value -> its first position, and the mask of the
    values equal to a value at an earlier position."""
    n = len(values)
    first = dict(zip(values, range(n)))
    if len(first) == n:  # every value distinct
        return first, np.zeros(n, dtype=bool)
    first = dict(zip(values[::-1], range(n - 1, -1, -1)))
    return first, _lookup(first, values) != np.arange(n)


def _extend(columns: list[list[str]], held: list[dict | None],
            parts: Iterable[Sequence[str]]) -> None:
    """Append each of the ``parts`` to its column.  A column with a table
    in ``held`` takes each distinct cell's first copy from it, so the
    others are let go at once; once more than half its cells are
    distinct, its table is dropped."""
    for at, (column, part) in enumerate(zip(columns, parts)):
        table = held[at]
        if table is None:
            column += part
        else:
            column += map(table.setdefault, part, part)
            if 2 * len(table) > len(column):
                held[at] = None


_COMMA, _LF, _CR = ord(","), ord("\n"), ord("\r")


def _plain(text: str) -> np.ndarray | None:
    """The utf-8 bytes of ``text`` if ``csv.reader`` reads its lines as
    their cells split at commas, else None: it must hold no quote, no NUL
    (which ``csv`` rejects before Python 3.11) and no CR outside a CRLF, and
    no cell of it can pass csv's field size limit.  In utf-8 a comma, CR or
    LF is one byte, and no other character holds it."""
    if '"' in text or "\0" in text or len(text) > csv.field_size_limit():
        return None
    data = np.frombuffer(text.encode(), np.uint8)
    cr = data == _CR
    if np.count_nonzero(cr) != np.count_nonzero(cr[:-1] & (data[1:] == _LF)):
        return None
    return data


def _split(n: int, text: str, data: np.ndarray, first: int, columns: list[list[str]],
           lines: list[int], held: list[dict | None]) -> bool:
    """Whether the plain ``text`` (see ``_plain``) of utf-8 bytes ``data``
    holds no blank line and ``n`` fields on every line; if so, split it
    at commas into the ``columns`` through ``_extend`` and the line of each
    record, from line ``first`` on, into ``lines``."""
    ends = np.flatnonzero(data == _LF)
    if text[-1] != "\n":  # the last line is unterminated
        ends = np.append(ends, len(data))
    # the commas before each line's end, n - 1 more at each line
    commas = np.searchsorted(np.flatnonzero(data == _COMMA), ends)
    # each line's length with its LF: a blank line is an LF or a CRLF alone
    length = np.diff(ends, prepend=-1)
    blank = (length == 1) | ((length == 2) & (data[ends - 1] == _CR))
    if blank.any() or not np.array_equal(commas, (n - 1) * np.arange(1, len(ends) + 1)):
        return False
    lines += range(first, first + len(ends))
    # in plain text every CR ends a line before its LF
    cells = text.replace("\r", "").replace("\n", ",").split(",")
    if text[-1] == "\n":
        del cells[-1]
    _extend(columns, held, (cells[at::n] for at in range(n)))
    return True


def _read_columns(path: str | Path, expected: Sequence[str]):
    """The cells of the records after a header of the ``expected`` columns,
    one list per column, the line each record starts on, and the error of
    a record with another number of fields, where reading stopped (None
    when every record has them all).  Blank lines are skipped.

    The file is read a block of whole lines at a time.  A plain block (see
    ``_plain``) with no blank line and no record of another width is split
    at commas straight into the columns; ``csv.reader`` reads any other
    plain block, and from the first block that is not plain, whose quoted
    cells may run on past it, the rest of the file.  A column of few
    distinct cells holds one copy of each (see ``_extend``): the records
    of a file then take few string objects, and the short-lived ones leave
    no scattered survivors in the allocator's pools, which would keep them
    from going back to the system."""
    path, n = str(path), len(expected)
    columns: list[list[str]] = [[] for _ in expected]
    held: list[dict | None] = [{} for _ in expected]
    lines: list[int] = []
    fault = None
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, newline="", encoding="utf-8-sig") as fh:
        # csv reads on past the header's line only for a quoted line break,
        # which no header of the expected names holds
        got = next(csv.reader(chain([fh.readline()], fh)), [])
        if got != list(expected):
            raise SchemaError(path, 1, "<header>", f"expected columns {expected}, got {got}")
        first = 2  # the line of the block
        while fault is None and (text := fh.read(_HINT)):
            if text[-1] != "\n":
                text += fh.readline()
            data = _plain(text)
            if data is None:
                reader = csv.reader(chain(io.StringIO(text, newline=""), fh))
                return columns, lines, _read_records(path, n, reader, first, columns, lines, held)
            if not _split(n, text, data, first, columns, lines, held):
                reader = csv.reader(io.StringIO(text, newline=""))
                fault = _read_records(path, n, reader, first, columns, lines, held)
            first += text.count("\n") + (text[-1] != "\n")
    return columns, lines, fault


def _read_records(path: str, n: int, reader, first: int, columns: list[list[str]],
                  lines: list[int], held: list[dict | None]) -> SchemaError | None:
    """Read the records of ``csv.reader`` ``reader``, whose first line is
    line ``first``, into the ``columns`` a chunk at a time (see
    ``_extend``) and the line of each record into ``lines``; the error of
    the first record with other than ``n`` fields, where reading stops, or
    None."""
    chunk: list[list[str]] = []
    fault = None
    line = first + reader.line_num
    for values in reader:
        if len(values) == n:
            chunk.append(values)
            lines.append(line)
            if len(chunk) == _CHUNK:
                _extend(columns, held, zip(*chunk))
                chunk.clear()
        elif values:
            fault = SchemaError(path, line, "<row>", f"expected {n} fields, got {len(values)}")
            break
        line = first + reader.line_num
    _extend(columns, held, zip(*chunk))
    return fault


# Each file is checked against one list of rules in docs/schemas.md order.
# A rule is (column, the mask of the records that fail it, the message of a
# failing record at its position).  A rule that reads an earlier column sees
# a neutral filler in the cells that failed to parse; only the same
# record's earlier rules fail there, and the earlier rule wins.

def _check(file: str, lines: Sequence[int], rules, fault: SchemaError | None) -> None:
    """Raise the SchemaError of the first record that fails a rule, at its
    first failing rule, else ``fault``, the error of the row with the wrong
    number of fields where reading stopped."""
    failed = [(int(np.argmax(mask)), at) for at, (_, mask, _) in enumerate(rules) if mask.any()]
    if failed:
        i, at = min(failed)
        column, _, message = rules[at]
        raise SchemaError(file, lines[i], column, message(i))
    if fault is not None:
        raise fault


def _read_rankings(path: Path, keys: dict[str, str]) -> dict[str, dict[str, int]]:
    columns, lines, fault = _read_columns(path, RANKINGS_COLUMNS)
    names, criteria, ranks = columns
    _sponsor_keys(names, keys)
    crit, bad_crit = _parsed(_parse_criterion, criteria, filler=RANK_CRITERIA[0])
    rank, bad_rank = _parsed(_parse_int, ranks, filler=1)
    entries = list(zip(crit, map(keys.__getitem__, names)))
    _, repeated = _first_positions(entries)
    _check(str(path), lines, (
        ("criterion", *bad_crit),
        ("rank", *bad_rank),
        ("rank", _among({r for r in rank if r < 1}, rank), lambda i: "rank must be >= 1"),
        ("sponsor_name", repeated,
         lambda i: f"duplicate rank entry for {names[i]!r} under {crit[i]}"),
    ), fault)
    rankings: dict[str, dict[str, int]] = {c: {} for c in RANK_CRITERIA}
    for (c, key), value in zip(entries, rank):
        rankings[c][key] = value
    return rankings


def _read_trials(path: Path, keys: dict[str, str],
                 ranked: set[str]) -> tuple[dict[str, Sequence], dict[str, int]]:
    """The trial columns, and each trial id -> its row."""
    columns, lines, fault = _read_columns(path, TRIALS_COLUMNS)
    (tid, phase, sponsor, sclass, interventions, mesh, start, completion, enrollment,
     placebo, study_type) = columns
    ids, names = list(map(str.strip, tid)), list(map(str.strip, sponsor))
    row_of, repeated = _first_positions(ids)
    distinct = set(names)
    _sponsor_keys(distinct, keys)
    ranked_names = {n for n in distinct if keys[n] in ranked}
    several = {n for n in distinct if ";" in n}
    industry, bad_class = _parsed(_parse_industry, sclass, bool, True)
    enrollment, bad_enrollment = _parsed(_parse_int, enrollment, filler=0)
    start, bad_start = _parsed(_parse_date, start, np.int64, NO_DATE)
    completion, bad_completion = _parsed(_parse_date, completion, np.int64, NO_DATE)
    placebo, bad_placebo = _parsed(_parse_bool, placebo, bool, False)
    _check(str(path), lines, (
        ("trial_id", _among({""}.intersection(row_of), ids), lambda i: "empty trial id"),
        ("trial_id", repeated, lambda i: f"duplicate trial id {ids[i]!r}"),
        ("sponsor_name", _among(several, names),
         lambda i: "multiple sponsors listed; supply the single lead sponsor"),
        ("sponsor_class", *bad_class),
        ("enrollment", *bad_enrollment),
        ("enrollment", _among({e for e in set(enrollment) if e < 0}, enrollment),
         lambda i: "enrollment must be >= 0"),
        ("enrollment", _among({e for e in set(enrollment) if e > _MAX_ENROLLMENT}, enrollment),
         lambda i: f"enrollment must be <= {_MAX_ENROLLMENT}"),
        ("start_date", *bad_start),
        ("completion_date", *bad_completion),
        ("completion_date", (start != NO_DATE) & (completion != NO_DATE) & (start > completion),
         lambda i: "completion before start"),
        ("sponsor_class", ~industry & _among(ranked_names, names),
         lambda i: f"sponsor {names[i]!r} is ranked but classed non_industry"),
        ("placebo_comparator", *bad_placebo),
    ), fault)
    return dict(ids=ids, phase=_parsed(_parse_phase, phase)[0], sponsor_name=names,
                industry=industry, interventions=interventions, mesh=mesh, start=start,
                completion=completion, enrollment=enrollment, placebo=placebo,
                superiority=_parsed(_parse_superiority, study_type, bool)[0]), row_of


def _p_values(kind: np.ndarray, value: list[str]):
    """The p-values of the ``value`` cells of the reported ``kind``s, and
    the failure of the rule that each is a number, then in range for its
    kind, as ``_parsed`` gives it.  Every cell is read by one ``float``
    pass and tested in range by kind at once; only when some cell fails
    does the rule run a cell at a time, for its messages."""
    try:
        p = np.fromiter(map(float, value), float, count=len(value))
    except ValueError:
        pass
    else:
        inside = np.where(kind == "exact", (0.0 <= p) & (p <= 1.0), (0.0 < p) & (p < 1.0))
        if inside.all():
            return p, (~inside, None)
    return _parsed(lambda cell: ReportedP(cell[0], _parse_float(cell[1])).value,
                   list(zip(kind.tolist(), value)), float, 0.5)


def _read_outcomes(path: Path, row_of: Mapping[str, int]) -> dict[str, Sequence]:
    columns, lines, fault = _read_columns(path, OUTCOMES_COLUMNS)
    tid, rank, kind, value, mht = columns
    ids = list(map(str.strip, tid))
    absent = set(ids).difference(row_of)
    rank, bad_rank = _parsed(_parse_rank, rank, filler=OutcomeRank.PRIMARY.value)
    kind, bad_kind = _parsed(_parse_p_kind, kind, filler="exact")
    kind = np.array(kind, dtype=str)
    p, bad_p = _p_values(kind, value)
    mht, bad_mht = _parsed(_parse_bool, mht, bool, False)
    present = ~_among(absent, ids)  # rows of absent trials are not checked
    _check(str(path), lines, [(column, mask & present, message) for column, mask, message in (
        ("outcome_rank", *bad_rank),
        ("p_kind", *bad_kind),
        ("p_value", *bad_p),
        ("mht_adjusted", *bad_mht),
    )], fault)
    if absent:
        raise ValueError("outcome rows reference absent trials:\n  " + "\n  ".join(
            f"{path}:{line} -> {i!r}" for line, i in zip(lines, ids) if i in absent))
    return dict(trial=_lookup(row_of, ids), rank=rank, p_kind=kind, p_value=p, mht=mht)


def ingest(
    trials_csv: str | Path,
    outcomes_csv: str | Path,
    rankings_csv: str | Path | None = None,
) -> Registry:
    """Load a registry extract from CSV files: rankings, then trials, then
    outcomes, each file read into columns and validated a column at a time.

    Raises SchemaError naming file/line/column of the first malformed row
    (its first failed check, in docs/schemas.md order) and ValueError
    listing offenders when outcomes reference absent trials.
    """
    keys: dict[str, str] = {}  # sponsor name -> canonical key, for every file
    rankings: dict[str, dict[str, int]] = {c: {} for c in RANK_CRITERIA}
    if rankings_csv is not None:
        rankings = _read_rankings(Path(rankings_csv), keys)
    ranked = {key for table in rankings.values() for key in table}
    trials, row_of = _read_trials(Path(trials_csv), keys, ranked)
    outcomes = _read_outcomes(Path(outcomes_csv), row_of)
    return build_registry(trials, outcomes, rankings, keys)


# ---------------------------------------------------------------------------
# Sample-restriction filters

_COLGATE_NOTE = (
    "excluded sponsor: bulk constant p=0.05 entries, a reporting artifact "
    "intended as 'significant' that would fabricate a spike at z=1.96"
)
_OUTLIER_NOTE = "excluded trial: reports two orders of magnitude more primary p-values than typical"


def apply_sample_filters(reg: Registry) -> tuple[Registry, FilterAudit]:
    """Apply the standard sample restrictions, in order: drop the known
    anomalous sponsor, drop the single extreme-outlier trial, keep only
    interventional superiority studies, keep only phase II/III.

    Idempotent; returns the filtered registry and a per-rule audit.
    """
    t, of = reg.trials, reg.outcomes.trial
    rules = (
        ("drop_anomalous_sponsor", (t.sponsor_keys != _EXCLUDED_KEY)[t.sponsor], _COLGATE_NOTE),
        ("drop_outlier_trial", t.ids != EXCLUDED_TRIAL_ID, _OUTLIER_NOTE),
        ("keep_interventional_superiority", t.superiority, "study type restriction"),
        ("keep_phase_2_3", np.isin(t.phase, (Phase.PHASE2.value, Phase.PHASE3.value)),
         "phase restriction"),
    )
    audit = FilterAudit()
    keep = np.ones(len(t), dtype=bool)
    for rule, mask, note in rules:
        kept = keep & mask
        audit.add(
            rule,
            trials_removed=int(keep.sum() - kept.sum()),
            outcomes_removed=int(keep[of].sum() - kept[of].sum()),
            note=note,
        )
        keep = kept
    return reg.subset(keep), audit


# ---------------------------------------------------------------------------
# Sponsor splits

def all_sponsor_splits(
    rankings: Mapping[str, Mapping[str, int]],
    k_range: Iterable[int] = range(7, 21),
) -> list[SponsorSplit]:
    """All large-vs-small definitions: every criterion crossed with every
    cut size (56 in the default configuration)."""
    splits = []
    for criterion in RANK_CRITERIA:
        table = rankings.get(criterion, {})
        for k in k_range:
            classification = {
                name: ("Large" if rank <= k else "Small") for name, rank in table.items()
            }
            splits.append(SponsorSplit(criterion=criterion, k=k, classification=classification))
    return splits


def default_rankings() -> dict[str, dict[str, int]]:
    """Bundled top-20 sponsor rankings for the four criteria."""
    rankings: dict[str, dict[str, int]] = {c: {} for c in RANK_CRITERIA}
    for row in _read_table("sponsor_rankings.csv"):
        rankings[row["criterion"]][canonical_sponsor(row["sponsor_name"])] = int(row["rank"])
    return rankings


# ---------------------------------------------------------------------------
# Canonical serialization (round-trips bit-identically through ingest)

# rows per block: a writer formats a block at a time and writes it at once
_BLOCK = 1024

# a cell holding one of these is quoted
_SPECIAL = (",", '"', "\r", "\n")


def _cells(column: Sequence) -> Sequence[str]:
    """The cells of ``column`` as ``csv`` writes them in the excel dialect:
    strings as they are, None as empty, anything else by ``str``, and a cell
    that holds a comma, quote, CR or LF in quotes, its quotes doubled.  The
    column is scanned once, and only a column that needs quotes is quoted
    a cell at a time."""
    try:
        joined = "".join(column)  # a column of strings
        text = column
    except TypeError:
        text = list(map(str, column))
        if "None" in text:
            text = ["" if c is None else t for c, t in zip(column, text)]
        joined = "".join(text)
    if _needs_quotes(joined):
        text = ['"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t for t in text]
    return text


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in _SPECIAL)


def _block(columns: Sequence[Sequence]) -> str:
    """The CSV text of the rows whose cells ``columns`` holds, a column each,
    every line ended by CRLF."""
    text = list(map(_cells, columns))
    if len(text) == 1:
        (lines,) = text
        if "" in lines:  # csv quotes an empty cell alone on its row
            lines = [t or '""' for t in lines]
    else:
        lines = map(",".join, zip(*text))
    return "\r\n".join(chain(lines, ("",)))


def _write_blocks(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write the ``header`` and then each of the ``blocks`` of rows, given as
    its columns of cells, with one ``write`` per block."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_block([[name] for name in header]))
        for columns in blocks:
            fh.write(_block(columns))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the ``header`` and then the ``rows`` of cells, each as wide as
    the header, as one CSV file, a block of rows at a time."""
    rows = iter(rows)

    def blocks():
        while block := list(islice(rows, _BLOCK)):
            columns = list(zip(*block, strict=True))
            if len(columns) != len(header):
                raise ValueError(f"rows of {len(columns)} cells under a header of {len(header)}")
            yield columns

    _write_blocks(path, header, blocks())


def _write_columns(path: str | Path, header: Sequence[str], rows: np.ndarray,
                   columns: Sequence[Callable[[np.ndarray], Sequence]]) -> None:
    """Write the ``header`` and then one row per entry of ``rows``: each of
    the ``columns`` gives its cells at a block of ``rows``."""
    _write_blocks(path, header, ([column(rows[at]) for column in columns]
                                 for at in _row_blocks(len(rows))))


def _row_blocks(n: int) -> Iterator[slice]:
    """The rows of a file of ``n`` rows, a block at a time."""
    return (slice(a, a + _BLOCK) for a in range(0, n, _BLOCK))


def _take(values: np.ndarray) -> Callable[[np.ndarray], list]:
    """The cells of a column of ``values`` at given positions."""
    return lambda at: values[at].tolist()


def _flags(mask: np.ndarray, yes: str = "true",
           no: str = "false") -> Callable[[np.ndarray], list]:
    """The cells of a boolean column at given positions, ``yes`` or ``no``,
    each held once."""
    return _take(np.array([no, yes], dtype=object)[mask.astype(np.intp)])


def _dates(ordinals: np.ndarray) -> Callable[[np.ndarray], list]:
    """The cells of a column of date ordinals at given positions: the ISO
    date, "" for NO_DATE, each distinct day formatted and held once."""
    days, code = np.unique(ordinals, return_inverse=True)
    text = np.where(days == NO_DATE, "", (days - _EPOCH).astype("datetime64[D]").astype(str))
    return _take(text.astype(object)[code])


def _joined(rows: Ragged, names: np.ndarray, sep: str) -> np.ndarray:
    """Each row's ``names`` joined by ``sep``: a row of one name is
    gathered, and only the longer rows are joined."""
    length = np.diff(rows.offsets)
    out = np.full(len(length), "", dtype=object)
    one = np.flatnonzero(length == 1)
    out[one] = names[rows.values[rows.offsets[one]]]
    many = np.flatnonzero(length > 1)
    if many.size:
        many_rows = rows.take(many)
        parts, off = names[many_rows.values].tolist(), many_rows.offsets.tolist()
        out[many] = [sep.join(parts[a:b]) for a, b in zip(off[:-1], off[1:])]
    return out


def write_trials_csv(reg: Registry, path: str | Path) -> None:
    t = reg.trials
    combos = _joined(t.combos, t.drug_names, "+")
    mesh = _joined(t.mesh_sets, t.mesh_terms, ";")
    _write_columns(path, TRIALS_COLUMNS, t.order, [
        _take(t.ids), _take(t.phase), _take(t.sponsor_name),
        _flags(t.industry, SponsorClass.INDUSTRY.value, SponsorClass.NON_INDUSTRY.value),
        lambda at: _joined(t.interventions.take(at), combos, ";").tolist(),
        lambda at: mesh[t.mesh[at]].tolist(), _dates(t.start), _dates(t.completion),
        _take(t.enrollment), _flags(t.placebo), _flags(
            t.superiority, StudyType.INTERVENTIONAL_SUPERIORITY.value, StudyType.OTHER.value)])


def write_outcomes_csv(reg: Registry, path: str | Path) -> None:
    o = reg.outcomes
    _write_columns(path, OUTCOMES_COLUMNS, np.arange(len(o)), [
        lambda at: reg.trials.ids[o.trial[at]].tolist(), _take(o.rank), _take(o.p_kind),
        _take(o.p_value), _flags(o.mht)])


def write_rankings_csv(reg: Registry, path: str | Path) -> None:
    write_csv(path, RANKINGS_COLUMNS, [
        (name, criterion, rank) for criterion in RANK_CRITERIA
        for name, rank in sorted(reg.rankings.get(criterion, {}).items(), key=lambda kv: kv[1])])
