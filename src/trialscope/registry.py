"""Domain types, CSV ingestion, and sample-restriction filters.

The registry is an immutable snapshot of a trial-registry extract: trial
protocol columns, reported outcome p-values, and sponsor size rankings.
Everything downstream (transforms, linking, selection fitting) reads from
it concurrently without locks.
"""

from __future__ import annotations

import csv
import enum
import re
from dataclasses import dataclass, field, fields, replace
from datetime import date
from importlib import resources
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    (OutcomeRank values), ``p_kind``, ``p_value`` and ``mht``.  ``keys``
    holds the canonical keys of sponsor names already seen.

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
    years, year = _coded(["unknown" if d == NO_DATE else "%d" % date.fromordinal(d).year
                          for d in days.tolist()], day)
    t = Trials(
        ids=ids[by_code], order=code, phase=col("phase", str),
        sponsor_name=col("sponsor_name", str),
        sponsor=key_code[_lookup(names, trials["sponsor_name"])][by_code],
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


class _Parsed(dict):
    """Each cell -> ``parse(cell)``, parsed on its first lookup."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, cell: str):
        value = self[cell] = self.parse(cell)
        return value


def _distinct(parse, cells: Sequence[str], dtype=None):
    """``parse`` of every cell, called once per distinct cell, as a list or
    as an array of ``dtype``."""
    values = map(_Parsed(parse).__getitem__, cells)
    return list(values) if dtype is None else np.fromiter(values, dtype, count=len(cells))


def _extend(columns: list[list[str]], chunk: list[list[str]]) -> None:
    for column, cells in zip(columns, zip(*chunk)):
        column.extend(cells)
    chunk.clear()


def _read_columns(path: Path, expected: Sequence[str]):
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


# Each file's columns are converted and checked a column at a time.  Only
# when a check fails are its records checked again one at a time, every
# check of a record before the next record, which raises the first failing
# record's first failing check.

class _Record:
    """The checks of the CSV record at ``line`` of ``file``, each raising
    its SchemaError."""

    def __init__(self, file: str, line: int):
        self.file, self.line = file, line

    def check(self, column: str, ok: bool, message: str) -> None:
        if not ok:
            raise SchemaError(self.file, self.line, column, message)

    def cell(self, column: str, parse, raw):
        """``parse(raw)``, whose ValueError fails the check of ``column``."""
        try:
            return parse(raw)
        except ValueError as exc:
            raise SchemaError(self.file, self.line, column, str(exc)) from None


def _check_rankings(file: str, lines: Sequence[int], records: Iterable,
                    keys: Mapping[str, str]) -> None:
    seen = set()
    for line, (name, criterion, rank) in zip(lines, records):
        at = _Record(file, line)
        crit = at.cell("criterion", _parse_criterion, criterion)
        at.check("rank", at.cell("rank", _parse_int, rank) >= 1, "rank must be >= 1")
        entry = (crit, keys[name])
        at.check("sponsor_name", entry not in seen,
                 f"duplicate rank entry for {name!r} under {crit}")
        seen.add(entry)


def _check_trials(file: str, lines: Sequence[int], records: Iterable,
                  keys: Mapping[str, str], ranked: set[str]) -> None:
    seen = set()
    for line, record in zip(lines, records):
        tid, _, sponsor, sclass, _, _, start, completion, enrollment, placebo, _ = record
        tid, sponsor = tid.strip(), sponsor.strip()
        at = _Record(file, line)
        at.check("trial_id", tid != "", "empty trial id")
        at.check("trial_id", tid not in seen, f"duplicate trial id {tid!r}")
        seen.add(tid)
        at.check("sponsor_name", ";" not in sponsor,
                 "multiple sponsors listed; supply the single lead sponsor")
        industry = at.cell("sponsor_class", _parse_industry, sclass)
        at.check("enrollment", at.cell("enrollment", _parse_int, enrollment) >= 0,
                 "enrollment must be >= 0")
        first = at.cell("start_date", _parse_date, start)
        last = at.cell("completion_date", _parse_date, completion)
        at.check("completion_date", NO_DATE in (first, last) or first <= last,
                 "completion before start")
        at.check("sponsor_class", industry or keys[sponsor] not in ranked,
                 f"sponsor {sponsor!r} is ranked but classed non_industry")
        at.cell("placebo_comparator", _parse_bool, placebo)


def _check_outcomes(file: str, lines: Sequence[int], records: Iterable,
                    row_of: Mapping[str, int]) -> None:
    for line, (tid, rank, kind, value, mht) in zip(lines, records):
        if tid.strip() not in row_of:
            continue  # rows of absent trials are listed, not validated
        at = _Record(file, line)
        at.cell("outcome_rank", _parse_rank, rank)
        kind = at.cell("p_kind", _parse_p_kind, kind)
        at.cell("p_value", lambda p: ReportedP(kind, p), at.cell("p_value", _parse_float, value))
        at.cell("mht_adjusted", _parse_bool, mht)


def _read_rankings(path: Path, keys: dict[str, str]) -> dict[str, dict[str, int]]:
    columns, lines, fault = _read_columns(path, RANKINGS_COLUMNS)
    names, criteria, ranks = columns
    _sponsor_keys(names, keys)
    try:
        crit = _distinct(_parse_criterion, criteria)
        rank = list(map(int, ranks))
        entries = list(zip(crit, map(keys.__getitem__, names)))
        ok = min(rank, default=1) >= 1 and len(set(entries)) == len(entries)
    except ValueError:
        ok = False
    if not ok:
        _check_rankings(str(path), lines, zip(*columns), keys)
    if fault is not None:
        raise fault
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
    row_of = dict(zip(ids, range(len(ids))))
    distinct = set(names)
    _sponsor_keys(distinct, keys)
    ranked_names = {n for n in distinct if keys[n] in ranked}
    try:
        industry = _distinct(_parse_industry, sclass, bool)
        enrollment = list(map(int, enrollment))
        start = _distinct(_parse_date, start, np.int64)
        completion = _distinct(_parse_date, completion, np.int64)
        placebo = _distinct(_parse_bool, placebo, bool)
        listed = np.fromiter(map(ranked_names.__contains__, names), bool, count=len(names))
        ok = (len(row_of) == len(ids) and "" not in row_of
              and not any(";" in n for n in distinct) and min(enrollment, default=0) >= 0
              and not ((start != NO_DATE) & (completion != NO_DATE) & (start > completion)).any()
              and industry[listed].all())
    except ValueError:
        ok = False
    if not ok:
        _check_trials(str(path), lines, zip(*columns), keys, ranked)
    if fault is not None:
        raise fault
    return dict(ids=ids, phase=_distinct(_parse_phase, phase), sponsor_name=names,
                industry=industry, interventions=interventions, mesh=mesh, start=start,
                completion=completion, enrollment=enrollment, placebo=placebo,
                superiority=_distinct(_parse_superiority, study_type, bool)), row_of


def _read_outcomes(path: Path, row_of: Mapping[str, int]) -> dict[str, Sequence]:
    columns, lines, fault = _read_columns(path, OUTCOMES_COLUMNS)
    tid, rank, kind, value, mht = columns
    ids = list(map(str.strip, tid))
    trial = list(map(row_of.get, ids))
    try:
        rank = _distinct(_parse_rank, rank)
        kind = _distinct(_parse_p_kind, kind)
        p = np.fromiter(map(float, value), float, count=len(value))
        exact = np.fromiter(map("exact".__eq__, kind), bool, count=len(kind))
        ok = np.where(exact, (p >= 0.0) & (p <= 1.0), (p > 0.0) & (p < 1.0)).all()
        mht = _distinct(_parse_bool, mht, bool)
    except ValueError:
        ok = False
    if not ok:  # also when only rows of absent trials fail
        _check_outcomes(str(path), lines, zip(*columns), row_of)
    if fault is not None:
        raise fault
    if None in trial:
        raise ValueError("outcome rows reference absent trials:\n  " + "\n  ".join(
            f"{path}:{line} -> {i!r}" for line, i, t in zip(lines, ids, trial) if t is None))
    return dict(trial=trial, rank=rank, p_kind=kind, p_value=p, mht=mht)


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

def _format_bool(v: bool) -> str:
    return "true" if v else "false"


def _format_date(ordinal: int) -> str:
    return "" if ordinal == NO_DATE else date.fromordinal(ordinal).isoformat()


def _format_float(x: float) -> str:
    return repr(float(x))


def _joined(rows: Ragged, names: np.ndarray, sep: str) -> list[str]:
    names = names.tolist()
    return [sep.join(names[v] for v in row) for row in rows.rows()]


def write_trials_csv(reg: Registry, path: str | Path) -> None:
    t = reg.trials
    combos = _joined(t.combos, t.drug_names, "+")
    mesh = _joined(t.mesh_sets, t.mesh_terms, ";")
    interventions = [";".join(combos[c] for c in row) for row in t.interventions.rows()]
    sponsor_class = {True: SponsorClass.INDUSTRY.value, False: SponsorClass.NON_INDUSTRY.value}
    study_type = {True: StudyType.INTERVENTIONAL_SUPERIORITY.value, False: StudyType.OTHER.value}
    cols = [c.tolist() for c in (t.ids, t.phase, t.sponsor_name, t.industry, t.mesh, t.start,
                                 t.completion, t.enrollment, t.placebo, t.superiority)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRIALS_COLUMNS)
        for c in t.order.tolist():
            tid, phase, name, industry, m, start, completion, enroll, placebo, sup = (
                col[c] for col in cols)
            w.writerow([
                tid, phase, name, sponsor_class[industry], interventions[c], mesh[m],
                _format_date(start), _format_date(completion), enroll,
                _format_bool(placebo), study_type[sup],
            ])


def write_outcomes_csv(reg: Registry, path: str | Path) -> None:
    o = reg.outcomes
    ids = reg.trials.ids[o.trial].tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(OUTCOMES_COLUMNS)
        for tid, rank, kind, value, mht in zip(ids, o.rank.tolist(), o.p_kind.tolist(),
                                               o.p_value.tolist(), o.mht.tolist()):
            w.writerow([tid, rank, kind, _format_float(value), _format_bool(mht)])


def write_rankings_csv(reg: Registry, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RANKINGS_COLUMNS)
        for criterion in RANK_CRITERIA:
            for name, rank in sorted(reg.rankings.get(criterion, {}).items(), key=lambda kv: kv[1]):
                w.writerow([name, criterion, rank])
