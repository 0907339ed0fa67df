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
    "RegistryBuilder",
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

    @classmethod
    def of(cls, rows: Sequence[Sequence[int]]) -> "Ragged":
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=offsets[1:])
        values = np.fromiter((v for r in rows for v in r), dtype=np.int32, count=offsets[-1])
        return cls(offsets, values)

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

class RegistryBuilder:
    """The columns of a registry under construction, one trial and one
    outcome at a time in registry order.  Drug names, combinations, MeSH
    terms and MeSH sets are interned as they first appear; each distinct
    sponsor name is canonicalised once and each distinct MeSH set
    categorised once."""

    def __init__(self) -> None:
        self.row_of: dict[str, int] = {}  # trial id -> registry row
        self._trials: list[tuple] = []
        self._interventions: list[list[int]] = []
        self._outcomes: list[tuple] = []
        self._keys: dict[str, str] = {}
        self._drugs: dict[str, int] = {}
        self._combos: dict[tuple[str, ...], int] = {}
        self._terms: dict[str, int] = {}
        self._mesh_sets: dict[frozenset[str], int] = {}
        self._categories: list[str] = []

    def sponsor_key(self, name: str) -> str:
        """The canonical key of a sponsor name."""
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = canonical_sponsor(name)
        return key

    def add_trial(
        self, trial_id: str, phase: Phase, sponsor_name: str, industry: bool,
        interventions: Iterable[Iterable[str]], mesh: Iterable[str], start: int,
        completion: int, enrollment: int, placebo: bool, superiority: bool,
    ) -> int:
        """Append one trial and return its registry row.  Each entry of
        ``interventions`` is one drug combination; empty ones are dropped.
        Dates are ordinals, NO_DATE when missing."""
        combos = (tuple(sorted(set(combo))) for combo in interventions)
        terms = frozenset(mesh)
        if terms not in self._mesh_sets:
            self._categories.append(assign_condition_category(terms))
        self.sponsor_key(sponsor_name)
        row = self.row_of[trial_id] = len(self._trials)
        self._trials.append((trial_id, phase.value, sponsor_name, industry,
                             self._mesh_sets.setdefault(terms, len(self._mesh_sets)), start,
                             completion, enrollment, placebo, superiority))
        self._interventions.append(
            [self._combos.setdefault(c, len(self._combos)) for c in combos if c])
        return row

    def add_outcome(self, row: int, rank: OutcomeRank, p: ReportedP, mht: bool) -> None:
        """Append one outcome of the trial at registry row ``row``."""
        self._outcomes.append((row, rank.value, p.kind, p.value, mht))

    def build(self, rankings: Mapping[str, Mapping[str, int]]) -> Registry:
        (ids, phase, names, industry, mesh, start, completion, enrollment, placebo,
         superiority) = zip(*self._trials) if self._trials else ((),) * 10
        ids = np.array(ids, dtype=str)
        by_code = np.argsort(ids, kind="stable")  # the registry row of each code
        code = np.empty(len(ids), dtype=np.int32)
        code[by_code] = np.arange(len(ids))

        def col(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype)[by_code]

        names = col(names, str)
        sponsor_keys, sponsor = np.unique(
            np.array([self._keys[n] for n in names.tolist()], dtype=str), return_inverse=True)
        mesh = col(mesh, np.int32)
        conditions, condition = _coded(self._categories, mesh)
        completion = col(completion, np.int64)
        days, day = np.unique(completion, return_inverse=True)
        years, year = _coded(["unknown" if d == NO_DATE else "%d" % date.fromordinal(d).year
                              for d in days.tolist()], day)
        combos = [[self._drugs.setdefault(d, len(self._drugs)) for d in c] for c in self._combos]
        mesh_sets = [[self._terms.setdefault(t, len(self._terms)) for t in sorted(s)]
                     for s in self._mesh_sets]
        trials = Trials(
            ids=ids[by_code], order=code, phase=col(phase, str), sponsor_name=names,
            sponsor=sponsor, industry=col(industry, bool),
            interventions=Ragged.of([self._interventions[r] for r in by_code.tolist()]),
            mesh=mesh, condition=condition, year=year,
            start=col(start, np.int64), completion=completion,
            enrollment=col(enrollment, np.int64), placebo=col(placebo, bool),
            superiority=col(superiority, bool), sponsor_keys=sponsor_keys,
            combos=Ragged.of(combos), drug_names=np.array(list(self._drugs), dtype=str),
            mesh_sets=Ragged.of(mesh_sets), mesh_terms=np.array(list(self._terms), dtype=str),
            conditions=conditions, years=years,
        )
        rows, rank, kind, value, mht = zip(*self._outcomes) if self._outcomes else ((),) * 5
        outcomes = Outcomes(code[np.array(rows, dtype=np.int64)], np.array(rank, dtype=str),
                            np.array(kind, dtype=str), np.array(value, dtype=float),
                            np.array(mht, dtype=bool))
        return Registry(trials, outcomes, rankings)


def _coded(labels: Sequence[str], code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``labels`` sorted, and ``code`` into ``labels`` recoded into them."""
    vocabulary, recode = np.unique(np.array(labels, dtype=str), return_inverse=True)
    return vocabulary, recode.astype(np.int32)[code]


# ---------------------------------------------------------------------------
# CSV parsing helpers

TRIALS_COLUMNS = [
    "trial_id", "phase", "sponsor_name", "sponsor_class", "interventions",
    "mesh_conditions", "start_date", "completion_date", "enrollment",
    "placebo_comparator", "study_type",
]
OUTCOMES_COLUMNS = ["trial_id", "outcome_rank", "p_kind", "p_value", "mht_adjusted"]
RANKINGS_COLUMNS = ["sponsor_name", "criterion", "rank"]

_PHASES = {"phase2": Phase.PHASE2, "phase3": Phase.PHASE3}
_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(raw: str, file: str, line: int, column: str) -> bool:
    try:
        return _BOOLS[raw.strip().casefold()]
    except KeyError:
        raise SchemaError(file, line, column, f"expected true/false, got {raw!r}") from None


def _parse_date(raw: str, file: str, line: int, column: str) -> int:
    raw = raw.strip()
    if not raw:
        return NO_DATE
    try:
        return date.fromisoformat(raw).toordinal()
    except ValueError:
        raise SchemaError(file, line, column, f"expected ISO date, got {raw!r}") from None


def _parse_interventions(raw: str) -> list[list[str]]:
    return [[d.strip() for d in chunk.split("+") if d.strip()] for chunk in raw.split(";")]


def _read_rows(path: Path, expected: Sequence[str]):
    """Each record after a header of the ``expected`` columns, by column,
    with the line it starts on; blank lines are skipped."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        got = next(reader, [])
        if got != list(expected):
            raise SchemaError(str(path), 1, "<header>", f"expected columns {expected}, got {got}")
        line = reader.line_num + 1
        for values in reader:
            if len(values) not in (0, len(expected)):
                raise SchemaError(str(path), line, "<row>",
                                  f"expected {len(expected)} fields, got {len(values)}")
            if values:
                yield line, dict(zip(expected, values))
            line = reader.line_num + 1


def ingest(
    trials_csv: str | Path,
    outcomes_csv: str | Path,
    rankings_csv: str | Path | None = None,
) -> Registry:
    """Load a registry extract from CSV files, validating as we go.

    Raises SchemaError naming file/line/column on malformed rows and
    ValueError listing offenders when outcomes reference absent trials.
    """
    trials_csv, outcomes_csv = Path(trials_csv), Path(outcomes_csv)
    cols = RegistryBuilder()

    rankings: dict[str, dict[str, int]] = {c: {} for c in RANK_CRITERIA}
    if rankings_csv is not None:
        rankings_csv = Path(rankings_csv)
        for line, row in _read_rows(rankings_csv, RANKINGS_COLUMNS):
            crit = row["criterion"].strip()
            if crit not in RANK_CRITERIA:
                raise SchemaError(
                    str(rankings_csv), line, "criterion",
                    f"unknown criterion {crit!r}; expected one of {RANK_CRITERIA}",
                )
            try:
                rank = int(row["rank"])
            except ValueError:
                raise SchemaError(
                    str(rankings_csv), line, "rank", f"expected integer, got {row['rank']!r}"
                ) from None
            if rank < 1:
                raise SchemaError(str(rankings_csv), line, "rank", "rank must be >= 1")
            key = cols.sponsor_key(row["sponsor_name"])
            if key in rankings[crit]:
                raise SchemaError(
                    str(rankings_csv), line, "sponsor_name",
                    f"duplicate rank entry for {row['sponsor_name']!r} under {crit}",
                )
            rankings[crit][key] = rank
    ranked = {key for table in rankings.values() for key in table}

    fname = str(trials_csv)
    for line, row in _read_rows(trials_csv, TRIALS_COLUMNS):
        tid = row["trial_id"].strip()
        if not tid:
            raise SchemaError(fname, line, "trial_id", "empty trial id")
        if tid in cols.row_of:
            raise SchemaError(fname, line, "trial_id", f"duplicate trial id {tid!r}")
        sponsor = row["sponsor_name"].strip()
        if ";" in sponsor:
            raise SchemaError(
                fname, line, "sponsor_name",
                "multiple sponsors listed; supply the single lead sponsor",
            )
        raw_class = row["sponsor_class"].strip().casefold()
        try:
            sclass = SponsorClass(raw_class)
        except ValueError:
            raise SchemaError(
                fname, line, "sponsor_class",
                f"expected industry/non_industry, got {row['sponsor_class']!r}",
            ) from None
        try:
            enrollment = int(row["enrollment"])
        except ValueError:
            raise SchemaError(
                fname, line, "enrollment", f"expected integer, got {row['enrollment']!r}"
            ) from None
        if enrollment < 0:
            raise SchemaError(fname, line, "enrollment", "enrollment must be >= 0")
        start = _parse_date(row["start_date"], fname, line, "start_date")
        completion = _parse_date(row["completion_date"], fname, line, "completion_date")
        if start != NO_DATE and completion != NO_DATE and start > completion:
            raise SchemaError(fname, line, "completion_date", "completion before start")
        if sclass is not SponsorClass.INDUSTRY and cols.sponsor_key(sponsor) in ranked:
            raise SchemaError(
                fname, line, "sponsor_class",
                f"sponsor {sponsor!r} is ranked but classed non_industry",
            )
        cols.add_trial(
            tid,
            phase=_PHASES.get(row["phase"].strip().casefold(), Phase.OTHER),
            sponsor_name=sponsor,
            industry=sclass is SponsorClass.INDUSTRY,
            interventions=_parse_interventions(row["interventions"]),
            mesh=(t.strip() for t in row["mesh_conditions"].split(";") if t.strip()),
            start=start,
            completion=completion,
            enrollment=enrollment,
            placebo=_parse_bool(row["placebo_comparator"], fname, line, "placebo_comparator"),
            superiority=(row["study_type"].strip().casefold()
                         == StudyType.INTERVENTIONAL_SUPERIORITY.value),
        )

    dangling: list[str] = []
    fname = str(outcomes_csv)
    for line, row in _read_rows(outcomes_csv, OUTCOMES_COLUMNS):
        tid = row["trial_id"].strip()
        trial = cols.row_of.get(tid)
        if trial is None:
            dangling.append(f"{fname}:{line} -> {tid!r}")
            continue
        raw_rank = row["outcome_rank"].strip().casefold()
        try:
            rank = OutcomeRank(raw_rank)
        except ValueError:
            raise SchemaError(
                fname, line, "outcome_rank",
                f"expected primary/secondary, got {row['outcome_rank']!r}",
            ) from None
        kind = row["p_kind"].strip().casefold()
        if kind not in ("exact", "lt", "gt"):
            raise SchemaError(
                fname, line, "p_kind", f"expected exact/lt/gt, got {row['p_kind']!r}"
            )
        try:
            pval = float(row["p_value"])
        except ValueError:
            raise SchemaError(
                fname, line, "p_value", f"expected number, got {row['p_value']!r}"
            ) from None
        try:
            rp = ReportedP(kind, pval)
        except ValueError as exc:
            raise SchemaError(fname, line, "p_value", str(exc)) from None
        cols.add_outcome(
            trial, rank, rp, _parse_bool(row["mht_adjusted"], fname, line, "mht_adjusted")
        )
    if dangling:
        raise ValueError(
            "outcome rows reference absent trials:\n  " + "\n  ".join(dangling)
        )

    return cols.build(rankings)


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
