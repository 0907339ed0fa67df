"""Domain types, CSV ingestion, and sample-restriction filters.

The registry is an immutable snapshot of a trial-registry extract: trial
protocol records, reported outcome p-values, and sponsor size rankings.
Everything downstream (transforms, linking, selection fitting) reads from
it concurrently without locks.
"""

from __future__ import annotations

import csv
import enum
import re
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Phase",
    "SponsorClass",
    "StudyType",
    "OutcomeRank",
    "ReportedP",
    "TrialRecord",
    "OutcomeResult",
    "Registry",
    "SponsorSplit",
    "FilterAudit",
    "SchemaError",
    "RANK_CRITERIA",
    "CONDITION_CATEGORIES",
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


@dataclass(frozen=True)
class TrialRecord:
    trial_id: str
    phase: Phase
    sponsor_name: str
    sponsor_class: SponsorClass
    # criterion -> rank; nonempty only for industry sponsors
    industry_rank_keys: Mapping[str, int]
    # each entry is one drug combination; phase II entries are curated
    # main-intervention sets, phase III entries are listed interventions
    interventions: tuple[frozenset[str], ...]
    mesh_conditions: frozenset[str]
    condition_category: str
    start_date: date | None
    completion_date: date | None
    enrollment: int
    placebo_comparator: bool
    study_type: StudyType

    def __post_init__(self) -> None:
        if self.enrollment < 0:
            raise ValueError(f"{self.trial_id}: negative enrollment")
        if (
            self.start_date is not None
            and self.completion_date is not None
            and self.start_date > self.completion_date
        ):
            raise ValueError(f"{self.trial_id}: start date after completion date")
        if self.industry_rank_keys and self.sponsor_class is not SponsorClass.INDUSTRY:
            raise ValueError(f"{self.trial_id}: rank keys on a non-industry sponsor")

    def listed_drugs(self) -> frozenset[str]:
        """Union of all intervention entries (the phase III match target)."""
        out: set[str] = set()
        for combo in self.interventions:
            out |= combo
        return frozenset(out)


@dataclass(frozen=True)
class OutcomeResult:
    trial_id: str
    outcome_rank: OutcomeRank
    raw_p: ReportedP
    mht_adjusted: bool


@dataclass(frozen=True)
class Registry:
    """Immutable collection of trials, outcomes, and sponsor rankings."""

    trials: Mapping[str, TrialRecord]
    outcomes: tuple[OutcomeResult, ...]
    rankings: Mapping[str, Mapping[str, int]]  # criterion -> canonical name -> rank

    def trial(self, trial_id: str) -> TrialRecord:
        return self.trials[trial_id]

    def filter_trials(self, keep: Callable[[TrialRecord], bool]) -> "Registry":
        """New registry with only the trials passing ``keep`` (and their
        outcomes)."""
        trials = {tid: t for tid, t in self.trials.items() if keep(t)}
        outcomes = tuple(o for o in self.outcomes if o.trial_id in trials)
        return Registry(trials=trials, outcomes=outcomes, rankings=self.rankings)

    def n_trials(self) -> int:
        return len(self.trials)

    @cached_property
    def trial_ids(self) -> np.ndarray:
        """The trial ids in sorted order, shared by the registry's tables
        and links as their trial coding."""
        return np.array(sorted(self.trials), dtype=str)

    def trial_codes(self) -> dict[str, int]:
        """The code of each trial: its index in :attr:`trial_ids`."""
        return {tid: i for i, tid in enumerate(self.trial_ids.tolist())}


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
# Sponsor-name handling

_WS = re.compile(r"\s+")

_parent_map: dict[str, str] | None = None


def _data_path(name: str):
    return resources.files("trialscope._data").joinpath(name)


def _load_parent_map() -> dict[str, str]:
    global _parent_map
    if _parent_map is None:
        m: dict[str, str] = {}
        with _data_path("sponsor_parents.csv").open(encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                m[_normalize_name(row["subsidiary"])] = row["parent"].strip()
        _parent_map = m
    return _parent_map


def _normalize_name(name: str) -> str:
    return _WS.sub(" ", name.strip()).casefold()


def canonical_sponsor(name: str, parents: Mapping[str, str] | None = None) -> str:
    """Case-insensitive, whitespace-collapsed sponsor key, with known
    subsidiaries folded into their parent."""
    norm = _normalize_name(name)
    table = _load_parent_map() if parents is None else {
        _normalize_name(k): v for k, v in parents.items()
    }
    parent = table.get(norm)
    return _normalize_name(parent) if parent is not None else norm


# ---------------------------------------------------------------------------
# Condition categories

_CODE_PREFIX = re.compile(r"^([A-Z]\d{2})\s*:")


def _load_categories() -> tuple[dict[str, float], dict[str, set[str]]]:
    spending: dict[str, float] = {}
    with _data_path("condition_categories.csv").open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            spending[row["code"].strip()] = float(row["medicare_d_spending_bn"])
    term_codes: dict[str, set[str]] = {}
    with _data_path("mesh_terms.csv").open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            term_codes.setdefault(_normalize_name(row["term"]), set()).add(
                row["code"].strip()
            )
    return spending, term_codes


_CATEGORY_SPENDING, _TERM_CODES = _load_categories()

CONDITION_CATEGORIES: Mapping[str, float] = dict(_CATEGORY_SPENDING)


def use_category_tables(
    categories_csv: str | Path | None = None,
    terms_csv: str | Path | None = None,
) -> None:
    """Replace the bundled condition-category tables with user-supplied
    CSVs (same columns as the packaged files); None leaves a table as is."""
    global _CATEGORY_SPENDING, _TERM_CODES
    if categories_csv is not None:
        spending: dict[str, float] = {}
        with open(categories_csv, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                spending[row["code"].strip()] = float(row["medicare_d_spending_bn"])
        _CATEGORY_SPENDING = spending
    if terms_csv is not None:
        term_codes: dict[str, set[str]] = {}
        with open(terms_csv, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                term_codes.setdefault(_normalize_name(row["term"]), set()).add(
                    row["code"].strip()
                )
        _TERM_CODES = term_codes


def use_sponsor_parents(path: str | Path) -> None:
    """Replace the bundled subsidiary-to-parent sponsor map."""
    global _parent_map
    m: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            m[_normalize_name(row["subsidiary"])] = row["parent"].strip()
    _parent_map = m

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


def assign_condition_category(
    mesh_conditions: Iterable[str],
    spending_override: Mapping[str, float] | None = None,
) -> str:
    """Assign a trial to one condition category from its MeSH terms.

    Terms may carry an explicit tree-code prefix ("C14:Hypertension") or be
    looked up in the bundled term table.  When terms match several
    categories the one with the largest Medicare D spending wins; no match
    returns "Other".
    """
    spending = dict(_CATEGORY_SPENDING)
    if spending_override:
        spending.update(spending_override)
    candidates: set[str] = set()
    for term in mesh_conditions:
        candidates |= _codes_for_term(term)
    if not candidates:
        return OTHER_CATEGORY
    return max(candidates, key=lambda c: (spending.get(c, 0.0), c))


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


def _parse_date(raw: str, file: str, line: int, column: str) -> date | None:
    raw = raw.strip()
    if not raw:
        return None
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise SchemaError(file, line, column, f"expected ISO date, got {raw!r}") from None


def _parse_interventions(raw: str) -> tuple[frozenset[str], ...]:
    entries = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        combo = frozenset(d.strip() for d in chunk.split("+") if d.strip())
        if combo:
            entries.append(combo)
    return tuple(entries)


def _check_header(reader: csv.DictReader, expected: Sequence[str], file: str) -> None:
    got = reader.fieldnames or []
    if list(got) != list(expected):
        raise SchemaError(file, 1, "<header>", f"expected columns {expected}, got {got}")


def _read_rows(path: Path, expected: Sequence[str]):
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        _check_header(reader, expected, str(path))
        for i, row in enumerate(reader, start=2):
            yield i, row


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
            key = canonical_sponsor(row["sponsor_name"])
            if key in rankings[crit]:
                raise SchemaError(
                    str(rankings_csv), line, "sponsor_name",
                    f"duplicate rank entry for {row['sponsor_name']!r} under {crit}",
                )
            rankings[crit][key] = rank

    trials: dict[str, TrialRecord] = {}
    fname = str(trials_csv)
    for line, row in _read_rows(trials_csv, TRIALS_COLUMNS):
        tid = row["trial_id"].strip()
        if not tid:
            raise SchemaError(fname, line, "trial_id", "empty trial id")
        if tid in trials:
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
        phase = _PHASES.get(row["phase"].strip().casefold(), Phase.OTHER)
        raw_type = row["study_type"].strip().casefold()
        study_type = (
            StudyType.INTERVENTIONAL_SUPERIORITY
            if raw_type == "interventional_superiority"
            else StudyType.OTHER
        )
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
        if start is not None and completion is not None and start > completion:
            raise SchemaError(fname, line, "completion_date", "completion before start")
        mesh = frozenset(
            t.strip() for t in row["mesh_conditions"].split(";") if t.strip()
        )
        key = canonical_sponsor(sponsor)
        ranks = {
            crit: table[key] for crit, table in rankings.items() if key in table
        }
        if ranks and sclass is not SponsorClass.INDUSTRY:
            raise SchemaError(
                fname, line, "sponsor_class",
                f"sponsor {sponsor!r} is ranked but classed non_industry",
            )
        trials[tid] = TrialRecord(
            trial_id=tid,
            phase=phase,
            sponsor_name=sponsor,
            sponsor_class=sclass,
            industry_rank_keys=ranks,
            interventions=_parse_interventions(row["interventions"]),
            mesh_conditions=mesh,
            condition_category=assign_condition_category(mesh),
            start_date=start,
            completion_date=completion,
            enrollment=enrollment,
            placebo_comparator=_parse_bool(
                row["placebo_comparator"], fname, line, "placebo_comparator"
            ),
            study_type=study_type,
        )

    outcomes: list[OutcomeResult] = []
    dangling: list[str] = []
    fname = str(outcomes_csv)
    for line, row in _read_rows(outcomes_csv, OUTCOMES_COLUMNS):
        tid = row["trial_id"].strip()
        if tid not in trials:
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
        outcomes.append(
            OutcomeResult(
                trial_id=tid,
                outcome_rank=rank,
                raw_p=rp,
                mht_adjusted=_parse_bool(row["mht_adjusted"], fname, line, "mht_adjusted"),
            )
        )
    if dangling:
        raise ValueError(
            "outcome rows reference absent trials:\n  " + "\n  ".join(dangling)
        )

    return Registry(trials=trials, outcomes=tuple(outcomes), rankings=rankings)


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
    audit = FilterAudit()
    excluded_key = canonical_sponsor(EXCLUDED_SPONSOR)

    def run_rule(r: Registry, rule: str, keep: Callable[[TrialRecord], bool], note: str) -> Registry:
        out = r.filter_trials(keep)
        audit.add(
            rule,
            trials_removed=r.n_trials() - out.n_trials(),
            outcomes_removed=len(r.outcomes) - len(out.outcomes),
            note=note,
        )
        return out

    reg = run_rule(
        reg, "drop_anomalous_sponsor",
        lambda t: canonical_sponsor(t.sponsor_name) != excluded_key,
        _COLGATE_NOTE,
    )
    reg = run_rule(
        reg, "drop_outlier_trial",
        lambda t: t.trial_id != EXCLUDED_TRIAL_ID,
        _OUTLIER_NOTE,
    )
    reg = run_rule(
        reg, "keep_interventional_superiority",
        lambda t: t.study_type is StudyType.INTERVENTIONAL_SUPERIORITY,
        "study type restriction",
    )
    reg = run_rule(
        reg, "keep_phase_2_3",
        lambda t: t.phase in (Phase.PHASE2, Phase.PHASE3),
        "phase restriction",
    )
    return reg, audit


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
    with _data_path("sponsor_rankings.csv").open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rankings[row["criterion"]][canonical_sponsor(row["sponsor_name"])] = int(row["rank"])
    return rankings


# ---------------------------------------------------------------------------
# Canonical serialization (round-trips bit-identically through ingest)

def _format_bool(v: bool) -> str:
    return "true" if v else "false"


def _format_interventions(entries: tuple[frozenset[str], ...]) -> str:
    return ";".join("+".join(sorted(combo)) for combo in entries)


def _format_float(x: float) -> str:
    return repr(float(x))


def write_trials_csv(reg: Registry, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRIALS_COLUMNS)
        for t in reg.trials.values():
            w.writerow(
                [
                    t.trial_id,
                    t.phase.value,
                    t.sponsor_name,
                    t.sponsor_class.value,
                    _format_interventions(t.interventions),
                    ";".join(sorted(t.mesh_conditions)),
                    t.start_date.isoformat() if t.start_date else "",
                    t.completion_date.isoformat() if t.completion_date else "",
                    t.enrollment,
                    _format_bool(t.placebo_comparator),
                    t.study_type.value,
                ]
            )


def write_outcomes_csv(reg: Registry, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(OUTCOMES_COLUMNS)
        for o in reg.outcomes:
            w.writerow(
                [
                    o.trial_id,
                    o.outcome_rank.value,
                    o.raw_p.kind,
                    _format_float(o.raw_p.value),
                    _format_bool(o.mht_adjusted),
                ]
            )


def write_rankings_csv(reg: Registry, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RANKINGS_COLUMNS)
        for criterion in RANK_CRITERIA:
            for name, rank in sorted(reg.rankings.get(criterion, {}).items(), key=lambda kv: kv[1]):
                w.writerow([name, criterion, rank])
