"""The row-at-a-time ingest: each CSV record read, validated and appended to
the registry one at a time, every check of a record before the next record.
It is the test oracle for the columnar :func:`trialscope.registry.ingest`,
which must build the same registry and raise the same error."""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from trialscope.registry import (
    NO_DATE,
    OUTCOMES_COLUMNS,
    RANK_CRITERIA,
    RANKINGS_COLUMNS,
    TRIALS_COLUMNS,
    OutcomeRank,
    Outcomes,
    Phase,
    Ragged,
    Registry,
    ReportedP,
    SchemaError,
    SponsorClass,
    StudyType,
    Trials,
    assign_condition_category,
    canonical_sponsor,
)

_PHASES = {"phase2": Phase.PHASE2, "phase3": Phase.PHASE3}
_BOOLS = {"true": True, "false": False, "1": True, "0": False}
# the largest enrollment an int64 column holds
_MAX_ENROLLMENT = 2**63 - 1


def _ragged(rows: Sequence[Sequence[int]]) -> Ragged:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    values = np.fromiter((v for r in rows for v in r), dtype=np.int32, count=offsets[-1])
    return Ragged(offsets, values)


def _coded(labels: Sequence[str], code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vocabulary, recode = np.unique(np.array(labels, dtype=str), return_inverse=True)
    return vocabulary, recode.astype(np.int32)[code]


class RowBuilder:
    """The columns of a registry under construction, one trial and one
    outcome at a time in registry order."""

    def __init__(self) -> None:
        self.row_of: dict[str, int] = {}
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
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = canonical_sponsor(name)
        return key

    def add_trial(
        self, trial_id: str, phase: Phase, sponsor_name: str, industry: bool,
        interventions: Iterable[Iterable[str]], mesh: Iterable[str], start: int,
        completion: int, enrollment: int, placebo: bool, superiority: bool,
    ) -> int:
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
        self._outcomes.append((row, rank.value, p.kind, p.value, mht))

    def build(self, rankings: Mapping[str, Mapping[str, int]]) -> Registry:
        (ids, phase, names, industry, mesh, start, completion, enrollment, placebo,
         superiority) = zip(*self._trials) if self._trials else ((),) * 10
        ids = np.array(ids, dtype=str)
        by_code = np.argsort(ids, kind="stable")
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
            interventions=_ragged([self._interventions[r] for r in by_code.tolist()]),
            mesh=mesh, condition=condition, year=year,
            start=col(start, np.int64), completion=completion,
            enrollment=col(enrollment, np.int64), placebo=col(placebo, bool),
            superiority=col(superiority, bool), sponsor_keys=sponsor_keys,
            combos=_ragged(combos), drug_names=np.array(list(self._drugs), dtype=str),
            mesh_sets=_ragged(mesh_sets), mesh_terms=np.array(list(self._terms), dtype=str),
            conditions=conditions, years=years,
        )
        rows, rank, kind, value, mht = zip(*self._outcomes) if self._outcomes else ((),) * 5
        outcomes = Outcomes(code[np.array(rows, dtype=np.int64)], np.array(rank, dtype=str),
                            np.array(kind, dtype=str), np.array(value, dtype=float),
                            np.array(mht, dtype=bool))
        return Registry(trials, outcomes, rankings)


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
    """Load a registry extract from CSV files, one record at a time."""
    trials_csv, outcomes_csv = Path(trials_csv), Path(outcomes_csv)
    cols = RowBuilder()

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
        if enrollment > _MAX_ENROLLMENT:
            raise SchemaError(fname, line, "enrollment", f"enrollment must be <= {_MAX_ENROLLMENT}")
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
