"""Link early-phase trials to later-phase trials.

A phase II trial counts as continued when at least one registered phase
III trial matches it on intervention (every drug of at least one curated
main-intervention set appears among the phase III listed interventions,
up to synonyms), condition (MeSH terms of the phase II trial are a subset
of the phase III terms, ignoring a stoplist of generic terms), and timing
(strictly earlier start date).  Whether the phase III trial reports
results is irrelevant.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .registry import NO_DATE, Phase, Registry, SponsorClass

__all__ = [
    "Links",
    "LinkSummary",
    "canonical_drug",
    "load_synonyms",
    "build_synonym_map",
    "link_all",
    "DEFAULT_MESH_STOPLIST",
    "LINK_COMPLETION_CUTOFF",
]

# phase II trials must be completed by this date to have had a fair chance
# of a registered follow-up
LINK_COMPLETION_CUTOFF = date(2018, 12, 31)

DEFAULT_MESH_STOPLIST = frozenset({"disease", "syndrome"})

# trailing dosage/strength tokens stripped during drug-name canonicalization
_DOSAGE_PATTERNS = [
    re.compile(
        r"\s+\d+(?:\.\d+)?\s*(?:mg|mcg|ug|g|kg|iu|ml|l|%)"
        r"(?:\s*/\s*(?:kg|ml|l|day|dose|m2|week))?$"
    ),
    re.compile(r"\s+\d+(?:\.\d+)?\s*(?:mg|mcg|ug|g|iu)\s*/\s*\d+(?:\.\d+)?\s*(?:ml|l)$"),
    re.compile(r"\s+\(\s*\d+(?:\.\d+)?\s*(?:mg|mcg|ug|g|iu|ml|%)\s*\)$"),
]

_WS = re.compile(r"\s+")


def _basic_norm(name: str) -> str:
    out = _WS.sub(" ", name.strip()).casefold()
    changed = True
    while changed:
        changed = False
        for pat in _DOSAGE_PATTERNS:
            new = pat.sub("", out)
            if new != out:
                out, changed = new, True
    return out


def build_synonym_map(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Resolve (canonical, synonym) pairs into a normalized lookup where
    every chain ends at a self-mapping canonical name."""
    table: dict[str, str] = {}
    for canonical, synonym in pairs:
        c, s = _basic_norm(canonical), _basic_norm(synonym)
        table.setdefault(c, c)
        table[s] = c
    # collapse chains (synonym listed as canonical elsewhere)
    def resolve(key: str) -> str:
        seen = {key}
        while table.get(key, key) != key:
            key = table[key]
            if key in seen:
                break
            seen.add(key)
        return key

    return {k: resolve(k) for k in table}


def load_synonyms(path: str | Path) -> dict[str, str]:
    """Read a synonyms CSV (canonical_drug, synonym) into a lookup map."""
    pairs = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        expected = ["canonical_drug", "synonym"]
        if list(reader.fieldnames or []) != expected:
            raise ValueError(f"{path}: expected columns {expected}, got {reader.fieldnames}")
        for row in reader:
            pairs.append((row["canonical_drug"], row["synonym"]))
    return build_synonym_map(pairs)


def canonical_drug(name: str, synonyms: Mapping[str, str] | None = None) -> str:
    """Normalized drug key: lowercase, trimmed, dosage suffixes stripped,
    folded through the synonym map."""
    norm = _basic_norm(name)
    if synonyms:
        return synonyms.get(norm, norm)
    return norm


@dataclass(frozen=True, eq=False)
class Links:
    """The links of the phase II trials of a registry, on trial codes:
    indices into ``ids``, the registry's trial ids in sorted order.

    ``phase2`` holds the codes of the phase II trials in registry order and
    ``skip_reason`` why each was not eligible for linking ("" when it was).
    The codes of the phase III trials matched to ``phase2[i]`` are
    ``matched[offsets[i]:offsets[i + 1]]``, ascending.
    """

    ids: np.ndarray
    phase2: np.ndarray
    skip_reason: np.ndarray
    offsets: np.ndarray
    matched: np.ndarray

    @property
    def n_matches(self) -> np.ndarray:
        return np.diff(self.offsets)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The phase II and phase III codes of each matched pair, in
        ``phase2`` order and by ascending phase III code within a trial."""
        return np.repeat(self.phase2, self.n_matches), self.matched

    def check(self, ids: np.ndarray) -> None:
        """Raise ValueError unless ``ids`` codes the trials these links code
        (by identity for the shared ``Registry.trials.ids`` array)."""
        if not (ids is self.ids or np.array_equal(ids, self.ids)):
            raise ValueError("the links code the trials of another registry")

    def labels(self, ids: np.ndarray) -> np.ndarray:
        """Continuation label per trial of the coding ``ids``: 1.0 or 0.0 for
        phase II trials eligible for linking, NaN elsewhere."""
        self.check(ids)
        out = np.full(len(ids), np.nan)
        eligible = self.skip_reason == ""
        out[self.phase2[eligible]] = self.n_matches[eligible] > 0
        return out

    def within(self, trials: np.ndarray) -> "Links":
        """The links of the phase II trials in the trial mask ``trials``,
        each match list cut down to the trials in the mask.  Matching is
        pairwise, so this equals linking those trials alone."""
        if len(trials) != len(self.ids):
            raise ValueError("the trial mask codes the trials of another registry")
        keep = trials[self.phase2]
        owner = np.repeat(np.arange(len(self.phase2)), self.n_matches)
        hit = keep[owner] & trials[self.matched]
        counts = np.bincount(owner[hit], minlength=len(self.phase2))[keep]
        return replace(
            self, phase2=self.phase2[keep], skip_reason=self.skip_reason[keep],
            offsets=np.concatenate(([0], np.cumsum(counts))), matched=self.matched[hit],
        )


@dataclass
class LinkSummary:
    n_phase2: int = 0
    n_eligible: int = 0
    n_continued: int = 0
    skip_counts: dict = field(default_factory=dict)
    by_sponsor_class: dict = field(default_factory=dict)

    def continuation_rate(self) -> float:
        return self.n_continued / self.n_eligible if self.n_eligible else float("nan")


def _clean_term(term: str, stoplist: frozenset[str]) -> str | None:
    """The matching key of a MeSH term, None for a stoplisted one."""
    name = term.split(":", 1)[-1] if ":" in term else term
    if _basic_norm(name) in stoplist:
        return None
    return _WS.sub(" ", term.strip()).casefold()


def _link_indexed(
    drug_sets: list[frozenset[str]],
    code: int,
    start: list[int],
    mesh: list[frozenset[str]],
    drug_index: Mapping[str, list[int]],
) -> list[int]:
    """Ascending phase III codes matched to the phase II trial ``code``,
    eligible and with a start date, given its canonical drug combinations
    and every trial's start date and cleaned MeSH terms: candidate phase III
    trials are narrowed through an inverted drug index first."""
    matched: set[int] = set()
    for drugs in drug_sets:
        # candidates must list every drug; start from the rarest
        cand_lists = [drug_index.get(d) for d in drugs]
        if any(c is None for c in cand_lists):
            continue
        cand = set(min(cand_lists, key=len))
        for c in cand_lists:
            cand &= set(c)
        for c in cand:
            if start[c] != NO_DATE and start[code] < start[c] and mesh[code] <= mesh[c]:
                matched.add(c)
    return sorted(matched)


def link_all(
    reg: Registry,
    synonyms: Mapping[str, str] | None = None,
    mesh_stoplist: frozenset[str] = DEFAULT_MESH_STOPLIST,
    completion_cutoff: date = LINK_COMPLETION_CUTOFF,
) -> tuple[Links, LinkSummary]:
    """Link every phase II trial in the registry; summary reports
    continuation rates overall and by sponsor class (eligible trials only).

    A phase II trial with no curated intervention, no completion date or a
    completion after ``completion_cutoff`` is skipped with that reason; one
    with no start date is eligible and matches nothing."""
    t = reg.trials
    stop = frozenset(_basic_norm(s) for s in mesh_stoplist)
    drug = [canonical_drug(d, synonyms) for d in t.drug_names.tolist()]
    combos = [frozenset(drug[d] for d in row) for row in t.combos.rows()]
    term = [_clean_term(m, stop) for m in t.mesh_terms.tolist()]
    mesh_sets = [frozenset(term[m] for m in row) - {None} for row in t.mesh_sets.rows()]
    mesh = [mesh_sets[m] for m in t.mesh.tolist()]
    interventions = t.interventions.rows()
    phase, start, completion = t.phase.tolist(), t.start.tolist(), t.completion.tolist()

    drug_index: dict[str, list[int]] = {}  # canonical drug -> listing phase III codes
    for code in np.flatnonzero(t.phase == Phase.PHASE3.value).tolist():
        for d in frozenset().union(*(combos[c] for c in interventions[code])):
            drug_index.setdefault(d, []).append(code)

    cutoff = completion_cutoff.toordinal()
    phase2, reasons, offsets, matched = [], [], [0], []
    summary = LinkSummary()
    industry = t.industry.tolist()
    for code in t.order.tolist():
        if phase[code] != Phase.PHASE2.value:
            continue
        found: list[int] = []
        if not interventions[code]:
            reason = "no_intervention"
        elif completion[code] == NO_DATE:
            reason = "no_completion_date"
        elif completion[code] > cutoff:
            reason = "completed_after_cutoff"
        else:
            reason = ""
            if start[code] != NO_DATE:
                found = _link_indexed([combos[c] for c in interventions[code]], code,
                                      start, mesh, drug_index)
        phase2.append(code)
        reasons.append(reason)
        matched.extend(found)
        offsets.append(len(matched))
        summary.n_phase2 += 1
        if reason:
            summary.skip_counts[reason] = summary.skip_counts.get(reason, 0) + 1
            continue
        summary.n_eligible += 1
        summary.n_continued += bool(found)
        cls = (SponsorClass.INDUSTRY if industry[code] else SponsorClass.NON_INDUSTRY).value
        n_el, n_cont = summary.by_sponsor_class.get(cls, (0, 0))
        summary.by_sponsor_class[cls] = (n_el + 1, n_cont + int(bool(found)))
    links = Links(t.ids, np.array(phase2, dtype=np.int32),
                  np.array(reasons, dtype=str), np.array(offsets),
                  np.array(matched, dtype=np.int32))
    return links, summary
