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
from typing import Iterable, Mapping, Sequence

from .registry import Phase, Registry, TrialRecord

__all__ = [
    "LinkResult",
    "LinkSummary",
    "canonical_drug",
    "load_synonyms",
    "build_synonym_map",
    "link_all",
    "restrict_links",
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


@dataclass(frozen=True)
class LinkResult:
    phase2_id: str
    matched_phase3_ids: frozenset[str]
    skip_reason: str = ""  # empty when the trial was eligible for linking

    @property
    def continued(self) -> bool:
        return len(self.matched_phase3_ids) >= 1

    @property
    def eligible(self) -> bool:
        return self.skip_reason == ""


def restrict_links(
    link_results: Iterable[LinkResult], trial_ids: frozenset[str] | set[str]
) -> list[LinkResult]:
    """The links of the phase II trials in ``trial_ids``, each match set cut
    down to the phase III trials in ``trial_ids``.  Matching is pairwise,
    so this equals linking those trials alone."""
    return [
        r if r.matched_phase3_ids <= trial_ids
        else replace(r, matched_phase3_ids=r.matched_phase3_ids & trial_ids)
        for r in link_results if r.phase2_id in trial_ids
    ]


@dataclass
class LinkSummary:
    n_phase2: int = 0
    n_eligible: int = 0
    n_continued: int = 0
    skip_counts: dict = field(default_factory=dict)
    by_sponsor_class: dict = field(default_factory=dict)

    def continuation_rate(self) -> float:
        return self.n_continued / self.n_eligible if self.n_eligible else float("nan")


def _clean_mesh(terms: frozenset[str], stoplist: frozenset[str]) -> frozenset[str]:
    out = set()
    for t in terms:
        name = t.split(":", 1)[-1] if ":" in t else t
        if _basic_norm(name) in stoplist:
            continue
        out.add(_WS.sub(" ", t.strip()).casefold())
    return frozenset(out)


def _link_indexed(
    phase2: TrialRecord,
    pool_feats: list[tuple],
    drug_index: Mapping[str, list[int]],
    synonyms: Mapping[str, str] | None,
    stop: frozenset[str],
    completion_cutoff: date,
) -> LinkResult:
    """Match one phase II trial against a pre-indexed phase III pool:
    candidate phase III trials are narrowed through an inverted drug index
    first.  Ineligible phase II trials (no curated intervention, missing or
    late completion) come back with a skip reason and no matches."""
    if not phase2.interventions:
        return LinkResult(phase2.trial_id, frozenset(), "no_intervention")
    if phase2.completion_date is None:
        return LinkResult(phase2.trial_id, frozenset(), "no_completion_date")
    if phase2.completion_date > completion_cutoff:
        return LinkResult(phase2.trial_id, frozenset(), "completed_after_cutoff")
    if phase2.start_date is None:
        return LinkResult(phase2.trial_id, frozenset())

    mesh2 = _clean_mesh(phase2.mesh_conditions, stop)
    matched: set[str] = set()
    for combo in phase2.interventions:
        drugs = [canonical_drug(d, synonyms) for d in combo]
        if not drugs:
            continue
        # candidates must list every drug; start from the rarest
        cand_lists = [drug_index.get(d) for d in drugs]
        if any(c is None for c in cand_lists):
            continue
        cand = set(min(cand_lists, key=len))
        for c in cand_lists:
            cand &= set(c)
        for idx in cand:
            tid, start3, mesh3 = pool_feats[idx]
            if start3 is None or not phase2.start_date < start3:
                continue
            if mesh2 <= mesh3:
                matched.add(tid)
    return LinkResult(phase2.trial_id, frozenset(matched))


def link_all(
    reg: Registry,
    synonyms: Mapping[str, str] | None = None,
    mesh_stoplist: frozenset[str] = DEFAULT_MESH_STOPLIST,
    completion_cutoff: date = LINK_COMPLETION_CUTOFF,
) -> tuple[list[LinkResult], LinkSummary]:
    """Link every phase II trial in the registry; summary reports
    continuation rates overall and by sponsor class (eligible trials only)."""
    stop = frozenset(_basic_norm(s) for s in mesh_stoplist)
    pool_feats: list[tuple] = []
    drug_index: dict[str, list[int]] = {}
    for t in reg.trials.values():
        if t.phase is not Phase.PHASE3:
            continue
        idx = len(pool_feats)
        pool_feats.append(
            (t.trial_id, t.start_date, _clean_mesh(t.mesh_conditions, stop))
        )
        for d in t.listed_drugs():
            drug_index.setdefault(canonical_drug(d, synonyms), []).append(idx)

    results: list[LinkResult] = []
    summary = LinkSummary()
    for t in reg.trials.values():
        if t.phase is not Phase.PHASE2:
            continue
        res = _link_indexed(
            t, pool_feats, drug_index, synonyms, stop, completion_cutoff
        )
        results.append(res)
        summary.n_phase2 += 1
        if not res.eligible:
            summary.skip_counts[res.skip_reason] = (
                summary.skip_counts.get(res.skip_reason, 0) + 1
            )
            continue
        summary.n_eligible += 1
        summary.n_continued += res.continued
        cls = t.sponsor_class.value
        n_el, n_cont = summary.by_sponsor_class.get(cls, (0, 0))
        summary.by_sponsor_class[cls] = (n_el + 1, n_cont + int(res.continued))
    return results, summary


def write_links_csv(results: Sequence[LinkResult], path: str | Path) -> None:
    """One row per matched (phase II, phase III) pair."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["phase2_id", "phase3_id"])
        for r in results:
            for p3 in sorted(r.matched_phase3_ids):
                w.writerow([r.phase2_id, p3])


def write_links_summary_csv(results: Sequence[LinkResult], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["phase2_id", "continued", "n_matches", "skip_reason"])
        for r in results:
            w.writerow(
                [
                    r.phase2_id,
                    "true" if r.continued else "false",
                    len(r.matched_phase3_ids),
                    r.skip_reason,
                ]
            )
