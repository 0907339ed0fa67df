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

from .registry import NO_DATE, Phase, Ragged, Registry, SponsorClass, Trials

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
    # every dosage pattern starts with whitespace
    changed = _WS.search(out) is not None
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


def _offsets(keys: np.ndarray, n: int) -> np.ndarray:
    """The row offsets of elements sorted by their row ``keys`` in ``range(n)``."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))


def _owners(rows: Ragged) -> np.ndarray:
    """The row of every element of ``rows``."""
    return np.repeat(np.arange(len(rows.offsets) - 1), np.diff(rows.offsets))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, ascending: ``np.unique``, which without
    ``return_*`` arguments would import ``numpy.ma``."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _match(t: Trials, drug: np.ndarray, n_drugs: int, mesh: list[frozenset[str]],
           seekers: np.ndarray, pool: np.ndarray) -> Ragged:
    """The codes of the trials of ``pool`` matched to each trial code,
    ascending, for the phase II trials ``seekers``, given the canonical drug
    code of every drug name and the cleaned terms of every MeSH set.

    A pool trial lists the canonical drugs of all its combinations.  The
    pool trials that list every drug of a combination are the trials on the
    rarest drug's list that list the others too; they are joined to the
    seekers through the combination codes, and each pair found must pass
    the start-date test and, once per distinct pair of MeSH sets, the MeSH
    subset test."""
    # every combination as its distinct canonical drugs
    pairs = _distinct(_owners(t.combos) * n_drugs + drug[t.combos.values])
    combo_drugs = Ragged(_offsets(pairs // n_drugs, len(t.combos.offsets) - 1), pairs % n_drugs)
    # the (pool trial, canonical drug) pairs listed, as sorted keys
    inter = t.interventions.take(pool)
    listed_drugs = combo_drugs.take(inter.values)
    trial = pool[_owners(inter)][_owners(listed_drugs)]
    listed = _distinct(trial * n_drugs + listed_drugs.values)
    # each drug's list of pool trials, ascending
    by_drug = np.argsort(listed % n_drugs, kind="stable")
    lists = Ragged(_offsets(listed % n_drugs, n_drugs), listed[by_drug] // n_drugs)

    # the combinations of the seekers -> the pool trials listing all its drugs
    inter = t.interventions.take(seekers)
    used = _distinct(inter.values)
    need = combo_drugs.take(used)
    rarest = np.lexsort((np.diff(lists.offsets)[need.values], _owners(need)))
    cand = lists.take(need.values[rarest[need.offsets[:-1]]])
    cand_combo = _owners(cand)
    check = need.take(cand_combo)
    key = cand.values[_owners(check)] * n_drugs + check.values
    found = np.append(listed, -1)[np.searchsorted(listed, key)] == key
    whole = np.bincount(_owners(check)[~found], minlength=len(cand.values)) == 0
    matches = Ragged(_offsets(cand_combo[whole], len(used)), cand.values[whole])

    hits = matches.take(np.searchsorted(used, inter.values))
    p2, p3 = seekers[_owners(inter)][_owners(hits)], hits.values
    keep = (t.start[p3] != NO_DATE) & (t.start[p2] < t.start[p3])
    p2, p3 = p2[keep], p3[keep]
    n_sets = len(mesh)
    set_pairs, pair = np.unique(t.mesh[p2].astype(np.int64) * n_sets + t.mesh[p3],
                                return_inverse=True)
    subset = np.array([mesh[k // n_sets] <= mesh[k % n_sets] for k in set_pairs.tolist()],
                      dtype=bool)
    p2, p3 = p2[subset[pair]], p3[subset[pair]]
    pairs = _distinct(p2.astype(np.int64) * len(t) + p3)
    return Ragged(_offsets(pairs // len(t), len(t)), (pairs % len(t)).astype(np.int32))


_SKIP_REASONS = ("", "no_intervention", "no_completion_date", "completed_after_cutoff")


def _by_first_appearance(codes: np.ndarray) -> list[int]:
    """The distinct codes in order of first appearance."""
    distinct, first = np.unique(codes, return_index=True)
    return distinct[np.argsort(first)].tolist()


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
    canonical: dict[str, int] = {}
    drug = np.array([canonical.setdefault(canonical_drug(d, synonyms), len(canonical))
                     for d in t.drug_names.tolist()], dtype=np.int64)
    term = [_clean_term(m, stop) for m in t.mesh_terms.tolist()]
    mesh = [frozenset(term[m] for m in row) - {None} for row in t.mesh_sets.rows()]

    phase2 = t.order[t.phase[t.order] == Phase.PHASE2.value]
    completion = t.completion[phase2]
    reason = np.select(
        [np.diff(t.interventions.offsets)[phase2] == 0, completion == NO_DATE,
         completion > completion_cutoff.toordinal()], [1, 2, 3], 0)
    eligible = reason == 0
    seekers = phase2[eligible & (t.start[phase2] != NO_DATE)]
    pool = np.flatnonzero(t.phase == Phase.PHASE3.value)
    found = _match(t, drug, len(canonical), mesh, seekers, pool).take(phase2)
    continued = np.diff(found.offsets) > 0

    summary = LinkSummary(n_phase2=len(phase2), n_eligible=int(eligible.sum()),
                          n_continued=int(continued.sum()))
    skips = np.bincount(reason, minlength=len(_SKIP_REASONS))
    summary.skip_counts = {_SKIP_REASONS[r]: int(skips[r])
                           for r in _by_first_appearance(reason) if r}
    industry = t.industry[phase2[eligible]].astype(np.intp)
    n_el = np.bincount(industry, minlength=2)
    n_cont = np.bincount(industry[continued[eligible]], minlength=2)
    classes = (SponsorClass.NON_INDUSTRY.value, SponsorClass.INDUSTRY.value)
    summary.by_sponsor_class = {classes[i]: (int(n_el[i]), int(n_cont[i]))
                                for i in _by_first_appearance(industry)}
    codes, reason = np.unique(reason, return_inverse=True)
    skip_reason = np.array([_SKIP_REASONS[c] for c in codes.tolist()], dtype=str)[reason]
    return Links(t.ids, phase2, skip_reason, found.offsets, found.values), summary
