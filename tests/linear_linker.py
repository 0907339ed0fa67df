"""The linear linker: one phase II trial matched against every trial of a
pool, criterion by criterion.  It is the test oracle for the indexed
matching of :func:`trialscope.linker.link_all`."""

from __future__ import annotations

from datetime import date
from typing import Mapping, Sequence

from trialscope.linker import (
    DEFAULT_MESH_STOPLIST,
    LINK_COMPLETION_CUTOFF,
    _basic_norm,
    _clean_term,
    canonical_drug,
)
from trialscope.registry import Phase

from records import Trial


def _clean_mesh(terms: frozenset[str], stop: frozenset[str]) -> frozenset[str]:
    return frozenset(_clean_term(t, stop) for t in terms) - {None}


def link(
    phase2: Trial,
    phase3_pool: Sequence[Trial],
    synonyms: Mapping[str, str] | None = None,
    mesh_stoplist: frozenset[str] = DEFAULT_MESH_STOPLIST,
    completion_cutoff: date = LINK_COMPLETION_CUTOFF,
) -> tuple[str, frozenset[str]]:
    """Match one phase II trial against a pool of phase III trials: the
    skip reason ("" when eligible) and the ids of the matched trials.

    Ineligible phase II trials (no curated intervention, missing or late
    completion) come back with a skip reason and no matches.
    """
    if not phase2.interventions:
        return "no_intervention", frozenset()
    if phase2.completion_date is None:
        return "no_completion_date", frozenset()
    if phase2.completion_date > completion_cutoff:
        return "completed_after_cutoff", frozenset()

    stop = frozenset(_basic_norm(s) for s in mesh_stoplist)
    main_sets = [
        frozenset(canonical_drug(d, synonyms) for d in combo)
        for combo in phase2.interventions
    ]
    mesh2 = _clean_mesh(phase2.mesh_conditions, stop)

    matched = set()
    for cand in phase3_pool:
        if cand.phase is not Phase.PHASE3:
            continue
        if (
            phase2.start_date is None
            or cand.start_date is None
            or not phase2.start_date < cand.start_date
        ):
            continue
        if not mesh2 <= _clean_mesh(cand.mesh_conditions, stop):
            continue
        listed = frozenset(canonical_drug(d, synonyms) for d in cand.listed_drugs())
        if any(s <= listed for s in main_sets):
            matched.add(cand.trial_id)
    return "", frozenset(matched)
