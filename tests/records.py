"""Per-trial record views of the columnar registry, for tests: trials built
by hand, the trials of a registry one at a time, trial columns with given
selection regressors, and registry equality."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from datetime import date
from typing import Sequence

import numpy as np

from trialscope.registry import NO_DATE, Phase, Ragged, Registry, Trials, build_registry


@dataclass(frozen=True)
class Trial:
    trial_id: str
    phase: Phase
    # each entry is one drug combination
    interventions: tuple[frozenset[str], ...]
    mesh_conditions: frozenset[str]
    start_date: date | None
    completion_date: date | None
    sponsor_name: str = "Acme Pharma"

    def listed_drugs(self) -> frozenset[str]:
        """Union of all intervention entries (the phase III match target)."""
        return frozenset().union(*self.interventions)


def _date(ordinal: int) -> date | None:
    return None if ordinal == NO_DATE else date.fromordinal(ordinal)


def _ordinal(d: date | None) -> int:
    return NO_DATE if d is None else d.toordinal()


def records(reg: Registry) -> dict[str, Trial]:
    """The trials of ``reg`` by id, in registry order."""
    t = reg.trials
    drugs, terms = t.drug_names.tolist(), t.mesh_terms.tolist()
    combos = [frozenset(drugs[d] for d in row) for row in t.combos.rows()]
    mesh = [frozenset(terms[m] for m in row) for row in t.mesh_sets.rows()]
    interventions = t.interventions.rows()
    out = {}
    for c in t.order.tolist():
        out[str(t.ids[c])] = Trial(
            trial_id=str(t.ids[c]),
            phase=Phase(t.phase[c]),
            interventions=tuple(combos[k] for k in interventions[c]),
            mesh_conditions=mesh[t.mesh[c]],
            start_date=_date(int(t.start[c])),
            completion_date=_date(int(t.completion[c])),
            sponsor_name=str(t.sponsor_name[c]),
        )
    return out


def _trial_columns(n: int, **columns) -> dict:
    """Trial columns of ``n`` industry superiority trials with a placebo
    arm, enrolling 100, with no interventions, MeSH terms or dates, and the
    given ``columns`` instead."""
    return {"phase": [Phase.PHASE2.value] * n, "sponsor_name": ["Acme Pharma"] * n,
            "industry": [True] * n, "interventions": [""] * n, "mesh": [""] * n,
            "start": [NO_DATE] * n, "completion": [NO_DATE] * n, "enrollment": [100] * n,
            "placebo": [True] * n, "superiority": [True] * n, **columns}


_NO_OUTCOMES = {"trial": [], "rank": [], "p_kind": [], "p_value": [], "mht": []}


def registry_of(trials: Sequence[Trial]) -> Registry:
    """A registry of hand-built industry trials, in the given order, with
    no outcomes or rankings."""
    columns = _trial_columns(
        len(trials), ids=[t.trial_id for t in trials], phase=[t.phase.value for t in trials],
        sponsor_name=[t.sponsor_name for t in trials],
        interventions=[";".join("+".join(sorted(c)) for c in t.interventions) for t in trials],
        mesh=[";".join(sorted(t.mesh_conditions)) for t in trials],
        start=[_ordinal(t.start_date) for t in trials],
        completion=[_ordinal(t.completion_date) for t in trials])
    return build_registry(columns, _NO_OUTCOMES, {})


def coded_trials(enrollment, placebo, condition, year) -> Trials:
    """Industry phase II trials coded 0, 1, ... with the given enrollment,
    placebo flag, condition category and completion year names, one each."""
    enrollment = np.asarray(enrollment).tolist()
    columns = _trial_columns(len(enrollment), ids=[f"T{i:07d}" for i in range(len(enrollment))],
                             enrollment=enrollment, placebo=np.asarray(placebo, dtype=bool))
    conditions, cond = np.unique(np.asarray(condition, dtype=str), return_inverse=True)
    years, yr = np.unique(np.asarray(year, dtype=str), return_inverse=True)
    return replace(build_registry(columns, _NO_OUTCOMES, {}).trials,
                   condition=cond.astype(np.int32), conditions=conditions,
                   year=yr.astype(np.int32), years=years)


def columns(reg: Registry) -> dict[str, np.ndarray]:
    """Every column of ``reg``, the compressed ones split in two."""
    out = {}
    for part in (reg.trials, reg.outcomes):
        for f in fields(part):
            value = getattr(part, f.name)
            if isinstance(value, Ragged):
                out[f"{f.name}.offsets"], out[f"{f.name}.values"] = value.offsets, value.values
            else:
                out[f.name] = value
    return out


def assert_same_registry(a: Registry, b: Registry) -> None:
    """Assert that two registries hold equal columns and rankings."""
    ca, cb = columns(a), columns(b)
    assert ca.keys() == cb.keys()
    for name in ca:
        assert ca[name].dtype.kind == cb[name].dtype.kind, name
        assert np.array_equal(ca[name], cb[name]), name
    assert a.rankings == b.rankings
