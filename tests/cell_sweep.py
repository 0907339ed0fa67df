"""The point decomposition on the public design path, and the sponsor
sweep built from it cell by cell.

:func:`point` fits the selection logit on ``build_design``, takes the
phase samples of ``phase_scores``, the bandwidth of each sample's precise
z and the shares of ``censored_aware_share`` and ``counterfactual_share``:
none of the pinned phase rows, phase samples or refit matrices that
:func:`trialscope.decompose.decompose` and
:func:`trialscope.decompose.sponsor_split_sweep` run on.  It is the test
oracle for both, which must give the same numbers, error texts included."""

from __future__ import annotations

import numpy as np

from trialscope.decompose import (
    SHARE_KEYS,
    _auto_bandwidth,
    censored_aware_share,
    counterfactual_share,
    phase_scores,
)
from trialscope.linker import Links
from trialscope.pz import Z_SIG, OutcomeTable, ZKind
from trialscope.registry import OutcomeRank, Phase
from trialscope.selection import SelectionModel, build_design, fit_logit


def point(
    table: OutcomeTable,
    links: Links,
    model: SelectionModel | None = None,
    cutoff: float = Z_SIG,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
) -> dict:
    """The shares, differences, sample sizes and bandwidths of the point
    decomposition of ``table``: the fields of ``decompose(table, links,
    model, bootstrap_reps=0, ...)`` that carry numbers."""
    if model is None:
        model = fit_logit(build_design(table, links, outcome_rank))
    ph2 = phase_scores(table, Phase.PHASE2, outcome_rank)
    ph3 = phase_scores(table, Phase.PHASE3, outcome_rank)
    h2, h3 = (_auto_bandwidth(d.z[d.kind == ZKind.PRECISE.value]) for d in (ph2, ph3))
    s_sc = counterfactual_share(ph2, model, cutoff, h2)
    s_ph2 = censored_aware_share(ph2.kind, ph2.share_z, np.ones(ph2.n_obs), cutoff, h2)
    s_ph3 = censored_aware_share(ph3.kind, ph3.share_z, np.ones(ph3.n_obs), cutoff, h3)
    return {
        "shares": {"ph2": s_ph2, "ph3": s_ph3, "ph2_sc": s_sc},
        "diffs": {
            "ph3_minus_ph2": s_ph3 - s_ph2,
            "ph3_minus_ph2_sc": s_ph3 - s_sc,
            "ph2_sc_minus_ph2": s_sc - s_ph2,
        },
        "n_obs": {"ph2": ph2.n_obs, "ph3": ph3.n_obs},
        "n_trials": {"ph2": ph2.n_trials, "ph3": ph3.n_trials},
        "bandwidths": {"ph2": h2, "ph3": h3},
    }


def sponsor_split_sweep(
    table: OutcomeTable,
    links: Links,
    splits,
    cutoff: float = Z_SIG,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
    min_gap: float = 1e-3,
) -> list[dict]:
    """Explained fraction (ph2_sc - ph2) / (ph3 - ph2) for Large and Small
    groups under every sponsor-split definition, one :func:`point` of a
    table subset and its links cut down to its trials per distinct cell."""
    links.check(table.trials.ids)
    rows: list[dict] = []
    cache: dict[tuple, dict] = {}
    for split in splits:
        for group in ("Large", "Small"):
            trials = table.group_mask(split, group)
            key = (group, trials.tobytes())
            if key not in cache:
                try:
                    rep = point(table.subset(trials[table.trial_code]), links.within(trials),
                                cutoff=cutoff, outcome_rank=outcome_rank)
                    gap, explained = rep["diffs"]["ph3_minus_ph2"], rep["diffs"]["ph2_sc_minus_ph2"]
                    flat = abs(gap) < min_gap
                    cell = {
                        **{k: rep["shares"][k] for k in SHARE_KEYS},
                        "explained_fraction": None if flat else explained / gap,
                        "error": "degenerate: phase gap below threshold" if flat else "",
                    }
                except (ValueError, RuntimeError) as exc:
                    cell = {**dict.fromkeys(SHARE_KEYS), "explained_fraction": None,
                            "error": str(exc)}
                cache[key] = cell
            rows.append(
                {"criterion": split.criterion, "k": split.k, "group": group, **cache[key]}
            )
    return rows
