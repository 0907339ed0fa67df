"""Counterfactual decomposition of the excess of significant results.

The share of significant results in each phase combines Epanechnikov KDE
mass of precisely reported z-scores above the threshold with censored
point masses, renormalized to one.  Reweighting the phase II sample by
predicted continuation probabilities gives the hypothetical share under
selective continuation alone; the gap between the actual later-phase
share and that counterfactual is the unexplained residual.  Uncertainty
comes from bootstrapping the whole procedure, resampling trials with all
their outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .density import epanechnikov_survival, sj_bandwidth, silverman_bandwidth
from .linker import LinkResult
from .pz import Z_SIG, OutcomeTable, ZKind, norm_sf
from .registry import OutcomeRank, Phase
from .selection import (
    SelectionDesign,
    SelectionModel,
    build_design,
    design_rows,
    fit_logit,
    link_labels,
    predict,
)

__all__ = [
    "DecompositionReport",
    "counterfactual_share",
    "decompose",
    "sponsor_split_sweep",
    "phase_scores",
    "censored_aware_share",
]

SHARE_KEYS = ("ph2", "ph3", "ph2_sc")
DIFF_KEYS = ("ph3_minus_ph2", "ph3_minus_ph2_sc", "ph2_sc_minus_ph2")


@dataclass
class DecompositionReport:
    shares: dict
    diffs: dict
    std_errs: dict
    n_obs: dict
    n_trials: dict
    bootstrap_reps: int
    dropped_reps: int = 0
    bandwidths: dict = field(default_factory=dict)

    def stars(self, key: str) -> str:
        se = self.std_errs.get(key, float("nan"))
        val = self.diffs.get(key, self.shares.get(key))
        if not (se and se > 0) or val is None or math.isnan(se):
            return ""
        p = 2.0 * norm_sf(abs(val) / se)
        return "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""


def censored_aware_share(
    kinds: np.ndarray,
    zvals: np.ndarray,
    weights: np.ndarray,
    cutoff: float,
    bandwidth: float,
) -> float:
    """Share at or above the cutoff: exact Epanechnikov KDE mass for the
    precise rows plus censored point masses, over the total weight.

    Censored rows count at their ``zvals`` entry: the censor bound for
    D1/D2 rows, the imputed value for other censors.
    """
    precise = kinds == ZKind.PRECISE.value
    w_p = float(weights[precise].sum())
    above = 0.0
    if w_p > 0:
        u = (cutoff - zvals[precise]) / bandwidth
        above += float(np.dot(weights[precise], epanechnikov_survival(u)))
    w_c, z_c = weights[~precise], zvals[~precise]
    if np.isnan(z_c).any():
        raise ValueError("censored rows need a bound or an imputed z")
    total = w_p + float(w_c.sum())
    above += float(w_c[z_c >= cutoff].sum())
    if total <= 0:
        raise ValueError("zero total mass in share computation")
    return above / total


def phase_scores(
    table: OutcomeTable,
    phase: Phase,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
) -> SelectionDesign:
    """Industry trial-outcome design rows for one phase, link labels unset
    (prediction/share sample, not a fitting sample)."""
    rows = table.industry & table.sample(phase, outcome_rank)
    return design_rows(table, rows, np.zeros(int(rows.sum())))


def _auto_bandwidth(z_precise: np.ndarray) -> float:
    if len(np.unique(z_precise)) >= 10:
        return float(sj_bandwidth(z_precise))
    if z_precise.size >= 2 and np.ptp(z_precise) > 0:
        return silverman_bandwidth(z_precise)
    return 0.5


def counterfactual_share(
    design: SelectionDesign,
    model: SelectionModel,
    cutoff: float = Z_SIG,
    bandwidth: float | None = None,
) -> float:
    """Share of significant results the later phase would show if only
    selective continuation were at work: phase II scores reweighted by
    predicted continuation probabilities, censored groups entering with
    their predicted counts."""
    w = predict(model, design)
    if float(w.sum()) <= 0:
        raise ValueError("all predicted weights are zero")
    if bandwidth is None:
        bandwidth = _auto_bandwidth(design.z[design.kind == ZKind.PRECISE.value])
    return censored_aware_share(design.kind, design.share_z, w, cutoff, bandwidth)


def _unit_share(design: SelectionDesign, cutoff: float, bandwidth: float) -> float:
    return censored_aware_share(
        design.kind, design.share_z, np.ones(design.n_obs), cutoff, bandwidth
    )


class _TrialIndex:
    """Row indices grouped by trial, for cluster resampling."""

    def __init__(self, design: SelectionDesign):
        tid = design.trial_id.astype(str)
        order = np.argsort(tid, kind="stable")
        sorted_tid = tid[order]
        ids, starts = np.unique(sorted_tid, return_index=True)
        bounds = np.append(starts, len(sorted_tid))
        self.n_trials = len(ids)
        self.groups = [order[bounds[i]:bounds[i + 1]] for i in range(self.n_trials)]

    def resample_rows(self, rng: np.random.Generator) -> np.ndarray:
        drawn = rng.integers(0, self.n_trials, size=self.n_trials)
        return np.concatenate([self.groups[j] for j in drawn])


def decompose(
    table: OutcomeTable,
    link_results: Sequence[LinkResult],
    model: SelectionModel | None = None,
    bootstrap_reps: int = 500,
    seed: int | None = None,
    cutoff: float = Z_SIG,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
    max_dropped_frac: float = 0.10,
) -> DecompositionReport:
    """Point decomposition plus trial-clustered bootstrap of the whole
    estimation procedure (selection refit, reweighting, share
    computation in every repetition)."""
    if model is None:
        model = fit_logit(build_design(table, link_results, outcome_rank=outcome_rank))
    ph2_design = phase_scores(table, Phase.PHASE2, outcome_rank)
    ph3_design = phase_scores(table, Phase.PHASE3, outcome_rank)

    h2 = _auto_bandwidth(ph2_design.z[ph2_design.kind == ZKind.PRECISE.value])
    h3 = _auto_bandwidth(ph3_design.z[ph3_design.kind == ZKind.PRECISE.value])

    def shares_given(ph2_d, ph3_d, mdl) -> tuple[float, float, float]:
        b2 = _auto_bandwidth(ph2_d.z[ph2_d.kind == ZKind.PRECISE.value])
        b3 = _auto_bandwidth(ph3_d.z[ph3_d.kind == ZKind.PRECISE.value])
        s_ph2 = _unit_share(ph2_d, cutoff, b2)
        s_ph3 = _unit_share(ph3_d, cutoff, b3)
        s_sc = counterfactual_share(ph2_d, mdl, cutoff, b2)
        return s_ph2, s_ph3, s_sc

    s_ph2, s_ph3, s_sc = shares_given(ph2_design, ph3_design, model)

    shares = {"ph2": s_ph2, "ph3": s_ph3, "ph2_sc": s_sc}
    diffs = {
        "ph3_minus_ph2": s_ph3 - s_ph2,
        "ph3_minus_ph2_sc": s_ph3 - s_sc,
        "ph2_sc_minus_ph2": s_sc - s_ph2,
    }

    std_errs = {k: float("nan") for k in (*SHARE_KEYS, *DIFF_KEYS)}
    dropped = 0
    if bootstrap_reps > 0:
        row_label = link_labels(ph2_design.trial_id, link_results)
        idx2 = _TrialIndex(ph2_design)
        idx3 = _TrialIndex(ph3_design)
        streams = np.random.SeedSequence(seed).spawn(bootstrap_reps)
        draws = np.full((bootstrap_reps, 6), np.nan)
        warm = dict(zip(model.names, model.coef))
        for r in range(bootstrap_reps):
            rng = np.random.default_rng(streams[r])
            try:
                rows2 = idx2.resample_rows(rng)
                ph2_r = ph2_design.subset(rows2)
                ph3_r = ph3_design.subset(idx3.resample_rows(rng))
                labels = row_label[rows2]
                keep = ~np.isnan(labels)
                fit_r = ph2_r.subset(np.where(keep)[0])
                # the resampled fitting rows keep their original labels
                fit_r.y = labels[keep]
                mdl_r = fit_logit(fit_r, warm_start=warm)
                if not mdl_r.converged:
                    dropped += 1
                    continue
                a, b, c = shares_given(ph2_r, ph3_r, mdl_r)
                draws[r] = (a, b, c, b - a, b - c, c - a)
            except (ValueError, np.linalg.LinAlgError, RuntimeError):
                dropped += 1
                continue
        if dropped > max_dropped_frac * bootstrap_reps:
            raise RuntimeError(
                f"{dropped}/{bootstrap_reps} bootstrap repetitions failed"
            )
        kept = draws[~np.isnan(draws[:, 0])]
        keys = (*SHARE_KEYS, *DIFF_KEYS)
        for j, k in enumerate(keys):
            std_errs[k] = float(np.std(kept[:, j], ddof=1))

    return DecompositionReport(
        shares=shares,
        diffs=diffs,
        std_errs=std_errs,
        n_obs={"ph2": ph2_design.n_obs, "ph3": ph3_design.n_obs},
        n_trials={"ph2": ph2_design.n_trials, "ph3": ph3_design.n_trials},
        bootstrap_reps=bootstrap_reps,
        dropped_reps=dropped,
        bandwidths={"ph2": h2, "ph3": h3},
    )


def sponsor_split_sweep(
    table: OutcomeTable,
    link_results: Sequence[LinkResult],
    splits,
    cutoff: float = Z_SIG,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
    min_gap: float = 1e-3,
) -> list[dict]:
    """Explained fraction (ph2_sc - ph2) / (ph3 - ph2) for Large and Small
    groups under every sponsor-split definition; degenerate or failing
    cells are flagged with a reason."""
    rows: list[dict] = []
    cache: dict[tuple, dict] = {}
    for split in splits:
        for group, members in table.sponsor_groups(split):
            key = (group, members.tobytes())
            if key not in cache:
                cell: dict = {}
                try:
                    rep = decompose(
                        table.subset(members), link_results, bootstrap_reps=0,
                        cutoff=cutoff, outcome_rank=outcome_rank,
                    )
                    gap = rep.diffs["ph3_minus_ph2"]
                    cell["ph2"] = rep.shares["ph2"]
                    cell["ph3"] = rep.shares["ph3"]
                    cell["ph2_sc"] = rep.shares["ph2_sc"]
                    if abs(gap) < min_gap:
                        cell["explained_fraction"] = None
                        cell["error"] = "degenerate: phase gap below threshold"
                    else:
                        cell["explained_fraction"] = rep.diffs["ph2_sc_minus_ph2"] / gap
                        cell["error"] = ""
                except (ValueError, RuntimeError) as exc:
                    cell = {
                        "ph2": None, "ph3": None, "ph2_sc": None,
                        "explained_fraction": None, "error": str(exc),
                    }
                cache[key] = cell
            rows.append(
                {"criterion": split.criterion, "k": split.k, "group": group, **cache[key]}
            )
    return rows
