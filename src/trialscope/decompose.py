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

from .density import (
    _draws,
    _n_distinct,
    epanechnikov_survival,
    silverman_bandwidth,
    sj_bandwidth,
)
from .linker import LinkResult, restrict_links
from .pz import Z_SIG, OutcomeTable, ZKind, norm_sf
from .registry import OutcomeRank, Phase
from .selection import (
    PinnedDesign,
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


def _auto_bandwidth(z_precise: np.ndarray, counts: np.ndarray | None = None) -> float:
    """Sheather-Jones bandwidth of the precise scores, Silverman's below 10
    distinct values, 0.5 without spread.  ``counts`` are draw counts."""
    x, c = _draws(z_precise, counts)
    distinct = _n_distinct(x)
    if distinct >= 10:
        return float(sj_bandwidth(x, c))
    if distinct >= 2:
        return silverman_bandwidth(x, c)
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


class _PhaseSample:
    """The share and bandwidth inputs of one phase, pinned once.  A
    bootstrap rep is this sample reweighted by its draw counts: each row
    counts as often as its trial was drawn."""

    def __init__(self, design: SelectionDesign):
        self.kind = design.kind
        self.share_z = design.share_z
        self.trial_code = np.unique(design.trial_id.astype(str), return_inverse=True)[1]
        self.n_trials = int(self.trial_code.max()) + 1
        precise = np.flatnonzero(design.kind == ZKind.PRECISE.value)
        order = np.argsort(design.z[precise], kind="stable")
        self.precise = precise[order]
        self.z_sorted = design.z[self.precise]

    def counts(self, rng: np.random.Generator) -> np.ndarray:
        """Draw counts per row of ``n_trials`` trials drawn with replacement."""
        drawn = rng.integers(0, self.n_trials, size=self.n_trials)
        return np.bincount(drawn, minlength=self.n_trials)[self.trial_code]

    def bandwidth(self, counts: np.ndarray | None = None) -> float:
        return _auto_bandwidth(
            self.z_sorted, None if counts is None else counts[self.precise]
        )

    def share(self, weights: np.ndarray, cutoff: float, bandwidth: float) -> float:
        return censored_aware_share(self.kind, self.share_z, weights, cutoff, bandwidth)


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
    computation in every repetition).  A rep is a set of trial draw
    counts; the refit, the bandwidths and the shares reweight the pinned
    phase samples by them."""
    if model is None:
        model = fit_logit(build_design(table, link_results, outcome_rank=outcome_rank))
    ph2_design = phase_scores(table, Phase.PHASE2, outcome_rank)
    ph3_design = phase_scores(table, Phase.PHASE3, outcome_rank)
    ph2, ph3 = _PhaseSample(ph2_design), _PhaseSample(ph3_design)

    h2, h3 = ph2.bandwidth(), ph3.bandwidth()
    s_ph2 = ph2.share(np.ones(ph2_design.n_obs), cutoff, h2)
    s_ph3 = ph3.share(np.ones(ph3_design.n_obs), cutoff, h3)
    s_sc = counterfactual_share(ph2_design, model, cutoff, h2)

    shares = {"ph2": s_ph2, "ph3": s_ph3, "ph2_sc": s_sc}
    diffs = {
        "ph3_minus_ph2": s_ph3 - s_ph2,
        "ph3_minus_ph2_sc": s_ph3 - s_sc,
        "ph2_sc_minus_ph2": s_sc - s_ph2,
    }

    std_errs = {k: float("nan") for k in (*SHARE_KEYS, *DIFF_KEYS)}
    dropped = 0
    if bootstrap_reps > 0:
        pinned = PinnedDesign(
            ph2_design, link_labels(ph2_design.trial_id, link_results), model
        )
        streams = np.random.SeedSequence(seed).spawn(bootstrap_reps)
        draws = np.full((bootstrap_reps, 6), np.nan)
        for r in range(bootstrap_reps):
            rng = np.random.default_rng(streams[r])
            counts2, counts3 = ph2.counts(rng), ph3.counts(rng)
            try:
                p = pinned.refit_predict(counts2)
                if p is None:
                    dropped += 1
                    continue
                w = counts2 * p
                if float(w.sum()) <= 0:
                    raise ValueError("all predicted weights are zero")
                b2, b3 = ph2.bandwidth(counts2), ph3.bandwidth(counts3)
                a = ph2.share(counts2, cutoff, b2)
                b = ph3.share(counts3, cutoff, b3)
                c = ph2.share(w, cutoff, b2)
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
    cells are flagged with a reason.  A cell's links are cut down to the
    cell's trials."""
    rows: list[dict] = []
    cache: dict[tuple, dict] = {}
    sponsors = frozenset(table.industry_sponsor.values())
    for split in splits:
        # the Large sponsors present fix both cells of a split
        large = sponsors.intersection(
            k for k, g in split.classification.items() if g == "Large"
        )
        for group, members in table.sponsor_groups(split):
            key = (group, large)
            if key not in cache:
                cell: dict = {}
                try:
                    links = restrict_links(link_results, table.group_trials(split, group))
                    rep = decompose(
                        table.subset(members), links, bootstrap_reps=0,
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
