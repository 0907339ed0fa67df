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

import numpy as np

from .density import (
    _draws,
    _n_distinct,
    epanechnikov_survival,
    silverman_bandwidth,
    sj_bandwidth,
)
from .linker import Links
from .pz import Z_SIG, OutcomeTable, ZKind, norm_sf
from .registry import OutcomeRank, Phase
from .selection import (
    PinnedDesign,
    PinnedRows,
    SelectionDesign,
    SelectionModel,
    build_design,
    design_rows,
    fit_logit,
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
MAX_DROPPED_FRAC = 0.10  # of the bootstrap reps that may fail before decompose raises


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
    z_c = _censored_z(zvals[~precise])
    survival = epanechnikov_survival((cutoff - zvals[precise]) / bandwidth)
    return _share(weights[precise], weights[~precise], survival, z_c >= cutoff)


def _censored_z(z_c: np.ndarray) -> np.ndarray:
    """The share z of the censored rows, each a bound or an imputed value."""
    if np.isnan(z_c).any():
        raise ValueError("censored rows need a bound or an imputed z")
    return z_c


def _share(w_p, w_c, survival, censored_above) -> float:
    """The share of precise rows of weights ``w_p`` and kernel survival
    values ``survival``, and censored rows of weights ``w_c``, at or above
    the cutoff where ``censored_above``."""
    total_p = float(w_p.sum())
    above = float(np.dot(w_p, survival)) if total_p > 0 else 0.0
    total = total_p + float(w_c.sum())
    above += float(w_c[censored_above].sum())
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


def _auto_bandwidth(
    z_precise: np.ndarray, counts: np.ndarray | None = None, *, drawn: bool = False
) -> float:
    """Sheather-Jones bandwidth of the precise scores, Silverman's below 10
    distinct values, 0.5 without spread.  ``counts`` are draw counts; with
    ``drawn`` the scores ascend and every count is positive, as
    :func:`_draws` gives them, and they are not checked again."""
    x, c = (z_precise, counts) if drawn else _draws(z_precise, counts)
    distinct = _n_distinct(x)
    if distinct >= 10:
        return float(sj_bandwidth(x, c, drawn=True))
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

    def __init__(self, trial_code, is_precise, share_z, precise):
        """The sample of rows given by their trial codes, precise mask and
        share z, with ``precise``, its precise rows in stable z order."""
        # trial i of a rep's draw is the sample's i-th smallest trial code,
        # and codes ascend with the trial ids, whatever the registry order
        present = np.bincount(trial_code) > 0
        self.trial = (np.cumsum(present) - 1)[trial_code]
        self.n_trials = int(np.count_nonzero(present))
        self.n_obs = len(trial_code)
        self.is_precise, self.is_censored = is_precise, ~is_precise
        self.z_precise = share_z[is_precise]
        self.z_censored = _censored_z(share_z[self.is_censored])
        self.precise = precise
        self.z_sorted = share_z[precise]

    def counts(self, rng: np.random.Generator) -> np.ndarray:
        """Draw counts per row of ``n_trials`` trials drawn with replacement."""
        drawn = rng.integers(0, self.n_trials, size=self.n_trials)
        return np.bincount(drawn, minlength=self.n_trials)[self.trial]

    def bandwidth(self, counts: np.ndarray | None = None) -> float:
        """The bandwidth of the sample, or of a rep's draw ``counts`` per
        row: the drawn precise scores, read off the sorted ones."""
        if counts is None:
            return _auto_bandwidth(self.z_sorted)
        c = counts[self.precise]
        drawn = c > 0
        return _auto_bandwidth(self.z_sorted[drawn], c[drawn], drawn=True)

    def shares(self, weightings, cutoff: float, bandwidth: float) -> list[float]:
        """The share of the sample under each row weighting, all at one
        bandwidth, from one evaluation of the kernel."""
        survival = epanechnikov_survival((cutoff - self.z_precise) / bandwidth)
        above = self.z_censored >= cutoff
        return [_share(w[self.is_precise], w[self.is_censored], survival, above)
                for w in weightings]


class _PinnedPhase:
    """One phase sample of a table, pinned once for the samples of its
    trial subsets (all its trials, or a sponsor sweep's cells): its design
    rows and its precise rows in stable z order.  A stable sort restricted
    to a subset is the subset's own stable sort, so a subset's order, and
    with it its bandwidth, is read off, not sorted."""

    def __init__(self, table: OutcomeTable, phase: Phase, outcome_rank: OutcomeRank):
        self.rows = PinnedRows(table, table.industry & table.sample(phase, outcome_rank))
        precise = np.flatnonzero(self.rows.is_precise)
        self.precise = precise[np.argsort(self.rows.z_raw[precise], kind="stable")]

    def sample(self, trials: np.ndarray) -> tuple[np.ndarray, np.ndarray, _PhaseSample]:
        """The rows of the trials in the mask ``trials``, their z with
        other censors imputed within them, and their phase sample: what
        :func:`phase_scores` gives on the table of these trials."""
        rows = self.rows
        at = trials[rows.trial_code]
        idx = np.flatnonzero(at)
        z = rows.imputed(idx)
        precise = (np.cumsum(at) - 1)[self.precise[at[self.precise]]]
        sample = _PhaseSample(rows.trial_code[idx], rows.is_precise[idx],
                              np.where(rows.bounded[idx], rows.bound[idx], z), precise)
        return idx, z, sample


def _point(
    ph2: _PhaseSample, ph3: _PhaseSample, p: np.ndarray, cutoff: float
) -> DecompositionReport:
    """The point decomposition of two phase samples, ``p`` the predicted
    continuation probabilities of the phase II rows; no standard errors."""
    if float(p.sum()) <= 0:
        raise ValueError("all predicted weights are zero")
    h2, h3 = ph2.bandwidth(), ph3.bandwidth()
    s_ph2, s_sc = ph2.shares((np.ones(ph2.n_obs), p), cutoff, h2)
    (s_ph3,) = ph3.shares((np.ones(ph3.n_obs),), cutoff, h3)
    return DecompositionReport(
        shares={"ph2": s_ph2, "ph3": s_ph3, "ph2_sc": s_sc},
        diffs={
            "ph3_minus_ph2": s_ph3 - s_ph2,
            "ph3_minus_ph2_sc": s_ph3 - s_sc,
            "ph2_sc_minus_ph2": s_sc - s_ph2,
        },
        std_errs={k: float("nan") for k in (*SHARE_KEYS, *DIFF_KEYS)},
        n_obs={"ph2": ph2.n_obs, "ph3": ph3.n_obs},
        n_trials={"ph2": ph2.n_trials, "ph3": ph3.n_trials},
        bootstrap_reps=0,
        bandwidths={"ph2": h2, "ph3": h3},
    )


def decompose(
    table: OutcomeTable,
    links: Links,
    model: SelectionModel | None = None,
    bootstrap_reps: int = 500,
    seed: int | None = None,
    cutoff: float = Z_SIG,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
) -> DecompositionReport:
    """Point decomposition plus trial-clustered bootstrap of the whole
    estimation procedure (selection refit, reweighting, share
    computation in every repetition).  A rep is a set of trial draw
    counts; the refit, the bandwidths and the shares reweight the pinned
    phase samples by them.  More than ``MAX_DROPPED_FRAC`` of the reps
    failing raises."""
    if bootstrap_reps < 0:
        raise ValueError(f"bootstrap_reps must be >= 0, got {bootstrap_reps}")
    if bootstrap_reps == 1:  # one draw has no standard deviation
        raise ValueError("bootstrap_reps must be 0 or at least 2, got 1")
    if model is None:
        model = fit_logit(build_design(table, links, outcome_rank=outcome_rank))
    ph2 = _PinnedPhase(table, Phase.PHASE2, outcome_rank)
    every = np.ones(len(table.trials.ids), dtype=bool)
    rows2, z2, s2 = ph2.sample(every)
    s3 = _PinnedPhase(table, Phase.PHASE3, outcome_rank).sample(every)[2]
    report = _point(s2, s3, ph2.rows.predict(model, rows2, z2), cutoff)
    if bootstrap_reps == 0:
        return report
    pinned = PinnedDesign(ph2.rows, z2, links.labels(table.trials.ids)[ph2.rows.trial_code],
                          model)
    del ph2  # the reps read the samples and the refit matrix only

    streams = np.random.SeedSequence(seed).spawn(bootstrap_reps)
    draws = np.full((bootstrap_reps, 6), np.nan)
    dropped = 0
    for r in range(bootstrap_reps):
        rng = np.random.default_rng(streams[r])
        counts2, counts3 = s2.counts(rng), s3.counts(rng)
        try:
            p = pinned.refit_predict(counts2)
            if p is None:
                dropped += 1
                continue
            w = counts2 * p
            if float(w.sum()) <= 0:
                raise ValueError("all predicted weights are zero")
            b2, b3 = s2.bandwidth(counts2), s3.bandwidth(counts3)
            a, c = s2.shares((counts2, w), cutoff, b2)
            (b,) = s3.shares((counts3,), cutoff, b3)
            draws[r] = (a, b, c, b - a, b - c, c - a)
        except (ValueError, np.linalg.LinAlgError, RuntimeError):
            dropped += 1
            continue
    if dropped > MAX_DROPPED_FRAC * bootstrap_reps:
        raise RuntimeError(f"{dropped}/{bootstrap_reps} bootstrap repetitions failed")
    kept = draws[~np.isnan(draws[:, 0])]
    for j, k in enumerate((*SHARE_KEYS, *DIFF_KEYS)):
        report.std_errs[k] = float(np.std(kept[:, j], ddof=1))
    report.bootstrap_reps, report.dropped_reps = bootstrap_reps, dropped
    return report


def sponsor_split_sweep(
    table: OutcomeTable,
    links: Links,
    splits,
    cutoff: float = Z_SIG,
    outcome_rank: OutcomeRank = OutcomeRank.PRIMARY,
    min_gap: float = 1e-3,
) -> list[dict]:
    """Explained fraction (ph2_sc - ph2) / (ph3 - ph2) for Large and Small
    groups under every sponsor-split definition; degenerate or failing
    cells are flagged with a reason.  A cell's links are cut down to the
    cell's trials.

    A cell is what :func:`decompose` without reps gives on the table rows
    and the cut links of its trials.  The all-industry phase samples are
    pinned once, and each cell is a trial mask over them, with its own
    imputation of other censors and its own selection fit (cold start)."""
    links.check(table.trials.ids)
    ph2, ph3 = (_PinnedPhase(table, phase, outcome_rank) for phase in (Phase.PHASE2, Phase.PHASE3))
    rows: list[dict] = []
    cache: dict[tuple, dict] = {}
    for split in splits:
        for group in ("Large", "Small"):
            trials = table.group_mask(split, group)
            key = (group, trials.tobytes())
            if key not in cache:
                try:
                    rep = _cell(ph2, ph3, trials, links.within(trials), cutoff)
                    gap, explained = rep.diffs["ph3_minus_ph2"], rep.diffs["ph2_sc_minus_ph2"]
                    flat = abs(gap) < min_gap
                    cell = {
                        **{k: rep.shares[k] for k in SHARE_KEYS},
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


def _cell(
    ph2: _PinnedPhase, ph3: _PinnedPhase, trials: np.ndarray, links: Links, cutoff: float
) -> DecompositionReport:
    """The point decomposition of the trials in the mask ``trials``, whose
    links ``links`` are cut down to them, over the pinned phase samples."""
    labels = links.labels(links.ids)[ph2.rows.trial_code]
    fitting = np.flatnonzero(trials[ph2.rows.trial_code] & ~np.isnan(labels))
    model = ph2.rows.fit(fitting, ph2.rows.imputed(fitting), labels[fitting])
    rows2, z2, s2 = ph2.sample(trials)
    s3 = ph3.sample(trials)[2]
    return _point(s2, s3, ph2.rows.predict(model, rows2, z2), cutoff)
