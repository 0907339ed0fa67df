"""Structural simulator of sequential trial portfolios.

Each drug has a latent standardized effect.  The phase II statistic is a
noncentral normal draw; the sponsor then weighs an outside option against
the discounted expected payoff of a phase III trial (approval value
accrues only above the significance threshold), with iid extreme-value
shocks on both branches, so the continuation probability has a logistic
closed form.  Both decision implementations (shock draws and the closed
form) are available and must agree statistically.  Misreporting
mechanisms (suppression of nonsignificant results, inflation into a
window above the threshold) are applied last and logged, giving every
pipeline stage a known ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from . import pz
from .registry import (
    RANK_CRITERIA,
    OutcomeRank,
    Phase,
    Registry,
    build_registry,
    write_csv,
)
from .selection import _expit

__all__ = [
    "Misreporting",
    "SimConfig",
    "SimTruth",
    "generate",
    "end_to_end_truth_check",
    "write_truth_csv",
]

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(32)
# trials per block of the Gauss-Hermite grid, which bounds its
# (trials, nodes) arrays; a multiple of 8, which keeps the bits of the
# payoff (250 changed them)
_GH_BLOCK = 256

_CONDITION_CODES = (
    "C14", "F03", "C18", "C19", "C10", "C08", "C06", "C05",
    "C04", "C12", "C20", "C23", "C17", "C25", "C16",
)


@dataclass(frozen=True)
class Misreporting:
    """Post-generation distortion of phase III results."""

    kind: str = "none"  # "none" | "suppress" | "inflate"
    q: float = 0.0      # fraction of nonsignificant results affected
    window: float = 0.0  # inflate: relocation window width above the cutoff

    def __post_init__(self) -> None:
        if self.kind not in ("none", "suppress", "inflate"):
            raise ValueError(f"unknown misreporting kind {self.kind!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("misreporting fraction must lie in [0,1]")
        if self.window < 0:
            raise ValueError("inflation window must be nonnegative")

    @classmethod
    def none(cls) -> "Misreporting":
        return cls("none")

    @classmethod
    def suppress_share(cls, q: float) -> "Misreporting":
        return cls("suppress", q=q)

    @classmethod
    def inflate_spike(cls, q: float, window: float) -> "Misreporting":
        return cls("inflate", q=q, window=window)


@dataclass(frozen=True)
class SimConfig:
    n_trials: int = 2000
    effect_mean: float = 0.12
    effect_sd: float = 0.25
    enroll_low: int = 40
    enroll_high: int = 400
    cost: float = 1.0
    discount: float = 0.9
    outside_intercept: float = 0.2
    outside_slope: float = 0.0
    payoff_slope: float = 0.9
    shock_scale: float = 1.0
    significance_z: float = pz.Z_SIG
    # phase III statistic: sqrt(1-w^2)*carryover + w*fresh noise around the
    # shared effect; 0 keeps the phase II statistic exactly
    phase3_fresh_noise: float = 0.0
    phase3_enroll_mult: float = 1.0
    secondary_outcomes_per_trial: int = 0
    n_sponsors: int = 25
    misreporting: Misreporting = field(default_factory=Misreporting.none)
    decision_rule: str = "logistic"  # or "shocks"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trials <= 0:
            raise ValueError("n_trials must be positive")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must lie in (0,1]")
        if self.shock_scale <= 0:
            raise ValueError("shock scale must be positive")
        if not 0 < self.enroll_low <= self.enroll_high:
            raise ValueError("bad enrollment range")
        if not 0.0 <= self.phase3_fresh_noise <= 1.0:
            raise ValueError("phase3_fresh_noise must lie in [0,1]")
        if self.decision_rule not in ("logistic", "shocks"):
            raise ValueError(f"unknown decision rule {self.decision_rule!r}")


TRUTH_COLUMNS = ["trial_id", "theta", "t2", "z2", "p_continue", "continued",
                 "phase3_id", "z3_true", "z3_reported", "suppressed", "inflated"]


@dataclass(frozen=True, eq=False)
class SimTruth:
    """The latent truth of a simulated registry as columns, one entry per
    phase II trial in trial order.  ``phase3_id`` is "" and ``z3_true`` and
    ``z3_reported`` are NaN where a trial did not continue; ``suppressed``
    and ``inflated`` are false there."""

    trial_id: np.ndarray
    theta: np.ndarray
    t2: np.ndarray
    z2: np.ndarray
    p_continue: np.ndarray
    continued: np.ndarray
    phase3_id: np.ndarray
    z3_true: np.ndarray
    z3_reported: np.ndarray
    suppressed: np.ndarray
    inflated: np.ndarray
    config: SimConfig
    synonym_pairs: list[tuple[str, str]] = field(default_factory=list)

    @property
    def reported(self) -> np.ndarray:
        """The mask of the trials whose phase III result was reported."""
        return self.continued & ~self.suppressed

    def continued_ids(self) -> set[str]:
        return set(self.trial_id[self.continued].tolist())

    def phase3_share_full(self, cutoff: float = pz.Z_SIG) -> float:
        """Share significant among all generated phase III results,
        before any misreporting (enumeration oracle)."""
        return _share(self.z3_true[self.continued], cutoff)

    def phase3_share_reported(self, cutoff: float = pz.Z_SIG) -> float:
        return _share(self.z3_reported[self.reported], cutoff)

    def suppression_effect(self, cutoff: float = pz.Z_SIG) -> float:
        return self.phase3_share_reported(cutoff) - self.phase3_share_full(cutoff)


def _share(z: np.ndarray, cutoff: float) -> float:
    return float(np.mean(z >= cutoff)) if z.size else float("nan")


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


def _tail_payoff(mu: np.ndarray, c: float) -> np.ndarray:
    """E[|T| 1{|T|>c}] for T ~ N(mu, 1)."""
    return (
        mu * ((1.0 - pz.norm_cdf(c - mu)) - pz.norm_cdf(-c - mu))
        + _norm_pdf(c - mu)
        + _norm_pdf(c + mu)
    )


def expected_phase3_value(
    t2: np.ndarray, s2: np.ndarray, cfg: SimConfig
) -> np.ndarray:
    """Discount-free expected phase III payoff given the end-of-phase-II
    information: Gauss-Hermite integration over the effect posterior of
    the above-threshold payoff of the phase III statistic."""
    prior_var = cfg.effect_sd**2
    if prior_var <= 0:
        post_mean = np.full_like(t2, cfg.effect_mean)
        post_var = np.zeros_like(t2)
    else:
        precision = 1.0 / prior_var + s2**2
        post_mean = (cfg.effect_mean / prior_var + s2 * t2) / precision
        post_var = 1.0 / precision
    s3 = s2 * math.sqrt(cfg.phase3_enroll_mult)
    ev = np.empty(len(t2))
    for a in range(0, len(t2), _GH_BLOCK):
        b = slice(a, a + _GH_BLOCK)
        # theta nodes: shape (block, nodes)
        theta = post_mean[b, None] + np.sqrt(2.0 * post_var[b])[:, None] * _GH_NODES[None, :]
        ev[b] = _tail_payoff(s3[b, None] * theta, cfg.significance_z) @ _GH_WEIGHTS
    return cfg.payoff_slope * (ev / math.sqrt(math.pi))


def _values(t2: np.ndarray, s2: np.ndarray, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The values of going to phase III and of staying out, before shocks."""
    go = -cfg.cost + cfg.discount * expected_phase3_value(t2, s2, cfg)
    return go, cfg.outside_intercept + cfg.outside_slope * np.abs(t2)


def continuation_probability(
    t2: np.ndarray, s2: np.ndarray, cfg: SimConfig
) -> np.ndarray:
    """Closed-form logistic probability of undertaking phase III."""
    go, stay = _values(t2, s2, cfg)
    return _expit((go - stay) / cfg.shock_scale)


def _report_p(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reported p-value of each statistic as (kind, value): exact,
    or censored as p<0.001 or p<0.0001."""
    p = 2.0 * (1.0 - pz.norm_cdf(np.asarray(z, dtype=float)))
    kind = np.where(p < 0.001, "lt", "exact")
    value = np.where(p < 0.0001, 0.0001, np.where(p < 0.001, 0.001, np.clip(p, 0.0, 1.0)))
    return kind, value


def generate(cfg: SimConfig) -> tuple[Registry, SimTruth]:
    """Draw a synthetic registry with known ground truth.

    Emits phase II trials (with curated interventions), phase III trials
    for continued drugs (same drug and conditions, later start, sometimes
    listed under a synonym), seeded sponsor rankings, and a truth log
    recording every latent quantity and misreporting event.
    """
    ss = np.random.SeedSequence(cfg.seed)
    (s_effect, s_enroll, s_covar, s_decide, s_phase3,
     s_misreport, s_second) = [np.random.default_rng(c) for c in ss.spawn(7)]

    n = cfg.n_trials
    theta = s_effect.normal(cfg.effect_mean, cfg.effect_sd, size=n)
    enroll2 = s_enroll.integers(cfg.enroll_low, cfg.enroll_high + 1, size=n)
    s2 = np.sqrt(enroll2 / 4.0)
    eps2 = s_effect.normal(size=n)
    t2 = s2 * theta + eps2
    z2 = np.abs(t2)

    # one Gauss-Hermite grid serves the probability and the shocks rule
    go_value, stay_value = _values(t2, s2, cfg)
    p_cont = _expit((go_value - stay_value) / cfg.shock_scale)
    if cfg.decision_rule == "logistic":
        continued = s_decide.random(n) < p_cont
    else:
        shock_stay = s_decide.gumbel(0.0, cfg.shock_scale, size=n)
        shock_go = s_decide.gumbel(0.0, cfg.shock_scale, size=n)
        continued = go_value + shock_go > stay_value + shock_stay

    # phase III statistic: carryover of the phase II draw, optionally mixed
    # with fresh noise around the shared effect
    w = cfg.phase3_fresh_noise
    s3 = s2 * math.sqrt(cfg.phase3_enroll_mult)
    eps3 = math.sqrt(1.0 - w * w) * eps2 + w * s_phase3.normal(size=n)
    t3 = s3 * theta + eps3
    z3 = np.abs(t3)

    # covariates and paperwork; a MeSH cell or sponsor name is one str object
    # per distinct value
    placebo = s_covar.random(n) < 0.5
    mht = s_covar.random(n) < 0.03
    mesh = np.array([f"{c}:Condition {c}" for c in _CONDITION_CODES],
                    dtype=object)[s_covar.choice(len(_CONDITION_CODES), size=n)]
    sponsors = np.array([f"Sponsor {i + 1:02d}" for i in range(cfg.n_sponsors)],
                        dtype=object)[s_covar.integers(0, cfg.n_sponsors, size=n)]
    start_year = s_covar.integers(2009, 2016, size=n)
    start_month = s_covar.integers(1, 13, size=n)
    use_synonym = s_covar.random(n) < 0.10
    gap_days = s_covar.integers(700, 1100, size=n)

    sig = cfg.significance_z
    nonsig = z3 < sig
    suppressed = np.zeros(n, dtype=bool)
    inflated = np.zeros(n, dtype=bool)
    z3_rep = z3.copy()
    mr = cfg.misreporting
    if mr.kind == "suppress":
        suppressed = continued & nonsig & (s_misreport.random(n) < mr.q)
    elif mr.kind == "inflate":
        inflated = continued & nonsig & (s_misreport.random(n) < mr.q)
        z3_rep = np.where(inflated, sig + mr.window * s_misreport.random(n), z3_rep)

    # registry order: each phase II trial, then its phase III trial if continued
    p3 = np.flatnonzero(continued)
    row2 = np.arange(n) + np.concatenate(([0], np.cumsum(continued)[:-1]))
    row3 = row2[p3] + 1

    def rows(phase2, phase3) -> np.ndarray:
        out = np.empty(n + len(p3), dtype=np.result_type(phase2, phase3))
        out[row2], out[row3] = phase2, phase3
        return out

    number = [f"{i:05d}" for i in range(1, n + 1)]
    ids2 = np.array([f"SIM2-{k}" for k in number])
    ids3 = np.array([f"SIM3-{number[i]}" for i in p3.tolist()], dtype=str)
    drug = np.array([f"drug-{k}" for k in number])
    listed_drug = np.array([f"drug-{number[i]}-alt" if use_synonym[i] else drug[i]
                            for i in p3.tolist()], dtype=str)
    month_start = [date(y, m, 1).toordinal() for y in range(2009, 2016) for m in range(1, 13)]
    start = np.array(month_start)[(start_year - 2009) * 12 + start_month - 1]
    p3_start = start[p3] + gap_days[p3]
    trials = dict(
        ids=rows(ids2, ids3).tolist(), industry=np.ones(n + len(p3), dtype=bool),
        phase=np.array([Phase.PHASE2.value, Phase.PHASE3.value], dtype=object)[rows(0, 1)].tolist(),
        sponsor_name=rows(sponsors, sponsors[p3]).tolist(),
        interventions=rows(drug, listed_drug).tolist(), mesh=rows(mesh, mesh[p3]).tolist(),
        start=rows(start, p3_start), completion=rows(start + 730, p3_start + 900),
        enrollment=rows(enroll2, (enroll2[p3] * max(cfg.phase3_enroll_mult, 1.0)).astype(np.int64)),
        placebo=rows(placebo, placebo[p3]), superiority=np.ones(n + len(p3), dtype=bool),
    )

    # outcomes of trial i: its primary, its secondaries, then the primary of
    # its phase III trial unless suppressed
    k = cfg.secondary_outcomes_per_trial
    z_second = np.empty((n, k))
    for i, j in np.ndindex(n, k):
        theta_s = s_second.normal(cfg.effect_mean, cfg.effect_sd)
        z_second[i, j] = abs(s2[i] * theta_s + s_second.normal())
    reported = p3[~suppressed[p3]]
    owner = np.concatenate((np.arange(n), np.repeat(np.arange(n), k), reported))
    slot = np.concatenate((np.zeros(n, dtype=np.int64), np.tile(np.arange(1, k + 1), n),
                           np.full(len(reported), k + 1)))
    by_trial = np.argsort(owner * (k + 2) + slot)
    kind, value = _report_p(np.concatenate((z2, z_second.ravel(), z3_rep[reported])))
    outcomes = dict(
        trial=np.concatenate((row2, np.repeat(row2, k), row2[reported] + 1))[by_trial],
        rank=np.repeat([OutcomeRank.PRIMARY.value, OutcomeRank.SECONDARY.value,
                        OutcomeRank.PRIMARY.value], [n, n * k, len(reported)])[by_trial],
        p_kind=kind[by_trial], p_value=value[by_trial],
        mht=np.concatenate((mht, np.zeros(n * k + len(reported), dtype=bool)))[by_trial],
    )

    phase3_id = np.full(n, "", dtype=ids3.dtype)
    phase3_id[p3] = ids3
    synonym_pairs = [(d, alt) for d, alt, syn in zip(drug[p3].tolist(), listed_drug.tolist(),
                                                     use_synonym[p3].tolist()) if syn]

    # seeded sponsor rankings for split-based analyses
    rankings: dict[str, dict[str, int]] = {}
    rank_rng = np.random.default_rng(ss.spawn(1)[0])
    names = [f"sponsor {i + 1:02d}" for i in range(cfg.n_sponsors)]
    for crit in RANK_CRITERIA:
        order = rank_rng.permutation(cfg.n_sponsors)
        rankings[crit] = {names[j]: int(r + 1) for r, j in enumerate(order)}

    reg = build_registry(trials, outcomes, rankings)
    truth = SimTruth(
        trial_id=ids2, theta=theta, t2=t2, z2=z2, p_continue=p_cont, continued=continued,
        phase3_id=phase3_id, z3_true=np.where(continued, z3, np.nan),
        z3_reported=np.where(continued, z3_rep, np.nan), suppressed=suppressed,
        inflated=inflated, config=cfg, synonym_pairs=synonym_pairs)
    return reg, truth


def write_truth_csv(truth: SimTruth, path: str | Path) -> None:
    """The truth columns as truth.csv: floats by ``repr``, the phase III
    cells empty where a trial did not continue."""
    cont = truth.continued

    def phase3(col: np.ndarray) -> list[str]:
        text = np.full(len(col), "", dtype=object)
        text[cont] = list(map(repr, col[cont].tolist()))
        return text.tolist()

    def flags(mask: np.ndarray) -> list[str]:
        return np.where(mask, "true", "false").tolist()

    write_csv(path, TRUTH_COLUMNS, zip(
        truth.trial_id.tolist(), *(map(repr, c.tolist()) for c in (
            truth.theta, truth.t2, truth.z2, truth.p_continue)),
        flags(cont), truth.phase3_id.tolist(), phase3(truth.z3_true),
        phase3(truth.z3_reported), flags(truth.suppressed), flags(truth.inflated)))


def end_to_end_truth_check(
    cfg: SimConfig,
    bootstrap_reps: int = 200,
    run_discontinuity: bool = True,
) -> dict:
    """Run the full pipeline on a simulated registry and compare against
    the enumeration oracle.

    Returns a report with the decomposition, the residual, the oracle
    suppression effect, and the discontinuity test on reported phase III
    statistics.
    """
    from .decompose import decompose
    from .discontinuity import binned_test, cjm_test
    from .linker import build_synonym_map, link_all
    from .selection import build_design, fit_logit

    reg, truth = generate(cfg)
    table = pz.outcome_table(reg)
    synonyms = build_synonym_map(truth.synonym_pairs)
    links, summary = link_all(reg, synonyms=synonyms)

    recovered = set(links.ids[links.pairs()[0]].tolist())
    expected = truth.continued_ids()
    if recovered != expected:
        missing = sorted(expected - recovered)[:5]
        extra = sorted(recovered - expected)[:5]
        raise AssertionError(
            f"linker failed to reproduce the known continuation set "
            f"(missing {missing}, extra {extra})"
        )

    design = build_design(table, links)
    model = fit_logit(design)
    report = decompose(
        table, links, model=model, bootstrap_reps=bootstrap_reps, seed=cfg.seed + 1
    )

    out = {
        "config": cfg,
        "truth": truth,
        "link_summary": summary,
        "model": model,
        "decomposition": report,
        "residual": report.diffs["ph3_minus_ph2_sc"],
        "residual_se": report.std_errs["ph3_minus_ph2_sc"],
        "oracle_suppression_effect": (
            truth.suppression_effect(cfg.significance_z)
            if cfg.misreporting.kind == "suppress"
            else 0.0
        ),
    }
    if run_discontinuity:
        z3_rep = truth.z3_reported[truth.reported]
        try:
            out["cjm_phase3"] = cjm_test(z3_rep, cutoff=cfg.significance_z)
        except ValueError as exc:
            out["cjm_phase3"] = str(exc)
        try:
            out["binned_phase3"] = binned_test(z3_rep, cutoff=cfg.significance_z, bin_width=0.08)
        except ValueError as exc:
            out["binned_phase3"] = str(exc)
    return out
