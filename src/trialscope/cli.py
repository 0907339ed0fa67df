"""Pipeline orchestration: subcommand dispatch, artifact emission,
provenance stamping.

Configuration is a plain key=value file; any command-line flag overrides
the file, and every value is checked as it loads.  A command is a tuple
of stages over one ``_Run``.  Every run writes its artifacts plus a
manifest (input hashes, resolved config, package version, seed) into the
output directory.  With a fixed seed the outputs are byte-identical
across runs.  A run writes into a staging directory next to the output
directory and moves its files in only once its manifest is written: a
failed run leaves the output directory as it found it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__, density, pz, svg
from .decompose import decompose, sponsor_split_sweep
from .discontinuity import cjm_test, sponsor_sweep
from .linker import Links, link_all, load_synonyms
from .registry import (
    RANK_CRITERIA,
    Phase,
    Registry,
    _flags,
    _take,
    _write_columns,
    all_sponsor_splits,
    apply_sample_filters,
    default_rankings,
    ingest,
    write_csv,
    write_outcomes_csv,
    write_rankings_csv,
    write_trials_csv,
)
from .selection import (SelectionDesign, SelectionModel, build_design, fit_logit, predict,
                        predict_at_mean)

if TYPE_CHECKING:
    from .simulate import SimConfig

__all__ = ["main", "PipelineConfig"]

_GROUPS = ("all", "non_industry", "all_industry", "small_industry", "top_industry")
_INPUT_KEYS = ("trials", "outcomes", "rankings", "synonyms")


@dataclass(frozen=True)
class _Key:
    """A config key: its type, help, default (None: unset) and the values it
    may take, as ``choices`` (the flag's too) or as ``bounds``, each a
    description and a test, checked in order.  Its flag is
    ``--key-with-dashes`` unless ``flag`` names another."""

    type: type
    help: str
    default: object = None
    choices: tuple | None = None
    bounds: tuple[tuple[str, Callable], ...] = ()
    flag: str | None = None


def _at_least(lo):
    return f">= {lo}", lambda v: v >= lo


_CONFIG_KEYS = {
    "trials": _Key(str, "trials CSV"),
    "outcomes": _Key(str, "outcomes CSV"),
    "rankings": _Key(str, "sponsor rankings CSV"),
    "synonyms": _Key(str, "drug synonyms CSV"),
    "out": _Key(str, "output directory", "out"),
    "seed": _Key(int, "random seed", 0, bounds=(_at_least(0),)),
    "cutoff": _Key(float, "significance cutoff on the z scale "
                   "(default: the z of p = 0.05)", bounds=(("finite", math.isfinite),)),
    "sidedness": _Key(str, "p-value sidedness", "two-sided",
                      choices=tuple(s.value for s in pz.Sidedness)),
    "group": _Key(str, "sponsor group", "all_industry", choices=_GROUPS),
    # checked when the config loads, so a bad flag exits 1, not 2
    "split_criterion": _Key(str, "sponsor ranking of the industry split", "revenue2018",
                            bounds=((f"one of {', '.join(RANK_CRITERIA)}",
                                     RANK_CRITERIA.__contains__),)),
    "split_k": _Key(int, "number of top-ranked sponsors in the split", 10,
                    bounds=(("in [7, 20]", lambda v: 7 <= v <= 20),)),
    # one rep has no standard error
    "bootstrap_reps": _Key(int, "bootstrap repetitions", 500,
                           bounds=(_at_least(0), ("0 or at least 2", lambda v: v != 1))),
    "poly_order": _Key(int, "local polynomial order of the discontinuity test", 2,
                       bounds=(_at_least(2),), flag="--order"),
    "bandwidth": _Key(float, "discontinuity test bandwidth (default: plug-in per side)",
                      bounds=(("> 0", lambda v: v > 0),)),
    "n_trials": _Key(int, "trials to simulate", 2000, bounds=(_at_least(1),)),
    "misreporting": _Key(str, "misreporting injected by the simulator", "none",
                         choices=("none", "suppress", "inflate")),
    "misreport_q": _Key(float, "fraction of results misreported", 0.0,
                        bounds=(("in [0, 1]", lambda v: 0 <= v <= 1),)),
    "misreport_window": _Key(float, "inflation window below the cutoff", 0.0,
                             bounds=(_at_least(0),)),
}


def _typed(key: str, value):
    """``value`` of config key ``key`` as the key's type, within its choices
    and bound."""
    spec = _CONFIG_KEYS.get(key)
    if spec is None:
        raise ValueError(f"unknown config key {key!r}")
    try:
        value = spec.type(value)
    except ValueError:
        raise ValueError(f"{key} must be {spec.type.__name__}, got {value!r}") from None
    if spec.choices and value not in spec.choices:
        raise ValueError(f"{key} must be one of {', '.join(spec.choices)}, got {value!r}")
    for text, test in spec.bounds:
        if not test(value):
            raise ValueError(f"{key} must be {text}, got {value!r}")
    return value


class PipelineConfig(dict):
    """Resolved key=value configuration with typed access.  Every value is
    checked as it loads, so a bad one stops a command before any stage."""

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "PipelineConfig":
        cfg = cls({k: s.default for k, s in _CONFIG_KEYS.items() if s.default is not None})
        if path:
            p = Path(path)
            if not p.exists():
                raise FileNotFoundError(f"config file not found: {path}")
            for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                try:
                    cfg[key] = _typed(key, value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        for k, v in overrides.items():
            if v is not None:
                cfg[k] = _typed(k, v)
        if "cutoff" not in cfg:
            # the z of p = 0.05 on the active scale
            cfg["cutoff"] = (
                pz.Z_SIG if cfg.side() is pz.Sidedness.TWO_SIDED
                else float(-pz.inv_norm_cdf(0.05))
            )
        return cfg

    def side(self) -> pz.Sidedness:
        return pz.Sidedness(self["sidedness"])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(stage: Path, cfg: PipelineConfig) -> None:
    """The manifest of the outputs written into ``stage`` from the
    configured input files."""
    def _name(p: Path) -> str:
        # inputs inside the output directory are recorded relative to it so
        # re-runs into different directories stay byte-identical
        try:
            return str(p.resolve().relative_to(Path(cfg["out"]).resolve()))
        except ValueError:
            return str(p)

    inputs = [Path(cfg[k]) for k in _INPUT_KEYS if cfg.get(k)]
    config = {k: cfg[k] for k in sorted(cfg) if k != "out"}
    for key in _INPUT_KEYS:
        if key in config:
            config[key] = _name(Path(config[key]))
    manifest = {
        "version": __version__,
        "config": config,
        "inputs": {_name(p): _sha256(p) for p in inputs if p.exists()},
        "outputs": sorted(
            str(p.relative_to(stage))
            for p in stage.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        ),
    }
    (stage / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _exists(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return path


def _read_registry(inputs: dict[str, Path]) -> Registry:
    """The registry of the configured input files, before the sample filters."""
    for key in ("trials", "outcomes"):
        if key not in inputs:
            raise FileNotFoundError(f"missing required input: {key} CSV not configured")
        _exists(inputs[key])
    rankings = inputs.get("rankings")
    return ingest(inputs["trials"], inputs["outcomes"], rankings and _exists(rankings))


def _rankings(reg: Registry) -> dict:
    return reg.rankings if any(reg.rankings.get(c) for c in reg.rankings) else default_rankings()


class _Run:
    """One command's run: its config, the staging directory ``stage`` it
    writes into, and its inputs, each read, filtered, transformed, linked
    and fitted at most once, so that ``report`` runs every stage off one
    pass.  Once the table, the links and the rankings are all taken from
    the registry, the registry is let go: the heavy stages run without it
    in memory."""

    def __init__(self, cfg: PipelineConfig, stage: Path | None = None):
        self.cfg, self.stage = cfg, stage
        self.inputs = {k: Path(cfg[k]) for k in _INPUT_KEYS if cfg.get(k)}
        self._taken: dict[str, object] = {}
        self._groups: dict[str, np.ndarray] = {}

    @cached_property
    def registry(self) -> Registry:
        return apply_sample_filters(_read_registry(self.inputs))[0]

    def _take(self, name: str, build: Callable):
        if name not in self._taken:
            self._taken[name] = build(self.registry)
            if len(self._taken) == 3:
                del self.registry
        return self._taken[name]

    @property
    def table(self) -> pz.OutcomeTable:
        return self._take("table", lambda reg: pz.outcome_table(reg, self.cfg.side()))

    @property
    def links(self):
        syn = self.inputs.get("synonyms")
        return self._take("links", lambda reg: link_all(
            reg, synonyms=syn and load_synonyms(_exists(syn))))

    @property
    def rankings(self) -> dict:
        return self._take("rankings", _rankings)

    def group_mask(self, group: str) -> np.ndarray:
        """The trial mask of a sponsor group over the table's trials.  The
        sponsor groups read the canonical sponsor keys of the table."""
        if group not in self._groups:
            industry = self.table.trials.industry
            if group == "all":
                mask = np.ones_like(industry)
            elif group == "non_industry":
                mask = ~industry
            elif group == "all_industry":
                mask = industry
            else:
                crit, k = str(self.cfg["split_criterion"]), int(self.cfg["split_k"])
                split = [s for s in all_sponsor_splits(self.rankings, k_range=[k])
                         if s.criterion == crit][0]
                half = "Large" if group == "top_industry" else "Small"
                mask = self.table.group_mask(split, half)
            self._groups[group] = mask
        return self._groups[group]

    def rows(self, group: str) -> pz.OutcomeTable:
        """The table rows of a sponsor group."""
        return self.table.subset(self.group_mask(group)[self.table.trial_code])

    def group_links(self, group: str) -> Links:
        """The links of a group's phase II trials, cut down to the group."""
        return self.links[0].within(self.group_mask(group))

    @cached_property
    def design(self) -> SelectionDesign:
        """The selection design of ``--group``."""
        group = str(self.cfg["group"])
        return build_design(self.rows(group), self.group_links(group))

    @cached_property
    def model(self) -> SelectionModel:
        """The selection model of ``--group``, fitted once for every stage."""
        return fit_logit(self.design)


def _fnum(v) -> str:
    return "" if v is None else f"{v:.6g}"


def _fnums(values: np.ndarray) -> Callable[[np.ndarray], list[str]]:
    """The cells of a column of numbers at given positions, as ``_fnum``
    writes them."""
    return lambda at: list(map(_fnum, values[at].tolist()))


# ---------------------------------------------------------------------------
# Stages: each writes its artifacts into the run's staging directory

def _ingest(run: _Run) -> None:
    outdir = run.stage
    reg = _read_registry(run.inputs)
    filtered, audit = apply_sample_filters(reg)
    write_trials_csv(filtered, outdir / "trials_filtered.csv")
    write_outcomes_csv(filtered, outdir / "outcomes_filtered.csv")
    write_rankings_csv(filtered, outdir / "rankings_filtered.csv")
    write_csv(
        outdir / "filter_audit.csv",
        ["rule", "trials_removed", "outcomes_removed", "note"],
        [[e["rule"], e["trials_removed"], e["outcomes_removed"], e["note"]] for e in audit.entries],
    )
    print(
        f"ingested {reg.n_trials()} trials -> {filtered.n_trials()} after filters "
        f"({audit.total_trials_removed()} removed)"
    )


def _transform(run: _Run) -> None:
    outdir = run.stage
    t = run.table
    z_val = np.where(t.precise, t.z, t.bound)
    _write_columns(outdir / "zscores.csv", ["trial_id", "outcome_rank", "z_kind", "z_value"],
                   np.arange(len(z_val)),
                   [_take(t.trial_id), _take(t.rank), _take(t.kind), _fnums(z_val)])
    print(f"transformed {len(z_val)} outcomes ({t.side.value})")


def _density(run: _Run) -> None:
    outdir, cfg = run.stage, run.cfg
    t = run.rows(str(cfg["group"]))
    curves = []
    for phase, label in ((Phase.PHASE2, "phase2"), (Phase.PHASE3, "phase3")):
        z = t.z[t.sample(phase) & t.precise]
        if z.size < 10:
            raise ValueError(f"too few precise z-scores for {label} density")
        curve = density.kde(z, density.KdeSpec(), bootstrap_bands=True,
                            bootstrap_reps=200, seed=int(cfg["seed"]))
        _write_columns(outdir / f"density_{label}.csv", ["grid", "value", "band_low", "band_high"],
                       np.arange(len(curve.grid)), [_fnums(c) for c in (
                           curve.grid, curve.values, curve.band_low, curve.band_high)])
        curves.append((label, curve))
    svg.line_plot(
        [
            svg.Series(
                x=c.grid, y=c.values, label=label,
                dash="6,3" if label == "phase2" else "",
                band_low=c.band_low, band_high=c.band_high,
            )
            for label, c in curves
        ],
        outdir / "density_overlay.svg",
        title=f"z-score densities ({cfg['group']})",
        xlabel="z", ylabel="density", vline=float(cfg["cutoff"]),
    )
    print(f"densities written for {cfg['group']}")


def _disctest(run: _Run) -> None:
    outdir, cfg = run.stage, run.cfg
    cutoff = float(cfg["cutoff"])
    bandwidth = cfg.get("bandwidth")
    rows = []
    for group in _GROUPS:
        t = run.rows(group)
        for phase, label in ((Phase.PHASE2, "phase2"), (Phase.PHASE3, "phase3")):
            z = t.z[t.sample(phase) & t.precise]
            try:
                r = cjm_test(z, cutoff=cutoff, poly_order=int(cfg["poly_order"]),
                             bandwidth=bandwidth)
                rows.append([group, label, z.size, *map(_fnum, (
                    r.f_left, r.f_right, r.jump, r.std_err, r.t_stat, r.p_value)), ""])
            except ValueError as exc:
                rows.append([group, label, z.size, "", "", "", "", "", "", str(exc)])
    write_csv(
        outdir / "disctest.csv",
        ["group", "phase", "n", "f_left", "f_right", "jump", "std_err",
         "t_stat", "p_value", "error"],
        rows,
    )
    print(f"discontinuity tests at z={cutoff:g} written")


def _link(run: _Run) -> None:
    outdir = run.stage
    links, summary = run.links
    ids, n = links.ids, links.n_matches
    phase2, phase3 = links.pairs()
    _write_columns(outdir / "links.csv", ["phase2_id", "phase3_id"], np.arange(len(phase3)),
                   [_take(ids[phase2]), _take(ids[phase3])])
    _write_columns(
        outdir / "links_summary.csv", ["phase2_id", "continued", "n_matches", "skip_reason"],
        np.arange(len(n)), [_take(ids[links.phase2]), _flags(n > 0), _take(n),
                            _take(links.skip_reason)],
    )
    write_csv(
        outdir / "links_rates.csv",
        ["sponsor_class", "n_eligible", "n_continued", "rate"],
        [
            [cls, ne, nc, _fnum(nc / ne if ne else float("nan"))]
            for cls, (ne, nc) in sorted(summary.by_sponsor_class.items())
        ],
    )
    print(
        f"linked {summary.n_eligible} eligible of {summary.n_phase2} early-phase "
        f"trials; {summary.n_continued} continued"
    )


def _fit_selection(run: _Run) -> None:
    outdir, cfg, design, model = run.stage, run.cfg, run.design, run.model
    ses = model.se()
    rows = []
    for name, est in model.coefficients.items():
        se = ses[name]
        p = 2.0 * pz.norm_sf(abs(est) / se) if se > 0 else float("nan")
        stars = "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""
        rows.append([name, _fnum(est), _fnum(se), stars])
    rows += [[term, value, "", ""] for term, value in (
        ("mean_dependent_variable", _fnum(model.mean_dep)), ("observations", model.n_obs),
        ("n_trials", model.n_trials), ("n_clusters", model.n_clusters),
        ("converged", str(model.converged).lower()))]
    write_csv(outdir / "selection_coefficients.csv",
              ["term", "estimate", "clustered_se", "stars"], rows)
    probs = predict(model, design)
    row = np.arange(len(probs))
    _write_columns(
        outdir / "selection_predictions.csv", ["trial_id", "row", "continuation", "p_hat"], row,
        [_take(run.table.trials.ids[design.trial_code]), _take(row),
         _take(design.y.astype(np.int64)), _fnums(probs)],
    )
    z_grid = np.linspace(0.0, 5.0, 101)
    curve = predict_at_mean(model, design, z_grid)
    svg.line_plot(
        [svg.Series(x=z_grid, y=curve, label="predicted continuation")],
        outdir / "selection_curve.svg",
        title="Continuation probability vs z (controls at means)",
        xlabel="phase II z", ylabel="probability",
        vline=float(cfg["cutoff"]),
    )
    print(f"selection fit: {model.n_obs} rows, converged={model.converged}")


def _decompose(run: _Run) -> None:
    outdir, cfg, group = run.stage, run.cfg, str(run.cfg["group"])
    report = decompose(
        run.rows(group), run.group_links(group), model=run.model,
        bootstrap_reps=int(cfg["bootstrap_reps"]), seed=int(cfg["seed"]),
        cutoff=float(cfg["cutoff"]),
    )
    rows = [[f"share_{k}", _fnum(report.shares[k]), _fnum(report.std_errs[k]), ""]
            for k in ("ph2", "ph3", "ph2_sc")]
    rows += [[k, _fnum(report.diffs[k]), _fnum(report.std_errs[k]), report.stars(k)]
             for k in ("ph3_minus_ph2", "ph3_minus_ph2_sc", "ph2_sc_minus_ph2")]
    rows += [["observations_ph2", report.n_obs["ph2"], "", ""],
             ["observations_ph3", report.n_obs["ph3"], "", ""],
             ["n_trials_ph2", report.n_trials["ph2"], "", ""],
             ["n_trials_ph3", report.n_trials["ph3"], "", ""],
             ["bootstrap_reps", report.bootstrap_reps, "", ""],
             ["dropped_reps", report.dropped_reps, "", ""]]
    write_csv(outdir / "decomposition.csv", ["quantity", "estimate", "bootstrap_se", "stars"], rows)

    explained = report.diffs["ph2_sc_minus_ph2"]
    residual = report.diffs["ph3_minus_ph2_sc"]
    svg.stacked_bars(
        [str(cfg["group"])],
        [
            ("explained by continuation", [max(explained, 0.0)], "#2a9d5c"),
            ("unexplained residual", [max(residual, 0.0)], "#999999"),
        ],
        outdir / "decomposition_bars.svg",
        title="Phase gap in significant shares",
        ylabel="share of significant results",
        baselines=[report.shares["ph2"]],
    )
    print(
        f"decomposition ({cfg['group']}): shares "
        f"ph2={report.shares['ph2']:.3f} ph3={report.shares['ph3']:.3f} "
        f"ph2_sc={report.shares['ph2_sc']:.3f}"
    )


def _sweep(run: _Run) -> None:
    outdir, cfg = run.stage, run.cfg
    splits = all_sponsor_splits(run.rankings)
    disc_rows = sponsor_sweep(
        run.table, splits, Phase.PHASE3, cutoff=float(cfg["cutoff"]),
        poly_order=int(cfg["poly_order"]),
    )
    write_csv(
        outdir / "sweep_discontinuity.csv",
        ["criterion", "k", "group", "n", "p_value", "jump", "error"],
        [
            [r["criterion"], r["k"], r["group"], r["n"], _fnum(r["p_value"]),
             _fnum(r["jump"]), r["error"]]
            for r in disc_rows
        ],
    )
    for group in ("Large", "Small"):
        svg.histogram(
            [r["p_value"] for r in disc_rows if r["group"] == group and not r["error"]],
            outdir / f"sweep_disc_pvalues_{group.lower()}.svg",
            bins=20, lo=0.0, hi=1.0,
            title=f"Discontinuity p-values across split definitions ({group})",
            xlabel="p-value", vline=0.05,
        )

    exp_rows = sponsor_split_sweep(
        run.table, run.group_links("all_industry"), splits, cutoff=float(cfg["cutoff"])
    )
    write_csv(
        outdir / "sweep_explained.csv",
        ["criterion", "k", "group", "ph2", "ph3", "ph2_sc", "explained_fraction", "error"],
        [
            [r["criterion"], r["k"], r["group"], _fnum(r["ph2"]), _fnum(r["ph3"]),
             _fnum(r["ph2_sc"]), _fnum(r["explained_fraction"]), r["error"]]
            for r in exp_rows
        ],
    )
    for group in ("Large", "Small"):
        vals = [
            r["explained_fraction"] for r in exp_rows
            if r["group"] == group and r["explained_fraction"] is not None
        ]
        svg.histogram(
            vals, outdir / f"sweep_explained_{group.lower()}.svg",
            bins=20, lo=-0.5, hi=1.5,
            title=f"Share of phase gap explained by continuation ({group})",
            xlabel="explained fraction",
        )
    print(f"sweep over {len(splits)} split definitions written")


def _sim_config(cfg: PipelineConfig) -> SimConfig:
    # the simulator is imported by the commands that simulate only: the
    # others would pay its import on every run
    from .simulate import Misreporting, SimConfig

    kind, q = str(cfg["misreporting"]), float(cfg["misreport_q"])
    mr = (Misreporting.none() if kind == "none"
          else Misreporting.suppress_share(q) if kind == "suppress"
          else Misreporting.inflate_spike(q, float(cfg["misreport_window"])))
    return SimConfig(n_trials=int(cfg["n_trials"]), seed=int(cfg["seed"]), misreporting=mr)


def _simulate(run: _Run, outdir: Path | None = None) -> None:
    from .simulate import generate, write_truth_csv  # see _sim_config

    outdir = outdir or run.stage
    sim_cfg = _sim_config(run.cfg)
    reg, truth = generate(sim_cfg)
    write_trials_csv(reg, outdir / "trials.csv")
    write_outcomes_csv(reg, outdir / "outcomes.csv")
    write_rankings_csv(reg, outdir / "rankings.csv")
    write_csv(outdir / "synonyms.csv", ["canonical_drug", "synonym"], truth.synonym_pairs)
    write_truth_csv(truth, outdir / "truth.csv")
    cont = int(truth.continued.sum())
    final = Path(run.cfg["out"]) / outdir.relative_to(run.stage)
    print(f"simulated {sim_cfg.n_trials} trials ({cont} continued) into {final}")


def _simulate_inputs(run: _Run) -> None:
    """Simulate the registry of a ``report`` given no input file into
    ``sim/`` and make it the run's input."""
    sim = run.stage / "sim"
    sim.mkdir()
    _simulate(run, sim)
    run.inputs = {k: sim / f"{k}.csv" for k in _INPUT_KEYS}


_COMMANDS = {
    "ingest": (_ingest,),
    "transform": (_transform,),
    "density": (_density,),
    "disctest": (_disctest,),
    "link": (_link,),
    "fit-selection": (_fit_selection,),
    "decompose": (_decompose,),
    "sweep": (_sweep,),
    "simulate": (_simulate,),
    "report": (_transform, _density, _disctest, _link, _fit_selection, _decompose),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialscope",
        description="Forensic statistics for registry-reported sequential trials",
    )
    # the flags are declared once and shared: each add_argument call costs
    # a help formatter
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="key=value configuration file")
    for key, spec in _CONFIG_KEYS.items():
        flags.add_argument(spec.flag or "--" + key.replace("_", "-"), dest=key,
                           type=spec.type, choices=spec.choices, help=spec.help)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[flags])
    return parser


def _move_into(src: Path, dst: Path) -> None:
    """Move the entries of directory ``src`` into ``dst``, merging
    subdirectories that both hold."""
    dst.mkdir(exist_ok=True)
    for entry in src.iterdir():
        target = dst / entry.name
        if entry.is_dir() and target.is_dir():
            _move_into(entry, target)
        else:
            os.replace(entry, target)


@contextmanager
def _staging(outdir: Path):
    """A new directory next to ``outdir`` for a command to write into.  When
    the command succeeds, its entries move into ``outdir``; when it fails,
    the directory is removed, with any parents made for it, so a failed
    command leaves ``outdir`` as it found it."""
    outdir = outdir.absolute()
    missing = [p for p in outdir.parents if not p.exists()]  # innermost first
    outdir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.", dir=outdir.parent))
    try:
        yield stage
        _move_into(stage, outdir)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if not outdir.exists():
            for parent in missing:
                with suppress(OSError):
                    parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = PipelineConfig.load(args.config, overrides)
        with _staging(Path(cfg["out"])) as stage:
            run = _Run(cfg, stage)
            stages = _COMMANDS[args.command]
            if args.command == "report" and not run.inputs:
                stages = (_simulate_inputs, *stages)
            for fn in stages:
                fn(run)
            _write_manifest(stage, cfg)
    except (ValueError, FileNotFoundError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
