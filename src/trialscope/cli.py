"""Pipeline orchestration: subcommand dispatch, artifact emission,
provenance stamping.

Configuration is a plain key=value file; any command-line flag overrides
the file.  Every run writes its artifacts plus a manifest (input hashes,
resolved config, package version, seed) into the output directory.  With
a fixed seed the outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, density, pz, svg
from .decompose import decompose, sponsor_split_sweep
from .discontinuity import cjm_test, sponsor_sweep
from .linker import (
    link_all,
    load_synonyms,
    restrict_links,
    write_links_csv,
    write_links_summary_csv,
)
from .registry import (
    Phase,
    Registry,
    all_sponsor_splits,
    apply_sample_filters,
    default_rankings,
    ingest,
    write_outcomes_csv,
    write_rankings_csv,
    write_trials_csv,
)
from .selection import build_design, fit_logit, predict, predict_at_mean
from .simulate import Misreporting, SimConfig, generate, write_truth_csv

__all__ = ["main", "PipelineConfig"]

_CONFIG_KEYS = {
    "trials": str, "outcomes": str, "rankings": str, "synonyms": str,
    "sidedness": str, "cutoff": float, "split_criterion": str, "split_k": int,
    "bootstrap_reps": int, "seed": int, "out": str, "group": str,
    "poly_order": int, "bandwidth": float, "n_trials": int,
    "misreporting": str, "misreport_q": float, "misreport_window": float,
}

_GROUPS = ("all", "non_industry", "all_industry", "small_industry", "top_industry")


class PipelineConfig(dict):
    """Resolved key=value configuration with typed access."""

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "PipelineConfig":
        cfg = cls()
        cfg.update(
            {
                "sidedness": "two-sided",
                "split_criterion": "revenue2018",
                "split_k": 10,
                "bootstrap_reps": 500,
                "seed": 0,
                "out": "out",
                "group": "all_industry",
                "poly_order": 2,
                "n_trials": 2000,
                "misreporting": "none",
                "misreport_q": 0.0,
                "misreport_window": 0.0,
            }
        )
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
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                cfg[key] = _CONFIG_KEYS[key](value)
        for k, v in overrides.items():
            if v is not None:
                cfg[k] = v
        if "cutoff" not in cfg:
            # the z of p = 0.05 on the active scale
            cfg["cutoff"] = (
                pz.Z_SIG if cfg.side() is pz.Sidedness.TWO_SIDED
                else float(-pz.inv_norm_cdf(0.05))
            )
        if not 7 <= int(cfg["split_k"]) <= 20:
            raise ValueError(f"split_k must lie in [7,20], got {cfg['split_k']}")
        return cfg

    def side(self) -> pz.Sidedness:
        return (
            pz.Sidedness.ONE_SIDED
            if str(self["sidedness"]).startswith("one")
            else pz.Sidedness.TWO_SIDED
        )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: Path, cfg: PipelineConfig, inputs: list[Path]) -> None:
    def _name(p: Path) -> str:
        # inputs inside the output directory are recorded relative to it so
        # re-runs into different directories stay byte-identical
        try:
            return str(p.resolve().relative_to(outdir.resolve()))
        except ValueError:
            return str(p)

    config = {k: cfg[k] for k in sorted(cfg) if k != "out"}
    for key in ("trials", "outcomes", "rankings", "synonyms"):
        if key in config:
            config[key] = _name(Path(config[key]))
    manifest = {
        "version": __version__,
        "config": config,
        "inputs": {_name(p): _sha256(p) for p in inputs if p and Path(p).exists()},
        "outputs": sorted(
            str(p.relative_to(outdir))
            for p in outdir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        ),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_registry(cfg: PipelineConfig, filtered: bool = True) -> Registry:
    for key in ("trials", "outcomes"):
        if key not in cfg:
            raise FileNotFoundError(f"missing required input: {key} CSV not configured")
        if not Path(cfg[key]).exists():
            raise FileNotFoundError(f"input file not found: {cfg[key]}")
    rankings = cfg.get("rankings")
    if rankings is not None and not Path(rankings).exists():
        raise FileNotFoundError(f"input file not found: {rankings}")
    reg = ingest(cfg["trials"], cfg["outcomes"], rankings)
    if filtered:
        reg, _ = apply_sample_filters(reg)
    return reg


def _rankings(reg: Registry) -> dict:
    return reg.rankings if any(reg.rankings.get(c) for c in reg.rankings) else default_rankings()


def _group_ids(
    reg: Registry, table: pz.OutcomeTable, cfg: PipelineConfig, group: str
) -> frozenset[str]:
    """The ids of the trials of a sponsor group.  The sponsor groups read
    the canonical sponsor keys of the table."""
    everyone = frozenset(reg.trials)
    industry = frozenset(table.industry_sponsor)
    if group == "all":
        return everyone
    if group == "non_industry":
        return everyone - industry
    if group == "all_industry":
        return industry
    crit, k = str(cfg["split_criterion"]), int(cfg["split_k"])
    split = [
        s for s in all_sponsor_splits(_rankings(reg), k_range=[k]) if s.criterion == crit
    ][0]
    return table.group_trials(split, "Large" if group == "top_industry" else "Small")


def _links_for(reg: Registry, cfg: PipelineConfig):
    synonyms = None
    syn_path = cfg.get("synonyms")
    if syn_path:
        if not Path(syn_path).exists():
            raise FileNotFoundError(f"input file not found: {syn_path}")
        synonyms = load_synonyms(syn_path)
    return link_all(reg, synonyms=synonyms)


class _Inputs:
    """The inputs of one command, each read, filtered, transformed and
    linked at most once, so that ``report`` runs every stage off one pass."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self._groups: dict[str, frozenset[str]] = {}

    @cached_property
    def registry(self) -> Registry:
        return _load_registry(self.cfg)

    @cached_property
    def table(self) -> pz.OutcomeTable:
        return pz.outcome_table(self.registry, self.cfg.side())

    @cached_property
    def links(self):
        return _links_for(self.registry, self.cfg)

    def group_ids(self, group: str) -> frozenset[str]:
        if group not in self._groups:
            self._groups[group] = _group_ids(self.registry, self.table, self.cfg, group)
        return self._groups[group]

    def rows(self, group: str) -> pz.OutcomeTable:
        """The table rows of a sponsor group."""
        return self.table.subset(self.table.isin("trial_id", self.group_ids(group)))

    def group_links(self, group: str) -> list:
        """The links of a group's phase II trials, cut down to the group."""
        return restrict_links(self.links[0], self.group_ids(group))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fnum(v) -> str:
    if v is None:
        return ""
    return f"{v:.6g}"


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_ingest(inp: _Inputs, outdir: Path) -> None:
    reg = _load_registry(inp.cfg, filtered=False)
    filtered, audit = apply_sample_filters(reg)
    write_trials_csv(filtered, outdir / "trials_filtered.csv")
    write_outcomes_csv(filtered, outdir / "outcomes_filtered.csv")
    write_rankings_csv(filtered, outdir / "rankings_filtered.csv")
    _write_csv(
        outdir / "filter_audit.csv",
        ["rule", "trials_removed", "outcomes_removed", "note"],
        [[e["rule"], e["trials_removed"], e["outcomes_removed"], e["note"]] for e in audit.entries],
    )
    print(
        f"ingested {reg.n_trials()} trials -> {filtered.n_trials()} after filters "
        f"({audit.total_trials_removed()} removed)"
    )


def _cmd_transform(inp: _Inputs, outdir: Path) -> None:
    t = inp.table
    z_val = np.where(t.precise, t.z, t.bound)
    rows = [
        [tid, rank, kind, _fnum(v)]
        for tid, rank, kind, v in zip(t.trial_id, t.rank, t.kind, z_val)
    ]
    _write_csv(outdir / "zscores.csv", ["trial_id", "outcome_rank", "z_kind", "z_value"], rows)
    print(f"transformed {len(rows)} outcomes ({t.side.value})")


def _cmd_density(inp: _Inputs, outdir: Path) -> None:
    cfg = inp.cfg
    t = inp.rows(str(cfg["group"]))
    curves = []
    for phase, label in ((Phase.PHASE2, "phase2"), (Phase.PHASE3, "phase3")):
        z = t.z[t.sample(phase) & t.precise]
        if z.size < 10:
            raise ValueError(f"too few precise z-scores for {label} density")
        curve = density.kde(
            z, density.KdeSpec(), bootstrap_bands=True,
            bootstrap_reps=200, seed=int(cfg["seed"]),
        )
        _write_csv(
            outdir / f"density_{label}.csv",
            ["grid", "value", "band_low", "band_high"],
            [
                [_fnum(g), _fnum(v), _fnum(lo), _fnum(hi)]
                for g, v, lo, hi in zip(
                    curve.grid, curve.values, curve.band_low, curve.band_high
                )
            ],
        )
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


def _cmd_disctest(inp: _Inputs, outdir: Path) -> None:
    cfg = inp.cfg
    cutoff = float(cfg["cutoff"])
    bandwidth = cfg.get("bandwidth")
    rows = []
    for group in _GROUPS:
        t = inp.rows(group)
        for phase, label in ((Phase.PHASE2, "phase2"), (Phase.PHASE3, "phase3")):
            z = t.z[t.sample(phase) & t.precise]
            try:
                r = cjm_test(z, cutoff=cutoff, poly_order=int(cfg["poly_order"]),
                             bandwidth=bandwidth)
                rows.append(
                    [group, label, z.size, _fnum(r.f_left), _fnum(r.f_right),
                     _fnum(r.jump), _fnum(r.std_err), _fnum(r.t_stat),
                     _fnum(r.p_value), ""]
                )
            except ValueError as exc:
                rows.append([group, label, z.size, "", "", "", "", "", "", str(exc)])
    _write_csv(
        outdir / "disctest.csv",
        ["group", "phase", "n", "f_left", "f_right", "jump", "std_err",
         "t_stat", "p_value", "error"],
        rows,
    )
    print(f"discontinuity tests at z={cutoff:g} written")


def _cmd_link(inp: _Inputs, outdir: Path) -> None:
    results, summary = inp.links
    write_links_csv(results, outdir / "links.csv")
    write_links_summary_csv(results, outdir / "links_summary.csv")
    _write_csv(
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


def _cmd_fit_selection(inp: _Inputs, outdir: Path) -> None:
    cfg, group = inp.cfg, str(inp.cfg["group"])
    design = build_design(inp.rows(group), inp.group_links(group))
    model = fit_logit(design)
    ses = model.se()
    rows = []
    for name, est in model.coefficients.items():
        se = ses[name]
        p = 2.0 * pz.norm_sf(abs(est) / se) if se > 0 else float("nan")
        stars = "***" if p < 0.01 else "**" if p < 0.05 else "*" if p < 0.1 else ""
        rows.append([name, _fnum(est), _fnum(se), stars])
    rows.append(["mean_dependent_variable", _fnum(model.mean_dep), "", ""])
    rows.append(["observations", model.n_obs, "", ""])
    rows.append(["n_trials", model.n_trials, "", ""])
    rows.append(["n_clusters", model.n_clusters, "", ""])
    rows.append(["converged", str(model.converged).lower(), "", ""])
    _write_csv(outdir / "selection_coefficients.csv",
               ["term", "estimate", "clustered_se", "stars"], rows)
    probs = predict(model, design)
    _write_csv(
        outdir / "selection_predictions.csv",
        ["trial_id", "row", "continuation", "p_hat"],
        [
            [design.trial_id[i], i, int(design.y[i]), _fnum(probs[i])]
            for i in range(design.n_obs)
        ],
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


def _cmd_decompose(inp: _Inputs, outdir: Path) -> None:
    cfg, group = inp.cfg, str(inp.cfg["group"])
    report = decompose(
        inp.rows(group), inp.group_links(group), bootstrap_reps=int(cfg["bootstrap_reps"]),
        seed=int(cfg["seed"]), cutoff=float(cfg["cutoff"]),
    )
    rows = [
        ["share_ph2", _fnum(report.shares["ph2"]), _fnum(report.std_errs["ph2"]), ""],
        ["share_ph3", _fnum(report.shares["ph3"]), _fnum(report.std_errs["ph3"]), ""],
        ["share_ph2_sc", _fnum(report.shares["ph2_sc"]), _fnum(report.std_errs["ph2_sc"]), ""],
    ]
    for key in ("ph3_minus_ph2", "ph3_minus_ph2_sc", "ph2_sc_minus_ph2"):
        rows.append([key, _fnum(report.diffs[key]), _fnum(report.std_errs[key]), report.stars(key)])
    rows.append(["observations_ph2", report.n_obs["ph2"], "", ""])
    rows.append(["observations_ph3", report.n_obs["ph3"], "", ""])
    rows.append(["n_trials_ph2", report.n_trials["ph2"], "", ""])
    rows.append(["n_trials_ph3", report.n_trials["ph3"], "", ""])
    rows.append(["bootstrap_reps", report.bootstrap_reps, "", ""])
    rows.append(["dropped_reps", report.dropped_reps, "", ""])
    _write_csv(outdir / "decomposition.csv", ["quantity", "estimate", "bootstrap_se", "stars"], rows)

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


def _cmd_sweep(inp: _Inputs, outdir: Path) -> None:
    cfg = inp.cfg
    splits = all_sponsor_splits(_rankings(inp.registry))
    disc_rows = sponsor_sweep(
        inp.table, splits, Phase.PHASE3, cutoff=float(cfg["cutoff"]),
        poly_order=int(cfg["poly_order"]),
    )
    _write_csv(
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
        inp.table, inp.group_links("all_industry"), splits, cutoff=float(cfg["cutoff"])
    )
    _write_csv(
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
    kind = str(cfg["misreporting"])
    if kind == "none":
        mr = Misreporting.none()
    elif kind == "suppress":
        mr = Misreporting.suppress_share(float(cfg["misreport_q"]))
    elif kind == "inflate":
        mr = Misreporting.inflate_spike(
            float(cfg["misreport_q"]), float(cfg["misreport_window"])
        )
    else:
        raise ValueError(f"unknown misreporting kind {kind!r}")
    return SimConfig(
        n_trials=int(cfg["n_trials"]), seed=int(cfg["seed"]), misreporting=mr
    )


def _cmd_simulate(inp: _Inputs, outdir: Path) -> None:
    sim_cfg = _sim_config(inp.cfg)
    reg, truth = generate(sim_cfg)
    write_trials_csv(reg, outdir / "trials.csv")
    write_outcomes_csv(reg, outdir / "outcomes.csv")
    write_rankings_csv(reg, outdir / "rankings.csv")
    _write_csv(
        outdir / "synonyms.csv",
        ["canonical_drug", "synonym"],
        [[c, s] for c, s in truth.synonym_pairs],
    )
    write_truth_csv(truth, outdir / "truth.csv")
    cont = sum(t.continued for t in truth.trials)
    print(f"simulated {sim_cfg.n_trials} trials ({cont} continued) into {outdir}")


def _cmd_report(inp: _Inputs, outdir: Path) -> None:
    if "trials" not in inp.cfg:
        # self-contained run on a fresh simulation
        sim_dir = outdir / "sim"
        sim_dir.mkdir(parents=True, exist_ok=True)
        _cmd_simulate(inp, sim_dir)
        cfg = PipelineConfig(inp.cfg)
        cfg["trials"] = str(sim_dir / "trials.csv")
        cfg["outcomes"] = str(sim_dir / "outcomes.csv")
        cfg["rankings"] = str(sim_dir / "rankings.csv")
        cfg["synonyms"] = str(sim_dir / "synonyms.csv")
        inp = _Inputs(cfg)
    # take all the stages need from the registry up front and let it go:
    # the heavy stages then run without it in memory
    for group in _GROUPS:
        inp.group_ids(group)
    _ = inp.table, inp.links
    del inp.registry
    for stage in (_cmd_transform, _cmd_density, _cmd_disctest, _cmd_link,
                  _cmd_fit_selection, _cmd_decompose):
        stage(inp, outdir)
    print(f"report artifacts in {outdir}")


_COMMANDS = {
    "ingest": _cmd_ingest,
    "transform": _cmd_transform,
    "density": _cmd_density,
    "disctest": _cmd_disctest,
    "link": _cmd_link,
    "fit-selection": _cmd_fit_selection,
    "decompose": _cmd_decompose,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialscope",
        description="Forensic statistics for registry-reported sequential trials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--trials", help="trials CSV")
        p.add_argument("--outcomes", help="outcomes CSV")
        p.add_argument("--rankings", help="sponsor rankings CSV")
        p.add_argument("--synonyms", help="drug synonyms CSV")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--cutoff", type=float)
        p.add_argument("--sidedness", choices=["two-sided", "one-sided"])
        p.add_argument("--group", choices=list(_GROUPS))
        p.add_argument("--split-criterion", dest="split_criterion")
        p.add_argument("--split-k", dest="split_k", type=int)
        p.add_argument("--bootstrap-reps", dest="bootstrap_reps", type=int)
        p.add_argument("--order", dest="poly_order", type=int)
        p.add_argument("--bandwidth", type=float)
        p.add_argument("--n-trials", dest="n_trials", type=int)
        p.add_argument("--misreporting", choices=["none", "suppress", "inflate"])
        p.add_argument("--misreport-q", dest="misreport_q", type=float)
        p.add_argument("--misreport-window", dest="misreport_window", type=float)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = PipelineConfig.load(args.config, overrides)
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        inputs = [
            Path(cfg[k]) for k in ("trials", "outcomes", "rankings", "synonyms")
            if cfg.get(k)
        ]
        _COMMANDS[args.command](_Inputs(cfg), outdir)
        _write_manifest(outdir, cfg, inputs)
    except (ValueError, FileNotFoundError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
