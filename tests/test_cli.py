import csv
import json
import os
import subprocess
import sys
import textwrap

import pytest

from trialscope import cli
from trialscope.cli import PipelineConfig, main
from trialscope.pz import Z_SIG


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("simfix")
    assert run(["simulate", "--out", out, "--seed", 9, "--n-trials", 400]) == 0
    return out


class TestConfig:
    def test_key_value_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=5\ncutoff=2.0\n# comment\nsplit_k=12\n")
        cfg = PipelineConfig.load(str(cfg_file), {"seed": 7, "out": None})
        assert cfg["seed"] == 7  # flag wins
        assert cfg["cutoff"] == 2.0
        assert cfg["split_k"] == 12

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig.load(str(cfg_file), {})

    def test_default_cutoff_follows_sidedness(self, tmp_path):
        assert PipelineConfig.load(None, {})["cutoff"] == Z_SIG
        one = PipelineConfig.load(None, {"sidedness": "one-sided"})["cutoff"]
        assert one == pytest.approx(1.644854, abs=1e-6)
        explicit = {"sidedness": "one-sided", "cutoff": 1.96}
        assert PipelineConfig.load(None, explicit)["cutoff"] == 1.96
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("sidedness=one-sided\ncutoff=2.5\n")
        assert PipelineConfig.load(str(cfg_file), {"cutoff": None})["cutoff"] == 2.5

    def test_split_k_bounds(self, tmp_path):
        cfg_file = tmp_path / "k.cfg"
        cfg_file.write_text("split_k=25\n")
        with pytest.raises(ValueError, match="split_k"):
            PipelineConfig.load(str(cfg_file), {})


    def test_unknown_split_criterion_rejected(self, sim_dir, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("split_criterion=Revenue2018\n")
        inputs = ["--trials", sim_dir / "trials.csv", "--outcomes", sim_dir / "outcomes.csv"]
        for args in (["--split-criterion", "Revenue2018"], ["--config", cfg_file]):
            assert run(["transform", *inputs, *args, "--out", tmp_path / "o"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "split_criterion" in err
            assert "Traceback" not in err


    @pytest.mark.parametrize("line", [
        "group = large_industry", "sidedness = one_tailed", "misreporting = shuffle",
    ])
    def test_unknown_choice_in_config_exits_one(self, sim_dir, tmp_path, capsys, line):
        key = line.split()[0]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"seed = 1\n{line}\n")
        with pytest.raises(ValueError, match=f"run.cfg:2: {key} must be one of"):
            PipelineConfig.load(str(cfg_file), {})
        out = tmp_path / "o"
        assert run(["decompose", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv", "--config", cfg_file,
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not (out / "decomposition.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_mistyped_config_value_names_line_and_key(self, tmp_path):
        cfg_file = tmp_path / "k.cfg"
        cfg_file.write_text("# comment\nsplit_k = ten\n")
        with pytest.raises(ValueError, match=r"k.cfg:2: split_k must be int, got 'ten'"):
            PipelineConfig.load(str(cfg_file), {})

    def test_every_flag_is_a_config_key(self):
        # one option per config key plus --config, on every subcommand
        sub = cli._build_parser()._subparsers._group_actions[0]
        # split_criterion is checked by load, so a bad flag exits 1, not 2
        flag_choices = {k: s.choices for k, s in cli._CONFIG_KEYS.items()
                        if s.choices and k != "split_criterion"}
        assert set(flag_choices) == {"sidedness", "group", "misreporting"}
        for name, parser in sub.choices.items():
            dests = [a.dest for a in parser._actions if a.dest != "help"]
            assert len(dests) == 19, name
            assert set(dests) - {"config"} == set(cli._CONFIG_KEYS), name
            assert {a.dest: a.choices for a in parser._actions if a.choices} == flag_choices
        assert len(cli._CONFIG_KEYS) == 18

    def test_every_subcommand_parses_every_flag(self):
        def value(spec):
            return spec.choices[-1] if spec.choices else {str: "x", int: "7", float: "0.5"}[
                spec.type]

        argv = ["--config", "run.cfg"]
        for key, spec in cli._CONFIG_KEYS.items():
            argv += [spec.flag or "--" + key.replace("_", "-"), value(spec)]
        expected = {"config": "run.cfg",
                    **{k: s.type(value(s)) for k, s in cli._CONFIG_KEYS.items()}}
        parser = cli._build_parser()
        for name in cli._COMMANDS:
            args = vars(parser.parse_args([name, *argv]))
            assert args == {"command": name, **expected}, name
            # a flag given to one subcommand does not leak into the next
            assert vars(parser.parse_args([name])) == {
                "command": name, **dict.fromkeys(expected)}, name

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("command, flags, key, value", [
        ("disctest", [], "poly_order", "1"),
        ("sweep", [], "poly_order", "1"),
        ("disctest", [], "bandwidth", "0"),
        ("report", [], "seed", "-1"),
        ("report", [], "cutoff", "nan"),
        ("simulate", [], "n_trials", "0"),
        ("simulate", ["--misreporting", "suppress"], "misreport_q", "2"),
        ("simulate", ["--misreporting", "inflate"], "misreport_window", "-1"),
    ])
    def test_bad_value_exits_one_before_any_stage(self, sim_dir, tmp_path, capsys,
                                                  command, flags, key, value, where):
        out = tmp_path / "o"
        args = [command, *flags, "--out", out]
        if command != "simulate":
            args += [f"--{name}={sim_dir / name}.csv"
                     for name in ("trials", "outcomes", "rankings", "synonyms")]
        if where == "flag":
            flag = "--order" if key == "poly_order" else "--" + key.replace("_", "-")
            args += [flag, value]
        else:
            cfg_file = tmp_path / "bad.cfg"
            cfg_file.write_text(f"# one bad value\n{key} = {value}\n")
            args += ["--config", cfg_file]
        assert run(args) == 1
        err = capsys.readouterr().err
        where_text = f"bad.cfg:2: {key} must be" if where == "config" else f"{key} must be"
        assert err.startswith("error:") and where_text in err
        assert "Traceback" not in err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if where == "flag" else ["bad.cfg"])


class TestOutputDirectory:
    """A command writes into a staging directory next to --out and moves
    its files in after the manifest: a failure leaves --out as it was."""

    def test_missing_input_leaves_no_out(self, tmp_path, capsys):
        assert run(["report", "--trials", tmp_path / "missing.csv",
                    "--out", tmp_path / "a" / "D"]) == 1
        assert "missing.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failing_stage_leaves_no_out(self, tmp_path, capsys):
        # the simulated registry has no non-industry trial: the density
        # stage fails after the simulation and zscores.csv were written
        out = tmp_path / "D"
        assert run(["report", "--n-trials", 2000, "--group", "non_industry",
                    "--bootstrap-reps", 5, "--out", out]) == 1
        assert "too few precise z-scores for phase2 density" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_an_existing_out(self, sim_dir, tmp_path):
        out = tmp_path / "D"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert run(["decompose", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--bootstrap-reps", 5, "--group", "non_industry", "--out", out]) == 1
        assert list(tmp_path.iterdir()) == [out]
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_success_moves_every_file_in(self, tmp_path):
        out = tmp_path / "a" / "D"
        assert run(["simulate", "--n-trials", 200, "--seed", 3, "--out", out]) == 0
        assert list(tmp_path.iterdir()) == [tmp_path / "a"]
        assert list((tmp_path / "a").iterdir()) == [out]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["outputs"], "manifest.json"])
        # a second run into the same directory replaces its files
        (out / "trials.csv").write_text("stale")
        assert run(["simulate", "--n-trials", 200, "--seed", 3, "--out", out]) == 0
        assert (out / "trials.csv").read_text().startswith("trial_id,")


class TestExitCodes:
    def test_negative_bootstrap_reps_exit_one(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["decompose", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--synonyms", sim_dir / "synonyms.csv",
                    "--bootstrap-reps", -5, "--out", out]) == 1
        assert "bootstrap_reps must be >= 0, got -5" in capsys.readouterr().err
        assert not (out / "decomposition.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_bootstrap_reps_exit_before_out_exists(self, tmp_path, capsys, where):
        # the check runs when the config loads: no stage runs and --out is
        # never created, here on a report that would first simulate into it
        out = tmp_path / "o"
        args = ["report", "--n-trials", 600, "--out", out]
        if where == "flag":
            args += ["--bootstrap-reps", -5]
        else:
            cfg_file = tmp_path / "reps.cfg"
            cfg_file.write_text("bootstrap_reps = -5\n")
            args += ["--config", cfg_file]
        assert run(args) == 1
        assert "bootstrap_reps must be >= 0, got -5" in capsys.readouterr().err
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ([] if where == "flag" else ["reps.cfg"])

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_one_bootstrap_rep_exits_before_out_exists(self, sim_dir, tmp_path, capsys, where):
        # one rep would write a NaN standard error: rejected as the config
        # loads, before any stage, as a negative count is
        out = tmp_path / "o"
        args = ["decompose", "--trials", sim_dir / "trials.csv",
                "--outcomes", sim_dir / "outcomes.csv", "--synonyms", sim_dir / "synonyms.csv",
                "--out", out]
        if where == "flag":
            args += ["--bootstrap-reps", 1]
        else:
            cfg_file = tmp_path / "reps.cfg"
            cfg_file.write_text("bootstrap_reps = 1\n")
            args += ["--config", cfg_file]
        assert run(args) == 1
        assert "bootstrap_reps must be 0 or at least 2, got 1" in capsys.readouterr().err
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ([] if where == "flag" else ["reps.cfg"])

    @pytest.mark.parametrize("given", [("outcomes", "rankings"), ("synonyms",), ("outcomes",)])
    def test_report_with_partial_inputs_exits_one(self, sim_dir, tmp_path, capsys, given):
        # report simulates only when no input file is configured; with some
        # but no trials CSV it stops rather than simulate over them
        out = tmp_path / "o"
        assert run(["report", *[f"--{name}={sim_dir / name}.csv" for name in given],
                    "--bootstrap-reps", 0, "--out", out]) == 1
        assert "missing required input: trials CSV not configured" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_exits_one_and_names_path(self, tmp_path, capsys):
        code = run(["transform", "--trials", "/nope/t.csv",
                    "--outcomes", "/nope/o.csv", "--out", tmp_path])
        assert code == 1
        assert "/nope/t.csv" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_ok_exit_zero(self, sim_dir, tmp_path):
        code = run(["transform", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv", "--out", tmp_path])
        assert code == 0
        assert (tmp_path / "zscores.csv").exists()
        assert (tmp_path / "manifest.json").exists()


class TestArtifacts:
    def test_transform_deterministic(self, sim_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["transform", "--trials", sim_dir / "trials.csv",
                        "--outcomes", sim_dir / "outcomes.csv", "--out", out]) == 0
            outs.append((out / "zscores.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_zscores_schema(self, sim_dir, tmp_path):
        run(["transform", "--trials", sim_dir / "trials.csv",
             "--outcomes", sim_dir / "outcomes.csv", "--out", tmp_path])
        lines = (tmp_path / "zscores.csv").read_text().splitlines()
        assert lines[0] == "trial_id,outcome_rank,z_kind,z_value"
        assert len(lines) > 400

    @pytest.mark.parametrize("sidedness, p", [("two-sided", "1"), ("one-sided", "0.5")])
    def test_central_p_writes_zero(self, tmp_path, sidedness, p):
        sim = tmp_path / "sim"
        assert run(["simulate", "--out", sim, "--seed", 4, "--n-trials", 600]) == 0
        with open(sim / "outcomes.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        rows[7][header.index("p_kind")], rows[7][header.index("p_value")] = "exact", p
        with open(sim / "outcomes.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        assert run(["transform", "--trials", sim / "trials.csv", "--outcomes",
                    sim / "outcomes.csv", "--sidedness", sidedness, "--out", tmp_path / "z"]) == 0
        with open(tmp_path / "z" / "zscores.csv", newline="", encoding="utf-8") as fh:
            z = list(csv.DictReader(fh))
        assert z[7]["trial_id"] == rows[7][0] and z[7]["z_kind"] == "precise"
        assert z[7]["z_value"] == "0"
        assert not any(r["z_value"] == "-0" for r in z)

    def test_link_artifacts(self, sim_dir, tmp_path):
        assert run(["link", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--synonyms", sim_dir / "synonyms.csv", "--out", tmp_path]) == 0
        assert (tmp_path / "links.csv").exists()
        summary = (tmp_path / "links_summary.csv").read_text().splitlines()
        assert summary[0] == "phase2_id,continued,n_matches,skip_reason"

    def test_ingest_audit(self, sim_dir, tmp_path):
        assert run(["ingest", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--rankings", sim_dir / "rankings.csv", "--out", tmp_path]) == 0
        audit = (tmp_path / "filter_audit.csv").read_text()
        assert "drop_anomalous_sponsor" in audit

    def test_manifest_contents(self, sim_dir, tmp_path):
        run(["transform", "--trials", sim_dir / "trials.csv",
             "--outcomes", sim_dir / "outcomes.csv", "--out", tmp_path,
             "--seed", 3])
        m = json.loads((tmp_path / "manifest.json").read_text())
        assert m["config"]["seed"] == 3
        assert len(m["inputs"]) == 2
        assert all(len(h) == 64 for h in m["inputs"].values())
        assert "zscores.csv" in m["outputs"]

    def test_disctest_emits_rows(self, sim_dir, tmp_path):
        assert run(["disctest", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv", "--out", tmp_path]) == 0
        rows = (tmp_path / "disctest.csv").read_text().splitlines()
        assert rows[0].startswith("group,phase,n,")
        assert len(rows) == 11  # 5 groups x 2 phases + header


class TestHeavierSubcommands:
    def test_density_and_decompose(self, tmp_path):
        # bootstrap refits over ~30 dummy columns need a decent sample to
        # avoid tripping the separation-drop guard
        sim = tmp_path / "simbig"
        assert run(["simulate", "--out", sim, "--seed", 3, "--n-trials", 1100]) == 0
        common = ["--trials", sim / "trials.csv",
                  "--outcomes", sim / "outcomes.csv",
                  "--synonyms", sim / "synonyms.csv"]
        out = tmp_path / "dens"
        assert run(["density", *common, "--out", out, "--seed", 2]) == 0
        body = (out / "density_overlay.svg").read_text()
        assert "polyline" in body
        lines = (out / "density_phase2.csv").read_text().splitlines()
        assert lines[0] == "grid,value,band_low,band_high"

        out2 = tmp_path / "dec"
        assert run(["decompose", *common, "--out", out2,
                    "--bootstrap-reps", 25, "--seed", 2]) == 0
        text = (out2 / "decomposition.csv").read_text()
        assert "share_ph2" in text and "ph3_minus_ph2_sc" in text

    def test_decompose_small_sample_failure_guard(self, sim_dir, tmp_path, capsys):
        # at 400 trials repeated resampling separates sparse dummies in
        # well over 10% of repetitions: the guard must surface an error
        code = run(["decompose", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--synonyms", sim_dir / "synonyms.csv",
                    "--out", tmp_path, "--bootstrap-reps", 25, "--seed", 2])
        assert code == 1
        assert "bootstrap repetitions failed" in capsys.readouterr().err

    def test_sweep(self, sim_dir, tmp_path):
        assert run(["sweep", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--synonyms", sim_dir / "synonyms.csv",
                    "--rankings", sim_dir / "rankings.csv",
                    "--out", tmp_path]) == 0
        rows = (tmp_path / "sweep_discontinuity.csv").read_text().splitlines()
        assert len(rows) == 113  # 56 splits x 2 groups + header
        assert (tmp_path / "sweep_explained.csv").exists()
        assert (tmp_path / "sweep_disc_pvalues_small.svg").exists()

    def test_sweep_follows_sidedness(self, sim_csvs, tmp_path):
        trials, outcomes, rankings, synonyms = sim_csvs
        tables = {}
        for side in ("two-sided", "one-sided"):
            out = tmp_path / side
            assert run(["sweep", "--trials", trials, "--outcomes", outcomes,
                        "--synonyms", synonyms, "--rankings", rankings,
                        "--sidedness", side, "--cutoff", 1.96, "--out", out]) == 0
            tables[side] = [
                list(csv.reader(open(out / name, encoding="utf-8")))
                for name in ("sweep_discontinuity.csv", "sweep_explained.csv")
            ]
        # one-sided z of the same p-values are larger, so with the cutoff
        # held fixed every computable cell moves in both tables
        for two, one in zip(tables["two-sided"], tables["one-sided"]):
            cells = [(a, b) for a, b in zip(two[1:], one[1:]) if not a[-1] and not b[-1]]
            assert cells
            assert all(a[4] != b[4] for a, b in cells)

    def test_report_reads_and_links_once(self, sim_dir, tmp_path, monkeypatch):
        # and fits the selection model once: fit-selection and decompose
        # share the run's model, counted through both modules' bindings
        calls = {"ingest": 0, "link_all": 0, "build_design": 0, "fit_logit": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, sys.modules["trialscope.decompose"]):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert run(["report", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--synonyms", sim_dir / "synonyms.csv",
                    "--rankings", sim_dir / "rankings.csv",
                    "--bootstrap-reps", 0, "--out", tmp_path]) == 0
        assert calls == {"ingest": 1, "link_all": 1, "build_design": 1, "fit_logit": 1}
        assert (tmp_path / "decomposition.csv").exists()

    def test_report_writes_what_its_commands_write(self, sim_csvs, tmp_path):
        trials, outcomes, rankings, synonyms = sim_csvs
        flags = ["--trials", trials, "--outcomes", outcomes, "--rankings", rankings,
                 "--synonyms", synonyms, "--seed", 2, "--bootstrap-reps", 10]
        assert run(["report", *flags, "--out", tmp_path / "report"]) == 0
        written = {}
        for command in ("transform", "density", "disctest", "link", "fit-selection",
                        "decompose"):
            out = tmp_path / command
            assert run([command, *flags, "--out", out]) == 0
            for p in out.iterdir():
                if p.suffix in (".csv", ".svg"):
                    assert p.name not in written
                    written[p.name] = p.read_bytes()
        report = {p.name: p.read_bytes() for p in (tmp_path / "report").iterdir()
                  if p.suffix in (".csv", ".svg")}
        assert sorted(report) == sorted(written)
        assert [name for name in report if report[name] != written[name]] == []

    def test_fit_selection_artifacts(self, sim_dir, tmp_path):
        assert run(["fit-selection", "--trials", sim_dir / "trials.csv",
                    "--outcomes", sim_dir / "outcomes.csv",
                    "--synonyms", sim_dir / "synonyms.csv",
                    "--out", tmp_path]) == 0
        coefs = (tmp_path / "selection_coefficients.csv").read_text()
        assert "z_ph2" in coefs and "mean_dependent_variable" in coefs
        preds = (tmp_path / "selection_predictions.csv").read_text().splitlines()
        assert preds[0] == "trial_id,row,continuation,p_hat"
        assert (tmp_path / "selection_curve.svg").exists()


def scipy_modules_after(code: str, cwd=None) -> str:
    """The scipy modules loaded in a fresh interpreter after running ``code``."""
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env, cwd=cwd)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs every CLI process most of a second, and scipy.special
    # alone about a third of one; no command needs either
    assert scipy_modules_after("import trialscope.cli") == "[]"


def test_cli_import_leaves_the_simulator_unloaded():
    # only simulate and a report without inputs run the simulator; every
    # other command would pay its import
    code = "import sys\nimport trialscope.cli\nprint('trialscope.simulate' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_simulate_report_and_sweep_load_no_scipy(tmp_path):
    code = textwrap.dedent("""
        from trialscope.cli import main

        sim = ["--trials", "sim/trials.csv", "--outcomes", "sim/outcomes.csv",
               "--synonyms", "sim/synonyms.csv", "--rankings", "sim/rankings.csv"]
        assert main(["simulate", "--n-trials", "600", "--seed", "5", "--out", "sim"]) == 0
        assert main(["report", *sim, "--bootstrap-reps", "5", "--out", "report"]) == 0
        assert main(["sweep", *sim, "--out", "sweep"]) == 0
    """)
    assert scipy_modules_after(code, cwd=tmp_path) == "[]"
    assert (tmp_path / "report" / "decomposition.csv").exists()
    assert (tmp_path / "sweep" / "sweep_explained.csv").exists()


def test_report_leaves_numpy_ma_unloaded(tmp_path):
    # np.percentile and np.unique import numpy.ma, about 13 ms of every process
    code = textwrap.dedent("""
        import sys
        from trialscope.cli import main

        assert main(["report", "--n-trials", "600", "--seed", "5", "--bootstrap-reps", "5",
                     "--out", "report"]) == 0
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env, cwd=tmp_path)
    assert out.stdout.strip().splitlines()[-1] == "False"
    assert (tmp_path / "report" / "density_phase2.csv").exists()


def test_bandwidth_and_decompose_leave_scipy_optimize_unloaded():
    # the Sheather-Jones root finder is in-house: scipy.optimize would cost
    # every CLI process about a quarter of a second
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from trialscope.decompose import decompose
        from trialscope.density import sj_bandwidth
        from trialscope.linker import build_synonym_map, link_all
        from trialscope.pz import outcome_table
        from trialscope.simulate import SimConfig, generate

        assert not sj_bandwidth(np.random.default_rng(0).normal(size=300)).fallback
        reg, truth = generate(SimConfig(n_trials=600, seed=5))
        links, _ = link_all(reg, synonyms=build_synonym_map(truth.synonym_pairs))
        rep = decompose(outcome_table(reg), links, bootstrap_reps=5, seed=1)
        assert rep.bootstrap_reps == 5
        print("scipy.optimize" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.strip() == "False"
