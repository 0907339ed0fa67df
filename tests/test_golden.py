"""Byte identity of the report, sweep and ingest artifacts.

``report --seed 7 --n-trials 600 --bootstrap-reps 20`` simulates a registry
and runs every stage on it; ``sweep`` and ``ingest`` then run on the CSVs
of that registry.  The sha256 of every CSV and SVG the three commands
write must equal ``golden.json``.  The ``ingest`` entries were added
later, recorded from the code as it stood before the commands became
tuples of stages.  The hashes there were recorded before the
condition category and the completion year became integer codes on
``Trials``, so they pin that refactor to the numbers of the string-coded
pipeline.

A change that alters numbers on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py

which prints, before it writes, every artifact whose hash changed and
every artifact added or removed; the change lists them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

# one BLAS thread: a threaded reduction may sum in another order
_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _cli(*args) -> None:
    env = {**os.environ, **_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-m", "trialscope.cli", *map(str, args)],
                   check=True, env=env, capture_output=True)


def artifact_hashes(work: Path) -> dict[str, str]:
    """Run the report, then the sweep and the ingest on the report's
    simulated CSVs, into ``work``; the sha256 of each CSV and SVG written,
    by path relative to ``work``."""
    report, sweep = work / "report", work / "sweep"
    _cli("report", "--seed", 7, "--n-trials", 600, "--bootstrap-reps", 20, "--out", report)
    sim = report / "sim"
    inputs = ("--trials", sim / "trials.csv", "--outcomes", sim / "outcomes.csv",
              "--rankings", sim / "rankings.csv", "--synonyms", sim / "synonyms.csv")
    _cli("sweep", *inputs, "--out", sweep)
    _cli("ingest", *inputs, "--out", work / "ingest")
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*")) if p.suffix in (".csv", ".svg")
    }


def differences(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per artifact that changed, was added or was removed."""
    lines = []
    for name in sorted(expected.keys() | got.keys()):
        if name not in got:
            lines.append(f"removed {name}")
        elif name not in expected:
            lines.append(f"added {name}")
        elif got[name] != expected[name]:
            lines.append(f"changed {name}")
    return lines


def test_differences_name_changed_added_and_removed():
    expected = {"a.csv": "1", "b.csv": "2", "c.svg": "3"}
    got = {"a.csv": "1", "b.csv": "9", "d.csv": "4"}
    assert differences(expected, got) == ["changed b.csv", "removed c.svg", "added d.csv"]


def test_artifacts_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = artifact_hashes(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"artifacts differ from {GOLDEN.name}: {changed}"


# ``density --seed 101`` on ``simulate --seed 101 --n-trials 5000``, the
# registry of the benchmark's report: the 600-trial report above has small
# samples, where the density's windows hold few observations
REGISTRY_DENSITY = {
    "density_phase2.csv": "c3b295443d0cdf8ceef0eedc63a45be9e98fae0afc2afbec7959740faef2d13c",
    "density_phase3.csv": "eece02598418b058c4ccdc6862b8a7c7cb9ac2b9de6c97e8305eeb84581f9599",
}


def test_registry_scale_densities_match_pins(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "density"
    _cli("simulate", "--seed", 101, "--n-trials", 5000, "--out", sim)
    _cli("density", "--trials", sim / "trials.csv", "--outcomes", sim / "outcomes.csv",
         "--seed", 101, "--out", out)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in REGISTRY_DENSITY}
    assert got == REGISTRY_DENSITY


# ``report --seed 101 --bootstrap-reps 20`` on the same registry with its
# synonyms, recorded when these files were written a row at a time through
# ``csv``-style tuples: their rows span several blocks of the column writer
REGISTRY_REPORT = {
    "zscores.csv": "dbdd755018f5a31040cc010c3af889cb002aaccb8a68be262103219ca38d74d3",
    "links.csv": "62d279d45fee4c4ccc88d07d5115336d17e4c8e69a5d360fa2f7d7c15141a2b2",
    "links_summary.csv": "ec44821a70aad7daf0e91a037202bff157292934df43cb997579fe57720c6b4a",
    "selection_predictions.csv":
        "404427f5960161be6d057ad6c01862580c24898d70fcad70e10d1283c21deacf",
}


def test_registry_scale_report_matches_pins(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "report"
    _cli("simulate", "--seed", 101, "--n-trials", 5000, "--out", sim)
    _cli("report", *(f"--{name}={sim / name}.csv" for name in (
        "trials", "outcomes", "rankings", "synonyms")),
         "--seed", 101, "--bootstrap-reps", 20, "--out", out)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in REGISTRY_REPORT}
    assert got == REGISTRY_REPORT


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = artifact_hashes(Path(tmp))
    for line in differences(json.loads(GOLDEN.read_text()), hashes) or ["no artifact changed"]:
        print(line)
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(hashes)} artifacts in {GOLDEN}")
