"""Tests for the benchmark's correctness gates and metric selection."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _write(out: Path, rows: list[str]) -> None:
    out.mkdir(exist_ok=True)
    (out / "zscores.csv").write_text("\n".join(["trial_id,z_value", *rows]) + "\n")
    (out / "plot.svg").write_text("<svg/>")


@pytest.fixture
def reference(tmp_path):
    out = tmp_path / "ref"
    _write(out, [f"T{i},{1.8 + i / 100:g}" for i in range(40)])
    return {"files": run.read_artifacts(out)}


def test_identical_and_rounding_level_outputs_pass(reference, tmp_path):
    out = tmp_path / "out"
    _write(out, [f"T{i},{1.8 + i / 100:g}" for i in range(40)])
    assert run.compare_outputs(reference, out) is None
    _write(out, [f"T{i},{(1.8 + i / 100) * (1 + 1e-6):.6g}" for i in range(40)])
    assert run.compare_outputs(reference, out) is None


def test_one_changed_cell_fails(reference, tmp_path):
    rows = [f"T{i},{1.8 + i / 100:g}" for i in range(40)]
    rows[7] = "T7,1.8701"  # 1e-4 off in one row of many
    out = tmp_path / "out"
    _write(out, rows)
    assert "zscores.csv:z_value row 7" in run.compare_outputs(reference, out)


def test_swapped_rows_fail(reference, tmp_path):
    rows = [f"T{i},{1.8 + i / 100:g}" for i in range(40)]
    rows[3], rows[10] = rows[10], rows[3]
    out = tmp_path / "out"
    _write(out, rows)
    assert "row 3" in run.compare_outputs(reference, out)


def test_missing_artifact_and_row_count(reference, tmp_path):
    out = tmp_path / "out"
    _write(out, [f"T{i},{1.8 + i / 100:g}" for i in range(39)])
    assert "39 rows vs reference 40" in run.compare_outputs(reference, out)
    (out / "plot.svg").unlink()
    assert run.compare_outputs(reference, out) == "missing artifact plot.svg"


def test_compare_values_tolerance_and_nan():
    ref = {"diffs": {"a": 0.5, "b": float("nan")}, "dropped_reps": 0}
    assert run.compare_values({"diffs": {"a": 0.5 + 1e-7, "b": float("nan")}, "dropped_reps": 0},
                              ref, "d") is None
    assert run.compare_values({"diffs": {"a": 0.5001, "b": float("nan")}, "dropped_reps": 0},
                              ref, "d") == "d.diffs.a: 0.5001 vs reference 0.5"
    assert run.compare_values({"diffs": {"a": 0.5, "b": 0.1}, "dropped_reps": 0}, ref, "d")
    assert run.compare_values({"diffs": {"a": 0.5, "b": float("nan")}, "dropped_reps": 1},
                              ref, "d")


def test_declared_metric_not_measured_is_an_error():
    declared = [{"name": "pz.transform.calls", "unit": "count"},
                {"name": "svg.histogram.calls", "unit": "count"}]
    got = run.declared_values({"pz.transform.calls": 12, "svg.histogram.calls": 0}, declared)
    assert got["svg.histogram.calls"] == {"value": 0.0, "unit": "count"}
    with pytest.raises(ValueError, match="svg.histogram.calls"):
        run.declared_values({"pz.transform.calls": 12}, declared)


def test_short_or_long_rows_fail(reference, tmp_path):
    rows = [f"T{i},{1.8 + i / 100:g}" for i in range(40)]
    out = tmp_path / "out"
    _write(out, [*rows[:5], "T5", *rows[6:]])
    assert "row 5" in run.compare_outputs(reference, out)
    _write(out, [*rows[:5], rows[5] + ",extra", *rows[6:]])
    assert "3 cells per row vs reference 2" in run.compare_outputs(reference, out)
