"""The simulator still writes the benchmark's inputs byte for byte.

The benchmark refuses to run on inputs whose hash differs from the one
recorded with its reference outputs, so a simulator change that alters a
CSV byte must fail here first.  Pool entry 0 of every workload is simulated
through the benchmark's own input preparation, into a temporary directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_run(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "benchmarks" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)  # its dataclasses look it up
    monkeypatch.setattr(sys, "path", list(sys.path))  # it puts benchmarks/ on the path
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["oracle_mc", "report_registry", "sweep"])
def test_simulated_inputs_hash_to_the_reference(tmp_path, monkeypatch, workload):
    run = _bench_run(monkeypatch)
    monkeypatch.setattr(run, "WORK", tmp_path)
    wl = run.make_workload(workload, 0)
    assert wl.reference is not None
    assert wl.prepare()["sha256"] == wl.reference["inputs_sha256"]
