"""The benchmark's declared per-layer metrics name functions of the package.

A traced benchmark run fails with "declared metrics not measured" when a
declared ``<layer>.<fn>.calls`` metric names a function the tracer does not
wrap, so a refactor that renames, hides or moves such a function must fail
here first.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_declared_layer_calls_name_traced_functions():
    tracer = _tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    names = [m["name"].split(".") for m in declared]
    calls = [(n[0], n[1]) for n in names if len(n) == 3 and n[2] == "calls"]
    assert calls
    missing = [
        f"{layer}.{fn}" for layer, fn in calls
        if layer not in tracer.LAYERS
        or fn not in tracer.public_functions(importlib.import_module(f"trialscope.{layer}"))
    ]
    assert missing == []
