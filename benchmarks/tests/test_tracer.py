"""Tests for the benchmark's tracer: self time, reach of the wrappers and
restoration of the original functions."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer, layer_metrics, traced  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.inner.leaf`` takes 3 clock units; ``fakepkg.outer.run``
    takes 2 before and 1 after calling ``leaf`` through a from-import
    binding in its own namespace."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    inner = types.ModuleType("fakepkg.inner")
    inner.clock = clock
    exec(
        "def leaf(x):\n"
        "    clock.advance(3)\n"
        "    if x < 0:\n"
        "        raise ValueError('negative')\n"
        "    return x\n",
        inner.__dict__,
    )
    outer = types.ModuleType("fakepkg.outer")
    outer.clock, outer.leaf = clock, inner.leaf
    exec(
        "def run(x):\n"
        "    clock.advance(2)\n"
        "    y = leaf(x)\n"
        "    clock.advance(1)\n"
        "    return y\n",
        outer.__dict__,
    )
    for mod in (pkg, inner, outer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    pkg.inner, pkg.outer = inner, outer
    return clock, inner, outer


def test_self_time_is_parent_minus_children(fake_package):
    clock, inner, outer = fake_package
    tracer = Tracer(clock=clock)
    with traced(tracer, package="fakepkg", layers=("inner", "outer")):
        assert outer.run(5) == 5
        outer.run(7)
    calls, busy, self_s, errors, _ = tracer.stats["outer.run"]
    assert (calls, busy, self_s, errors) == (2, 12.0, 6.0, 0)
    calls, busy, self_s, errors, _ = tracer.stats["inner.leaf"]
    assert (calls, busy, self_s, errors) == (2, 6.0, 6.0, 0)
    assert tracer.top_level_s == 12.0
    assert tracer._parent.tolist() == [0, -1, 2, -1]  # leaf spans close first


def test_direct_span_nesting_and_errors(fake_package):
    clock, inner, outer = fake_package
    tracer = Tracer(clock=clock)
    with tracer.span("outer", rows_in=10) as s:
        clock.advance(4)
        with pytest.raises(ValueError):
            with tracer.span("inner"):
                clock.advance(1.5)
                raise ValueError("boom")
        s.rows_out = 8
    assert tracer.stats["outer"] == [1, 5.5, 4.0, 0, 8]
    assert tracer.stats["inner"] == [1, 1.5, 1.5, 1, 0]
    metrics = layer_metrics(tracer)
    assert metrics["inner.errors"] == 1 and metrics["outer.self_s"] == 4.0


def test_exceptions_are_counted_and_reraised(fake_package):
    clock, inner, outer = fake_package
    tracer = Tracer(clock=clock)
    with traced(tracer, package="fakepkg", layers=("inner", "outer")):
        with pytest.raises(ValueError):
            outer.run(-1)
    assert tracer.stats["inner.leaf"][3] == 1
    assert tracer.stats["outer.run"][3] == 1


def test_spans_file(fake_package, tmp_path):
    clock, inner, outer = fake_package
    tracer = Tracer("r1", clock=clock)
    with traced(tracer, package="fakepkg", layers=("inner", "outer")):
        outer.run(1)
    path = tmp_path / "spans.csv"
    tracer.write_spans(path)
    header, *rows = path.read_text().splitlines()
    assert header.split(",")[:6] == ["run_id", "span_id", "parent_id", "name", "start_s", "end_s"]
    assert [r.split(",")[:4] for r in rows] == [
        ["r1", "1", "0", "inner.leaf"], ["r1", "0", "-1", "outer.run"],
    ]


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "trialscope" or name.startswith("trialscope."))
        for attr, value in vars(mod).items()
        if callable(value) or isinstance(value, types.ModuleType)
    }


def test_from_imported_bindings_are_reached():
    import trialscope
    from trialscope import cli, linker, selection, simulate
    from trialscope import decompose as decompose_module

    build_design, fit_logit = selection.build_design, selection.fit_logit
    tracer = Tracer()
    with traced(tracer):
        assert cli.build_design.__wrapped__ is build_design
        assert decompose_module.fit_logit.__wrapped__ is fit_logit
        assert isinstance(trialscope.decompose, types.ModuleType)
        reg, truth = simulate.generate(simulate.SimConfig(n_trials=900, seed=202))
        links, _ = linker.link_all(reg, synonyms=linker.build_synonym_map(truth.synonym_pairs))
        design = cli.build_design(reg, links)
        model = decompose_module.fit_logit(design)
    assert model.converged
    assert tracer.stats["selection.build_design"][0] == 1
    assert tracer.stats["selection.build_design"][4] == design.n_obs
    assert tracer.stats["selection.fit_logit"][0] == 1
    assert tracer.stats["pz.transform"][0] >= design.n_obs
    assert tracer.counters["selection.fit_logit.not_converged"] == 0


def test_originals_restored_after_traced_run():
    import trialscope.cli  # noqa: F401  (loads every layer)

    before = _bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert _bindings() != before
            raise RuntimeError("stop")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_but_uncalled_functions_report_zero():
    import trialscope.cli  # noqa: F401  (loads every layer)

    tracer = Tracer()
    with traced(tracer):
        pass
    metrics = layer_metrics(tracer)
    assert metrics["svg.histogram.calls"] == 0
    assert metrics["pz.transform.busy_s"] == 0.0
    assert metrics["density.sj_bandwidth.fallbacks"] == 0
    assert metrics["decompose.reps_attempted"] == 0
