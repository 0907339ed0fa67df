"""Tests for the drift correction of measured times."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402
from speed import PROBE_S, factor, probe  # noqa: E402


def test_factor_rescales_to_the_reference_speed():
    # a machine at half the reference speed, then at two thirds of it
    assert factor(2.0, 2.0) == pytest.approx(0.5)
    assert factor(1.0, 2.0) == pytest.approx(1 / 1.5)


def test_probe_times_a_short_burst_of_every_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(speed, "KERNELS", {lambda: calls.append("a"): 1.0,
                                           lambda: calls.append("b"): 1.0})
    t = probe()
    assert t >= 0.0 and len(calls) > 2
    assert calls[:2] == ["a", "b"]  # every kernel, every round
    monkeypatch.setattr(speed, "PROBE_S", 0.0)
    calls.clear()
    probe()
    assert calls == ["a", "b"]  # at least one round always runs
    assert PROBE_S > 0


def test_probe_is_relative_to_the_reference_time(monkeypatch):
    monkeypatch.setattr(speed, "PROBE_S", 0.0)
    monkeypatch.setattr(speed, "KERNELS", {lambda: None: 1e9})
    assert probe() < 1e-9


def test_child_is_stopped_during_probes_and_pauses_are_not_timed(monkeypatch, tmp_path):
    import run

    monkeypatch.setattr(run, "PAUSE_EVERY_S", 0.05)

    class Probes:
        calls = 0

        def factor(self):
            self.calls += 1
            time.sleep(0.05)  # a probe; the child must not run meanwhile
            return 2.0

    # The child spins for 0.5 s by its own clock and records the longest
    # gap between two clock reads: a gap as long as a probe means it was
    # stopped.
    gap_file = tmp_path / "gap"
    child = ("import sys, time\n"
             "t0 = last = time.perf_counter(); gap = 0.0\n"
             "while last - t0 < 0.5:\n"
             "    now = time.perf_counter(); gap = max(gap, now - last); last = now\n"
             "open(sys.argv[1], 'w').write(str(gap))\n")
    probes = Probes()
    t0 = time.perf_counter()
    code, wall, _, _, f = run.run_child([sys.executable, "-c", child, str(gap_file)],
                                        t0 + 30, tmp_path / "log", probes)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert probes.calls >= 4
    assert f == pytest.approx(2.0)
    assert float(gap_file.read_text()) >= 0.045  # it was stopped for a probe
    assert wall <= elapsed - 0.045 * (probes.calls - 1)  # pauses are left out
