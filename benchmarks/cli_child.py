"""Run one trialscope CLI command for the benchmark.

usage: python benchmarks/cli_child.py SUMMARY_JSON [SPANS_CSV RUN_ID] -- ARGS...

ARGS are passed to ``trialscope.cli.main``.  SUMMARY_JSON gets this
process's peak resident memory and, with SPANS_CSV, the per-layer totals of
the traced command, whose spans go to SPANS_CSV.  The exit code is the
command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics, traced  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident memory, from /proc.  ``ru_maxrss`` would
    also count the process that started this one: Linux carries its peak over
    through exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if "--" not in argv or argv.index("--") not in (1, 3):
        raise SystemExit(__doc__)
    sep = argv.index("--")
    summary_json, trace_args, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    from trialscope import cli

    summary: dict = {}
    if trace_args:
        spans_csv, run_id = trace_args
        tracer = Tracer(run_id)
        with traced(tracer):
            code = cli.main(cli_args)
        t0 = time.perf_counter()
        tracer.write_spans(spans_csv)
        summary.update(top_level_s=tracer.top_level_s, metrics=layer_metrics(tracer),
                       write_s=time.perf_counter() - t0)
    else:
        code = cli.main(cli_args)
    summary["peak_rss_mb"] = peak_rss_mb()
    Path(summary_json).write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
