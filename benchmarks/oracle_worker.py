"""Run criterion-5 oracle pipelines for the benchmark, one per request.

usage: python benchmarks/oracle_worker.py

Each line on stdin is one JSON request::

    {"seed": 20000, "n_trials": 2000, "suppress_q": 0.3 or null,
     "reps": 200, "run_id": "..." or null, "spans": "path" or null}

The worker simulates the registry, links it (``end_to_end_truth_check``
asserts the truth continuation set), fits the selection logit and
decomposes with ``reps`` bootstrap reps.  With ``run_id`` every layer is
traced and the spans go to ``spans``.  Each reply is one JSON line on
stdout: the decomposition report or the error, the CPU seconds of the
pipeline, the worker's peak RSS in MB and, when traced, the layer totals.
The worker exits at the end of stdin.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cli_child import peak_rss_mb  # noqa: E402
from tracer import Tracer, layer_metrics, traced  # noqa: E402


def run_pipeline(req: dict) -> dict:
    from trialscope.simulate import Misreporting, SimConfig, end_to_end_truth_check

    q = req["suppress_q"]
    cfg = SimConfig(n_trials=req["n_trials"], seed=req["seed"],
                    misreporting=Misreporting.suppress_share(q) if q else Misreporting.none())
    tracer = Tracer(req["run_id"]) if req["run_id"] else None
    reply: dict = {"report": None, "error": None}
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    try:
        with traced(tracer) if tracer else contextlib.nullcontext():
            out = end_to_end_truth_check(cfg, bootstrap_reps=req["reps"], run_discontinuity=False)
        reply["report"] = dataclasses.asdict(out["decomposition"])
    except Exception:  # an operation failure is reported, not fatal
        reply["error"] = traceback.format_exc(limit=3)
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    reply["cpu_s"] = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    reply["rss_mb"] = peak_rss_mb()
    if tracer:
        t0 = time.perf_counter()
        tracer.write_spans(req["spans"])
        reply.update(layers=layer_metrics(tracer), top_level_s=tracer.top_level_s,
                     write_s=time.perf_counter() - t0)
    return reply


def main() -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr  # anything the pipeline prints stays out of the replies
    for line in sys.stdin:
        replies.write(json.dumps(run_pipeline(json.loads(line))) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
