"""Summarize benchmark results into one trajectory point.

usage, from the repository root, after runs of ``benchmarks/run.py``:

    python3 benchmarks/summarize.py [RESULT_JSON ...] > point.json

With no arguments it reads every file in ``.bench_work/results/``.  For each
workload it gives the median, quartiles (``statistics.quantiles(n=4)``) and
run count of every end-to-end metric and unscaled time over the untraced
runs and of every per-layer metric over the traced runs, with the
environment of the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".bench_work" / "results"


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(paths: list[Path]) -> dict:
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(paths)]
    values: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    seeds: dict = defaultdict(set)
    for r in runs:
        seeds[r["workload"]].add(r["seed"])
        for kind in ("per_layer",) if r["trace"] else ("end_to_end", "raw"):
            for name, v in r[kind].items():
                values[r["workload"]][kind][name].append(v)
    envs = {json.dumps({k: v for k, v in r["environment"].items() if k != "platform"},
                       sort_keys=True) for r in runs}
    return {
        "environment": [json.loads(e) for e in sorted(envs)],
        "run_seconds": sorted({r["seconds"] for r in runs}),
        "workloads": {
            wl: {
                "seeds": sorted(seeds[wl]),
                **{kind: {m: quartiles(v) for m, v in sorted(ms.items())}
                   for kind, ms in sorted(kinds.items())},
            }
            for wl, kinds in sorted(values.items())
        },
    }


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(RESULTS.glob("*.json"))
    if not paths:
        print("no result files", file=sys.stderr)
        return 1
    print(json.dumps(summarize(paths), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
