"""Record the references that the workloads' outputs are checked against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 benchmarks/record_reference.py

For every entry of the input pool it runs each workload's operations once
and stores, under ``benchmarks/reference/``, the input hash and either the
decomposition reports (``oracle_mc``) or every artifact of the CLI command,
CSVs cell by cell (``report_registry``, ``sweep``).
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

# the same BLAS pin as run.py, before numpy is first imported
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def record(name: str, i: int) -> dict:
    wl = run.make_workload(name, i)
    wl.reference = None  # re-recording must not check against the old one
    inputs = wl.prepare()
    if name == "oracle_mc":
        wl.worker = run.OracleWorker()
        try:
            passes = [wl.pipeline(k, run.ORACLE_REPS, None, None, time.perf_counter() + 600)[0]
                      for k in range(wl.ops_per_cycle)]
        finally:
            wl.close()
        for r in passes:
            if r["error"]:
                raise RuntimeError(f"{name} pool {i}: {r['error']}")
        return {"inputs_sha256": inputs["sha256"], "reps": run.ORACLE_REPS,
                "passes": [r["report"] for r in passes]}
    out = run.WORK / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, "-m", "trialscope.cli", *wl.args(), "--out", str(out)]
    code, *_ = run.run_child(cmd, time.perf_counter() + 600, run.WORK / "child.stderr")
    if code != 0:
        raise RuntimeError(f"{name} pool {i}: exit code {code}")
    files = run.read_artifacts(out)
    shutil.rmtree(out)
    return {"inputs_sha256": inputs["sha256"], "command": wl.command, "files": files}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        for i in range(run.POOL_SIZE):
            t0 = time.perf_counter()
            run.write_reference(run.reference_path(name, i), record(name, i))
            print(f"{name} pool {i}: recorded ({time.perf_counter() - t0:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
