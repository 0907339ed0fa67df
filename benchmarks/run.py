"""trialscope benchmark: three closed-loop workloads, end-to-end metrics with
tracing off, per-layer metrics from a traced run.

usage, from the repository root:

    python3 benchmarks/run.py --workload {oracle_mc,report_registry,sweep} \\
        --seed N --seconds S --trace {0,1}

A run generates its inputs from the seed, sets up (input generation three
times, then one warm-up), then runs operations one after another until the
next one would end past ``--seconds``; at least one always runs.  Every
operation passes a correctness gate or counts as failed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A declared metric that was not
measured fails the run.  A fuller record (environment, input hashes, every
sample and every layer) goes to ``.bench_work/results/``, and traced spans
to ``.bench_work/trace/``.

Every operation runs in a child process: a fresh one per CLI command, a
persistent worker for the oracle pipelines.  Declared times are corrected
for machine-speed drift by probes that this process takes while the child's
whole process group is stopped, so the program under test never runs
during a probe (see ``speed.py``); the raw times are printed and recorded
too.  BLAS is pinned to one thread here and in every child process.
"""

from __future__ import annotations

import os

BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":  # pin before numpy is first imported; tests import unpinned
    os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import lzma  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH_DIR / "reference"

sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402

SETUP_REPS = 3
PAUSE_EVERY_S = 1.0  # a running child is stopped for a speed probe this often
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
INPUT_FILES = ("trials.csv", "outcomes.csv", "rankings.csv", "synonyms.csv")

# Every workload reads one of a fixed pool of inputs, picked by the seed, so
# that its outputs can be checked against references recorded once.
POOL_SIZE = 4
ORACLE_BASE_SEED = 20_000  # pool entry i simulates seeds base + 2i and base + 2i + 1
CLI_BASE_SEED = 101  # pool entry i simulates seed base + i
# oracle_mc: the criterion-5 pipeline on 2k-trial registries, 200 reps
ORACLE_TRIALS, ORACLE_REPS, ORACLE_WARMUP_REPS = 2000, 200, 10
REPORT_TRIALS, REPORT_REPS = 5000, 20
SWEEP_TRIALS = 2000

# A number must match the reference within two units in the sixth
# significant digit (the CLI writes "%.6g") plus 1e-9.
RTOL, ATOL = 2e-5, 1e-9


@dataclass
class Sample:
    """One operation: raw times (pauses excluded) and the drift-correction
    factor of the probes taken around and during it."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None = None
    traced: bool = False
    speed_factor: float = 1.0
    layers: dict = field(default_factory=dict)
    top_level_s: float = 0.0
    rows: int = 0


class Probes:
    """Machine-speed probes between timed stretches of work (see ``speed.py``)."""

    def __init__(self):
        self.last = speed.probe()

    def factor(self) -> float:
        """Probe again; the factor for the stretch since the last probe."""
        before, self.last = self.last, speed.probe()
        return speed.factor(before, self.last)


class Finish(threading.Event):
    """Set, with the time, by the thread that sees a child's work end."""

    at = 0.0

    def mark(self) -> None:
        self.at = time.perf_counter()
        self.set()


def wait_paused(pgid: int, finish: Finish, start: float, probes: Probes | None,
                deadline: float) -> tuple[float, float]:
    """Wait for ``finish``; return the child's wall time and its drift
    factor.  With ``probes`` the process group ``pgid`` is stopped every
    ``PAUSE_EVERY_S`` for a probe; the wall time leaves the pauses out and
    each stretch of running is weighed by the probes at its two ends.  At
    the deadline the group is killed."""
    wall = corrected = 0.0
    while not finish.wait(max(min(PAUSE_EVERY_S, deadline - time.perf_counter()), 0.0)):
        try:
            if time.perf_counter() >= deadline:
                os.killpg(pgid, signal.SIGKILL)
                finish.wait()
                break
            if probes is None:
                continue
            os.killpg(pgid, signal.SIGSTOP)
            stopped = time.perf_counter()
            if finish.is_set():  # the work ended before the stop
                os.killpg(pgid, signal.SIGCONT)
                break
            wall += stopped - start
            corrected += (stopped - start) * probes.factor()
            os.killpg(pgid, signal.SIGCONT)
            start = time.perf_counter()
        except ProcessLookupError:  # the group is gone: the child has ended
            finish.wait()
            break
    last = max(finish.at - start, 0.0)
    wall += last
    corrected += last * (probes.factor() if probes else 1.0)
    return wall, corrected / wall if wall > 0 else 1.0


# ---------------------------------------------------------------------------
# inputs

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_inputs(dest: Path, sim_args: list[str]) -> dict:
    """Write a simulated registry with the CLI's ``simulate`` command and
    return its input hash and outcome row count."""
    from trialscope import cli

    shutil.rmtree(dest, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--out", str(dest), *sim_args])
    if code != 0:
        raise RuntimeError(f"simulate {sim_args} exited with {code}")
    h = hashlib.sha256()
    for name in INPUT_FILES:
        h.update(f"{name}:{_sha256(dest / name)}\n".encode())
    with open(dest / "outcomes.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    return {"dir": dest, "sha256": h.hexdigest(), "rows": rows}


# ---------------------------------------------------------------------------
# correctness

def _close(x: float, y: float) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * abs(y) + ATOL


def _num(text: str) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):  # a missing cell of a short row is None
        return None


def _same_cell(a: str, b: str) -> bool:
    if a == b:
        return True
    x, y = _num(a), _num(b)
    return x is not None and y is not None and _close(x, y)


def compare_values(got, ref, where: str) -> str | None:
    """The first difference between two JSON-like values beyond the
    tolerance, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return f"{where}: keys differ"
        for key in ref:
            err = compare_values(got[key], ref[key], f"{where}.{key}")
            if err:
                return err
        return None
    if isinstance(ref, float) or isinstance(got, float):
        same = _close(float(got), float(ref))
    else:
        same = got == ref
    return None if same else f"{where}: {got!r} vs reference {ref!r}"


def read_artifacts(out: Path) -> dict:
    """Every file of a CLI output directory: a CSV as its header and
    columns, any other file as None (checked for presence only).  Short
    rows are padded with None."""
    files: dict = {}
    for p in sorted(out.rglob("*")):
        if not p.is_file():
            continue
        rel = p.relative_to(out).as_posix()
        if p.suffix != ".csv":
            files[rel] = None
            continue
        with open(p, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        columns = [list(c) for c in itertools.zip_longest(*rows)] if rows else [[] for _ in header]
        files[rel] = {"header": header, "columns": columns}
    return files


def compare_outputs(reference: dict, out: Path) -> str | None:
    """None when every reference artifact is present and every CSV cell
    matches the reference, else the first mismatch."""
    got = read_artifacts(out) if out.is_dir() else {}
    for rel, ref in reference["files"].items():
        if rel not in got:
            return f"missing artifact {rel}"
        if ref is None:
            continue
        new = got[rel]
        if new["header"] != ref["header"]:
            return f"{rel}: header {new['header']} vs reference {ref['header']}"
        if len(new["columns"]) != len(ref["columns"]):
            return f"{rel}: {len(new['columns'])} cells per row vs reference {len(ref['columns'])}"
        for name, col, ref_col in zip(ref["header"], new["columns"], ref["columns"]):
            if len(col) != len(ref_col):
                return f"{rel}: {len(col)} rows vs reference {len(ref_col)}"
            for i, (a, b) in enumerate(zip(col, ref_col)):
                if not _same_cell(a, b):
                    return f"{rel}:{name} row {i}: {a!r} vs reference {b!r}"
    return None


def reference_path(workload: str, pool_index: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{pool_index}.json.xz"


def load_reference(path: Path) -> dict | None:
    if not path.exists():
        return None
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(path: Path, ref: dict) -> None:
    with lzma.open(path, "wt", encoding="utf-8", preset=9) as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# operations

def oracle_gate(report: dict, reference: dict | None) -> str | None:
    """None when a decomposition report passes every oracle_mc check, else
    the first failure."""
    d = report["diffs"]
    gap = abs(d["ph3_minus_ph2"] - (d["ph3_minus_ph2_sc"] + d["ph2_sc_minus_ph2"]))
    if not gap < 1e-12:
        return f"decomposition identity gap {gap:.3e} >= 1e-12"
    bad = {k: v for k, v in report["shares"].items() if not 0.0 <= v <= 1.0}
    if bad:
        return f"shares outside [0,1]: {bad}"
    kept = (report["bootstrap_reps"] - report["dropped_reps"]) / report["bootstrap_reps"]
    if kept < 0.9:
        return f"bootstrap rep yield {kept:.3f} < 0.9"
    if reference is None:
        return "no reference recorded for these inputs"
    return compare_values(report, reference, "decomposition")


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], deadline: float, log: Path, probes: Probes | None = None,
              ) -> tuple[int, float, float, float, float]:
    """Run a child in a process group of its own to completion; return its
    exit code, wall s, CPU s, ``ru_maxrss`` in MB and drift factor (see
    ``wait_paused``).  On Linux ``ru_maxrss`` is at least this process's own
    peak, carried over through exec.  A child still running at the deadline
    is killed."""
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=err)
    finish, reaped = Finish(), []

    def reap() -> None:
        reaped.extend(os.wait4(proc.pid, 0)[1:])
        finish.mark()

    reaper = threading.Thread(target=reap)
    reaper.start()
    wall, factor = wait_paused(proc.pid, finish, start, probes, deadline)
    reaper.join()
    status, ru = reaped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, factor


def cli_op(args: list[str], out: Path, reference: dict | None, run_id: str | None,
           deadline: float, probes: Probes | None) -> Sample:
    """One CLI invocation in a fresh child process, checked against the
    reference artifacts."""
    shutil.rmtree(out, ignore_errors=True)
    log = WORK / "child.stderr"
    summary = WORK / "child-summary.json"
    summary.unlink(missing_ok=True)
    trace_args = [str(WORK / "trace" / f"{run_id}.spans.csv"), run_id] if run_id else []
    cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(summary), *trace_args,
           "--", *args, "--out", str(out)]
    code, wall, cpu, rss, factor = run_child(cmd, deadline, log, probes)
    s = Sample(wall, cpu, rss, traced=run_id is not None, speed_factor=factor)
    if code != 0:
        s.error = f"exit code {code}: {log.read_text(errors='replace')[-2000:]}"
    elif reference is None:
        s.error = "no reference recorded for these inputs"
    else:
        s.error = compare_outputs(reference, out)
    if summary.exists():  # missing only when the child died
        info = json.loads(summary.read_text(encoding="utf-8"))
        s.rss_mb = info["peak_rss_mb"]
        if code == 0 and run_id:
            s.layers, s.top_level_s = info["metrics"], info["top_level_s"]
            s.wall_s -= info["write_s"]  # writing the trace is not traced work
    shutil.rmtree(out, ignore_errors=True)
    return s


# ---------------------------------------------------------------------------
# workloads

class OracleWorker:
    """The persistent child process that runs oracle pipelines
    (``oracle_worker.py``), in a process group of its own."""

    def __init__(self):
        with open(WORK / "worker.stderr", "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "oracle_worker.py")], env=_child_env(),
                cwd=ROOT, start_new_session=True, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True)

    def request(self, req: dict, probes: Probes | None, deadline: float,
                ) -> tuple[dict, float, float]:
        """Run one pipeline; return the reply, the wall time and the drift
        factor (see ``wait_paused``)."""
        finish, lines = Finish(), []

        def read() -> None:
            lines.append(self.proc.stdout.readline())
            finish.mark()

        reader = threading.Thread(target=read)
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reader.start()
        wall, factor = wait_paused(self.proc.pid, finish, start, probes, deadline)
        reader.join()
        if not lines[0]:
            raise RuntimeError(f"oracle worker ended with exit code {self.proc.wait()}")
        return json.loads(lines[0]), wall, factor

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class OracleMC:
    """The criterion-5 oracle pipeline in a persistent worker process; the
    two operations of a cycle are no misreporting and suppression with
    q=0.3."""

    name = "oracle_mc"
    ops_per_cycle = 2

    def __init__(self, seed: int):
        self.pool_index = seed % POOL_SIZE
        base = ORACLE_BASE_SEED + 2 * self.pool_index
        self.sim_args = [
            ["--seed", str(base), "--n-trials", str(ORACLE_TRIALS)],
            ["--seed", str(base + 1), "--n-trials", str(ORACLE_TRIALS),
             "--misreporting", "suppress", "--misreport-q", "0.3"],
        ]
        self.requests = [
            {"seed": base, "n_trials": ORACLE_TRIALS, "suppress_q": None},
            {"seed": base + 1, "n_trials": ORACLE_TRIALS, "suppress_q": 0.3},
        ]
        self.reference = load_reference(reference_path(self.name, self.pool_index))
        self.worker: OracleWorker | None = None

    def prepare(self) -> dict:
        """Write the registries the two pipelines simulate, to hash them."""
        parts = [simulate_inputs(WORK / "inputs" / f"{self.name}-{i}", a)
                 for i, a in enumerate(self.sim_args)]
        sha = hashlib.sha256("".join(p["sha256"] for p in parts).encode()).hexdigest()
        if self.reference and self.reference["inputs_sha256"] != sha:
            raise RuntimeError("generated inputs differ from the reference inputs")
        self.inputs = {"sha256": sha, "rows": [p["rows"] for p in parts]}
        return self.inputs

    def warm_up(self, deadline: float, probes: Probes) -> tuple[float, float]:
        """Start the worker and run one short pipeline, so that imports and
        first calls are done; return the wall time and drift factor.  Not an
        operation: a failure here shows in the timed operations."""
        self.worker = OracleWorker()
        _, wall, factor = self.pipeline(0, ORACLE_WARMUP_REPS, None, probes, deadline)
        return wall, factor

    def pipeline(self, i: int, reps: int, run_id: str | None, probes: Probes | None,
                 deadline: float) -> tuple[dict, float, float]:
        spans = str(WORK / "trace" / f"{run_id}.spans.csv") if run_id else None
        req = {**self.requests[i], "reps": reps, "run_id": run_id, "spans": spans}
        return self.worker.request(req, probes, deadline)

    def op(self, i: int, run_id: str | None, deadline: float, probes: Probes | None) -> Sample:
        """One criterion-5 pipeline: simulate, link (checked against the
        truth continuation set), fit, decompose with bootstrap, checked
        against the reference decomposition."""
        reply, wall, factor = self.pipeline(i, ORACLE_REPS, run_id, probes, deadline)
        ref = self.reference["passes"][i] if self.reference else None
        s = Sample(wall, reply["cpu_s"], reply["rss_mb"], traced=run_id is not None,
                   speed_factor=factor, rows=self.inputs["rows"][i])
        s.error = reply["error"] or oracle_gate(reply["report"], ref)
        if run_id:
            s.layers, s.top_level_s = reply["layers"], reply["top_level_s"]
            s.wall_s -= reply["write_s"]  # writing the trace is not traced work
        return s

    def close(self) -> None:
        if self.worker:
            self.worker.close()


class CliWorkload:
    """One CLI command per operation, in a fresh child process, on a
    simulated registry from the reference pool."""

    ops_per_cycle = 1

    def __init__(self, name: str, n_trials: int, command: list[str], seed: int):
        self.name = name
        self.pool_index = seed % POOL_SIZE
        sim_seed = CLI_BASE_SEED + self.pool_index
        self.sim_args = ["--seed", str(sim_seed), "--n-trials", str(n_trials)]
        self.command = [*command, "--seed", str(sim_seed)]
        self.input_dir = WORK / "inputs" / name
        self.reference = load_reference(reference_path(name, self.pool_index))

    def prepare(self) -> dict:
        inputs = simulate_inputs(self.input_dir, self.sim_args)
        if self.reference and self.reference["inputs_sha256"] != inputs["sha256"]:
            raise RuntimeError("generated inputs differ from the reference inputs")
        self.inputs = {"sha256": inputs["sha256"], "rows": [inputs["rows"]]}
        return self.inputs

    def args(self) -> list[str]:
        inputs = [f"--{n[:-4]}={self.input_dir / n}" for n in INPUT_FILES]
        return [self.command[0], *inputs, *self.command[1:]]

    def warm_up(self, deadline: float, probes: Probes) -> tuple[float, float]:
        """The operations are cold processes; warming means the interpreter,
        the libraries and the compiled package are loaded once.  Return the
        wall time and drift factor."""
        _, wall, _, _, factor = run_child([sys.executable, "-c", "import trialscope.cli"],
                                          deadline, WORK / "child.stderr", probes)
        return wall, factor

    def op(self, i: int, run_id: str | None, deadline: float, probes: Probes | None) -> Sample:
        s = cli_op(self.args(), WORK / "out" / self.name, self.reference, run_id, deadline, probes)
        s.rows = self.inputs["rows"][0]
        return s

    def close(self) -> None:
        pass


def make_workload(name: str, seed: int):
    if name == "oracle_mc":
        return OracleMC(seed)
    if name == "report_registry":
        return CliWorkload(name, REPORT_TRIALS, ["report", "--bootstrap-reps", str(REPORT_REPS)], seed)
    if name == "sweep":
        return CliWorkload(name, SWEEP_TRIALS, ["sweep"], seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oracle_mc", "report_registry", "sweep")


# ---------------------------------------------------------------------------
# metrics

def environment() -> dict:
    import numpy
    import scipy

    commit = None
    try:  # the checkout may not be a git repository
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.csv")):
        src.update(f"{p.relative_to(SRC)}:{_sha256(p)}\n".encode())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def per_op(cycles: list[list[Sample]], value) -> float:
    """Median over cycles of the cycle's mean of ``value(sample)``, so that
    the alternating inputs of a cycle weigh equally."""
    return statistics.median(statistics.fmean(value(s) for s in c) for c in cycles)


def end_to_end(cycles: list[list[Sample]], setup_s: float) -> dict:
    """Per-operation values over the untraced cycles, times corrected for
    machine-speed drift."""
    out = {
        "wall_s": per_op(cycles, lambda s: s.wall_s * s.speed_factor),
        "cpu_s": per_op(cycles, lambda s: s.cpu_s * s.speed_factor),
        "setup_s": setup_s,
    }
    out["peak_rss_mb"] = per_op(cycles, lambda s: s.rss_mb)
    return out


def per_layer(plain: list[list[Sample]], traced_cycles: list[list[Sample]]) -> dict:
    """Mean per traced operation of every layer metric, plus the derived
    ratios and the tracing overhead."""
    ops = [s for c in traced_cycles for s in c if not s.error]
    if not ops:
        return {}
    out = {k: statistics.fmean(s.layers[k] for s in ops) for k in sorted(ops[0].layers)}
    out["pz.transform.calls_per_row"] = statistics.fmean(
        s.layers["pz.transform.calls"] / s.rows for s in ops)
    attempted = out["decompose.reps_attempted"]
    out["decompose.rep_yield"] = (
        (attempted - out["decompose.reps_dropped"]) / attempted if attempted else 1.0
    )
    out["trace.unattributed_s"] = statistics.fmean(s.wall_s - s.top_level_s for s in ops)
    out["trace.overhead_s"] = (
        per_op(traced_cycles, lambda s: s.wall_s) - per_op(plain, lambda s: s.wall_s)
    )
    return out


def declared_metrics(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def declared_values(values: dict, declared: list[dict]) -> dict:
    """The declared metrics with their units.  A declared metric that was
    not measured (say, a layer function that no longer exists) is an error,
    never a 0."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise ValueError(f"declared metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if trace:  # keep the spans of the latest traced run only
        shutil.rmtree(WORK / "trace", ignore_errors=True)
    (WORK / "trace").mkdir(parents=True, exist_ok=True)
    wl = make_workload(workload, seed)
    run_tag = f"{workload}-seed{seed}"
    probes = Probes()

    def timed(work) -> tuple[float, float]:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0, probes.factor()

    prepares = [timed(wl.prepare) for _ in range(SETUP_REPS)]

    def cycle(run_id: str | None) -> list[Sample]:
        out = []
        for i in range(wl.ops_per_cycle):
            if run_id:  # traced: no pauses; probe after it for the next one
                s = wl.op(i, f"{run_id}.{i}", deadline, None)
                s.speed_factor = probes.factor()
            else:
                s = wl.op(i, None, deadline, probes)
            out.append(s)
        return out

    plain: list[list[Sample]] = []
    traced_cycles: list[list[Sample]] = []
    try:
        warm_up = wl.warm_up(deadline, probes)
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(cycle(None))
            if trace:
                traced_cycles.append(cycle(f"{run_tag}-{len(traced_cycles)}"))
            step = time.perf_counter() - t0
            elapsed = time.perf_counter() - t_start
            if elapsed + step > seconds or time.perf_counter() + 2 * step > deadline:
                break
    finally:
        wl.close()
    setup_s = statistics.median(raw * f for raw, f in prepares) + warm_up[0] * warm_up[1]

    samples = [s for c in plain + traced_cycles for s in c]
    failed = [s for s in samples if s.error]
    for s in failed:
        print(f"FAILED operation: {s.error}", file=sys.stderr)
    failed_frac = len(failed) / len(samples)
    e2e = end_to_end(plain, setup_s)
    layers = {**per_layer(plain, traced_cycles), "failed_frac": failed_frac} if trace else {}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "inputs_sha256": wl.inputs["sha256"], "input_rows": wl.inputs["rows"],
        "pool_index": wl.pool_index,
        "setup": {"prepare": prepares, "warm_up": warm_up},
        "attempted": len(samples), "failed": len(failed), "failed_frac": failed_frac,
        "end_to_end": e2e,
        "raw": {
            "wall_s": per_op(plain, lambda s: s.wall_s),
            "cpu_s": per_op(plain, lambda s: s.cpu_s),
            "setup_s": statistics.median(raw for raw, _ in prepares) + warm_up[0],
            "speed_factor": per_op(plain, lambda s: s.speed_factor),
        },
        "per_layer": layers,
        "samples": [
            {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "rss_mb": s.rss_mb, "traced": s.traced,
             "speed_factor": s.speed_factor, "error": s.error}
            for s in samples
        ],
        "run_s": time.perf_counter() - started,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{run_tag}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "trialscope" / "__init__.py").is_file():
        print(f"error: trialscope sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = rec["environment"]
    print(f"# {args.workload} seed={args.seed} pool={rec['pool_index']} "
          f"inputs sha256={rec['inputs_sha256'][:16]} commit={env['commit']} "
          f"source={env['source_sha256'][:16]} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} nproc={env['nproc']} blas_threads=1")
    print(f"# failed_frac={rec['failed_frac']:.3f} ({rec['failed']}/{rec['attempted']} operations)")
    raw = rec["raw"]
    print(f"# raw: wall_s={raw['wall_s']:.4f} cpu_s={raw['cpu_s']:.4f} "
          f"setup_s={raw['setup_s']:.4f}; speed factor {raw['speed_factor']:.3f}")
    values = rec["per_layer"] if args.trace else rec["end_to_end"]
    try:
        metrics = declared_values(values, declared_metrics("per_layer" if args.trace else "end_to_end"))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"# {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
