"""nctheta benchmark: end-to-end and per-layer metrics of the nctheta workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Workloads (see perfbench/README.md):

* ``verify-all``: ``nctheta all`` on both canonical fixtures at radius 4;
* ``series-sweep``: ``nctheta quantum-theta --format csv`` at radius 8 and
  12 on both fixtures;
* ``table-roundtrip``: JSON export, ``load_series`` and re-export of both
  radius-8 series, in one worker interpreter.

Every op runs in a fresh interpreter started by this script, one at a
time; nothing here imports ``nctheta``.  A run lasts ``--seconds`` from
its start: the first pass over the workload's ops always runs, then ops
go on in the same order while each, taking as long as its previous run,
still ends in time.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  ``--workload all`` runs the three
untraced and prints one row per workload instead.  Scratch files go to
``.perfbench_work/`` under the repository root; per-run records, with the
environment, to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import pace
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "nctheta" / "fixtures"
GOLDEN = ROOT / "tests" / "golden" / "additivity_witness.json"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verify-all", "series-sweep", "table-roundtrip")
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0
VERIFY_RADIUS = 4
VERIFY_CHECKS = {"lattice": 29, "vector": 28}
GOLDEN_REL_TOL = 1e-12
KINDS = ("lattice", "vector")
SWEEP = (("lattice", 8), ("vector", 8), ("lattice", 12), ("vector", 12))
ROUNDTRIP_RADIUS = 8

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("coeffs_per_s", "coefficients/s"),
    ("peak_rss_mb", "MiB"),
)

FUNCTION_LAYERS = tuple(q for q in tracer.LAYER_FUNCTIONS if q != "report.run_suite")
SUITES = ("validate", "commutation", "connections", "holomorphy", "nogo",
          "inner-product", "quantum-theta", "functional-equation", "consistency",
          "additivity", "oracle-compare")
PER_LAYER = (
    [("cli.import_s", "s", "lower")]
    + [(f"{q}.{m}", u, "lower") for q in FUNCTION_LAYERS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"report.suite.{s}.s", "s", "lower") for s in SUITES]
    + [("export.bytes_written", "B", "lower"), ("export.bytes_read", "B", "lower"),
       ("report.checks", "count", "higher"), ("report.checks_failed", "count", "lower"),
       ("qtheta.coefficients", "count", "higher"),
       ("qtheta.fe_residuals", "count", "higher"),
       ("special.mode_factor.calls_per_coefficient", "ratio", "lower"),
       ("special.jacobi_theta.calls_per_fe_residual", "ratio", "lower"),
       ("trace.spans", "count", "lower"), ("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

# Layers that must record at least one call in a traced run of the workload.
_EVERYWHERE = {"embedding.enumerate_indices", "embedding.lattice_element",
               "export.export_coefficients"}
_CLI = _EVERYWHERE | {"config.load_config", "report.run_suite", "report.write_report",
                      "qtheta.quantum_theta_series", "qtheta.series_tail_bound",
                      "report.suite.quantum-theta"}
EXPECTED_CALLS = {
    "verify-all": (set(tracer.LAYER_FUNCTIONS) - {"export.load_series"})
    | {f"report.suite.{s}" for s in SUITES},
    "series-sweep": _CLI | {"special.mode_factor", "special.jacobi_theta"},
    "table-roundtrip": _EVERYWHERE | {"export.load_series"},
}


# --- child processes ---------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("NCTHETA_THREADS", None)  # the workloads are defined serial
    return env


def _spawn(cmd: list[str], cwd: Path, deadline: float) -> dict:
    """Run one child to completion; returns spawn/exit times, status, peak RSS."""
    cwd.mkdir(parents=True, exist_ok=True)
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd, env=_child_env())
        waited = []

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            waited.append((time.monotonic(), status, usage))

        reaper = threading.Thread(target=reap)
        reaper.start()
        try:
            reaper.join(max(1.0, deadline - time.monotonic()))
        finally:
            # Not `reaper.is_alive()`: a signal interrupting join() marks the
            # thread stopped while it still waits.
            timed_out = not waited
            if timed_out:  # past the deadline, or this process is stopping
                proc.kill()
                while not waited:
                    time.sleep(0.01)
    t_exit, status, usage = waited[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_lines = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return {"t_spawn": t_spawn, "t_exit": t_exit, "exit_code": proc.returncode,
            "timed_out": timed_out, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "stderr_tail": stderr_lines[-1] if stderr_lines else ""}


def _read_record(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def setup_probe(module: str, workdir: Path, deadline: float) -> tuple | None:
    """Seconds from spawning an interpreter until MODULE is imported, with
    the speed samples taken meanwhile."""
    record = workdir / "probe.json"
    record.unlink(missing_ok=True)
    proc = _spawn([sys.executable, str(HERE / "shim.py"), str(record), module],
                  workdir, deadline)
    rec = _read_record(record)
    if proc["exit_code"] != 0 or rec is None:
        return None
    return rec["t_ready"] - proc["t_spawn"], rec["pace_setup"]


def cli_op(args: list[str], workdir: Path, deadline: float,
           spans: Path | None = None, op_id: int = 0) -> dict:
    """One ``nctheta`` command in a fresh interpreter."""
    record = workdir / "record.json"
    cmd = [sys.executable, str(HERE / "shim.py"), str(record), "nctheta.cli"]
    if spans is not None:
        cmd += ["--trace", str(spans), "--op", str(op_id)]
    proc = _spawn(cmd + ["--"] + args, workdir, deadline)
    rec = _read_record(record) or {}
    op = {"exit_code": proc["exit_code"], "rss_mb": proc["rss_mb"], "cpu_s": proc["cpu_s"],
          "error": rec.get("error"), "problems": [], "unwrapped": rec.get("unwrapped", [])}
    if proc["timed_out"]:
        op["error"] = "timeout: killed at the run deadline"
    if "t_ready" in rec:
        op["setup_s"] = rec["t_ready"] - proc["t_spawn"]
        op["setup_pace"] = rec["pace_setup"]
        op["import_s"] = rec["t_ready"] - rec["t_script"]
        op["wall_s"] = proc["t_exit"] - rec["t_ready"]
        op["wall_pace"] = rec.get("pace_op", [0, 0.0])
    elif op["error"] is None:
        op["error"] = f"no record from the op: {proc['stderr_tail']}"
    return op


# --- correctness gates -------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden_gap() -> float:
    return float(json.loads(GOLDEN.read_text())["gap"])


class Digests:
    """sha256 of outputs that must repeat, kept in the checkout between runs.

    Keys are prefixed with a fingerprint of the program source and the
    Python and numpy versions, so a changed program starts afresh.
    """

    def __init__(self, path: Path, env: dict):
        self.path = path
        blob = hashlib.sha256(f"{env['python']} {env['numpy']}".encode())
        for src in sorted(SRC.rglob("*")):
            if src.is_file() and src.suffix in (".py", ".json"):
                blob.update(str(src.relative_to(SRC)).encode() + b"\0" + src.read_bytes())
        self.prefix = blob.hexdigest()[:16] + "/"
        stored = _read_record(path) or {}
        self.known = {k: v for k, v in stored.items() if k.startswith(self.prefix)}

    def differs(self, key: str, digest: str) -> bool:
        """Record DIGEST for KEY; true if an earlier pass or run saw another."""
        return self.known.setdefault(self.prefix + key, digest) != digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))


def check_verify(op: dict, kind: str, outdir: Path, digests: Digests, seed: str) -> None:
    """Gate of one ``nctheta all`` op; appends to ``op['problems']``."""
    problems = op["problems"]
    if op["exit_code"] != 0:
        problems.append(f"exit code {op['exit_code']}")
        return
    report_path = outdir / "report.json"
    report = json.loads(report_path.read_text())
    summary = report["summary"]
    if summary["ok"] is not True:
        problems.append(f"failed checks: {summary['failed_names']}")
    if summary["checks"] != VERIFY_CHECKS[kind]:
        problems.append(f"{summary['checks']} checks, expected {VERIFY_CHECKS[kind]}")
    if kind == "lattice":
        gaps = [c["metadata"]["witness_gap"] for c in report["checks"]
                if c["name"] == "non-additivity-witness"]
        golden = _golden_gap()
        if len(gaps) != 1 or abs(gaps[0] - golden) > GOLDEN_REL_TOL * abs(golden):
            problems.append(f"witness gap {gaps} differs from golden {golden!r}")
    table = outdir / "report.coefficients.json"
    rows = len(json.loads(table.read_text())["coefficients"])
    if rows != (2 * VERIFY_RADIUS + 1) ** 4:
        problems.append(f"{rows} coefficient rows")
    if _sha256(table) != report["artifacts"]["coefficients"]["sha256"]:
        problems.append("coefficient table does not match its digest in the report")
    op["rows"] = rows
    if digests.differs(f"verify-all/{kind}/seed{seed}", _sha256(report_path)):
        problems.append("report bytes differ from an earlier pass or run with the same seed")


def check_sweep(op: dict, key: str, outdir: Path, digests: Digests, radius: int) -> None:
    """Gate of one ``nctheta quantum-theta`` op."""
    problems = op["problems"]
    if op["exit_code"] != 0:
        problems.append(f"exit code {op['exit_code']}")
        return
    table = outdir / "report.coefficients.csv"
    data = table.read_bytes()
    rows = data.count(b"\n") - 1
    if rows != (2 * radius + 1) ** 4:
        problems.append(f"{rows} rows, expected {(2 * radius + 1) ** 4}")
    op["rows"] = rows
    if digests.differs(f"series-sweep/{key}", hashlib.sha256(data).hexdigest()):
        problems.append("table sha256 differs from an earlier pass or run")


# --- workloads ---------------------------------------------------------------

class Run:
    """Ops, set-up samples and traced passes of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 digests: Digests):
        self.workload = workload
        self.digests = digests
        self.seed = seed
        self.trace = trace
        self.started = time.monotonic()
        self.end = self.started + seconds
        self.deadline = self.started + RUN_DEADLINE_S
        self.workdir = WORK / workload
        self.ops: list[dict] = []
        self.setup_samples: list[tuple] = []  # (wall seconds, speed samples)
        self.setup_ref: list[float] = []  # set-up seconds at the reference speed
        self.import_samples: list[float] = []
        self.traced_spans: list[list[Path]] = []
        self.notes: list[str] = []

    def more_ops(self, index: int, cost: float) -> bool:
        """Whether to start an op of pass INDEX that last took COST seconds.

        A traced run makes exactly three whole passes.  An untraced run
        completes its first pass, then starts an op only if it would end
        within ``--seconds`` of the run's start.
        """
        if self.trace:
            return index < 3
        return index == 0 or time.monotonic() + cost <= self.end

    def traced_pass(self, index: int) -> bool:
        return self.trace and index > 0

    def at_reference_speed(self) -> None:
        """Add each timing at the reference speed (``pace``): ``setup_ref``
        and, per op, ``wall_ref_s``; the raw wall times stay beside them."""
        intervals = [p for _, p in self.setup_samples]
        intervals += [op["wall_pace"] for op in self.ops if "wall_pace" in op]
        samples = sum(p[0] for p in intervals)
        pooled = sum(p[1] for p in intervals) / samples if samples else pace.NOMINAL_LOOP_S
        self.setup_ref = [pace.at_reference_speed(s, p, pooled)
                          for s, p in self.setup_samples]
        for op in self.ops:
            for phase in ("wall", "write", "read"):
                if f"{phase}_pace" in op:
                    op[f"{phase}_ref_s"] = pace.at_reference_speed(
                        op[f"{phase}_s"], op[f"{phase}_pace"], pooled)

    def pass_walls(self) -> list[float]:
        """Time of each pass at the reference speed, whole passes only."""
        walls: dict = {}
        for op in self.ops:
            walls.setdefault(op.get("pass_index"), []).append(op.get("wall_ref_s", 0.0))
        width = max((len(w) for w in walls.values()), default=0)
        return [sum(w) for w in walls.values() if len(w) == width]


def _nctheta_seed(seed: int) -> str:
    return str(seed % 2 ** 64)


def run_cli_workload(run: Run, ops_of_pass, check) -> None:
    cost: dict = {}
    index = 0
    while True:
        traced = run.traced_pass(index)
        span_files = []
        for j, (label, key, args, extra) in enumerate(ops_of_pass):
            if not run.more_ops(index, cost.get(j, 0.0)):
                return
            t_start = time.monotonic()
            outdir = run.workdir / key
            shutil.rmtree(outdir, ignore_errors=True)
            spans = outdir / "spans.npz" if traced else None
            op = cli_op(args, outdir, run.deadline, spans, op_id=index * 100 + j)
            op.update(pass_index=index, op=label, traced=traced)
            if op["error"] is None:
                try:
                    check(op, key, outdir, run.digests, **extra)
                except (OSError, ValueError, KeyError) as err:
                    op["problems"].append(f"output unreadable: {type(err).__name__}: {err}")
            if spans is not None and spans.exists():
                kept = run.workdir / f"spans-pass{index}-op{j}.npz"
                spans.replace(kept)
                span_files.append(kept)
            shutil.rmtree(outdir, ignore_errors=True)
            cost[j] = time.monotonic() - t_start
            run.ops.append(op)
            if "setup_s" in op:
                run.setup_samples.append((op["setup_s"], op["setup_pace"]))
                run.import_samples.append(op["import_s"])
        if traced:
            run.traced_spans.append(span_files)
        index += 1


def workload_verify_all(run: Run) -> None:
    seed = _nctheta_seed(run.seed)
    ops = [(f"{kind} r={VERIFY_RADIUS}", kind,
            ["all", "--config", str(FIXTURES / f"canonical_{kind}.json"),
             "--radius", str(VERIFY_RADIUS), "--seed", seed,
             "--output", "report.json", "--format", "json"], {"seed": seed})
           for kind in KINDS]
    run_cli_workload(run, ops, check_verify)


def workload_series_sweep(run: Run) -> None:
    seed = _nctheta_seed(run.seed)
    ops = [(f"{kind} r={radius}", f"{kind}-r{radius}",
            ["quantum-theta", "--config", str(FIXTURES / f"canonical_{kind}.json"),
             "--radius", str(radius), "--seed", seed,
             "--output", "report.csv", "--format", "csv"], {"radius": radius})
           for kind, radius in SWEEP]
    run_cli_workload(run, ops, check_sweep)


def workload_table_roundtrip(run: Run) -> None:
    workdir = run.workdir / "roundtrip"
    record = workdir / "record.json"
    cmd = [sys.executable, str(HERE / "roundtrip.py"), str(record), str(workdir),
           str(FIXTURES), str(ROUNDTRIP_RADIUS), repr(run.end),
           "1" if run.trace else "0"]
    proc = _spawn(cmd, workdir, run.deadline)
    rec = _read_record(record)
    if rec is None:
        run.notes.append(f"roundtrip worker gave no record: {proc['stderr_tail']}")
        run.ops.append({"op": "roundtrip worker", "error": proc["stderr_tail"],
                        "problems": ["worker failed"], "rss_mb": proc["rss_mb"]})
        return
    run.setup_samples.append((rec["t_ready"] - proc["t_spawn"], rec["pace_setup"]))
    run.import_samples.append(rec["t_ready"] - rec["t_script"])
    for index, pas in enumerate(rec["passes"]):
        for op in pas["ops"]:
            op.update(pass_index=index, op=f"{op['kind']} r={ROUNDTRIP_RADIUS}",
                      traced=pas["traced"], rss_mb=proc["rss_mb"],
                      unwrapped=rec["unwrapped"])
            if op["error"] is None:
                op["wall_s"] = op["write_s"] + op["read_s"]
                op["wall_pace"] = [w + r for w, r in zip(op["write_pace"], op["read_pace"])]
                if run.digests.differs(f"table-roundtrip/{op['kind']}", op["sha256"]):
                    op["problems"].append("table bytes differ from an earlier pass or run")
            run.ops.append(op)
        if pas["traced"]:
            run.traced_spans.append([workdir / f"trace-pass{index}.npz"])
    if proc["exit_code"] != 0:
        run.notes.append(f"roundtrip worker exit code {proc['exit_code']}")


RUNNERS = {
    "verify-all": (workload_verify_all, "nctheta.cli"),
    "series-sweep": (workload_series_sweep, "nctheta.cli"),
    "table-roundtrip": (workload_table_roundtrip, "nctheta.export"),
}


def execute(workload: str, seed: int, seconds: float, trace: bool,
            digests: Digests) -> Run:
    run = Run(workload, seed, seconds, trace, digests)
    shutil.rmtree(run.workdir, ignore_errors=True)
    runner, entry_module = RUNNERS[workload]
    probe_dir = run.workdir / "probe"
    # Untimed first import: fills the bytecode cache that users also have.
    setup_probe(entry_module, probe_dir, run.deadline)
    for _ in range(SETUP_PROBES):
        sample = setup_probe(entry_module, probe_dir, run.deadline)
        if sample is None:
            run.notes.append(f"set-up probe importing {entry_module} failed")
        else:
            run.setup_samples.append(sample)
    runner(run)
    run.at_reference_speed()
    return run


# --- metrics -----------------------------------------------------------------

def op_failed(op: dict) -> bool:
    return op.get("error") is not None or bool(op["problems"])


def gate(run: Run) -> tuple[bool, list[str]]:
    """Correctness: no completed op produced wrong or unstable output.

    An exception escaping the program (a crash) or a timeout fails its op,
    which ``failed`` counts; it leaves ``correct`` alone.  An op that ran
    to the end with a wrong, unstable or missing output makes the run
    incorrect, as does a broken measurement.
    """
    reasons = [f"{op['op']} (pass {op.get('pass_index')}): {p}"
               for op in run.ops for p in op["problems"]]
    reasons += run.notes
    if not run.ops:
        reasons.append("no op ran")
    return not reasons, reasons


def _median_per_op(ops, key: str = "wall_ref_s") -> dict:
    """Median of KEY over each op's runs in the run, keyed by op label."""
    times: dict = {}
    for op in ops:
        if key in op:
            times.setdefault(op["op"], []).append(op[key])
    return {label: statistics.median(t) for label, t in times.items()}


def end_to_end(run: Run) -> dict:
    done = [op for op in run.ops if not op_failed(op)]
    rows = {op["op"]: op["rows"] for op in done}
    busy = _median_per_op(done)
    values = {
        "setup_s": statistics.median(run.setup_ref) if run.setup_ref else 0.0,
        "wall_s": sum(_median_per_op(run.ops).values()),
        "coeffs_per_s": sum(rows.values()) / sum(busy.values()) if busy else 0.0,
        "peak_rss_mb": max((op.get("rss_mb", 0.0) for op in run.ops), default=0.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def roundtrip_rates(run: Run) -> dict:
    """Rows per second through the write and the read at the reference
    speed, from the median op per kind."""
    done = [op for op in run.ops if not op_failed(op) and "write_s" in op]
    if not done:
        return {}
    rows = {op["op"]: op["rows"] for op in done}
    return {f"{phase}_rows_per_s":
            sum(rows.values()) / sum(_median_per_op(done, f"{phase}_ref_s").values())
            for phase in ("write", "read")}


def _layer_values(summary: dict) -> dict:
    layers, counters = summary["layers"], summary["counters"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    values = {}
    for qual in FUNCTION_LAYERS:
        row = layers.get(qual, empty)
        values[f"{qual}.calls"] = row["calls"]
        values[f"{qual}.self_s"] = row["self_s"]
    for suite in SUITES:
        values[f"report.suite.{suite}.s"] = layers.get(f"report.suite.{suite}", empty)["total_s"]
    values.update(counters)
    coefficients = counters["qtheta.coefficients"]
    residuals = counters["qtheta.fe_residuals"]
    values["special.mode_factor.calls_per_coefficient"] = (
        layers.get("special.mode_factor", empty)["calls"] / coefficients
        if coefficients else 0.0)
    values["special.jacobi_theta.calls_per_fe_residual"] = (
        summary["fe_jacobi_calls"] / residuals if residuals else 0.0)
    values["trace.spans"] = summary["spans"]
    return values


def per_layer(run: Run) -> tuple[dict, list[str]]:
    """Per-layer metrics of the first traced pass, plus the trace self-checks."""
    problems = []
    units = {name: unit for name, unit, _ in PER_LAYER}
    summaries = [tracer.summarize(files) for files in run.traced_spans]
    if len(summaries) != 2:
        return ({name: {"value": 0, "unit": unit} for name, unit in units.items()},
                [f"expected 2 traced passes, got {len(summaries)}"])
    first, second = (_layer_values(s) for s in summaries)
    for name, value in first.items():
        if units.get(name) in ("count", "B") and value != second[name]:
            problems.append(f"{name} differs between traced passes:"
                            f" {value} vs {second[name]}")
    for qual in sorted(EXPECTED_CALLS[run.workload]):
        if summaries[0]["layers"].get(qual, {"calls": 0})["calls"] < 1:
            problems.append(f"layer {qual} recorded no call")
    unwrapped = sorted({b for op in run.ops for b in op.get("unwrapped", [])})
    problems += [f"binding left unwrapped: {b}" for b in unwrapped]

    first["cli.import_s"] = (statistics.median(run.import_samples)
                             if run.import_samples else 0.0)
    walls = run.pass_walls()
    first["trace.wall_s"] = walls[1]
    first["trace.overhead_s"] = walls[1] - walls[0]
    return {name: {"value": first[name], "unit": units[name]} for name, *_ in PER_LAYER}, problems


# --- environment and output --------------------------------------------------

def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "sympy", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "NCTHETA_THREADS": "unset in every op (caller value: "
                               f"{os.environ.get('NCTHETA_THREADS', 'unset')})",
            **_git_state()}


def _git_state() -> dict:
    """Commit and dirtiness of the checkout; None when it is not a git work tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, env=env)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"git_commit": None, "git_dirty": None}
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return {"git_commit": head.stdout.strip(), "git_dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}


def _percentiles(samples: list[float]) -> str:
    n = len(samples)
    text = f"median of {n}"
    if n >= 11:
        ordered = sorted(samples)
        text += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
    else:
        text += ", no percentile with 10 samples beyond it"
    return text


def report_run(run: Run, env: dict) -> dict:
    correct, reasons = gate(run)
    attempted = len(run.ops)
    failed = sum(op_failed(op) for op in run.ops)
    if run.trace:
        metrics, problems = per_layer(run)
        correct = correct and not problems
        reasons += problems
    else:
        metrics = end_to_end(run)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {run.workload} seed {run.seed} trace {int(run.trace)}:"
          f" {attempted} ops, {failed} failed; times at the reference speed,"
          " raw wall time in brackets")
    for op in run.ops:
        if op.get("error"):
            print(f"  failed op {op['op']} (pass {op.get('pass_index')}): {op['error']}")
    if not run.trace:
        raw_setup = [s for s, _ in run.setup_samples]
        print(f"  setup_s       {metrics['setup_s']['value']:.4f} s"
              f" [{statistics.median(raw_setup) if raw_setup else 0.0:.4f} s]"
              f" ({_percentiles(run.setup_ref)})")
        raw = _median_per_op(run.ops, "wall_s")
        for label, ref in _median_per_op(run.ops).items():
            runs = [op["wall_ref_s"] for op in run.ops
                    if op["op"] == label and "wall_ref_s" in op]
            print(f"    op {label:<13} {ref:.4f} s [{raw[label]:.4f} s]"
                  f" ({_percentiles(runs)})")
        print(f"  wall_s        {metrics['wall_s']['value']:.4f} s"
              f" [{sum(raw.values()):.4f} s] (median per op, summed)")
        print(f"  coeffs_per_s  {metrics['coeffs_per_s']['value']:.1f} coefficients/s"
              " (completed ops)")
        print(f"  peak_rss_mb   {metrics['peak_rss_mb']['value']:.1f} MiB")
        for name, value in roundtrip_rates(run).items():
            print(f"  {name:<13} {value:.1f} rows/s")
    print(f"  fail_ratio    {failed}/{attempted}")
    print(f"  correct       {correct}" + "".join(f"\n    - {r}" for r in reasons))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps({"env": env, "result": result, "reasons": reasons,
                    "rates": roundtrip_rates(run), "pass_walls": run.pass_walls(),
                    "setup_samples": run.setup_samples, "setup_ref": run.setup_ref,
                    "ops": run.ops},
                   indent=1, sort_keys=True, default=str))
    return result


def print_table(rows: list[tuple[str, dict, dict]]) -> None:
    cols = ("setup_s [s]", "wall_s [s]", "coeffs_per_s [coefficients/s]",
            "write_rows_per_s [rows/s]", "read_rows_per_s [rows/s]",
            "fail_ratio [ratio]", "peak_rss_mb [MiB]", "correct")
    print(" | ".join(["workload"] + list(cols)))
    for workload, result, rates in rows:
        m = result["metrics"]
        cells = [f"{m['setup_s']['value']:.3f}", f"{m['wall_s']['value']:.3f}",
                 f"{m['coeffs_per_s']['value']:.1f}",
                 f"{rates['write_rows_per_s']:.1f}" if rates else "-",
                 f"{rates['read_rows_per_s']:.1f}" if rates else "-",
                 f"{result['failed'] / result['attempted']:.4f}"
                 f" ({result['failed']}/{result['attempted']})",
                 f"{m['peak_rss_mb']['value']:.1f}", str(result["correct"])]
        print(" | ".join([workload] + cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the op running is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced; trace one workload at a time")

    missing = [p for p in (SRC / "nctheta" / "cli.py", FIXTURES, GOLDEN) if not p.exists()]
    if missing:
        print(f"perfbench: run from a checkout of nctheta; missing {missing}",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    digests = Digests(WORK / "digests.json", env)
    rows = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run = execute(workload, args.seed, args.seconds, bool(args.trace), digests)
        result = report_run(run, env)
        digests.save()
        shutil.rmtree(run.workdir, ignore_errors=True)
        rows.append((workload, result, roundtrip_rates(run)))
    if args.workload != "all":
        print(json.dumps(rows[0][1]))
        return 0
    print_table(rows)
    return 0 if all(result["correct"] for _, result, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
