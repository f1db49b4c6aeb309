"""Benchmark harness: set-up, closed-loop CLI iterations, checks and tracing.

bench/run.py checks the checkout and puts its `src/` first on the import
path before importing this module.
"""

from __future__ import annotations

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".kpibench"
# Stop starting work early enough that a run always ends within three minutes.
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 3
# Cheap set-ups repeat until this long has passed, so their median is not one
# moment's reading.
SETUP_MIN_S = 5.0
MIN_ITERATIONS = 3
IMPORT_REPEATS = 3


@dataclass
class Child:
    argv: list[str]
    exit_code: int
    start: float
    end: float
    peak_rss_mb: float
    cpu_s: float
    log: str


class Runner:
    """Starts one child at a time and reads that child's own rusage.

    `os.wait4` returns the resource usage of the one process it reaps;
    RUSAGE_CHILDREN would only give a running maximum over all of them.
    """

    def __init__(self, deadline: float, log_dir: str):
        self.deadline = deadline
        self.log_dir = log_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = 0

    def run(self, argv: list[str]) -> Child:
        self.started += 1
        log = os.path.join(self.log_dir, f"child-{self.started}.log")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT,
            )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(argv, proc.returncode, start, end, usage.ru_maxrss / 1024,
                     usage.ru_utime + usage.ru_stime, log)


def stderr_tail(child: Child, lines: int = 3) -> str:
    with open(child.log, encoding="utf-8", errors="replace") as f:
        return " | ".join(f.read().strip().splitlines()[-lines:])


@dataclass
class Iteration:
    children: list[Child]
    problems: list[str]
    facts: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.children[-1].end - self.children[0].start


def run_iteration(w, inputs, runner: Runner, dir: str) -> Iteration:
    """One closed-loop pass over the workload's CLI steps, then its checks."""
    os.makedirs(dir)
    out, history = os.path.join(dir, "out"), os.path.join(dir, "history.tsv")
    workloads.fresh_history(inputs, history)
    children, problems = [], []
    for step in workloads.steps(w, inputs, out, history):
        child = runner.run(["-m", "kpidiag.cli", *step.argv])
        children.append(child)
        if child.exit_code != step.expected_exit:
            problems.append(f"{step.argv[0]} exited {child.exit_code}, expected "
                            f"{step.expected_exit}: {stderr_tail(child)}")
            return Iteration(children, problems)
    facts, problems = check(w, inputs, out, history)
    return Iteration(children, problems, facts)


def check(w, inputs, out, history) -> tuple[dict, list[str]]:
    try:
        return workloads.check_outputs(w, inputs, out, history)
    except (OSError, ValueError, KeyError) as e:
        return {}, [f"unreadable output: {e!r}"]


def setup(w, seed: int, dir: str, runner: Runner, repeats: int, min_s: float = 0.0):
    """Set the workload up `repeats` times or more, until `min_s` have passed.

    Returns (inputs, seconds of each set-up, problems).
    """
    def train_model(config, data, out):
        child = runner.run(["-m", "kpidiag.cli", "train", "--config", config,
                            "--input", data, "--out", out])
        if child.exit_code != 0:
            raise RuntimeError(f"set-up `kpidiag train` exited {child.exit_code}: "
                               f"{stderr_tail(child)}")

    times, digests, problems = [], [], []
    while len(times) < repeats or sum(times) < min_s:
        start = time.perf_counter()
        inputs = workloads.prepare(w, seed, dir, train_model)
        times.append(time.perf_counter() - start)
        digests.append(inputs.digests())
    if any(d != digests[0] for d in digests):
        problems.append(f"set-up is not deterministic: {digests}")
    return inputs, times, problems


def measure(w, seed, seconds, work, runner) -> tuple[dict, dict]:
    inputs, setup_times, problems = setup(w, seed, os.path.join(work, "inputs"), runner,
                                          SETUP_REPEATS, SETUP_MIN_S)
    iterations: list[Iteration] = []
    reference = None
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        if iterations and time.monotonic() + 2 * iterations[-1].wall_s > runner.deadline:
            break
        it = run_iteration(w, inputs, runner, os.path.join(work, f"iter-{len(iterations)}"))
        if not it.problems:
            reference = reference or it.facts["digests"]
            if it.facts["digests"] != reference:
                it.problems.append(f"output digests {it.facts['digests']} differ from {reference}")
        iterations.append(it)

    attempted = sum(len(it.children) for it in iterations)
    failed = sum(1 for it in iterations if it.problems)
    good = [it for it in iterations if not it.problems] or iterations
    wall = statistics.median(it.wall_s for it in good)
    metrics = {
        "wall_s": wall,
        "rows_per_s": w.rows / wall,
        "peak_rss_mb": statistics.median(max(c.peak_rss_mb for c in it.children) for it in good),
        "setup_s": statistics.median(setup_times),
        "fault_recall": statistics.median(it.facts.get("fault_recall", 0.0) for it in good),
        "top1_hit": statistics.median(it.facts.get("top1_hit", 0.0) for it in good),
        "ok_ratio": (attempted - failed) / attempted,
    }
    problems += [p for it in iterations for p in it.problems]
    record = {
        "setup_s": setup_times,
        "input_digests": inputs.digests(),
        "iterations": [
            {"wall_s": it.wall_s, "cpu_s": sum(c.cpu_s for c in it.children),
             "peak_rss_mb": [c.peak_rss_mb for c in it.children],
             "exit_codes": [c.exit_code for c in it.children],
             "facts": it.facts, "problems": it.problems}
            for it in iterations
        ],
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}, record


def trace(w, seed, work, runner) -> tuple[dict, dict]:
    inputs, _, problems = setup(w, seed, os.path.join(work, "inputs"), runner, 1)
    imports = [runner.run(["-c", "import kpidiag.cli"]) for _ in range(IMPORT_REPEATS)]
    if any(c.exit_code != 0 for c in imports):
        problems.append("`import kpidiag.cli` failed")
    import_s = statistics.median(c.end - c.start for c in imports)

    plain = run_iteration(w, inputs, runner, os.path.join(work, "untraced"))
    dir = os.path.join(work, "traced")
    os.makedirs(dir)
    out, history = os.path.join(dir, "out"), os.path.join(dir, "history.tsv")
    workloads.fresh_history(inputs, history)
    steps = workloads.steps(w, inputs, out, history)
    spec = {"run_id": f"{w.name}-seed{seed}", "steps": [list(s.argv) for s in steps],
            "result": os.path.join(dir, "trace.json")}
    spec_path = os.path.join(dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    child = runner.run([str(BENCH / "traced.py"), spec_path])
    if child.exit_code != 0:
        raise RuntimeError(f"traced run exited {child.exit_code}: {stderr_tail(child, 20)}")
    with open(spec["result"], encoding="utf-8") as f:
        traced = json.load(f)

    traced_problems = []
    expected = [s.expected_exit for s in steps]
    if traced["exit_codes"] != expected:
        traced_problems.append(f"traced exit codes {traced['exit_codes']}, expected {expected}")
    else:
        facts, traced_problems = check(w, inputs, out, history)
        if not plain.problems and facts.get("digests") != plain.facts["digests"]:
            traced_problems.append("traced outputs differ from the untraced run's")
    problems += plain.problems + traced_problems

    metrics = dict(traced["metrics"])
    metrics["cli.import_s"] = import_s
    metrics["cli.cpu_s"] = sum(c.cpu_s for c in plain.children)
    # the traced steps share one interpreter, so add back one start-up per step
    metrics["trace.overhead_s"] = traced["total_s"] + len(steps) * import_s - plain.wall_s
    record = {"untraced_wall_s": plain.wall_s, "traced_total_s": traced["total_s"],
              "layer_self_s": traced["layer_self_s"], "spans": traced["spans"]}
    attempted = len(plain.children) + len(steps)
    failed = int(bool(plain.problems)) + int(bool(traced_problems))
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}, record


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "kpidiag").rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": tree.hexdigest(),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    w = workloads.WORKLOADS[workload]
    units = declared_metrics(traced)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    work = STATE / "work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(deadline, str(work))
        if traced:
            result, record = trace(w, seed, str(work), runner)
        else:
            result, record = measure(w, seed, seconds, str(work), runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                           "BENCHMARK.json")
    env = environment()
    os.makedirs(STATE / "results", exist_ok=True)
    with open(STATE / "results" / f"{w.name}-seed{seed}-trace{int(traced)}.json", "w",
              encoding="utf-8") as f:
        json.dump({"workload": w.name, "seed": seed, "environment": env,
                   "result": result, "record": record}, f, indent=1)
    print(json.dumps({"environment": env}), file=sys.stderr)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0
