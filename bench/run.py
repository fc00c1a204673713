"""keisler-lab benchmark: time to a certified report and to its verification.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fam-scan --seed 1 --seconds 25 --trace 0

With --trace 0 every invocation runs as a fresh `python -m keisler_lab.cli`
process, the way users run it, and the end-to-end metrics are printed:
medians over the run of times scaled by speed probes run between the
processes (see ProbedRunner), so that a host that runs slower for a while
does not read as a slower program.  The raw medians are printed too.
With --trace 1 the same argv lines run in this process through
`keisler_lab.cli.run`, with the package's public functions wrapped
(see layers.py), and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--seconds bounds the --trace 0 measurement; a traced run always makes
three runs per phase (untraced, traced, untraced).  Workloads, their
argv templates and reference digests are in workloads.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES_PER_REP = 2
MIN_SETUP_SAMPLES = 15
# The shared host this runs on changes speed by a third or more within
# seconds to minutes, and every wall and CPU time moves with it.
# speed_probe() measures that speed between the timed processes, and times
# are reported scaled to a host on which one probe takes PROBE_REF_S (see
# ProbedRunner).
PROBE_REF_S = 0.01
PROBES_PER_GAP = 3

END_TO_END = (
    ("setup_s", "s"),
    ("report_s", "s"),
    ("verify_s", "s"),
    ("report_cpu_s", "s"),
    ("verify_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # echoed into the report config, so it would change the report bytes
    env.pop("KEISLER_LAB_THREADS", None)
    # import from cached bytecode, as an installed package does, whatever
    # the calling shell sets
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], cwd: Path, env: dict) -> dict:
    """Run `python args...` to completion; wall and CPU seconds, peak RSS."""
    out_path = cwd / "child.stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(encoding="utf-8", errors="replace")}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured on this host, scaled to the reference speed: the
    program's own work counts in full, the host's speed of the moment
    does not."""
    return seconds * PROBE_REF_S / probe_s


def prepare(spec: dict, workload: str, seed: int, ops: workloads.Ops) -> Path:
    """Make the run's work directory and seeded inputs, outside any timing."""
    if not (SRC / "keisler_lab" / "cli.py").is_file():
        raise BenchError(f"no keisler_lab sources under {SRC}")
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if workloads.uses_weights(spec, workload):
        path = workloads.write_weights(spec, seed, workdir)
        actual = workloads.sha256_file(path)
        print(f"input {path.name} sha256 {actual}")
        if seed == spec["default_seed"]:
            ops.check_input(path.name, actual,
                            spec["weights"]["sha256_at_default_seed"])
    return workdir


def _tree_depth(node) -> int:
    if not isinstance(node, tuple):
        return 1
    return 1 + max(_tree_depth(child) for child in node)


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the kinds the
    package does (Fraction sums, dict and set updates, recursion over
    tuples).  It never touches keisler_lab, so a faster program does not
    make it faster; only the host does."""
    start = time.perf_counter()
    total = Fraction(0)
    seen: dict = {}
    for i in range(1, 1800):
        total += Fraction(i % 11 + 1, i % 7 + 1)
        key = (i % 37, i * i % 101)
        seen[key] = seen.get(key, 0) + 1
    members = set()
    for i in range(18000):
        members.add((i * 31) % 997)
    tree: object = 0
    for i in range(10):
        tree = (tree, i, (tree,))
    _tree_depth(tree)
    return time.perf_counter() - start


class ProbedRunner:
    """Runs the timed child processes with speed probes between them.

    Each child is bracketed by PROBES_PER_GAP probes before and after it
    (the gap after one child is the gap before the next), and its wall and
    CPU times are scaled by the mean of those probes: the host's speed
    moves within seconds, so only the probes next to a process say how
    fast the host ran it."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir, self.env = workdir, env
        self.probes: list[float] = []
        self._before = self._gap()

    def _gap(self) -> list[float]:
        gap = [speed_probe() for _ in range(PROBES_PER_GAP)]
        self.probes.extend(gap)
        return gap

    def run(self, args: list[str]) -> dict:
        result = run_child(args, self.workdir, self.env)
        after = self._gap()
        probe_s = statistics.fmean(self._before + after)
        self._before = after
        result["scaled_wall_s"] = scaled(result["wall_s"], probe_s)
        result["scaled_cpu_s"] = scaled(result["cpu_s"], probe_s)
        return result


def measure_end_to_end(spec, workload, seed, seconds, workdir,
                       ops) -> tuple[dict, dict, list[float]]:
    """Samples of every end-to-end metric, scaled and raw, and the speed
    probes taken between the timed processes."""
    env = child_env()
    import_args = ["-c", "import keisler_lab.cli"]
    warm = run_child(import_args, workdir, env)  # compiles the bytecode
    if warm["exit"] != 0:
        raise BenchError("cannot import keisler_lab.cli from the checkout")
    argv = {phase: ["-m", "keisler_lab.cli",
                    *workloads.phase_argv(spec, workload, phase, seed)]
            for phase in workloads.PHASES}
    # one untimed repetition: warms the page cache and the report's inputs
    ops.report(run_child(argv["report"], workdir, env)["exit"],
               workdir / workloads.REPORT_FILE)
    verify = run_child(argv["verify"], workdir, env)
    ops.verify(verify["exit"], verify["stdout"])
    values = {name: [] for name, _ in END_TO_END}
    raw = {name: [] for name, _ in END_TO_END}

    def add(name: str, result: dict, kind: str) -> None:
        values[name].append(result[f"scaled_{kind}_s"])
        raw[name].append(result[f"{kind}_s"])

    runner = ProbedRunner(workdir, env)
    start = time.perf_counter()
    reps = 0
    while True:
        for _ in range(SETUP_SAMPLES_PER_REP):
            add("setup_s", runner.run(import_args), "wall")
        report = runner.run(argv["report"])
        ops.report(report["exit"], workdir / workloads.REPORT_FILE)
        verify = runner.run(argv["verify"])
        ops.verify(verify["exit"], verify["stdout"])
        for phase, result in (("report", report), ("verify", verify)):
            add(f"{phase}_s", result, "wall")
            add(f"{phase}_cpu_s", result, "cpu")
        rss = max(report["rss_mb"], verify["rss_mb"])
        values["peak_rss_mb"].append(rss)
        raw["peak_rss_mb"].append(rss)
        reps += 1
        # stop at the repetition boundary nearest to the time budget
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / reps / 2 >= seconds:
            break
    while len(values["setup_s"]) < MIN_SETUP_SAMPLES:
        add("setup_s", runner.run(import_args), "wall")
    return values, raw, runner.probes


def _in_process(argv: list[str], ops: workloads.Ops, phase: str,
                workdir: Path) -> float:
    from keisler_lab import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    if phase == "report":
        ops.report(code, workdir / workloads.REPORT_FILE)
    else:
        ops.verify(code, out.getvalue())
    return wall


def measure_layers(spec, workload, seed, workdir, ops, trace_path) -> dict:
    """Per phase: an untraced run, a traced run, an untraced run, all in
    this process; the traced run gives the per-layer metrics."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("KEISLER_LAB_THREADS", None)
    os.chdir(workdir)
    metrics, dumps = {}, {}
    for phase in workloads.PHASES:
        argv = workloads.phase_argv(spec, workload, phase, seed)
        untraced = [_in_process(argv, ops, phase, workdir)]
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = _in_process(argv, ops, phase, workdir)
        finally:
            tracer.uninstall()
        untraced.append(_in_process(argv, ops, phase, workdir))
        values = tracer.layer_metrics()
        values["trace.overhead_ratio"] = traced / statistics.median(untraced)
        for name, unit in layers.LAYER_METRICS:
            metrics[f"{phase}.{name}"] = {"value": values[name], "unit": unit}
        dumps[phase] = {"untraced_s": untraced, "traced_s": traced,
                        "functions": tracer.function_totals(),
                        "counters": dict(tracer.counters),
                        "spans": tracer.span_table()}
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(dumps) + "\n", encoding="utf-8")
    return metrics


def main() -> int:
    spec = workloads.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    stamp = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "python": platform.python_version(),
             "cpu_count": os.cpu_count(), "git_revision": git_revision(),
             "loadavg_before": os.getloadavg()}
    expected = (spec["workloads"][args.workload]
                ["report_sha256_at_default_seed"]
                if args.seed == spec["default_seed"] else None)
    ops = workloads.Ops(expected)
    workdir = None
    try:
        workdir = prepare(spec, args.workload, args.seed, ops)
        if args.trace:
            trace_path = (WORK / "traces"
                          / f"{args.workload}-seed{args.seed}.json")
            metrics = measure_layers(spec, args.workload, args.seed,
                                     workdir, ops, trace_path)
            print(f"trace written to {trace_path.relative_to(ROOT)}")
        else:
            values, raw, probes = measure_end_to_end(
                spec, args.workload, args.seed, args.seconds, workdir, ops)
            probe = summary(probes)
            stamp["probe_s"] = probe
            print(f"speed probe median {probe['median']:.6g} s (q1 "
                  f"{probe['q1']:.6g}, q3 {probe['q3']:.6g}, "
                  f"n={probe['n']}); reference {PROBE_REF_S} s")
            metrics = {}
            for name, unit in END_TO_END:
                s, r = summary(values[name]), summary(raw[name])
                print(f"{args.workload} {name} median {s['median']:.6g} "
                      f"{unit} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                      f"n={s['n']}); raw median {r['median']:.6g}")
                metrics[name] = {"value": s["median"], "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(ROOT)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    stamp["loadavg_after"] = os.getloadavg()
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for reason in ops.reasons:
        print(f"failed: {reason}")
    print(f"{args.workload} failed_ratio {ops.failed / ops.attempted:.6g} "
          f"({ops.failed} of {ops.attempted} operations)")
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
