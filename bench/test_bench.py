"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest bench -q

They start real keisler-lab processes and take a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = workloads.load_spec()


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    result = bench("--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", "1")
    path = run.WORK / "traces" / f"{workload}-seed{seed}.json"
    return result, json.loads(path.read_text())


@pytest.fixture(scope="module")
def extend_chain_twice():
    return traced("extend-chain", 1), traced("extend-chain", 1)


def test_metric_names_are_plain_and_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in config["end_to_end"]]
    per_layer = [m["name"] for m in config["per_layer"]]
    for name in end_to_end + per_layer:
        assert METRIC_NAME.fullmatch(name), name
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == [f"{phase}.{name}" for phase in workloads.PHASES
                         for name, _ in layers.LAYER_METRICS]
    assert sorted(w["name"] for w in config["workloads"]) \
        == sorted(SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_every_workload_passes_at_a_second_seed(workload):
    result = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                   "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_time_never_exceeds_inclusive_time(extend_chain_twice):
    (_, trace), _ = extend_chain_twice
    for phase in workloads.PHASES:
        spans = trace[phase]["spans"]
        assert spans
        for span in spans:
            assert span["self_s"] <= span["s"], span
            assert span["self_s"] > -1e-6, span


def test_traced_counts_repeat_exactly(extend_chain_twice):
    (first, _), (second, _) = extend_chain_twice
    assert first["correct"] and second["correct"]
    counts = {name for name, metric in first["metrics"].items()
              if metric["unit"] in ("count", "bytes", "ratio")
              and not name.endswith("overhead_ratio")}
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["report.structures.add_vertex_with_links.calls"][
        "value"] == 121


def test_fam_scan_counts_match_the_code():
    result, _ = traced("fam-scan", 1)
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for phase in workloads.PHASES:
        assert values[f"{phase}.logic.evaluate.calls"] == 65_000
        assert values[f"{phase}.logic.make_assignment.calls"] == 65_000
        assert values[f"{phase}.measures.sup_error.samples"] == 2_500
        assert values[f"{phase}.measures.mu_eval.calls"] == 2_500


def test_color_greedy_counts_match_the_code():
    result, _ = traced("color-greedy", 1)
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["report.coloring.conditional_expectation.calls"] == 120
    assert values["verify.coloring.conditional_expectation.calls"] == 0
    assert values["report.coloring.weighted_edges"] == 982


def test_each_child_is_scaled_by_the_probes_next_to_it(tmp_path):
    runner = run.ProbedRunner(tmp_path, run.child_env())
    first = runner.run(["-c", "pass"])
    second = runner.run(["-c", "pass"])
    gap = run.PROBES_PER_GAP
    assert len(runner.probes) == 3 * gap
    for result, probes in ((first, runner.probes[:2 * gap]),
                           (second, runner.probes[gap:])):
        assert result["exit"] == 0
        mean = sum(probes) / len(probes)
        assert result["scaled_wall_s"] == pytest.approx(
            result["wall_s"] * run.PROBE_REF_S / mean)
        assert result["scaled_cpu_s"] == pytest.approx(
            result["cpu_s"] * run.PROBE_REF_S / mean)


def test_corrupted_report_is_a_failed_operation():
    workdir = run.WORK / "test-corrupted-report"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = run.child_env()
        cli = ["-m", "keisler_lab.cli"]
        expected = SPEC["workloads"]["extend-chain"][
            "report_sha256_at_default_seed"]
        ops = workloads.Ops(expected)
        made = run.run_child(
            cli + workloads.phase_argv(SPEC, "extend-chain", "report", 1),
            workdir, env)
        report = workdir / workloads.REPORT_FILE
        ops.report(made["exit"], report)
        assert (ops.attempted, ops.failed) == (1, 0), ops.reasons

        data = json.loads(report.read_text())
        data["inputs"]["ambient"]["digest"] = "sha256:" + "0" * 64
        report.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
        ops.report(0, report)
        assert (ops.attempted, ops.failed) == (2, 1)

        checked = run.run_child(cli + ["verify", workloads.REPORT_FILE],
                                workdir, env)
        ops.verify(checked["exit"], checked["stdout"])
        assert (ops.attempted, ops.failed) == (3, 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
