"""Workload definitions, seeded inputs and the correctness checks.

The argv templates, the reasons each workload was chosen and the
reference digests live in workloads.json next to this file.  Every
workload has a report phase (a keisler-lab subcommand that writes
report.json) and a verify phase (`keisler-lab verify report.json`).
Both run with the work directory as the current directory, because the
report echoes the relative paths it was given.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().with_name("workloads.json")
REPORT_FILE = "report.json"
PHASES = ("report", "verify")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def weights_payload(seed: int, n: int, r: int, p: float) -> dict:
    """Seeded weighted r-graph: each r-subset is kept with probability p and
    weighted by a rational drawn as randint(1, 12) / randint(1, 6)."""
    rng = random.Random(seed)
    weights = []
    for key in itertools.combinations(range(n), r):
        if rng.random() < p:
            w = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            weights.append([list(key), {"num": w.numerator,
                                        "den": w.denominator}])
    return {"kind": "weighted-hypergraph", "n": n, "r": r,
            "weights": weights}


def write_weights(spec: dict, seed: int, workdir: Path) -> Path:
    cfg = spec["weights"]
    path = workdir / cfg["file"]
    payload = weights_payload(seed, cfg["n"], cfg["r"], cfg["p"])
    path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def phase_argv(spec: dict, workload: str, phase: str, seed: int) -> list[str]:
    fields = {"seed": seed, "weights": spec["weights"]["file"]}
    return [arg.format(**fields) for arg in spec["workloads"][workload][phase]]


def uses_weights(spec: dict, workload: str) -> bool:
    return any("{weights}" in arg
               for arg in spec["workloads"][workload]["report"])


class Ops:
    """Counts attempted and failed operations of one workload run.

    A report fails on a non-zero exit, a missing report, or bytes that
    differ from the first report of the run or from the digest recorded
    for the default seed; a generated input fails when it differs from
    its recorded digest.  A verify fails on a non-zero exit or when it
    does not print `verified:`.
    """

    def __init__(self, expected_sha256: str | None = None):
        self.expected = expected_sha256
        self.first: str | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)

    def check_input(self, name: str, actual: str, recorded: str) -> None:
        self.attempted += 1
        if actual != recorded:
            self._fail(f"{name} sha256 {actual} differs from the recorded "
                       f"{recorded}")

    def report(self, exit_code: int, path: Path) -> None:
        self.attempted += 1
        if exit_code != 0:
            self._fail(f"report exited {exit_code}")
            return
        if not path.is_file():
            self._fail("report file missing")
            return
        actual = sha256_file(path)
        if self.first is None:
            self.first = actual
        if actual != self.first:
            self._fail(f"report bytes changed between repetitions: {actual}")
        elif self.expected is not None and actual != self.expected:
            self._fail(f"report sha256 {actual} differs from the recorded "
                       f"{self.expected}")

    def verify(self, exit_code: int, stdout: str) -> None:
        self.attempted += 1
        if exit_code != 0:
            self._fail(f"verify exited {exit_code}")
        elif "verified:" not in stdout:
            self._fail("verify did not print 'verified:'")
