"""Golden reports: the sha256 of each report's canonical bytes is pinned.

Each case in golden/digests.json is run in a fresh working directory with
relative --input/--output names, because the report echoes those paths
(in config and inputs.*.source).  Each report is then verified where it
was written, and verify must exit with the code the run did.  Five cases
also run as fresh `python -m keisler_lab.cli` processes, the way users and
the bench run them.  A golden may change only together with a CHANGES.md
line that names the report and says why it changed.
"""

import copy
import hashlib
import itertools
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import cli_process, random_weighted
from keisler_lab.cli import run
from keisler_lab.coloring import weighted_hypergraph
from keisler_lab.serialize import (canonical_dumps, structure_to_json,
                                   weighted_from_json, weighted_to_json)
from keisler_lab.structures import Hypergraph

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "digests.json").read_text())


def write_inputs(directory: Path) -> None:
    wh = weighted_hypergraph(5, 2, [((0, 1), 1, 3), ((1, 2), 2, 1),
                                    ((3, 4), 1, 2)])
    (directory / "weights.json").write_text(
        canonical_dumps(weighted_to_json(wh)))
    # the color-greedy bench input: seed 1, n = 40, r = 3, p = 0.1 (982
    # triples), weights randint(1, 12) / randint(1, 6); and a 4-graph
    for name, seed, n, r, p in (("weights-n40-r3.json", 1, 40, 3, 0.1),
                                ("weights-n9-r4.json", 4, 9, 4, 0.5)):
        wh = random_weighted(random.Random(seed), n, r, p)
        (directory / name).write_text(canonical_dumps(weighted_to_json(wh)))
    # the complete 3-graph on 5 vertices: not K^3_4-free
    k5 = Hypergraph(3, 5, frozenset(itertools.combinations(range(5), 3)))
    (directory / "k5-3.json").write_text(
        canonical_dumps(structure_to_json(k5)))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch, capsys):
    case = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert run(case["argv"] + ["--output", "report.json"]) == case["exit"]
    blob = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == case["sha256"], name
    # verify rebuilds the report, certifications and witness, from the
    # same directory; a false witness mismatch (say, a tuple against the
    # list the report holds) would exit 2 here
    assert run(["verify", "report.json"]) == case["exit"], name


# one golden per workload of the bench and a failed precondition, run the
# way users and the bench run them: each a fresh `python -m` process
ENTRY_POINT = ["order-gen120", "gen-write-60-3-4", "fam-scan-gen50",
               "color-greedy-n40-r3", "order-precondition"]


@pytest.mark.parametrize("name", ENTRY_POINT)
def test_entry_point_matches_golden(name, tmp_path):
    case = GOLDEN[name]
    write_inputs(tmp_path)
    assert cli_process(case["argv"] + ["--output", "report.json"],
                       tmp_path).returncode == case["exit"], name
    blob = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == case["sha256"], name
    assert cli_process(["verify", "report.json"],
                       tmp_path).returncode == case["exit"]


def test_weights_round_trip_constructs_no_fraction(tmp_path, monkeypatch):
    # a weights file is read as integer pairs and written in lowest terms
    # with one gcd per entry: Fraction is for certified values only
    write_inputs(tmp_path)
    payload = json.loads((tmp_path / "weights-n40-r3.json").read_text())
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert Fraction(1, 2) and made == [(1, 2)]  # the count sees a Fraction
    made.clear()
    h = weighted_from_json(payload)
    assert weighted_to_json(h) == payload
    assert len(h.weights) == 982 and made == []


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_refuses_an_edited_log(name, tmp_path, monkeypatch, capsys):
    # verify compares every part of a report with its rebuild, the log too
    case = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert run(case["argv"] + ["--output", "report.json"]) == case["exit"]
    report = json.loads((tmp_path / "report.json").read_text())
    report["log"][0] += " (edited)"
    (tmp_path / "edited.json").write_text(canonical_dumps(report))
    capsys.readouterr()
    assert run(["verify", "edited.json"]) == 2, name
    assert "log field '[0]' does not reproduce" in capsys.readouterr().err


# config fields that say where a report goes and in what form, not what it
# certifies
NOT_REQUEST = {"subcommand", "output", "structure_out", "format"}


def edited(key: str, value, directory: Path):
    """Another valid value for the config field key."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if key == "phi":
        return f"({value}) & x1 = x1"
    if key == "epsilon":
        return str(Fraction(value) + Fraction(1, 100))
    if key == "params":  # another parameter draw
        return value + ",0"
    if (directory / value).is_file():  # the same input under another name
        shutil.copy(directory / value, directory / f"copy-{value}")
        return f"copy-{value}"
    head, sep, seed = value.rpartition(":seed=")
    if sep:
        return f"{head}:seed={int(seed) + 1}"
    kind, n, distances = value.split(":")  # circulant:n:d1,d2
    return f"{kind}:{int(n) + 1}:{distances}"


# config fields whose every string an argv writes
FREE_TEXT = {"output", "phi", "epsilon"}

# a JSON value of each type: every config leaf is re-typed to each one of
# another type than its own
RETYPES = (True, False, 0, 1, 1.0, "1", None, [], {})


def retyped(config: dict):
    """Edits of each config leaf, each with the exit code verify must give:
    1 for a value no argv writes (another type, a key beside its full
    name, a subcommand or format the parser does not know), None for a
    string an argv writes, which verifies as the unedited report does."""
    for key, value in config.items():
        values = [other for other in RETYPES
                  if type(other) is not type(value)]
        if isinstance(value, bool):
            values.append(int(value))
        elif isinstance(value, int):
            values += [float(value), str(value), value != 0]
        elif key in {"subcommand", "format"}:
            values += [value.upper(), value + " "]
        for other in values:
            yield {**config, key: other}, 1
        if key in FREE_TEXT:
            yield {**config, key: value + " "}, None
        short = next((key[:i] for i in range(1, len(key))
                      if key[:i] not in config), None)
        if short is not None:
            yield {**config, short: value}, 1


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_refuses_an_edited_request(name, tmp_path, monkeypatch,
                                          capsys):
    # verify rebuilds a report from its config, so every request field is
    # read: a report whose config field alone is edited does not verify.
    # The config must also be one an argv writes, types included
    case = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert run(case["argv"] + ["--output", "report.json"]) == case["exit"]
    report = json.loads((tmp_path / "report.json").read_text())
    keys = sorted(report["config"].keys() - NOT_REQUEST)
    assert keys, name
    for key in keys:
        data = copy.deepcopy(report)
        data["config"][key] = edited(key, data["config"][key], tmp_path)
        (tmp_path / "edited.json").write_text(canonical_dumps(data))
        assert run(["verify", "edited.json"]) != 0, (name, key)
    wrong = []
    for config, code in retyped(report["config"]):
        (tmp_path / "edited.json").write_text(
            canonical_dumps({**report, "config": config}))
        capsys.readouterr()
        got = run(["verify", "edited.json"])
        err = capsys.readouterr().err
        if got != (case["exit"] if code is None else code) or (
                code == 1 and "report config is not a valid" not in err):
            wrong.append((config, got))
    assert not wrong, (name, wrong)
