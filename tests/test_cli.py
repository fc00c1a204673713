"""End-to-end command line runs, in process via run(argv)."""

import argparse
import gc
import io
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cli_process, traced_peak
from keisler_lab import cli
from keisler_lab.cli import _build_parser, run
from keisler_lab.coloring import weighted_hypergraph
from keisler_lab.serialize import (canonical_dumps, digest, load_structure,
                                   parse_structure_spec, rational_to_json,
                                   structure_to_json, weighted_to_json)
from keisler_lab.structures import (Feq2Structure, Hypergraph, build_tp2_grid,
                                    cyclic_graph)
from keisler_lab.witnesses import adversary_witness, sat_probe

HEADLINE_FAM = ["fam", "--phi", "!E(x1,y1) & x1 != y1", "--epsilon", "4/5",
                "--graph", "circulant:13:1,5",
                "--ambient", "gen:200:2:3:seed=9"]


def read_report(path):
    return json.loads(path.read_text())


def write_weighted(tmp_path, name="weights.json"):
    wh = weighted_hypergraph(4, 2, [((0, 1), 2, 3), ((1, 2), 1, 2),
                                    ((2, 3), 3, 1)])
    path = tmp_path / name
    path.write_text(canonical_dumps(weighted_to_json(wh)))
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_to_stdout(capsys):
    assert run(["gen", "circulant:13:1,5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["theorem"] == "gen"
    assert data["config"] == {"subcommand": "gen", "spec": "circulant:13:1,5"}
    assert [c["name"] for c in data["certified"]] == ["digest-match",
                                                      "embedded-match"]
    assert all(c["holds"] for c in data["certified"])


def test_gen_maximal_adds_freeness_certs(tmp_path):
    out = tmp_path / "r.json"
    assert run(["gen", "gen:20:2:3:seed=1", "--output", str(out)]) == 0
    names = [c["name"] for c in read_report(out)["certified"]]
    assert names == ["digest-match", "embedded-match", "free", "maximal-free"]


def test_gen_searchalpha_certs(tmp_path):
    out = tmp_path / "r.json"
    assert run(["gen", "searchalpha:13:3:4:60:seed=0",
                "--output", str(out)]) == 0
    data = read_report(out)
    by_name = {c["name"]: c for c in data["certified"]}
    assert by_name["alpha-target"]["rhs"]["num"] == 4
    assert by_name["alpha-target"]["holds"]


# the alpha_s evaluations of searchalpha:29:3:8:1000:seed=0 take 4,796
# nodes in all
def test_searchalpha_node_cap(tmp_path, monkeypatch, capsys):
    import keisler_lab.structures as structures
    spec = "searchalpha:29:3:8:1000:seed=0"
    out = tmp_path / "gen.json"
    assert run(["gen", "searchalpha:13:3:4:60:seed=0",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["spec"] = spec
    out.write_text(canonical_dumps(data))
    monkeypatch.setattr(structures, "_MAX_SEARCH_NODES", 4_796)
    assert run(["gen", spec]) == 0
    monkeypatch.setattr(structures, "_MAX_SEARCH_NODES", 4_795)
    capsys.readouterr()
    assert run(["gen", spec]) == 1
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr().err.count(
        "alpha_s evaluations exceed 4795 nodes") == 2


# a budget of 0 evaluates no graph, so there is no best alpha to report
ZERO_BUDGET = "searchalpha:5:3:1:0:seed=0"


def test_gen_refuses_a_searchalpha_budget_below_1(capsys):
    assert run(["gen", ZERO_BUDGET]) == 1
    assert (f"{ZERO_BUDGET!r}: budget must be at least 1, got 0"
            in capsys.readouterr().err)


def test_verify_refuses_a_searchalpha_budget_below_1(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert run(["gen", "searchalpha:13:3:4:60:seed=0",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["spec"] = ZERO_BUDGET
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert (f"{ZERO_BUDGET!r}: budget must be at least 1, got 0"
            in capsys.readouterr().err)


def test_searchalpha_at_s_4_stops_at_the_node_cap(capsys):
    # alpha_s at s = 4 prunes by size alone: the evaluations pass 10^6
    # nodes by the 30th of the 1,000 that the budget allows
    start = time.perf_counter()
    assert run(["gen", "searchalpha:24:4:9:1000:seed=0"]) == 1
    assert time.perf_counter() - start < 20
    assert "alpha_s evaluations exceed 1000000 nodes" in (
        capsys.readouterr().err)


def test_gen_structure_out(tmp_path):
    sout = tmp_path / "structure.json"
    assert run(["gen", "circulant:13:1,5", "--output",
                str(tmp_path / "r.json"), "--structure-out", str(sout)]) == 0
    assert load_structure(str(sout)) == cyclic_graph(13, [1, 5])


def test_gen_serialises_and_digests_the_structure_once(tmp_path,
                                                       monkeypatch, capsys):
    # the runner digests the JSON its witness embeds once, and so does
    # verify: the rebuilt witness must equal the recorded one, digest and
    # structure alike
    import keisler_lab.serialize as serialize
    import keisler_lab.witnesses as witnesses
    calls = {"structure_to_json": 0, "digest": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for module in (serialize, witnesses):
        for name in calls:
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    out = tmp_path / "r.json"
    assert run(["gen", "gen:20:2:3:seed=1", "--output", str(out)]) == 0
    assert calls == {"structure_to_json": 1, "digest": 1}
    calls.update(structure_to_json=0, digest=0)
    assert run(["verify", str(out)]) == 0
    assert calls == {"structure_to_json": 1, "digest": 1}
    assert "4 certifications reproduced" in capsys.readouterr().out


def test_gen_bad_spec_is_usage_error(capsys):
    assert run(["gen", "circulant:13"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_raises_usage_exit():
    with pytest.raises(SystemExit) as info:
        run(["gen", "circulant:13:1,5", "--nope"])
    assert info.value.code == 1


# argparse stores [] for an option given "--" as its value; each of these
# once reached a builder or a report with it
DASHES_VALUE = {
    "--seed": ["check-measures", "--seed=--"],
    "--ambient": [*HEADLINE_FAM[:-2], "--ambient=--"],
    "--output": ["order", "--ambient", "gen:10:2:3:seed=1", "--q", "2",
                 "--output=--"],
    "--format": ["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size",
                 "12", "--seed", "9", "--trials", "5", "--n-params", "2",
                 "--format=--", "--output", "sp.json"],
}


@pytest.mark.parametrize("option", sorted(DASHES_VALUE))
def test_dashes_as_an_option_value_is_a_usage_error(option, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, text = exit_text(run, DASHES_VALUE[option], capsys)
    assert code == 1
    assert f"error: argument {option}: expected one argument" in text
    assert "Traceback" not in text
    assert list(tmp_path.iterdir()) == []


def test_main_freezes_the_import_heap_before_it_runs(monkeypatch):
    # the process entry freezes what the imports made before it runs, so
    # that interpreter shutdown does not walk it
    frozen = []

    def stub():
        frozen.append(gc.get_freeze_count())
        return 0
    monkeypatch.setattr(cli, "run", stub)
    try:
        with pytest.raises(SystemExit) as info:
            cli.main()
    finally:
        gc.unfreeze()
    assert info.value.code == 0
    assert frozen and frozen[0] > 0


SUBCOMMANDS = ["gen", "color", "fam", "adversary", "satprobe", "tp2",
               "order", "check-measures", "verify"]


def exit_text(parse, argv, capsys):
    """The exit code and output of a parse that exits, such as --help."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    out, err = capsys.readouterr()
    return info.value.code, out + err


def test_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, text = exit_text(run, ["--help"], capsys)
    assert code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in text
    listed = [line.split()[0] for line in text.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == SUBCOMMANDS


@pytest.mark.parametrize("columns", ["30", "80", "200"])
def test_help_wraps_as_with_argparse_formatter(columns, capsys, monkeypatch):
    # the CLI's formatter reads the terminal's width only when it formats
    # text; help and usage errors wrap as with argparse's own formatter
    monkeypatch.setenv("COLUMNS", columns)
    argvs = [["--help"], ["satprobe", "--help"], ["fam", "--nope"]]
    ours = [exit_text(run, argv, capsys) for argv in argvs]
    monkeypatch.setattr(cli._Parser, "_get_formatter",
                        argparse.ArgumentParser._get_formatter)
    assert [exit_text(run, argv, capsys) for argv in argvs] == ours
    assert len({text for _, text in ours}) == 3


def test_an_unknown_subcommand_names_the_choices(capsys):
    code, text = exit_text(run, ["bogus"], capsys)
    assert code == 1
    assert ("invalid choice: 'bogus' (choose from "
            + ", ".join(map(repr, SUBCOMMANDS)) + ")") in text


@pytest.mark.parametrize("tail", [["--help"], ["--nope"]],
                         ids=["help", "unknown-flag"])
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_a_subcommand_parser_built_alone_reads_as_with_all_nine(
        name, tail, capsys, monkeypatch):
    # run builds only the subcommand's parser; its help and its errors,
    # the top-level usage line included, read as with all nine built
    monkeypatch.setenv("COLUMNS", "80")
    alone = exit_text(run, [name, *tail], capsys)
    assert alone == exit_text(_build_parser().parse_args, [name, *tail],
                              capsys)
    assert f"usage: keisler-lab {name} [-h]" in alone[1]


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------

def test_color_with_brute_and_verify(tmp_path, capsys):
    wfile = write_weighted(tmp_path)
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(wfile), "--brute",
                "--output", str(out)]) == 0
    data = read_report(out)
    assert data["theorem"] == "coloring-bound"
    by_name = {c["name"]: c for c in data["certified"]}
    assert by_name["greedy-bound"]["holds"]
    assert by_name["average-identity"]["holds"]
    assert data["witness"]["brute"]["colorings"] == 16
    assert run(["verify", str(out)]) == 0
    assert "3 certifications reproduced" in capsys.readouterr().out


def test_color_input_override(tmp_path):
    wfile = write_weighted(tmp_path)
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(wfile), "--output", str(out)]) == 0
    moved = tmp_path / "elsewhere.json"
    moved.write_text(wfile.read_text())
    wfile.unlink()
    assert run(["verify", str(out)]) == 1  # recorded source is gone
    assert run(["verify", str(out), "--input",
                f"weighted={moved}"]) == 0


# a weights file with another kind's name, and one with none
OTHER_KIND_WEIGHTS = {
    "feq2": {"kind": "feq2", "n": 3, "r": 2,
             "weights": [[[0, 1], {"num": 1, "den": 2}]]},
    "none": {"n": 3, "r": 2, "weights": [[[0, 1], {"num": 1, "den": 2}]]},
}


@pytest.mark.parametrize("case", sorted(OTHER_KIND_WEIGHTS))
def test_color_refuses_a_weights_file_of_another_kind(case, tmp_path,
                                                      capsys):
    wfile = tmp_path / "weights.json"
    wfile.write_text(json.dumps(OTHER_KIND_WEIGHTS[case]))
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(wfile), "--output", str(out)]) == 1
    assert not out.exists()
    kind = OTHER_KIND_WEIGHTS[case].get("kind")
    assert f"unknown weights kind {kind!r}" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(OTHER_KIND_WEIGHTS))
def test_verify_refuses_a_weights_file_of_another_kind(case, tmp_path,
                                                       capsys):
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(write_weighted(tmp_path)),
                "--output", str(out)]) == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps(OTHER_KIND_WEIGHTS[case]))
    capsys.readouterr()
    assert run(["verify", str(out), "--input", f"weighted={other}"]) == 1
    kind = OTHER_KIND_WEIGHTS[case].get("kind")
    assert f"unknown weights kind {kind!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fam
# ---------------------------------------------------------------------------

def test_fam_headline_and_verify(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert run(HEADLINE_FAM + ["--output", str(out)]) == 0
    data = read_report(out)
    assert data["theorem"] == "famnotfim"
    assert data["witness"]["sup"]["sup_error"]["num"] == 5
    assert data["witness"]["sup"]["sup_error"]["den"] == 13
    assert data["witness"]["violation_max"]["count"] == 5
    assert run(["verify", str(out)]) == 0
    assert "verified: 7 certifications reproduced" in capsys.readouterr().out


@pytest.mark.parametrize("tamper", ["duplicate", "short", "out-of-range"])
def test_verify_names_embedding_induced_on_tampered_embedding(
        tamper, tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert run(["fam", "--phi", "!E(x1,y1) & x1 != y1", "--epsilon", "4/5",
                "--graph", "circulant:13:1,5",
                "--ambient", "gen:50:2:3:seed=1", "--output", str(out)]) == 0
    data = read_report(out)
    embedding = data["witness"]["embedding"]
    data["witness"]["embedding"] = {
        "duplicate": embedding[:-1] + embedding[:1],
        "short": embedding[:-1],
        "out-of-range": embedding[:-1] + [999],
    }[tamper]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    # the rebuild searches for its own embedding, which is induced: the
    # edited one is a witness field that does not reproduce
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "witness field 'embedding" in err
    assert "certification" not in err and "error:" not in err


def test_fam_precondition_report_and_verify(tmp_path, capsys):
    out = tmp_path / "fam5.json"
    code = run(["fam", "--phi", "!E(x1,y1) & x1 != y1", "--epsilon", "4/5",
                "--graph", "circulant:5:1",
                "--ambient", "gen:200:2:3:seed=9", "--output", str(out)])
    assert code == 2
    data = read_report(out)
    assert data["witness"]["precondition_failed"] == "alpha-bound"
    (cert,) = data["certified"]
    assert cert["holds"] is False
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert "failed certification" in capsys.readouterr().err


# 13 conjuncts of two atoms: 2^13 = 8,192 clauses, over the cap of 4,096
WIDE_PHI = " & ".join(f"(E(x1,y{j}) | x1 = y{j})" for j in range(1, 14))
FAM_GEN50 = ["fam", "--phi", "!E(x1,y1) & x1 != y1", "--epsilon", "4/5",
             "--graph", "circulant:13:1,5", "--ambient", "gen:50:2:3:seed=1"]


def test_fam_dnf_cap_is_usage_error(capsys):
    argv = FAM_GEN50[:]
    argv[2] = WIDE_PHI
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "error: clause count exceeds 4096" in err
    assert "Traceback" not in err


def test_verify_dnf_cap_on_an_edited_phi(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert run(FAM_GEN50 + ["--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["phi"] = WIDE_PHI
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "error: clause count exceeds 4096" in capsys.readouterr().err


# nested past the cap of 100 levels of "(" and "!", far past Python's
# recursion limit for the 2,000 negations
DEEP_PHI = {"parentheses": "(" * 400 + "!E(x1,y1) & x1 != y1" + ")" * 400,
            "negations": "!" * 2000 + "E(x1,y1) & x1 != y1"}


@pytest.mark.parametrize("phi", sorted(DEEP_PHI))
def test_fam_bounds_the_nesting_of_phi(phi, capsys):
    argv = list(FAM_GEN50)
    argv[argv.index("--phi") + 1] = DEEP_PHI[phi]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "expected at most 100 nested '(' and '!'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("phi", sorted(DEEP_PHI))
def test_verify_bounds_the_nesting_of_an_edited_phi(phi, tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert run(FAM_GEN50 + ["--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["phi"] = DEEP_PHI[phi]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert "expected at most 100 nested '(' and '!'" in err
    assert "Traceback" not in err


# just over the cap of 20 parameters, and far over it: n^m is never taken
OVER_CAP_PHI = {"just-over": "!E(x1,y21) & x1 != y1",
                "huge": "!E(x1,y1000000000) & x1 != y1"}


@pytest.mark.parametrize("phi", sorted(OVER_CAP_PHI))
def test_fam_bounds_the_parameter_arity_first(phi, capsys):
    argv = list(FAM_GEN50)
    argv[argv.index("--phi") + 1] = OVER_CAP_PHI[phi]
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert "parameters may not exceed 20" in capsys.readouterr().err


@pytest.mark.parametrize("phi", sorted(OVER_CAP_PHI))
def test_verify_bounds_the_parameter_arity_of_an_edited_phi(phi, tmp_path,
                                                            capsys):
    out = tmp_path / "fam.json"
    assert run(FAM_GEN50 + ["--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["phi"] = OVER_CAP_PHI[phi]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["verify", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "parameters may not exceed 20" in capsys.readouterr().err


def test_fam_alpha_node_cap(tmp_path, monkeypatch, capsys):
    import keisler_lab.witnesses as witnesses
    out = tmp_path / "fam.json"
    # alpha_s of circulant:13:1,5 takes 12 nodes
    assert run(FAM_GEN50 + ["--output", str(out)]) == 0
    monkeypatch.setattr(witnesses, "_MAX_ALPHA_NODES", 5)
    capsys.readouterr()
    assert run(FAM_GEN50) == 1
    assert "did not finish within 5 nodes" in capsys.readouterr().err
    assert run(["verify", str(out)]) == 1
    assert "did not finish within 5 nodes" in capsys.readouterr().err


def test_fam_bad_formula_is_usage_error(tmp_path):
    assert run(["fam", "--phi", "E(x1", "--epsilon", "4/5",
                "--graph", "circulant:13:1,5",
                "--ambient", "gen:30:2:3:seed=1"]) == 1


def test_fam_budget_miss_is_usage_error(capsys):
    code = run(HEADLINE_FAM + ["--budget", "3"])
    assert code == 1
    assert "embedding" in capsys.readouterr().err.lower()


# just over the embedding-search cap of 10^6 nodes, given as --budget or
# taken when --budget is absent
def test_over_cap_fam_budget_fails_fast(tmp_path, monkeypatch, capsys):
    import keisler_lab.witnesses as witnesses
    out = tmp_path / "fam.json"
    assert run(FAM_GEN50 + ["--budget", "1000000", "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["budget"] = 1_000_001
    out.write_text(canonical_dumps(data))

    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap budget reached the search")
    monkeypatch.setattr(witnesses, "embed_search", refuse)
    capsys.readouterr()
    assert run(FAM_GEN50 + ["--budget", "1000001"]) == 1
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr().err.count("must lie in 1..1000000") == 2


# four parameters over a 50-vertex ambient: 50^4 tuples, over the 10^6 cap
# on the parameter domain, which is checked before any embedding is sought
def test_fam_domain_cap_precedes_the_embedding(tmp_path, monkeypatch,
                                               capsys):
    import keisler_lab.witnesses as witnesses
    out = tmp_path / "fam.json"
    assert run(FAM_GEN50 + ["--output", str(out)]) == 0
    phi = "!E(x1,y1) & x1 != y1 & x1 != y2 & x1 != y3 & x1 != y4"
    data = read_report(out)
    data["config"]["phi"] = phi
    out.write_text(canonical_dumps(data))

    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap domain reached the embedding")
    monkeypatch.setattr(witnesses, "embed_search", refuse)
    monkeypatch.setattr(witnesses, "is_induced_embedding", refuse)
    capsys.readouterr()
    assert run(["fam", "--phi", phi, *FAM_GEN50[3:]]) == 1
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr().err.count(
        "parameter domain of size 50^4 exceeds 1000000") == 2


def test_fam_without_budget_searches_up_to_the_cap(monkeypatch, capsys):
    import keisler_lab.witnesses as witnesses
    monkeypatch.setattr(witnesses, "_MAX_EMBED_NODES", 5)
    assert run(FAM_GEN50) == 1
    assert "search budget exhausted, 6 nodes" in capsys.readouterr().err


def test_fam_embeds_a_999_cycle_into_itself(tmp_path, capsys):
    # the embedding search keeps its own stack: recursing once per placed
    # vertex would run out of Python frames at this size
    out = tmp_path / "fam.json"
    assert run(["fam", "--phi", "x1 != y1", "--epsilon", "4/5",
                "--graph", "circulant:999:1", "--ambient", "circulant:999:1",
                "--budget", "100000", "--output", str(out)]) == 0
    assert run(["verify", str(out)]) == 0
    assert "verified: 6 certifications reproduced" in capsys.readouterr().out


def test_fam_alpha_4_of_a_999_cycle(tmp_path, capsys):
    # alpha_s at s = 4 keeps its own stack: the subset search goes one
    # level deeper per sample vertex
    out = tmp_path / "fam.json"
    assert run(["fam", "--phi", "x1 != y1", "--epsilon", "4/5",
                "--graph", "circulant:999:1", "--ambient", "circulant:999:1",
                "--s", "4", "--output", str(out)]) == 0
    assert read_report(out)["witness"]["alpha"]["value"] == 999
    assert run(["verify", str(out)]) == 0
    assert "verified: 6 certifications reproduced" in capsys.readouterr().out


def test_fam_edgeless_1000_sample_is_an_error_not_a_crash(capsys):
    # alpha_s at s = 3 of an edgeless sample is a clique search a thousand
    # levels deep; it finishes, and the sample does not fit the ambient
    assert run(["fam", "--phi", "x1 != y1", "--epsilon", "4/5",
                "--graph", "circulant:1000:", "--ambient",
                "circulant:999:1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no induced embedding")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify hardening
# ---------------------------------------------------------------------------

def test_verify_detects_certified_tamper(tmp_path, capsys):
    out = tmp_path / "fam.json"
    run(HEADLINE_FAM + ["--output", str(out)])
    data = read_report(out)
    for cert in data["certified"]:
        if cert["name"] == "sup-error":
            cert["lhs"] = {"num": 4, "den": 13, "decimal": 4 / 13}
        if cert["name"] == "violation-bound":
            cert["lhs"] = {"num": 4, "den": 1, "decimal": 4.0}
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'sup-error' does not reproduce" in err
    assert "'violation-bound' does not reproduce" in err


def test_verify_detects_input_tamper(tmp_path, capsys):
    out = tmp_path / "order.json"
    run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2",
         "--output", str(out)])
    data = read_report(out)
    data["inputs"]["ambient"]["source"] = "gen:20:2:3:seed=2"
    out.write_text(canonical_dumps(data))
    assert run(["verify", str(out)]) == 2
    assert "input field 'ambient.source' does not reproduce" \
        in capsys.readouterr().err


@pytest.mark.parametrize("key, value, named", [
    ("q", 7, "certification 'alternation' does not reproduce"),
    ("ambient", "gen:100:2:3:seed=2",
     "input field 'ambient.digest' does not reproduce"),
], ids=["q", "ambient"])
def test_verify_holds_the_report_to_its_config(key, value, named, tmp_path,
                                               capsys):
    # the config is the request: verify rebuilds the report from it,
    # inputs included, and compares the inputs as it does the witness
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:100:2:3:seed=1", "--q", "10",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"][key] = value
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert named in capsys.readouterr().err


def _edit_kind(inputs):
    inputs["ambient"]["kind"] = "feq2"


def _edit_digest(inputs):
    inputs["ambient"]["digest"] = "sha256:" + "0" * 64


def _edit_source(inputs):
    inputs["ambient"]["source"] = "gen:100:2:3:seed=2"


def _add_input(inputs):
    inputs["graph"] = dict(inputs["ambient"])


# each edit of the recorded inputs, and the first path verify names
INPUT_EDITS = {
    "kind": (_edit_kind, "ambient.kind"),
    "digest": (_edit_digest, "ambient.digest"),
    "source": (_edit_source, "ambient.source"),
    "dropped": (lambda inputs: inputs.pop("ambient"), "ambient"),
    "extra": (_add_input, "graph"),
}


@pytest.mark.parametrize("edit", sorted(INPUT_EDITS))
def test_verify_names_the_first_differing_input_field(edit, tmp_path,
                                                      capsys):
    # verify resolves the inputs the config names and compares what it
    # records for them with the report's inputs, as it does the witness
    edit_inputs, path = INPUT_EDITS[edit]
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:100:2:3:seed=1", "--q", "10",
                "--output", str(out)]) == 0
    data = read_report(out)
    edit_inputs(data["inputs"])
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"input field {path!r} does not reproduce" in err
    assert "certification" not in err and "witness field" not in err


def test_verify_input_override_records_the_config_source(tmp_path, capsys):
    # --input changes only where a structure is read from: the entry it
    # makes names the config's source, so the same structure read from
    # elsewhere verifies, and another structure names its digest
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:100:2:3:seed=1", "--q", "10",
                "--output", str(out)]) == 0
    same, other = tmp_path / "same.json", tmp_path / "other.json"
    for path, spec in ((same, "gen:100:2:3:seed=1"),
                       (other, "gen:100:2:3:seed=2")):
        path.write_text(canonical_dumps(structure_to_json(
            parse_structure_spec(spec))))
    capsys.readouterr()
    assert run(["verify", str(out), "--input", f"ambient={same}"]) == 0
    assert run(["verify", str(out), "--input", f"ambient={other}"]) == 2
    err = capsys.readouterr().err
    assert "input field 'ambient.digest' does not reproduce" in err
    assert "ambient.source" not in err


def test_verify_refuses_a_misspelt_input_override(tmp_path, capsys):
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2",
                "--output", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out), "--input", "ambiant=/nonexistent"]) == 1
    err = capsys.readouterr().err
    assert "'ambiant'" in err and "['ambient']" in err


def test_verify_rebuilds_a_precondition_report(tmp_path, capsys):
    # alpha-bound fails (2 < 2); renamed to sample-size at 100 < 2 the
    # recorded inequality still fails, but it is not where the request stops
    out = tmp_path / "fam5.json"
    assert run(["fam", "--phi", "!E(x1,y1) & x1 != y1", "--epsilon", "4/5",
                "--graph", "circulant:5:1", "--ambient", "gen:200:2:3:seed=9",
                "--output", str(out)]) == 2
    data = read_report(out)
    hundred = rational_to_json(Fraction(100))
    data["witness"].update(precondition_failed="sample-size", lhs=hundred)
    data["certified"][0].update(name="sample-size", lhs=hundred)
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "certification 'alpha-bound' does not reproduce" in err
    assert "report reproduces" not in err


def test_verify_rejects_malformed_reports(tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text(canonical_dumps({"theorem": "order", "inputs": {},
                                        "witness": {}, "certified": []}))
    assert run(["verify", str(missing)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(canonical_dumps({"theorem": "zzz", "inputs": {},
                                        "witness": {}, "certified": [],
                                        "log": []}))
    assert run(["verify", str(unknown)]) == 1
    no_lhs = tmp_path / "no-lhs.json"
    no_lhs.write_text(canonical_dumps({
        "theorem": "order", "inputs": {}, "certified": [], "log": [],
        "witness": {"precondition_failed": "ambient-free", "op": "==",
                    "rhs": {"num": 1, "den": 1}}}))
    assert run(["verify", str(no_lhs)]) == 1


@pytest.mark.parametrize("edit, exit_code, named", [
    (lambda data: data.update(theorem=["order"]), 1, "unknown theorem tag"),
    (lambda data: data.pop("witness"), 2, "report key 'witness'"),
    (lambda data: data.update(extra=1), 2, "report key 'extra'"),
], ids=["list-theorem", "no-witness", "extra-key"])
def test_verify_holds_every_top_level_key(edit, exit_code, named, tmp_path,
                                          capsys):
    # verify compares every top-level key of either document
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2",
                "--output", str(out)]) == 0
    data = read_report(out)
    edit(data)
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == exit_code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, key, value", [
    (["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2"], "q", "7"),
    (["tp2", "--k", "2", "--input", "GRID"], "k", 2.0),
], ids=["order", "tp2"])
def test_verify_names_the_config_on_a_value_of_another_type(
        argv, key, value, tmp_path, capsys):
    # the value reaches the builder, which cannot use it: a usage error that
    # names the config, not a traceback
    grid = tmp_path / "grid.json"
    grid.write_text(canonical_dumps(structure_to_json(build_tp2_grid(2))))
    out = tmp_path / "report.json"
    argv = [str(grid) if a == "GRID" else a for a in argv]
    assert run(argv + ["--output", str(out)]) == 0
    data = read_report(out)
    data["config"][key] = value
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"report config is not a valid {data['theorem']!r} request" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["verify", "DEEP"],
                                  ["color", "--input", "DEEP"]],
                         ids=["verify", "color"])
def test_deeply_nested_json_is_a_usage_error(argv, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert run([str(deep) if a == "DEEP" else a for a in argv]) == 1
    assert "nested too deeply" in capsys.readouterr().err


def test_verify_refuses_a_precondition_report_that_holds(tmp_path, capsys):
    # K5 is not triangle-free: order stops at ambient-free and exits 2.  A
    # recorded inequality edited to hold is rebuilt from the request, which
    # stops at the real one
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "circulant:5:1,2", "--q", "2",
                "--output", str(out)]) == 2
    data = read_report(out)
    one = rational_to_json(Fraction(1))
    data["witness"]["lhs"] = one
    data["certified"][0].update(lhs=one, holds=True)
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert ("certification 'ambient-free' does not reproduce"
            in capsys.readouterr().err)


@pytest.mark.parametrize("edit", ["paths", "seed"])
def test_verify_rederives_tp2_paths(edit, tmp_path, capsys):
    out = tmp_path / "tp2.json"
    if edit == "paths":
        # the one parameter pairs 0-4 and 2-5: of the four paths through
        # the 2-grid only [0, 0] is consistent
        f = Feq2Structure(6, 1, ((4, 3, 5, 1, 0, 2),))
        sfile = tmp_path / "f.json"
        sfile.write_text(canonical_dumps(structure_to_json(f)))
        assert run(["tp2", "--k", "2", "--input", str(sfile),
                    "--output", str(out)]) == 2
    else:
        assert run(["tp2", "--k", "4", "--sample", "50", "--seed", "3",
                    "--output", str(out)]) == 0
    data = read_report(out)
    if edit == "paths":
        # four copies of the consistent path, certifications written back
        data["witness"]["checked_paths"] = [[0, 0]] * 4
        for cert in data["certified"]:
            cert.update(lhs=cert["rhs"], holds=True)
    else:
        data["config"]["seed"] = 4
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    # the paths come from the config's k, sample and seed, never the report
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "witness field 'checked_paths[" in err
    assert ("certification 'paths-consistent' does not reproduce" in err) \
        == (edit == "paths")


OVER_CAP_SPECS = [
    "gen:127:3:4:seed=1",              # 3 * C(127, 3) = 1,000,125 entries
    "gen:2000:3:4:seed=1",
    "gen:10001:10002:10003:seed=1",    # n itself over the cap
    "circulant:1001:1",
    "searchalpha:41:3:4:60:seed=0",
    "searchalpha:13:3:4:1001:seed=0",
    "tp2grid:1000000000",
]


def refuse_to_build(monkeypatch):
    """Make the spec builders fail loudly, so a cap that lets a spec
    through is caught before it allocates anything.  build_tp2_grid
    checks its own cap before it allocates, so it stays."""
    import keisler_lab.serialize as serialize

    def refuse(*args, **kwargs):
        raise AssertionError("a capped spec reached its builder")
    for name in ("random_maximal_free", "cyclic_graph",
                 "search_small_alpha"):
        monkeypatch.setattr(serialize, name, refuse)


@pytest.mark.parametrize("spec", OVER_CAP_SPECS)
def test_over_cap_spec_fails_fast(spec, monkeypatch, capsys):
    refuse_to_build(monkeypatch)
    assert run(["gen", spec]) == 1
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("spec", OVER_CAP_SPECS)
def test_verify_rejects_over_cap_source(spec, tmp_path, monkeypatch, capsys):
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["ambient"] = spec
    out.write_text(canonical_dumps(data))
    gen_out = tmp_path / "gen.json"
    assert run(["gen", "gen:20:2:3:seed=1", "--output", str(gen_out)]) == 0
    gen_data = read_report(gen_out)
    gen_data["config"]["spec"] = spec
    gen_out.write_text(canonical_dumps(gen_data))
    refuse_to_build(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert run(["verify", str(gen_out)]) == 1
    assert capsys.readouterr().err.count("exceed") == 2


# just over the weights-file caps n <= 10,000 and r <= 8
OVER_CAP_WEIGHTS = [{"n": 10_001, "r": 2}, {"n": 9, "r": 9}]


def over_cap_weights(path, size):
    path.write_text(json.dumps(
        {"kind": "weighted-hypergraph", "weights": [], **size}))


def refuse_to_build_weighted(monkeypatch):
    import keisler_lab.serialize as serialize

    def refuse(*args, **kwargs):
        raise AssertionError("a capped weights file reached its builder")
    monkeypatch.setattr(serialize, "weighted_hypergraph", refuse)


@pytest.mark.parametrize("size", OVER_CAP_WEIGHTS)
def test_over_cap_weights_fail_fast(size, tmp_path, monkeypatch, capsys):
    wfile = tmp_path / "weights.json"
    over_cap_weights(wfile, size)
    refuse_to_build_weighted(monkeypatch)
    assert run(["color", "--input", str(wfile)]) == 1
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("size", OVER_CAP_WEIGHTS)
def test_verify_rejects_over_cap_weights(size, tmp_path, monkeypatch,
                                         capsys):
    wfile = write_weighted(tmp_path)
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(wfile), "--output", str(out)]) == 0
    over_cap_weights(wfile, size)
    refuse_to_build_weighted(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "exceed" in capsys.readouterr().err


def thirty_thousand_pairs() -> list:
    # n = 10,000, r = 2: every weight 1/d, d a distinct random 9-digit number
    rng = random.Random(1)
    pairs = set()
    while len(pairs) < 30_000:
        pairs.add(tuple(sorted(rng.sample(range(10_000), 2))))
    dens = rng.sample(range(10 ** 8, 10 ** 9), len(pairs))
    return [[list(p), {"num": 1, "den": d}] for p, d in zip(pairs, dens)]


# weights whose total over D, the lcm of their denominators, is just over
# the cap (a value of 10^300; a D of 4,001 digits) or far over it, and
# just under, where every certified rational is still written
OVER_CAP_VALUES = {
    "value": lambda: [[[0, 1], {"num": 10 ** 300, "den": 1}]],
    "lcm": lambda: [[[0, 1], {"num": 1, "den": 10 ** 2000}],
                    [[1, 2], {"num": 1, "den": 10 ** 2000 + 1}]],
    "num-1e400": lambda: [[[0, 1], {"num": 10 ** 400, "den": 1}]],
    "coprime-2201-digits": lambda: [[[0, 1], {"num": 1, "den": 10 ** 2200}],
                                    [[1, 2], {"num": 1,
                                              "den": 10 ** 2200 + 1}]],
    "30000-pairs": thirty_thousand_pairs,
}
UNDER_CAP_VALUES = {
    "value": [[[0, 1], {"num": 10 ** 300 - 1, "den": 1}]],
    "lcm": [[[0, 1], {"num": 1, "den": 10 ** 1999}],
            [[1, 2], {"num": 1, "den": 10 ** 2000 + 1}]],
}


def write_weights(path, entries, n=10_000, r=2):
    path.write_text(json.dumps({"kind": "weighted-hypergraph", "n": n,
                                "r": r, "weights": entries}))


def refuse_to_hold_weights(monkeypatch):
    import keisler_lab.coloring as coloring

    def refuse(*args, **kwargs):
        raise AssertionError("weights past the cap were held")
    monkeypatch.setattr(coloring, "WeightedHypergraph", refuse)


def named_the_cap(err: str) -> bool:
    return "weights[" in err and "4,000 digits" in err and len(err) < 300


@pytest.mark.parametrize("case", sorted(OVER_CAP_VALUES))
def test_over_cap_weight_values_fail_fast(case, tmp_path, monkeypatch,
                                          capsys):
    wfile = tmp_path / "weights.json"
    write_weights(wfile, OVER_CAP_VALUES[case]())
    refuse_to_hold_weights(monkeypatch)
    assert run(["color", "--input", str(wfile)]) == 1
    assert named_the_cap(capsys.readouterr().err)


@pytest.mark.parametrize("case", sorted(OVER_CAP_VALUES))
def test_verify_rejects_over_cap_weight_values(case, tmp_path, monkeypatch,
                                               capsys):
    wfile = write_weighted(tmp_path)
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(wfile), "--output", str(out)]) == 0
    write_weights(wfile, OVER_CAP_VALUES[case]())
    refuse_to_hold_weights(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert named_the_cap(capsys.readouterr().err)


@pytest.mark.parametrize("case", sorted(UNDER_CAP_VALUES))
def test_under_cap_weight_values_are_certified(case, tmp_path):
    wfile = tmp_path / "weights.json"
    write_weights(wfile, UNDER_CAP_VALUES[case], n=3)
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(wfile), "--brute",
                "--output", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def fam_at(epsilon: str) -> list[str]:
    # one token, so that argparse reads a leading "-" as the value's
    argv = [*HEADLINE_FAM]
    at = argv.index("--epsilon")
    argv[at:at + 2] = ["--epsilon=" + epsilon]
    return argv


# just over the cap on --epsilon, which fam writes with its reciprocal
# (the sample-size bound is 2*ell/epsilon)
@pytest.mark.parametrize("epsilon", ["1e300", "1e-300", "-1e300"])
def test_over_cap_epsilon_fails_fast(epsilon, monkeypatch, capsys):
    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("an epsilon past the cap reached fam")
    monkeypatch.setattr(witnesses, "fam_witness", refuse)
    assert run(fam_at(epsilon)) == 1
    assert "10^300" in capsys.readouterr().err


def test_verify_rejects_over_cap_epsilon(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert run(HEADLINE_FAM + ["--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["epsilon"] = "1e300"
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "10^300" in capsys.readouterr().err


def test_long_rational_is_named_by_its_length(capsys):
    # a 4,401-digit denominator: CPython reads no int that long
    assert run(fam_at("1/" + "1" * 4401)) == 1
    err = capsys.readouterr().err
    assert "length 4403" in err and len(err) < 200


# weights files whose one entry holds a value too long to echo: a key of
# 50,000 zeros and a string, a num of 50,000 characters, and an entry of
# three items whose third is 50,000 characters
LONG_WEIGHT_VALUES = {
    "key": [[[0] * 50_000 + ["x"], {"num": 1, "den": 1}]],
    "num": [[[0, 1], {"num": "7" * 50_000, "den": 1}]],
    "entry": [[[0, 1], {"num": 1, "den": 1}, "x" * 50_000]],
}


@pytest.mark.parametrize("case", sorted(LONG_WEIGHT_VALUES))
def test_long_weight_values_are_named_by_their_length(case, tmp_path,
                                                      capsys):
    good = write_weighted(tmp_path)
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(good), "--output", str(out)]) == 0
    bad = tmp_path / "long.json"
    write_weights(bad, LONG_WEIGHT_VALUES[case], n=3)
    capsys.readouterr()
    assert run(["color", "--input", str(bad)]) == 1
    assert run(["verify", str(out), "--input", f"weighted={bad}"]) == 1
    err = capsys.readouterr().err
    assert err.count("of length") == 2 and len(err.encode()) < 1_000


def test_long_structure_values_are_named_by_their_length(tmp_path, capsys):
    sfile = tmp_path / "structure.json"
    for payload in [{"kind": "hypergraph", "r": 2, "n": "9" * 50_000},
                    {"kind": "hypergraph", "r": 2, "n": 3,
                     "edges": [[2, 1] + list(range(50_000))]}]:
        sfile.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["gen", f"file:{sfile}"]) == 1
        err = capsys.readouterr().err
        assert "of length" in err and len(err.encode()) < 1_000


def test_a_long_structure_kind_is_named_by_its_length(tmp_path, capsys):
    sfile = tmp_path / "structure.json"
    sfile.write_text(json.dumps({"kind": "k" * 50_000, "r": 2, "n": 3,
                                 "edges": []}))
    capsys.readouterr()
    assert run(["gen", f"file:{sfile}"]) == 1
    err = capsys.readouterr().err
    assert "unknown structure kind (a str of length 50000)" in err
    assert len(err.encode()) < 200


# values too long to echo, in the files each can reach: a 3,000-entry
# edge, a 3,000-entry weights key (refused by its key rule, or first by
# WRITABLE) and a 50,000-character kind
LONG_STRUCTURES = {
    "edge": {"kind": "hypergraph", "r": 3, "n": 4, "edges": [[0] * 3000]},
    "kind": {"kind": "k" * 50_000, "r": 3, "n": 4, "edges": []},
}
LONG_WEIGHTS = {
    "key": {"kind": "weighted-hypergraph", "n": 3, "r": 2,
            "weights": [[[0] * 3000, {"num": 1, "den": 1}]]},
    "unwritable-key": {"kind": "weighted-hypergraph", "n": 3, "r": 2,
                       "weights": [[[0] * 3000,
                                    {"num": 10 ** 301, "den": 1}]]},
    "kind": {"kind": "k" * 50_000, "n": 3, "r": 2, "weights": []},
}


def assert_brief_refusals(argvs, capsys, code=1):
    # a usage error in under 200 bytes of stderr, a certification that
    # does not reproduce in under 1,000
    for argv in argvs:
        capsys.readouterr()
        assert run(argv) == code, argv
        err = capsys.readouterr().err
        assert len(err.encode()) < (200 if code == 1 else 1_000), argv


@pytest.mark.parametrize("case", sorted(LONG_STRUCTURES))
def test_long_structure_values_exit_briefly(case, tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(canonical_dumps(structure_to_json(build_tp2_grid(2))))
    bad.write_text(json.dumps(LONG_STRUCTURES[case]))
    gen_out, tp2_out = tmp_path / "gen.json", tmp_path / "tp2.json"
    assert run(["gen", f"file:{good}", "--output", str(gen_out)]) == 0
    assert run(["tp2", "--k", "2", "--input", str(good),
                "--output", str(tp2_out)]) == 0
    assert_brief_refusals([
        ["gen", f"file:{bad}"], ["tp2", "--k", "2", "--input", str(bad)],
        ["verify", str(tp2_out), "--input", f"structure={bad}"]], capsys)
    good.write_text(bad.read_text())  # the file the gen report names
    assert_brief_refusals([["verify", str(gen_out)]], capsys)


@pytest.mark.parametrize("case", sorted(LONG_WEIGHTS))
def test_long_weights_values_exit_briefly(case, tmp_path, capsys):
    good, bad = write_weighted(tmp_path), tmp_path / "bad.json"
    bad.write_text(json.dumps(LONG_WEIGHTS[case]))
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(good), "--output", str(out)]) == 0
    assert_brief_refusals([
        ["color", "--input", str(bad)],
        ["verify", str(out), "--input", f"weighted={bad}"]], capsys)


# 50,000-character edits of a report that verify reads, each with the
# exit it has: a value that verify reads as the request or its tag is a
# usage error, and one that the rebuild differs from fails to reproduce
LONG = "z" * 50_000
GEN20 = ["gen", "gen:20:2:3:seed=1"]
LONG_REPORT_EDITS = {
    "theorem": (GEN20, ("theorem",), LONG, 1),
    "config.subcommand": (GEN20, ("config", "subcommand"), LONG, 1),
    "config.spec": (GEN20, ("config", "spec"),
                    "gen:20:2:3:seed=" + "9" * 50_000, 1),
    "certified[0].name": (GEN20, ("certified", 0, "name"), LONG, 2),
    "witness.spec": (GEN20, ("witness", "spec"), LONG, 2),
    "log[0]": (GEN20, ("log", 0), LONG, 2),
    "witness key": (GEN20, ("witness", LONG), 1, 2),
    "report key": (GEN20, (LONG,), 1, 2),
    "inputs.ambient.source": (["order", "--ambient", "gen:20:2:3:seed=1",
                               "--q", "2"], ("inputs", "ambient", "source"),
                              "file:" + LONG, 2),
}


@pytest.mark.parametrize("case", sorted(LONG_REPORT_EDITS))
def test_long_report_values_exit_briefly(case, tmp_path, capsys):
    argv, path, value, code = LONG_REPORT_EDITS[case]
    out = tmp_path / "report.json"
    assert run(argv + ["--output", str(out)]) == 0
    data = read_report(out)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    out.write_text(json.dumps(data))
    assert_brief_refusals([["verify", str(out)]], capsys, code)


def fam_with_phi(phi: str) -> list[str]:
    argv = [*HEADLINE_FAM]
    argv[argv.index("--phi") + 1] = phi
    return argv


def test_long_argv_values_exit_briefly(capsys):
    assert_brief_refusals([
        ["gen", "gen:20:2:3:seed=" + "x" * 50_000],
        ["gen", "circulant:13:" + "1," * 20_000 + "x"],
        fam_with_phi("E(x1,y1) y" + "1" * 50_000)], capsys)


def test_an_index_too_long_to_read_is_a_parse_error(capsys):
    # int() reads no index of more than 4,300 digits, and its refusal
    # names an interpreter setting
    assert run(fam_with_phi("E(x1,y" + "1" * 5_000 + ")")) == 1
    err = capsys.readouterr().err
    assert err == ("error: --phi: column 6: found (a str of length 5001), "
                   "expected an index of fewer digits\n")


def test_stdout_is_written_in_bounded_pieces(tmp_path, monkeypatch):
    # one write of the whole report encodes a copy of it (1.0 times the
    # text), as atomic_write_text once did
    out = tmp_path / "gen.json"
    assert run(["gen", "gen:60:3:4:seed=1", "--output", str(out)]) == 0
    text = out.read_text()

    class Discard(io.RawIOBase):
        def writable(self):
            return True

        def write(self, data):
            return len(data)
    monkeypatch.setattr(sys, "stdout",
                        io.TextIOWrapper(Discard(), encoding="utf-8"))
    _, peak = traced_peak(cli._emit, text, None)
    assert peak < 0.25 * len(text)


# rational tokens past float range, undefined, or too long to read, as
# --epsilon and as the one weight of a weights file
HOSTILE_RATIONALS = [
    ("1e400", "1" + "0" * 400, "1"),
    ("-1e400", "-1" + "0" * 400, "1"),
    ("1/0", "1", "0"),
    ("nan", "NaN", "1"),
    ("inf", "Infinity", "1"),
    ("1e-400", "1", "1" + "0" * 400),
    ("1/" + "1" * 4401, "1", "1" * 4401),
]


@pytest.mark.parametrize("token, num, den", HOSTILE_RATIONALS,
                         ids=[t[:8] for t, _, _ in HOSTILE_RATIONALS])
def test_hostile_rationals_exit_cleanly(token, num, den, tmp_path):
    wfile = tmp_path / "weights.json"
    wfile.write_text('{"kind": "weighted-hypergraph", "n": 2, "r": 2, '
                     f'"weights": [[[0, 1], {{"num": {num}, "den": {den}}}]]}}')
    for argv in (fam_at(token), ["color", "--input", str(wfile)]):
        proc = cli_process(argv, tmp_path)
        assert proc.returncode in (0, 1, 2), (argv[0], token[:8])
        assert "Traceback" not in proc.stderr, (argv[0], token[:8])


# just over the brute-force cap of 2^12 colourings, and the 8^12 of a
# 12-vertex 8-graph, which the weights-file caps admit
OVER_CAP_BRUTE = [(13, 2), (8, 3), (12, 8)]


def refuse_to_enumerate(monkeypatch):
    import keisler_lab.coloring as coloring

    def refuse(*args, **kwargs):
        raise AssertionError("a capped brute force reached its loop")
    monkeypatch.setattr(coloring.itertools, "product", refuse)


def write_unweighted(path, n, r):
    payload = weighted_to_json(weighted_hypergraph(n, r, []))
    path.write_text(canonical_dumps(payload))
    return digest(payload)


@pytest.mark.parametrize("n, r", OVER_CAP_BRUTE)
def test_over_cap_brute_fails_fast(n, r, tmp_path, monkeypatch, capsys):
    wfile = tmp_path / "weights.json"
    write_unweighted(wfile, n, r)
    refuse_to_enumerate(monkeypatch)
    assert run(["color", "--input", str(wfile), "--brute"]) == 1
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("n, r", OVER_CAP_BRUTE)
def test_verify_rejects_over_cap_brute(n, r, tmp_path, monkeypatch, capsys):
    wfile = write_weighted(tmp_path)
    out = tmp_path / "color.json"
    assert run(["color", "--input", str(wfile), "--brute",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["inputs"]["weighted"]["digest"] = write_unweighted(wfile, n, r)
    data["witness"]["coloring"] = [1] * n
    out.write_text(canonical_dumps(data))
    refuse_to_enumerate(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "exceed" in capsys.readouterr().err


# just over the caps order --q <= 1,000 and check-measures --cases <= 10,000
def refuse_to_extend(monkeypatch):
    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("a capped order report reached its extensions")
    monkeypatch.setattr(witnesses, "add_vertex_with_links", refuse)


def refuse_to_selftest(monkeypatch):
    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("a capped case count reached the self-test")
    monkeypatch.setattr(witnesses, "measure_algebra_selftest", refuse)


def test_over_cap_order_q_fails_fast(monkeypatch, capsys):
    refuse_to_extend(monkeypatch)
    assert run(["order", "--ambient", "gen:20:2:3:seed=1",
                "--q", "1001"]) == 1
    assert "exceed" in capsys.readouterr().err


def test_verify_rejects_over_cap_order_q(tmp_path, monkeypatch, capsys):
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["q"] = 1001
    out.write_text(canonical_dumps(data))
    refuse_to_extend(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "exceed" in capsys.readouterr().err


def test_over_cap_cases_fails_fast(monkeypatch, capsys):
    refuse_to_selftest(monkeypatch)
    assert run(["check-measures", "--seed", "5", "--cases", "10001"]) == 1
    assert "exceed" in capsys.readouterr().err


def test_verify_rejects_over_cap_cases(tmp_path, monkeypatch, capsys):
    out = tmp_path / "m.json"
    assert run(["check-measures", "--seed", "5", "--cases", "10",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["cases"] = 10001
    out.write_text(canonical_dumps(data))
    refuse_to_selftest(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "exceed" in capsys.readouterr().err


# just over the structure-file caps: hypergraph n <= 10,000 and r <= 8,
# parameterized equivalence objects <= 10,000 and parameters <= 10^5
OVER_CAP_FILES = [
    {"kind": "hypergraph", "r": 2, "n": 10_001, "edges": []},
    {"kind": "hypergraph", "r": 9, "n": 9, "edges": []},
    {"kind": "hypergraph", "r": 2, "n": 10 ** 12, "edges": []},
    {"kind": "feq2", "objects": 10_001, "parameters": 1, "classes": [[]]},
    {"kind": "feq2", "objects": 2, "parameters": 100_001, "classes": []},
]


def refuse_to_build_structures(monkeypatch):
    import keisler_lab.serialize as serialize

    def refuse(*args, **kwargs):
        raise AssertionError("a capped structure file reached its builder")
    monkeypatch.setattr(serialize, "Hypergraph", refuse)
    monkeypatch.setattr(serialize, "Feq2Structure", refuse)


@pytest.mark.parametrize("payload", OVER_CAP_FILES)
def test_over_cap_structure_file_fails_fast(payload, tmp_path, monkeypatch,
                                            capsys):
    sfile = tmp_path / "structure.json"
    sfile.write_text(json.dumps(payload))
    refuse_to_build_structures(monkeypatch)
    assert run(["gen", f"file:{sfile}"]) == 1
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("payload", OVER_CAP_FILES)
def test_verify_rejects_over_cap_structure_file(payload, tmp_path,
                                                monkeypatch, capsys):
    # a report naming the file as an input source, and a gen report of it
    sfile = tmp_path / "structure.json"
    out = tmp_path / "report.json"
    if payload["kind"] == "hypergraph":
        sfile.write_text(canonical_dumps(structure_to_json(
            cyclic_graph(13, [1, 5]))))
        argv = ["order", "--ambient", f"file:{sfile}", "--q", "2"]
    else:
        sfile.write_text(canonical_dumps(structure_to_json(
            build_tp2_grid(2))))
        argv = ["tp2", "--k", "2", "--input", str(sfile)]
    assert run(argv + ["--output", str(out)]) == 0
    gen_out = tmp_path / "gen.json"
    assert run(["gen", f"file:{sfile}", "--output", str(gen_out)]) == 0
    sfile.write_text(json.dumps(payload))
    refuse_to_build_structures(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert run(["verify", str(gen_out)]) == 1
    assert capsys.readouterr().err.count("exceed") == 2


# JSON's true and false load as bools, which equal 1 and 0: read as
# integers, [true, 2] would be the edge [1, 2] under another digest
BOOLEAN_INTEGERS = {
    "edge": (["gen", "file:FILE"],
             {"kind": "hypergraph", "r": 2, "n": 3,
              "edges": [[0, 2], [True, 2]]}),
    "weight-key": (["color", "--input", "FILE"],
                   {"kind": "weighted-hypergraph", "n": 3, "r": 2,
                    "weights": [[[0, 2], {"num": 1, "den": 1}],
                                [[True, 2], {"num": 1, "den": 1}]]}),
    "weight-value": (["color", "--input", "FILE"],
                     {"kind": "weighted-hypergraph", "n": 3, "r": 2,
                      "weights": [[[0, 2], {"num": True, "den": 2}]]}),
    "feq2-block": (["tp2", "--k", "1", "--input", "FILE"],
                   {"kind": "feq2", "objects": 2, "parameters": 1,
                    "classes": [[[False, True]]]}),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_INTEGERS))
def test_files_refuse_booleans_as_integers(name, tmp_path, capsys):
    argv, payload = BOOLEAN_INTEGERS[name]
    sfile = tmp_path / "input.json"
    sfile.write_text(json.dumps(payload))
    assert run([a.replace("FILE", str(sfile)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "integer" in err or "not a rational" in err
    assert "Traceback" not in err


# a 5,000-digit integer, over the 4,300 digits int() reads by default, in
# each kind of file a command reads
HUGE = "1" * 5_000
HUGE_INTEGERS = {
    "gen": (["gen", "file:FILE"],
            {"kind": "hypergraph", "r": 2, "n": "HUGE", "edges": []}),
    "tp2": (["tp2", "--k", "1", "--input", "FILE"],
            {"kind": "feq2", "objects": 2, "parameters": "HUGE",
             "classes": []}),
    "color": (["color", "--input", "FILE"],
              {"kind": "weighted-hypergraph", "n": 3, "r": 2,
               "weights": [[[0, 2], {"num": "HUGE", "den": 1}]]}),
    "verify": (["verify", "FILE"], None),
}


@pytest.mark.parametrize("name", sorted(HUGE_INTEGERS))
def test_files_with_a_huge_integer_are_named(name, tmp_path, capsys):
    argv, payload = HUGE_INTEGERS[name]
    sfile = tmp_path / "input.json"
    if payload is None:
        assert run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2",
                    "--output", str(sfile)]) == 0
        payload = read_report(sfile)
        payload["config"]["q"] = "HUGE"
    sfile.write_text(json.dumps(payload).replace('"HUGE"', HUGE))
    capsys.readouterr()
    assert run([a.replace("FILE", str(sfile)) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{sfile}: invalid JSON (an integer too long to read)" in err
    assert "set_int_max_str_digits" not in err


def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys):
    # a decoding error is a ValueError too, and keeps its own message
    sfile = tmp_path / "input.json"
    sfile.write_bytes(b'{"kind": "\xff"}')
    assert run(["gen", f"file:{sfile}"]) == 1
    assert f"{sfile}: invalid JSON ('utf-8' codec" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gen", "file:FILE"],
                                  ["tp2", "--k", "1", "--input", "FILE"]],
                         ids=["gen", "tp2"])
def test_feq2_file_refuses_a_negative_object_count(argv, tmp_path, capsys):
    sfile = tmp_path / "input.json"
    sfile.write_text(json.dumps({"kind": "feq2", "objects": -2,
                                 "parameters": 0, "classes": []}))
    out = tmp_path / "r.json"
    assert run([a.replace("FILE", str(sfile)) for a in argv]
               + ["--output", str(out)]) == 1
    assert "object count must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


# just over the caps adversary --n <= 1,000, satprobe --trials <= 1,000 and
# --n-params <= 100
def refuse_to_draw_tuples(monkeypatch):
    import types

    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("a capped tuple count reached the draw")
    monkeypatch.setattr(witnesses, "random",
                        types.SimpleNamespace(Random=refuse))


def refuse_to_colour(monkeypatch):
    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("a capped tuple count reached the colouring")
    monkeypatch.setattr(witnesses, "is_free", refuse)
    monkeypatch.setattr(witnesses, "WeightedHypergraph", refuse)


def refuse_to_probe(monkeypatch):
    # the draw loop probes, and each probe looks up edges
    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("a capped probe reached its loop")
    monkeypatch.setattr(witnesses, "_probe_once", refuse)
    monkeypatch.setattr(Hypergraph, "has_edge", refuse)


ADVERSARY = ["adversary", "--ambient", "gen:12:3:4:seed=5", "--seed", "11",
             "--s", "4"]
SATPROBE = ["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size", "12",
            "--seed", "9"]


def test_over_cap_adversary_n_fails_fast(monkeypatch, capsys):
    refuse_to_draw_tuples(monkeypatch)
    refuse_to_colour(monkeypatch)
    assert run(ADVERSARY + ["--n", "1001"]) == 1
    assert "exceed" in capsys.readouterr().err


def test_verify_rejects_over_cap_adversary_tuples(tmp_path, monkeypatch,
                                                  capsys):
    out = tmp_path / "adv.json"
    assert run(ADVERSARY + ["--n", "10", "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["n"] = 1001
    out.write_text(canonical_dumps(data))
    refuse_to_draw_tuples(monkeypatch)
    refuse_to_colour(monkeypatch)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("trials, n_params", [(1001, 2), (5, 101)])
def test_over_cap_satprobe_fails_fast(trials, n_params, monkeypatch, capsys):
    refuse_to_probe(monkeypatch)
    assert run(SATPROBE + ["--trials", str(trials),
                           "--n-params", str(n_params)]) == 1
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("trials, n_params", [(1001, 2), (5, 101)])
def test_verify_rejects_over_cap_satprobe(trials, n_params, tmp_path,
                                          monkeypatch, capsys):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--trials", "5", "--n-params", "2",
                           "--output", str(out)]) == 0
    data = read_report(out)
    entry = {"params": [0] * n_params, "found": False, "witness": None}
    data["witness"]["results"] = [entry] * trials
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    # the rebuild probes the config's 5 trials of 2 parameters, within the
    # caps, and names the oversized results
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "witness field 'results" in err
    assert "exceed" not in err


# just over the cap on a probe's scan, trials x C(m, r - 1) x n-params <= 10^7:
# 731 x C(20, 2) x 72 = 10,000,080
def test_over_cap_satprobe_scan_fails_fast(monkeypatch, capsys):
    refuse_to_probe(monkeypatch)
    assert run(["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size",
                "20", "--seed", "9", "--trials", "731",
                "--n-params", "72"]) == 1
    assert "exceed" in capsys.readouterr().err


# just over the cap on the adversary's split sets, C(V, r - 1) <= 2 * 10^6:
# 1,000 triples drawn from an edgeless 4-graph on 230 vertices cover all of
# them, and C(230, 3) = 2,001,460
def test_over_cap_adversary_split_sets_fails_fast(tmp_path, monkeypatch,
                                                  capsys):
    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("a capped split-set choice reached the colouring")
    monkeypatch.setattr(witnesses, "greedy_coloring", refuse)
    afile = tmp_path / "edgeless.json"
    afile.write_text(canonical_dumps(structure_to_json(
        Hypergraph(4, 230, frozenset()))))
    assert run(["adversary", "--ambient", f"file:{afile}", "--n", "1000",
                "--seed", "1", "--s", "5"]) == 1
    assert "C(230, 3) = 2001460 split sets may not exceed" \
        in capsys.readouterr().err


# just over the tp2 caps: k <= 6, the constructor's own, and a scan of
# (row pairs + paths) x parameters <= 10^7
def write_pairings(path, objects, parameters):
    """Every parameter pairs object 2i with 2i + 1."""
    blocks = [[2 * i, 2 * i + 1] for i in range(objects // 2)]
    path.write_text(json.dumps({"kind": "feq2", "objects": objects,
                                "parameters": parameters,
                                "classes": [blocks] * parameters}))


def refuse_to_scan_grid(monkeypatch):
    """Make listing the paths, all or sampled, and building the cell
    bitsets fail loudly: both go through range (a module global shadows
    the builtin), sampling through random.Random and the cell build
    through grid_object and grid_target."""
    import keisler_lab.witnesses as witnesses

    def refuse(*args, **kwargs):
        raise AssertionError("a capped grid reached its paths or its scan")
    monkeypatch.setattr(witnesses.random, "Random", refuse)
    monkeypatch.setattr(witnesses, "range", refuse, raising=False)
    monkeypatch.setattr(witnesses, "grid_object", refuse)
    monkeypatch.setattr(witnesses, "grid_target", refuse)


@pytest.mark.parametrize("k, objects, parameters", [
    (7, 56, 1),      # k over the cap on a structure large enough for it
    (6, 42, 214),    # (90 + 6^6) x 214 = 10,003,644 checks
])
def test_over_cap_tp2_fails_fast(k, objects, parameters, tmp_path,
                                 monkeypatch, capsys):
    sfile = tmp_path / "pairings.json"
    write_pairings(sfile, objects, parameters)
    refuse_to_scan_grid(monkeypatch)
    assert run(["tp2", "--k", str(k), "--input", str(sfile)]) == 1
    assert "exceed" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"config": {"k": 7}},
    {"witness": {"checked_paths": [[0, 0]] * 9_999}},  # (2 + 9,999) x 1,000
])
def test_verify_rejects_over_cap_tp2(edit, tmp_path, monkeypatch, capsys):
    # over the cap in the config, verify refuses before the scan; over it
    # only in the recorded paths, it scans the config's 2 row pairs and 4
    # paths and names the paths
    sfile = tmp_path / "pairings.json"
    write_pairings(sfile, 6, 1_000)
    out = tmp_path / "tp2.json"
    # no parameter pairs a cell with its row target: paths-consistent fails
    assert run(["tp2", "--k", "2", "--input", str(sfile),
                "--output", str(out)]) == 2
    data = read_report(out)
    for part, fields in edit.items():
        data[part].update(fields)
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    if "config" in edit:
        refuse_to_scan_grid(monkeypatch)
        assert run(["verify", str(out)]) == 1
        assert "exceed" in capsys.readouterr().err
        return
    # every row pair and every listed path reads one lowest bit
    import keisler_lab.witnesses as witnesses
    checks = []
    lowest_bit = witnesses._lowest_bit
    monkeypatch.setattr(witnesses, "_lowest_bit",
                        lambda bits: checks.append(1) or lowest_bit(bits))
    assert run(["verify", str(out)]) == 2
    assert len(checks) == 2 + 4
    err = capsys.readouterr().err
    assert "witness field 'checked_paths'" in err
    assert "exceed" not in err


def refuse_to_build_grid(monkeypatch):
    import keisler_lab.serialize as serialize

    def refuse(k):
        raise AssertionError(f"the capped tp2grid:{k} was built")
    monkeypatch.setattr(serialize, "build_tp2_grid", refuse)


# the default grid has k^k parameters: at k = 6, (90 + 125) x 46,656 =
# 10,031,040 checks, just over; 124 sampled paths would be just under
@pytest.mark.parametrize("argv, message", [
    (["--k", "6", "--sample", "125", "--seed", "1"],
     "90 row pairs and 125 paths over 46656 parameters may not exceed"),
    (["--k", "6"], "46656 paths over 46656 parameters may not exceed"),
    (["--k", "0"], "k must be at least 1"),
    (["--k", "-1000000000"], "k must be at least 1"),
], ids=["sampled", "all-paths", "zero", "negative"])
def test_over_cap_default_grid_is_refused_before_it_is_built(
        argv, message, monkeypatch, capsys):
    refuse_to_build_grid(monkeypatch)
    assert run(["tp2", *argv]) == 1
    assert message in capsys.readouterr().err


def test_verify_refuses_an_over_cap_default_grid_before_it_is_built(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "tp2.json"
    assert run(["tp2", "--k", "2", "--sample", "3", "--seed", "1",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"].update(k=6, sample=200, seed=1)
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    refuse_to_build_grid(monkeypatch)
    assert run(["verify", str(out)]) == 1
    assert ("90 row pairs and 200 paths over 46656 parameters may not "
            "exceed" in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# adversary / satprobe
# ---------------------------------------------------------------------------

def test_adversary_byte_identity(tmp_path):
    out = tmp_path / "adv.json"
    argv = ["adversary", "--ambient", "gen:25:3:4:seed=2", "--n", "10",
            "--seed", "7", "--s", "4", "--output", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_verify_names_extended_free_on_tampered_links(tmp_path, capsys):
    out = tmp_path / "adv.json"
    assert run(["adversary", "--ambient", "gen:12:3:4:seed=5", "--n", "10",
                "--seed", "11", "--s", "4", "--output", str(out)]) == 0
    data = read_report(out)
    # every pair linked: the fresh vertex would complete a K^3_4 with any
    # triple, but the rebuild links its own split sets and names the field
    data["witness"]["links"] = [list(p)
                                for p in itertools.combinations(range(12), 2)]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "witness field 'links' does not reproduce" in err
    assert "certification" not in err and "internal error" not in err


def test_adversary_arity_mismatch(capsys):
    assert run(["adversary", "--ambient", "circulant:13:1,5", "--n", "5",
                "--seed", "1", "--s", "4"]) == 1
    err = capsys.readouterr().err
    assert "arity" in err


# both modes write the one certification, witnesses-valid
@pytest.mark.parametrize("mode, name", [
    (["--params", "3,5"], "witnesses-valid"),
    (["--trials", "5", "--n-params", "2"], "witnesses-valid"),
])
@pytest.mark.parametrize("edit", ["closes-an-edge", "outside-the-subset"])
def test_verify_names_the_probe_cert_on_an_edited_hit(mode, name, edit,
                                                      tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + mode + ["--output", str(out)]) == 0
    data = read_report(out)
    witness = data["witness"]
    entry = witness["results"][0]
    assert entry["found"]
    if edit == "closes-an-edge":
        # a pair that closes an edge with the first parameter of the draw
        b = entry["params"][0]
        ambient = parse_structure_spec("gen:20:3:4:seed=3")
        edge = min(e for e in ambient.edges if b in e)
        entry["witness"] = [v for v in edge if v != b]
    else:
        # one vertex, not in the designated subset: no edge runs through it
        entry["witness"] = [max(set(range(20)) - set(witness["m_subset"]))]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    # the rebuild probes the draw again and finds its own, valid hit: the
    # edited hit is a witness field that does not reproduce
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "witness field 'results[0].witness" in err
    assert f"'{name}'" not in err


def test_verify_redraws_satprobe_params(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--trials", "5", "--n-params", "2",
                           "--output", str(out)]) == 0
    data = read_report(out)
    i, entry = next((i, e) for i, e in enumerate(data["witness"]["results"])
                    if e["found"])
    # parameters inside the hit: no edge runs through a repeated vertex,
    # so the hit stays valid and only the draw is wrong
    edited = [entry["witness"][0]] * 2
    assert edited != entry["params"]
    entry["params"] = edited
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"witness field 'results[{i}].params" in err
    assert "certification" not in err


def test_verify_refuses_truncated_satprobe_results(tmp_path, capsys):
    # every draw of the request has a result: a report that keeps only the
    # first, its rate and certification edited to match, does not verify,
    # and the lengths, not the lists, are named
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--trials", "5", "--n-params", "2",
                           "--output", str(out)]) == 0
    data = read_report(out)
    witness = data["witness"]
    del witness["results"][1:]
    found = int(witness["results"][0]["found"])
    witness["success_rate"] = rational_to_json(Fraction(found, 5))
    data["certified"][0].update(lhs=rational_to_json(Fraction(found)),
                                rhs=rational_to_json(Fraction(found)))
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "certification 'witnesses-valid' does not reproduce" in err
    assert ("witness field 'results' does not reproduce:\n"
            "  recorded   a list of length 1\n"
            "  recomputed a list of length 5; they first differ at [1]"
            in err)


def test_verify_names_a_longer_list_briefly(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--trials", "5", "--n-params", "2",
                           "--output", str(out)]) == 0
    data = read_report(out)
    data["witness"]["results"] = (data["witness"]["results"] * 200)[:1000]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "witness field 'results' does not reproduce" in err
    assert "length 1000" in err and "first differ at [5]" in err
    assert len(err.encode()) < 2_000


def test_verify_names_a_change_of_type_briefly(tmp_path, capsys):
    # a list replaced by a dict of its entries is named by both types and
    # sizes, not printed
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--trials", "5", "--n-params", "2",
                           "--output", str(out)]) == 0
    data = read_report(out)
    results = (data["witness"]["results"] * 200)[:1000]
    data["witness"]["results"] = {str(i): r for i, r in enumerate(results)}
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("witness field 'results' does not reproduce:\n"
            "  recorded   (a dict of length 1000)\n"
            "  recomputed (a list of length 5)" in err)
    assert len(err.encode()) < 2_000


@pytest.mark.parametrize("mode", [["--params", "0"],
                                  ["--trials", "2", "--n-params", "1"]])
def test_verify_redraws_the_satprobe_subset(mode, tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size",
                "3", "--seed", "9", *mode, "--output", str(out)]) == 0
    data = read_report(out)
    witness = data["witness"]
    entry = next(e for e in witness["results"] if e["found"])
    # a pair outside the subset with no edge through it and the parameters,
    # made the hit and added to m_subset: every certification still holds
    ambient = parse_structure_spec("gen:20:3:4:seed=3")
    pair = next(p for p in itertools.combinations(range(20), 2)
                if not set(p) & set(witness["m_subset"] + entry["params"])
                and not any(ambient.has_edge(p + (b,))
                            for b in entry["params"]))
    entry["witness"] = list(pair)
    witness["m_subset"] = sorted(witness["m_subset"] + list(pair))
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert "'m_subset'" in capsys.readouterr().err


def forge(data, report):
    """Replace a report's witness, certifications and log with another's."""
    fresh = report.to_json_dict()
    data.update({key: fresh[key] for key in ("witness", "certified", "log")})


def test_verify_redraws_the_satprobe_seed(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--trials", "5", "--n-params", "2",
                           "--output", str(out)]) == 0
    data = read_report(out)
    # the probe seed is the config's next draw after the subset
    data["witness"]["seed"] = 12345
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert "witness field 'seed'" in capsys.readouterr().err
    # a consistent probe of the same subset from a seed of one's choosing:
    # the rebuild makes the config's draws, not the recorded ones
    forge(data, sat_probe(parse_structure_spec("gen:20:3:4:seed=3"),
                          data["witness"]["m_subset"], trials=5, n_params=2,
                          seed=12345))
    out.write_text(canonical_dumps(data))
    assert run(["verify", str(out)]) == 2
    assert "witness field 'results[0].params" in capsys.readouterr().err


def test_verify_redraws_the_adversary_tuples(tmp_path, capsys):
    out = tmp_path / "adv.json"
    ambient_spec = "gen:60:3:4:seed=5"
    assert run(["adversary", "--ambient", ambient_spec, "--n", "30",
                "--seed", "11", "--s", "4", "--output", str(out)]) == 0
    data = read_report(out)
    # the tuples are drawn from the config's seed, n and r
    data["witness"]["tuples"][0] = [1, 2]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert "witness field 'tuples[0]" in capsys.readouterr().err
    # thirty copies of one pair: every certification holds, and the
    # rebuild colours the tuples the config draws instead
    forged = adversary_witness([(1, 2)] * 30,
                               parse_structure_spec(ambient_spec), 4)
    assert forged.all_hold
    forge(data, forged)
    out.write_text(canonical_dumps(data))
    assert run(["verify", str(out)]) == 2
    assert "witness field 'coloring'" in capsys.readouterr().err


def test_verify_holds_single_satprobe_params_to_the_config(tmp_path,
                                                          capsys):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--params", "3,5", "--output", str(out)]) == 0
    data = read_report(out)
    # a consistent probe of the same subset over as many parameters of
    # one's choosing
    forge(data, sat_probe(parse_structure_spec("gen:20:3:4:seed=3"),
                          data["witness"]["m_subset"], [0, 1]))
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert "witness field 'results[0].params" in capsys.readouterr().err


@pytest.mark.parametrize("key, trials, n_params", [("trials", 1, 2),
                                                    ("n_params", 6, 1)])
def test_verify_holds_the_satprobe_request_to_the_config(key, trials,
                                                         n_params, tmp_path,
                                                         capsys):
    out = tmp_path / "probe.json"
    assert run(["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size",
                "4", "--seed", "9", "--trials", "6", "--n-params", "2",
                "--output", str(out)]) == 0
    data = read_report(out)
    witness = data["witness"]
    witness[key] = {"trials": trials, "n_params": n_params}[key]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    assert f"witness field {key!r}" in capsys.readouterr().err
    # a consistent probe of the same subset and seed, asked for other
    # sizes (at trials=1 it keeps only the first draws), makes other draws
    # than the config asks for
    forge(data, sat_probe(parse_structure_spec("gen:20:3:4:seed=3"),
                          witness["m_subset"], trials=trials,
                          n_params=n_params, seed=witness["seed"]))
    out.write_text(canonical_dumps(data))
    assert run(["verify", str(out)]) == 2
    named = {"trials": "results", "n_params": "n_params"}[key]
    assert f"witness field {named!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seed", "n"])
def test_verify_adversary_needs_the_tuple_config(key, tmp_path, capsys):
    out = tmp_path / "adv.json"
    assert run(ADVERSARY + ["--n", "10", "--output", str(out)]) == 0
    data = read_report(out)
    del data["config"][key]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("report config is not a valid 'dfsnotfim-adversary' request "
            f"(the following arguments are required: --{key})" in err)
    assert "Traceback" not in err


def test_verify_accepts_an_adversary_report_that_records_r(tmp_path, capsys):
    # reports once recorded the ambient's arity as config.r; the rebuild
    # takes r from the ambient and reads no such field, so they verify
    out = tmp_path / "adv.json"
    assert run(ADVERSARY + ["--n", "10", "--output", str(out)]) == 0
    data = read_report(out)
    assert "r" not in data["config"] and data["witness"]["r"] == 3
    data["config"]["r"] = 3
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    assert "4 certifications reproduced" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, named", [
    ("colour", "blue", "unrecognized arguments: --colour=blue"),
    ("r", 7, "unrecognized arguments: --r=7"),
    ("amb", "circulant:13:1,5", "unrecognized arguments: --amb=circulant"),
    ("subcommand", "order", "subcommand 'order'"),
    ("subcommand", "verify", "subcommand 'verify'"),
    ("subcommand", ["adversary"], "subcommand ['adversary']"),
], ids=["colour", "other-r", "abbreviated", "other-tag", "verify", "list"])
def test_verify_refuses_a_config_key_no_run_writes(key, value, named,
                                                   tmp_path, capsys):
    # the config parses as the argv of a subcommand that writes the
    # report's theorem; r only as the witness records it
    out = tmp_path / "adv.json"
    assert run(ADVERSARY + ["--n", "10", "--output", str(out)]) == 0
    data = read_report(out)
    data["config"][key] = value
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("report config is not a valid 'dfsnotfim-adversary' request"
            in err)
    assert named in err and "Traceback" not in err


# strings an argv can carry that a hand-written one rarely does: "=", a
# leading "-", spaces and characters outside ASCII.  A bare "--" is left
# out: the runner refuses it as an option's value (DASHES_VALUE above)
ARGV_TEXT = st.tuples(st.sampled_from(["", "-", "--", "-x=", " "]),
                      st.text(max_size=8),
                      st.sampled_from(["", "=", " ", " é", "字"])
                      ).map("".join).filter(lambda text: text != "--")


class Recorded(Exception):
    """Raised in place of the build, carrying the config it was given."""


def record_config(theorem, config, overrides=None):
    raise Recorded(theorem, config)


@st.composite
def report_argv(draw, name):
    """A drawn argv of subcommand name: every required option, the others
    at will, each value of the option's type (ints negative too)."""
    parser = argparse.ArgumentParser()
    cli._SUBCOMMANDS[name][2](parser)
    argv, spec = [name], []
    for action in parser._actions[1:]:  # after --help
        if not (action.required or draw(st.booleans())):
            continue
        if action.const is True:  # a flag
            argv.append(action.option_strings[0])
            continue
        value = draw(st.sampled_from(action.choices) if action.choices
                     else st.integers(-10 ** 6, 10 ** 6).map(str)
                     if action.type is int else ARGV_TEXT)
        if action.option_strings:
            argv.append(f"{action.option_strings[0]}={value}")
        else:
            spec = ["--", value]
    return argv + spec


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from([name for name, (tag, _, _) in cli._SUBCOMMANDS.items()
                        if tag]).flatmap(report_argv))
def test_every_config_the_runner_writes_round_trips(argv):
    # the config a run records is one verify's own parser reads back, type
    # for type; no builder runs
    with mock.patch.object(cli, "build_report", record_config):
        with pytest.raises(Recorded) as recorded:
            run(argv)
    theorem, config = recorded.value.args
    cli._check_request(theorem, config, {})


@pytest.mark.parametrize("argv, named", [
    (["order", "--ambient", "tp2grid:2", "--q", "2"],
     "tp2grid:2 is a feq2 structure where a hypergraph is needed"),
    (["fam", "--phi", "!E(x1,y1) & x1 != y1", "--epsilon", "4/5",
      "--graph", "tp2grid:2", "--ambient", "gen:50:2:3:seed=1"],
     "tp2grid:2 is a feq2 structure where a hypergraph is needed"),
    (["tp2", "--k", "2", "--input", "GRAPH"],
     "is a hypergraph structure where a feq2 is needed"),
], ids=["order", "fam", "tp2"])
def test_an_input_of_the_wrong_kind_is_a_usage_error(argv, named, tmp_path,
                                                      capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(canonical_dumps(structure_to_json(
        cyclic_graph(13, [1, 5]))))
    out = tmp_path / "r.json"
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    assert run(argv + ["--output", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_an_edited_source_of_the_wrong_kind(tmp_path, capsys):
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2",
                "--output", str(out)]) == 0
    data = read_report(out)
    data["config"]["ambient"] = "tp2grid:2"
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert ("tp2grid:2 is a feq2 structure where a hypergraph is needed"
            in capsys.readouterr().err)


def test_verify_satprobe_needs_the_subset_config(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + ["--params", "3,5", "--output", str(out)]) == 0
    data = read_report(out)
    del data["config"]["m_size"]
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("report config is not a valid 'dfsnotfim-sat' request (the "
            "following arguments are required: --m-size)" in err)
    assert "Traceback" not in err


def test_order_serialises_its_ambient_once(monkeypatch, capsys):
    # one structure_to_json serves both the input's kind and its digest
    import keisler_lab.serialize as serialize
    import keisler_lab.witnesses as witnesses
    real = serialize.structure_to_json
    calls = []

    def counting(structure):
        calls.append(structure)
        return real(structure)
    for module in (serialize, witnesses):
        monkeypatch.setattr(module, "structure_to_json", counting)
    assert run(["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2"]) == 0
    assert len(calls) == 1


def test_satprobe_aggregate_csv(tmp_path):
    out = tmp_path / "probe.csv"
    assert run(["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size",
                "12", "--seed", "9", "--trials", "5", "--n-params", "2",
                "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,found,witness"
    assert len(lines) == 6
    assert [line.split(",")[0] for line in lines[1:]] == list("01234")


def test_satprobe_single_miss_exits_zero(tmp_path):
    k6 = Hypergraph(2, 6, frozenset((a, b) for a in range(6)
                                    for b in range(a + 1, 6)))
    afile = tmp_path / "k6.json"
    afile.write_text(canonical_dumps(structure_to_json(k6)))
    subset = sorted(random.Random(4).sample(range(6), 3))
    param = min(set(range(6)) - set(subset))
    out = tmp_path / "probe.json"
    assert run(["satprobe", "--ambient", str(afile), "--m-size", "3",
                "--seed", "4", "--params", str(param),
                "--output", str(out)]) == 0
    data = read_report(out)
    assert data["witness"]["results"][0]["found"] is False
    # the one certification holds by construction: no hit, none claimed
    (cert,) = data["certified"]
    assert cert["name"] == "witnesses-valid" and cert["holds"]
    assert cert["lhs"]["num"] == cert["rhs"]["num"] == 0


def test_satprobe_flag_conflicts(capsys):
    base = ["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size", "5",
            "--seed", "1"]
    assert run(base + ["--params", "1", "--trials", "3"]) == 1
    assert run(base) == 1  # neither explicit params nor aggregate size
    capsys.readouterr()
    # an explicit draw is one draw of the aggregate shape, in csv too
    assert run(base + ["--params", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "trial,found,witness\n0,1,2-8\n"


@pytest.mark.parametrize("mode, draws", [(["--params", "3,5"], 1),
                                         (["--trials", "5", "--n-params",
                                           "2"], 5)],
                         ids=["params", "trials"])
def test_satprobe_modes_write_one_shape(mode, draws, tmp_path):
    out = tmp_path / "probe.json"
    assert run(SATPROBE + mode + ["--output", str(out)]) == 0
    data = read_report(out)
    witness = data["witness"]
    assert sorted(witness) == ["m_subset", "mode", "n_params", "results",
                               "seed", "success_rate", "trials"]
    assert witness["trials"] == len(witness["results"]) == draws
    assert [c["name"] for c in data["certified"]] == ["witnesses-valid"]
    csv = tmp_path / "probe.csv"
    assert run(SATPROBE + mode + ["--format", "csv",
                                  "--output", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "trial,found,witness"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(i), str(int(entry["found"]))]
        for i, entry in enumerate(witness["results"])]


# ---------------------------------------------------------------------------
# verify compares the whole witness
# ---------------------------------------------------------------------------

def _tamper_fam(w):
    w["alpha"]["value"] = 99
    w["violation_max"]["params"] = [7]


def _flip_first(key):
    def edit(w):
        w[key][0] = 1 - w[key][0]  # booleans and 0/1 counts alike
    return edit


# per report tag: a run, an edit of a witness detail that no certification
# reads, and the first field verify names
WITNESS_TAMPERS = {
    "gen": (["gen", "gen:20:2:3:seed=1"],
            lambda w: w.update(digest="sha256:" + "0" * 64), "digest"),
    "famnotfim": (FAM_GEN50, _tamper_fam, "alpha.value"),
    "coloring-bound": (
        ["color", "--input", "WEIGHTS"],
        lambda w: w.update(total_weight=rational_to_json(Fraction(99))),
        "total_weight."),
    "measure-algebra": (
        ["check-measures", "--seed", "5", "--cases", "10"],
        lambda w: w["passed"].update(associativity=9),
        "passed.associativity"),
    "order": (["order", "--ambient", "gen:20:2:3:seed=1", "--q", "2"],
              _flip_first("adjacency"), "adjacency[0]"),
    "dfsnotfim-adversary": (ADVERSARY + ["--n", "10"],
                            _flip_first("violations"), "violations[0]"),
    "dfsnotfim-sat": (
        SATPROBE + ["--trials", "5", "--n-params", "2"],
        lambda w: w.update(success_rate=rational_to_json(Fraction(1, 7))),
        "success_rate."),
    "tp2": (["tp2", "--k", "2"],
            lambda w: w["path_params"].__setitem__(0, w["path_params"][0] + 1),
            "path_params[0]"),
}


@pytest.mark.parametrize("tag", sorted(WITNESS_TAMPERS))
def test_verify_names_a_tampered_witness_field(tag, tmp_path, capsys):
    argv, edit, field = WITNESS_TAMPERS[tag]
    argv = [str(write_weighted(tmp_path)) if a == "WEIGHTS" else a
            for a in argv]
    out = tmp_path / "report.json"
    assert run(argv + ["--output", str(out)]) == 0
    data = read_report(out)
    assert data["theorem"] == tag
    edit(data["witness"])
    out.write_text(canonical_dumps(data))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"witness field '{field}" in err
    assert "does not reproduce" in err and "certification" not in err


# ---------------------------------------------------------------------------
# tp2 / order / check-measures
# ---------------------------------------------------------------------------

def test_tp2_cli(tmp_path):
    out = tmp_path / "tp2.json"
    assert run(["tp2", "--k", "2", "--output", str(out)]) == 0
    data = read_report(out)
    assert data["inputs"]["structure"]["source"] == "tp2grid:2"
    assert all(c["holds"] for c in data["certified"])


def test_tp2_grid_too_small_is_usage_error(tmp_path, capsys):
    sfile = tmp_path / "grid2.json"
    sfile.write_text(canonical_dumps(structure_to_json(build_tp2_grid(2))))
    assert run(["tp2", "--k", "3", "--input", str(sfile)]) == 1
    assert "needs" in capsys.readouterr().err


def test_order_cli_and_verify(tmp_path):
    out = tmp_path / "order.json"
    assert run(["order", "--ambient", "gen:30:2:3:seed=1", "--q", "4",
                "--output", str(out)]) == 0
    assert read_report(out)["witness"]["witness_vertex"] == 38
    assert run(["verify", str(out)]) == 0


@pytest.mark.parametrize("argv, ambient_n", [
    (["order", "--ambient", "gen:20:2:3:seed=1", "--q", "3"], 20),
    (["adversary", "--ambient", "gen:12:3:4:seed=5", "--n", "10",
      "--seed", "11", "--s", "4"], 12),
], ids=["order", "adversary"])
def test_extension_makes_one_global_search_per_phase(argv, ambient_n,
                                                      tmp_path, monkeypatch):
    # extended-free follows from ambient-free and the extension's own
    # search through the new vertex, so the ambient's find_clique is the
    # only global search, in the report and again in verify
    import keisler_lab.structures as structures
    real = structures.find_clique
    searched = []

    def counting(h, s):
        searched.append(h.n)
        return real(h, s)
    monkeypatch.setattr(structures, "find_clique", counting)
    out = tmp_path / "r.json"
    assert run(argv + ["--output", str(out)]) == 0
    assert searched == [ambient_n]
    searched.clear()
    assert run(["verify", str(out)]) == 0
    assert searched == [ambient_n]


def test_order_makes_one_extension_per_phase(tmp_path, monkeypatch):
    # the 2q isolated chain vertices and the linked witness vertex are one
    # add_vertex_with_links call, in the report and again in verify
    import keisler_lab.witnesses as witnesses
    real = witnesses.add_vertex_with_links
    extended = []

    def counting(h, links, s, **kwargs):
        extended.append(kwargs)
        return real(h, links, s, **kwargs)
    monkeypatch.setattr(witnesses, "add_vertex_with_links", counting)
    out = tmp_path / "r.json"
    assert run(["order", "--ambient", "gen:120:2:3:seed=1", "--q", "60",
                "--output", str(out)]) == 0
    assert extended == [{"isolated": 120}]
    extended.clear()
    assert run(["verify", str(out)]) == 0
    assert extended == [{"isolated": 120}]


@pytest.mark.parametrize("argv, message", [
    (["order", "--ambient", "gen:20:2:3:seed=1", "--q", "-1"],
     "q must be nonnegative"),
    (["tp2", "--k", "2", "--sample", "3"], "requires a seed"),
    (SATPROBE + ["--trials", "0", "--n-params", "2"], "trials must be"),
    (SATPROBE + ["--n-params", "-1"], "n_params nonnegative"),
], ids=["order-q", "tp2-sample", "satprobe-trials", "satprobe-n-params"])
def test_builder_refuses_a_bad_request_without_a_report(argv, message,
                                                        tmp_path, capsys):
    # each request is checked once, in its witness builder, before any work
    out = tmp_path / "r.json"
    assert run(argv + ["--output", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_check_measures_json_and_csv(tmp_path):
    out = tmp_path / "m.json"
    argv = ["check-measures", "--seed", "5", "--cases", "10",
            "--output", str(out)]
    assert run(argv) == 0
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first
    data = read_report(out)
    assert all(c["holds"] for c in data["certified"])
    csv_out = tmp_path / "m.csv"
    assert run(["check-measures", "--seed", "5", "--cases", "10",
                "--format", "csv", "--output", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "check,passed,cases"
    assert len(lines) == 5
    assert all(line.endswith(",10,10") for line in lines[1:])


def test_check_measures_verify(tmp_path):
    out = tmp_path / "m.json"
    assert run(["check-measures", "--seed", "5", "--cases", "10",
                "--output", str(out)]) == 0
    assert run(["verify", str(out)]) == 0

