"""Acceptance gate: one test per advertised guarantee.

Each test prints a single pass line on success; run with -v (or -s) to
see one line per criterion.  Tolerances and runtime budgets are part of
the contract and are asserted, not logged.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import (dnf_to_formula, random_graph, random_weighted,
                      residual_holds)
from test_logic import random_formula
from test_measures import grid_deviation_case
from test_structures import exhaustive_alpha

from keisler_lab.cli import run
from keisler_lab.coloring import (brute_best, greedy_coloring,
                                  guarantee_value, weight_of,
                                  weighted_hypergraph)
from keisler_lab.logic import (PhiPartition, analyze_phi, evaluate,
                               make_assignment, parse_phi, to_dnf)
from keisler_lab.measures import SELFTEST_CHECKS, measure_algebra_selftest
from keisler_lab.serialize import canonical_dumps, weighted_to_json
from keisler_lab.structures import (add_vertex_with_links, alpha_s,
                                    build_tp2_grid, cyclic_graph, is_free,
                                    random_maximal_free)
from keisler_lab.witnesses import (adversary_witness, fam_witness,
                                   order_witness, tp2_witness)


def done(number: int, slug: str) -> None:
    print(f"criterion {number} ({slug}): PASS")


# ---------------------------------------------------------------------------

def test_criterion_01_coloring_guarantee():
    start = time.perf_counter()
    rng = random.Random(101)
    for case in range(200):
        r = 2 if case % 2 == 0 else 3
        n = rng.randint(r, 10)
        wh = random_weighted(rng, n, r, p=0.6)
        coloring = greedy_coloring(wh)
        assert weight_of(wh, coloring) >= guarantee_value(wh)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    done(1, "coloring guarantee on 200 seeded weighted graphs")


def test_criterion_02_average_identity():
    rng = random.Random(202)
    for case in range(50):
        r = 2 if case % 2 == 0 else 3
        n = rng.randint(r, 7)
        wh = random_weighted(rng, n, r, p=0.7)
        result = brute_best(wh)
        assert result.colorings == r ** n
        assert result.average_weight == guarantee_value(wh)  # zero error
    done(2, "exact mean over all colorings")


def test_criterion_03_adversary_bound():
    start = time.perf_counter()
    rng = random.Random(303)
    instances = 0
    for ambient_seed in range(5):
        ambient = random_maximal_free(60, 3, 4, ambient_seed)
        for _ in range(10):
            n_tuples = rng.randint(1, 30)
            tuples = [tuple(rng.randrange(60) for _ in range(2))
                      for _ in range(n_tuples)]
            report = adversary_witness(tuples, ambient, 4)
            by_name = {c.name: c for c in report.certified}
            assert by_name["violated-fraction"].lhs >= Fraction(1, 2)
            assert by_name["extended-free"].holds
            assert report.all_hold
            # independent rebuild of the extension, not trusting the cert
            links = [tuple(l) for l in report.witness["links"]]
            assert is_free(add_vertex_with_links(ambient, links, 4), 4)
            instances += 1
    assert instances == 50
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    done(3, "violated fraction >= 1/2 on 50 seeded instances")


def test_criterion_04_fam_pipeline():
    start = time.perf_counter()
    graph = cyclic_graph(13, [1, 5])
    assert is_free(graph, 3)  # triangle-free, established by enumeration
    alpha = alpha_s(graph, 3)
    assert alpha.exact and alpha.value == 4
    ambient = random_maximal_free(200, 2, 3, 9)
    report = fam_witness(parse_phi("!E(x1,y1) & x1 != y1"), Fraction(4, 5),
                         ambient, graph)
    assert report.all_hold
    sup = report.witness["sup"]
    assert sup["exhaustive"] is True and sup["samples_scanned"] == 200
    assert Fraction(sup["sup_error"]["num"],
                    sup["sup_error"]["den"]) <= Fraction(5, 13)
    assert report.witness["ell"] + 1 * alpha.value == 5
    assert report.witness["violation_max"]["count"] <= 5  # for every b
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    done(4, "sup error <= 5/13 over all 200 parameters")


def test_criterion_05_measure_algebra():
    outcome = measure_algebra_selftest(505, cases=100)
    assert set(SELFTEST_CHECKS) == {"normalization", "grid-identity",
                                    "associativity", "localization"}
    for check in SELFTEST_CHECKS:
        assert outcome.passed[check] == 100, check
    done(5, "measure algebra exact on 100 seeded cases")


def test_criterion_06_product_of_approximations():
    rng = random.Random(606)
    exercised = 0
    for case in range(60):
        eps1, eps2, deviation = grid_deviation_case(rng,
                                                    with_param=case % 2 == 0)
        # smallest interesting epsilon for which both factors qualify as
        # (theta_i, epsilon/2)-approximations
        epsilon = 2 * max(eps1, eps2, Fraction(1, 1000)) + Fraction(1, 1000)
        assert eps1 < epsilon / 2 and eps2 < epsilon / 2
        assert deviation < epsilon
        exercised += deviation > 0
    assert exercised > 15
    done(6, "grid average tracks the product measure")


def test_criterion_07_tp2_witness():
    report = tp2_witness(build_tp2_grid(4), 4, sample=50, seed=707)
    assert report.all_hold
    w = report.witness
    assert w["row_pairs"] == 24  # C(4,2) * 4 same-row pairs
    assert w["row_failures"] == []
    assert 4 ** 4 == 256 and len(w["checked_paths"]) == 50
    assert all(z is not None for z in w["path_params"])
    done(7, "rows 2-inconsistent, 50 of 256 paths consistent")


def test_criterion_08_order_witness():
    ambient = random_maximal_free(40, 2, 3, 8)
    report = order_witness(ambient, 3, 4)
    assert report.all_hold
    by_name = {c.name: c for c in report.certified}
    assert by_name["alternation"].lhs == 8 == by_name["alternation"].rhs
    assert by_name["extended-free"].holds
    done(8, "alternating links with freeness preserved")


def profile_matches(host, profile, a, params):
    """Independent reading of one disjunct profile at a concrete point."""
    if not residual_holds(host, profile, params):
        return False
    at = lambda j: params[j - 1]
    return (all(not host.has_edge((a, at(j))) for j in profile.neg_edge)
            and all(a != at(j) for j in profile.neq)
            and all(host.has_edge((a, at(j))) for j in profile.pos_edge)
            and all(a == at(j) for j in profile.eq))


def test_criterion_09_oracle_equivalence():
    rng = random.Random(909)
    for _ in range(100):
        n = rng.randint(3, 14)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        s = rng.choice((3, 4, 5))
        result = alpha_s(g, s)
        assert result.exact
        assert result.value == exhaustive_alpha(g, s)

    hosts = [random_graph(rng, rng.randint(3, 6), 0.5) for _ in range(2)]
    for case in range(50):
        obj_arity, param_arity = (2, 2) if case % 2 == 0 else (1, 2)
        formula = random_formula(rng, obj_arity, param_arity)
        dnf = to_dnf(formula)
        rebuilt = dnf_to_formula(dnf) if dnf else None  # () means constant F
        analysis = (analyze_phi(PhiPartition(formula, 1, param_arity))
                    if obj_arity == 1 else None)
        for host in hosts:
            for point in itertools.product(range(host.n),
                                           repeat=obj_arity + param_arity):
                objs, params = point[:obj_arity], point[obj_arity:]
                assignment = make_assignment(objs, params)
                value = evaluate(host, formula, assignment)
                expected = (evaluate(host, rebuilt, assignment)
                            if rebuilt is not None else False)
                assert value == expected
                if analysis is not None:
                    assert value == any(
                        profile_matches(host, p, objs[0], params)
                        for p in analysis.profiles)
    done(9, "alpha and formula analysis match exhaustive oracles")


def test_criterion_10_reproducibility(tmp_path):
    wh = weighted_hypergraph(5, 2, [((0, 1), 1, 3), ((1, 2), 2, 1),
                                    ((3, 4), 1, 2)])
    wfile = tmp_path / "weights.json"
    wfile.write_text(canonical_dumps(weighted_to_json(wh)))
    out = tmp_path / "report.json"
    matrix = [
        ["gen", "gen:20:2:3:seed=1"],
        ["color", "--input", str(wfile), "--brute"],
        ["fam", "--phi", "!E(x1,y1) & x1 != y1", "--epsilon", "4/5",
         "--graph", "circulant:13:1,5", "--ambient", "gen:200:2:3:seed=9"],
        ["adversary", "--ambient", "gen:60:3:4:seed=5", "--n", "30",
         "--seed", "11", "--s", "4"],
        ["satprobe", "--ambient", "gen:20:3:4:seed=3", "--m-size", "12",
         "--seed", "9", "--trials", "5", "--n-params", "2"],
        ["tp2", "--k", "4", "--sample", "50", "--seed", "3"],
        ["order", "--ambient", "gen:30:2:3:seed=1", "--q", "4"],
        ["check-measures", "--seed", "5", "--cases", "20"],
    ]
    for argv in matrix:
        full = argv + ["--output", str(out)]
        assert run(full) == 0, argv[0]
        first = out.read_bytes()
        assert run(full) == 0, argv[0]
        assert out.read_bytes() == first, argv[0]
        assert run(["verify", str(out)]) == 0, argv[0]
        assert json.loads(first)["theorem"]  # well-formed canonical JSON
    done(10, "byte-identical reports, verify exits 0 on each")
