"""Certified witness pipelines and their recomputation hooks."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from keisler_lab import measures, witnesses
from keisler_lab.logic import compile_mask, parse_phi
from keisler_lab.serialize import canonical_dumps
from keisler_lab.structures import (
    Feq2Structure,
    Hypergraph,
    add_vertex_with_links,
    build_tp2_grid,
    cyclic_graph,
    grid_object,
    grid_target,
    is_free,
    is_induced_embedding,
    random_maximal_free,
)
from keisler_lab.witnesses import (
    Certified,
    EmbeddingNotFound,
    GridTooSmall,
    PIPELINES,
    PreconditionFailed,
    WitnessReport,
    adversary_fraction,
    adversary_witness,
    build_report,
    fam_witness,
    order_witness,
    sat_probe,
    tp2_witness,
)

NO_EDGE = "!E(x1,y1) & x1 != y1"


@pytest.fixture(scope="module")
def ambient200():
    return random_maximal_free(200, 2, 3, 9)


@pytest.fixture(scope="module")
def circulant13():
    return cyclic_graph(13, [1, 5])


@pytest.fixture(scope="module")
def ambient60():
    return random_maximal_free(60, 3, 4, 5)


def assert_rebuild_matches(report: WitnessReport, rebuild) -> None:
    # rebuilt as verify does, with nothing taken from the report: the same
    # certifications, witness and log, byte for byte
    assert (canonical_dumps(rebuild().to_json_dict())
            == canonical_dumps(report.to_json_dict()))


def assert_recompute_matches(report: WitnessReport, config: dict) -> None:
    # the request as a report's config records it, the sources of its
    # inputs included; the build writes nothing into it
    before = dict(config)
    assert_rebuild_matches(report, lambda: build_report(
        report.theorem, config)[0])
    assert config == before


# the specs of the ambient200 and circulant13 fixtures
FAM_CONFIG = {"phi": NO_EDGE, "epsilon": "4/5", "s": 3,
              "ambient": "gen:200:2:3:seed=9", "graph": "circulant:13:1,5"}


# ---------------------------------------------------------------------------
# certification plumbing
# ---------------------------------------------------------------------------

def test_certified_relations():
    assert Certified("a", "<", Fraction(1), Fraction(2)).holds
    assert not Certified("a", "<", Fraction(2), Fraction(2)).holds
    assert Certified("a", "<=", Fraction(2), Fraction(2)).holds
    assert Certified("a", ">=", Fraction(2), Fraction(2)).holds
    assert not Certified("a", ">", Fraction(2), Fraction(2)).holds
    assert Certified("a", "==", Fraction(1, 3), Fraction(2, 6)).holds
    with pytest.raises(ValueError):
        Certified("a", "!=", Fraction(1), Fraction(2))


def test_certified_json_shape():
    payload = Certified("sup-error", "<", Fraction(5, 13),
                        Fraction(4, 5)).to_json_dict()
    assert payload["name"] == "sup-error" and payload["op"] == "<"
    assert payload["lhs"] == {"num": 5, "den": 13, "decimal": 5 / 13}
    assert payload["holds"] is True


def test_witness_report_json_shape():
    report = WitnessReport("tag", {"x": 1},
                           (Certified("c", "==", Fraction(1), Fraction(1)),),
                           ("line",))
    payload = report.to_json_dict()
    assert set(payload) == {"theorem", "witness", "certified", "log"}
    assert report.all_hold
    bad = WitnessReport("tag", {},
                        (Certified("c", "==", Fraction(0), Fraction(1)),), ())
    assert not bad.all_hold


# ---------------------------------------------------------------------------
# average approximation of the isolated-vertex type
# ---------------------------------------------------------------------------

def test_fam_headline_instance(ambient200, circulant13):
    report = fam_witness(parse_phi(NO_EDGE), Fraction(4, 5), ambient200,
                         circulant13)
    assert report.theorem == "famnotfim"
    assert report.all_hold
    names = [c.name for c in report.certified]
    assert names == ["ambient-free", "pattern-free", "embedding-induced",
                     "sample-size", "alpha-bound", "sup-error",
                     "violation-bound"]
    w = report.witness
    assert w["negated"] is False
    assert w["k"] == 1 and w["ell"] == 1
    assert w["alpha"]["value"] == 4
    assert w["graph_n"] == 13 and len(w["embedding"]) == 13
    assert is_induced_embedding(circulant13, ambient200,
                                tuple(w["embedding"]))
    # frozen exact values: sup error 5/13 and worst violation count 5
    assert w["sup"]["sup_error"] == {"num": 5, "den": 13, "decimal": 5 / 13}
    assert w["sup"]["exhaustive"] is True
    assert w["sup"]["samples_scanned"] == 200
    assert w["violation_max"]["count"] == 5
    by_name = {c.name: c for c in report.certified}
    assert by_name["violation-bound"].rhs == 5
    assert by_name["sup-error"].lhs == Fraction(5, 13)
    assert_recompute_matches(report, FAM_CONFIG)


def test_fam_negation_branch(ambient200, circulant13):
    report = fam_witness(parse_phi("E(x1,y1)"), Fraction(4, 5), ambient200,
                         circulant13)
    assert report.all_hold
    w = report.witness
    assert w["negated"] is True
    assert w["k"] == 1 and w["ell"] == 0
    # the worst parameter meets the embedded copy in an independent set,
    # so both extremes are exactly alpha-sized
    assert w["sup"]["sup_error"] == {"num": 4, "den": 13, "decimal": 4 / 13}
    assert w["violation_max"]["count"] == 4
    assert "alpha-bound" in [c.name for c in report.certified]
    assert_recompute_matches(report, {**FAM_CONFIG, "phi": "E(x1,y1)"})


def test_fam_five_cycle_misses_alpha_bound(ambient200):
    with pytest.raises(PreconditionFailed) as info:
        fam_witness(parse_phi(NO_EDGE), Fraction(4, 5), ambient200,
                    cyclic_graph(5, [1]))
    failure = info.value
    assert failure.name == "alpha-bound" and failure.op == "<"
    assert failure.lhs == 2 and failure.rhs == 2


def test_fam_sample_size_precondition_first(ambient200):
    lone = Hypergraph(2, 1, frozenset())
    with pytest.raises(PreconditionFailed) as info:
        fam_witness(parse_phi(NO_EDGE), Fraction(4, 5), ambient200, lone)
    assert info.value.name == "sample-size"
    assert info.value.rhs == Fraction(5, 2)


def test_fam_pattern_free_precondition(ambient200):
    k13 = Hypergraph(2, 13, frozenset(itertools.combinations(range(13), 2)))
    with pytest.raises(PreconditionFailed) as info:
        fam_witness(parse_phi(NO_EDGE), Fraction(4, 5), ambient200, k13)
    assert info.value.name == "pattern-free"


def test_fam_ambient_free_precondition(circulant13):
    k5 = Hypergraph(2, 5, frozenset(itertools.combinations(range(5), 2)))
    with pytest.raises(PreconditionFailed) as info:
        fam_witness(parse_phi(NO_EDGE), Fraction(4, 5), k5, circulant13)
    assert info.value.name == "ambient-free"


def test_fam_embedding_not_found(ambient200, circulant13):
    toobig = Hypergraph(2, 250, frozenset())
    with pytest.raises(EmbeddingNotFound) as info:
        fam_witness(parse_phi(NO_EDGE), Fraction(3), ambient200, toobig)
    assert not info.value.exhausted
    with pytest.raises(EmbeddingNotFound) as starved:
        fam_witness(parse_phi(NO_EDGE), Fraction(4, 5), ambient200,
                    circulant13, embed_budget=3)
    assert starved.value.exhausted


def test_fam_scans_the_parameter_domain_once(ambient200, circulant13,
                                             monkeypatch):
    calls = {"mask": 0, "evaluate": 0, "analyze_phi": 0}
    formula = parse_phi(NO_EDGE).formula

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def compiling(host, compiled):
        mask = compile_mask(host, compiled)
        if compiled != formula:
            return mask

        def counted(b):
            calls["mask"] += 1
            return mask(b)
        return counted

    # the formula's compiled bitset runs once per tuple, and neither the
    # scan nor the certify stage falls back to the interpreter
    monkeypatch.setattr(measures, "compile_mask", compiling)
    counting(measures, "evaluate")
    counting(witnesses, "evaluate")
    counting(witnesses, "analyze_phi")
    report = fam_witness(parse_phi(NO_EDGE), Fraction(4, 5), ambient200,
                         circulant13)
    assert report.witness["sup"]["samples_scanned"] == 200
    assert calls == {"mask": 200, "evaluate": 0, "analyze_phi": 1}
    build_report(report.theorem, FAM_CONFIG)
    assert calls == {"mask": 2 * 200, "evaluate": 0, "analyze_phi": 2}


def test_fam_validation(ambient200, circulant13):
    phi = parse_phi(NO_EDGE)
    with pytest.raises(ValueError):
        fam_witness(phi, Fraction(0), ambient200, circulant13)
    with pytest.raises(ValueError):
        fam_witness(phi, Fraction(4, 5), ambient200, circulant13, s=2)
    with pytest.raises(ValueError):
        fam_witness(phi, Fraction(4, 5), Hypergraph(3, 9, frozenset()),
                    circulant13)
    with pytest.raises(ValueError):
        fam_witness(phi, Fraction(4, 5), ambient200,
                    Hypergraph(2, 0, frozenset()))


# ---------------------------------------------------------------------------
# order witness
# ---------------------------------------------------------------------------

def test_order_witness_alternation():
    ambient = random_maximal_free(30, 2, 3, 1)
    report = order_witness(ambient, 3, 4)
    assert report.theorem == "order"
    assert report.all_hold
    w = report.witness
    assert w["chain"] == list(range(30, 38))
    assert w["witness_vertex"] == 38
    assert w["adjacency"] == [False, True] * 4
    by_name = {c.name: c for c in report.certified}
    assert by_name["alternation"].lhs == 8 == by_name["alternation"].rhs
    assert_recompute_matches(report, {"s": 3, "q": 4,
                                      "ambient": "gen:30:2:3:seed=1"})


def test_order_witness_degenerate():
    ambient = random_maximal_free(10, 2, 3, 0)
    report = order_witness(ambient, 3, 0)
    assert report.all_hold
    assert report.witness["witness_vertex"] is None
    assert report.witness["adjacency"] == []
    assert any("degenerate" in line for line in report.log)
    assert_recompute_matches(report, {"s": 3, "q": 0,
                                      "ambient": "gen:10:2:3:seed=0"})


def test_order_witness_validation():
    k3 = Hypergraph(2, 3, frozenset({(0, 1), (0, 2), (1, 2)}))
    with pytest.raises(PreconditionFailed):
        order_witness(k3, 3, 1)
    good = random_maximal_free(8, 2, 3, 0)
    with pytest.raises(ValueError):
        order_witness(good, 2, 1)
    with pytest.raises(ValueError):
        order_witness(good, 3, -1)
    with pytest.raises(ValueError):
        order_witness(Hypergraph(3, 5, frozenset()), 4, 1)


# ---------------------------------------------------------------------------
# adversary witness
# ---------------------------------------------------------------------------

def test_adversary_fraction_values():
    assert adversary_fraction(3) == Fraction(1, 2)
    assert adversary_fraction(4) == Fraction(6, 27)


def test_adversary_single_pair():
    ambient = Hypergraph(3, 6, frozenset())
    report = adversary_witness([(0, 1)], ambient, 4)
    assert report.theorem == "dfsnotfim-adversary"
    assert report.all_hold
    w = report.witness
    assert w["witness_vertex"] == 6
    assert w["violations"] == [1]
    assert w["fraction"] == {"num": 1, "den": 1, "decimal": 1.0}
    assert w["links"] == [[0, 1]]
    assert_rebuild_matches(report, lambda: adversary_witness(
        [(0, 1)], ambient, 4))


def test_adversary_degenerate_tuples_count_as_violations():
    ambient = Hypergraph(3, 6, frozenset())
    report = adversary_witness([(0, 0), (1, 2)], ambient, 4)
    assert report.all_hold
    assert report.witness["violations"] == [1, 1]
    assert report.witness["distinct_count"] == 1


def test_adversary_seeded_instance(ambient60):
    rng = random.Random(11)
    tuples = [tuple(rng.randrange(60) for _ in range(2)) for _ in range(30)]
    report = adversary_witness(tuples, ambient60, 4)
    assert report.all_hold
    by_name = {c.name: c for c in report.certified}
    assert by_name["violated-fraction"].lhs >= Fraction(1, 2)
    assert by_name["violated-fraction"].rhs == Fraction(1, 2)
    # the extension really is K^3_4-free, checked from the payload
    links = [tuple(l) for l in report.witness["links"]]
    extended = add_vertex_with_links(ambient60, links, 4)
    assert is_free(extended, 4)
    # the tuples are those a config with seed 11 and n 30 draws
    assert_recompute_matches(report, {"seed": 11, "n": 30, "s": 4,
                                      "ambient": "gen:60:3:4:seed=5"})


def test_adversary_validation(ambient60):
    with pytest.raises(ValueError, match="arity at least 3"):
        adversary_witness([(0,)], random_maximal_free(6, 2, 3, 0), 3)
    with pytest.raises(ValueError):
        adversary_witness([(0, 1)], ambient60, 3)
    with pytest.raises(ValueError):
        adversary_witness([], ambient60, 4)
    with pytest.raises(ValueError):
        adversary_witness([(0, 1, 2)], ambient60, 4)
    with pytest.raises(ValueError):
        adversary_witness([(0, 99)], ambient60, 4)
    k4 = Hypergraph(3, 4, frozenset(itertools.combinations(range(4), 3)))
    with pytest.raises(PreconditionFailed):
        adversary_witness([(0, 1)], k4, 4)


# ---------------------------------------------------------------------------
# satisfiability probe
# ---------------------------------------------------------------------------

def test_sat_probe_single_hit():
    ambient = Hypergraph(3, 6, frozenset({(0, 1, 2)}))
    report = sat_probe(ambient, [0, 1, 3], params=[2])
    assert report.theorem == "dfsnotfim-sat"
    w = report.witness
    # explicit params are one draw of the aggregate report
    assert (w["mode"], w["trials"], w["n_params"], w["seed"]) == (
        "single", 1, 1, None)
    # the lexicographically first non-edge pair
    assert w["results"] == [{"params": [2], "found": True,
                             "witness": [0, 3]}]
    (cert,) = report.certified
    assert cert.name == "witnesses-valid" and cert.holds and cert.rhs == 1
    assert report.log == ("1 of 1 parameter draws admit a witness",)
    assert_rebuild_matches(report, lambda: sat_probe(
        ambient, [0, 1, 3], params=[2]))


def test_sat_probe_single_miss_is_honest():
    complete = Hypergraph(3, 4,
                          frozenset(itertools.combinations(range(4), 3)))
    report = sat_probe(complete, [0, 1, 2], params=[3])
    assert report.witness["results"] == [{"params": [3], "found": False,
                                          "witness": None}]
    assert report.witness["success_rate"]["num"] == 0
    # nothing was claimed: the certification counts no hits
    (cert,) = report.certified
    assert cert.name == "witnesses-valid" and cert.lhs == cert.rhs == 0
    assert report.all_hold
    assert report.log == ("0 of 1 parameter draws admit a witness",)
    assert_rebuild_matches(report, lambda: sat_probe(
        complete, [0, 1, 2], params=[3]))


def test_sat_probe_parameter_inside_subset():
    ambient = Hypergraph(3, 6, frozenset({(0, 1, 2)}))
    # combos containing the parameter itself can never form an edge with it
    report = sat_probe(ambient, [0, 1, 2], params=[0])
    (entry,) = report.witness["results"]
    assert entry["found"] is True
    assert entry["witness"] == [0, 1]


def test_sat_probe_graph_case():
    c5 = cyclic_graph(5, [1])
    report = sat_probe(c5, [0, 1, 2, 3, 4], params=[0, 2])
    # vertex 0 is its own parameter: E(0,0) never holds, E(0,2) is a non-edge
    assert report.witness["results"][0]["witness"] == [0]
    assert report.witness["n_params"] == 2


def test_sat_probe_aggregate():
    ambient = random_maximal_free(20, 3, 4, 3)
    first = sat_probe(ambient, range(12), trials=6, n_params=2, seed=9)
    again = sat_probe(ambient, range(12), trials=6, n_params=2, seed=9)
    assert first.to_json_dict() == again.to_json_dict()
    w = first.witness
    assert w["mode"] == "aggregate" and len(w["results"]) == 6
    hits = sum(1 for entry in w["results"] if entry["found"])
    assert w["success_rate"] == {"num": Fraction(hits, 6).numerator,
                                 "den": Fraction(hits, 6).denominator,
                                 "decimal": hits / 6}
    (cert,) = first.certified
    assert cert.name == "witnesses-valid" and cert.holds
    assert cert.rhs == hits
    assert_rebuild_matches(first, lambda: sat_probe(
        ambient, range(12), trials=6, n_params=2, seed=9))


def test_sat_probe_validation():
    ambient = Hypergraph(3, 6, frozenset())
    with pytest.raises(ValueError):
        sat_probe(ambient, [0, 99], params=[1])
    with pytest.raises(ValueError):
        sat_probe(ambient, [0, 1], params=[99])
    with pytest.raises(ValueError):
        sat_probe(ambient, [0, 1], trials=5, n_params=2)  # no seed
    with pytest.raises(ValueError):
        sat_probe(ambient, [0, 1], trials=0, n_params=2, seed=1)


# ---------------------------------------------------------------------------
# grid witness
# ---------------------------------------------------------------------------

def test_tp2_full_enumeration_k2():
    report = tp2_witness(build_tp2_grid(2), 2)
    assert report.theorem == "tp2"
    assert report.all_hold
    w = report.witness
    assert w["row_pairs"] == 2 and w["row_failures"] == []
    assert len(w["checked_paths"]) == 4
    assert all(z is not None for z in w["path_params"])
    by_name = {c.name: c for c in report.certified}
    assert by_name["rows-inconsistent"].lhs == 2
    assert by_name["paths-consistent"].lhs == 4
    assert_recompute_matches(report, {"k": 2})


def test_tp2_trivial_k1():
    report = tp2_witness(build_tp2_grid(1), 1)
    assert report.all_hold
    assert report.witness["row_pairs"] == 0
    assert report.witness["checked_paths"] == [[0]]


def test_tp2_sampled_k4():
    f = build_tp2_grid(4)
    report = tp2_witness(f, 4, sample=50, seed=3)
    assert report.all_hold
    by_name = {c.name: c for c in report.certified}
    assert by_name["rows-inconsistent"].lhs == 24 == by_name["rows-inconsistent"].rhs
    assert by_name["paths-consistent"].lhs == 50 == by_name["paths-consistent"].rhs
    again = tp2_witness(f, 4, sample=50, seed=3)
    assert report.to_json_dict() == again.to_json_dict()
    assert_recompute_matches(report, {"k": 4, "sample": 50, "seed": 3})


def test_tp2_missing_path_parameter_fails_honestly():
    # one-parameter structure: only a single path can be consistent
    f = Feq2Structure(6, 1, ((4, 3, 5, 1, 0, 2),))  # 0-4, 1-3, 2-5
    report = tp2_witness(f, 2)
    by_name = {c.name: c for c in report.certified}
    assert by_name["paths-consistent"].lhs < by_name["paths-consistent"].rhs
    assert not report.all_hold


def test_tp2_validation():
    with pytest.raises(GridTooSmall) as info:
        tp2_witness(build_tp2_grid(2), 3)
    assert info.value.needed == 12 and info.value.actual == 6
    f = build_tp2_grid(2)
    with pytest.raises(ValueError):
        tp2_witness(f, 0)
    with pytest.raises(ValueError):
        tp2_witness(f, 2, sample=2)  # no seed
    with pytest.raises(ValueError):
        tp2_witness(f, 2, sample=0, seed=1)
    with pytest.raises(ValueError):
        tp2_witness(f, 2, sample=5, seed=1)  # only 4 paths exist


def least_shared_param(f, pairs):
    """The least parameter z under which, for every pair of distinct
    objects (x, y), y is x's mate; None if there is none.  The ascending
    scan of the parameters that tp2_witness's cell bitsets replace."""
    for z, mate in enumerate(f.mates):
        if all(mate[x] == y for x, y in pairs):
            return z
    return None


def tp2_by_scan(f, k, sample=None, seed=None):
    """checked_paths, row_failures and path_params by the ascending scan;
    paths come from itertools.product, or from the seeded sample of base-k
    codes decoded digit by digit."""
    if sample is None:
        paths = [list(p) for p in itertools.product(range(k), repeat=k)]
    else:
        paths = []
        for code in sorted(random.Random(seed).sample(range(k ** k), sample)):
            digits = []
            for _ in range(k):
                code, d = divmod(code, k)
                digits.append(d)
            paths.append(digits[::-1])
    row_failures = []
    for i in range(k):
        c = grid_target(k, i)
        for j1, j2 in itertools.combinations(range(k), 2):
            z = least_shared_param(f, [(grid_object(k, i, j1), c),
                                       (grid_object(k, i, j2), c)])
            if z is not None:
                row_failures.append([i, j1, j2, z])
    path_params = [least_shared_param(
        f, [(grid_object(k, i, j), grid_target(k, i))
            for i, j in enumerate(path)]) for path in paths]
    return paths, row_failures, path_params


def assert_tp2_matches_scan(f, k, sample=None, seed=None):
    report = tp2_witness(f, k, sample, seed)
    paths, row_failures, path_params = tp2_by_scan(f, k, sample, seed)
    w = report.witness
    assert w["checked_paths"] == paths
    assert w["row_failures"] == row_failures == []
    assert w["path_params"] == path_params
    row_pairs = k * k * (k - 1) // 2
    consistent = sum(z is not None for z in path_params)
    assert [(c.name, c.op, c.lhs, c.rhs) for c in report.certified] == [
        ("rows-inconsistent", "==", row_pairs, row_pairs),
        ("paths-consistent", "==", consistent, len(paths))]
    return report


@st.composite
def grid_structures(draw):
    """A k-grid's objects, with up to 3 more, under a few dozen random
    pairings: some pair the cells of a drawn path with their targets, some
    pair no cell with its row's target, the rest are arbitrary."""
    k = draw(st.integers(1, 4))
    objects = k * k + k + draw(st.integers(0, 3))
    cells = [grid_object(k, i, j) for i in range(k) for j in range(k)]
    others = [x for x in range(objects) if x not in cells]
    mates = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["path", "avoid", "random"]))
        if kind == "path":
            path = draw(st.lists(st.integers(0, k - 1), min_size=k,
                                 max_size=k))
            blocks = [(grid_object(k, i, j), grid_target(k, i))
                      for i, j in enumerate(path)]
            used = {x for b in blocks for x in b}
            order = draw(st.permutations(
                [x for x in range(objects) if x not in used]))
        elif kind == "avoid":
            blocks = []
            order = (draw(st.permutations(others))
                     + draw(st.permutations(cells)))
            # only the pair across the join can hold a cell and a target;
            # when it holds a cell and its row's target, another target or
            # an extra object takes the target's place (k = 1 with no
            # extra object has no other pairing)
            join = len(others) - 1
            if join % 2 == 0 and order[join] - k * k == order[join + 1] // k:
                order[0], order[join] = order[join], order[0]
        else:
            blocks, order = [], draw(st.permutations(range(objects)))
        blocks += [tuple(order[i:i + 2]) for i in range(0, len(order), 2)]
        if kind == "avoid" and objects > 2:
            held = {frozenset(b) for b in blocks}
            assert not any({grid_object(k, i, j), grid_target(k, i)} in held
                           for i in range(k) for j in range(k))
        mate = list(range(objects))
        for b in blocks:
            mate[b[0]], mate[b[-1]] = b[-1], b[0]
        mates.append(tuple(mate))
    return k, Feq2Structure(objects, len(mates), tuple(mates))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(grid_structures(), st.integers(0, 2 ** 32), st.integers(1, 256))
def test_tp2_cell_bitsets_match_the_parameter_scan(grid, seed, size):
    k, f = grid
    assert_tp2_matches_scan(f, k)
    assert_tp2_matches_scan(f, k, min(size, k ** k), seed)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tp2_constructor_grids_match_the_parameter_scan(k):
    f = build_tp2_grid(k)
    report = assert_tp2_matches_scan(f, k)
    # the constructor's parameter z pairs the cells of the z-th path
    assert report.witness["path_params"] == list(range(k ** k))
    for seed in range(3):
        assert_tp2_matches_scan(f, k, min(5 * (seed + 1), k ** k), seed)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_required_inputs_table():
    # one table names every report tag that verify accepts; the keys of
    # its sources are the inputs a report names, each with its kind
    config = {"input": "i", "ambient": "a", "graph": "g", "k": 2}
    ambient = {"ambient": ("hypergraph", "a")}
    assert {tag: sources(config)
            for tag, (sources, _) in PIPELINES.items()} == {
        "gen": {},
        "coloring-bound": {"weighted": ("weighted-hypergraph", "i")},
        "measure-algebra": {},
        "famnotfim": {**ambient, "graph": ("hypergraph", "g")},
        "order": ambient,
        "dfsnotfim-adversary": ambient,
        "dfsnotfim-sat": ambient,
        "tp2": {"structure": ("feq2", "i")},
    }

