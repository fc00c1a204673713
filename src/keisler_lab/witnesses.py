"""Finite-scale witness experiments and their certified reports.

Each experiment returns a WitnessReport: a payload describing the object
built, a list of certified exact inequalities, and a log.  Each report
tag has one entry in PIPELINES: the kind of each input and where the
config names its source, and one request function, build(config,
inputs), which reads every request field from the config, makes the
seeded draws and calls the tag's builder.  build_report(theorem, config)
is the whole path from a request to a report: it resolves the inputs,
refuses one of the wrong kind, records each, builds, and returns the
report with its JSON document, writing nothing into the config.  The
runner and the verifier call it alike; the verifier builds again from
the report's config, searching as the runner did, and compares the
document it gets with the recorded one.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Optional, Sequence

from ._record import Record
from .coloring import (WeightedHypergraph, brute_best, greedy_coloring,
                       guarantee_value, weight_of)
from .logic import (And, Eq, Not, ObjectVar, ParamVar, ParseError,
                    PhiPartition, Rel, analyze_phi, evaluate, format_formula,
                    make_assignment, parse_phi)
from .measures import SELFTEST_CHECKS, measure_algebra_selftest, sup_error
from .serialize import (FormatError, digest, load_weighted, parse_int_list,
                        parse_rational, parse_spec_fields,
                        parse_structure_spec, rational_to_json,
                        structure_to_json, weighted_to_json)
from .structures import (_MAX_GRID_K, Feq2Structure, Hypergraph, _shown,
                         add_vertex_with_links, alpha_s, embed_search,
                         grid_object, grid_target, is_free,
                         is_induced_embedding, is_maximal_free)

_DOMAIN_CAP = 10 ** 6
# any ambient of two or more vertices has a domain over the cap at 20
# parameters (2^20 > 10^6)
_MAX_PARAM_ARITY = 20


class PreconditionFailed(Exception):
    """A stated precondition fails; carries the offending inequality."""

    def __init__(self, name: str, op: str, lhs: Fraction, rhs: Fraction):
        self.name = name
        self.op = op
        self.lhs = Fraction(lhs)
        self.rhs = Fraction(rhs)
        super().__init__(f"precondition {name}: {lhs} {op} {rhs} is false")

    def report(self, theorem: str) -> WitnessReport:
        """The report of a run that stopped here: the failed inequality.
        verify rebuilds the same request, which must stop at the same
        inequality."""
        payload = {"precondition_failed": self.name, "op": self.op,
                   "lhs": rational_to_json(self.lhs),
                   "rhs": rational_to_json(self.rhs)}
        return WitnessReport(
            theorem, payload,
            (Certified(self.name, self.op, self.lhs, self.rhs),), (str(self),))


class EmbeddingNotFound(Exception):
    """No induced copy of the pattern was found in the ambient graph."""

    def __init__(self, exhausted: bool, nodes: int):
        self.exhausted = exhausted
        self.nodes = nodes
        reason = ("search budget exhausted" if exhausted
                  else "proven absent")
        super().__init__(f"no induced embedding ({reason}, {nodes} nodes)")


class GridTooSmall(ValueError):
    """The structure lacks the objects a k-grid witness needs."""

    def __init__(self, needed: int, actual: int):
        self.needed = needed
        self.actual = actual
        super().__init__(f"grid needs {needed} objects, structure has {actual}")


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


class Certified(Record):
    """One exact inequality between recomputable rational values."""

    name: str
    op: str
    lhs: Fraction
    rhs: Fraction

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown relation {self.op!r}")

    @property
    def holds(self) -> bool:
        return _OPS[self.op](self.lhs, self.rhs)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "op": self.op,
                "lhs": rational_to_json(self.lhs),
                "rhs": rational_to_json(self.rhs),
                "holds": self.holds}


def _bool_cert(name: str, ok: bool) -> Certified:
    return Certified(name, "==", Fraction(1 if ok else 0), Fraction(1))


def _require(checks: Sequence[Certified]) -> None:
    """Raise PreconditionFailed for the first check that does not hold."""
    for check in checks:
        if not check.holds:
            raise PreconditionFailed(check.name, check.op, check.lhs,
                                     check.rhs)


class WitnessReport(Record):
    """A report as the builders return it.  The inputs it was built from
    are recorded by build_report, which resolved them."""

    theorem: str
    witness: dict
    certified: tuple[Certified, ...]
    log: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.certified)

    def to_json_dict(self) -> dict:
        return {"theorem": self.theorem,
                "witness": self.witness,
                "certified": [c.to_json_dict() for c in self.certified],
                "log": list(self.log)}


# ---------------------------------------------------------------------------
# Resolved structures, greedy colourings and the measure-algebra self-test
# ---------------------------------------------------------------------------

def _describe(sjson: dict) -> str:
    if sjson["kind"] == "hypergraph":
        return (f"hypergraph with n={sjson['n']}, r={sjson['r']} "
                f"and {len(sjson['edges'])} edges")
    return (f"parameterized equivalence with {sjson['objects']} objects "
            f"and {sjson['parameters']} parameters")


def gen_witness(spec: str) -> WitnessReport:
    """Resolve a structure spec and certify it: freeness and maximality
    for gen, freeness and the alpha target for searchalpha.

    The witness embeds the structure's JSON and its digest, made once.
    digest-match and embedded-match hold by construction: verify rebuilds
    the witness and requires its digest and structure to equal the
    recorded ones, so a report whose digest does not match its structure,
    or whose structure is not the spec's, fails there.
    """
    structure = parse_structure_spec(spec)
    head, fields = parse_spec_fields(spec)
    checks = []
    if head == "gen":
        s = fields["s"]
        checks.append(_bool_cert("free", is_free(structure, s)))
        checks.append(_bool_cert("maximal-free",
                                 is_maximal_free(structure, s)))
    elif head == "searchalpha":
        s = fields["s"]
        checks.append(_bool_cert("free", is_free(structure, s)))
        checks.append(Certified("alpha-target", "<=",
                                Fraction(alpha_s(structure, s).value),
                                Fraction(fields["target"])))
    sjson = structure_to_json(structure)
    certified = [_bool_cert("digest-match", True),
                 _bool_cert("embedded-match", True), *checks]
    return WitnessReport(
        theorem="gen",
        witness={"spec": spec, "digest": digest(sjson), "structure": sjson},
        certified=tuple(certified),
        log=(f"resolved {spec} to a {_describe(sjson)}",))


def color_witness(wh: WeightedHypergraph, brute: bool) -> WitnessReport:
    """Certify that the greedy colouring splits at least (r!/r^r) * w(V);
    brute also enumerates every colouring and certifies that the best
    split is at least the greedy one and that the average is the bound."""
    coloring = greedy_coloring(wh)
    weight = weight_of(wh, coloring)
    bound = guarantee_value(wh)
    certified = [Certified("greedy-bound", ">=", weight, bound)]
    brute_payload = None
    if brute:
        result = brute_best(wh)
        brute_payload = {
            "best_coloring": list(result.best_coloring),
            "best_weight": rational_to_json(result.best_weight),
            "average_weight": rational_to_json(result.average_weight),
            "colorings": result.colorings,
        }
        certified.append(Certified("brute-ge-greedy", ">=",
                                   result.best_weight, weight))
        certified.append(Certified("average-identity", "==",
                                   result.average_weight, bound))
    return WitnessReport(
        theorem="coloring-bound",
        witness={"coloring": list(coloring),
                 "weight": rational_to_json(weight),
                 "guarantee": rational_to_json(bound),
                 "total_weight": rational_to_json(wh.total_weight),
                 "brute": brute_payload},
        certified=tuple(certified),
        log=(f"greedy colouring splits weight {weight} "
             f"of {wh.total_weight}",
             f"guarantee (r!/r^r)*w(V) = {bound}"))


# each case draws and compares a few random measures (about 0.6 ms); the
# largest count in use is 100
_MAX_SELFTEST_CASES = 10_000


def measures_witness(seed: int, cases: int) -> WitnessReport:
    """Run the seeded measure-algebra self-test and certify that every
    check passed on every case."""
    if cases < 1:
        raise FormatError("--cases must be positive")
    if cases > _MAX_SELFTEST_CASES:
        raise FormatError(f"--cases {cases} may not exceed "
                          f"{_MAX_SELFTEST_CASES}")
    outcome = measure_algebra_selftest(seed, cases)
    return WitnessReport(
        theorem="measure-algebra",
        witness={"seed": seed, "cases": cases,
                 "passed": dict(outcome.passed)},
        certified=tuple(Certified(check, "==",
                                  Fraction(outcome.passed[check]),
                                  Fraction(cases))
                        for check in SELFTEST_CHECKS),
        log=(f"ran {cases} seeded random measure cases",))


# ---------------------------------------------------------------------------
# Average approximation of the isolated-vertex type (graph case)
# ---------------------------------------------------------------------------

def _select_profile(analysis) -> int:
    """Among generic disjuncts prefer fewest forbidden edges, then fewest
    inequalities, so the certified violation bound is smallest."""
    generics = analysis.generic_indices
    if not generics:
        raise ValueError("no disjunct is satisfiable by an isolated vertex")
    return min(generics, key=lambda t: (len(analysis.profiles[t].neg_edge),
                                        len(analysis.profiles[t].neq), t))


# the branch and bound of alpha_s on the sample graph; the largest count in
# use is 250 (an edgeless 250-vertex graph), and 10^4 nodes take about
# 0.4 s on a 1,000-vertex graph
_MAX_ALPHA_NODES = 10_000
# the embedding search when --budget is absent; the largest count in use is
# 3,811 nodes, and 10^6 nodes take about 3.5 s
_MAX_EMBED_NODES = 10 ** 6


def fam_witness(phi: PhiPartition, epsilon: Fraction, ambient: Hypergraph,
                graph: Hypergraph, s: int = 3, *,
                embed_budget: Optional[int] = None) -> WitnessReport:
    """Certify that the average over an embedded copy of the sample graph
    approximates the isolated-vertex type on the formula.

    The sample graph must be small-alpha relative to the requested
    accuracy: n > 2*ell/epsilon and alpha_s(graph) < (epsilon/2k) * n for
    the chosen disjunct, else PreconditionFailed.  When no disjunct of phi
    is satisfiable by an isolated vertex the experiment runs on the
    negation and certifies the complementary values.

    The embedding search stops after embed_budget nodes, _MAX_EMBED_NODES
    when none is given.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if ambient.r != 2 or graph.r != 2:
        raise ValueError("experiment is defined over graphs (r = 2)")
    if s < 3:
        raise ValueError("s must be at least 3")
    if graph.n == 0:
        raise ValueError("sample graph needs at least one vertex")
    budget = _MAX_EMBED_NODES if embed_budget is None else embed_budget
    if not 1 <= budget <= _MAX_EMBED_NODES:
        raise FormatError(f"--budget {budget} must lie in "
                          f"1..{_MAX_EMBED_NODES}")

    analysis = analyze_phi(phi)
    negated = not analysis.generic_indices
    if negated:
        analysis = analyze_phi(PhiPartition(Not(phi.formula),
                                            phi.object_arity,
                                            phi.param_arity))
    t_star = _select_profile(analysis)
    profile = analysis.profiles[t_star]
    k = len(profile.neg_edge)
    ell = len(profile.neq)
    n = graph.n
    alpha = alpha_s(graph, s, _MAX_ALPHA_NODES)
    if not alpha.exact:
        raise FormatError(f"alpha_s of the sample graph did not finish "
                          f"within {_MAX_ALPHA_NODES} nodes")
    sample_size = Certified("sample-size", ">", Fraction(n),
                            Fraction(2 * ell) / epsilon)
    alpha_bound = ([Certified("alpha-bound", "<", Fraction(alpha.value),
                              epsilon * n / (2 * k))] if k > 0 else [])
    pattern_free = _bool_cert("pattern-free", is_free(graph, s))
    ambient_free = _bool_cert("ambient-free", is_free(ambient, s))

    _require([sample_size, *alpha_bound, pattern_free, ambient_free])
    m = analysis.phi.param_arity
    # m is bounded before n is raised to it: a huge m would take long to
    # raise to, and every scanned tuple has m entries
    if m > _MAX_PARAM_ARITY:
        raise FormatError(f"{m} parameters may not exceed {_MAX_PARAM_ARITY}")
    if ambient.n ** m > _DOMAIN_CAP:
        raise ValueError(
            f"parameter domain of size {ambient.n}^{m} exceeds {_DOMAIN_CAP}")
    embedding = embed_search(graph, ambient, budget=budget)
    if embedding.mapping is None:
        raise EmbeddingNotFound(embedding.exhausted, embedding.nodes)
    abar = embedding.mapping
    induced = _bool_cert("embedding-induced",
                         is_induced_embedding(graph, ambient, abar))

    z_cap = Fraction(ell + k * alpha.value)
    scan = sup_error(
        analysis, ambient, abar, t_star, epsilon=epsilon,
        certified_bound=(z_cap / n if not profile.residual else None))
    certified = [
        ambient_free, pattern_free, induced, sample_size, *alpha_bound,
        Certified("sup-error", "<", scan.sup_error, epsilon),
        Certified("violation-bound", "<=", Fraction(scan.violation_max),
                  z_cap),
    ]
    witness = {
        "phi": format_formula(phi.formula),
        "object_arity": phi.object_arity,
        "param_arity": phi.param_arity,
        "negated": negated,
        "epsilon": rational_to_json(epsilon),
        "s": s,
        "graph_n": n,
        "embedding": list(abar),
        "profile": {
            "index": t_star,
            "neg_edge": sorted(profile.neg_edge),
            "neq": sorted(profile.neq),
            "pos_edge": sorted(profile.pos_edge),
            "eq": sorted(profile.eq),
            "residual": (format_formula(And(tuple(
                lit.formula() for lit in profile.residual)))
                if profile.residual else None),
        },
        "k": k,
        "ell": ell,
        "alpha": {"value": alpha.value, "witness": sorted(alpha.witness)},
        "sup": scan.to_json_dict(),
        "violation_max": {"count": scan.violation_max,
                          "params": (list(scan.violation_params)
                                     if scan.violation_params is not None
                                     else None)},
    }
    log = [
        f"formula splits into {len(analysis.profiles)} disjuncts, "
        f"{len(analysis.generic_indices)} generic",
        f"negation branch taken: {negated}",
        f"chose disjunct {t_star} with k={k}, ell={ell}",
        f"alpha_s(pattern, {s}) = {alpha.value}",
        f"embedding found after {embedding.nodes} nodes",
        f"exhaustive scan of {scan.samples_scanned} parameter tuples",
    ]
    return WitnessReport(
        theorem="famnotfim",
        witness=witness,
        certified=tuple(certified),
        log=tuple(log),
    )


# ---------------------------------------------------------------------------
# Order witness: an alternating link pattern over an independent chain
# ---------------------------------------------------------------------------

# one extension of 2q + 1 vertices, a copy of the edge set plus q links;
# the largest q in use is 60
_MAX_ORDER_Q = 1_000


def _extended_free(ambient_free: Certified) -> Certified:
    """extended-free of an extension that add_vertex_with_links returned.

    An extension of a free ambient is free iff no s-clique passes through
    the linked vertex (the isolated ones lie in no edge), and
    add_vertex_with_links searches exactly those (it raises
    FreenessViolation on one).  So the certified ambient-free and the
    search having returned prove it, without a second global search.
    """
    return _bool_cert("extended-free", ambient_free.holds)


def order_witness(ambient: Hypergraph, s: int, q: int) -> WitnessReport:
    """Extend the ambient graph by 2q pairwise non-adjacent vertices and a
    vertex linked to exactly the even-indexed ones, certifying the
    alternating pattern and that freeness survives.

    The added chain is independent and the last vertex links only to chain
    vertices, so for s >= 3 no extension can complete a clique.
    """
    if ambient.r != 2:
        raise ValueError("order witness is defined over graphs")
    if s < 3:
        raise ValueError("s must be at least 3")
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q > _MAX_ORDER_Q:
        raise FormatError(f"q = {q} may not exceed {_MAX_ORDER_Q}")
    ambient_free = _bool_cert("ambient-free", is_free(ambient, s))
    _require([ambient_free])
    chain = list(range(ambient.n, ambient.n + 2 * q))
    star: Optional[int] = None
    adjacency: list[bool] = []
    if q > 0:
        links = [(chain[i],) for i in range(2 * q) if (i + 1) % 2 == 0]
        extended = add_vertex_with_links(ambient, links, s, isolated=2 * q)
        star = extended.n - 1
        adjacency = [extended.has_edge((chain[i], star))
                     for i in range(2 * q)]
    matches = sum(1 for i in range(2 * q)
                  if adjacency[i] == ((i + 1) % 2 == 0))
    certified = [
        ambient_free,
        Certified("alternation", "==", Fraction(matches), Fraction(2 * q)),
        _extended_free(ambient_free),
    ]
    log = ([f"added {2 * q} isolated vertices and one linked to the "
            f"{q} even positions"] if q > 0
           else ["q = 0: degenerate report, no extension made"])
    return WitnessReport(
        theorem="order",
        witness={"s": s, "q": q, "base_n": ambient.n, "chain": chain,
                 "witness_vertex": star, "adjacency": adjacency},
        certified=tuple(certified),
        log=tuple(log),
    )


# ---------------------------------------------------------------------------
# Adversary witness: one vertex falsifying the no-edge formula often
# ---------------------------------------------------------------------------

def adversary_fraction(r: int) -> Fraction:
    """Guaranteed violated fraction (r-1)! / (r-1)^(r-1); 1/2 at r = 3."""
    return Fraction(factorial(r - 1), (r - 1) ** (r - 1))


def _no_edge_formula(r: int) -> PhiPartition:
    xs = tuple(ObjectVar(i) for i in range(1, r))
    parts: list = [Not(Rel("R", xs + (ParamVar(1),)))]
    for i, j in itertools.combinations(range(r - 1), 2):
        parts.append(Not(Eq(xs[i], xs[j])))
    return PhiPartition(And(tuple(parts)), r - 1, 1)


# each tuple is a weight in the colouring and a formula evaluation on the
# extension; the largest count in use is 30
_MAX_ADVERSARY_TUPLES = 1_000
# the greedy colouring links every colour-split (r-1)-set of the V distinct
# tuple vertices, C(V, r - 1) candidates; r = 3 at the tuple cap gives
# C(2000, 2) = 1,999,000
_MAX_SPLIT_SETS = 2_000_000


def _check_tuple_count(n: int) -> None:
    """Refuse more adversary tuples than the cap, before any is drawn."""
    if n > _MAX_ADVERSARY_TUPLES:
        raise FormatError(f"{n} tuples may not exceed "
                          f"{_MAX_ADVERSARY_TUPLES}")


def _draw_tuples(seed: int, n: int,
                 ambient: Hypergraph) -> list[tuple[int, ...]]:
    """An adversary's n tuples of r - 1 ambient vertices, r the ambient's
    arity, drawn from the generator seeded with --seed."""
    if n < 1:
        raise FormatError("--n must be positive")
    _check_tuple_count(n)
    if ambient.n == 0:
        raise FormatError("ambient has no vertices to draw tuples from")
    rng = random.Random(seed)
    return [tuple(rng.randrange(ambient.n) for _ in range(ambient.r - 1))
            for _ in range(n)]


def adversary_witness(tuples: Sequence[Sequence[int]], ambient: Hypergraph,
                      s: int) -> WitnessReport:
    """Attach one fresh vertex whose links are the colour-split (r-1)-sets
    of a greedy colouring, so that the no-edge formula fails on at least
    the guaranteed fraction of the input tuples.

    Tuples with repeated entries count as violations outright.  The links
    cannot complete an s-clique (more pairwise distinct colours would be
    needed than exist).
    """
    r = ambient.r
    if r < 3:
        raise ValueError("adversary construction needs arity at least 3; "
                         "the graph case is covered by the average "
                         "approximation experiment")
    if s <= r:
        raise ValueError("s must exceed the arity")
    if not tuples:
        raise ValueError("at least one input tuple is required")
    _check_tuple_count(len(tuples))
    arity = r - 1
    clean: list[tuple[int, ...]] = []
    for t in tuples:
        t = tuple(int(v) for v in t)
        if len(t) != arity:
            raise ValueError(f"tuple {t} does not have arity {arity}")
        if any(not 0 <= v < ambient.n for v in t):
            raise ValueError(f"tuple {t} out of range")
        clean.append(t)

    ambient_free = _bool_cert("ambient-free", is_free(ambient, s))
    _require([ambient_free])
    distinct = [t for t in clean if len(set(t)) == arity]
    m = len(distinct)
    vertices = sorted({v for t in distinct for v in t})
    index = {v: i for i, v in enumerate(vertices)}
    weights: dict[tuple[int, ...], int] = {}
    for t in distinct:
        key = tuple(sorted(index[v] for v in t))
        weights[key] = weights.get(key, 0) + 1
    wh = WeightedHypergraph(len(vertices), arity, tuple(weights.items()))
    sets = comb(len(vertices), arity)
    if sets > _MAX_SPLIT_SETS:
        raise FormatError(f"C({len(vertices)}, {arity}) = {sets} split "
                          f"sets may not exceed {_MAX_SPLIT_SETS}")
    coloring = greedy_coloring(wh)
    links = [tuple(vertices[i] for i in combo)
             for combo in itertools.combinations(range(len(vertices)), arity)
             if len({coloring[i] for i in combo}) == arity]
    w_chi = weight_of(wh, coloring)
    target = adversary_fraction(r)
    extended = add_vertex_with_links(ambient, links, s)
    star = extended.n - 1
    phi = _no_edge_formula(r)
    violations = [
        not evaluate(extended, phi.formula, make_assignment(t, (star,)))
        for t in clean]
    fraction = Fraction(sum(violations), len(clean))

    certified = [
        ambient_free,
        Certified("coloring-weight", ">=", w_chi, target * m),
        _extended_free(ambient_free),
        Certified("violated-fraction", ">=", fraction, target),
    ]
    witness = {"r": r, "s": s, "tuples": [list(t) for t in clean],
               "coloring": list(coloring),
               "links": [list(l) for l in links],
               "witness_vertex": star,
               "violations": [int(v) for v in violations],
               "fraction": rational_to_json(fraction),
               "coloring_weight": rational_to_json(w_chi),
               "distinct_count": m,
               "vertices": vertices}
    log = [
        f"{len(clean)} tuples, {m} with distinct entries over "
        f"{len(vertices)} vertices",
        f"greedy colouring splits weight {w_chi} of {m}",
        f"witness vertex {star} linked to {len(links)} split sets",
    ]
    return WitnessReport(
        theorem="dfsnotfim-adversary",
        witness=witness,
        certified=tuple(certified),
        log=tuple(log),
    )


# ---------------------------------------------------------------------------
# Satisfiability probe for the no-edge formula
# ---------------------------------------------------------------------------

def _draw_subset(rng: random.Random, n: int, m_size: int) -> list[int]:
    """A satprobe's designated subset: the first draw of the generator
    seeded with --seed."""
    if not 1 <= m_size <= n:
        raise FormatError(f"--m-size must lie in 1..{n} for this ambient")
    return sorted(rng.sample(range(n), m_size))


def _probe_once(ambient: Hypergraph, subset: Sequence[int],
                params: Sequence[int]) -> Optional[list[int]]:
    """The first combination of the subset, distinct by construction,
    with no edge through it and any parameter; None if there is none."""
    arity = ambient.r - 1
    for combo in itertools.combinations(subset, arity):
        if all(not ambient.has_edge(combo + (b,)) for b in params):
            return list(combo)
    return None


# each trial draws n_params parameters and scans the subset's tuples
# against them; the largest values in use are 5 trials of 2 parameters
_MAX_PROBE_TRIALS = 1_000
_MAX_PROBE_PARAMS = 100
# trials x C(m, r - 1) tuples x max(1, n_params) edge lookups; the largest
# scan in use is 5 x C(12, 2) x 2 = 660
_MAX_PROBE_SCAN = 10 ** 7


def _check_probe_size(trials: int, n_params: int) -> None:
    if trials > _MAX_PROBE_TRIALS or n_params > _MAX_PROBE_PARAMS:
        raise FormatError(
            f"{trials} trials of {n_params} parameters may not exceed "
            f"{_MAX_PROBE_TRIALS} trials of {_MAX_PROBE_PARAMS}")


def _check_probe_scan(trials: int, m: int, arity: int, n_params: int) -> None:
    scan = trials * comb(m, arity) * max(1, n_params)
    if scan > _MAX_PROBE_SCAN:
        raise FormatError(
            f"{trials} trials over C({m}, {arity}) tuples and {n_params} "
            f"parameters make {scan} lookups, which may not exceed "
            f"{_MAX_PROBE_SCAN}")


def sat_probe(ambient: Hypergraph, subset: Sequence[int],
              params: Optional[Sequence[int]] = None, *,
              trials: Optional[int] = None, n_params: Optional[int] = None,
              seed: Optional[int] = None) -> WitnessReport:
    """Search a designated vertex subset for a distinct (r-1)-tuple with no
    edge through any of the parameters of each draw.

    The draws are the explicit params, one draw, or trials seeded random
    draws of n_params parameters.  Each is scanned exhaustively; a miss is
    an ordinary outcome at finite scale, so the report records each hit
    or miss and the success rate.  A hit is valid because the probe found
    it, and verify probes every draw again.
    """
    subset = sorted({int(v) for v in subset})
    if any(not 0 <= v < ambient.n for v in subset):
        raise ValueError("subset out of range")
    arity = ambient.r - 1

    if params is not None:
        params = [int(b) for b in params]
        if any(not 0 <= b < ambient.n for b in params):
            raise ValueError("parameters out of range")
        _check_probe_scan(1, len(subset), arity, len(params))
        mode, trials, n_params, seed = "single", 1, len(params), None
        draws = [params]
    else:
        if trials is None or n_params is None or seed is None:
            raise ValueError("aggregate mode needs trials, n_params and seed")
        if trials < 1 or n_params < 0:
            raise ValueError(
                "trials must be positive and n_params nonnegative")
        _check_probe_size(trials, n_params)
        _check_probe_scan(trials, len(subset), arity, n_params)
        if ambient.n == 0 and n_params > 0:
            raise ValueError("cannot draw parameters from an empty host")
        rng = random.Random(seed)
        mode = "aggregate"
        draws = [[rng.randrange(ambient.n) for _ in range(n_params)]
                 for _ in range(trials)]

    hits = [_probe_once(ambient, subset, draw) for draw in draws]
    results = [{"params": draw, "found": hit is not None, "witness": hit}
               for draw, hit in zip(draws, hits)]
    found = sum(entry["found"] for entry in results)
    seeded = "" if seed is None else "seeded "
    return WitnessReport(
        theorem="dfsnotfim-sat",
        witness={"mode": mode, "m_subset": subset, "trials": trials,
                 "n_params": n_params, "seed": seed, "results": results,
                 "success_rate": rational_to_json(Fraction(found, trials))},
        certified=(Certified("witnesses-valid", "==", Fraction(found),
                             Fraction(found)),),
        log=(f"{found} of {trials} {seeded}parameter draws admit a "
             f"witness",))


# ---------------------------------------------------------------------------
# Two-dimensional inconsistency grid over parameterized equivalences
# ---------------------------------------------------------------------------

# each same-row pair and each checked path is read off an AND of cell
# bitsets of `parameters` bits, so (row pairs + paths) x parameters bounds
# the bits those ANDs read; the largest in use is tp2 --k 5, all paths,
# (50 + 3,125) x 3,125 = 9,921,875
_MAX_GRID_SCAN = 10 ** 7


def _check_grid_size(k: int, parameters: Optional[int],
                     paths: Optional[int] = None) -> None:
    """Refuse k outside 1.._MAX_GRID_K, the constructor's cap, then a scan
    of (row pairs + paths) x parameters beyond _MAX_GRID_SCAN; paths=None
    counts all k^k paths, and parameters=None the k^k parameters of the
    constructor's grid.  Nothing is listed before both checks pass."""
    if k < 1:
        raise FormatError("k must be at least 1")
    if k > _MAX_GRID_K:
        raise FormatError(f"k = {k} may not exceed {_MAX_GRID_K}")
    row_pairs = k * k * (k - 1) // 2
    paths = k ** k if paths is None else paths
    parameters = k ** k if parameters is None else parameters
    if (row_pairs + paths) * parameters > _MAX_GRID_SCAN:
        raise FormatError(
            f"{row_pairs} row pairs and {paths} paths over {parameters} "
            f"parameters may not exceed {_MAX_GRID_SCAN} checks")


def _lowest_bit(bits: int) -> Optional[int]:
    return (bits & -bits).bit_length() - 1 if bits else None


def tp2_witness(f: Feq2Structure, k: int, sample: Optional[int] = None,
                seed: Optional[int] = None) -> WitnessReport:
    """Certify the two-dimensional pattern on a k-grid: cells of one row
    are pairwise 2-inconsistent relative to the row target, while every
    checked path through the grid is realized by a single parameter.

    sample=None checks all k^k paths; otherwise `sample` distinct paths
    are drawn with the seed.  Bit z of cells[i][j] is set iff parameter
    z makes cell (i, j) the row target's mate: blocks have at most two
    objects, so iff the two share a class.  A row pair fails, and a
    path is realized, at the lowest bit of the AND of its cells, the
    least z that an ascending scan of the parameters would find.
    """
    _check_grid_size(k, f.parameters, sample)
    if f.objects < k * k + k:
        raise GridTooSmall(k * k + k, f.objects)
    total = k ** k
    if sample is None:
        codes = range(total)
    else:
        if seed is None:
            raise ValueError("sampling paths requires a seed")
        if not 1 <= sample <= total:
            raise ValueError(f"sample must lie in 1..{total}")
        codes = sorted(random.Random(seed).sample(range(total), sample))
    # base-k codes, first row most significant: ascending is lexicographic
    paths = [[code // k ** (k - 1 - i) % k for i in range(k)]
             for code in codes]
    cells = []
    for i in range(k):
        target, first, row = grid_target(k, i), grid_object(k, i, 0), [0] * k
        for z, mate in enumerate(f.mates):
            j = mate[target] - first
            if 0 <= j < k:
                row[j] |= 1 << z
        cells.append(row)
    # a row failure would put the target in a class of three, which no
    # valid structure has; rows-inconsistent is still computed and reported
    row_pairs = k * k * (k - 1) // 2
    row_failures = [[i, j1, j2, z] for i, row in enumerate(cells)
                    for j1, j2 in itertools.combinations(range(k), 2)
                    if (z := _lowest_bit(row[j1] & row[j2])) is not None]
    path_params: list[Optional[int]] = []
    for path in paths:
        common = -1
        for row, j in zip(cells, path):
            common &= row[j]
        path_params.append(_lowest_bit(common))
    consistent = sum(1 for w in path_params if w is not None)
    certified = [
        Certified("rows-inconsistent", "==",
                  Fraction(row_pairs - len(row_failures)),
                  Fraction(row_pairs)),
        Certified("paths-consistent", "==", Fraction(consistent),
                  Fraction(len(paths))),
    ]
    sample_info = None if sample is None else {"seed": seed, "count": sample}
    witness = {"k": k, "sample": sample_info, "checked_paths": paths,
               "row_pairs": row_pairs, "row_failures": row_failures,
               "path_params": path_params}
    log = [f"checked {row_pairs} same-row pairs and "
           f"{len(paths)} of {k ** k} paths"]
    return WitnessReport(
        theorem="tp2",
        witness=witness, certified=tuple(certified), log=tuple(log))


# ---------------------------------------------------------------------------
# The pipeline table: every report tag, the kind of each input and where
# its config says it comes from, and its request function
# ---------------------------------------------------------------------------

def _sources(kind: Optional[str] = None, **keys):
    """sources(config) of inputs of one kind, the source of input name
    being config[keys[name]]: each name's (kind, source)."""
    return lambda config: {name: (kind, config[key])
                           for name, key in keys.items()}


def _tp2_sources(config) -> dict:
    if "input" not in config:
        # the default grid's scan is refused before the grid is built
        _check_grid_size(config["k"], None, config.get("sample"))
    return {"structure": ("feq2",
                          config.get("input", f"tp2grid:{config['k']}"))}


def _gen_request(config, inputs) -> WitnessReport:
    return gen_witness(config["spec"])


def _color_request(config, inputs) -> WitnessReport:
    return color_witness(inputs["weighted"], config["brute"])


def _measures_request(config, inputs) -> WitnessReport:
    return measures_witness(config["seed"], config["cases"])


def _fam_request(config, inputs) -> WitnessReport:
    try:
        phi = parse_phi(config["phi"])
    except ParseError as exc:
        raise FormatError(f"--phi: {exc}") from None
    return fam_witness(phi, parse_rational(config["epsilon"]),
                       inputs["ambient"], inputs["graph"], config["s"],
                       embed_budget=config.get("budget"))


def _order_request(config, inputs) -> WitnessReport:
    return order_witness(inputs["ambient"], config["s"], config["q"])


def _adversary_request(config, inputs) -> WitnessReport:
    ambient = inputs["ambient"]
    tuples = _draw_tuples(config["seed"], config["n"], ambient)
    return adversary_witness(tuples, ambient, config["s"])


def _sat_request(config, inputs) -> WitnessReport:
    ambient = inputs["ambient"]
    rng = random.Random(config["seed"])
    subset = _draw_subset(rng, ambient.n, config["m_size"])
    if "params" in config:
        if "trials" in config or "n_params" in config:
            raise FormatError("--params excludes --trials/--n-params")
        return sat_probe(ambient, subset,
                         parse_int_list(config["params"], "--params"))
    if "n_params" not in config:
        raise FormatError("need --params or --n-params")
    # the probe seed is the next draw after the subset
    return sat_probe(ambient, subset, trials=config.get("trials", 1),
                     n_params=config["n_params"],
                     seed=rng.randrange(2 ** 63))


def _tp2_request(config, inputs) -> WitnessReport:
    return tp2_witness(inputs["structure"], config["k"],
                       config.get("sample"), config.get("seed"))


_AMBIENT = _sources("hypergraph", ambient="ambient")
# each entry: sources(config), the kind and source of each input the
# report names, and build(config, inputs)
PIPELINES = {
    "gen": (_sources(), _gen_request),
    "coloring-bound": (_sources("weighted-hypergraph", weighted="input"),
                       _color_request),
    "measure-algebra": (_sources(), _measures_request),
    "famnotfim": (_sources("hypergraph", ambient="ambient", graph="graph"),
                  _fam_request),
    "order": (_AMBIENT, _order_request),
    "dfsnotfim-adversary": (_AMBIENT, _adversary_request),
    "dfsnotfim-sat": (_AMBIENT, _sat_request),
    "tp2": (_tp2_sources, _tp2_request),
}


def _load(kind: str, source: str) -> tuple[object, str]:
    """Resolve an input source, a weights file or a structure spec, and
    refuse one of another kind: the input and its digest.  A structure's
    digest is taken of the JSON that its kind is read from."""
    if kind == "weighted-hypergraph":
        wh = load_weighted(source)
        return wh, digest(weighted_to_json(wh))
    structure = parse_structure_spec(source)
    sjson = structure_to_json(structure)
    if sjson["kind"] != kind:
        raise FormatError(f"{source} is a {sjson['kind']} structure where "
                          f"a {kind} is needed")
    return structure, digest(sjson)


def build_report(theorem: str, config: dict,
                 overrides: Optional[Mapping[str, str]] = None
                 ) -> tuple[WitnessReport, dict]:
    """The one path from a request to its report, for the runner and for
    verify.  It resolves each input the config names (an override changes
    only where one is read from, and must name one of them), refuses one
    of the wrong kind, builds through the tag's request function, and
    records each input as {kind, digest, source} with the config's
    source.  A precondition that fails yields the report of that failure.
    Returns the report and its JSON document; config is not written to."""
    sources, build = PIPELINES[theorem]
    named = sources(config)
    overrides = overrides or {}
    unknown = sorted(overrides.keys() - named.keys())
    if unknown:
        raise FormatError(f"--input {_shown(unknown[0])} is not an input of "
                          f"this report; its inputs are {sorted(named)}")
    inputs, entries = {}, {}
    for name, (kind, source) in named.items():
        inputs[name], sha = _load(kind, overrides.get(name, source))
        entries[name] = {"kind": kind, "digest": sha, "source": source}
    try:
        report = build(config, inputs)
    except PreconditionFailed as exc:
        report = exc.report(theorem)
    return report, {"config": config, "inputs": entries,
                    **report.to_json_dict()}
