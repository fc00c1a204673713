"""Finite-scale witness experiments and their certified reports.

Each experiment returns a WitnessReport: a payload describing the object
built, a list of certified exact inequalities, and a log.  Every
certified value can be recomputed from the payload and the input
structures alone, which is what the report verifier does.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Optional, Sequence

from ._record import Record
from .coloring import (brute_best, greedy_coloring, guarantee_value,
                       weight_of, weighted_hypergraph)
from .logic import (And, Eq, Not, ObjectVar, ParamVar, PhiAnalysis,
                    PhiPartition, Rel, analyze_phi, evaluate, format_formula,
                    make_assignment, parse_phi)
from .measures import SELFTEST_CHECKS, measure_algebra_selftest, sup_error
from .serialize import (FormatError, digest, parse_structure_spec,
                        rational_from_json, rational_to_json,
                        structure_digest, structure_to_json)
from .structures import (_MAX_GRID_K, AlphaResult, Feq2Structure,
                         FreenessViolation, Hypergraph, add_vertex_with_links,
                         alpha_s, embed_search, grid_object, grid_target,
                         is_free, is_induced_embedding, is_maximal_free)

_DOMAIN_CAP = 10 ** 6


class PreconditionFailed(Exception):
    """A stated precondition fails; carries the offending inequality."""

    def __init__(self, name: str, op: str, lhs: Fraction, rhs: Fraction):
        self.name = name
        self.op = op
        self.lhs = Fraction(lhs)
        self.rhs = Fraction(rhs)
        super().__init__(f"precondition {name}: {lhs} {op} {rhs} is false")

    def report(self, theorem: str,
               inputs: Mapping[str, object]) -> WitnessReport:
        """The report of a run on these input structures that stopped
        here: the failed inequality verbatim, which recompute_certified
        reads back."""
        payload = {"precondition_failed": self.name, "op": self.op,
                   "lhs": rational_to_json(self.lhs),
                   "rhs": rational_to_json(self.rhs)}
        return WitnessReport(
            theorem, {name: _input_entry(obj) for name, obj in inputs.items()},
            payload, (Certified(self.name, self.op, self.lhs, self.rhs),),
            (str(self),))


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
    theorem: str
    inputs: dict
    witness: dict
    certified: tuple[Certified, ...]
    log: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.certified)

    def to_json_dict(self) -> dict:
        return {"theorem": self.theorem,
                "inputs": self.inputs,
                "witness": self.witness,
                "certified": [c.to_json_dict() for c in self.certified],
                "log": list(self.log)}


def _input_entry(structure) -> dict:
    # one serialisation serves both the kind and the digest
    sjson = structure_to_json(structure)
    return {"kind": sjson["kind"],
            "digest": structure_digest(structure, sjson)}


# ---------------------------------------------------------------------------
# Resolved structures, greedy colourings and the measure-algebra self-test
# ---------------------------------------------------------------------------

def _gen_certified(spec: str, structure, recorded_digest: str,
                   embedded_digest: str) -> list[Certified]:
    certs = [
        _bool_cert("digest-match",
                   structure_digest(structure) == recorded_digest),
        _bool_cert("embedded-match", embedded_digest == recorded_digest),
    ]
    head = spec.split(":", 1)[0]
    if head == "gen":
        s = int(spec.split(":")[3])
        certs.append(_bool_cert("free", is_free(structure, s)))
        certs.append(_bool_cert("maximal-free", is_maximal_free(structure, s)))
    elif head == "searchalpha":
        fields = spec.split(":")
        s, target = int(fields[2]), int(fields[3])
        certs.append(_bool_cert("free", is_free(structure, s)))
        certs.append(Certified("alpha-target", "<=",
                               Fraction(alpha_s(structure, s).value),
                               Fraction(target)))
    return certs


def _recompute_gen(witness: dict, inputs: Mapping[str, object]):
    # digest-match from the regenerated structure, embedded-match from
    # the JSON the report embeds: two independent digests
    structure = parse_structure_spec(witness["spec"])
    return _gen_certified(witness["spec"], structure, witness["digest"],
                          digest(witness["structure"]))


def _color_certified(wh, coloring, with_brute: bool):
    weight = weight_of(wh, coloring)
    bound = guarantee_value(wh)
    certs = [Certified("greedy-bound", ">=", weight, bound)]
    brute_payload = None
    if with_brute:
        result = brute_best(wh)
        brute_payload = {
            "best_coloring": list(result.best_coloring),
            "best_weight": rational_to_json(result.best_weight),
            "average_weight": rational_to_json(result.average_weight),
            "colorings": result.colorings,
        }
        certs.append(Certified("brute-ge-greedy", ">=",
                               result.best_weight, weight))
        certs.append(Certified("average-identity", "==",
                               result.average_weight, bound))
    return certs, weight, bound, brute_payload


def _recompute_color(witness: dict, inputs: Mapping[str, object]):
    wh = inputs["weighted"]
    coloring = tuple(int(c) for c in witness["coloring"])
    certs, _, _, _ = _color_certified(wh, coloring,
                                      witness.get("brute") is not None)
    return certs


# each case draws and compares a few random measures (about 0.6 ms); the
# largest count in use is 100
_MAX_SELFTEST_CASES = 10_000


def _measures_certified(seed: int, cases: int):
    if cases < 1:
        raise FormatError("--cases must be positive")
    if cases > _MAX_SELFTEST_CASES:
        raise FormatError(f"--cases {cases} may not exceed "
                          f"{_MAX_SELFTEST_CASES}")
    outcome = measure_algebra_selftest(seed, cases)
    certs = [Certified(check, "==", Fraction(outcome.passed[check]),
                       Fraction(cases))
             for check in SELFTEST_CHECKS]
    return certs, outcome


def _recompute_measures(witness: dict, inputs: Mapping[str, object]):
    certs, _ = _measures_certified(int(witness["seed"]),
                                   int(witness["cases"]))
    return certs


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


class _FamSetup(Record):
    """What the fam experiment knows before an embedding is chosen."""

    analysis: PhiAnalysis
    t_star: int
    alpha: AlphaResult
    checks: tuple[Certified, ...]  # the preconditions, in the order tried


def _negation(phi: PhiPartition) -> PhiPartition:
    return PhiPartition(Not(phi.formula), phi.object_arity, phi.param_arity)


# the branch and bound of alpha_s on the sample graph; the largest count in
# use is 250 (an edgeless 250-vertex graph), and 10^4 nodes take about 2 s
# on a 1,000-vertex graph
_MAX_ALPHA_NODES = 10_000


def _fam_preconditions(analysis: PhiAnalysis, epsilon: Fraction,
                       ambient: Hypergraph, graph: Hypergraph,
                       s: int) -> _FamSetup:
    """Precondition stage of the experiment on the analysed working
    formula; shared by the runner and the verifier."""
    t_star = _select_profile(analysis)
    profile = analysis.profiles[t_star]
    k = len(profile.neg_edge)
    n = graph.n
    alpha = alpha_s(graph, s, _MAX_ALPHA_NODES)
    if not alpha.exact:
        raise FormatError(f"alpha_s of the sample graph did not finish "
                          f"within {_MAX_ALPHA_NODES} nodes")
    checks = [Certified("sample-size", ">", Fraction(n),
                        Fraction(2 * len(profile.neq)) / epsilon)]
    if k > 0:
        checks.append(Certified("alpha-bound", "<", Fraction(alpha.value),
                                epsilon * n / (2 * k)))
    checks.append(_bool_cert("pattern-free", is_free(graph, s)))
    checks.append(_bool_cert("ambient-free", is_free(ambient, s)))
    return _FamSetup(analysis, t_star, alpha, tuple(checks))


def _fam_certified(setup: _FamSetup, epsilon: Fraction, ambient: Hypergraph,
                   graph: Hypergraph, abar: Sequence[int]):
    """Scan stage: certified values computed from the embedded points
    alone; shared by the runner and the verifier.  An embedding that is
    not induced (only a recorded one can be) stops the stage there."""
    work = setup.analysis.phi
    profile = setup.analysis.profiles[setup.t_star]
    k = len(profile.neg_edge)
    ell = len(profile.neq)
    n = graph.n
    alpha = setup.alpha
    m = work.param_arity
    if ambient.n ** m > _DOMAIN_CAP:
        raise ValueError(
            f"parameter domain of size {ambient.n}^{m} exceeds {_DOMAIN_CAP}")

    checks = {c.name: c for c in setup.checks}
    induced = _bool_cert("embedding-induced",
                         is_induced_embedding(graph, ambient, abar))
    certified = [checks["ambient-free"], checks["pattern-free"], induced]
    if not induced.holds:
        return certified, {}
    certified.append(checks["sample-size"])
    if k > 0:
        certified.append(checks["alpha-bound"])

    z_cap = Fraction(ell + k * alpha.value)
    scan = sup_error(
        setup.analysis, ambient, abar, setup.t_star, epsilon=epsilon,
        certified_bound=(z_cap / n if not profile.residual else None))
    certified.append(Certified("sup-error", "<", scan.sup_error, epsilon))
    certified.append(Certified("violation-bound", "<=",
                               Fraction(scan.violation_max), z_cap))

    details = {
        "profile": {
            "index": setup.t_star,
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
    return certified, details


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

    analysis = analyze_phi(phi)
    negated = not analysis.generic_indices
    if negated:
        analysis = analyze_phi(_negation(phi))
    setup = _fam_preconditions(analysis, epsilon, ambient, graph, s)
    _require(setup.checks)

    embedding = embed_search(graph, ambient, budget=embed_budget)
    if embedding.mapping is None:
        raise EmbeddingNotFound(embedding.exhausted, embedding.nodes)
    abar = embedding.mapping

    certified, details = _fam_certified(setup, epsilon, ambient, graph, abar)
    witness = {
        "phi": format_formula(phi.formula),
        "object_arity": phi.object_arity,
        "param_arity": phi.param_arity,
        "negated": negated,
        "epsilon": rational_to_json(epsilon),
        "s": s,
        "graph_n": graph.n,
        "embedding": list(abar),
        **details,
    }
    log = [
        f"formula splits into {len(analysis.profiles)} disjuncts, "
        f"{len(analysis.generic_indices)} generic",
        f"negation branch taken: {negated}",
        f"chose disjunct {details['profile']['index']} with "
        f"k={details['k']}, ell={details['ell']}",
        f"alpha_s(pattern, {s}) = {setup.alpha.value}",
        f"embedding found after {embedding.nodes} nodes",
        f"exhaustive scan of {details['sup']['samples_scanned']} "
        f"parameter tuples",
    ]
    return WitnessReport(
        theorem="famnotfim",
        inputs={"ambient": _input_entry(ambient),
                "graph": _input_entry(graph)},
        witness=witness,
        certified=tuple(certified),
        log=tuple(log),
    )


def _recompute_fam(witness: dict, inputs: Mapping[str, object]):
    phi = parse_phi(witness["phi"], witness["object_arity"],
                    witness["param_arity"])
    analysis = analyze_phi(_negation(phi) if witness["negated"] else phi)
    epsilon = rational_from_json(witness["epsilon"])
    ambient, graph = inputs["ambient"], inputs["graph"]
    setup = _fam_preconditions(analysis, epsilon, ambient, graph,
                               int(witness["s"]))
    certified, _ = _fam_certified(setup, epsilon, ambient, graph,
                                  tuple(witness["embedding"]))
    return certified


# ---------------------------------------------------------------------------
# Order witness: an alternating link pattern over an independent chain
# ---------------------------------------------------------------------------

# 2q + 1 extensions, each a new vertex and a copy of the edge set; the
# largest q in use is 60
_MAX_ORDER_Q = 1_000


def _order_certified(ambient: Hypergraph, s: int, q: int):
    if q > _MAX_ORDER_Q:
        raise FormatError(f"q = {q} may not exceed {_MAX_ORDER_Q}")
    ambient_free = _bool_cert("ambient-free", is_free(ambient, s))
    if not ambient_free.holds:
        return [ambient_free], {}  # the extension needs a free ambient
    chain = list(range(ambient.n, ambient.n + 2 * q))
    extended = ambient
    for _ in range(2 * q):
        extended = add_vertex_with_links(extended, [], s)
    star: Optional[int] = None
    adjacency: list[bool] = []
    if q > 0:
        links = [(chain[i],) for i in range(2 * q) if (i + 1) % 2 == 0]
        extended = add_vertex_with_links(extended, links, s)
        star = extended.n - 1
        adjacency = [extended.has_edge((chain[i], star))
                     for i in range(2 * q)]
    matches = sum(1 for i in range(2 * q)
                  if adjacency[i] == ((i + 1) % 2 == 0))
    certified = [
        ambient_free,
        Certified("alternation", "==", Fraction(matches), Fraction(2 * q)),
        _bool_cert("extended-free", is_free(extended, s)),
    ]
    details = {"chain": chain, "witness_vertex": star,
               "adjacency": adjacency}
    return certified, details


def order_witness(ambient: Hypergraph, s: int, q: int) -> WitnessReport:
    """Extend the ambient graph by 2q pairwise non-adjacent vertices and a
    vertex linked to exactly the even-indexed ones, certifying the
    alternating pattern and that freeness survives.

    The added chain is independent and the last vertex links only to chain
    vertices, so for s >= 3 no extension can complete a clique.  The report
    records no links, so verify re-derives the same extension and cannot
    meet a FreenessViolation either.
    """
    if ambient.r != 2:
        raise ValueError("order witness is defined over graphs")
    if s < 3:
        raise ValueError("s must be at least 3")
    if q < 0:
        raise ValueError("q must be nonnegative")
    certified, details = _order_certified(ambient, s, q)
    _require(certified[:1])  # ambient-free, the one precondition
    witness = {"s": s, "q": q, "base_n": ambient.n, **details}
    log = ([f"added {2 * q} isolated vertices and one linked to the "
            f"{q} even positions"] if q > 0
           else ["q = 0: degenerate report, no extension made"])
    return WitnessReport(
        theorem="order",
        inputs={"ambient": _input_entry(ambient)},
        witness=witness,
        certified=tuple(certified),
        log=tuple(log),
    )


def _recompute_order(witness: dict, inputs: Mapping[str, object]):
    certified, _ = _order_certified(inputs["ambient"], int(witness["s"]),
                                    int(witness["q"]))
    return certified


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


def _adversary_certified(ambient: Hypergraph, s: int, tuples: Sequence[tuple],
                         coloring: Optional[Sequence[int]] = None,
                         links: Optional[Sequence[tuple]] = None):
    """Certified values of the adversary construction; shared by the runner
    and the verifier.  Without a recorded coloring and links the greedy
    colouring and its split sets are chosen here."""
    _check_tuple_count(len(tuples))
    ambient_free = _bool_cert("ambient-free", is_free(ambient, s))
    if not ambient_free.holds:
        return [ambient_free], {}  # the extension needs a free ambient
    r = ambient.r
    arity = r - 1
    distinct = [t for t in tuples if len(set(t)) == arity]
    m = len(distinct)
    vertices = sorted({v for t in distinct for v in t})
    index = {v: i for i, v in enumerate(vertices)}
    weights: dict[tuple[int, ...], int] = {}
    for t in distinct:
        key = tuple(sorted(index[v] for v in t))
        weights[key] = weights.get(key, 0) + 1
    wh = weighted_hypergraph(len(vertices), arity,
                             ((key, Fraction(c)) for key, c in weights.items()))
    if coloring is None:
        sets = comb(len(vertices), arity)
        if sets > _MAX_SPLIT_SETS:
            raise FormatError(f"C({len(vertices)}, {arity}) = {sets} split "
                              f"sets may not exceed {_MAX_SPLIT_SETS}")
        coloring = greedy_coloring(wh)
        links = [tuple(vertices[i] for i in combo)
                 for combo in itertools.combinations(range(len(vertices)),
                                                     arity)
                 if len({coloring[i] for i in combo}) == arity]
    w_chi = weight_of(wh, coloring)
    target = adversary_fraction(r)
    weight = Certified("coloring-weight", ">=", w_chi, target * m)

    try:
        extended = add_vertex_with_links(ambient, links, s)
    except FreenessViolation:
        # only recorded links can get here (a tampered report): the split
        # sets chosen above never complete a clique
        return [ambient_free, weight,
                _bool_cert("extended-free", False)], {}
    star = extended.n - 1
    phi = _no_edge_formula(r)
    violations = [
        not evaluate(extended, phi.formula, make_assignment(t, (star,)))
        for t in tuples]
    fraction = Fraction(sum(violations), len(tuples))

    certified = [
        ambient_free,
        weight,
        _bool_cert("extended-free", is_free(extended, s)),
        Certified("violated-fraction", ">=", fraction, target),
    ]
    details = {"coloring": list(coloring),
               "links": [list(l) for l in links],
               "witness_vertex": star,
               "violations": [int(v) for v in violations],
               "fraction": rational_to_json(fraction),
               "coloring_weight": rational_to_json(w_chi),
               "distinct_count": m,
               "vertices": vertices}
    return certified, details


def adversary_witness(tuples: Sequence[Sequence[int]], ambient: Hypergraph,
                      s: int) -> WitnessReport:
    """Attach one fresh vertex whose links are the colour-split (r-1)-sets
    of a greedy colouring, so that the no-edge formula fails on at least
    the guaranteed fraction of the input tuples.

    Tuples with repeated entries count as violations outright.  The links
    cannot complete an s-clique (more pairwise distinct colours would be
    needed than exist).  Links edited into a report can: verify then
    certifies extended-free as failing.
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
    arity = r - 1
    clean: list[tuple[int, ...]] = []
    for t in tuples:
        t = tuple(int(v) for v in t)
        if len(t) != arity:
            raise ValueError(f"tuple {t} does not have arity {arity}")
        if any(not 0 <= v < ambient.n for v in t):
            raise ValueError(f"tuple {t} out of range")
        clean.append(t)

    certified, details = _adversary_certified(ambient, s, clean)
    _require(certified[:1])  # ambient-free, the one precondition
    witness = {"r": r, "s": s, "tuples": [list(t) for t in clean],
               **details}
    log = [
        f"{len(clean)} tuples, {details['distinct_count']} with distinct "
        f"entries over {len(details['vertices'])} vertices",
        f"greedy colouring splits weight "
        f"{rational_from_json(details['coloring_weight'])} "
        f"of {details['distinct_count']}",
        f"witness vertex {details['witness_vertex']} linked to "
        f"{len(details['links'])} split sets",
    ]
    return WitnessReport(
        theorem="dfsnotfim-adversary",
        inputs={"ambient": _input_entry(ambient)},
        witness=witness,
        certified=tuple(certified),
        log=tuple(log),
    )


def _recompute_adversary(witness: dict, inputs: Mapping[str, object]):
    certified, _ = _adversary_certified(
        inputs["ambient"], int(witness["s"]),
        [tuple(t) for t in witness["tuples"]],
        tuple(witness["coloring"]),
        [tuple(l) for l in witness["links"]])
    return certified


# ---------------------------------------------------------------------------
# Satisfiability probe for the no-edge formula
# ---------------------------------------------------------------------------

def _probe_once(ambient: Hypergraph, subset: Sequence[int],
                params: Sequence[int]) -> Optional[tuple[int, ...]]:
    arity = ambient.r - 1
    for combo in itertools.combinations(subset, arity):
        if all(not ambient.has_edge(combo + (b,)) for b in params):
            return combo
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


def _probe_draws(n: int, trials: int, n_params: int,
                 seed: int) -> list[list[int]]:
    """The parameters of each aggregate-mode trial, drawn from the seed;
    shared by the runner and the verifier."""
    rng = random.Random(seed)
    return [[rng.randrange(n) for _ in range(n_params)]
            for _ in range(trials)]


def _sat_certified(ambient: Hypergraph, witness: dict) -> list[Certified]:
    """Certified values of a probe from its recorded hits; shared by the
    runner and the verifier.  A hit is valid when it is a distinct
    (r-1)-tuple of the designated subset and no edge runs through it and
    any parameter of its draw.  Aggregate draws must be those of the
    recorded seed, trials and n_params."""
    subset = set(witness["m_subset"])

    def valid(hit, params) -> bool:
        hit = tuple(hit)
        return (len(set(hit)) == ambient.r - 1 and subset.issuperset(hit)
                and all(not ambient.has_edge(hit + (b,)) for b in params))

    if witness["mode"] == "single":
        if not witness["found"]:
            return []
        return [_bool_cert("witness-valid",
                           valid(witness["witness"], witness["params"]))]
    results = witness["results"]
    _check_probe_size(len(results),
                      max((len(entry["params"]) for entry in results),
                          default=0))
    trials, n_params = int(witness["trials"]), int(witness["n_params"])
    _check_probe_size(trials, n_params)
    if [entry["params"] for entry in results] != _probe_draws(
            ambient.n, trials, n_params, int(witness["seed"])):
        raise FormatError("recorded params are not the draws of the "
                          "recorded seed, trials and n_params")
    hits = [entry for entry in results if entry["found"]]
    ok = sum(1 for entry in hits if valid(entry["witness"], entry["params"]))
    return [Certified("witnesses-valid", "==", Fraction(ok),
                      Fraction(len(hits)))]


def sat_probe(ambient: Hypergraph, subset: Sequence[int],
              params: Optional[Sequence[int]] = None, *,
              trials: Optional[int] = None, n_params: Optional[int] = None,
              seed: Optional[int] = None) -> WitnessReport:
    """Search a designated vertex subset for a distinct (r-1)-tuple with no
    edge through any of the parameters.

    With explicit params a single exhaustive scan runs; a miss is an
    ordinary outcome at finite scale.  Aggregate mode (trials, n_params,
    seed) draws seeded random parameter sets and reports the success rate
    instead of asserting one.
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
        found = _probe_once(ambient, subset, params)
        witness = {"mode": "single", "m_subset": subset,
                   "params": list(params),
                   "found": found is not None,
                   "witness": list(found) if found is not None else None}
        if found is not None:
            log = [f"witness {list(found)} avoids edges through "
                   f"{len(params)} parameters"]
        else:
            log = [f"no {arity}-tuple in a subset of {len(subset)} avoids "
                   f"all {len(params)} parameters; honest miss at this scale"]
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
        results = []
        for draw in _probe_draws(ambient.n, trials, n_params, seed):
            found = _probe_once(ambient, subset, draw)
            results.append({"params": draw,
                            "found": found is not None,
                            "witness": (list(found) if found is not None
                                        else None)})
        hits = sum(1 for entry in results if entry["found"])
        witness = {"mode": "aggregate", "m_subset": subset, "trials": trials,
                   "n_params": n_params, "seed": seed, "results": results,
                   "success_rate": rational_to_json(Fraction(hits, trials))}
        log = [f"{hits} of {trials} seeded parameter draws admit a witness"]
    return WitnessReport(
        theorem="dfsnotfim-sat",
        inputs={"ambient": _input_entry(ambient)},
        witness=witness, certified=tuple(_sat_certified(ambient, witness)),
        log=tuple(log))


# ---------------------------------------------------------------------------
# Two-dimensional inconsistency grid over parameterized equivalences
# ---------------------------------------------------------------------------

# every same-row pair and every checked path scans the parameters; the
# largest scan in use is (24 + 50) x 256, at k = 4 with 50 sampled paths
_MAX_GRID_SCAN = 10 ** 7


def _check_grid_size(k: int, parameters: int,
                     paths: Optional[int] = None) -> None:
    """Refuse k beyond the constructor's cap, then a scan of (row pairs +
    paths) x parameters beyond _MAX_GRID_SCAN; paths=None counts all
    k^k paths.  Nothing is listed before both checks pass."""
    if k > _MAX_GRID_K:
        raise FormatError(f"k = {k} may not exceed {_MAX_GRID_K}")
    row_pairs = k * k * (k - 1) // 2
    paths = k ** k if paths is None else paths
    if (row_pairs + paths) * parameters > _MAX_GRID_SCAN:
        raise FormatError(
            f"{row_pairs} row pairs and {paths} paths over {parameters} "
            f"parameters may not exceed {_MAX_GRID_SCAN} checks")


def _tp2_certified(f: Feq2Structure, k: int, paths: Sequence[tuple]):
    row_pairs = 0
    row_failures = []
    for i in range(k):
        c = grid_target(k, i)
        for j1, j2 in itertools.combinations(range(k), 2):
            row_pairs += 1
            b1, b2 = grid_object(k, i, j1), grid_object(k, i, j2)
            for z in range(f.parameters):
                if f.same_class(z, b1, c) and f.same_class(z, b2, c):
                    row_failures.append([i, j1, j2, z])
                    break
    path_params: list[Optional[int]] = []
    for path in paths:
        witness_param = None
        for z in range(f.parameters):
            if all(f.same_class(z, grid_object(k, i, path[i]),
                                grid_target(k, i)) for i in range(k)):
                witness_param = z
                break
        path_params.append(witness_param)
    consistent = sum(1 for w in path_params if w is not None)
    certified = [
        Certified("rows-inconsistent", "==",
                  Fraction(row_pairs - len(row_failures)),
                  Fraction(row_pairs)),
        Certified("paths-consistent", "==", Fraction(consistent),
                  Fraction(len(paths))),
    ]
    details = {"row_pairs": row_pairs, "row_failures": row_failures,
               "path_params": path_params}
    return certified, details


def _tp2_paths(k: int, sample: Optional[int],
               seed: Optional[int]) -> list[tuple[int, ...]]:
    """The paths a tp2 witness checks: all k^k when sample is None, else
    `sample` distinct ones drawn with the seed, in ascending order; shared
    by the runner and the verifier, after _check_grid_size."""
    if sample is None:
        return list(itertools.product(range(k), repeat=k))
    if seed is None:
        raise ValueError("sampling paths requires a seed")
    total = k ** k
    if not 1 <= sample <= total:
        raise ValueError(f"sample must lie in 1..{total}")
    paths = []
    for code in sorted(random.Random(seed).sample(range(total), sample)):
        digits = []
        for _ in range(k):
            code, d = divmod(code, k)
            digits.append(d)
        paths.append(tuple(reversed(digits)))
    return paths


def tp2_witness(f: Feq2Structure, k: int, sample: Optional[int] = None,
                seed: Optional[int] = None) -> WitnessReport:
    """Certify the two-dimensional pattern on a k-grid: cells of one row
    are pairwise 2-inconsistent relative to the row target, while every
    checked path through the grid is realized by a single parameter.

    sample=None checks all k^k paths; otherwise `sample` distinct paths
    are drawn with the seed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_grid_size(k, f.parameters, sample)
    if f.objects < k * k + k:
        raise GridTooSmall(k * k + k, f.objects)
    paths = _tp2_paths(k, sample, seed)
    sample_info = None if sample is None else {"seed": seed, "count": sample}
    certified, details = _tp2_certified(f, k, paths)
    witness = {"k": k, "sample": sample_info,
               "checked_paths": [list(p) for p in paths], **details}
    log = [f"checked {details['row_pairs']} same-row pairs and "
           f"{len(paths)} of {k ** k} paths"]
    return WitnessReport(
        theorem="tp2",
        inputs={"structure": _input_entry(f)},
        witness=witness, certified=tuple(certified), log=tuple(log))


def _recompute_tp2(witness: dict, inputs: Mapping[str, object]):
    f, k = inputs["structure"], int(witness["k"])
    recorded = [tuple(p) for p in witness["checked_paths"]]
    _check_grid_size(k, f.parameters, len(recorded))
    info = witness["sample"]
    paths = (_tp2_paths(k, None, None) if info is None
             else _tp2_paths(k, int(info["count"]), int(info["seed"])))
    if paths != recorded:
        raise FormatError("checked_paths are not the paths of the recorded "
                          "k, sample and seed")
    certified, _ = _tp2_certified(f, k, paths)
    return certified


# ---------------------------------------------------------------------------
# The pipeline table: every report tag, the inputs its report names, and the
# recomputation that verify runs
# ---------------------------------------------------------------------------

PIPELINES = {
    "gen": ((), _recompute_gen),
    "coloring-bound": (("weighted",), _recompute_color),
    "measure-algebra": ((), _recompute_measures),
    "famnotfim": (("ambient", "graph"), _recompute_fam),
    "order": (("ambient",), _recompute_order),
    "dfsnotfim-adversary": (("ambient",), _recompute_adversary),
    "dfsnotfim-sat": (("ambient",), lambda witness, inputs: _sat_certified(
        inputs["ambient"], witness)),
    "tp2": (("structure",), _recompute_tp2),
}


def recompute_certified(theorem: str, witness: dict,
                        inputs: Mapping[str, object]) -> list[Certified]:
    """Re-derive the certified inequalities of a report from its payload
    and resolved inputs; used by the verifier.  A report whose
    precondition failed carries that inequality verbatim: there is no
    witness object to recompute from, and one that holds is refused."""
    try:
        names, recompute = PIPELINES[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem tag {theorem!r}") from None
    if isinstance(witness, dict) and "precondition_failed" in witness:
        failed = Certified(str(witness["precondition_failed"]),
                           str(witness["op"]),
                           rational_from_json(witness["lhs"]),
                           rational_from_json(witness["rhs"]))
        if failed.holds:
            raise FormatError(f"precondition {failed.name}: the recorded "
                              f"{failed.lhs} {failed.op} {failed.rhs} holds, "
                              f"so it cannot have stopped the run")
        return [failed]
    missing = [name for name in names if name not in inputs]
    if missing:
        raise FormatError(f"report lacks required inputs: {missing}")
    return list(recompute(witness, inputs))
