"""Shared builders for the test suite.

Corpus helpers take an explicit random.Random so every test pins its own
seed; nothing here reads global state.

substitute, dnf_to_formula and residual_holds are formula helpers that
only tests and acceptance oracles call; no command of the package does.
"""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import lcm, perm
from pathlib import Path
from typing import Mapping, Sequence

import pytest
from hypothesis import strategies as st

import keisler_lab
from keisler_lab.coloring import (WRITABLE, Coloring, WeightedHypergraph,
                                  weighted_hypergraph, writable)
from keisler_lab.logic import (And, Clause, DisjunctProfile, Eq, Formula,
                               Not, Or, Rel, Term, compile_mask)
from keisler_lab.measures import FiniteMeasure, make_measure
from keisler_lab.serialize import (_MAX_WEIGHTED_N, _MAX_WEIGHTED_R,
                                   FormatError, _expect_int, _is_int,
                                   _is_int_list, _shown, weighted_from_json)
from keisler_lab.structures import Hypergraph, _add_edge, _closes_clique


def fresh_import(code: str) -> str:
    """The standard output of code run in a fresh interpreter that finds
    this package."""
    src = str(Path(keisler_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    # -S: no site hooks, so only the package's own imports count
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def cli_process(argv, directory: Path) -> subprocess.CompletedProcess:
    """`python -m keisler_lab.cli argv` run in directory, as users run it."""
    src = str(Path(keisler_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "keisler_lab.cli", *argv],
                          cwd=directory, env=env, capture_output=True,
                          text=True, timeout=60)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Hypergraph:
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Hypergraph(2, n, frozenset(edges))


def make_average(host: Hypergraph, points) -> FiniteMeasure:
    """The empirical average measure of a nonempty point sequence; a bare
    vertex stands for a 1-tuple."""
    if not points:
        raise ValueError("average of an empty sequence")
    first = points[0]
    arity = 1 if isinstance(first, int) else len(first)
    share = Fraction(1, len(points))
    return make_measure(host, arity, ((p, share) for p in points))


def random_hypergraph(rng: random.Random, n: int, r: int,
                      p: float = 0.5) -> Hypergraph:
    edges = [e for e in itertools.combinations(range(n), r)
             if rng.random() < p]
    return Hypergraph(r, n, frozenset(edges))


def random_maximal_free_oracle(n: int, r: int, s: int,
                               seed: int) -> Hypergraph:
    """random_maximal_free as one _closes_clique and one _add_edge call per
    candidate, the loop whose s = r + 1 kernel the generator reads from
    per-vertex rows at (r, s) = (2, 3) and (3, 4)."""
    candidates = list(itertools.combinations(range(n), r))
    random.Random(seed).shuffle(candidates)
    masks: dict[tuple[int, ...], int] = {}
    kept = []
    for e in candidates:
        if not _closes_clique(masks, e, s):
            kept.append(e)
            _add_edge(masks, e)
    return Hypergraph(r, n, frozenset(kept))


def feq2_blocks_oracle(objects: int,
                      blocks: Sequence[Sequence[int]]) -> tuple:
    """One parameter's blocks in the order structure_to_json writes them
    (sorted tuples in sorted order), checked block by block against a
    covered set: ValueError unless they pair off the objects
    0..objects-1 with one singleton when objects is odd."""
    blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
    covered: set[int] = set()
    singletons = 0
    for b in blocks:
        if len(b) == 1:
            singletons += 1
        elif len(b) != 2:
            raise ValueError(f"block {b} has size {len(b)}")
        if covered & set(b):
            raise ValueError(f"blocks overlap on {b}")
        covered.update(b)
    if covered != set(range(objects)):
        raise ValueError("blocks do not cover the objects")
    if singletons != objects % 2:
        raise ValueError("wrong number of singleton blocks")
    return blocks


def substitute(f: Formula, mapping: Mapping[Term, Term]) -> Formula:
    """Replace terms throughout; terms outside the mapping stay put."""
    def sub_term(t: Term) -> Term:
        return mapping.get(t, t)

    if isinstance(f, Rel):
        return Rel(f.name, tuple(sub_term(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(sub_term(f.left), sub_term(f.right))
    if isinstance(f, Not):
        return Not(substitute(f.body, mapping))
    if isinstance(f, And):
        return And(tuple(substitute(p, mapping) for p in f.parts))
    return Or(tuple(substitute(p, mapping) for p in f.parts))


def dnf_to_formula(clauses: Sequence[Clause]) -> Formula:
    """Rebuild a formula from DNF clauses; empty input has no formula form."""
    if not clauses:
        raise ValueError("empty disjunction has no formula representation")
    parts = []
    for clause in clauses:
        lits = [lit.formula() for lit in clause]
        parts.append(lits[0] if len(lits) == 1 else And(tuple(lits)))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def residual_holds(structure, profile: DisjunctProfile,
                   params: Sequence[int]) -> bool:
    """Truth of the parameter-only part of a disjunct at a parameter tuple
    of a graph with at least one vertex: its compiled bitset (compile_mask)
    is every vertex or none, so it holds where that bitset is non-empty."""
    return compile_mask(structure, profile.residual_formula())(params) != 0


def traced_peak(function, *args):
    """function(*args) and the peak of the memory it allocated, in bytes,
    as tracemalloc sees it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def random_weighted(rng: random.Random, n: int, r: int,
                    p: float = 0.6) -> WeightedHypergraph:
    items = [(e, rng.randint(1, 12), rng.randint(1, 6))
             for e in itertools.combinations(range(n), r)
             if rng.random() < p]
    return weighted_hypergraph(n, r, items)


# zero weights and mixed denominators are among the weights drawn
_WEIGHTS = st.fractions(min_value=0, max_value=12, max_denominator=6)


@st.composite
def weighted_payloads(draw) -> dict:
    """Weights files as they may be spelled: keys in any order, and each
    weight unreduced (2/4), negative over negative (-1/-2) or whole (3/1)."""
    r = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(0, 10))
    keys = list(itertools.combinations(range(n), r))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True,
                           max_size=40)) if keys else []
    if keys and keys[-1] not in chosen and draw(st.booleans()):
        chosen.append(keys[-1])  # a key through the last vertex
    entries = []
    for key in chosen:
        w = draw(_WEIGHTS)
        k = draw(st.sampled_from((1, 2, -1, -3)))
        key = list(key)[::draw(st.sampled_from((1, -1)))]
        entries.append([key, {"num": w.numerator * k,
                              "den": w.denominator * k}])
    return {"kind": "weighted-hypergraph", "n": n, "r": r,
            "weights": entries}


def weighted_graphs():
    """The weighted hypergraphs that weighted_payloads() files hold."""
    return weighted_payloads().map(weighted_from_json)


def fraction_weights(payload) -> tuple[tuple, int]:
    """The reference weights-file reader, one Fraction per entry: the
    (weights, den) of the WeightedHypergraph that weighted_from_json
    builds, or the same FormatError.  It reads no kind."""
    if not isinstance(payload, dict):
        raise FormatError("weighted hypergraph payload must be an object")
    n = _expect_int(payload.get("n"), "n")
    r = _expect_int(payload.get("r"), "r")
    if n > _MAX_WEIGHTED_N or r > _MAX_WEIGHTED_R:
        raise FormatError(f"weighted hypergraph n = {n} and r = {r} may "
                          f"not exceed {_MAX_WEIGHTED_N} and "
                          f"{_MAX_WEIGHTED_R}")
    raw = payload.get("weights")
    if not isinstance(raw, list):
        raise FormatError("weights must be a list")
    den, total, read = 1, 0, []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"weight entry {_shown(entry)} must be "
                              f"[key, rational]")
        key, w = entry
        if not _is_int_list(key):
            raise FormatError(f"weight key {_shown(key)} must be a list of "
                              f"integers")
        if (not isinstance(w, dict) or "num" not in w or "den" not in w
                or not _is_int(w["num"]) or not _is_int(w["den"])
                or w["den"] == 0):
            raise FormatError(f"not a rational: {_shown(w)}")
        w = Fraction(w["num"], w["den"])
        grown = lcm(den, w.denominator)
        total = total * (grown // den) + w.numerator * (grown // w.denominator)
        den = grown
        if not writable(total, den):
            raise FormatError(f"weights[{i}] on {list(key)}: the total "
                              f"weight over their lcm denominator needs "
                              f"{WRITABLE}")
        read.append((tuple(sorted(key)), w))
    try:
        h = WeightedHypergraph(n, r, tuple(
            (key, w.numerator * (den // w.denominator)) for key, w in read),
            den)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return h.weights, h.den


def _split_probability(r: int, used: int, distinct: int, repeat: bool,
                       uncolored: int) -> Fraction:
    # conditional probability that an r-set becomes rainbow when the
    # uncoloured vertices are coloured independently and uniformly
    if repeat:
        return Fraction(0)
    free = r - distinct
    if uncolored > free:
        return Fraction(0)
    return Fraction(perm(free, uncolored), r ** uncolored)


def conditional_expectation(h: WeightedHypergraph,
                            partial: Mapping[int, int]) -> Fraction:
    """Expected split weight when the unassigned vertices are uniform."""
    for v, c in partial.items():
        if not 0 <= v < h.n:
            raise ValueError(f"vertex {v} out of range")
        if not 1 <= c <= h.r:
            raise ValueError(f"colour {c} out of range")
    total = Fraction(0)
    for key, w in h.weights:
        assigned = [partial[v] for v in key if v in partial]
        distinct = len(set(assigned))
        repeat = distinct < len(assigned)
        p = _split_probability(h.r, len(assigned), distinct, repeat,
                               len(key) - len(assigned))
        if p:
            total += Fraction(w, h.den) * p
    return total


def greedy_by_expectation(h: WeightedHypergraph) -> Coloring:
    """The reference greedy colouring: each vertex in ascending order takes
    the colour that maximises the full conditional expectation, ties to
    the smallest colour."""
    partial: dict[int, int] = {}
    for v in range(h.n):
        values = []
        for c in range(1, h.r + 1):
            partial[v] = c
            values.append(conditional_expectation(h, partial))
        partial[v] = values.index(max(values)) + 1
    return tuple(partial[v] for v in range(h.n))


@pytest.fixture
def petersen() -> Hypergraph:
    edges = set()
    for i in range(5):
        edges.add(tuple(sorted((i, (i + 1) % 5))))
        edges.add(tuple(sorted((5 + i, 5 + (i + 2) % 5))))
        edges.add((i, 5 + i))
    return Hypergraph(2, 10, frozenset(edges))
