"""Shared builders for the test suite.

Corpus helpers take an explicit random.Random so every test pins its own
seed; nothing here reads global state.
"""

import itertools
import random
from fractions import Fraction

import pytest

from keisler_lab.coloring import WeightedHypergraph, weighted_hypergraph
from keisler_lab.measures import FiniteMeasure, make_measure
from keisler_lab.structures import Hypergraph


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


def random_weighted(rng: random.Random, n: int, r: int,
                    p: float = 0.6) -> WeightedHypergraph:
    items = [(e, Fraction(rng.randint(1, 12), rng.randint(1, 6)))
             for e in itertools.combinations(range(n), r)
             if rng.random() < p]
    return weighted_hypergraph(n, r, items)


@pytest.fixture
def petersen() -> Hypergraph:
    edges = set()
    for i in range(5):
        edges.add(tuple(sorted((i, (i + 1) % 5))))
        edges.add(tuple(sorted((5 + i, 5 + (i + 2) % 5))))
        edges.add((i, 5 + i))
    return Hypergraph(2, 10, frozenset(edges))
