"""Weighted splitting colourings and the exact r!/r^r guarantee."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings

from conftest import (conditional_expectation, greedy_by_expectation,
                      random_weighted, weighted_graphs)
from keisler_lab.coloring import (
    WeightedHypergraph,
    brute_best,
    greedy_coloring,
    guarantee_value,
    weight_of,
    weighted_hypergraph,
)


def test_weighted_hypergraph_validation():
    weighted_hypergraph(4, 2, [((1, 0), 1, 2)])
    with pytest.raises(ValueError):
        WeightedHypergraph(4, 2, (((1, 0), 1),))
    with pytest.raises(ValueError):
        WeightedHypergraph(4, 2, (((0, 0), 1),))
    with pytest.raises(ValueError):
        WeightedHypergraph(4, 2, (((0, 5), 1),))
    with pytest.raises(ValueError):
        weighted_hypergraph(4, 2, [((0, 1), -1, 1)])
    with pytest.raises(ValueError):
        weighted_hypergraph(4, 2, [((0, 1), 1, 1), ((1, 0), 1, 1)])
    with pytest.raises(ValueError):
        WeightedHypergraph(4, 1, ())


@pytest.mark.parametrize("den", [0, -3, True, 2.0, Fraction(2)])
def test_weighted_hypergraph_refuses_a_bad_denominator(den):
    # a zero denominator would fail in total_weight, a negative one flip
    # the sign of every certified weight
    with pytest.raises(ValueError, match="must be a positive integer"):
        WeightedHypergraph(4, 2, (((0, 1), 1),), den)
    h = WeightedHypergraph(4, 2, (((0, 1), 1),), 3)
    assert h.total_weight == Fraction(1, 3)


def test_weight_accessors():
    h = weighted_hypergraph(4, 2, [((0, 1), 3, 2), ((2, 3), 1, 1)])
    assert h.total_weight == Fraction(5, 2)
    # integers over the lcm of the denominators
    assert (h.weights, h.den) == ((((0, 1), 3), ((2, 3), 2)), 2)


def test_weight_of_counts_rainbow_sets():
    h = weighted_hypergraph(4, 2, [((0, 1), 1, 1), ((1, 2), 2, 1),
                                   ((2, 3), 4, 1)])
    assert weight_of(h, (1, 2, 1, 2)) == 7
    assert weight_of(h, (1, 1, 1, 1)) == 0
    assert weight_of(h, (1, 2, 2, 1)) == 1 + 4
    with pytest.raises(ValueError):
        weight_of(h, (1, 2, 1))
    with pytest.raises(ValueError):
        weight_of(h, (0, 1, 2, 1))


def test_guarantee_value():
    h2 = weighted_hypergraph(3, 2, [((0, 1), 1, 1), ((1, 2), 1, 1)])
    assert guarantee_value(h2) == Fraction(2, 4) * 2
    h3 = weighted_hypergraph(4, 3, [((0, 1, 2), 5, 3)])
    assert guarantee_value(h3) == Fraction(6, 27) * Fraction(5, 3)


def test_conditional_expectation_endpoints():
    h = weighted_hypergraph(4, 2, [((0, 1), 1, 1), ((1, 2), 2, 1),
                                   ((2, 3), 4, 1)])
    # nothing assigned: the plain average
    assert conditional_expectation(h, {}) == guarantee_value(h)
    # everything assigned: the realized split weight
    chi = (1, 2, 1, 2)
    full = {v: chi[v] for v in range(4)}
    assert conditional_expectation(h, full) == weight_of(h, chi)
    with pytest.raises(ValueError):
        conditional_expectation(h, {9: 1})
    with pytest.raises(ValueError):
        conditional_expectation(h, {0: 3})


def test_conditional_expectation_is_a_martingale():
    # the max over colours of the refined expectation never drops
    rng = random.Random(51)
    for _ in range(20):
        h = random_weighted(rng, rng.randint(3, 6), rng.choice([2, 3]))
        partial: dict[int, int] = {}
        current = conditional_expectation(h, partial)
        for v in range(h.n):
            values = []
            for c in range(1, h.r + 1):
                partial[v] = c
                values.append(conditional_expectation(h, partial))
            del partial[v]
            # the average over colour choices equals the unrefined value
            assert sum(values, Fraction(0)) / h.r == current
            best = max(values)
            assert best >= current
            partial[v] = values.index(best) + 1
            current = best


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(weighted_graphs())
def test_greedy_matches_the_expectation_oracle(h):
    assert greedy_coloring(h) == greedy_by_expectation(h)


def test_greedy_meets_guarantee_small_corpus():
    rng = random.Random(53)
    for _ in range(60):
        r = rng.choice([2, 3])
        h = random_weighted(rng, rng.randint(r, 8), r)
        chi = greedy_coloring(h)
        assert len(chi) == h.n
        assert all(1 <= c <= r for c in chi)
        assert weight_of(h, chi) >= guarantee_value(h)


def test_greedy_on_empty_and_zero_weight():
    h = weighted_hypergraph(3, 2, [])
    assert greedy_coloring(h) == (1, 1, 1)
    assert weight_of(h, (1, 1, 1)) == 0 == guarantee_value(h)
    z = weighted_hypergraph(2, 2, [((0, 1), 0, 1)])
    assert weight_of(z, greedy_coloring(z)) == 0


def test_brute_average_identity():
    rng = random.Random(59)
    for _ in range(20):
        r = rng.choice([2, 3])
        h = random_weighted(rng, rng.randint(r, 5), r)
        result = brute_best(h)
        assert result.colorings == r ** h.n
        assert result.average_weight == guarantee_value(h)
        assert result.best_weight >= guarantee_value(h)
        assert weight_of(h, result.best_coloring) == result.best_weight
        # greedy can never beat the true optimum
        assert weight_of(h, greedy_coloring(h)) <= result.best_weight


def test_brute_cap():
    h = weighted_hypergraph(13, 2, [((0, 1), 1, 1)])
    with pytest.raises(ValueError):
        brute_best(h)
    # the cap counts the r^n colourings, not the vertices
    assert brute_best(weighted_hypergraph(12, 2, [])).colorings == 2 ** 12
    assert brute_best(weighted_hypergraph(6, 4, [])).colorings == 4 ** 6
    with pytest.raises(ValueError):
        brute_best(weighted_hypergraph(8, 3, []))


def test_split_fraction_matches_direct_count():
    # for unit weights the guarantee is r!/r^r per edge, seen directly in
    # the fraction of rainbow colourings of a single r-set
    for r in (2, 3):
        h = weighted_hypergraph(r, r, [(tuple(range(r)), 1, 1)])
        rainbow = sum(
            1 for chi in itertools.product(range(1, r + 1), repeat=r)
            if len(set(chi)) == r)
        assert Fraction(rainbow, r ** r) == Fraction(factorial(r), r ** r)
        assert brute_best(h).average_weight == Fraction(factorial(r), r ** r)
