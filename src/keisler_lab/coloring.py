"""Weighted hypergraph colouring with the exact r!/r^r guarantee.

A colouring with r colours splits an r-set when its vertices receive
pairwise distinct colours.  Averaged over all colourings the split weight
equals (r!/r^r) times the total weight, and colouring vertices greedily
by conditional expectation always reaches that bound.  The greedy step
for a vertex scores each colour from the r-sets through that vertex
only, in integers (weights scaled by the lcm of their denominators), so
it is exact without Fraction arithmetic.  Weights and the certified
quantities are exact rationals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Iterable, Sequence

from ._record import Record


class WeightedHypergraph(Record):
    """Nonnegative rational weights on r-subsets of 0..n-1.

    Absent subsets carry weight zero.  Keys are sorted tuples of r
    distinct vertices.
    """

    n: int
    r: int
    weights: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("arity must be at least 2")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for key, w in self.weights:
            if (len(key) != self.r or len(set(key)) != self.r
                    or list(key) != sorted(key)):
                raise ValueError(f"key {key} is not a sorted {self.r}-subset")
            if key and (key[0] < 0 or key[-1] >= self.n):
                raise ValueError(f"key {key} out of range")
            if key in seen:
                raise ValueError(f"duplicate key {key}")
            if w < 0:
                raise ValueError(f"negative weight on {key}")
            seen.add(key)
        ordered = tuple(sorted(self.weights))
        object.__setattr__(self, "weights", ordered)

    @cached_property
    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.weights), Fraction(0))


def weighted_hypergraph(n: int, r: int,
                        items: Iterable[tuple[Sequence[int], Fraction]]
                        ) -> WeightedHypergraph:
    """Convenience factory accepting unsorted keys and any rational weights."""
    weights = tuple((tuple(sorted(int(v) for v in key)), Fraction(w))
                    for key, w in items)
    return WeightedHypergraph(n, r, weights)


Coloring = tuple[int, ...]


def _check_coloring(h: WeightedHypergraph, coloring: Sequence[int]) -> Coloring:
    chi = tuple(int(c) for c in coloring)
    if len(chi) != h.n:
        raise ValueError(f"colouring covers {len(chi)} of {h.n} vertices")
    if any(not 1 <= c <= h.r for c in chi):
        raise ValueError(f"colours must lie in 1..{h.r}")
    return chi


def weight_of(h: WeightedHypergraph, coloring: Sequence[int]) -> Fraction:
    """Total weight of the r-sets split (rainbow) under the colouring."""
    chi = _check_coloring(h, coloring)
    total = Fraction(0)
    for key, w in h.weights:
        colors = {chi[v] for v in key}
        if len(colors) == h.r:
            total += w
    return total


def guarantee_value(h: WeightedHypergraph) -> Fraction:
    """The derandomization target (r!/r^r) * w(V)."""
    return Fraction(factorial(h.r), h.r ** h.r) * h.total_weight


def greedy_coloring(h: WeightedHypergraph) -> Coloring:
    """Colour vertices in ascending order by conditional expectation, ties
    to the smallest colour; the result splits at least (r!/r^r) * w(V).

    Only the r-sets through v depend on v's colour.  Colouring v, at
    position i of a key e, colours a = i + 1 vertices of e; if their
    colours are distinct, the other r - a split e with probability
    (r - a)!/r^(r - a).  So colour c scores the sum of w(e) * (r - a)! *
    r^a over the e through v whose coloured vertices, c included, have
    distinct colours: r^r times the conditional expectation, minus terms
    equal for every c.  Weights are scaled to integers by the lcm of their
    denominators, so the argmax is exact without Fraction arithmetic."""
    r = h.r
    scale = lcm(*(w.denominator for _, w in h.weights))
    factor = [factorial(r - a) * r ** a for a in range(r + 1)]
    through: list[list[tuple[tuple[int, ...], int, int]]] = [
        [] for _ in range(h.n)]
    for key, w in h.weights:
        scaled = int(w * scale)
        # colouring a set's first vertex adds the same to every colour
        for i in range(1, r):
            through[key[i]].append((key, i, scaled * factor[i + 1]))
    chi: list[int] = []
    for v in range(h.n):
        score = [0] * (r + 1)
        for key, i, gain in through[v]:
            used = {chi[u] for u in key[:i]}
            if len(used) == i:
                for c in range(1, r + 1):
                    if c not in used:
                        score[c] += gain
        chi.append(max(range(1, r + 1), key=score.__getitem__))
    return tuple(chi)


class BruteResult(Record):
    """Exact optimum over all r^n colourings plus the exact mean."""

    best_coloring: Coloring
    best_weight: Fraction
    average_weight: Fraction
    colorings: int


# graphs on up to 12 vertices, 3-graphs on up to 7
_MAX_COLORINGS = 2 ** 12


def brute_best(h: WeightedHypergraph) -> BruteResult:
    """Enumerate every colouring; also returns the exact average split
    weight, which independently witnesses the r!/r^r identity.  The r^n
    colourings may not exceed _MAX_COLORINGS."""
    if h.r ** h.n > _MAX_COLORINGS:
        raise ValueError(f"{h.r}^{h.n} colourings exceed the brute-force "
                         f"cap of {_MAX_COLORINGS}")
    scale = lcm(*(w.denominator for _, w in h.weights))
    scaled = [(key, int(w * scale)) for key, w in h.weights]
    best = -1
    best_chi: Coloring = ()
    total = 0
    count = 0
    for chi in itertools.product(range(1, h.r + 1), repeat=h.n):
        count += 1
        acc = 0
        for key, w in scaled:
            if len({chi[v] for v in key}) == h.r:
                acc += w
        total += acc
        if acc > best:
            best, best_chi = acc, chi
    return BruteResult(best_chi, Fraction(best, scale),
                       Fraction(total, scale * count), count)
