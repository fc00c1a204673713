"""Weighted hypergraph colouring with the exact r!/r^r guarantee.

A colouring with r colours splits an r-set when its vertices receive
pairwise distinct colours.  Averaged over all colourings the split weight
equals (r!/r^r) times the total weight, and colouring vertices greedily
by conditional expectation always reaches that bound.  Weights are
integers over one denominator, read from integer pairs num/den, so every
score and sum is an exact integer; only the certified quantities (the
total weight, a colouring's weight, the guarantee and the brute-force
optimum and mean) are exact rationals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from typing import Iterable, Sequence

from ._record import Record

Coloring = tuple[int, ...]

# Every certified rational is written with str() and float(): CPython
# writes ints of at most 4,300 digits, and float() overflows near 1.8e308;
# these caps leave room for factors such as r!/r^r (r <= 8) on weight sums.
WRITABLE = "terms of at most 4,000 digits and a value below 10^300"
_MAX_INT, _MAX_VALUE = 10 ** 4_000, 10 ** 300


def writable(num: int, den: int) -> bool:
    """Whether num/den, den > 0, has what WRITABLE says."""
    return abs(num) < _MAX_INT > den and abs(num) < _MAX_VALUE * den


class WeightedHypergraph(Record):
    """Nonnegative rational weights on r-subsets of 0..n-1, held as
    integers over one denominator: key carries weight w / den.

    Absent subsets carry weight zero.  Keys are sorted tuples of r
    distinct vertices.
    """

    n: int
    r: int
    weights: tuple[tuple[tuple[int, ...], int], ...]
    den: int = 1

    def __post_init__(self):
        if self.r < 2 or self.n < 0:
            raise ValueError(f"arity {self.r} must be at least 2 and vertex "
                             f"count {self.n} nonnegative")
        if type(self.den) is not int or self.den < 1:
            raise ValueError(f"denominator {self.den!r} must be a positive "
                             f"integer")
        seen = set()
        for key, w in self.weights:
            if len(key) != self.r or list(key) != sorted(set(key)):
                raise ValueError(f"key {key} is not a sorted {self.r}-subset")
            if key[0] < 0 or key[-1] >= self.n:
                raise ValueError(f"key {key} out of range")
            if key in seen:
                raise ValueError(f"duplicate key {key}")
            if w < 0:
                raise ValueError(f"negative weight on {key}")
            seen.add(key)
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))

    @cached_property
    def total_weight(self) -> Fraction:
        return Fraction(sum(w for _, w in self.weights), self.den)


def weighted_hypergraph(n: int, r: int,
                        items: Iterable[tuple[Sequence[int], int, int]]
                        ) -> WeightedHypergraph:
    """Weights num/den, den != 0, on unsorted keys, held as integers over
    D, the lcm of their denominators in lowest terms.  Each item is reduced
    by one gcd, its sign on the numerator, and checked as it is read:
    ValueError names the first past which the total weight over D lacks
    what WRITABLE says."""
    den, total, read = 1, 0, []
    for i, (key, num, d) in enumerate(items):
        g = gcd(num, d) if d > 0 else -gcd(num, d)
        num, d = num // g, d // g
        grown = lcm(den, d)
        total = total * (grown // den) + num * (grown // d)
        den = grown
        if not writable(total, den):
            raise ValueError(f"weights[{i}] on {list(key)}: the total weight "
                             f"over their lcm denominator needs {WRITABLE}")
        read.append((tuple(sorted(int(v) for v in key)), num, d))
    return WeightedHypergraph(n, r, tuple(
        (key, num * (den // d)) for key, num, d in read), den)


def _split(h: WeightedHypergraph, chi: Sequence[int]) -> int:
    # h.den times the weight of the r-sets split under chi
    return sum(w for key, w in h.weights if len({chi[v] for v in key}) == h.r)


def weight_of(h: WeightedHypergraph, coloring: Sequence[int]) -> Fraction:
    """Total weight of the r-sets split (rainbow) under the colouring."""
    chi = tuple(int(c) for c in coloring)
    if len(chi) != h.n or any(not 1 <= c <= h.r for c in chi):
        raise ValueError(f"a colouring gives each of the {h.n} vertices a "
                         f"colour in 1..{h.r}")
    return Fraction(_split(h, chi), h.den)


def guarantee_value(h: WeightedHypergraph) -> Fraction:
    """The derandomization target (r!/r^r) * w(V)."""
    return Fraction(factorial(h.r), h.r ** h.r) * h.total_weight


def greedy_coloring(h: WeightedHypergraph) -> Coloring:
    """Colour vertices in ascending order by conditional expectation, ties
    to the smallest colour; the result splits at least (r!/r^r) * w(V).

    Only the r-sets through v depend on v's colour.  Colouring v, at
    position i of a key e, colours a = i + 1 vertices of e; if their
    colours are distinct, the other r - a split e with probability
    (r - a)!/r^(r - a).  So colour c scores the sum of w * (r - a)! * r^a,
    w the integer weight of e, over the e through v whose coloured
    vertices, c included, have distinct colours: r^r * h.den times the
    conditional expectation, minus terms equal for every c."""
    r = h.r
    factor = [factorial(r - a) * r ** a for a in range(r + 1)]
    through: list[list] = [[] for _ in range(h.n)]
    for key, w in h.weights:
        # colouring a set's first vertex adds the same to every colour
        for i in range(1, r):
            through[key[i]].append((key, i, w * factor[i + 1]))
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
    """Enumerate every colouring, at most _MAX_COLORINGS; the exact average
    split weight independently witnesses the r!/r^r identity."""
    count = h.r ** h.n
    if count > _MAX_COLORINGS:
        raise ValueError(f"{h.r}^{h.n} colourings exceed the brute-force "
                         f"cap of {_MAX_COLORINGS}")
    best, best_chi, total = -1, (), 0
    for chi in itertools.product(range(1, h.r + 1), repeat=h.n):
        acc = _split(h, chi)
        total += acc
        if acc > best:
            best, best_chi = acc, chi
    return BruteResult(best_chi, Fraction(best, h.den),
                       Fraction(total, h.den * count), count)
