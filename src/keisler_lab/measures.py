"""Finitely supported measures on tuple spaces over a finite structure.

Weights are exact rationals summing to one.  Products on the tuple
grid, localization and the one scan of a parameter domain (the sup error
of the isolated-vertex type rule against a point average, and the worst
violation count, counted with bitsets) all stay in exact arithmetic; no
floats enter any comparison.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from ._record import Record
from .logic import (Formula, Or, PhiAnalysis, PhiPartition, compile_mask,
                    evaluate, make_assignment, parse_formula, variables)
from .structures import Hypergraph

Point = tuple[int, ...]


class ZeroMassError(ValueError):
    """Localization on a set the measure does not charge."""


def _as_point(p, arity: Optional[int] = None) -> Point:
    point = (int(p),) if isinstance(p, int) else tuple(int(v) for v in p)
    if arity is not None and len(point) != arity:
        raise ValueError(f"point {point} does not have arity {arity}")
    return point


class FiniteMeasure(Record):
    """A probability measure with finite support on host^arity."""

    host: Hypergraph
    arity: int
    support: tuple[tuple[Point, Fraction], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("tuple arity must be at least 1")
        total = Fraction(0)
        seen = set()
        for point, weight in self.support:
            if len(point) != self.arity:
                raise ValueError(f"support point {point} has wrong arity")
            if any(not 0 <= v < self.host.n for v in point):
                raise ValueError(f"support point {point} out of range")
            if point in seen:
                raise ValueError(f"duplicate support point {point}")
            if weight <= 0:
                raise ValueError(f"weight of {point} must be positive")
            seen.add(point)
            total += weight
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")
        if list(self.support) != sorted(self.support, key=lambda kv: kv[0]):
            raise ValueError("support must be sorted by point")

    def weight(self, point) -> Fraction:
        point = _as_point(point, self.arity)
        for p, w in self.support:
            if p == point:
                return w
        return Fraction(0)


def make_measure(host: Hypergraph, arity: int,
                 items: Iterable[tuple[Point, Fraction]]) -> FiniteMeasure:
    """Build a measure from (point, weight) pairs, merging duplicates and
    dropping zero weights.  The weights must sum to exactly one."""
    acc: dict[Point, Fraction] = {}
    for point, weight in items:
        point = _as_point(point, arity)
        acc[point] = acc.get(point, Fraction(0)) + Fraction(weight)
    support = tuple(sorted((p, w) for p, w in acc.items() if w != 0))
    return FiniteMeasure(host, arity, support)


def _unwrap_phi(phi: Union[Formula, PhiPartition],
                arity: int, params: Sequence[int]) -> Formula:
    if isinstance(phi, PhiPartition):
        if phi.object_arity != arity:
            raise ValueError(
                f"formula wants {phi.object_arity} object variables, "
                f"measure tuples have {arity}")
        if phi.param_arity > len(params):
            raise ValueError(
                f"formula wants {phi.param_arity} parameters, got {len(params)}")
        return phi.formula
    objs, pars = variables(phi)
    if objs and max(objs) > arity:
        raise ValueError(
            f"object variable x{max(objs)} exceeds tuple arity {arity}")
    if pars and max(pars) > len(params):
        raise ValueError(
            f"parameter variable y{max(pars)} has no value")
    return phi


def mu_eval(measure: FiniteMeasure, phi: Union[Formula, PhiPartition],
            params: Sequence[int] = ()) -> Fraction:
    """Measure of the set defined by phi at the given parameters."""
    params = tuple(int(v) for v in params)
    formula = _unwrap_phi(phi, measure.arity, params)
    total = Fraction(0)
    for point, weight in measure.support:
        if evaluate(measure.host, formula, make_assignment(point, params)):
            total += weight
    return total


def product(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """Product on the concatenated tuple grid (mu's coordinates first).

    For finitely supported measures the integral of the fibre averages
    collapses to the weight-product grid, which makes the construction
    associative on the nose; it is not commutative.
    """
    if mu.host != nu.host:
        raise ValueError("product factors must share a host")
    support = tuple(sorted(
        ((p + q, wp * wq)
         for p, wp in mu.support for q, wq in nu.support)))
    return FiniteMeasure(mu.host, mu.arity + nu.arity, support)


def localize(measure: FiniteMeasure,
             predicate: Callable[[Point], bool]) -> FiniteMeasure:
    """Conditional measure on the points satisfying the predicate."""
    kept = [(p, w) for p, w in measure.support if predicate(p)]
    mass = sum((w for _, w in kept), Fraction(0))
    if mass == 0:
        raise ZeroMassError("localizing set has measure zero")
    return FiniteMeasure(measure.host, measure.arity,
                         tuple((p, w / mass) for p, w in kept))


# ---------------------------------------------------------------------------
# The parameter scan
# ---------------------------------------------------------------------------

class ApproxReport(Record):
    """Result of the scan of a parameter domain: the sup error of the
    isolated-vertex type rule against the point average, and the largest
    count of points that falsify the formula."""

    sup_error: Fraction
    argmax_params: tuple[int, ...]
    samples_scanned: int
    violation_max: int = 0
    violation_params: Optional[tuple[int, ...]] = None
    epsilon_target: Optional[Fraction] = None
    certified_bound: Optional[Fraction] = None

    def __post_init__(self):
        if (self.certified_bound is not None
                and self.sup_error > self.certified_bound):
            raise ValueError(
                f"scanned error {self.sup_error} exceeds the certified "
                f"bound {self.certified_bound}")

    def to_json_dict(self) -> dict:
        from .serialize import rational_to_json
        return {
            "sup_error": rational_to_json(self.sup_error),
            "argmax_params": list(self.argmax_params),
            "samples_scanned": self.samples_scanned,
            "exhaustive": True,
            "epsilon_target": (None if self.epsilon_target is None
                               else rational_to_json(self.epsilon_target)),
            "certified_bound": (None if self.certified_bound is None
                                else rational_to_json(self.certified_bound)),
        }


def sup_error(analysis: PhiAnalysis, host: Hypergraph, points: Sequence[int],
              chosen: int, epsilon: Optional[Fraction] = None,
              certified_bound: Optional[Fraction] = None) -> ApproxReport:
    """Scan every parameter tuple b of the host once.

    The formula is compiled once into neighbour-bitset operations
    (compile_mask), so at each b one bitset holds every vertex that
    satisfies it, and the count sat(b) of the points that do is a
    popcount against the point bitset, taken per multiplicity class so
    that a repeated point counts as often as it occurs.  The
    isolated-vertex type rule predicts 1 at b when the residual of some
    generic disjunct holds there, else 0; the error at b is
    |rule(b) - sat(b)/n|.  Where the residual of the disjunct `chosen`
    holds, n - sat(b) is a violation count.  Residuals are compiled the
    same way and hold at b exactly when their bitset is non-empty.  Ties
    on either maximum resolve to the lexicographically least b; when
    that residual holds nowhere the violation maximum is 0 with no tuple.
    """
    n = len(points)
    if n == 0:
        raise ValueError("average of an empty sequence")
    m = analysis.phi.param_arity
    if host.n == 0 and m > 0:
        raise ValueError("empty parameter domain")
    for v in points:
        if not 0 <= v < host.n:
            raise ValueError(f"point {v} out of range")
    by_count: dict[int, int] = {}
    for v, count in Counter(points).items():
        by_count[count] = by_count.get(count, 0) | 1 << v
    classes = tuple(by_count.items())
    satisfying = compile_mask(host, analysis.phi.formula)
    generics = [analysis.profiles[t] for t in analysis.generic_indices]
    rule = (compile_mask(host, Or(tuple(p.residual_formula()
                                        for p in generics)))
            if generics else None)
    profile = analysis.profiles[chosen]
    gate = compile_mask(host, profile.residual_formula())

    # tuples come in lexicographic order, so a strict > keeps the least
    # tuple among ties
    best, argmax = -1, ()
    max_z, max_z_at = 0, None
    scanned = 0
    for b in itertools.product(range(host.n), repeat=m):
        scanned += 1
        mask = satisfying(b)
        sat = sum(count * (mask & bits).bit_count() for count, bits in classes)
        err = n - sat if rule is not None and rule(b) else sat
        if err > best:
            best, argmax = err, b
        if not gate(b):
            continue
        if max_z_at is None or n - sat > max_z:
            max_z, max_z_at = n - sat, b
    return ApproxReport(Fraction(best, n), argmax, scanned, max_z, max_z_at,
                        epsilon_target=epsilon,
                        certified_bound=certified_bound)


# ---------------------------------------------------------------------------
# Seeded self-test of the measure algebra
# ---------------------------------------------------------------------------

SELFTEST_CHECKS = ("normalization", "grid-identity", "associativity",
                   "localization")

_SELFTEST_FORMULAS = (
    "E(x1,x2)",
    "E(x1,x2) & x1 != x2",
    "!E(x1,x2) | E(x1,y1)",
    "E(x1,y1) | x2 = y1",
)


class SelfTestOutcome(Record):
    seed: int
    cases: int
    passed: dict


def _random_host(rng: random.Random) -> Hypergraph:
    n = rng.randint(3, 6)
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < 0.5]
    return Hypergraph.trusted(2, n, frozenset(edges))


def _random_measure(rng: random.Random, host: Hypergraph) -> FiniteMeasure:
    k = rng.randint(1, 4)
    points = [(rng.randrange(host.n),) for _ in range(k)]
    raw = [rng.randint(1, 9) for _ in range(k)]
    total = sum(raw)
    return make_measure(host, 1,
                        ((p, Fraction(w, total)) for p, w in zip(points, raw)))


def measure_algebra_selftest(seed: int, cases: int = 20) -> SelfTestOutcome:
    """Exercise normalization, the product grid identity, associativity and
    localization on seeded random measures; every check is exact."""
    if cases < 1:
        raise ValueError("case count must be positive")
    rng = random.Random(seed)
    passed = {name: 0 for name in SELFTEST_CHECKS}
    for case in range(cases):
        host = _random_host(rng)
        mu = _random_measure(rng, host)
        nu = _random_measure(rng, host)
        lam = _random_measure(rng, host)

        ok = all(sum((w for _, w in m.support), Fraction(0)) == 1
                 for m in (mu, nu, lam, product(mu, nu)))
        passed["normalization"] += ok

        formula = parse_formula(_SELFTEST_FORMULAS[case % len(_SELFTEST_FORMULAS)])
        _, param_vars = variables(formula)
        params = tuple(rng.randrange(host.n) for _ in range(max(param_vars, default=0)))
        left = mu_eval(product(mu, nu), formula, params)
        right = Fraction(0)
        for q, wq in nu.support:
            inner = Fraction(0)
            for p, wp in mu.support:
                if evaluate(host, formula, make_assignment(p + q, params)):
                    inner += wp
            right += wq * inner
        passed["grid-identity"] += (left == right)

        passed["associativity"] += (
            product(product(mu, nu), lam) == product(mu, product(nu, lam)))

        pred = lambda point: point[0] % 2 == 0
        mass = sum((w for p, w in mu.support if pred(p)), Fraction(0))
        if mass == 0:
            try:
                localize(mu, pred)
                ok = False
            except ZeroMassError:
                ok = True
        else:
            loc = localize(mu, pred)
            ok = (sum((w for _, w in loc.support), Fraction(0)) == 1
                  and all(loc.weight(p) == w / mass
                          for p, w in mu.support if pred(p)))
        passed["localization"] += ok
    return SelfTestOutcome(seed, cases, passed)
