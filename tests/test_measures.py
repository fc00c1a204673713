"""Finite measures: constructors, Morley products, localization, sup-error."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_graph
from keisler_lab.logic import (
    ObjectVar,
    ParamVar,
    make_assignment,
    evaluate,
    parse_formula,
    parse_phi,
    substitute,
    PhiPartition,
)
from keisler_lab.measures import (
    ApproxReport,
    FiniteMeasure,
    IsolatedVertexOracle,
    SELFTEST_CHECKS,
    ZeroMassError,
    localize,
    make_average,
    make_measure,
    measure_algebra_selftest,
    mu_eval,
    product,
    sup_error,
)
from keisler_lab.structures import Hypergraph, cyclic_graph


def random_measure(rng: random.Random, host: Hypergraph,
                   arity: int = 1) -> FiniteMeasure:
    k = rng.randint(1, 4)
    points = [tuple(rng.randrange(host.n) for _ in range(arity))
              for _ in range(k)]
    raw = [rng.randint(1, 9) for _ in range(k)]
    total = sum(raw)
    return make_measure(host, arity,
                        ((p, Fraction(w, total)) for p, w in zip(points, raw)))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_finite_measure_validation():
    host = Hypergraph(2, 3, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        FiniteMeasure(host, 1, (((0,), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        FiniteMeasure(host, 1, (((0,), Fraction(1, 2)),
                                ((0,), Fraction(1, 2))))
    with pytest.raises(ValueError):
        FiniteMeasure(host, 1, (((5,), Fraction(1)),))
    with pytest.raises(ValueError):
        FiniteMeasure(host, 1, (((1,), Fraction(1, 2)),
                                ((0,), Fraction(1, 2))))
    with pytest.raises(ValueError):
        FiniteMeasure(host, 2, (((0,), Fraction(1)),))


def test_make_average_examples():
    host = Hypergraph(2, 3, frozenset({(0, 1)}))
    assert make_average(host, [(0,)]) == make_average(host, [0])
    mu = make_average(host, [(0,), (1,), (0,)])
    assert mu.weight((0,)) == Fraction(2, 3)
    assert mu.weight((1,)) == Fraction(1, 3)
    two = make_average(host, [(0,), (2,)])
    assert mu_eval(two, parse_formula("E(x1,y1)"), (1,)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        make_average(host, [])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_mu_eval_examples():
    host = Hypergraph(2, 3, frozenset({(0, 1)}))
    point = make_average(host, [0])
    assert mu_eval(point, parse_formula("E(x1,y1)"), (1,)) == 1
    rng = random.Random(0)
    for _ in range(10):
        mu = random_measure(rng, host)
        assert mu_eval(mu, parse_formula("x1 = x1")) == 1


def test_mu_eval_five_cycle_degree():
    c5 = cyclic_graph(5, [1])
    av = make_average(c5, [(v,) for v in range(5)])
    for b in range(5):
        # every vertex of the 5-cycle has exactly two neighbours
        assert mu_eval(av, parse_formula("E(x1,y1)"), (b,)) == Fraction(2, 5)


def test_mu_eval_arity_errors():
    host = Hypergraph(2, 3, frozenset({(0, 1)}))
    mu = make_average(host, [0])
    with pytest.raises(ValueError):
        mu_eval(mu, parse_formula("E(x1,x2)"))
    with pytest.raises(ValueError):
        mu_eval(mu, parse_formula("E(x1,y1)"))


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_of_diracs():
    host = Hypergraph(2, 4, frozenset({(0, 1)}))
    pair = product(make_average(host, [0]), make_average(host, [1]))
    assert pair.arity == 2
    assert pair.support == (((0, 1), Fraction(1)),)


def test_product_grid_enumeration():
    host = Hypergraph(2, 4, frozenset({(0, 1), (1, 2)}))
    left = make_average(host, [(0,), (1,)])
    right = make_average(host, [(1,), (2,)])
    adjacent = sum(1 for a in (0, 1) for b in (1, 2)
                   if host.has_edge((a, b)))
    value = mu_eval(product(left, right), parse_formula("E(x1,x2)"))
    assert value == Fraction(adjacent, 4)


def test_product_matches_double_loop_oracle():
    rng = random.Random(31)
    for _ in range(30):
        host = random_graph(rng, rng.randint(3, 6), 0.5)
        mu = random_measure(rng, host)
        nu = random_measure(rng, host)
        phi = parse_formula("E(x1,x2) | x1 = y1")
        params = (rng.randrange(host.n),)
        expected = Fraction(0)
        for p, wp in mu.support:
            for q, wq in nu.support:
                if evaluate(host, phi, make_assignment(p + q, params)):
                    expected += wp * wq
        assert mu_eval(product(mu, nu), phi, params) == expected


def test_product_associative_exactly():
    rng = random.Random(37)
    for _ in range(25):
        host = random_graph(rng, rng.randint(3, 6), 0.5)
        mu, nu, lam = (random_measure(rng, host) for _ in range(3))
        assert product(product(mu, nu), lam) == product(mu, product(nu, lam))


def test_product_host_mismatch():
    a = make_average(Hypergraph(2, 2, frozenset()), [0])
    b = make_average(Hypergraph(2, 3, frozenset()), [0])
    with pytest.raises(ValueError):
        product(a, b)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localize_examples():
    host = Hypergraph(2, 4, frozenset())
    d = make_average(host, [1])
    assert localize(d, lambda p: p[0] == 1) == d
    av = make_average(host, [(0,), (1,)])
    assert localize(av, lambda p: p[0] == 0) == make_average(host, [0])
    with pytest.raises(ZeroMassError):
        localize(d, lambda p: p[0] == 0)


def test_localize_renormalizes_proportionally():
    rng = random.Random(41)
    for _ in range(25):
        host = random_graph(rng, rng.randint(3, 6), 0.5)
        mu = random_measure(rng, host)
        keep = lambda p: p[0] % 2 == 0
        mass = sum((w for p, w in mu.support if keep(p)), Fraction(0))
        if mass == 0:
            with pytest.raises(ZeroMassError):
                localize(mu, keep)
            continue
        loc = localize(mu, keep)
        assert sum((w for _, w in loc.support), Fraction(0)) == 1
        for p, w in mu.support:
            assert loc.weight(p) == (w / mass if keep(p) else 0)


# ---------------------------------------------------------------------------
# type rules and sup-error scans
# ---------------------------------------------------------------------------

def test_isolated_vertex_oracle_values():
    host = cyclic_graph(5, [1])
    oracle = IsolatedVertexOracle()
    no_edge = parse_phi("!E(x1,y1) & x1 != y1")
    assert all(oracle.value(no_edge, host, (b,)) == 1 for b in range(5))
    assert all(oracle.value(parse_phi("E(x1,y1)"), host, (b,)) == 0
               for b in range(5))
    with_residual = parse_phi("!E(x1,y1) & E(y1,y2)")
    assert oracle.value(with_residual, host, (0, 1)) == 1
    assert oracle.value(with_residual, host, (0, 2)) == 0


def test_sup_error_zero_when_average_matches():
    # empty graph: the fresh-vertex rule and any off-parameter average agree
    host = Hypergraph(2, 4, frozenset())
    phi = parse_phi("!E(x1,y1) & x1 != y1")
    report = sup_error(IsolatedVertexOracle(), host, [(0,), (1,)], phi,
                       domain=[(2,), (3,)])
    assert report.sup_error == 0
    assert report.exhaustive and report.samples_scanned == 2


def test_sup_error_single_point_worst_case():
    host = Hypergraph(2, 3, frozenset())
    phi = parse_phi("!E(x1,y1) & x1 != y1")
    report = sup_error(IsolatedVertexOracle(), host, [(0,)], phi,
                       domain=[(0,)])
    # the rule predicts 1 but x1 != y1 fails at the point itself
    assert report.sup_error == 1
    assert report.argmax_params == (0,)


def test_sup_error_exhaustive_default_domain_and_ties():
    host = cyclic_graph(5, [1])
    phi = parse_phi("!E(x1,y1) & x1 != y1")
    report = sup_error(IsolatedVertexOracle(), host, [(v,) for v in range(5)],
                       phi)
    assert report.samples_scanned == 5
    # every vertex shows error 3/5: two neighbours and the point itself
    assert report.sup_error == Fraction(3, 5)
    assert report.argmax_params == (0,)


def test_sup_error_sampled_mode():
    host = cyclic_graph(5, [1])
    phi = parse_phi("!E(x1,y1) & x1 != y1")
    first = sup_error(IsolatedVertexOracle(), host, [(0,)], phi,
                      sample=8, seed=5)
    again = sup_error(IsolatedVertexOracle(), host, [(0,)], phi,
                      sample=8, seed=5)
    assert first == again
    assert not first.exhaustive and first.samples_scanned == 8
    with pytest.raises(ValueError):
        sup_error(IsolatedVertexOracle(), host, [(0,)], phi, sample=0)


def test_sup_error_report_invariant():
    with pytest.raises(ValueError):
        ApproxReport(Fraction(1, 2), (0,), 4, True,
                     certified_bound=Fraction(1, 3))
    ok = ApproxReport(Fraction(1, 2), (0,), 4, False,
                      certified_bound=Fraction(1, 3))
    assert ok.sup_error == Fraction(1, 2)
    payload = ApproxReport(Fraction(1, 3), (0,), 4, True,
                           certified_bound=Fraction(1, 2)).to_json_dict()
    assert payload["sup_error"] == {"num": 1, "den": 3,
                                    "decimal": payload["sup_error"]["decimal"]}
    assert payload["exhaustive"] is True


def test_sup_error_rejects_empty_domain():
    host = Hypergraph(2, 3, frozenset())
    phi = parse_phi("!E(x1,y1) & x1 != y1")
    with pytest.raises(ValueError):
        sup_error(IsolatedVertexOracle(), host, [(0,)], phi, domain=[])


# ---------------------------------------------------------------------------
# product of approximations
# ---------------------------------------------------------------------------

def grid_deviation_case(rng: random.Random, with_param: bool):
    """One seeded instance of the grid-approximation bound.

    phi has two object slots (x-part then y-part) and optionally one
    parameter; the reshaped forms view one slot as the object and move
    everything else into parameters.
    """
    host = random_graph(rng, rng.randint(3, 6), 0.5)
    mu = random_measure(rng, host)
    nu = random_measure(rng, host)
    abar = [(rng.randrange(host.n),) for _ in range(rng.randint(1, 4))]
    bbar = [(rng.randrange(host.n),) for _ in range(rng.randint(1, 4))]
    if with_param:
        phi = parse_phi("E(x1,x2) | !E(x2,y1) & x1 != y1", param_arity=1)
    else:
        phi = parse_phi("E(x1,x2) | x1 = x2", param_arity=0)
    param_domain = ([(c,) for c in range(host.n)] if with_param else [()])

    # theta1: keep the x-part as the object, send the y-part to a fresh
    # parameter slot; theta2 does the mirror image
    shift = phi.param_arity
    theta1 = PhiPartition(
        substitute(phi.formula, {ObjectVar(2): ParamVar(shift + 1)}),
        1, shift + 1)
    theta2 = PhiPartition(
        substitute(substitute(phi.formula, {ObjectVar(1): ParamVar(shift + 1)}),
                   {ObjectVar(2): ObjectVar(1)}),
        1, shift + 1)

    av_a = make_average(host, abar)
    av_b = make_average(host, bbar)

    eps1 = max(abs(mu_eval(mu, theta1, c + (b,))
                   - mu_eval(av_a, theta1, c + (b,)))
               for b in range(host.n) for c in param_domain)
    eps2 = max(abs(mu_eval(nu, theta2, c + (a,))
                   - mu_eval(av_b, theta2, c + (a,)))
               for a in range(host.n) for c in param_domain)
    deviation = max(abs(mu_eval(product(mu, nu), phi, c)
                        - mu_eval(product(av_a, av_b), phi, c))
                    for c in param_domain)
    return eps1, eps2, deviation


def test_grid_deviation_bounded_by_factor_errors():
    rng = random.Random(43)
    nontrivial = 0
    for case in range(40):
        eps1, eps2, deviation = grid_deviation_case(rng, with_param=case % 2 == 0)
        assert deviation <= eps1 + eps2
        # the headline implication: (theta, eps/2)-approximations multiply
        # to a (phi, eps)-approximation of the product
        epsilon = 2 * max(eps1, eps2, Fraction(1, 1000)) + Fraction(1, 1000)
        assert eps1 < epsilon / 2 and eps2 < epsilon / 2
        assert deviation < epsilon
        nontrivial += deviation > 0
    assert nontrivial > 10  # the bound is exercised, not vacuous


def test_grid_deviation_exact_grids_have_zero_error():
    # averages over the full vertex set reproduce the uniform measures
    host = cyclic_graph(5, [1])
    uniform = make_average(host, [(v,) for v in range(5)])
    eps1, eps2, deviation = Fraction(0), Fraction(0), Fraction(0)
    phi = parse_phi("E(x1,x2)", param_arity=0)
    grid = product(uniform, uniform)
    assert mu_eval(grid, phi) == Fraction(10, 25)
    assert mu_eval(grid, phi) == mu_eval(product(uniform, uniform), phi)


# ---------------------------------------------------------------------------
# seeded self-test
# ---------------------------------------------------------------------------

def test_selftest_all_checks_pass():
    outcome = measure_algebra_selftest(3, cases=25)
    assert outcome.cases == 25
    assert set(outcome.passed) == set(SELFTEST_CHECKS)
    assert all(count == 25 for count in outcome.passed.values())
    with pytest.raises(ValueError):
        measure_algebra_selftest(0, cases=0)
