"""Finite measures: constructors, Morley products, localization, sup-error."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import make_average, random_graph, residual_holds, substitute
from keisler_lab.logic import (
    Not,
    ObjectVar,
    ParamVar,
    analyze_phi,
    make_assignment,
    evaluate,
    parse_formula,
    parse_phi,
    PhiPartition,
)
from keisler_lab.measures import (
    ApproxReport,
    FiniteMeasure,
    SELFTEST_CHECKS,
    ZeroMassError,
    localize,
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

def scan(text: str, host: Hypergraph, points, chosen: int = 0, **kwargs):
    return sup_error(analyze_phi(parse_phi(text)), host, points, chosen,
                     **kwargs)


def test_isolated_vertex_oracle_values():
    # C5 plus two isolated vertices; at the isolated point 5, !E(x1,y1)
    # always holds, so the point satisfies phi exactly where the residual
    # does and a zero error pins the rule to the residual at every tuple
    host = Hypergraph(2, 7, cyclic_graph(5, [1]).edges)
    with_residual = scan("!E(x1,y1) & E(y1,y2)", host, [5])
    assert with_residual.sup_error == 0
    assert with_residual.samples_scanned == 49
    # two generic disjuncts whose residuals cover every tuple: rule 1
    either = scan("(!E(x1,y1) & E(y1,y2)) | (!E(x1,y1) & !E(y1,y2))",
                  host, [5])
    assert either.sup_error == 0
    # no generic disjunct: rule 0, and the isolated point never satisfies
    assert scan("E(x1,y1)", host, [5]).sup_error == 0


def test_sup_error_zero_when_average_matches():
    # empty graph: the fresh-vertex rule and any average agree on !E
    host = Hypergraph(2, 4, frozenset())
    report = scan("!E(x1,y1)", host, [0, 1])
    assert report.sup_error == 0
    assert report.samples_scanned == 4


def test_sup_error_single_point_worst_case():
    host = Hypergraph(2, 3, frozenset())
    report = scan("!E(x1,y1) & x1 != y1", host, [0])
    # the rule predicts 1 but x1 != y1 fails at the point itself
    assert report.sup_error == 1
    assert report.argmax_params == (0,)
    # the same tuple is the only one where the point violates phi
    assert (report.violation_max, report.violation_params) == (1, (0,))


def test_sup_error_exhaustive_default_domain_and_ties():
    host = cyclic_graph(5, [1])
    report = scan("!E(x1,y1) & x1 != y1", host, list(range(5)))
    assert report.samples_scanned == 5
    # every vertex shows error 3/5: two neighbours and the point itself
    assert report.sup_error == Fraction(3, 5)
    assert report.argmax_params == (0,)
    assert (report.violation_max, report.violation_params) == (3, (0,))


def test_sup_error_violations_only_where_the_chosen_residual_holds():
    host = cyclic_graph(5, [1])
    points = list(range(5))
    # at every tuple the two neighbours of y1 fail !E(x1,y1); only the
    # edge tuples count, so the least one is (0, 1), not (0, 0)
    gated = scan("!E(x1,y1) & E(y1,y2)", host, points)
    assert (gated.violation_max, gated.violation_params) == (2, (0, 1))
    # E(y1,y1) never holds: no tuple counts and there is no maximum
    never = scan("!E(x1,y1) & E(y1,y1)", host, points)
    assert (never.violation_max, never.violation_params) == (0, None)


def test_sup_error_report_invariant():
    with pytest.raises(ValueError):
        ApproxReport(Fraction(1, 2), (0,), 4, certified_bound=Fraction(1, 3))
    report = ApproxReport(Fraction(1, 3), (0,), 4,
                          certified_bound=Fraction(1, 2))
    payload = report.to_json_dict()
    assert payload["sup_error"] == {"num": 1, "den": 3,
                                    "decimal": payload["sup_error"]["decimal"]}
    assert payload["exhaustive"] is True


def test_sup_error_rejects_empty_domain():
    with pytest.raises(ValueError, match="empty parameter domain"):
        scan("!E(x1,y1) & x1 != y1", Hypergraph(2, 0, frozenset()), [0])


def test_sup_error_rejects_bad_points():
    host = Hypergraph(2, 3, frozenset())
    with pytest.raises(ValueError, match="empty sequence"):
        scan("!E(x1,y1) & x1 != y1", host, [])
    with pytest.raises(ValueError, match="out of range"):
        scan("!E(x1,y1) & x1 != y1", host, [0, 3])


# The two passes the scan replaced: the type rule against mu_eval of the
# point average, then a separate count of violating points per tuple.

def two_pass_reference(analysis, host, points, chosen):
    phi = analysis.phi
    average = make_average(host, [(v,) for v in points])
    tuples = list(itertools.product(range(host.n), repeat=phi.param_arity))
    best = argmax = None
    for b in tuples:
        predicted = Fraction(int(any(
            residual_holds(host, analysis.profiles[t], b)
            for t in analysis.generic_indices)))
        err = abs(predicted - mu_eval(average, phi, b))
        if best is None or err > best or (err == best and b < argmax):
            best, argmax = err, b
    profile = analysis.profiles[chosen]
    max_z, max_z_at = 0, None
    for b in tuples:
        if profile.residual and not residual_holds(host, profile, b):
            continue
        z = sum(1 for v in points
                if not evaluate(host, phi.formula, make_assignment((v,), b)))
        if max_z_at is None or z > max_z or (z == max_z and b < max_z_at):
            max_z, max_z_at = z, b
    return best, argmax, len(tuples), (max_z, max_z_at)


SCAN_FORMULAS = (
    "!E(x1,y1) & x1 != y1",
    "!E(x1,y1) & x1 != y1 & x1 != y2",
    "(!E(x1,y1) & E(y1,y2)) | (x1 != y2 & !E(y1,y2))",
    "(!E(x1,y2) & y1 = y2) | E(x1,y1) | (x1 != y1 & !E(y1,y2))",
    "(!E(x1,y1) & y1 != y2) | (!E(x1,y2) & E(y1,y2)) | x1 = y1",
    # no generic disjunct: scanned on the negation, as fam does
    "E(x1,y1)",
    "E(x1,y1) | x1 = y2",
    "(E(x1,y1) & E(y1,y2)) | x1 = y1",
)


def test_sup_error_matches_the_two_pass_reference():
    rng = random.Random(2024)
    compared = 0
    for case in range(48):
        host = random_graph(rng, rng.randint(2, 6), rng.choice([0.3, 0.6]))
        phi = parse_phi(SCAN_FORMULAS[case % len(SCAN_FORMULAS)])
        analysis = analyze_phi(phi)
        if not analysis.generic_indices:
            analysis = analyze_phi(
                PhiPartition(Not(phi.formula), 1, phi.param_arity))
        # with replacement, so points repeat
        points = [rng.randrange(host.n) for _ in range(rng.randint(1, 8))]
        for chosen in analysis.generic_indices:
            report = sup_error(analysis, host, points, chosen)
            assert (report.sup_error, report.argmax_params,
                    report.samples_scanned,
                    (report.violation_max, report.violation_params)) == \
                two_pass_reference(analysis, host, points, chosen), case
            compared += 1
    assert compared >= 60


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
