"""Formula DSL: parsing, printing, evaluation, DNF, disjunct analysis."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dnf_to_formula, random_graph, residual_holds, substitute
from keisler_lab import logic
from keisler_lab.logic import (
    And,
    DisjunctProfile,
    DnfCapError,
    Eq,
    EvalError,
    FragmentError,
    Literal,
    Not,
    ObjectVar,
    Or,
    ParamVar,
    ParseError,
    PhiPartition,
    Rel,
    analyze_phi,
    compile_mask,
    evaluate,
    format_formula,
    make_assignment,
    parse_formula,
    parse_phi,
    to_dnf,
    variables,
)
from keisler_lab.structures import Hypergraph


def all_assignments(host, phi):
    """Every (objects, params) pair over the host's vertices."""
    vertices = range(host.n)
    for objs in itertools.product(vertices, repeat=phi.object_arity):
        for pars in itertools.product(vertices, repeat=phi.param_arity):
            yield objs, pars


def random_formula(rng: random.Random, object_arity: int = 2,
                   param_arity: int = 2, depth: int = 3):
    """Seeded formula over E and = with bounded variable indices."""
    def term():
        if param_arity and rng.random() < 0.5:
            return ParamVar(rng.randint(1, param_arity))
        return ObjectVar(rng.randint(1, max(object_arity, 1)))

    def build(d: int):
        roll = rng.random()
        if d == 0 or roll < 0.3:
            if rng.random() < 0.6:
                return Rel("E", (term(), term()))
            return Eq(term(), term())
        if roll < 0.5:
            return Not(build(d - 1))
        parts = tuple(build(d - 1) for _ in range(rng.randint(2, 3)))
        return And(parts) if rng.random() < 0.5 else Or(parts)

    return build(depth)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_basic_shapes():
    assert parse_formula("E(x1,y1)") == Rel("E", (ObjectVar(1), ParamVar(1)))
    assert parse_formula("x1 = y2") == Eq(ObjectVar(1), ParamVar(2))
    assert parse_formula("x1 != y1") == Not(Eq(ObjectVar(1), ParamVar(1)))
    assert parse_formula("R(x1,x2,y1)") == Rel(
        "R", (ObjectVar(1), ObjectVar(2), ParamVar(1)))


def test_parse_precedence():
    f = parse_formula("!E(x1,y1) & x1 != y1 | x2 = y1")
    assert isinstance(f, Or) and len(f.parts) == 2
    assert isinstance(f.parts[0], And)
    g = parse_formula("!(E(x1,y1) | x1 = y1)")
    assert isinstance(g, Not) and isinstance(g.body, Or)


def test_parse_whitespace_insensitive():
    assert parse_formula(" E( x1 , y1 ) ") == parse_formula("E(x1,y1)")


@pytest.mark.parametrize("text,position,fragment", [
    ("E(x1", 5, "',' or ')'"),
    ("", 1, "'!' or '(' or a relation symbol or a variable"),
    ("E(x1,y1) &", 11, "'!' or '(' or a relation symbol or a variable"),
    ("E(x1,y1) x2", 10, "'&' or '|' or end of input"),
    ("(E(x1,y1)", 10, "')'"),
    ("x1 & x2", 4, "'=' or '!='"),
    ("x1 =", 5, "a variable"),
    ("x0 = y1", 1, "an index of at least 1"),
    ("E(x1,y1) @", 10, "a valid token"),
    # the first error in reading order, though 200 "!" follow it
    pytest.param("x1 y1 & " + "!" * 200 + "E(x1,y1)", 4,
                 "found 'y1', expected '=' or '!='",
                 id="syntax-error-before-the-nesting-cap"),
])
def test_parse_error_positions(text, position, fragment):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert info.value.position == position
    assert fragment in str(info.value)
    assert f"column {position}:" in str(info.value)


def alternating(depth: int) -> str:
    """A formula whose And and Or nodes nest depth levels deep, each level
    an open parenthesis but the innermost a negated relation."""
    text = "x1 != y1"
    for i in range(depth - 1):
        text = f"(!E(x1,y1) {'&' if i % 2 else '|'} {text})"
    return text


# formulas nested exactly to the cap: every recursive pass runs on them
AT_CAP = {
    "parentheses": "(" * 100 + "x1 = y1" + ")" * 100,
    "negations": "!" * 100 + "E(x1,y1)",
    "negated-groups": "!(" * 50 + "E(x1,y1)" + ")" * 50,
    "alternating": alternating(100),
}


@pytest.mark.parametrize("name", sorted(AT_CAP))
def test_formulas_at_the_nesting_cap_pass_every_pass(name):
    f = parse_formula(AT_CAP[name])
    assert parse_formula(format_formula(f)) == f
    to_dnf(f)
    host = random_graph(random.Random(1), 6)
    mask = compile_mask(host, f)
    for b in range(host.n):
        assert mask((b,)) == sum(1 << a for a in range(host.n) if evaluate(
            host, f, make_assignment([a], [b])))


@pytest.mark.parametrize("text, column, depth", [
    ("(" * 400 + "x1 = y1" + ")" * 400, 101, 101),
    ("!" * 2000 + "E(x1,y1)", 101, 101),
    ("!(" * 50 + "!E(x1,y1)" + ")" * 50, 101, 101),
    # each of 100 groups opens with 13 characters, "(!E(x1,y1) & "
    (alternating(101), 13 * 99 + 2, 101),
    # the levels of a group close with it, and a relation's arguments are
    # none: 100 groups side by side nest 1 deep
    (" & ".join(["(E(x1,y1))"] * 100) + " & " + "(" * 101 + "x1 = y1"
     + ")" * 101, 1401, 101),
], ids=["parentheses", "negations", "negated-groups", "alternating",
        "side-by-side"])
def test_parse_refuses_nesting_past_the_cap(text, column, depth):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert info.value.position == column
    assert f"nested {depth} deep, expected at most 100 nested" in str(
        info.value)


def test_format_round_trip_corpus():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng)
        assert parse_formula(format_formula(f)) == f


def test_format_is_minimal_on_known_shapes():
    assert format_formula(parse_formula("!E(x1,y1) & x1 != y1")) == \
        "!E(x1,y1) & x1 != y1"
    assert format_formula(parse_formula("(E(x1,y1) | x1 = y1) & x2 != y2")) \
        == "(E(x1,y1) | x1 = y1) & x2 != y2"
    # negated equality always prints through the != sugar
    assert format_formula(parse_formula("!(x1 = y1)")) == "x1 != y1"


def test_variable_indices_start_at_one():
    with pytest.raises(ValueError):
        ObjectVar(0)
    with pytest.raises(ValueError):
        ParamVar(-1)
    with pytest.raises(ValueError):
        Rel("Q", (ObjectVar(1),))


# ---------------------------------------------------------------------------
# arity wrappers
# ---------------------------------------------------------------------------

def test_parse_phi_infers_arities():
    phi = parse_phi("E(x1,y2)")
    assert phi.object_arity == 1 and phi.param_arity == 2
    explicit = parse_phi("E(x1,y1)", object_arity=3, param_arity=2)
    assert explicit.object_arity == 3 and explicit.param_arity == 2
    closed = parse_phi("x1 = x1")
    assert closed.param_arity == 0


def test_phi_partition_rejects_out_of_range_variables():
    with pytest.raises(ValueError):
        PhiPartition(parse_formula("E(x1,x2)"), 1, 0)
    with pytest.raises(ValueError):
        PhiPartition(parse_formula("E(x1,y1)"), 1, 0)
    with pytest.raises(ValueError):
        PhiPartition(parse_formula("x1 = x1"), -1, 0)


def test_variables_and_substitute():
    f = parse_formula("E(x1,y2) & x1 != x3")
    objs, params = variables(f)
    assert objs == frozenset({1, 3}) and params == frozenset({2})
    g = substitute(f, {ObjectVar(3): ParamVar(1)})
    assert g == parse_formula("E(x1,y2) & x1 != y1")
    assert substitute(f, {}) == f


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_make_assignment_positional():
    asn = make_assignment((4, 7), (2,))
    assert asn[ObjectVar(1).key] == 4
    assert asn[ObjectVar(2).key] == 7
    assert asn[ParamVar(1).key] == 2


def test_assignments_are_keyed_by_kind_and_index(monkeypatch):
    asn = make_assignment((4, 7), (2,))
    assert asn == {(0, 1): 4, (0, 2): 7, (1, 1): 2}
    assert ObjectVar(1).key == (0, 1) and ParamVar(1).key == (1, 1)
    with pytest.raises(KeyError):
        asn[ParamVar(2).key]
    g = Hypergraph(2, 3, frozenset({(0, 1)}))
    f = parse_formula("E(x1,y1) & x1 != x2 & y1 = y1")
    # a mapping keyed by the terms themselves is not an assignment: the
    # first variable it does not bind by key is named
    with pytest.raises(EvalError, match="x1"):
        evaluate(g, f, {ObjectVar(1): 0, ObjectVar(2): 2, ParamVar(1): 1})
    with pytest.raises(EvalError, match="y1"):
        evaluate(g, f, {(0, 1): 0, (0, 2): 2})
    # x_i and y_i hash alike, but a lookup compares no terms
    calls = []
    for cls in (ObjectVar, ParamVar):
        eq = cls.__eq__
        monkeypatch.setattr(cls, "__eq__",
                            lambda a, b, eq=eq: calls.append(1) or eq(a, b))
    assert evaluate(g, f, make_assignment((1, 2), (0,)))
    assert calls == []


def test_evaluate_graph_semantics():
    g = Hypergraph(2, 4, frozenset({(0, 1), (2, 3)}))
    f = parse_formula("E(x1,y1)")
    assert evaluate(g, f, make_assignment((0,), (1,)))
    assert evaluate(g, f, make_assignment((1,), (0,)))
    assert not evaluate(g, f, make_assignment((0,), (2,)))
    # a repeated entry never satisfies the edge relation
    assert not evaluate(g, f, make_assignment((0,), (0,)))
    assert evaluate(g, parse_formula("!E(x1,y1) & x1 != y1"),
                    make_assignment((0,), (2,)))
    assert not evaluate(g, parse_formula("x1 != y1"),
                        make_assignment((0,), (0,)))


def test_evaluate_hypergraph():
    h3 = Hypergraph(3, 4, frozenset({(0, 1, 2)}))
    f = parse_formula("R(x1,x2,y1)")
    assert evaluate(h3, f, make_assignment((0, 1), (2,)))
    assert not evaluate(h3, f, make_assignment((0, 1), (3,)))
    assert not evaluate(h3, f, make_assignment((0, 0), (2,)))


def test_evaluate_errors():
    g = Hypergraph(2, 3, frozenset({(0, 1)}))
    with pytest.raises(EvalError):
        evaluate(g, parse_formula("R(x1,y1)"), make_assignment((0,), (1,)))
    with pytest.raises(EvalError):
        evaluate(g, parse_formula("E(x1,x2,x3)"),
                 make_assignment((0, 1, 2), ()))
    with pytest.raises(EvalError):
        evaluate(g, parse_formula("E(x1,y1)"), make_assignment((0,), ()))
    h3 = Hypergraph(3, 4, frozenset({(0, 1, 2)}))
    with pytest.raises(EvalError):
        evaluate(h3, parse_formula("E(x1,y1)"), make_assignment((0,), (1,)))


# ---------------------------------------------------------------------------
# disjunctive normal form
# ---------------------------------------------------------------------------

def clause_value(structure, clauses, assignment) -> bool:
    return any(all(evaluate(structure, lit.formula(), assignment)
                   for lit in clause)
               for clause in clauses)


def test_dnf_drops_contradictions():
    assert to_dnf(parse_formula("E(x1,y1) & !E(x1,y1)")) == ()
    assert to_dnf(parse_formula("x1 = y1 & x1 != y1")) == ()


def test_dnf_canonicalizes_symmetric_atoms():
    assert to_dnf(parse_formula("E(y1,x1)")) == to_dnf(parse_formula("E(x1,y1)"))
    assert to_dnf(parse_formula("y1 = x1")) == to_dnf(parse_formula("x1 = y1"))
    assert to_dnf(parse_formula("E(x1,y1) | E(y1,x1)")) == \
        to_dnf(parse_formula("E(x1,y1)"))


def test_dnf_cap(monkeypatch):
    big = And(tuple(
        Or((Rel("E", (ObjectVar(1), ParamVar(j))), Eq(ObjectVar(1), ParamVar(j))))
        for j in range(1, 14)))
    with pytest.raises(DnfCapError):
        to_dnf(big)
    small = Or((Rel("E", (ObjectVar(1), ParamVar(1))),
                Eq(ObjectVar(1), ParamVar(2))))
    monkeypatch.setattr(logic, "_MAX_CLAUSES", 1)
    with pytest.raises(DnfCapError, match="clause count exceeds 1"):
        to_dnf(small)
    assert issubclass(DnfCapError, ValueError)  # the CLI's exit-1 arm


def test_dnf_equivalent_on_corpus():
    rng = random.Random(17)
    hosts = [random_graph(rng, 4, 0.5), random_graph(rng, 5, 0.4)]
    for _ in range(50):
        f = random_formula(rng)
        phi = PhiPartition(f, 2, 2)
        clauses = to_dnf(f)
        for host in hosts:
            for objs, pars in all_assignments(host, phi):
                asn = make_assignment(objs, pars)
                assert evaluate(host, f, asn) == \
                    clause_value(host, clauses, asn)


def test_dnf_to_formula_round_trip():
    rng = random.Random(19)
    host = random_graph(rng, 5, 0.5)
    for _ in range(25):
        f = random_formula(rng)
        clauses = to_dnf(f)
        if not clauses:
            continue
        back = dnf_to_formula(clauses)
        phi = PhiPartition(f, 2, 2)
        for objs, pars in all_assignments(host, phi):
            asn = make_assignment(objs, pars)
            assert evaluate(host, f, asn) == evaluate(host, back, asn)
    with pytest.raises(ValueError):
        dnf_to_formula(())


# ---------------------------------------------------------------------------
# single-object-variable analysis
# ---------------------------------------------------------------------------

def test_analyze_no_edge_formula():
    analysis = analyze_phi(parse_phi("!E(x1,y1) & x1 != y1"))
    assert len(analysis.profiles) == 1
    profile = analysis.profiles[0]
    assert profile.neg_edge == frozenset({1})
    assert profile.neq == frozenset({1})
    assert profile.pos_edge == frozenset() and profile.eq == frozenset()
    assert profile.residual == ()
    assert profile.generic
    assert analysis.generic_indices == (0,)


def test_analyze_positive_edge_has_no_generics():
    analysis = analyze_phi(parse_phi("E(x1,y1)"))
    assert analysis.generic_indices == ()
    assert analysis.profiles[0].pos_edge == frozenset({1})


def test_analyze_residual_literals():
    analysis = analyze_phi(parse_phi("!E(x1,y1) & E(y1,y2)"))
    (profile,) = analysis.profiles
    assert profile.neg_edge == frozenset({1})
    assert len(profile.residual) == 1
    host = Hypergraph(2, 3, frozenset({(0, 1)}))
    assert residual_holds(host, profile, (0, 1))
    assert not residual_holds(host, profile, (0, 2))


def test_analyze_degenerate_object_atoms():
    # E(x1,x1) is identically false; its negation is vacuous
    host = random_graph(random.Random(3), 4, 0.5)
    dead = analyze_phi(parse_phi("E(x1,x1)", param_arity=1))
    assert dead.profiles == ()
    alive = analyze_phi(parse_phi("!E(x1,x1)", param_arity=1))
    # one vacuous disjunct: no constraint on x1 and no residual
    assert alive.profiles == (DisjunctProfile(
        frozenset(), frozenset(), frozenset(), frozenset(), ()),)
    for objs, pars in all_assignments(host, dead.phi):
        asn = make_assignment(objs, pars)
        assert not evaluate(host, dead.phi.formula, asn)
        assert evaluate(host, alive.phi.formula, asn)


def test_analyze_rejects_non_fragment():
    with pytest.raises(FragmentError):
        analyze_phi(parse_phi("E(x1,x2)"))
    with pytest.raises(FragmentError):
        analyze_phi(parse_phi("R(x1,y1,y2)"))


# ---------------------------------------------------------------------------
# bitset compilation against the interpreter
# ---------------------------------------------------------------------------

TERMS = (ObjectVar(1), ParamVar(1), ParamVar(2), ParamVar(3))

# E(x1,x1), x1 = x1, E(yi,yi) and yi = yj are all among the atoms drawn
atoms = st.builds(lambda rel, s, t: Rel("E", (s, t)) if rel else Eq(s, t),
                  st.booleans(), st.sampled_from(TERMS),
                  st.sampled_from(TERMS))
formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, st.lists(sub, min_size=1, max_size=3).map(tuple)),
        st.builds(Or, st.lists(sub, min_size=1, max_size=3).map(tuple))),
    max_leaves=8)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Hypergraph(2, n, frozenset(p for p, k in zip(pairs, keep) if k))


DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=200,
                        deadline=None)


@DIFFERENTIAL
@given(graphs(), formulas)
def test_compile_mask_matches_evaluate(host, f):
    m = max(variables(f)[1], default=0)
    mask = compile_mask(host, f)
    for b in itertools.product(range(host.n), repeat=m):
        expected = sum(1 << v for v in range(host.n)
                       if evaluate(host, f, make_assignment((v,), b)))
        assert mask(b) == expected, (format_formula(f), b)


BAD_ATOMS = (Rel("R", (ObjectVar(1), ParamVar(1))),
             Rel("E", (ObjectVar(1), ParamVar(1), ParamVar(2))),
             Rel("E", (ParamVar(1),)),
             Rel("E", (ObjectVar(1), ObjectVar(2))))


@DIFFERENTIAL
@given(graphs().filter(lambda h: h.n > 0), st.sampled_from(BAD_ATOMS),
       formulas, st.sampled_from((Not, And, Or, None)))
def test_compile_mask_rejects_what_evaluate_rejects(host, bad, f, wrap):
    # the bad atom comes first, so evaluate reaches it at any assignment
    if wrap is None:
        g = bad
    elif wrap is Not:
        g = Not(bad)
    else:
        g = wrap((bad, f))
    b = (0,) * max(variables(g)[1], default=0)
    with pytest.raises(EvalError) as interpreted:
        evaluate(host, g, make_assignment((0,), b))
    with pytest.raises(EvalError) as compiled:
        compile_mask(host, g)
    assert type(compiled.value) is type(interpreted.value)


residual_literals = st.builds(
    lambda rel, s, t, negated: Literal(
        Rel("E", (s, t)) if rel else Eq(s, t), negated),
    st.booleans(), st.sampled_from(TERMS[1:]), st.sampled_from(TERMS[1:]),
    st.booleans())


@DIFFERENTIAL
@given(graphs().filter(lambda h: h.n > 0),
       st.lists(residual_literals, max_size=4))
def test_residual_holds_matches_evaluate(host, residual):
    none = frozenset()
    profile = DisjunctProfile(none, none, none, none, tuple(residual))
    for b in itertools.product(range(host.n), repeat=3):
        asn = make_assignment((), b)
        expected = all(evaluate(host, lit.formula(), asn) for lit in residual)
        assert residual_holds(host, profile, b) == expected, b


def test_compile_mask_examples():
    path = Hypergraph(2, 4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert compile_mask(path, parse_formula("E(x1,y1)"))((1,)) == 0b101
    assert compile_mask(path, parse_formula("x1 = y2"))((0, 3)) == 0b1000
    assert compile_mask(path, parse_formula("!E(x1,y1) & x1 != y1"))(
        (1,)) == 0b1000
    # atoms over parameters only are all or nothing
    assert compile_mask(path, parse_formula("E(y1,y2)"))((1, 2)) == 0b1111
    assert compile_mask(path, parse_formula("E(y1,y1)"))((1,)) == 0
    assert compile_mask(path, parse_formula("E(x1,x1) | x1 = x1"))(()) == 0b1111
    with pytest.raises(EvalError):
        compile_mask(Hypergraph(3, 4, frozenset({(0, 1, 2)})),
                     parse_formula("R(x1,y1,y2)"))
