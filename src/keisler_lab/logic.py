"""Quantifier-free formula DSL over one symmetric relation.

Object variables x1, x2, ... stand for the tuple a measure lives on;
parameter variables y1, y2, ... are instantiated by host vertices.

Grammar (whitespace insignificant, IDENT one of E, R)::

    formula := disj
    disj    := conj { "|" conj }
    conj    := lit { "&" lit }
    lit     := "!" lit | "(" formula ")" | atom
    atom    := IDENT "(" term { "," term } ")" | term "=" term | term "!=" term
    term    := "x" INT | "y" INT

Relation atoms evaluate through the host's edge set, so a repeated entry
makes the atom false (the relation is irreflexive by representation).
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence, Union

from ._record import Record
from .structures import Hypergraph


class ParseError(ValueError):
    """Syntax error with a 1-based column and the token kinds expected there."""

    def __init__(self, position: int, expected: Sequence[str], found: str):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"column {position}: found {found}, expected "
            + " or ".join(self.expected))


class EvalError(ValueError):
    """Evaluation failure: unknown symbol, arity clash or missing value."""


class FragmentError(ValueError):
    """The formula leaves the fragment an analysis supports."""


class DnfCapError(ValueError):
    """Disjunctive normal form exceeded the clause cap."""


class ObjectVar(Record):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable indices start at 1")
        # the assignment key (kind, index); not a field, so equality and
        # hashing ignore it
        object.__setattr__(self, "key", (0, self.index))


class ParamVar(Record):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable indices start at 1")
        object.__setattr__(self, "key", (1, self.index))


Term = Union[ObjectVar, ParamVar]


class Rel(Record):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if self.name not in ("E", "R"):
            raise ValueError("relation symbol must be E or R")
        object.__setattr__(self, "args", tuple(self.args))


class Eq(Record):
    left: Term
    right: Term


class Not(Record):
    body: "Formula"


class And(Record):
    parts: tuple["Formula", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("empty conjunction")


class Or(Record):
    parts: tuple["Formula", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("empty disjunction")


Formula = Union[Rel, Eq, Not, And, Or]
Atom = Union[Rel, Eq]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<var>[xy][0-9]+)|(?P<ident>[ER])|(?P<neq>!=)|(?P<bang>!)"
    r"|(?P<amp>&)|(?P<pipe>\|)|(?P<eq>=)|(?P<lp>\()|(?P<rp>\))|(?P<comma>,)")

_TOKEN_NAMES = {
    "var": "a variable", "ident": "a relation symbol", "neq": "'!='",
    "bang": "'!'", "amp": "'&'", "pipe": "'|'", "eq": "'='",
    "lp": "'('", "rp": "')'", "comma": "','", "end": "end of input",
}


class _Token(Record):
    kind: str
    text: str
    position: int  # 1-based column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(i + 1, ["a valid token"], f"{text[i]!r}")
        tokens.append(_Token(m.lastgroup, m.group(), i + 1))
        i = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


# each "(" and "!" that lit descends through is a level of the recursive
# passes over a formula (parsing, printing, DNF, mask compilation), so
# parsing refuses a deeper one before any other pass runs; the goldens
# nest 2 deep
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # the "(" and "!" levels lit is inside

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail([kind])
        self.pos += 1
        return tok

    def fail(self, expected: Sequence[str]):
        tok = self.peek()
        names = [_TOKEN_NAMES[k] for k in expected]
        found = _TOKEN_NAMES[tok.kind] if tok.kind == "end" else f"{tok.text!r}"
        raise ParseError(tok.position, names, found)

    def formula(self) -> Formula:
        parts = [self.conj()]
        while self.peek().kind == "pipe":
            self.pos += 1
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self) -> Formula:
        parts = [self.lit()]
        while self.peek().kind == "amp":
            self.pos += 1
            parts.append(self.lit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def lit(self) -> Formula:
        tok = self.peek()
        if tok.kind not in ("bang", "lp"):
            return self.atom()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(tok.position,
                             [f"at most {_MAX_NESTING} nested '(' and '!'"],
                             f"{tok.text!r} nested {self.depth} deep")
        self.pos += 1
        if tok.kind == "bang":
            inner = Not(self.lit())
        else:
            inner = self.formula()
            self.take("rp")
        self.depth -= 1
        return inner

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident":
            self.pos += 1
            self.take("lp")
            args = [self.term()]
            while self.peek().kind == "comma":
                self.pos += 1
                args.append(self.term())
            if self.peek().kind != "rp":
                self.fail(["comma", "rp"])
            self.pos += 1
            return Rel(tok.text, tuple(args))
        if tok.kind == "var":
            left = self.term()
            op = self.peek()
            if op.kind == "eq":
                self.pos += 1
                return Eq(left, self.term())
            if op.kind == "neq":
                self.pos += 1
                return Not(Eq(left, self.term()))
            self.fail(["eq", "neq"])
        self.fail(["bang", "lp", "ident", "var"])

    def term(self) -> Term:
        tok = self.take("var")
        index = int(tok.text[1:])
        if index < 1:
            raise ParseError(tok.position, ["an index of at least 1"],
                             f"{tok.text!r}")
        return ObjectVar(index) if tok.text[0] == "x" else ParamVar(index)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    result = parser.formula()
    if parser.peek().kind != "end":
        parser.fail(["amp", "pipe", "end"])
    return result


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _format_term(t: Term) -> str:
    prefix = "x" if isinstance(t, ObjectVar) else "y"
    return f"{prefix}{t.index}"


def format_formula(f: Formula) -> str:
    """Render a formula so that parse(format(f)) is structurally f."""
    def fmt(g: Formula, level: int) -> str:
        if isinstance(g, Rel):
            return f"{g.name}({','.join(_format_term(a) for a in g.args)})"
        if isinstance(g, Eq):
            s = f"{_format_term(g.left)} = {_format_term(g.right)}"
            return f"({s})" if level > 2 else s
        if isinstance(g, Not):
            if isinstance(g.body, Eq):
                s = (f"{_format_term(g.body.left)} != "
                     f"{_format_term(g.body.right)}")
                return f"({s})" if level > 2 else s
            if isinstance(g.body, (Rel, Not)):
                return "!" + fmt(g.body, 3)
            return "!(" + fmt(g.body, 0) + ")"
        if isinstance(g, And):
            s = " & ".join(fmt(p, 2) for p in g.parts)
            return f"({s})" if level > 1 else s
        if isinstance(g, Or):
            s = " | ".join(fmt(p, 1) for p in g.parts)
            return f"({s})" if level > 0 else s
        raise TypeError(f"not a formula: {g!r}")
    return fmt(f, 0)


def variables(f: Formula) -> tuple[frozenset[int], frozenset[int]]:
    """Indices of the object and parameter variables occurring in f."""
    objs: set[int] = set()
    params: set[int] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Rel):
            terms = g.args
        elif isinstance(g, Eq):
            terms = (g.left, g.right)
        elif isinstance(g, Not):
            walk(g.body)
            return
        else:
            for p in g.parts:
                walk(p)
            return
        for t in terms:
            (objs if isinstance(t, ObjectVar) else params).add(t.index)

    walk(f)
    return frozenset(objs), frozenset(params)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def make_assignment(objects: Sequence[int] = (),
                    params: Sequence[int] = ()) -> dict:
    """Positional assignment keyed by Term.key: objects[i] binds x(i+1)
    as (0, i + 1), params[j] binds y(j+1) as (1, j + 1).

    ObjectVar(i) and ParamVar(i) hash alike, so a dict keyed by terms
    would pay __eq__ calls per lookup; evaluate looks up the key tuples."""
    out = {}
    for i, v in enumerate(objects):
        out[0, i + 1] = int(v)
    for j, v in enumerate(params):
        out[1, j + 1] = int(v)
    return out


def _atom_value(structure, atom: Atom, assignment: Mapping) -> bool:
    def value(t: Term) -> int:
        try:
            return assignment[t.key]
        except KeyError:
            raise EvalError(f"no value assigned to {_format_term(t)}") from None

    if isinstance(atom, Eq):
        return value(atom.left) == value(atom.right)
    vals = tuple(value(a) for a in atom.args)
    if isinstance(structure, Hypergraph):
        expected = "E" if structure.r == 2 else "R"
        if atom.name != expected or len(vals) != structure.r:
            raise EvalError(
                f"host relation is {expected}/{structure.r}, got "
                f"{atom.name}/{len(vals)}")
        return structure.has_edge(vals)
    raise EvalError(f"cannot evaluate formulas over {type(structure).__name__}")


def evaluate(structure, f: Formula, assignment: Mapping) -> bool:
    """Truth of f in the structure under a total assignment: a mapping
    from each variable's key (Term.key) to its value, as make_assignment
    builds it."""
    if isinstance(f, (Rel, Eq)):
        return _atom_value(structure, f, assignment)
    if isinstance(f, Not):
        return not evaluate(structure, f.body, assignment)
    if isinstance(f, And):
        return all(evaluate(structure, p, assignment) for p in f.parts)
    if isinstance(f, Or):
        return any(evaluate(structure, p, assignment) for p in f.parts)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Disjunctive normal form
# ---------------------------------------------------------------------------

class Literal(Record):
    atom: Atom
    negated: bool

    def formula(self) -> Formula:
        return Not(self.atom) if self.negated else self.atom


def _canonical_atom(atom: Atom) -> Atom:
    # E, R and = are symmetric under evaluation, so argument order is free
    if isinstance(atom, Eq):
        left, right = sorted((atom.left, atom.right), key=attrgetter("key"))
        return Eq(left, right)
    return Rel(atom.name, tuple(sorted(atom.args, key=attrgetter("key"))))


def _literal_key(lit: Literal):
    atom = lit.atom
    if isinstance(atom, Eq):
        head = (1, "=", (atom.left.key, atom.right.key))
    else:
        head = (0, atom.name, tuple(a.key for a in atom.args))
    return head + (lit.negated,)


Clause = tuple[Literal, ...]


# the clause count at which to_dnf gives up
_MAX_CLAUSES = 4096


def to_dnf(f: Formula) -> tuple[Clause, ...]:
    """Disjunctive normal form with negation pushed to literals.

    Conjuncts containing an atom both plainly and negated are dropped.
    An empty result means the formula is unsatisfiable.  Growth past
    _MAX_CLAUSES raises DnfCapError rather than degrading silently.
    """

    def nnf(g: Formula, neg: bool):
        if isinstance(g, (Rel, Eq)):
            return Literal(_canonical_atom(g), neg)
        if isinstance(g, Not):
            return nnf(g.body, not neg)
        parts = [nnf(p, neg) for p in g.parts]
        is_and = isinstance(g, And) != neg
        return ("and" if is_and else "or", parts)

    def clauses_of(node) -> list[dict]:
        # a clause is a dict from atom to negation flag, keeping insertion order
        if isinstance(node, Literal):
            return [{node.atom: node.negated}]
        op, parts = node
        if op == "or":
            out: list[dict] = []
            for p in parts:
                out.extend(clauses_of(p))
                if len(out) > _MAX_CLAUSES:
                    raise DnfCapError(f"clause count exceeds {_MAX_CLAUSES}")
            return out
        acc: list[dict] = [{}]
        for p in parts:
            rights = clauses_of(p)
            merged: list[dict] = []
            for a in acc:
                for b in rights:
                    c = dict(a)
                    contradiction = False
                    for atom, negated in b.items():
                        if c.get(atom, negated) != negated:
                            contradiction = True
                            break
                        c[atom] = negated
                    if not contradiction:
                        merged.append(c)
                        if len(merged) > _MAX_CLAUSES:
                            raise DnfCapError(
                                f"clause count exceeds {_MAX_CLAUSES}")
            acc = merged
        return acc

    raw = clauses_of(nnf(f, False))
    clauses = set()
    for clause in raw:
        lits = tuple(sorted((Literal(atom, neg) for atom, neg in clause.items()),
                            key=_literal_key))
        clauses.add(lits)
    return tuple(sorted(clauses, key=lambda c: tuple(_literal_key(l) for l in c)))


# ---------------------------------------------------------------------------
# Partitioned formulas and the single-object-variable analysis
# ---------------------------------------------------------------------------

class PhiPartition(Record):
    """A formula with declared object and parameter arities."""

    formula: Formula
    object_arity: int
    param_arity: int

    def __post_init__(self):
        if self.object_arity < 0 or self.param_arity < 0:
            raise ValueError("arities must be nonnegative")
        objs, params = variables(self.formula)
        if objs and max(objs) > self.object_arity:
            raise ValueError(
                f"object variable x{max(objs)} exceeds arity {self.object_arity}")
        if params and max(params) > self.param_arity:
            raise ValueError(
                f"parameter variable y{max(params)} exceeds arity "
                f"{self.param_arity}")


def parse_phi(text: str, object_arity: Optional[int] = None,
              param_arity: Optional[int] = None) -> PhiPartition:
    """Parse and wrap a formula, inferring arities from the variables used."""
    f = parse_formula(text)
    objs, params = variables(f)
    if object_arity is None:
        object_arity = max(objs, default=0)
    if param_arity is None:
        param_arity = max(params, default=0)
    return PhiPartition(f, object_arity, param_arity)


class DisjunctProfile(Record):
    """Shape of one DNF disjunct of a one-object-variable graph formula.

    Parameter indices are grouped by the constraint placed on the object
    variable: forbidden edges, forced inequalities, forced edges, forced
    equalities.  residual collects the literals mentioning parameters only.
    """

    neg_edge: frozenset[int]
    neq: frozenset[int]
    pos_edge: frozenset[int]
    eq: frozenset[int]
    residual: tuple[Literal, ...]

    @property
    def generic(self) -> bool:
        """Satisfiable by a fresh vertex with no edges into the parameters."""
        return not self.pos_edge and not self.eq

    def residual_formula(self) -> Formula:
        """The parameter-only part; x1 = x1 when it is empty."""
        parts = ([lit.formula() for lit in self.residual]
                 or [Eq(ObjectVar(1), ObjectVar(1))])
        return parts[0] if len(parts) == 1 else And(tuple(parts))


class PhiAnalysis(Record):
    phi: PhiPartition
    profiles: tuple[DisjunctProfile, ...]

    @property
    def generic_indices(self) -> tuple[int, ...]:
        return tuple(t for t, p in enumerate(self.profiles) if p.generic)


def analyze_phi(phi: PhiPartition) -> PhiAnalysis:
    """Split a one-object-variable graph formula into disjunct profiles.

    Raises FragmentError when the formula uses more than one object
    variable or atoms outside the binary graph signature.
    """
    if phi.object_arity != 1:
        raise FragmentError("analysis requires exactly one object variable")
    profiles = []
    for clause in to_dnf(phi.formula):
        neg_edge: set[int] = set()
        neq: set[int] = set()
        pos_edge: set[int] = set()
        eq: set[int] = set()
        residual: list[Literal] = []
        dropped = False
        for lit in clause:
            atom = lit.atom
            if isinstance(atom, Rel):
                if atom.name != "E" or len(atom.args) != 2:
                    raise FragmentError(
                        f"analysis is restricted to the binary relation E, "
                        f"got {atom.name}/{len(atom.args)}")
                obj_args = [a for a in atom.args if isinstance(a, ObjectVar)]
                if len(obj_args) == 2:
                    if len({a.index for a in obj_args}) > 1:
                        raise FragmentError(
                            "an atom mentions two object variables")
                    # E(x,x) is false: a negated literal is vacuous, a plain
                    # one kills the disjunct
                    if not lit.negated:
                        dropped = True
                        break
                    continue
                if len(obj_args) == 1:
                    j = next(a.index for a in atom.args
                             if isinstance(a, ParamVar))
                    (neg_edge if lit.negated else pos_edge).add(j)
                    continue
                residual.append(lit)
                continue
            left_obj = isinstance(atom.left, ObjectVar)
            right_obj = isinstance(atom.right, ObjectVar)
            if left_obj and right_obj:
                if atom.left.index != atom.right.index:
                    raise FragmentError("an atom mentions two object variables")
                if lit.negated:  # x != x kills the disjunct
                    dropped = True
                    break
                continue
            if left_obj or right_obj:
                j = (atom.right if left_obj else atom.left).index
                (neq if lit.negated else eq).add(j)
                continue
            residual.append(lit)
        if dropped:
            continue
        profiles.append(DisjunctProfile(
            frozenset(neg_edge), frozenset(neq), frozenset(pos_edge),
            frozenset(eq), tuple(residual)))
    return PhiAnalysis(phi, tuple(profiles))


# ---------------------------------------------------------------------------
# Bitset compilation of one-object-variable graph formulas
# ---------------------------------------------------------------------------

Mask = Callable[[Sequence[int]], int]


def compile_mask(host, formula: Formula) -> Mask:
    """Compile a formula in x1 and parameters into neighbour-bitset algebra.

    The result maps a parameter tuple b (b[j-1] binds yj and must bind
    every parameter the formula mentions) to the bitset of host vertices
    v for which evaluate(host, formula, make_assignment((v,), b)) holds:

    - E(x1,yj) is the neighbour bitset of b[j-1] and x1 = yj its singleton;
    - E(x1,x1) is empty and x1 = x1 is every vertex;
    - an atom over parameters only is every vertex or none;
    - !, & and | are complement within the vertex set, & and |.

    Bitsets are exact, so counting satisfying points is a popcount.
    Where evaluate raises only on the atoms it reaches, this raises
    EvalError at compile time, before any tuple is seen: for a relation
    other than E/2 on a graph, any relation over a hypergraph with r != 2,
    an object variable other than x1, or a host that is not a Hypergraph.
    """
    if not isinstance(host, Hypergraph):
        raise EvalError(f"cannot evaluate formulas over {type(host).__name__}")
    full = (1 << host.n) - 1

    def slot(t: Term) -> Optional[int]:
        """None for x1, else the position of the parameter in b."""
        if isinstance(t, ParamVar):
            return t.index - 1
        if t.index != 1:
            raise EvalError(f"no value assigned to {_format_term(t)}")
        return None

    def build(g: Formula) -> Mask:
        if isinstance(g, Rel):
            expected = "E" if host.r == 2 else "R"
            if g.name != expected or len(g.args) != host.r:
                raise EvalError(
                    f"host relation is {expected}/{host.r}, got "
                    f"{g.name}/{len(g.args)}")
            if host.r != 2:
                raise EvalError("bitset compilation needs a graph host")
            adj = host.adjacency
            i, j = (slot(a) for a in g.args)
            if i is None and j is None:
                return lambda b: 0
            if i is None or j is None:
                k = j if i is None else i
                return lambda b: adj[b[k]]
            return lambda b: full if adj[b[i]] >> b[j] & 1 else 0
        if isinstance(g, Eq):
            i, j = slot(g.left), slot(g.right)
            if i is None and j is None:
                return lambda b: full
            if i is None or j is None:
                k = j if i is None else i
                return lambda b: 1 << b[k]
            return lambda b: full if b[i] == b[j] else 0
        if isinstance(g, Not):
            body = build(g.body)
            return lambda b: full & ~body(b)
        if isinstance(g, And):
            parts = [build(p) for p in g.parts]

            def conj(b):
                out = full
                for part in parts:
                    out &= part(b)
                return out
            return conj
        if isinstance(g, Or):
            parts = [build(p) for p in g.parts]

            def disj(b):
                out = 0
                for part in parts:
                    out |= part(b)
                return out
            return disj
        raise TypeError(f"not a formula: {g!r}")

    return build(formula)
