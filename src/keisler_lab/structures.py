"""Finite relational structures and the combinatorics on top of them.

Uniform hypergraphs (graphs when the arity is 2) and parameterized
equivalence structures, together with clique freeness checks, the
independence parameter alpha_s, seeded generators, induced-embedding
search and the path-parameter grid.

Vertices are 0-based integers.  Every structure is immutable after
construction and all operations are pure functions; randomized operations
take an explicit seed and are deterministic.
"""

from __future__ import annotations

import itertools
import operator
import random
from array import array
from functools import cached_property
from typing import Iterable, Mapping, MutableSequence, Optional, Sequence

from ._record import Record


class FreenessViolation(Exception):
    """An operation would create a complete r-graph on s vertices."""

    def __init__(self, witness: Sequence[int]):
        self.witness = tuple(sorted(witness))
        super().__init__(f"complete subgraph on vertices {self.witness}")


_INT = {int}


def _canonical_edge(edge: Iterable[int], r: int, n: int) -> tuple[int, ...]:
    # a vertex is an int, not a bool or a float equal to one, as in a
    # structure file
    vs = tuple(edge)
    if not _INT.issuperset(map(type, vs)):
        fault = "must have int vertices"
    else:
        vs = tuple(sorted(vs))
        if len(vs) != r or len(set(vs)) != r:
            fault = f"does not have {r} distinct vertices"
        elif vs[0] < 0 or vs[-1] >= n:
            fault = f"out of range for {n} vertices"
        else:
            return vs
    raise ValueError(f"edge {_shown(vs)} {fault}")


def _shown(value) -> str:
    """A value as every refusal names it: its repr when that fits in 80
    characters, else "(a TYPE of length N)", N its length for a str, list,
    tuple or dict (an edge in vertices) and its repr's otherwise, so that
    no refusal grows with its input."""
    text = repr(value)
    if len(text) <= 80:
        return text
    size = (len(value) if isinstance(value, (str, list, tuple, dict))
            else len(text))
    return f"(a {type(value).__name__} of length {size})"


def _check_sizes(r: int, n: int) -> None:
    # the size rules of a Hypergraph, for its constructor, reader and builders
    if r < 2:
        raise ValueError("arity must be at least 2")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Hypergraph(Record):
    """An r-uniform hypergraph on vertices 0..n-1.

    Edges are stored as sorted tuples of r distinct int vertices, so the
    relation is irreflexive and symmetric by representation.
    """

    r: int
    n: int
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self):
        _check_sizes(self.r, self.n)
        canon = frozenset(_canonical_edge(e, self.r, self.n) for e in self.edges)
        object.__setattr__(self, "edges", canon)

    def has_edge(self, vertices: Iterable[int]) -> bool:
        # no tuple of another length or with a repeated vertex is an edge
        return tuple(sorted(vertices)) in self.edges

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return tuple(deg)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitsets; graphs (r = 2) only."""
        if self.r != 2:
            raise ValueError("adjacency bitsets are only defined for r = 2")
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @cached_property
    def links(self) -> tuple[dict[int, int], ...]:
        """Per-vertex link rows; 3-graphs (r = 3) only.

        links[a][b], for a < b, is the bitset of the c with {a, b, c} an
        edge, so the vertices closing the triple a < b < c into a K^3_4
        are links[a][b] & links[a][c] & links[b][c]: the rows of the
        s = r + 1 kernel with the pair unpacked, where subedge_masks keys
        them by tuple.  A row is a dict holding only the b that share an
        edge with a, so the table takes O(n + |E|) space; an n-by-n table
        would take about 800 MB at the 10,000 vertices a structure file
        may declare.
        """
        if self.r != 3:
            raise ValueError("link rows are only defined for r = 3")
        links: list[dict[int, int]] = [{} for _ in range(self.n)]
        for a, b, c in self.edges:
            la, lb = links[a], links[b]
            la[b] = la.get(b, 0) | 1 << c
            la[c] = la.get(c, 0) | 1 << b
            lb[c] = lb.get(c, 0) | 1 << a
        return tuple(links)

    @cached_property
    def subedge_masks(self) -> dict[tuple[int, ...], int]:
        """Map each (r-1)-subset of an edge to the bitset of its extensions."""
        masks: dict[tuple[int, ...], int] = {}
        for e in self.edges:
            _add_edge(masks, e)
        return masks

    @cached_property
    def _free_memo(self) -> dict[int, Optional[tuple[int, ...]]]:
        """is_free's global searches, keyed by s: what find_clique
        returned, the least s-clique or None."""
        return {}


# the refusal of a parameter's partition, by Feq2Structure and its reader
_UNPAIRED = ("parameter {}: blocks must pair off the {} objects, one "
             "singleton if that count is odd")


class Feq2Structure(Record):
    """Indexed objects plus, for each parameter, a partition of the objects
    into blocks of size two (one singleton when the count is odd), held as
    its involution: mates[z][x] is x's block-mate under z (x if alone)."""

    objects: int
    parameters: int
    mates: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_counts(self.objects, self.parameters, len(self.mates))
        everything = list(range(self.objects))
        for z, mate in enumerate(self.mates):
            if (len(mate) != self.objects
                    or not all(0 <= y < self.objects for y in mate)
                    or [*map(mate.__getitem__, mate)] != everything
                    or sum(map(operator.eq, mate, everything))
                    != self.objects % 2):
                raise ValueError(_UNPAIRED.format(z, self.objects))


def _check_counts(objects: int, parameters: int, partitions: int) -> None:
    # a Feq2Structure's counts, checked by its constructor and its reader
    if objects < 0:
        raise ValueError("object count must be nonnegative")
    if partitions != parameters:
        raise ValueError("one partition per parameter required")


# ---------------------------------------------------------------------------
# Clique machinery
# ---------------------------------------------------------------------------

def _add_edge(masks: dict[tuple[int, ...], int], e: tuple[int, ...]) -> None:
    # record the sorted r-set e: each (r-1)-subset of e maps to the bitset
    # of the vertices that extend it to an edge
    for i in range(len(e)):
        key = e[:i] + e[i + 1:]
        masks[key] = masks.get(key, 0) | 1 << e[i]


def _extend_clique(masks: Mapping[tuple[int, ...], int], prefix: list[int],
                   common: int, need: int, r: int) -> Optional[list[int]]:
    # prefix is a partial clique; common holds the vertices completing every
    # (r-1)-subset of prefix, already restricted above the newest vertex;
    # need >= 1 vertices are missing, and the last may be any of common
    if common.bit_count() < need:
        return None
    if need == 1:
        return prefix + [(common & -common).bit_length() - 1]
    for v in _bits(common):
        new_common = common & ~((1 << (v + 1)) - 1)
        for rho in itertools.combinations(prefix, r - 2):
            new_common &= masks.get(tuple(sorted(rho + (v,))), 0)
            if not new_common:
                break
        else:
            found = _extend_clique(masks, prefix + [v], new_common, need - 1, r)
            if found is not None:
                return found
    return None


def _closers(masks: Mapping[tuple[int, ...], int], e: tuple[int, ...]) -> int:
    # the vertices v with e + {v} an (r+1)-clique: the AND over the
    # (r-1)-subsets tau of e of masks[tau], the start of every clique
    # search from e.  A vertex of e is never among them: each lies in some
    # tau, and masks[tau] holds no vertex of tau.
    common = -1
    for tau in itertools.combinations(e, len(e) - 1):
        common &= masks.get(tau, 0)
        if not common:
            break
    return common


def find_clique(h: Hypergraph, s: int) -> Optional[tuple[int, ...]]:
    """Return the lexicographically least s-set whose r-subsets are all
    edges, or None.

    Every s-clique is an edge plus s - r of its closers, the vertices
    completing all the edge's (r-1)-subsets: one AND of r bitsets per
    edge.  The edges with a closer are searched in sorted order by
    _extend_clique from their closers above the last vertex.  No edge
    below the least clique's r least vertices lies in any clique (it
    would be less), so the first clique found is the least; at s = r + 1
    it is that edge plus its least closer.  The bitsets are rows of
    h.adjacency at (2, 3) and of h.links at (3, 4), read with the edge
    unpacked, and h.subedge_masks through _closers otherwise.
    """
    r = h.r
    if s <= r:
        raise ValueError("clique size must exceed the arity")
    masks: Mapping[tuple[int, ...], int] = {}
    if (r, s) == (2, 3):
        adj = h.adjacency
        closers = (adj[a] & adj[b] for a, b in h.edges)
    elif (r, s) == (3, 4):
        links = h.links
        closers = (links[a][b] & links[a][c] & links[b][c]
                   for a, b, c in h.edges)
    else:
        masks = h.subedge_masks
        closers = (_closers(masks, e) for e in h.edges)
    # closers walks the same unchanged set as zip, so in the same order
    closing = {e: common for e, common in zip(h.edges, closers) if common}
    for e in sorted(closing):
        # at s = r + 1, need is 1 and no mask is read
        found = _extend_clique(masks, list(e), closing[e] & -(2 << e[-1]),
                               s - r, r)
        if found is not None:
            return tuple(found)
    return None


def is_free(h: Hypergraph, s: int) -> bool:
    """True iff no s vertices span a complete sub-r-graph.

    The answer comes from a global find_clique (one bitset AND per edge,
    then a search from the closers of the edges that have any), whose
    result is memoised on h, keyed by s: h's only freeness record.
    """
    memo = h._free_memo
    if s not in memo:
        memo[s] = find_clique(h, s)
    return memo[s] is None


def _closes_clique(masks: Mapping[tuple[int, ...], int], e: tuple[int, ...],
                   s: int) -> bool:
    """Would adding the r-set e to a K^r_s-free edge set, recorded in masks
    by _add_edge, complete an s-clique?  Any new clique is e plus s - r
    vertices among _closers(masks, e): for s = r + 1 any one of them, and
    for larger s the generic search picks them."""
    common = _closers(masks, e)
    if s == len(e) + 1:
        return common != 0
    return _extend_clique(masks, list(e), common, s - len(e),
                          len(e)) is not None


def add_vertex_with_links(h: Hypergraph, links: Iterable[Iterable[int]],
                          s: int, *, isolated: int = 0) -> Hypergraph:
    """Extend h by `isolated` vertices in no edge, h.n .. star - 1, and a
    vertex star = h.n + isolated attached through the given
    (r-1)-subsets, which may name any vertex below star.

    h must be K^r_s-free, by is_free(h, s); if it is not,
    FreenessViolation carries the clique that search found.  Given that,
    every s-clique of the extension contains star (an isolated vertex
    lies in no edge), and its other s-1 vertices form a set whose
    (r-1)-subsets are all links and whose r-subsets are all edges.  Only
    such sets are searched for, so an extension without links costs
    O(1).  A clique found raises FreenessViolation carrying its vertices.
    """
    if isolated < 0:
        raise ValueError("isolated vertex count must be nonnegative")
    star = h.n + isolated
    links = [tuple(sorted(x)) for x in links]
    for sigma in links:
        if len(sigma) != h.r - 1 or len(set(sigma)) != h.r - 1:
            raise ValueError(f"link {sigma} is not an (r-1)-subset")
        if sigma and (sigma[0] < 0 or sigma[-1] >= star):
            raise ValueError(f"link {sigma} mentions unknown vertices")
    if not is_free(h, s):
        raise FreenessViolation(h._free_memo[s])
    new_edges = frozenset(sigma + (star,) for sigma in links)
    if new_edges:
        touched = 0
        for sigma in links:
            for v in sigma:
                touched |= 1 << v
        # every other clique vertex lies in some link, since s - 1 >= r - 1
        near: dict[tuple[int, ...], int] = {}
        for e in itertools.chain(
                (e for e in h.edges if all(touched >> v & 1 for v in e)),
                new_edges):
            _add_edge(near, e)
        found = _extend_clique(near, [star], touched, s - 1, h.r)
        if found is not None:
            raise FreenessViolation(found)
    return Hypergraph.trusted(h.r, star + 1,
                              h.edges | new_edges if new_edges else h.edges)


def _shuffle(rng: random.Random, seq: MutableSequence) -> None:
    """Shuffle seq in place with the draws of rng.shuffle(seq).

    CPython's shuffle is Fisher-Yates from the top: for i from len - 1
    down to 1 it swaps seq[i] with seq[j], j drawn below i + 1 by
    getrandbits((i + 1).bit_length()) and drawn again while j > i.  This
    loop makes the same getrandbits calls without the per-element method
    call of Random._randbelow, so it leaves the same order and the same
    generator state.  The draw width k is fixed for every i from
    2^(k-1) - 1 to 2^k - 2, so it is computed once per such block.
    """
    getrandbits = rng.getrandbits
    top = len(seq) - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            seq[i], seq[j] = seq[j], seq[i]
        top = bottom - 1


def random_maximal_free(n: int, r: int, s: int, seed: int) -> Hypergraph:
    """Greedy random construction of a maximal K^r_s-free r-graph.

    Candidate edges are visited in a seeded random order (_shuffle, the
    draws of random.Random(seed).shuffle) and kept whenever they do not
    complete an s-clique, so the result is maximal and deterministic for a
    given seed.  Two (r, s) take a table path that reads the s = r + 1
    kernel from per-vertex rows with the candidate unpacked: (2, 3) keeps
    neighbour bitsets as in Hypergraph.adjacency, and (3, 4) keeps dense
    n-by-n rows, rows[a][b] for a < b as links[a][b], converted once at
    the end into the sparse rows of Hypergraph.links.  Their candidates
    are 4-byte codes in an array, the r vertices packed w bits apiece (w
    the bit length of n - 1; at most 21 bits in all within the gen spec's
    cap), not r-tuples of about 72 bytes each.  Every other (r, s)
    shuffles the r-tuples, records kept edges with _add_edge and asks
    _closes_clique.
    """
    if not (s > r >= 2):
        raise ValueError("need s > r >= 2")
    _check_sizes(r, n)
    kept = []
    if (r, s) in ((2, 3), (3, 4)):
        # the codes in the order of itertools.combinations, one range per
        # (r-1)-prefix; a code is unpacked only in the scan, and a kept
        # one becomes a tuple of the ints of vs, so that vertices above
        # 256 are not new int objects in every edge
        w = max(n - 1, 0).bit_length()
        low, vs = (1 << w) - 1, tuple(range(n))
        codes = array("I")
        for prefix in itertools.combinations(range(n), r - 1):
            base = 0
            for v in prefix:
                base = (base + v) << w
            codes.extend(range(base + prefix[-1] + 1, base + n))
        _shuffle(random.Random(seed), codes)
    if r == 2 and s == 3:
        adj = [0] * n
        for code in codes:
            a, b = code >> w, code & low
            if adj[a] & adj[b]:
                continue
            kept.append((vs[a], vs[b]))
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        tables = {"adjacency": tuple(adj)}
    elif r == 3 and s == 4:
        # n^2 entries; the C(n, 3) codes above outnumber them from n = 9
        rows, high = [[0] * n for _ in range(n)], 2 * w
        for code in codes:
            a, b, c = code >> high, code >> w & low, code & low
            ra, rb = rows[a], rows[b]
            if ra[b] & ra[c] & rb[c]:
                continue
            kept.append((vs[a], vs[b], vs[c]))
            ra[b] |= 1 << c
            ra[c] |= 1 << b
            rb[c] |= 1 << a
        tables = {"links": tuple({b: m for b, m in enumerate(row) if m}
                                 for row in rows)}
    else:
        candidates = list(itertools.combinations(range(n), r))
        _shuffle(random.Random(seed), candidates)
        masks: dict[tuple[int, ...], int] = {}
        for e in candidates:
            if not _closes_clique(masks, e, s):
                kept.append(e)
                _add_edge(masks, e)
        tables = {"subedge_masks": masks}
    codes = None  # freed before the edge set is built
    g = Hypergraph.trusted(r, n, frozenset(kept))
    # the rows built here are the ones g would build from its edges: they
    # fill its cached property, which is_free, is_maximal_free and
    # serialize.structure_to_json read
    g.__dict__.update(tables)
    return g


def is_maximal_free(h: Hypergraph, s: int) -> bool:
    """True iff h is K^r_s-free and every absent edge would break that.

    A free h is maximal iff _closes_clique holds for every non-edge, over
    h.subedge_masks.  Two (r, s) take a table path instead.  For
    triangle-free graphs it is one pass per vertex u over h.adjacency:
    every vertex other than u is a neighbour of u or a neighbour of one.
    For K^3_4-free 3-graphs it is one pass per pair a < b over h.links:
    each c > b outside links[a][b] must have a closer in
    links[a][b] & links[a][c] & links[b][c].  Every other (r, s) asks
    _closes_clique of each non-edge.
    """
    if not is_free(h, s):
        return False
    full = (1 << h.n) - 1
    if h.r == 2 and s == 3:
        adj = h.adjacency
        for u in range(h.n):
            m = adj[u]
            reach = m | 1 << u
            while m:
                low = m & -m
                reach |= adj[low.bit_length() - 1]
                m ^= low
            if reach != full:
                return False
        return True
    if h.r == 3 and s == 4:
        links = h.links
        for a in range(h.n):
            la = links[a]
            for b in range(a + 1, h.n):
                ab, lb = la.get(b, 0), links[b]
                # the c > b with {a, b, c} not an edge
                m = full & ~ab & -(2 << b)
                while m:
                    low = m & -m
                    c = low.bit_length() - 1
                    if not ab & la.get(c, 0) & lb.get(c, 0):
                        return False
                    m ^= low
        return True
    masks = h.subedge_masks
    non_edges = itertools.filterfalse(
        h.edges.__contains__, itertools.combinations(range(h.n), h.r))
    return all(_closes_clique(masks, e, s) for e in non_edges)


def cyclic_graph(n: int, connections: Iterable[int]) -> Hypergraph:
    """Circulant graph: i ~ j iff their circular distance lies in connections."""
    conns = sorted(set(int(d) for d in connections))
    for d in conns:
        if not 1 <= d <= n // 2:
            raise ValueError(f"connection {d} outside 1..{n // 2}")
    _check_sizes(2, n)
    edges = set()
    for i in range(n):
        for d in conns:
            edges.add(tuple(sorted((i, (i + d) % n))))
    return Hypergraph.trusted(2, n, frozenset(edges))


# ---------------------------------------------------------------------------
# alpha_s: largest subset inducing a K_{s-1}-free subgraph
# ---------------------------------------------------------------------------

class AlphaResult(Record):
    """Outcome of an alpha_s computation.

    value is exact when exact is True, otherwise the best lower bound
    reached before the node budget ran out.
    """

    value: int
    exact: bool
    witness: tuple[int, ...]
    nodes: int


def _color_sort(cand: int, adj: Sequence[int]) -> list[tuple[int, int]]:
    # Greedy colouring of the candidate set, class by class: each class
    # takes, in ascending order, every uncoloured vertex adjacent to none
    # taken before it, which is first-fit over the vertices in ascending
    # order.  The colour number bounds the size of any clique inside the
    # class prefix.
    order: list[tuple[int, int]] = []
    c = 0
    while cand:
        c += 1
        q = cand
        while q:
            low = q & -q
            v = low.bit_length() - 1
            order.append((v, c))
            cand ^= low
            q &= ~(adj[v] | low)
    return order


def _max_clique(adj: Sequence[int], n: int, budget: Optional[int]):
    """Branch and bound for a largest clique, on an explicit stack in the
    visit order of the recursive search: one frame [colour-sorted vertices
    left, candidates left] per expanded candidate set, each but the first
    opened by the vertex on top of `current` (a recursion would overflow
    at a clique of about a thousand vertices)."""
    best_set: tuple[int, ...] = ()
    current: list[int] = []
    nodes = 1
    if budget is not None and nodes > budget:
        return 0, best_set, False, nodes
    full = (1 << n) - 1
    stack = [[_color_sort(full, adj), full]]
    while stack:
        frame = stack[-1]
        order, cand = frame
        if order and len(current) + order[-1][1] > len(best_set):
            v = order.pop()[0]
            current.append(v)
            if len(current) > len(best_set):
                best_set = tuple(current)
            sub = cand & adj[v]
            if sub:
                nodes += 1
                if budget is not None and nodes > budget:
                    return len(best_set), best_set, False, nodes
                stack.append([_color_sort(sub, adj), sub])
                continue
        else:  # no vertex left can beat the best: the frame returns
            stack.pop()
            if not stack:
                break
            frame = stack[-1]
        # the branch through the last vertex taken is closed
        frame[1] &= ~(1 << current.pop())
    return len(best_set), best_set, True, nodes


def _has_clique_mask(adj: Sequence[int], cand: int, size: int) -> bool:
    # does cand hold a clique of size >= 1 vertices?
    if cand.bit_count() < size:
        return False
    if size == 1:
        return True
    for v in _bits(cand):
        if _has_clique_mask(adj, cand & adj[v] & ~((1 << (v + 1)) - 1), size - 1):
            return True
    return False


def alpha_s(g: Hypergraph, s: int, budget: Optional[int] = None) -> AlphaResult:
    """Size of the largest vertex subset inducing a K_{s-1}-free subgraph.

    For s = 3 this is the independence number, computed by branch and
    bound with a greedy colouring bound on the complement graph; for
    s > 3 a subset search with plain size pruning is used.  A spent node
    budget yields an inexact result carrying the best subset found.
    """
    if g.r != 2:
        raise ValueError("alpha_s is defined for graphs (r = 2)")
    if s < 3:
        raise ValueError("s must be at least 3")
    n = g.n
    if n == 0:
        return AlphaResult(0, True, (), 0)
    adj = g.adjacency
    if s == 3:
        full = (1 << n) - 1
        comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
        value, witness, exact, nodes = _max_clique(comp, n, budget)
        return AlphaResult(value, exact, tuple(sorted(witness)), nodes)

    # a depth-first search over include/exclude of each vertex in index
    # order, including first; each stack entry is one call of the
    # recursive search (index, chosen set), and the exclude branch waits
    # under the include branch (a recursion would overflow near a
    # thousand vertices)
    best = 0
    best_set: tuple[int, ...] = ()
    nodes = 0
    stack = [(0, 0)]
    while stack:
        v, chosen = stack.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            return AlphaResult(best, False, best_set, nodes)
        size = chosen.bit_count()
        if v == n or size + (n - v) <= best:
            continue
        stack.append((v + 1, chosen))
        # including v is allowed unless it completes a K_{s-1} inside chosen
        if not _has_clique_mask(adj, adj[v] & chosen, s - 2):
            chosen |= 1 << v
            if size + 1 > best:
                best = size + 1
                best_set = tuple(_bits(chosen))
            stack.append((v + 1, chosen))
    return AlphaResult(best, True, best_set, nodes)


# ---------------------------------------------------------------------------
# Search for graphs with small alpha_s
# ---------------------------------------------------------------------------

class SearchResult(Record):
    """Best K_s-free graph found; found is True when alpha <= target."""

    found: bool
    graph: Optional[Hypergraph]
    alpha: int
    evaluations: int


# alpha_s nodes of one search's evaluations in all: about 142,000 at most
# at s = 3 within the searchalpha caps, and millions for one at s = 4
_MAX_SEARCH_NODES = 10 ** 6


def _circulant_is_free(n: int, conns: Sequence[int], s: int) -> bool:
    # is_free(cyclic_graph(n, conns), s) with no graph built: a circulant is
    # vertex-transitive, so it holds a K_s iff vertex 0's neighbours hold a
    # K_{s-1}; rows[i], vertex i's row, is row 0 turned by i
    row, full = 0, (1 << n) - 1
    for d in conns:
        row |= (1 << d) | (1 << (n - d))
    rows = [(row << i | row >> (n - i)) & full for i in range(n)]
    return not _has_clique_mask(rows, row, s - 1)


def search_small_alpha(n: int, s: int, target: int,
                       budget: int = 400, seed: int = 0) -> SearchResult:
    """Seeded search for a K_s-free graph on n vertices with small alpha_s.

    Circulant connection sets are swept first (the known extremal graphs
    at this scale are circulant), then random maximal free graphs with
    freeness-preserving edge flips.  The budget counts alpha evaluations;
    a miss returns the best graph reached, never a silent failure.  A
    search whose evaluations would pass _MAX_SEARCH_NODES alpha_s nodes
    in all raises ValueError, and so does a budget below 1, which would
    report the sentinel n + 1 as the best alpha of no graph.
    """
    if s < 3:
        raise ValueError("s must be at least 3")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    rng = random.Random(seed)
    best_graph: Optional[Hypergraph] = None
    best_alpha = n + 1
    evals = nodes = 0

    def consider(g: Hypergraph) -> int:
        # g's alpha_s, kept with g when it is the least yet; every earlier
        # value missed the target, so one within it is kept
        nonlocal best_graph, best_alpha, evals, nodes
        evals += 1
        a = alpha_s(g, s, _MAX_SEARCH_NODES - nodes)
        nodes += a.nodes
        if not a.exact:
            raise ValueError(f"alpha_s evaluations exceed "
                             f"{_MAX_SEARCH_NODES} nodes")
        if a.value < best_alpha:
            best_graph, best_alpha = g, a.value
        return a.value

    def result(found: bool) -> SearchResult:
        return SearchResult(found, best_graph, best_alpha, evals)

    half = n // 2
    for size in range(0, min(3, half) + 1):
        for conns in itertools.combinations(range(1, half + 1), size):
            if evals >= budget:
                return result(False)
            if (_circulant_is_free(n, conns, s)
                    and consider(cyclic_graph(n, conns)) <= target):
                return result(True)

    while evals < budget:
        g = random_maximal_free(n, 2, s, rng.randrange(2 ** 63))
        if consider(g) <= target:
            return result(True)
        for _ in range(3 * n):
            if evals >= budget:
                break
            edges = sorted(g.edges)
            if not edges:
                break
            dropped = edges[rng.randrange(len(edges))]
            remaining = g.edges - {dropped}
            masks = Hypergraph.trusted(2, n, remaining).subedge_masks
            non_edges = [e for e in itertools.combinations(range(n), 2)
                         if e not in remaining and e != dropped
                         and not _closes_clique(masks, e, s)]
            if not non_edges:
                continue
            added = non_edges[rng.randrange(len(non_edges))]
            candidate = Hypergraph.trusted(2, n, remaining | {added})
            value = consider(candidate)
            if value <= target:
                return result(True)
            if value <= best_alpha:
                g = candidate
    return result(False)


# ---------------------------------------------------------------------------
# Induced embeddings
# ---------------------------------------------------------------------------

class EmbedResult(Record):
    """mapping[i] is the host image of pattern vertex i when found; with no
    mapping, exhausted tells a spent budget from a proof of absence."""

    mapping: Optional[tuple[int, ...]]
    exhausted: bool
    nodes: int


def _embed_order(g: Hypergraph) -> list[int]:
    """Most-connected-first keeps the candidate sets small early: next is
    the vertex with the most placed neighbours, then the highest degree,
    then the lowest index."""
    touching = [0] * g.n  # placed neighbours, kept as vertices are placed
    remaining = set(range(g.n))
    order: list[int] = []
    while remaining:
        v = max(remaining, key=lambda u: (touching[u], g.degrees[u], -u))
        order.append(v)
        remaining.remove(v)
        for w in _bits(g.adjacency[v]):
            touching[w] += 1
    return order


def embed_search(g: Hypergraph, h: Hypergraph,
                 budget: Optional[int] = None) -> EmbedResult:
    """Backtracking search for an induced embedding of the graph g into the
    graph h, over neighbour bitsets."""
    if g.r != 2 or h.r != 2:
        raise ValueError("embedding search is defined for graphs (r = 2)")
    if g.n == 0:
        return EmbedResult((), False, 0)
    if g.n > h.n:
        return EmbedResult(None, False, 0)
    order = _embed_order(g)
    image = [-1] * g.n
    nodes = 0
    full = (1 << h.n) - 1
    h_adj = h.adjacency
    g_adj = g.adjacency

    def candidates(pos: int, used: int) -> Iterable[int]:
        u = order[pos]
        mask = full & ~used
        for w in order[:pos]:
            x = image[w]
            if g_adj[u] >> w & 1:
                mask &= h_adj[x]
            else:
                mask &= ~h_adj[x]
            if not mask:
                return
        yield from _bits(mask)

    # one candidate iterator per placed position on an explicit stack, in
    # the order of a recursive backtrack (a recursion would overflow near
    # a thousand sample vertices)
    stack = [candidates(0, 0)]
    used = 0
    while stack:
        u = order[len(stack) - 1]
        if image[u] >= 0:  # the previous candidate here led nowhere
            used &= ~(1 << image[u])
        v = next(stack[-1], -1)
        if v < 0:
            image[u] = -1
            stack.pop()
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            return EmbedResult(None, True, nodes)
        image[u] = v
        used |= 1 << v
        if len(stack) == g.n:
            return EmbedResult(tuple(image), False, nodes)
        stack.append(candidates(len(stack), used))
    return EmbedResult(None, False, nodes)


def is_induced_embedding(g: Hypergraph, h: Hypergraph,
                         mapping: Sequence[int]) -> bool:
    """Check a candidate map of the graph g into the graph h: injective,
    and each vertex's neighbour row, mapped, is the row of its image
    restricted to the image set."""
    if g.r != 2 or h.r != 2:
        raise ValueError("embeddings are checked for graphs (r = 2)")
    if len(mapping) != g.n or len(set(mapping)) != g.n:
        return False
    if any(not 0 <= v < h.n for v in mapping):
        return False
    image = 0
    for v in mapping:
        image |= 1 << v
    h_adj = h.adjacency
    for u, row in enumerate(g.adjacency):
        mapped = 0
        for w in _bits(row):
            mapped |= 1 << mapping[w]
        if mapped != h_adj[mapping[u]] & image:
            return False
    return True


# ---------------------------------------------------------------------------
# Grid structure over parameterized equivalences
# ---------------------------------------------------------------------------

def grid_object(k: int, row: int, col: int) -> int:
    """Index of the row-major grid cell (row, col) in a k-grid structure."""
    return row * k + col


def grid_target(k: int, row: int) -> int:
    """Index of the row target object in a k-grid structure."""
    return k * k + row


# 7 ** 7 > 10 ** 5 parameters; also the k that a tp2 witness accepts
_MAX_GRID_K = 6


def build_tp2_grid(k: int) -> Feq2Structure:
    """Structure with a k-by-k object grid, one target per row, and one
    parameter per path pairing each row's chosen cell with its target.

    Objects 0..k*k-1 are the grid cells (row-major); objects
    k*k..k*k+k-1 are the row targets.  Leftover objects under each
    parameter are paired in ascending index order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > _MAX_GRID_K:  # k ** k itself is never built for a big k
        raise ValueError(f"k = {k}: k ** k parameters would exceed 10 ** 5")
    objects = k * k + k
    targets = [grid_target(k, i) for i in range(k)]
    mates = []
    for path in itertools.product(range(k), repeat=k):
        chosen = [grid_object(k, i, j) for i, j in enumerate(path)]
        rest = [x for x in range(k * k) if x not in chosen]
        mate = [0] * objects
        for x, y in zip(chosen + rest[::2], targets + rest[1::2]):
            mate[x], mate[y] = y, x
        mates.append(tuple(mate))
    return Feq2Structure.trusted(objects, len(mates), tuple(mates))
