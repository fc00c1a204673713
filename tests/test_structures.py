"""Hypergraphs, clique search, alpha, generators, embeddings, grids."""

import itertools
import random
import tracemalloc
from array import array
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (feq2_blocks_oracle, random_graph, random_hypergraph,
                      random_maximal_free_oracle, traced_peak)
from keisler_lab import structures
from keisler_lab.structures import (
    AlphaResult,
    Feq2Structure,
    FreenessViolation,
    Hypergraph,
    _add_edge,
    _closes_clique,
    _extend_clique,
    _shown,
    add_vertex_with_links,
    alpha_s,
    build_tp2_grid,
    cyclic_graph,
    embed_search,
    find_clique,
    grid_object,
    grid_target,
    is_free,
    is_induced_embedding,
    is_maximal_free,
    random_maximal_free,
    search_small_alpha,
)
from keisler_lab.serialize import (_MAX_FILE_N, FormatError, digest,
                                   structure_from_json, structure_to_json)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_clique(g: Hypergraph, s: int):
    """First s-set whose r-subsets are all edges, by plain enumeration."""
    for t in itertools.combinations(range(g.n), s):
        if all(g.has_edge(e) for e in itertools.combinations(t, g.r)):
            return t
    return None


def vertex_rooted_clique(h: Hypergraph, s: int):
    """The least s-clique by a search rooted at each (r-1)-subset of an
    edge, over only the edges whose vertices all have the degree an
    s-clique needs: another route than find_clique's, which grows each
    clique from an edge's closers and filters no vertex."""
    if h.n < s:
        return None
    need_deg = comb(s - 1, h.r - 1)
    keep = {v for v in range(h.n) if h.degrees[v] >= need_deg}
    if len(keep) < s:
        return None
    masks: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        if set(e) <= keep:
            _add_edge(masks, e)
    for base in sorted(masks):
        common = masks[base] & ~((1 << (base[-1] + 1)) - 1)
        found = _extend_clique(masks, list(base), common, s - (h.r - 1), h.r)
        if found is not None:
            return tuple(found)
    return None


def exhaustive_alpha(g: Hypergraph, s: int) -> int:
    """Largest K_{s-1}-free subset by scanning every vertex subset.

    A mask is bad iff it contains some (s-1)-clique; bad sets are closed
    upwards, so one subset-OR sweep over all 2^n masks settles them all.
    """
    bad = bytearray(1 << g.n)
    for t in itertools.combinations(range(g.n), s - 1):
        if all(g.has_edge(e) for e in itertools.combinations(t, 2)):
            bad[sum(1 << v for v in t)] = 1
    for b in range(g.n):
        bit = 1 << b
        for mask in range(1 << g.n):
            if mask & bit and bad[mask ^ bit]:
                bad[mask] = 1
    return max(mask.bit_count()
               for mask in range(1 << g.n) if not bad[mask])


# ---------------------------------------------------------------------------
# basic structures
# ---------------------------------------------------------------------------

def test_hypergraph_validation():
    g = Hypergraph(2, 4, frozenset({(0, 1), (1, 2)}))
    assert g.has_edge((1, 2)) and g.has_edge((2, 1))
    assert not g.has_edge((0, 2))
    assert not g.has_edge((1, 1))
    assert g.degrees == (1, 2, 1, 0)
    # edge entries are canonicalized, not rejected
    assert Hypergraph(2, 4, frozenset({(1, 0)})).edges == frozenset({(0, 1)})
    with pytest.raises(ValueError):
        Hypergraph(2, 3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Hypergraph(2, 3, frozenset({(1, 1)}))


@pytest.mark.parametrize("edge", [(0, True), (False, 1), (0, 1.0), (0, "1"),
                                  (0, None)])
def test_hypergraph_vertices_are_ints(edge):
    # as in a structure file, where true and 1.0 are refused: a bool vertex
    # would be written into a report as true
    with pytest.raises(ValueError, match="must have int vertices"):
        Hypergraph(2, 3, frozenset({edge}))


@pytest.mark.parametrize("edge", [(0,) * 3000, tuple(range(3000)),
                                  (0.5,) * 3000])
def test_a_long_edge_is_named_by_its_length(edge):
    with pytest.raises(ValueError) as refused:
        Hypergraph(3, 4, frozenset({edge}))
    message = str(refused.value)
    assert "edge (a tuple of length 3000) " in message and len(message) < 100


# JSON values, with tuples where lists may be (an edge or a weights key)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(value=JSON_VALUES | st.text(min_size=60, max_size=200)
       | st.lists(st.integers(), min_size=20).map(tuple))
def test_a_value_is_shown_whole_or_briefly(value):
    # every refusal names a value this way: whole when its repr fits in 80
    # characters, else by its type and length in at most 48, a container's
    # length in items
    text = repr(value)
    if len(text) <= 80:
        assert _shown(value) == text
    else:
        assert len(_shown(value)) <= 48
        assert _shown(value).startswith(f"(a {type(value).__name__} of ")
        if isinstance(value, (str, list, tuple, dict)):
            assert _shown(value).endswith(f" length {len(value)})")


def test_has_edge_needs_no_distinctness_check():
    # edges are sorted r-tuples of distinct vertices, so a lookup alone
    # matches the definition that also asks for r distinct vertices, on
    # tuples of every length and with repeats; the generator's graphs are
    # built without the constructor's canonicalisation
    rng = random.Random(30)
    graphs = [random_hypergraph(rng, 7, r, 0.6) for r in (2, 3, 4)]
    graphs.append(random_maximal_free(12, 3, 4, 1))
    for g in graphs:
        hits = 0
        for _ in range(3000):
            vs = [rng.randrange(g.n) for _ in range(rng.randint(0, g.r + 2))]
            expected = len(set(vs)) == g.r and tuple(sorted(vs)) in g.edges
            assert g.has_edge(vs) == expected, (g.r, vs)
            hits += expected
        assert hits > 0
    with pytest.raises(ValueError):
        Hypergraph(1, 3, frozenset())


def test_adjacency_masks():
    g = Hypergraph(2, 4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert g.adjacency == (0b0010, 0b0101, 0b1010, 0b0100)


def test_feq2_validation():
    f = Feq2Structure(4, 2, ((1, 0, 3, 2), (2, 3, 0, 1)))
    # mates[z][x] is x's block-mate under z: 0-1 and 2-3, then 0-2 and 1-3
    assert f.mates[0][0] == 1 and f.mates[1][0] == 2
    odd = Feq2Structure(3, 1, ((1, 0, 2),))
    assert odd.mates[0][2] == 2  # the one singleton is its own mate
    # one vector too few, one too short, an entry out of range each way,
    # one far below the range, not an involution, two fixed points at an
    # even count, none at an odd one, and an involution of the wrong length
    for objects, mates in [(4, ()), (4, ((1, 0, 3),)), (4, ((1, 0, 3, 4),)),
                           (4, ((1, 0, 3, -1),)), (4, ((1, 0, 3, -10),)),
                           (4, ((1, 2, 0, 3),)),
                           (4, ((0, 1, 3, 2),)), (3, ((1, 0, 3),)),
                           (3, ((1, 0, 3, 2),))]:
        with pytest.raises(ValueError):
            Feq2Structure(objects, 1, mates)


def feq2_file(objects: int, *classes) -> dict:
    return {"kind": "feq2", "objects": objects, "parameters": len(classes),
            "classes": [list(map(list, blocks)) for blocks in classes]}


def test_feq2_file_partitions_become_mates():
    f = structure_from_json(feq2_file(4, ((0, 1), (2, 3)), ((3, 1), (2, 0))))
    assert f.mates == ((1, 0, 3, 2), (2, 3, 0, 1))
    odd = structure_from_json(feq2_file(3, ((2,), (1, 0))))
    assert odd.mates == ((1, 0, 2),)
    # written back in ascending order, each block at its least object
    assert structure_to_json(f)["classes"] == [[[0, 1], [2, 3]],
                                               [[0, 2], [1, 3]]]
    assert structure_to_json(odd)["classes"] == [[[0, 1], [2]]]
    # two objects missing, a size-3 block, an overlap, two singletons at
    # an even count, a missing object, one out of range, an empty block
    # and an object twice in one block
    for blocks in [((0, 1),), ((0, 1, 2), (3,)), ((0, 1), (1, 2), (3,)),
                   ((0, 1), (2,), (3,)), ((0, 1), (2,)), ((0, 1), (2, 4)),
                   ((0, 1), (2, 3), ()), ((0, 1), (2, 2), (3,))]:
        with pytest.raises(FormatError, match="parameter 0: blocks must "
                           "pair off the 4 objects"):
            structure_from_json(feq2_file(4, blocks))
    # the count is checked before the partitions, and the first bad
    # partition is named, whatever is wrong with it
    with pytest.raises(FormatError, match="one partition per parameter"):
        structure_from_json({**feq2_file(4, ((0, 1, 2),)), "parameters": 2})
    with pytest.raises(FormatError, match="parameter 0:"):
        structure_from_json(feq2_file(4, ((0, 1),), ((0, 1), (1, 2), (3,))))


def test_feq2_file_of_empty_partitions_is_refused_in_small_memory():
    # 1,000 empty block lists at the object cap: a vector of 10^4 mates per
    # list would hold 10^7 slots, about 80 MB, before parameter 0 is
    # refused, and 8 GB at the parameter cap
    payload = {"kind": "feq2", "objects": 10_000, "parameters": 1_000,
               "classes": [[] for _ in range(1_000)]}
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="parameter 0: blocks must "
                           "pair off the 10000 objects"):
            structure_from_json(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@st.composite
def feq2_blocks(draw):
    """A partition of 0 to 6 objects into pairs and at most one singleton,
    in shuffled order, then up to two edits: split a block, drop one, add
    an entry from -1..7 to one, or add a block of up to three of them."""
    objects = draw(st.integers(0, 6))
    order = draw(st.permutations(range(objects)))
    blocks = [list(order[i:i + 2]) for i in range(0, objects, 2)]
    entry = st.integers(-1, 7)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["split", "drop", "grow", "add"]))
        if edit == "add" or not blocks:
            blocks.append(draw(st.lists(entry, max_size=3)))
            continue
        b = blocks.pop(draw(st.integers(0, len(blocks) - 1)))
        if edit == "split":
            blocks += [b[:1], b[1:]]
        elif edit == "grow":
            blocks.append(b + [draw(entry)])
    return objects, blocks


@settings(max_examples=400, deadline=None)
@given(case=feq2_blocks())
def test_feq2_partition_check_matches_the_oracle(case):
    objects, blocks = case
    try:
        expected = feq2_blocks_oracle(objects, blocks)
    except ValueError:
        expected = None
    try:
        f = structure_from_json(feq2_file(objects, blocks))
    except FormatError:
        got = None
    else:
        got = tuple(map(tuple, structure_to_json(f)["classes"][0]))
    assert got == expected


# ---------------------------------------------------------------------------
# cliques and freeness
# ---------------------------------------------------------------------------

def test_find_clique_small_cases():
    k4 = Hypergraph(2, 4, frozenset(itertools.combinations(range(4), 2)))
    assert find_clique(k4, 3) is not None
    assert find_clique(k4, 4) == (0, 1, 2, 3)
    empty = Hypergraph(2, 6, frozenset())
    assert find_clique(empty, 3) is None
    with pytest.raises(ValueError):
        find_clique(k4, 2)


def test_find_clique_matches_brute():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 9), rng.choice([0.3, 0.6]))
        for s in (3, 4):
            assert find_clique(g, s) == brute_clique(g, s)


def test_find_clique_matches_brute_hypergraph():
    rng = random.Random(8)
    for _ in range(30):
        g = random_hypergraph(rng, rng.randint(4, 8), 3, 0.6)
        assert find_clique(g, 4) == brute_clique(g, 4)


@st.composite
def clique_cases(draw):
    r = draw(st.sampled_from((2, 3, 4)))
    s = r + draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(0, 11))
    seed = draw(st.integers(0, 2 ** 32))
    density = draw(st.sampled_from((0.3, 0.6, 0.8, 0.95)))
    return r, s, n, seed, density


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(clique_cases())
def test_find_clique_is_the_least_clique(case):
    # arbitrary r-graphs, free or not, at s up to r + 3
    r, s, n, seed, density = case
    h = random_hypergraph(random.Random(seed), n, r, density)
    assert find_clique(h, s) == brute_clique(h, s)


def test_random_maximal_free_properties():
    for n, r, s in ((12, 2, 3), (15, 2, 4), (12, 3, 4)):
        for seed in range(3):
            g = random_maximal_free(n, r, s, seed)
            assert g == random_maximal_free(n, r, s, seed)
            assert is_free(g, s)
            assert is_maximal_free(g, s)
    assert random_maximal_free(10, 2, 3, 0) != random_maximal_free(10, 2, 3, 1)
    with pytest.raises(ValueError):
        random_maximal_free(5, 2, 2, 0)


def test_is_maximal_free_rejects_extendable():
    # the empty graph on 3 vertices accepts any edge without a triangle
    assert not is_maximal_free(Hypergraph(2, 3, frozenset()), 3)
    k3 = Hypergraph(2, 3, frozenset({(0, 1), (0, 2), (1, 2)}))
    assert not is_maximal_free(k3, 3)


def test_shuffle_makes_the_draws_of_random_shuffle():
    lengths = [*range(71), 127, 128, 129, 255, 256, 257, 1000, 34_220]
    for length in lengths:
        for seed in (0, 1, 4, 2 ** 40 + 3):
            expected = list(range(length))
            random.Random(seed).shuffle(expected)
            oracle = random.Random(seed)
            oracle.shuffle([None] * length)
            # a list, and the array of codes the table paths shuffle
            for got in (list(range(length)), array("I", range(length))):
                rng = random.Random(seed)
                structures._shuffle(rng, got)
                assert list(got) == expected, (length, seed, type(got))
                # the same draws consumed, so the generator states agree
                assert rng.getstate() == oracle.getstate(), (length, seed)


def test_generation_does_not_call_random_shuffle(monkeypatch):
    def refuse(self, x):
        raise AssertionError("random.Random.shuffle called")
    monkeypatch.setattr(random.Random, "shuffle", refuse)
    for n, r, s in ((12, 2, 3), (10, 3, 4), (9, 3, 5)):
        assert is_maximal_free(random_maximal_free(n, r, s, 1), s)


# code widths 0 to 7 bits at (3, 4) and 0 to 10 at (2, 3), each on both
# sides of a power of two: n = 2^w vertices still take w bits apiece
@pytest.mark.parametrize("n, r, s", [
    *((n, 3, 4) for n in (0, 1, 2, 3, 8, 9, 64, 65)),
    *((n, 2, 3) for n in (0, 1, 2, 256, 257, 513))])
@pytest.mark.parametrize("seed", [0, 5])
def test_table_paths_match_the_oracle_at_code_widths(n, r, s, seed):
    assert random_maximal_free(n, r, s, seed) == random_maximal_free_oracle(
        n, r, s, seed)


# with the candidates as a list of r-tuples the traced peaks were 3.2 MB
# at gen:60:3:4 and 33.6 MB at gen:1000:2:3
@pytest.mark.parametrize("n, r, s, bound_mb", [(60, 3, 4, 2.5),
                                               (1000, 2, 3, 12)])
def test_generation_holds_its_candidates_as_packed_codes(n, r, s, bound_mb):
    g, peak = traced_peak(random_maximal_free, n, r, s, 1)
    assert is_maximal_free(g, s)
    assert peak < bound_mb * 2 ** 20


@st.composite
def generation_cases(draw):
    r = draw(st.sampled_from((2, 3, 4)))
    s = r + draw(st.sampled_from((1, 2)))
    return draw(st.integers(0, 14)), r, s, draw(st.integers(0, 2 ** 32))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(generation_cases())
def test_generation_loops_match_the_closes_clique_oracle(case):
    n, r, s, seed = case
    g = random_maximal_free(n, r, s, seed)
    assert g == random_maximal_free_oracle(n, r, s, seed)

    def oracle(h: Hypergraph) -> bool:
        masks = h.subedge_masks
        return is_free(h, s) and all(
            e in h.edges or _closes_clique(masks, e, s)
            for e in itertools.combinations(range(n), r))
    assert is_maximal_free(g, s) and oracle(g)
    if g.edges:
        # g is free, so the removed edge closes no clique of the rest
        dropped = random.Random(seed).choice(sorted(g.edges))
        thinned = Hypergraph(r, n, g.edges - {dropped})
        assert not is_maximal_free(thinned, s) and not oracle(thinned)


# ---------------------------------------------------------------------------
# the s = r + 1 kernel against the generic search
# ---------------------------------------------------------------------------

def generic_is_maximal_free(h: Hypergraph, s: int) -> bool:
    if vertex_rooted_clique(h, s) is not None:
        return False
    masks = h.subedge_masks
    return all(e in h.edges or _closes_clique(masks, e, s)
               for e in itertools.combinations(range(h.n), h.r))


def brute_closes_clique(h: Hypergraph, e: tuple[int, ...], s: int) -> bool:
    """Do some s - r vertices outside the r-set e, joined to e, span only
    edges of h among their r-subsets other than e?  By plain enumeration."""
    others = [v for v in range(h.n) if v not in e]
    return any(all(t == e or t in h.edges
                   for t in itertools.combinations(sorted(e + w), h.r))
               for w in itertools.combinations(others, s - h.r))


@st.composite
def kernel_cases(draw):
    r = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(0, 11))
    seed = draw(st.integers(0, 2 ** 32))
    density = draw(st.sampled_from((0.1, 0.3, 0.6, 0.9)))
    return r, n, seed, density


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(kernel_cases())
def test_clique_kernel_matches_the_generic_search(case):
    r, n, seed, density = case
    s = r + 1
    rng = random.Random(seed)
    sets = list(itertools.combinations(range(n), r))
    # an arbitrary r-graph, free or not
    h = random_hypergraph(rng, n, r, density)
    assert find_clique(h, s) == vertex_rooted_clique(h, s)
    masks = h.subedge_masks
    # the kernel at s = r + 1 and the generic search at s = r + 2 against
    # enumeration; e itself need not be an edge
    for size in (s, s + 1):
        assert all(_closes_clique(masks, e, size)
                   == brute_closes_clique(h, e, size) for e in sets)
    assert is_maximal_free(h, s) == generic_is_maximal_free(h, s)
    # a maximal free one, and the same with some edges removed
    g = random_maximal_free(n, r, s, seed)
    assert g == random_maximal_free_oracle(n, r, s, seed)
    assert is_maximal_free(g, s) and generic_is_maximal_free(g, s)
    edges = sorted(g.edges)
    removed = set(rng.sample(edges, min(len(edges), rng.randint(1, 3))))
    thinned = Hypergraph(r, n, g.edges - removed)
    assert (is_maximal_free(thinned, s)
            == generic_is_maximal_free(thinned, s))


@pytest.mark.parametrize("n, seed", [(40, 0), (40, 7), (60, 1), (60, 2)])
def test_link_rows_match_the_generic_search_at_bench_scale(n, seed):
    # bit positions far above the hypothesis cases, and the dense late
    # phase of generation, where most candidates close a K^3_4
    r, s = 3, 4
    g = random_maximal_free(n, r, s, seed)
    assert g == random_maximal_free_oracle(n, r, s, seed)
    rng = random.Random(seed)
    for density in (0.1, 0.3):
        h = random_hypergraph(rng, n, r, density)
        found = find_clique(h, s)
        assert found is not None and found == vertex_rooted_clique(h, s)
    # rebuilt from the edges, so the tables are the graph's own
    fresh = Hypergraph(r, n, g.edges)
    assert is_maximal_free(fresh, s) and generic_is_maximal_free(fresh, s)
    removed = set(rng.sample(sorted(g.edges), 3))
    thinned = Hypergraph(r, n, g.edges - removed)
    assert not is_maximal_free(thinned, s)
    assert not generic_is_maximal_free(thinned, s)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(generation_cases())
@example((60, 3, 4, 1)).via("bench scale: gen:60:3:4 at seed 1")
@example((60, 3, 4, 4)).via("bench scale: gen:60:3:4 at seed 4")
def test_generation_leaves_the_tables_of_its_result(case):
    n, r, s, seed = case
    g = random_maximal_free(n, r, s, seed)
    name = {(2, 3): "adjacency", (3, 4): "links"}.get((r, s),
                                                      "subedge_masks")
    assert name in vars(g)
    assert getattr(g, name) == getattr(Hypergraph(r, n, g.edges), name)


def test_link_rows_are_sparse_at_the_file_cap():
    # one K^3_4 among the highest vertices of a file-sized 3-graph; an
    # n-by-n table of rows would take about 800 MB here
    n = _MAX_FILE_N
    clique = (n - 4, n - 3, n - 2, n - 1)
    edges = {*itertools.combinations(clique, 3), (0, 1, 2), (0, n // 2, n - 1)}
    h = structure_from_json(structure_to_json(Hypergraph(3, n, edges)))
    tracemalloc.start()
    try:
        found = find_clique(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == clique
    assert peak < 16 * 2 ** 20


def test_find_clique_on_k5_for_every_s():
    k5 = Hypergraph(2, 5, frozenset(itertools.combinations(range(5), 2)))
    assert find_clique(k5, 3) == (0, 1, 2)
    assert find_clique(k5, 4) == (0, 1, 2, 3)
    assert find_clique(k5, 5) == (0, 1, 2, 3, 4)
    assert find_clique(k5, 6) is None


def test_add_vertex_with_links():
    path = Hypergraph(2, 3, frozenset({(0, 1), (1, 2)}))
    bigger = add_vertex_with_links(path, [(0,), (2,)], 3)
    assert bigger.n == 4
    assert bigger.has_edge((0, 3)) and bigger.has_edge((2, 3))
    assert not bigger.has_edge((1, 3))
    with pytest.raises(FreenessViolation) as info:
        add_vertex_with_links(path, [(0,), (1,)], 3)
    assert set(info.value.witness) == {0, 1, 3}
    with pytest.raises(ValueError):
        add_vertex_with_links(path, [(0, 1)], 3)


def random_free(rng: random.Random, n: int, r: int, s: int,
                p: float) -> Hypergraph:
    """A K^r_s-free r-graph: each candidate kept with probability p unless
    it would complete an s-clique."""
    masks, kept = {}, []
    for e in itertools.combinations(range(n), r):
        if rng.random() < p and not _closes_clique(masks, e, s):
            kept.append(e)
            _add_edge(masks, e)
    return Hypergraph(r, n, frozenset(kept))


def check_extension(h: Hypergraph, links: list, s: int, isolated: int = 0):
    """add_vertex_with_links against a global find_clique on the same
    extension; returns the extension, or None when it must raise."""
    star = h.n + isolated
    expected = Hypergraph(h.r, h.n + isolated + 1, h.edges | {
        tuple(sorted(sigma)) + (star,) for sigma in links})
    clique = find_clique(expected, s)
    if clique is None:
        extended = add_vertex_with_links(h, links, s, isolated=isolated)
        assert extended == expected
        assert extended.n == expected.n and extended.edges == expected.edges
        return extended
    with pytest.raises(FreenessViolation) as info:
        add_vertex_with_links(h, links, s, isolated=isolated)
    witness = info.value.witness
    assert len(set(witness)) == s and star in witness
    assert all(expected.has_edge(e)
               for e in itertools.combinations(witness, h.r))
    return None


def test_add_vertex_with_links_matches_global_oracle():
    rng = random.Random(31)
    outcomes = set()
    for r in (2, 3):
        for _ in range(40):
            s = rng.randint(r + 1, r + 2)
            h = random_free(rng, rng.randint(s, 9), r, s,
                            rng.choice([0.3, 0.7, 1.0]))
            # a second extension asks is_free of the first, a new graph
            for _ in range(2):
                isolated = rng.choice([0, 1, 3])
                candidates = list(itertools.combinations(
                    range(h.n + isolated), r - 1))
                p = rng.choice([0.1, 0.4, 0.8])
                links = [c for c in candidates if rng.random() < p]
                rng.shuffle(links)
                links = [tuple(rng.sample(c, len(c))) for c in links]
                extended = check_extension(h, links, s, isolated)
                outcomes.add(extended is None)
                if extended is None:
                    break
                h = extended
    assert outcomes == {True, False}  # both branches were exercised


def test_add_vertex_with_links_requires_a_free_ambient():
    k4 = Hypergraph(2, 4, frozenset(itertools.combinations(range(4), 2)))
    for s in (3, 4):
        with pytest.raises(FreenessViolation) as info:
            add_vertex_with_links(k4, [], s)
        assert len(info.value.witness) == s
        assert max(info.value.witness) < k4.n  # a clique of k4 itself
    # an extension made free for s = 4 is searched again for s = 3
    triangle = Hypergraph(2, 3, frozenset({(0, 1), (0, 2), (1, 2)}))
    extended = add_vertex_with_links(triangle, [(0,)], 4)
    with pytest.raises(FreenessViolation) as info:
        add_vertex_with_links(extended, [], 3)
    assert info.value.witness == (0, 1, 2)


def test_refusing_a_non_free_ambient_searches_once(monkeypatch):
    # the refusal carries the clique is_free's search found and memoised
    calls = []
    real = structures.find_clique

    def counting(h, s):
        calls.append(s)
        return real(h, s)

    monkeypatch.setattr(structures, "find_clique", counting)
    k5 = Hypergraph(3, 5, frozenset(itertools.combinations(range(5), 3)))
    for s, links in ((4, []), (5, [(0, 1)])):
        calls.clear()
        with pytest.raises(FreenessViolation) as info:
            add_vertex_with_links(k5, links, s)
        assert calls == [s]
        assert info.value.witness == tuple(range(s))


def test_add_vertex_with_links_adds_isolated_vertices_first():
    path = Hypergraph(2, 3, frozenset({(0, 1), (1, 2)}))
    bigger = add_vertex_with_links(path, [(0,), (4,)], 3, isolated=2)
    assert bigger == Hypergraph(2, 6, path.edges | {(0, 5), (4, 5)})
    assert bigger.degrees == (2, 2, 1, 0, 1, 2)
    assert add_vertex_with_links(path, [], 3, isolated=3) \
        == Hypergraph(2, 7, path.edges)
    # the star itself, or a vertex above it, is no link
    for links in ([(5,)], [(6,)]):
        with pytest.raises(ValueError, match="unknown vertices"):
            add_vertex_with_links(path, links, 3, isolated=2)
    with pytest.raises(ValueError, match="nonnegative"):
        add_vertex_with_links(path, [], 3, isolated=-1)


def test_is_free_is_memoised_per_structure(monkeypatch):
    calls = []
    real = structures.find_clique

    def counting(h, s):
        calls.append(s)
        return real(h, s)

    monkeypatch.setattr(structures, "find_clique", counting)
    h = random_maximal_free(12, 3, 4, 0)
    links = [(0, 1), (2, 3), (4, 5)]
    extended = add_vertex_with_links(h, links, 4)
    fresh = Hypergraph(3, 13, h.edges | {sigma + (12,) for sigma in links})
    before = (hash(extended), digest(structure_to_json(extended)))
    calls.clear()
    assert is_free(extended, 4)  # a global search: the extension left none
    assert calls == [4]
    assert is_free(extended, 4)
    assert calls == [4]
    assert is_free(extended, 5) and calls == [4, 5]
    assert extended == fresh and hash(extended) == hash(fresh)
    assert (hash(extended), digest(structure_to_json(extended))) == before
    assert digest(structure_to_json(fresh)) == before[1]


# ---------------------------------------------------------------------------
# circulants and alpha
# ---------------------------------------------------------------------------

def test_circulant_13_frozen_values():
    g = cyclic_graph(13, [1, 5])
    assert g.n == 13 and len(g.edges) == 26
    assert all(d == 4 for d in g.degrees)
    assert is_free(g, 3)
    result = alpha_s(g, 3)
    assert result.exact and result.value == 4
    assert len(result.witness) == 4
    assert not any(g.has_edge(e)
                   for e in itertools.combinations(result.witness, 2))


def test_five_cycle_values():
    c5 = cyclic_graph(5, [1])
    assert len(c5.edges) == 5
    assert is_free(c5, 3)
    assert alpha_s(c5, 3).value == 2
    with pytest.raises(ValueError):
        cyclic_graph(5, [0])
    with pytest.raises(ValueError):
        cyclic_graph(5, [3])


def test_alpha_matches_exhaustive():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        for s in (3, 4):
            result = alpha_s(g, s)
            assert result.exact
            assert result.value == exhaustive_alpha(g, s)
            assert len(result.witness) == result.value
            assert not any(
                all(g.has_edge(e) for e in itertools.combinations(t, 2))
                for t in itertools.combinations(result.witness, s - 1))


def test_alpha_edge_cases():
    assert alpha_s(Hypergraph(2, 0, frozenset()), 3).value == 0
    assert alpha_s(Hypergraph(2, 5, frozenset()), 3).value == 5
    with pytest.raises(ValueError):
        alpha_s(Hypergraph(3, 4, frozenset()), 4)
    with pytest.raises(ValueError):
        alpha_s(Hypergraph(2, 4, frozenset()), 2)


def test_alpha_budget_returns_inexact():
    g = random_graph(random.Random(2), 12, 0.5)
    spent = alpha_s(g, 3, budget=2)
    assert not spent.exact
    assert spent.value <= alpha_s(g, 3).value


def first_fit_color_sort(cand, adj):
    """The vertex-by-vertex first-fit colouring that _color_sort's class by
    class construction replaced: each vertex, ascending, joins the first
    class holding none of its neighbours; listed class by class."""
    classes = []
    for v in structures._bits(cand):
        for c, cls in enumerate(classes):
            if cls & adj[v] == 0:
                classes[c] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return [(v, c) for c, cls in enumerate(classes, start=1)
            for v in structures._bits(cls)]


def recursive_alpha_s(g, s, budget=None):
    """The recursive searches that alpha_s's loops replaced, over
    first-fit colourings: the oracle of their value, witness, exactness
    and node count, as an AlphaResult."""
    n, adj = g.n, g.adjacency
    state = {"best": 0, "set": (), "nodes": 0, "exhausted": False}

    def improve(chosen):
        if len(chosen) > state["best"]:
            state["best"], state["set"] = len(chosen), tuple(chosen)

    def spent():
        state["nodes"] += 1
        if budget is not None and state["nodes"] > budget:
            state["exhausted"] = True
        return state["exhausted"]

    def expand(cand, current, comp):
        if spent():
            return
        for v, bound in reversed(first_fit_color_sort(cand, comp)):
            if state["exhausted"] or len(current) + bound <= state["best"]:
                return
            current.append(v)
            improve(current)
            if cand & comp[v]:
                expand(cand & comp[v], current, comp)
            current.pop()
            cand &= ~(1 << v)

    def rec(idx, chosen, chosen_mask):
        if spent() or idx == n or len(chosen) + (n - idx) <= state["best"]:
            return
        if not structures._has_clique_mask(adj, adj[idx] & chosen_mask,
                                           s - 2):
            chosen.append(idx)
            improve(chosen)
            rec(idx + 1, chosen, chosen_mask | (1 << idx))
            chosen.pop()
            if state["exhausted"]:
                return
        rec(idx + 1, chosen, chosen_mask)

    if n == 0:
        return AlphaResult(0, True, (), 0)
    if s == 3:
        full = (1 << n) - 1
        expand(full, [], [full & ~adj[v] & ~(1 << v) for v in range(n)])
        witness = tuple(sorted(state["set"]))
    else:
        rec(0, [], 0)
        witness = state["set"]
    return AlphaResult(state["best"], not state["exhausted"], witness,
                       state["nodes"])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(0, 30),
       p=st.sampled_from([0.1, 0.3, 0.5, 0.8]), s=st.integers(3, 5),
       budget=st.one_of(st.none(), st.integers(1, 60)))
def test_alpha_visits_as_the_recursive_search(seed, n, p, s, budget):
    # the subset search of s > 3 is exponential in n: at most 16 vertices
    g = random_graph(random.Random(seed), n if s == 3 else min(n, 16), p)
    assert alpha_s(g, s, budget) == recursive_alpha_s(g, s, budget)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(0, 40),
       p=st.sampled_from([0.05, 0.2, 0.5, 0.9]))
def test_color_sort_is_first_fit(seed, n, p):
    rng = random.Random(seed)
    adj = random_graph(rng, n, p).adjacency
    cand = rng.getrandbits(n) if n else 0
    assert structures._color_sort(cand, adj) == \
        first_fit_color_sort(cand, adj)


def test_alpha_runs_past_the_recursion_limit():
    # a thousand levels deep in both searches: the 1,000-vertex edgeless
    # graph at s = 3 and the triangle-free 999-cycle at s = 4
    edgeless = alpha_s(Hypergraph(2, 1000, frozenset()), 3)
    assert (edgeless.value, edgeless.exact) == (1000, True)
    assert edgeless.witness == tuple(range(1000))
    cycle = alpha_s(cyclic_graph(999, [1]), 4, budget=10_000)
    assert (cycle.value, cycle.exact) == (999, True)


def test_circulant_freeness_matches_is_free():
    # every connection set of size <= 3 on n <= 24 vertices
    for n in range(1, 25):
        for size in range(4):
            for conns in itertools.combinations(range(1, n // 2 + 1), size):
                g = cyclic_graph(n, conns)
                for s in (3, 4, 5):
                    assert (structures._circulant_is_free(n, conns, s)
                            == is_free(g, s)), (n, conns, s)


def test_search_small_alpha_hits_circulant_scale():
    result = search_small_alpha(13, 3, 4, budget=60, seed=0)
    assert result.found
    assert result.alpha <= 4
    assert is_free(result.graph, 3)
    assert alpha_s(result.graph, 3).value == result.alpha


def test_search_small_alpha_miss_is_honest():
    # alpha 1 needs a K_{s-1}, impossible in a free graph with n >= 2
    result = search_small_alpha(8, 3, 1, budget=20, seed=1)
    assert not result.found
    assert result.graph is not None
    assert result.alpha > 1


def test_search_small_alpha_miss_in_the_flip_phase(monkeypatch):
    # no circulant on 20 vertices reaches alpha 5, so the whole budget is
    # spent, most of it on edge flips; its alpha_s evaluations take 14,325
    # nodes in all, and a node cap one below that is refused
    monkeypatch.setattr(structures, "_MAX_SEARCH_NODES", 14_325)
    result = search_small_alpha(20, 3, 5, budget=1000, seed=0)
    assert (result.found, result.alpha, result.evaluations) == (False, 6,
                                                                1000)
    assert digest(structure_to_json(result.graph)) == (
        "sha256:2baa3ef1cb6412e366bb55fdbe7f1306"
        "c4806c33cce27fb1ec75e2d0821b7281")
    monkeypatch.setattr(structures, "_MAX_SEARCH_NODES", 14_324)
    with pytest.raises(ValueError, match="exceed 14324 nodes"):
        search_small_alpha(20, 3, 5, budget=1000, seed=0)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_embed_c5_into_petersen(petersen):
    c5 = cyclic_graph(5, [1])
    result = embed_search(c5, petersen)
    assert result.mapping is not None
    assert is_induced_embedding(c5, petersen, result.mapping)


def test_embed_absence_is_proven(petersen):
    k3 = Hypergraph(2, 3, frozenset({(0, 1), (0, 2), (1, 2)}))
    result = embed_search(k3, petersen)
    assert result.mapping is None and not result.exhausted


def test_embed_budget_exhaustion():
    pattern = cyclic_graph(13, [1, 5])
    host = random_maximal_free(200, 2, 3, 9)
    found = embed_search(pattern, host)
    assert found.mapping is not None
    assert is_induced_embedding(pattern, host, found.mapping)
    starved = embed_search(pattern, host, budget=3)
    assert starved.mapping is None and starved.exhausted


def recursive_embed_search(g, h, budget=None):
    """The recursive backtrack that embed_search's loop replaced: the
    oracle of its visit order and node count, as (mapping, exhausted,
    nodes)."""
    if g.n == 0:
        return (), False, 0
    if g.n > h.n:
        return None, False, 0
    order, remaining = [], set(range(g.n))
    while remaining:  # most placed neighbours, then degree, then least index
        v = max(remaining, key=lambda v: (
            sum(1 for e in g.edges if v in e and set(order) & set(e)),
            g.degrees[v], -v))
        order.append(v)
        remaining.remove(v)
    image = [-1] * g.n
    state = {"nodes": 0, "exhausted": False}

    def candidates(pos, used):
        u, mask = order[pos], (1 << h.n) - 1 & ~used
        for w in order[:pos]:
            x = image[w]
            mask &= (h.adjacency[x] if g.adjacency[u] >> w & 1
                     else ~h.adjacency[x])
        return list(structures._bits(mask))

    def place(pos, used):
        if pos == g.n:
            return True
        for v in candidates(pos, used):
            state["nodes"] += 1
            if budget is not None and state["nodes"] > budget:
                state["exhausted"] = True
                return False
            image[order[pos]] = v
            if place(pos + 1, used | 1 << v):
                return True
            if state["exhausted"]:
                return False
        image[order[pos]] = -1
        return False

    if place(0, 0):
        return tuple(image), False, state["nodes"]
    return None, state["exhausted"], state["nodes"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_host=st.integers(0, 12),
       n_pattern=st.integers(0, 8), p=st.sampled_from([0.2, 0.5, 0.8]),
       induced=st.booleans(),
       budget=st.one_of(st.none(), st.integers(1, 40)))
def test_embed_search_visits_as_the_recursive_backtrack(
        seed, n_host, n_pattern, p, induced, budget):
    rng = random.Random(seed)
    host = random_graph(rng, n_host, p)
    if induced and n_pattern <= n_host:
        # an induced copy of a random vertex subset: an embedding exists
        keep = rng.sample(range(n_host), n_pattern)
        pattern = Hypergraph(2, n_pattern, frozenset(
            (i, j) for i, j in itertools.combinations(range(n_pattern), 2)
            if host.has_edge(tuple(sorted((keep[i], keep[j]))))))
    else:
        pattern = random_graph(rng, n_pattern, p)
    result = embed_search(pattern, host, budget)
    assert (result.mapping, result.exhausted, result.nodes) == \
        recursive_embed_search(pattern, host, budget)


def test_embed_rejects_arity_mismatch():
    g2 = Hypergraph(2, 3, frozenset())
    g3 = Hypergraph(3, 5, frozenset())
    with pytest.raises(ValueError):
        embed_search(g2, g3)
    with pytest.raises(ValueError, match="graphs"):
        embed_search(g3, g3)  # the search runs over neighbour bitsets


def test_is_induced_embedding_checks_non_edges():
    c4 = cyclic_graph(4, [1])
    k4 = Hypergraph(2, 4, frozenset(itertools.combinations(range(4), 2)))
    assert not is_induced_embedding(c4, k4, (0, 1, 2, 3))
    assert is_induced_embedding(c4, c4, (0, 1, 2, 3))
    assert not is_induced_embedding(c4, c4, (0, 2, 1, 3))


def edge_by_edge_induced(g, h, mapping):
    """The r-set by r-set check that is_induced_embedding's rows replaced:
    injective, in range, and every pair an edge iff its image is."""
    if len(mapping) != g.n or len(set(mapping)) != g.n:
        return False
    if any(not 0 <= v < h.n for v in mapping):
        return False
    return all(g.has_edge(pair) == h.has_edge(tuple(mapping[v] for v in pair))
               for pair in itertools.combinations(range(g.n), 2))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n_host=st.integers(0, 10),
       n_pattern=st.integers(0, 8), p=st.sampled_from([0.2, 0.5, 0.8]),
       induced=st.booleans())
def test_is_induced_embedding_matches_the_edge_by_edge_check(
        seed, n_host, n_pattern, p, induced):
    rng = random.Random(seed)
    host = random_graph(rng, n_host, p)
    if induced and n_pattern <= n_host:
        # an induced copy of a random vertex subset, mapped to itself
        mapping = rng.sample(range(n_host), n_pattern)
        pattern = Hypergraph(2, n_pattern, frozenset(
            (i, j) for i, j in itertools.combinations(range(n_pattern), 2)
            if host.has_edge((mapping[i], mapping[j]))))
        if pattern.n and rng.random() < 0.5:
            # a repeated or out-of-range vertex, or another vertex
            mapping[rng.randrange(pattern.n)] = rng.randrange(n_host + 2)
    else:
        pattern = random_graph(rng, n_pattern, p)
        mapping = [rng.randrange(n_host + 1) for _ in range(n_pattern)]
    assert is_induced_embedding(pattern, host, mapping) == \
        edge_by_edge_induced(pattern, host, mapping)


def test_is_induced_embedding_is_for_graphs():
    g3 = Hypergraph(3, 3, frozenset())
    with pytest.raises(ValueError, match="graphs"):
        is_induced_embedding(g3, g3, (0, 1, 2))


def test_embed_search_matches_brute_on_corpus():
    rng = random.Random(13)
    for _ in range(25):
        pattern = random_graph(rng, rng.randint(2, 4), 0.5)
        host = random_graph(rng, rng.randint(4, 6), 0.5)
        result = embed_search(pattern, host)
        brute_hit = any(
            is_induced_embedding(pattern, host, perm)
            for perm in itertools.permutations(range(host.n), pattern.n))
        assert (result.mapping is not None) == brute_hit
        if result.mapping is not None:
            assert is_induced_embedding(pattern, host, result.mapping)


# ---------------------------------------------------------------------------
# parameterized-equivalence grids
# ---------------------------------------------------------------------------

def test_grid_coordinates():
    assert grid_object(3, 0, 0) == 0
    assert grid_object(3, 2, 1) == 7
    assert grid_target(3, 2) == 11


def test_build_tp2_grid_shape():
    f = build_tp2_grid(2)
    assert f.objects == 6 and f.parameters == 4
    for sigma_index, sigma in enumerate(itertools.product(range(2), repeat=2)):
        # the path parameter pairs each row's chosen cell with that row's target
        for row, col in enumerate(sigma):
            assert f.mates[sigma_index][grid_target(2, row)] \
                == grid_object(2, row, col)
    f1 = build_tp2_grid(1)
    assert f1.objects == 2 and f1.parameters == 1


def test_build_tp2_grid_holds_one_mate_vector_per_path():
    # 3,125 tuples of 30 small ints take about 0.9 MB; a tuple of block
    # tuples per path took 6.1 MB
    f, peak = traced_peak(build_tp2_grid, 5)
    assert f.parameters == 3125
    assert peak < 2_000_000


def test_build_tp2_grid_cap():
    with pytest.raises(ValueError):
        build_tp2_grid(7)
    with pytest.raises(ValueError):
        build_tp2_grid(0)
