"""Structure files are checked once, as they are read, and structures the
program builds are not checked again.

structure_from_json reads a hypergraph's edges in one pass and a feq2
file's blocks into mates, and builds through Record.trusted; the
reference reader in conftest checks each edge as a file writes it and
then builds through the public constructor, which checks it all again.
Hostile single edits of a valid file get the reference's refusal word
for word, and any file gets the same record or a refusal from both.
"""

import itertools
import json
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import structure_from_json_oracle
from keisler_lab.measures import _random_host
from keisler_lab.serialize import (FormatError, structure_from_json,
                                   structure_to_json)
from keisler_lab.structures import (Feq2Structure, Hypergraph,
                                    add_vertex_with_links, build_tp2_grid,
                                    cyclic_graph, random_maximal_free,
                                    search_small_alpha)

_NOT_INTS = ("1", 1.0, True, None, [0])
_NOT_LISTS = (7, "0,1", {"0": 1}, None)


def _read(reader, payload):
    try:
        return reader(payload)
    except FormatError as exc:
        return f"FormatError: {exc}"


@st.composite
def hypergraph_files(draw) -> dict:
    """A valid hypergraph file: r in 2..4, at most 9 vertices, its edges
    in any order, each written in ascending order."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(0, 9))
    pool = [list(e) for e in itertools.combinations(range(n), r)]
    edges = draw(st.lists(st.sampled_from(pool), unique_by=tuple,
                          max_size=30)) if pool else []
    return {"kind": "hypergraph", "r": r, "n": n, "edges": edges}


def _pick(draw, items, fits):
    """The index of an item that fits, drawn, or None."""
    indices = [i for i, item in enumerate(items) if fits(item)]
    return draw(st.sampled_from(indices)) if indices else None


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _hypergraph_edit(draw, payload: dict, r: int, n: int) -> None:
    """One hostile edit of a file of the valid r and n; each is a single
    fault of a valid file."""
    edges = payload["edges"]
    i = _pick(draw, edges, lambda e: _int_list(e) and len(e) == r
              and e == sorted(set(e)) and 0 <= e[0] and e[-1] < n)
    kinds = ["count", "type", "edges", "kind", "cap"]
    if i is not None:
        kinds += ["vertex", "edge", "unsorted", "repeat", "range", "length",
                  "duplicate"]
    kind = draw(st.sampled_from(kinds))
    j = draw(st.integers(0, r - 2))
    if kind == "count":  # a negative vertex count or an arity below 2
        key = draw(st.sampled_from(("r", "n")))
        payload[key] = draw(st.integers(-3, 1 if key == "r" else -1))
    elif kind == "type":
        payload[draw(st.sampled_from(("r", "n")))] = draw(
            st.sampled_from(("3", 3.0, True, None)))
    elif kind == "edges":
        payload["edges"] = draw(st.sampled_from(_NOT_LISTS))
    elif kind == "kind":
        payload["kind"] = draw(st.sampled_from(("Hypergraph", None, 2)))
    elif kind == "cap":
        payload[draw(st.sampled_from(("r", "n")))] = 10 ** 5
    elif kind == "vertex":
        e = list(edges[i])
        e[j] = draw(st.sampled_from(_NOT_INTS))
        edges[i] = e
    elif kind == "edge":
        edges[i] = draw(st.sampled_from(_NOT_LISTS))
    elif kind == "unsorted":
        e = list(edges[i])
        e[j], e[j + 1] = e[j + 1], e[j]
        edges[i] = e
    elif kind == "repeat":
        e = list(edges[i])
        e[j + 1] = e[j]
        edges[i] = e
    elif kind == "range":
        e = list(edges[i])
        if draw(st.booleans()):
            e[-1] = n + draw(st.integers(0, 3))
        else:
            e[0] = -1 - draw(st.integers(0, 3))
        edges[i] = e
    elif kind == "length":
        e = edges[i]
        edges[i] = e + [e[-1] + 1] if e[-1] + 1 < n else e[:-1]
    else:  # a second copy of an edge, before or after it
        edges.insert(draw(st.integers(0, len(edges))), list(edges[i]))


@st.composite
def feq2_files(draw) -> dict:
    """A valid feq2 file: at most 9 objects and 4 parameters, each
    partition's blocks and each block's objects in any order."""
    objects = draw(st.integers(0, 9))
    classes = []
    # most files have a partition to edit; the simplest draw is one
    for _ in range(draw(st.sampled_from((1, 2, 3, 4, 0)))):
        order = draw(st.permutations(range(objects)))
        blocks = [list(order[i:i + 2]) for i in range(0, objects, 2)]
        classes.append(draw(st.permutations(blocks)))
    return {"kind": "feq2", "objects": objects, "parameters": len(classes),
            "classes": [list(blocks) for blocks in classes]}


def _feq2_edit(draw, payload: dict, objects: int, parameters: int) -> None:
    """One hostile edit of a file of the valid counts; each is a single
    fault of a valid file."""
    classes = payload["classes"]
    z = _pick(draw, classes, lambda blocks: isinstance(blocks, list)
              and all(map(_int_list, blocks)))
    blocks = classes[z] if z is not None else []
    i = _pick(draw, blocks, lambda b: len(b) in (1, 2))
    kinds = ["count", "parameters", "type", "classes", "cap"]
    if z is not None:
        kinds += ["blocks", "extra"]
    if i is not None:
        kinds += ["object", "missing", "reuse", "range", "size"]
        if len(blocks[i]) == 2:
            kinds += ["shrink", "split"]
    kind = draw(st.sampled_from(kinds))
    if kind == "count":
        payload["objects"] = draw(st.integers(-3, -1))
    elif kind == "parameters":
        payload["parameters"] = parameters + draw(st.sampled_from((-1, 1)))
    elif kind == "type":
        payload[draw(st.sampled_from(("objects", "parameters")))] = draw(
            st.sampled_from(("3", 3.0, True, None)))
    elif kind == "classes":
        payload["classes"] = draw(st.sampled_from(_NOT_LISTS))
    elif kind == "cap":
        payload["objects"] = 10 ** 5
    elif kind == "blocks":
        classes[z] = draw(st.sampled_from(_NOT_LISTS[:2]))
    elif kind == "extra":  # an object a second time, or out of range
        blocks.insert(draw(st.integers(0, len(blocks))),
                      [draw(st.integers(0, objects))])
    elif kind == "object":
        blocks[i] = [draw(st.sampled_from(_NOT_INTS))] + blocks[i][1:]
    elif kind == "missing":
        del blocks[i]
    elif kind == "reuse":  # an object of another block, or its own again
        other = blocks[_pick(draw, blocks, bool)]
        blocks[i] = blocks[i][:-1] + [other[0]] if len(blocks[i]) == 2 \
            else [blocks[i][0], other[-1]]
    elif kind == "range":
        blocks[i] = [draw(st.sampled_from((objects, objects + 2, -1)))] \
            + blocks[i][1:]
    elif kind == "shrink":  # an object left out
        blocks[i] = blocks[i][:1]
    elif kind == "split":  # a pair as two singletons
        blocks.append(blocks[i][1:])
        blocks[i] = blocks[i][:1]
    else:  # a block of three or none
        blocks[i] = blocks[i] + [blocks[i][0]] if draw(st.booleans()) \
            else []


@st.composite
def edited_files(draw, kind: str):
    """A valid structure file of this kind and 0, 1 or 2 hostile edits of
    it."""
    payload = draw(hypergraph_files() if kind == "hypergraph"
                   else feq2_files())
    edits = draw(st.integers(0, 2))
    sizes = ((payload["r"], payload["n"]) if kind == "hypergraph"
             else (payload["objects"], payload["parameters"]))
    for _ in range(edits):
        if not isinstance(payload.get("edges", payload.get("classes")),
                          list):
            break
        (_hypergraph_edit if kind == "hypergraph" else _feq2_edit)(
            draw, payload, *sizes)
    return payload, edits


@pytest.mark.parametrize("kind", ["hypergraph", "feq2"])
@settings(derandomize=True, database=None, max_examples=1000,
          deadline=None)
@given(data=st.data())
def test_one_pass_reader_matches_the_constructor_reader(kind, data):
    # the same record, or a refusal on both sides; with one fault, the
    # reference reader's own message
    payload, edits = data.draw(edited_files(kind))
    fresh = _read(structure_from_json, json.loads(json.dumps(payload)))
    expected = _read(structure_from_json_oracle, payload)
    if edits <= 1 or not isinstance(expected, str):
        assert fresh == expected
        assert type(fresh) is type(expected)
    else:
        assert isinstance(fresh, str)


def test_single_faults_are_named_as_the_constructor_names_them():
    # one file per rule, each refused with the reference reader's words
    good = {"kind": "hypergraph", "r": 3, "n": 5,
            "edges": [[0, 1, 2], [1, 3, 4]]}
    edges_for = {
        "unsorted": [[0, 2, 1], [1, 3, 4]],
        "repeat": [[0, 1, 1], [1, 3, 4]],
        "range": [[0, 1, 5], [1, 3, 4]],
        "short": [[0, 1], [1, 3, 4]],
        "duplicate": [[1, 3, 4], [0, 1, 2], [1, 3, 4]],
        "vertex": [[0, 1, 2.0], [1, 3, 4]],
        "long": [[0] * 3000],
    }
    for edges in edges_for.values():
        payload = {**good, "edges": edges}
        assert (_read(structure_from_json, payload)
                == _read(structure_from_json_oracle, payload)), edges
    for r, n in ((1, 5), (3, -1)):
        payload = {**good, "r": r, "n": n}
        refusal = _read(structure_from_json, payload)
        assert refusal == _read(structure_from_json_oracle, payload)
        assert refusal.endswith(("at least 2", "nonnegative"))
    assert _read(structure_from_json, {**good, "edges": edges_for[
        "duplicate"]}) == "FormatError: duplicate edge [1, 3, 4]"
    feq2 = {"kind": "feq2", "objects": 4, "parameters": 1,
            "classes": [[[0, 1], [2, 3]]]}
    for edit in ({"objects": -2}, {"parameters": 2},
                 {"classes": [[[0, 1], [2, 3], [1]]]},
                 {"classes": [[[0, 1]]]}, {"classes": [[[0, 1], [1, 3]]]}):
        payload = {**feq2, **edit}
        assert (_read(structure_from_json, payload)
                == _read(structure_from_json_oracle, payload)), edit


def test_no_sentinel_mate_reaches_a_structure():
    # a bad partition is refused by the reader itself, not handed on
    payload = {"kind": "feq2", "objects": 4, "parameters": 1,
               "classes": [[[0, 1]]]}
    with pytest.raises(FormatError, match="parameter 0: blocks must pair "
                       "off the 4 objects"):
        structure_from_json(payload)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, max(n // 2, 1)), max_size=5)
    if n >= 2 else st.just([]))))
def test_circulants_are_what_the_constructor_makes(case):
    n, connections = case
    g = cyclic_graph(n, connections)
    assert Hypergraph(2, n, g.edges) == g


@pytest.mark.parametrize("k", range(1, 6))
def test_tp2_grids_are_what_the_constructor_makes(k):
    f = build_tp2_grid(k)
    assert Feq2Structure(f.objects, f.parameters, f.mates) == f


def test_program_built_graphs_are_what_the_constructor_makes():
    rng = random.Random(39)
    graphs = [_random_host(rng) for _ in range(20)]
    graphs.append(search_small_alpha(16, 5, 11, budget=200, seed=0).graph)
    g = random_maximal_free(20, 2, 3, 4)
    graphs.append(add_vertex_with_links(g, [(20,), (21,)], 3, isolated=2))
    for h in graphs:
        assert Hypergraph(h.r, h.n, h.edges) == h


def test_builders_keep_their_refusals():
    for build, message in (
            (lambda: cyclic_graph(-5, []), "vertex count must be nonneg"),
            (lambda: cyclic_graph(-5, [1]), "connection 1 outside"),
            (lambda: random_maximal_free(-1, 2, 3, 0), "vertex count"),
            (lambda: build_tp2_grid(0), "k must be at least 1")):
        with pytest.raises(ValueError, match=message):
            build()


def _read_back(structure):
    payload = json.loads(json.dumps(structure_to_json(structure)))
    return lambda: structure_to_json(structure_from_json(payload)) == payload


def _flips_run():
    result = search_small_alpha(16, 5, 11, budget=200, seed=0)
    # at most 93 circulants and 2 random graphs: the rest were flips
    circulants = sum(comb(8, size) for size in range(4))
    return result.found and result.evaluations > circulants + 2


SINGLE_PASS = {
    "read-3-graph": _read_back(random_maximal_free(30, 3, 4, 1)),
    "read-graph": _read_back(random_maximal_free(40, 2, 3, 1)),
    "read-feq2": _read_back(build_tp2_grid(3)),
    "tp2-grid": lambda: build_tp2_grid(4).parameters == 4 ** 4,
    "circulant": lambda: len(cyclic_graph(13, [1, 5]).edges) == 26,
    "searchalpha-flips": _flips_run,
}


@pytest.mark.parametrize("case", sorted(SINGLE_PASS))
def test_reading_and_building_run_no_public_constructor(case, monkeypatch):
    # structure files are read, and grids, circulants and the alpha
    # search's flip candidates built, with both constructors stubbed
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}'s public constructor "
                             f"ran")
    monkeypatch.setattr(Hypergraph, "__init__", refuse)
    monkeypatch.setattr(Feq2Structure, "__init__", refuse)
    with pytest.raises(AssertionError):
        Feq2Structure(0, 0, ())
    assert SINGLE_PASS[case]()
