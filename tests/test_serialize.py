"""JSON round-trips, digests, atomic writes and inline structure specs."""

import copy
import hashlib
import json
import os
import pickle
import random
from fractions import Fraction
from math import comb, gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (fraction_weights, fresh_import, random_graph,
                      random_hypergraph, random_weighted, traced_peak,
                      weighted_payloads)
from keisler_lab import serialize
from keisler_lab.serialize import (
    _SLICE,
    FormatError,
    _weight_entry,
    atomic_write_text,
    canonical_dumps,
    digest,
    load_json,
    load_structure,
    load_weighted,
    parse_int_list,
    parse_rational,
    parse_spec_fields,
    parse_structure_spec,
    rational_to_json,
    structure_from_json,
    structure_to_json,
    weighted_from_json,
    weighted_to_json,
)
from keisler_lab.structures import (
    FreenessViolation,
    Hypergraph,
    add_vertex_with_links,
    build_tp2_grid,
    cyclic_graph,
    random_maximal_free,
)
from keisler_lab.witnesses import build_report


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_rational_round_trip():
    # a rational as reports write it is read back as a weight's num/den
    for value in (Fraction(0), Fraction(4, 5), Fraction(-7, 3), Fraction(12)):
        payload = rational_to_json(value)
        _, num, den = _weight_entry([[0, 1], payload])
        assert Fraction(num, den) == value
        assert payload["decimal"] == pytest.approx(float(value))


def test_weight_entry_rejects_garbage_rationals():
    for bad in (None, [], {"num": 1}, {"num": 1, "den": 0},
                {"num": "1", "den": 2}, {"num": 1.5, "den": 2},
                {"num": 1, "den": True}):
        with pytest.raises(FormatError, match="^not a rational: "):
            _weight_entry([[0, 1], bad])


def test_parse_rational():
    assert parse_rational("4/5") == Fraction(4, 5)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    with pytest.raises(FormatError):
        parse_rational("4/0")
    with pytest.raises(FormatError):
        parse_rational("a/b")


# ---------------------------------------------------------------------------
# structure payloads
# ---------------------------------------------------------------------------

def test_structure_round_trips():
    rng = random.Random(61)
    graph = random_graph(rng, 7, 0.5)
    assert structure_from_json(structure_to_json(graph)) == graph
    three = random_maximal_free(8, 3, 4, 2)
    assert structure_from_json(structure_to_json(three)) == three
    f = build_tp2_grid(2)
    assert structure_from_json(structure_to_json(f)) == f


@st.composite
def three_graphs(draw):
    """3-graphs from every source a report serialises: built from edges,
    generated (with the generator's link rows at s = 4, rows built from
    the edges at s = 5), loaded from a payload, and extended by vertices;
    n = 0 and isolated vertices included."""
    source = draw(st.sampled_from(("edges", "generated", "file", "extended")))
    n = draw(st.integers(0, 13))
    seed = draw(st.integers(0, 2 ** 32))
    rng = random.Random(seed)
    if source == "generated":
        return random_maximal_free(n, 3, draw(st.sampled_from((4, 5))), seed)
    # the edges lie among the first k vertices; the rest are isolated
    k = draw(st.integers(0, n))
    density = draw(st.sampled_from((0.1, 0.4, 0.8)))
    edges = random_hypergraph(rng, k, 3, density).edges
    if source == "edges":
        return Hypergraph(3, n, edges)
    if source == "file":
        payload = [list(e) for e in edges]
        rng.shuffle(payload)
        return structure_from_json({"kind": "hypergraph", "r": 3, "n": n,
                                    "edges": payload})
    h = random_maximal_free(k, 3, 4, seed)
    for _ in range(n - k):
        pairs = [(a, b) for a in range(h.n) for b in range(a + 1, h.n)]
        links = rng.sample(pairs, min(len(pairs), rng.randint(0, 4)))
        try:
            h = add_vertex_with_links(h, links, 4)
        except FreenessViolation:
            h = add_vertex_with_links(h, [], 4)
    return h


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(three_graphs())
def test_three_graph_edges_read_off_the_link_rows_are_the_sorted_edges(h):
    expected = [list(e) for e in sorted(h.edges)]
    assert structure_to_json(h)["edges"] == expected
    # the same once the rows are cached, and for a fresh copy of the graph
    assert structure_to_json(h)["edges"] == expected
    assert structure_to_json(Hypergraph(3, h.n, h.edges))["edges"] == expected


def test_structure_from_json_rejections():
    good = structure_to_json(cyclic_graph(5, [1]))
    unsorted = json.loads(json.dumps(good))
    unsorted["edges"][0] = unsorted["edges"][0][::-1]
    with pytest.raises(FormatError):
        structure_from_json(unsorted)
    doubled = json.loads(json.dumps(good))
    doubled["edges"].append(doubled["edges"][0])
    with pytest.raises(FormatError):
        structure_from_json(doubled)
    with pytest.raises(FormatError):
        structure_from_json({"kind": "nope"})
    with pytest.raises(FormatError):
        structure_from_json({"kind": "hypergraph", "r": 2, "n": "3",
                             "edges": []})
    with pytest.raises(FormatError):
        structure_from_json({"kind": "hypergraph", "r": 2, "n": 3,
                             "edges": [[0, "1"]]})
    with pytest.raises(FormatError):
        structure_from_json({"kind": "hypergraph", "r": 2, "n": 2,
                             "edges": [[0, 5]]})
    with pytest.raises(FormatError):
        structure_from_json([1, 2])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(weighted_payloads())
def test_weighted_round_trip(payload):
    h = weighted_from_json(payload)
    written = weighted_to_json(h)
    assert weighted_from_json(written) == h
    # the same weights, sorted by key and in lowest terms, over the lcm of
    # their denominators
    read = sorted((tuple(sorted(key)), Fraction(w["num"], w["den"]))
                  for key, w in payload["weights"])
    assert [(tuple(key), Fraction(w["num"], w["den"]))
            for key, w in written["weights"]] == read
    assert all(w["den"] > 0 and gcd(w["num"], w["den"]) == 1
               for _, w in written["weights"])
    assert h.den == lcm(*(w.denominator for _, w in read))
    assert h.weights == tuple((key, int(w * h.den)) for key, w in read)


def test_weighted_digest_is_pinned():
    # unreduced, negative over negative, whole and zero weights over mixed
    # denominators, digested as when weights were held as Fractions
    entries = [([1, 0], 2, 4), ([1, 2], -1, -2), ([2, 3], 3, 1),
               ([0, 4], -10, -6), ([3, 4], 0, 7), ([2, 4], 14, 21)]
    h = weighted_from_json({"kind": "weighted-hypergraph", "n": 5, "r": 2,
                            "weights": [[key, {"num": num, "den": den}]
                                        for key, num, den in entries]})
    assert h.den == 6
    assert digest(weighted_to_json(h)) == ("sha256:890ee884aa6ca703a163c8be6d"
                                           "70bf64dde9e948da8041fbdd80ad391c7"
                                           "b8978")


def test_weighted_from_json_rejects_bad_weights():
    kind = "weighted-hypergraph"
    with pytest.raises(FormatError):
        weighted_from_json({"kind": kind, "n": 3, "r": 2,
                            "weights": [[[0, 1], "x"]]})
    with pytest.raises(FormatError):
        weighted_from_json({"kind": kind, "n": 3, "r": 2,
                            "weights": [[[0, 1], {"num": -1, "den": 2}]]})


@pytest.mark.parametrize("kind", [None, "feq2", "hypergraph", 1, "x" * 100])
def test_weighted_from_json_reads_its_kind_first(kind):
    payload = {"n": "not checked", "r": 2, "weights": [
        [[0, 1], {"num": 1, "den": 2}]]}
    if kind is not None:
        payload["kind"] = kind
    with pytest.raises(FormatError, match="^unknown weights kind ") as info:
        weighted_from_json(payload)
    assert len(str(info.value)) < 120


# entries that break one check each, and weights that cross the cap of
# WRITABLE: a value of 10^300, a term of 4,000 digits, and denominators
# that are pairwise coprime, so that two of them cross the cap of their lcm
_HOSTILE_ENTRIES = (
    "x", [[0, 1]], [[0, 1], {"num": 1}], [["0", 1], {"num": 1, "den": 1}],
    [[0, 1], {"num": 1, "den": 0}], [[0, 1], {"num": True, "den": 2}],
    [[0, 1], {"num": -1, "den": 2}], [[0, 0], {"num": 1, "den": 1}],
    [[0, 99], {"num": 1, "den": 1}], [[0, 1, 2, 3, 4], {"num": 1, "den": 1}],
    [[0, 1], {"num": 10 ** 300, "den": 1}],
    [[0, 1], {"num": -(10 ** 4000), "den": -1}],
    [[0, 1], {"num": 10 ** 4000, "den": 10 ** 3999}],
    [[0, 1], {"num": 1, "den": 10 ** 2000 + 1}],
    [[1, 0], {"num": 3, "den": 10 ** 2000 + 3}],
    [[0, 1], {"num": 2, "den": -(10 ** 2000 + 7)}],
)


@st.composite
def hostile_weighted_payloads(draw) -> dict:
    """weighted_payloads() files with up to three entries inserted from
    _HOSTILE_ENTRIES, each at a drawn index."""
    payload = draw(weighted_payloads())
    entries = payload["weights"]
    for entry in draw(st.lists(st.sampled_from(_HOSTILE_ENTRIES),
                               max_size=3)):
        entries.insert(draw(st.integers(0, len(entries))), entry)
    return payload


def _read_or_refusal(reader, payload):
    try:
        return reader(payload)
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(hostile_weighted_payloads())
def test_integer_reader_matches_fraction_reader(payload):
    # the same (weights, den) or the same refusal as the Fraction reader
    def read(p):
        h = weighted_from_json(p)
        return h.weights, h.den
    assert (_read_or_refusal(read, payload)
            == _read_or_refusal(fraction_weights, payload))


# ---------------------------------------------------------------------------
# canonical bytes and digests
# ---------------------------------------------------------------------------

def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert "\n  " in a  # indented


def json_oracle(payload) -> str:
    """The standard library's bytes, which canonical_dumps reproduces."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, ()],
    {"\u00e9\u2603 \"q\" \\ \x00\x1f\t": ["caf\u00e9", "\n\r\"\x7f",
                                            "\U0001f600"]},
    [-1, 0, 10 ** 40, -10 ** 40], [True, 1], [[1, 2], [True, 3]],
    [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], ([1, 2], (3, 4)), [[], []],
    [-0.0, 1e300, float("nan"), float("inf"), -float("inf"), 0.1],
    [[1.0, 2], [3, 4]], [1, [2]], None, True, 7, "x", 2.5,
])
def test_canonical_dumps_matches_json_on_edge_cases(payload):
    assert canonical_dumps(payload) == json_oracle(payload)


_TEXT = st.text(max_size=6)
_INTS = st.integers() | st.integers(-2 ** 70, 2 ** 70)
_SCALARS = (st.none() | st.booleans() | _INTS | _TEXT
            | st.floats(allow_nan=True, allow_infinity=True))
# int rows of one width, bools mixed in: the shape of an edge list
_ROWS = st.integers(0, 3).flatmap(lambda k: st.lists(
    st.lists(_INTS | st.booleans(), min_size=k, max_size=k), max_size=4))
_PAYLOADS = st.recursive(
    _SCALARS | st.lists(_INTS | st.booleans(), max_size=5) | _ROWS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_canonical_dumps_matches_json(payload):
    assert canonical_dumps(payload) == json_oracle(payload)


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {1: 2}}, {1, 2},
                                     {"a": [set()]}, [Fraction(1, 2)]])
def test_canonical_dumps_rejects_other_types(payload):
    with pytest.raises(TypeError):
        canonical_dumps(payload)


def digest_oracle(payload) -> str:
    """sha256 of the standard library's compact bytes, which digest hashes
    piece by piece."""
    return "sha256:" + hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":"),
        ensure_ascii=True).encode()).hexdigest()


def _tile(pool, count, kind):
    # count items cycling through pool, so that a drawn list is longer
    # than a digest slice without drawing every item
    return kind(pool[i % len(pool)] for i in range(count))


_LONG = st.integers(_SLICE - 1, 2 * _SLICE + 1)
_KIND = st.sampled_from([list, tuple])
# lists and tuples around the slice length: equal-length int rows (bools
# mixed in), and scalars
_LONG_LISTS = (st.builds(_tile, _ROWS.filter(bool), _LONG, _KIND)
               | st.builds(_tile, st.lists(_SCALARS, min_size=1, max_size=4),
                           _LONG, _KIND))
_LARGE_PAYLOADS = st.recursive(
    _SCALARS | _ROWS | _LONG_LISTS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_digest_matches_json(payload):
    assert digest(payload) == digest_oracle(payload)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_LARGE_PAYLOADS)
def test_digest_and_canonical_dumps_match_json_on_long_lists(payload):
    assert digest(payload) == digest_oracle(payload)
    assert canonical_dumps(payload) == json_oracle(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}}, [[]] * (_SLICE + 1), list(range(2 * _SLICE)),
    {1: "a", 2: [3]}, {"a": {2.5: 1, 1.5: 2}}, {"a": {True: 1, False: 2}},
    {"\u00e9": ["\u2603"] * (_SLICE + 2)}, [float("nan")] * (_SLICE + 1),
])
def test_digest_matches_json_on_edge_cases(payload):
    # a dict with keys other than str is left to json, which converts them
    assert digest(payload) == digest_oracle(payload)


def test_digest_refuses_what_json_refuses():
    for payload in ({"a": {1: 2, "b": 3}}, [set()] * (_SLICE + 1)):
        with pytest.raises(TypeError):
            digest_oracle(payload)
        with pytest.raises(TypeError):
            digest(payload)


def test_digest_falls_back_to_hashlib():
    """With neither builtin SHA-256 module importable, digest takes
    hashlib's sha256 and hashes the same bytes: the gen:60:3:4 structure,
    a list longer than a digest slice, and {}."""
    child = fresh_import(
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib\n"
        "from keisler_lab.serialize import (_SLICE, digest, sha256,\n"
        "    parse_structure_spec, structure_to_json)\n"
        "assert sha256 is hashlib.sha256\n"
        "for payload in (\n"
        "        structure_to_json(parse_structure_spec('gen:60:3:4:seed=1')),\n"
        "        [[i, i + 1] for i in range(2 * _SLICE + 3)], {}):\n"
        "    print(digest(payload))")
    assert child.split() == [
        digest(structure_to_json(parse_structure_spec("gen:60:3:4:seed=1"))),
        digest([[i, i + 1] for i in range(2 * _SLICE + 3)]), digest({})]


@pytest.fixture(scope="module")
def gen_report():
    """The gen report document of gen:60:3:4:seed=1, 11,864 edges."""
    _, document = build_report("gen", {"subcommand": "gen",
                                       "spec": "gen:60:3:4:seed=1"})
    assert len(document["witness"]["structure"]["edges"]) == 11_864
    return document


def test_digest_hashes_an_edge_list_in_bounded_pieces(gen_report):
    # json.dumps of the whole structure peaks at 2.6 MB
    structure = gen_report["witness"]["structure"]
    result, peak = traced_peak(digest, structure)
    assert result == gen_report["witness"]["digest"]
    assert peak < 0.5 * 2 ** 20


def test_canonical_dumps_copies_an_edge_list_once(gen_report):
    # the rows' text is not copied into a bracketed string (3.0 times the
    # text when it was)
    text, peak = traced_peak(canonical_dumps, gen_report)
    assert peak < 2.5 * len(text)


def test_digest_hashes_an_edge_list_with_no_encoder(gen_report,
                                                    monkeypatch):
    # the edge list is hashed from the text it carries: json's encoder
    # sees only the structure's kind, n and r
    structure = gen_report["witness"]["structure"]
    encoded = []

    def compact(value):
        encoded.append(value)
        return serialize_compact(value)
    serialize_compact = serialize._compact
    monkeypatch.setattr(serialize, "_compact", compact)
    assert digest(structure) == gen_report["witness"]["digest"]
    assert sorted(map(str, encoded)) == ["3", "60", "hypergraph"]


def test_atomic_write_text_writes_in_bounded_pieces(gen_report, tmp_path):
    # one write of the whole text encodes a copy of it (1.01 times the text)
    text = canonical_dumps(gen_report)
    path = tmp_path / "report.json"
    _, peak = traced_peak(atomic_write_text, str(path), text)
    assert path.read_text() == text
    assert peak < 0.25 * len(text)


@st.composite
def hypergraphs_to_write(draw):
    """Hypergraphs with r in 2..4: no edges, a few, and more than _SLICE,
    with vertices past 255; at r = 3 also generated, whose link rows the
    generator built."""
    r = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if r == 3 and draw(st.booleans()):
        return random_maximal_free(draw(st.integers(0, 40)), 3, 4,
                                   rng.randrange(100))
    n = draw(st.sampled_from((r, 9, 300)))
    count = min(draw(st.sampled_from((0, 1, 20, _SLICE + 7))), comb(n, r))
    edges = set()
    while len(edges) < count:
        edges.add(tuple(sorted(rng.sample(range(n), r))))
    return Hypergraph(r, n, frozenset(edges))


def iadd(rows):
    rows += [[0, 1]]


def imul(rows):
    rows *= 2


def setslice(rows):
    rows[:0] = [[0, 1]]


ROWS_MUTATORS = [
    lambda rows: rows.append([0, 1]), lambda rows: rows.extend([[0, 1]]),
    lambda rows: rows.insert(0, [0, 1]), lambda rows: rows.remove([0, 1]),
    lambda rows: rows.pop(), lambda rows: rows.clear(),
    lambda rows: rows.sort(), lambda rows: rows.sort(key=len),
    lambda rows: rows.reverse(),
    lambda rows: rows.__setitem__(0, [0, 1]), setslice,
    lambda rows: rows.__delitem__(0), iadd, imul,
]


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(hypergraphs_to_write(), st.sampled_from((1, 7, 100, serialize._PIECE)))
def test_an_edge_list_is_written_from_the_text_it_carries(h, piece):
    # the edge list and its text, cut into pieces of every size: the bytes
    # of json's encoders, alone and inside a report, the sorted edges, and
    # no change in place
    with patch.object(serialize, "_PIECE", piece):
        structure = structure_to_json(h)
    plain = json.loads(json.dumps(structure))
    rows = structure["edges"]
    assert rows == plain["edges"] == [list(e) for e in sorted(h.edges)]
    assert canonical_dumps(structure) == json_oracle(plain)
    assert digest(structure) == digest_oracle(plain)
    document = {"config": {"spec": "file:g.json"}, "log": ["line"],
                "witness": {"digest": "sha256:0", "structure": structure}}
    plain_document = json.loads(json.dumps(document))
    assert canonical_dumps(document) == json_oracle(plain_document)
    assert digest(document) == digest_oracle(plain_document)
    for mutate in ROWS_MUTATORS:
        with pytest.raises(TypeError):
            mutate(rows)
    assert rows == plain["edges"]
    for copied in (copy.deepcopy(structure),
                   pickle.loads(pickle.dumps(structure))):
        assert copied == structure
        assert canonical_dumps(copied) == json_oracle(plain)


def test_digest_ignores_key_order_and_separates_values():
    assert digest({"x": 1, "y": 2}) == digest({"y": 2, "x": 1})
    assert digest({"x": 1}) != digest({"x": 2})
    d = digest({})
    assert d.startswith("sha256:") and len(d) == len("sha256:") + 64


def digest_of(structure):
    return digest(structure_to_json(structure))


def test_structure_digest_tracks_identity():
    a = cyclic_graph(13, [1, 5])
    b = cyclic_graph(13, [5, 1])
    assert digest_of(a) == digest_of(b)
    assert digest_of(a) != digest_of(cyclic_graph(13, [1, 4]))


def test_structure_digest_matches_a_rebuilt_structure():
    g = random_maximal_free(30, 3, 4, 2)
    grid = build_tp2_grid(2)
    # a graph with the same edges, built and canonicalised afresh
    fresh = Hypergraph(3, 30, frozenset(tuple(reversed(e)) for e in g.edges))
    assert digest_of(fresh) == digest_of(g)
    # the same partitions, read from blocks listed in reverse
    payload = structure_to_json(grid)
    payload["classes"] = [[b[::-1] for b in reversed(blocks)]
                          for blocks in payload["classes"]]
    assert digest_of(structure_from_json(payload)) == digest_of(grid)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_atomic_write_and_load(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_text(str(path), canonical_dumps({"v": 1}))
    assert load_json(str(path)) == {"v": 1}
    atomic_write_text(str(path), canonical_dumps({"v": 2}))
    assert load_json(str(path)) == {"v": 2}
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_fsyncs_the_file_and_its_directory(tmp_path,
                                                        monkeypatch):
    synced = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
    path = tmp_path / "out.json"
    atomic_write_text(str(path), canonical_dumps({"v": 1}))
    assert len(synced) == 2
    assert load_json(str(path)) == {"v": 1}

    def failing(fd):
        raise OSError("fsync failed")
    monkeypatch.setattr(os, "fsync", failing)
    other = tmp_path / "other.json"
    with pytest.raises(OSError, match="fsync failed"):
        atomic_write_text(str(other), canonical_dumps({"v": 2}))
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_load_structure_and_weighted(tmp_path):
    g = cyclic_graph(7, [2])
    path = tmp_path / "graph.json"
    atomic_write_text(str(path), canonical_dumps(structure_to_json(g)))
    assert load_structure(str(path)) == g
    wh = random_weighted(random.Random(71), 5, 2)
    wpath = tmp_path / "weighted.json"
    atomic_write_text(str(wpath), canonical_dumps(weighted_to_json(wh)))
    assert load_weighted(str(wpath)) == wh
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_json(str(bad))


# ---------------------------------------------------------------------------
# inline specs
# ---------------------------------------------------------------------------

def test_parse_structure_spec_generators():
    g = parse_structure_spec("gen:30:2:3:seed=4")
    assert g == random_maximal_free(30, 2, 3, 4)
    c = parse_structure_spec("circulant:13:1,5")
    assert c == cyclic_graph(13, [1, 5])
    grid = parse_structure_spec("tp2grid:3")
    assert grid == build_tp2_grid(3)
    found = parse_structure_spec("searchalpha:13:3:4:60:seed=0")
    assert isinstance(found, Hypergraph) and found.n == 13


def test_parse_spec_fields_names_each_field():
    assert parse_spec_fields("gen:30:2:3:seed=4") == (
        "gen", {"n": 30, "r": 2, "s": 3, "seed": 4})
    assert parse_spec_fields("circulant:13:1,,5") == (
        "circulant", {"n": 13, "distances": [1, 5]})
    assert parse_spec_fields("searchalpha:13:3:4:60:seed=0") == (
        "searchalpha", {"n": 13, "s": 3, "target": 4, "budget": 60,
                        "seed": 0})
    assert parse_spec_fields("tp2grid:3") == ("tp2grid", {"k": 3})
    for spec, path in [("file:a:b.json", "a:b.json"), ("gen", "gen"),
                       ("/x/y.json", "/x/y.json"), ("grid:3", "grid:3")]:
        assert parse_spec_fields(spec) == ("file", {"path": path})


@pytest.mark.parametrize("spec, message", [
    ("gen:30:2:3", "gen spec needs gen:n:r:s:seed"),
    ("gen:30:2:3:4", "expected seed=<int>"),
    ("gen:30:2:3:seed=x", "bad numeric field seed"),
    ("gen:30:two:3:seed=1", "bad numeric field r"),
    ("circulant:13:1,x", "needs comma-separated integers, got '1,x'"),
    ("tp2grid:2:3", "tp2grid spec needs tp2grid:k"),
], ids=["too-few", "seed-prefix", "seed-value", "int", "comma-list",
        "too-many"])
def test_parse_spec_fields_rejections(spec, message):
    with pytest.raises(FormatError, match=message):
        parse_spec_fields(spec)


def test_parse_int_list():
    assert parse_int_list("1,,2,", "--params") == [1, 2]
    assert parse_int_list("", "--params") == []
    with pytest.raises(FormatError,
                       match="--params needs comma-separated integers"):
        parse_int_list("1,a", "--params")


def test_parse_structure_spec_files(tmp_path):
    g = cyclic_graph(6, [1])
    path = tmp_path / "c6.json"
    atomic_write_text(str(path), canonical_dumps(structure_to_json(g)))
    assert parse_structure_spec(str(path)) == g
    assert parse_structure_spec(f"file:{path}") == g


@pytest.mark.parametrize("spec", [
    "gen:30:2:3",                     # missing seed field
    "gen:30:2:3:seed=x",
    "gen:a:2:3:seed=1",
    "gen:5:2:2:seed=1",               # s must exceed r
    "circulant:13",
    "circulant:13:0",
    "circulant:x:1",
    "searchalpha:13:3:4:60",
    "searchalpha:13:3:0:5:seed=0",    # unreachable target reported honestly
    "tp2grid:0",
    "tp2grid:9",                      # path count cap
    "tp2grid:2:3",
    "file:/definitely/not/there.json",
    "/also/not/there.json",
])
def test_parse_structure_spec_rejections(spec):
    with pytest.raises(FormatError):
        parse_structure_spec(spec)
