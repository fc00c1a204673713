"""Canonical JSON for structures, weights and rationals, plus digests.

Serialization is deterministic: keys are sorted, sets are emitted in
sorted order and rationals are written as {"num", "den"} in lowest terms
with a convenience decimal.  Loaders validate shape and reject edges that
are not sorted ascending.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from math import comb, gcd
from typing import Union

# The interpreter's own SHA-256, as random.py takes its sha512: hashlib
# loads OpenSSL's libcrypto, about 3.6 MB of every process's peak RSS
try:
    from _sha256 import sha256  # CPython <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        from hashlib import sha256

from .coloring import (WRITABLE, WeightedHypergraph, weighted_hypergraph,
                       writable)
from .structures import (_UNPAIRED, Feq2Structure, Hypergraph,
                         _canonical_edge, _check_counts, _check_sizes, _shown,
                         build_tp2_grid, cyclic_graph, random_maximal_free,
                         search_small_alpha)


class FormatError(ValueError):
    """Input file or payload violates the documented format."""


def rational_to_json(value: Fraction) -> dict:
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator,
            "decimal": float(value)}


def parse_rational(text: str) -> Fraction:
    """a/b, a decimal or an integer; a nonzero value is refused unless it
    and its reciprocal (fam certifies 2*ell/epsilon) have what WRITABLE
    says.  A text longer than a line is named by its length."""
    name = _shown(text)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot parse rational {name}") from None
    num, den = abs(value.numerator), value.denominator
    if num and not (writable(num, den) and writable(den, num)):
        raise FormatError(f"rational {name}: it and its reciprocal need "
                          f"{WRITABLE}")
    return value


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

Storable = Union[Hypergraph, Feq2Structure]


def structure_to_json(structure: Storable) -> dict:
    """The JSON a structure's file holds.  A hypergraph's edges come in
    sorted order as a _Rows: the rows and their compact text, made in one
    walk, at r = 3 off the link rows with each vertex's decimal text made
    once (_link_edges), and at every other r from the sorted edge set by
    json's C encoder, _SLICE rows at a time.  digest hashes that text and
    canonical_dumps indents it, so an edge list is formatted once."""
    if isinstance(structure, Hypergraph):
        if structure.r == 3:
            edges = _link_edges(structure.links)
        else:
            rows = [list(e) for e in sorted(structure.edges)]
            edges = _Rows(rows, tuple(_compact_pieces(rows)))
        return {"kind": "hypergraph", "r": structure.r, "n": structure.n,
                "edges": edges}
    if isinstance(structure, Feq2Structure):
        # each block at its least object: the blocks in sorted order
        return {"kind": "feq2", "objects": structure.objects,
                "parameters": structure.parameters,
                "classes": [[[x, y] if x < y else [x]
                             for x, y in enumerate(mate) if x <= y]
                            for mate in structure.mates]}
    raise FormatError(f"cannot serialize {type(structure).__name__}")


class _Rows(list):
    """An edge list, [[a, b, ...], ...] in sorted order, that carries its
    compact JSON text in pieces of whole rows: "[" + ",".join(pieces) +
    "]" is json.dumps(rows, separators=(",", ":")).  It reads as the list
    it is, for ==, json and verify, and refuses every change in place, so
    the text cannot go stale; its rows are plain lists, which nothing
    changes."""

    __slots__ = ("pieces",)

    def __init__(self, rows: list[list[int]], pieces: tuple[str, ...]):
        super().__init__(rows)
        self.pieces = pieces

    def __reduce__(self):
        return _Rows, (list(self), self.pieces)

    def _refuse(self, *args, **kwargs):
        raise TypeError("an edge list carries its text and is not changed "
                        "in place")

    append = extend = insert = remove = pop = clear = sort = reverse = \
        __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse


def _link_edges(links) -> _Rows:
    # the edges a < b < c of a 3-graph in sorted order, read off its link
    # rows (Hypergraph.links): row a holds the b > a, and links[a][b] the
    # c, so taking a ascending, b ascending and the bits of links[a][b]
    # above b lists each edge once, in order, without sorting the edge set.
    # For a generated graph these are the rows generation built and
    # is_free and is_maximal_free certified.  The text of one (a, b) is
    # "[a,b,c],[a,b,c'],...", joined from each vertex's decimal text, and
    # these are joined into a piece once they pass _PIECE characters.
    names = list(map(str, range(len(links))))
    edges, pieces, texts, size = [], [], [], 0
    append = edges.append
    for a, row in enumerate(links):
        head_a = "[" + names[a] + ","
        for b in sorted(row):
            m = row[b] & -(2 << b)
            if not m:
                continue
            head = head_a + names[b] + ","
            last = []
            while m:
                low = m & -m
                c = low.bit_length() - 1
                append([a, b, c])
                last.append(names[c])
                m ^= low
            text = head + ("]," + head).join(last) + "]"
            texts.append(text)
            size += len(text)
            if size >= _PIECE:
                pieces.append(",".join(texts))
                texts, size = [], 0
    if texts:
        pieces.append(",".join(texts))
    return _Rows(edges, tuple(pieces))


def _is_int(value) -> bool:
    # the one integer rule of every file: JSON's true and false load as
    # bools, which are ints to isinstance and equal to 1 and 0
    return type(value) is int


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _expect_int(value, what: str) -> int:
    if not _is_int(value):
        raise FormatError(f"{what} must be an integer, got {_shown(value)}")
    return value


# Structure-file caps, checked before anything is built: a hypergraph
# keeps tables of n entries per vertex, and a parameterized equivalence
# checks one partition of its objects per parameter.  n is the gen spec's
# cap, r the weights file's, and tp2grid:6 has 42 objects and 6^6 = 46,656
# parameters.
_MAX_FILE_N = 10_000
_MAX_FILE_R = 8
_MAX_FILE_OBJECTS = 10_000
_MAX_FILE_PARAMETERS = 10 ** 5


def structure_from_json(payload: dict) -> Storable:
    """The structure a file holds, built by trusted: each rule is checked
    once, as it is read, with the constructor's refusal (edges in one pass,
    a repeat named only when the edge set is short; blocks by _mates)."""
    if not isinstance(payload, dict):
        raise FormatError("structure payload must be an object")
    kind = payload.get("kind")
    if kind == "hypergraph":
        r = _expect_int(payload.get("r"), "r")
        n = _expect_int(payload.get("n"), "n")
        if n > _MAX_FILE_N or r > _MAX_FILE_R:
            raise FormatError(f"hypergraph n = {n} and r = {r} may not "
                              f"exceed {_MAX_FILE_N} and {_MAX_FILE_R}")
        edges = payload.get("edges")
        if not isinstance(edges, list):
            raise FormatError("edges must be a list")
        canon = []
        try:
            _check_sizes(r, n)
            for e in edges:
                if not _is_int_list(e):
                    raise ValueError(f"edge {_shown(e)} must be a list of "
                                     f"integers")
                t = tuple(e)
                if _canonical_edge(t, r, n) != t:
                    raise ValueError(f"edge {_shown(e)} is not sorted "
                                     f"ascending")
                canon.append(t)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        edge_set = frozenset(canon)
        if len(edge_set) < len(canon):
            seen = set()
            for e, t in zip(edges, canon):
                if t in seen:
                    raise FormatError(f"duplicate edge {_shown(e)}")
                seen.add(t)
        return Hypergraph.trusted(r, n, edge_set)
    if kind == "feq2":
        objects = _expect_int(payload.get("objects"), "objects")
        parameters = _expect_int(payload.get("parameters"), "parameters")
        if objects > _MAX_FILE_OBJECTS or parameters > _MAX_FILE_PARAMETERS:
            raise FormatError(
                f"{objects} objects and {parameters} parameters may not "
                f"exceed {_MAX_FILE_OBJECTS} and {_MAX_FILE_PARAMETERS}")
        classes = payload.get("classes")
        if not isinstance(classes, list):
            raise FormatError("classes must be a list")
        try:
            _check_counts(objects, parameters, len(classes))
            mates = tuple(_mates(objects, z, b) for z, b in enumerate(classes))
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        return Feq2Structure.trusted(objects, parameters, mates)
    raise FormatError(f"unknown structure kind {_shown(kind)}")


def _mates(objects: int, z: int, blocks) -> tuple[int, ...]:
    """Parameter z's blocks as its mate involution, or Feq2Structure's
    refusal: (objects + 1) // 2 blocks of one or two objects, each in range
    and in no other block, leaving none out (no -1), are an involution."""
    if not isinstance(blocks, list) or not all(map(_is_int_list, blocks)):
        raise FormatError(f"parameter {z}: each block must be a list of "
                          f"integers")
    mate = [-1] * objects
    for b in blocks:
        x, y = (b[0], b[-1]) if b else (-1, -1)
        if len(b) != 1 + (x != y) or not all(
                0 <= v < objects and mate[v] == -1 for v in b):
            raise ValueError(_UNPAIRED.format(z, objects))
        mate[x], mate[y] = y, x
    if len(blocks) != (objects + 1) // 2 or -1 in mate:
        raise ValueError(_UNPAIRED.format(z, objects))
    return tuple(mate)


# Weights-file caps, checked before anything is built: colouring keeps a
# list per vertex and a colour per vertex, and the guarantee computes r^r.
_MAX_WEIGHTED_N = 10_000
_MAX_WEIGHTED_R = 8


def weighted_to_json(h: WeightedHypergraph) -> dict:
    den = h.den
    return {"kind": "weighted-hypergraph", "n": h.n, "r": h.r,
            "weights": [[list(key), {"num": w // g, "den": den // g}]
                        for key, w in h.weights for g in (gcd(w, den),)]}


def weighted_from_json(payload: dict) -> WeightedHypergraph:
    """A weights file of kind weighted-hypergraph, its sizes under the caps,
    read as integer pairs num/den and held as integers over D, the lcm of
    their denominators in lowest terms (weighted_hypergraph): the first
    entry past the cap of WRITABLE is named."""
    if not isinstance(payload, dict):
        raise FormatError("weighted hypergraph payload must be an object")
    kind = payload.get("kind")
    if kind != "weighted-hypergraph":
        raise FormatError(f"unknown weights kind {_shown(kind)}: a weights "
                          f"file is of kind 'weighted-hypergraph'")
    n = _expect_int(payload.get("n"), "n")
    r = _expect_int(payload.get("r"), "r")
    if n > _MAX_WEIGHTED_N or r > _MAX_WEIGHTED_R:
        raise FormatError(f"weighted hypergraph n = {n} and r = {r} may "
                          f"not exceed {_MAX_WEIGHTED_N} and "
                          f"{_MAX_WEIGHTED_R}")
    raw = payload.get("weights")
    if not isinstance(raw, list):
        raise FormatError("weights must be a list")
    try:
        return weighted_hypergraph(n, r, map(_weight_entry, raw))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _weight_entry(entry) -> tuple[list[int], int, int]:
    """A weights-file entry [key, {"num", "den"}] as the integers
    (key, num, den), den != 0, unreduced; weighted_hypergraph reduces."""
    if not isinstance(entry, list) or len(entry) != 2:
        raise FormatError(f"weight entry {_shown(entry)} must be "
                          f"[key, rational]")
    key, w = entry
    if not _is_int_list(key):
        raise FormatError(f"weight key {_shown(key)} must be a list of "
                          f"integers")
    if not isinstance(w, dict) or "num" not in w or "den" not in w:
        raise FormatError(f"not a rational: {_shown(w)}")
    num, den = w["num"], w["den"]
    if not _is_int(num) or not _is_int(den) or den == 0:
        raise FormatError(f"not a rational: {_shown(w)}")
    return key, num, den


# ---------------------------------------------------------------------------
# Canonical bytes, digests and atomic writes
# ---------------------------------------------------------------------------

def canonical_dumps(payload) -> str:
    """Stable human-readable JSON: sorted keys, two-space indent.

    The bytes are those of json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n", written in one recursive pass instead of
    the standard library's pure-Python indenting encoder.  Payloads hold
    dicts with str keys, lists, tuples, str, int, float, bool and None;
    any other key or value raises TypeError.  An edge list from
    structure_to_json is cut from its compact text, not formatted again
    (_indent_rows).
    """
    parts: list[str] = []
    _encode(payload, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


_INF = float("inf")
_INT = {int}
_SEQUENCES = {list, tuple}


def _float(value: float) -> str:
    # json's rule: repr, with NaN and the infinities spelled as JavaScript
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _encode(value, nl: str, emit) -> None:
    # nl is a newline plus the indent of the line value starts on; the
    # checks run in json's order, so a bool is never written as an int
    if isinstance(value, str):
        emit(_string(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        emit(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        if type(value) is _Rows:
            _indent_rows(value.pieces, nl, emit)
            return
        inner = nl + "  "
        kinds = set(map(type, value))
        if kinds == _INT:
            emit("[" + inner + ("," + inner).join(map(int.__repr__, value))
                 + nl + "]")
            return
        if kinds <= _SEQUENCES:
            widths = set(map(len, value))
            if (len(widths) == 1 and set(map(
                    type, itertools.chain.from_iterable(value))) == _INT):
                # equal-length int lists, such as a parsed edge list: one
                # "%d" template per item, filled in a single format
                row = ("[" + ",".join([inner + "  %d"] * widths.pop())
                       + inner + "]")
                # the brackets are parts of their own, so the formatted
                # rows are never copied into a longer string
                template = ("," + inner).join([row] * len(value))
                emit("[" + inner)
                emit(template % tuple(itertools.chain.from_iterable(value)))
                emit(nl + "]")
                return
        sep = "[" + inner
        for item in value:
            emit(sep)
            _encode(item, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got "
                                f"{type(key).__name__} {key!r}")
            emit(sep + _string(key) + ": ")
            _encode(value[key], inner, emit)
            sep = "," + inner
        emit(nl + "}")
    else:
        raise TypeError(f"cannot write a {type(value).__name__} "
                        f"into a report")


def _indent_rows(pieces, nl: str, emit) -> None:
    # a _Rows' compact text, indented as _encode indents int rows: the two
    # differ only in the whitespace after "[" and "," and before "]", so
    # each piece "[a,b],[c,d]" takes three replaces inside its outer
    # brackets, "],[" to a NUL, "," to "," plus the item indent, and the
    # NUL to the indented row break, which also joins the pieces
    inner = nl + "  "
    item = inner + "  "
    row_break = inner + "]," + inner + "[" + item
    sep = "[" + inner + "[" + item
    for piece in pieces:
        emit(sep)
        emit(piece[1:-1].replace("],[", "\0").replace(",", "," + item)
             .replace("\0", row_break))
        sep = row_break
    emit(inner + "]" + nl + "]")


def digest(payload) -> str:
    """sha256 over compact sorted-key JSON.

    The bytes hashed are those of json.dumps(payload, sort_keys=True,
    separators=(",", ":"), ensure_ascii=True), fed to the hash piece by
    piece so that no text or token list of a whole edge list is built: a
    dict with str keys is walked in sorted key order, an edge list from
    structure_to_json is hashed from the pieces of compact text it
    carries, with no encoder, a list or tuple of more than _SLICE items is
    encoded _SLICE items at a time, and every other value is encoded whole
    by json's C encoder.
    """
    h = sha256()
    _hash(payload, h.update)
    return "sha256:" + h.hexdigest()


def __getattr__(name):
    # bench/layers.py swaps serialize.hashlib for a counting stand-in while
    # it traces; the module is imported only when that name is read
    if name == "hashlib":
        import hashlib
        return hashlib
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_SLICE = 1024
# the characters a piece of an edge list's text reaches before it is cut
# (at the end of its rows of one (a, b)), and those of a report that
# atomic_write_text writes at a time
_PIECE = 1 << 16
# json.dumps with digest's arguments, its encoder built once
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=True).encode


def _hash(value, update) -> None:
    # an empty dict, or one with a key of another type, is left to json,
    # which sorts the keys before it converts them to str
    if (isinstance(value, dict) and value
            and all(isinstance(key, str) for key in value)):
        sep = b"{"
        for key in sorted(value):
            update(sep + _string(key).encode() + b":")
            _hash(value[key], update)
            sep = b","
        update(b"}")
    elif type(value) is _Rows:
        _hash_pieces(value.pieces, update)
    elif isinstance(value, (list, tuple)) and len(value) > _SLICE:
        _hash_pieces(_compact_pieces(value), update)
    else:
        update(_compact(value).encode())


def _hash_pieces(pieces, update) -> None:
    # a list's compact text from the texts of its items, piece by piece
    update(b"[")
    sep = b""
    for piece in pieces:
        update(sep)
        update(piece.encode())
        sep = b","
    update(b"]")


def _compact_pieces(items):
    # the compact texts of a list's items, _SLICE items at a time, each
    # without the brackets of its slice
    for start in range(0, len(items), _SLICE):
        yield _compact(items[start:start + _SLICE])[1:-1]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temporary file in the target directory plus rename, so a
    process that crashes mid-write never leaves a half-written report.
    The file is made under a random name as mkstemp does, without its
    import of tempfile and shutil, and fsynced before the rename and its
    directory after, so a written report also survives a power loss.
    The text is written _PIECE characters at a time, so that no encoded
    copy of the whole report is made."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.json")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for start in range(0, len(text), _PIECE):
                handle.write(text[start:start + _PIECE])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    except ValueError:
        # int() refuses an integer of more than sys.get_int_max_str_digits()
        # digits, and its message names an interpreter setting
        raise FormatError(f"{path}: invalid JSON (an integer too long to "
                          f"read)") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def load_structure(path: str) -> Storable:
    return structure_from_json(load_json(path))


def load_weighted(path: str) -> WeightedHypergraph:
    return weighted_from_json(load_json(path))


# ---------------------------------------------------------------------------
# Inline structure specs (generator mini-syntax)
# ---------------------------------------------------------------------------

# each generator's fields after its head, in spec order: "seed" is read
# as seed=<int>, "distances" as a comma list, every other field as an int
_SPEC_FIELDS = {
    "gen": ("n", "r", "s", "seed"),
    "circulant": ("n", "distances"),
    "searchalpha": ("n", "s", "target", "budget", "seed"),
    "tp2grid": ("k",),
}

# Size caps checked before anything is built.  verify re-resolves whatever
# spec a report names, so a mistaken or tampered spec must fail fast
# instead of exhausting memory.  build_tp2_grid checks its own k.
_SPEC_CAPS = {
    "gen": {"n": 10_000},  # keeps computing C(n, r) itself cheap
    "circulant": {"n": 1_000},  # a circulant graph has up to n^2 / 2 edges
    "searchalpha": {"n": 40, "budget": 1_000},  # budget alpha_s searches
}
# r * C(n, r), the vertex entries of the candidate r-sets that gen
# shuffles and scans: held as r-tuples on the generic path, and as one
# 4-byte code each at (r, s) = (2, 3) and (3, 4)
_MAX_GEN_ENTRIES = 10 ** 6


def parse_int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers; empty items are skipped."""
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise FormatError(f"{what} needs comma-separated integers, "
                          f"got {_shown(text)}") from None


def _parse_field(name: str, text: str, spec: str) -> Union[int, list[int]]:
    if name == "distances":
        return parse_int_list(text, _shown(spec))
    if name == "seed":
        if not text.startswith("seed="):
            raise FormatError(f"{_shown(spec)}: expected seed=<int>, got "
                              f"{_shown(text)}")
        text = text[len("seed="):]
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad numeric field {name} in "
                          f"{_shown(spec)}") from None


def parse_spec_fields(spec: str) -> tuple[str, dict]:
    """A structure spec's head and its fields by name, each parsed once;
    a structure file is ("file", {"path": path})."""
    head, colon, rest = spec.partition(":")
    names = _SPEC_FIELDS.get(head) if colon else None
    if names is None:
        return "file", {"path": rest if head == "file" and colon else spec}
    values = rest.split(":")
    if len(values) != len(names):
        raise FormatError(f"{head} spec needs {head}:{':'.join(names)}, "
                          f"got {_shown(spec)}")
    return head, {name: _parse_field(name, text, spec)
                  for name, text in zip(names, values)}


def parse_structure_spec(spec: str) -> Storable:
    """Resolve an inline structure spec.

    Forms: gen:<n>:<r>:<s>:seed=<k> for a random maximal free hypergraph,
    circulant:<n>:<d1>,<d2>,... for a circulant graph,
    searchalpha:<n>:<s>:<target>:<budget>:seed=<k> for the alpha search,
    tp2grid:<k> for the path-parameter grid structure,
    and file:<path> (or a bare path) for a structure file.
    """
    head, f = parse_spec_fields(spec)
    if head == "file":
        if not os.path.exists(f["path"]):
            raise FormatError(f"no such structure file: {f['path']}")
        return load_structure(f["path"])
    for name, cap in _SPEC_CAPS.get(head, {}).items():
        if f[name] > cap:
            raise FormatError(f"{_shown(spec)}: {name} may not exceed {cap}")
    if head == "gen" and min(f["n"], f["r"]) >= 0:
        entries = f["r"] * comb(f["n"], f["r"])
        if entries > _MAX_GEN_ENTRIES:
            raise FormatError(f"{_shown(spec)}: r * C(n, r) = {entries} "
                              f"candidate entries exceed {_MAX_GEN_ENTRIES}")
    try:
        if head == "gen":
            return random_maximal_free(f["n"], f["r"], f["s"], f["seed"])
        if head == "circulant":
            return cyclic_graph(f["n"], f["distances"])
        if head == "tp2grid":
            return build_tp2_grid(f["k"])
        result = search_small_alpha(f["n"], f["s"], f["target"],
                                    budget=f["budget"], seed=f["seed"])
    except ValueError as exc:
        raise FormatError(f"{_shown(spec)}: {exc}") from None
    if not result.found:
        raise FormatError(
            f"{_shown(spec)}: no graph with alpha <= {f['target']} found "
            f"(best was {result.alpha})")
    return result.graph
