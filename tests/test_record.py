"""Record behaves like the frozen dataclass it replaced.

Each record shape below is built twice: as a Record subclass and as a
stdlib `@dataclass(frozen=True)` twin with the same name, fields,
defaults and `__post_init__`.  A `hypothesis` differential test then
constructs both from the same arguments and compares every observable:
the exception type or the fields, `repr`, `==`, `!=` and `hash`.
"""

import dataclasses
import math
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fresh_import
from keisler_lab._record import FrozenRecordError, Record

_MISSING = object()


def _validate(self):
    # the shape of the package's validating __post_init__ methods
    if self.a is None or isinstance(self.a, int) and self.a < 0:
        raise ValueError("a must be set and nonnegative")


# name -> (fields, {field: default}, validating?)
SHAPES = {
    "One": (("a",), {}, False),
    "Two": (("a", "b"), {}, False),
    "Three": (("a", "b", "c"), {}, False),
    "OneChecked": (("a",), {}, True),
    "TwoDefault": (("a", "b"), {"b": 7}, False),
    "ThreeDefaults": (("a", "b", "c"), {"b": None, "c": "z"}, True),
    "TwoCallableDefault": (("a", "b"), {"b": list}, False),
}


def _record(name, fields, defaults, checked):
    namespace = {"__annotations__": {f: "object" for f in fields},
                 "__qualname__": name, **defaults}
    if checked:
        namespace["__post_init__"] = _validate
    return type(name, (Record,), namespace)


def _twin(name, fields, defaults, checked):
    spec = []
    for f in fields:
        default = defaults.get(f, _MISSING)
        if default is _MISSING:
            spec.append((f, object))
        else:
            spec.append((f, object, default))
    namespace = {"__post_init__": _validate} if checked else {}
    return dataclasses.make_dataclass(name, spec, frozen=True,
                                      namespace=namespace)


PAIRS = {name: (_record(name, *shape), _twin(name, *shape))
         for name, shape in SHAPES.items()}

values = st.one_of(
    st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=2),
    st.floats(allow_nan=True), st.tuples(st.integers(0, 2)),
    st.frozensets(st.integers(0, 2), max_size=2),
    st.lists(st.integers(0, 2), max_size=2))  # unhashable


@st.composite
def calls(draw, fields):
    """Arguments for a constructor with these fields: a value per field,
    the first k positional and the rest by keyword, then at times one
    mistake (a field left out, one positional too many, an unknown
    keyword, a field given twice)."""
    given = draw(st.lists(values, min_size=len(fields),
                          max_size=len(fields)))
    k = draw(st.integers(0, len(fields)))
    args, kwargs = given[:k], dict(zip(fields[k:], given[k:]))
    mistake = draw(st.sampled_from((None, None, "leave-out", "extra",
                                    "unknown", "twice")))
    if mistake == "leave-out":
        if kwargs:
            del kwargs[draw(st.sampled_from(sorted(kwargs)))]
        elif args:
            args.pop()
    elif mistake == "extra":
        args.append(draw(values))
    elif mistake == "unknown":
        kwargs["d"] = draw(values)
    elif mistake == "twice":
        kwargs[fields[0]] = draw(values)
    return args, kwargs


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raises", type(exc)


def _build(cls, call):
    args, kwargs = call
    return _outcome(lambda: cls(*args, **kwargs))


DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=100,
                        deadline=None)


@pytest.mark.parametrize("name", sorted(PAIRS))
@DIFFERENTIAL
@given(st.data())
def test_record_matches_its_dataclass_twin(name, data):
    record, twin = PAIRS[name]
    first = data.draw(calls(SHAPES[name][0]))
    second = data.draw(calls(SHAPES[name][0]))
    built = [_build(record, first), _build(record, second)]
    twins = [_build(twin, first), _build(twin, second)]
    for (kind, got), (twin_kind, expected) in zip(built, twins):
        assert kind == twin_kind
        if kind == "raises":
            assert got is expected
            continue
        for f in dataclasses.fields(twin):
            mine, theirs = getattr(got, f.name), getattr(expected, f.name)
            assert mine is theirs or mine == theirs  # NaN is itself only
        assert repr(got) == repr(expected)
        assert _outcome(hash, got) == _outcome(hash, expected)
    if all(kind == "ok" for kind, _ in built + twins):
        (_, r1), (_, r2) = built
        (_, t1), (_, t2) = twins
        assert (r1 == r2) == (t1 == t2)
        assert (r1 != r2) == (t1 != t2)
        assert (r1 == r1) == (t1 == t1)
        assert r1 != t1 and not r1 == t1  # other classes never compare equal


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_assignment_and_deletion_raise(name):
    record, twin = PAIRS[name]
    fields = record._fields
    for cls, error in ((record, FrozenRecordError),
                       (twin, dataclasses.FrozenInstanceError)):
        obj = cls(*range(len(fields)))
        for attr in (*fields, "other"):
            with pytest.raises(error):
                setattr(obj, attr, 1)
            with pytest.raises(error):
                delattr(obj, attr)
        assert issubclass(error, AttributeError)
        assert tuple(getattr(obj, f) for f in fields) == tuple(
            range(len(fields)))


def test_callable_default_is_not_called():
    class Holder(Record):
        make: object = list
    assert Holder().make is list


def test_cached_property_caches():
    calls = []

    class Squares(Record):
        n: int

        @cached_property
        def table(self):
            calls.append(self.n)
            return tuple(i * i for i in range(self.n))
    squares = Squares(4)
    assert squares.table is squares.table == (0, 1, 4, 9)
    assert calls == [4]
    assert Squares(4) == squares and hash(Squares(4)) == hash(squares)


def test_hashes_match_the_tuple_of_fields():
    # the hash a frozen dataclass gives, so set and dict order stay put
    record, _ = PAIRS["Three"]
    assert hash(record(1, "x", None)) == hash((1, "x", None))
    one, _ = PAIRS["One"]
    assert hash(one(5)) == hash((5,))
    nan = math.nan
    assert one(nan) == one(nan) and one(nan) != one(float("nan"))


def test_cli_import_leaves_dataclasses_and_inspect_out():
    """Start-up guard: importing the CLI must not load the data-class
    decorator's module or inspect, which cost most of the import time
    before records were built on Record."""
    assert fresh_import(
        "import sys, keisler_lab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") \
        == "[]"


def test_cli_run_leaves_hashlib_out():
    """Start-up guard: digest feeds the interpreter's own SHA-256, so a
    report, digests included, loads neither hashlib nor OpenSSL's
    libcrypto through _hashlib."""
    assert fresh_import(
        "import contextlib, io, sys, keisler_lab.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['gen', 'gen:8:3:4:seed=1']) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))") \
        == "[]"


def test_cli_run_leaves_tempfile_and_shutil_out(tmp_path):
    """Start-up guard: a report written to a file and verified loads
    neither tempfile nor shutil (which loads fnmatch, bz2 and lzma):
    atomic_write_text names its temporary file itself, and the CLI's help
    formatter reads the terminal's width only when it formats help."""
    out = str(tmp_path / "report.json")
    assert fresh_import(
        "import contextlib, io, sys, keisler_lab.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['gen', 'gen:8:3:4:seed=1', '--output', {out!r}]"
        ") == 0\n"
        f"    assert cli.run(['verify', {out!r}]) == 0\n"
        "print(sorted({'tempfile', 'shutil'} & set(sys.modules)))") == "[]"


def test_package_import_freezes_nothing():
    # only the process entry, cli.main(), freezes the collector's heap;
    # a library user who imports the package keeps every object collectable
    assert fresh_import("import gc, keisler_lab, keisler_lab.cli; "
                        "print(gc.get_freeze_count())") == "0"
