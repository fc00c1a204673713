"""Immutable value records, built without the standard library's
data-class decorator.

`Record` gives a subclass the methods that a frozen data class would
have: the annotated names are the fields, in order, and a class attribute
of the same name is the field's default.  `__init__` takes the fields
positionally or by keyword and then calls `__post_init__` if the class
has one.  `==` and `hash` use the tuple of field values, so hashes, and
with them the iteration order of sets and dicts, are the ones a frozen
data class gives.  `repr` is `QualName(field=value, ...)`, and assigning
or deleting an attribute raises `FrozenRecordError`.  Instances keep a
`__dict__`, so `functools.cached_property` and `object.__setattr__` work
on them.

The decorator compiles its generated methods with `exec` at every import,
and its module pulls in `inspect`; for the package's 26 records that was
more than half of the package's import time.  Here every method comes
from code compiled once into the `.pyc`: closures built per class in
`__init_subclass__`.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a Record."""


class Record:
    """Base class of frozen value records; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        fields = tuple(dict.fromkeys((*cls._fields, *own)))
        defaults = {**cls._defaults,
                    **{name: cls.__dict__[name] for name in own
                       if name in cls.__dict__}}
        cls._fields = fields
        cls._defaults = defaults
        cls.__init__ = _make_init(cls, fields,
                                  getattr(cls, "__post_init__", None))
        cls.__eq__, cls.__hash__ = _make_eq_hash(fields)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


def _bind(cls, args: tuple, kwargs: dict) -> list:
    # the field values of a call that is not exactly one positional
    # argument per field: keywords, defaults, and the TypeErrors Python
    # raises for a signature with the fields as parameters
    fields, defaults = cls._fields, cls._defaults
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(fields):
        raise TypeError(f"{where} takes {len(fields) + 1} positional "
                        f"arguments but {len(args) + 1} were given")
    for name in kwargs:
        if name not in fields:
            raise TypeError(f"{where} got an unexpected keyword argument "
                            f"{name!r}")
        if fields.index(name) < len(args):
            raise TypeError(f"{where} got multiple values for argument "
                            f"{name!r}")
    values = list(args)
    for name in fields[len(args):]:
        if name in kwargs:
            values.append(kwargs[name])
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{where} missing required argument {name!r}")
    return values


def _make_init(cls, fields: tuple[str, ...], post):
    # one positional argument per field is the fast path; anything else
    # goes through _bind
    n = len(fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        if post is not None:
            post(self)
    return __init__


def _make_eq_hash(fields: tuple[str, ...]):
    # the key is always a tuple, a 1-tuple for one field, so that the
    # hash is a frozen data class's and a field that is not equal to
    # itself (NaN) still compares equal by identity
    get = attrgetter(*fields) if fields else lambda self: ()
    key = (lambda self: (get(self),)) if len(fields) == 1 else get

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__
