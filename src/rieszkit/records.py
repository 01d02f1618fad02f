"""Frozen value records.

`record` gives a class the methods `dataclasses.dataclass(frozen=True)`
would give it, with the same behaviour: an `__init__` over the annotated
fields (class attributes are the defaults), `Name(f=...)` reprs, equality
and hashing on the field tuple, assignment refused, `__match_args__`, and
with `order=True` the four comparisons.  `__init__`, `__hash__`, `__eq__`
and the comparisons are compiled once per shape (field count, `order`) over
the placeholder fields `_0, _1, ...`; each class gets copies of that code
with the placeholders renamed to its fields, so it runs the bytecode its
own source text would compile to, and a class of a shape already in use
compiles nothing.  `dataclass` compiles per method and imports `inspect`.
The cold `__repr__`, `__setattr__`, `__delattr__` and `__replace__` (for
`copy.replace`, as the dataclass has on Python 3.13) are shared and read
`_fields`.  Methods the class defines itself are kept.  `_fields` names the
fields and `_record` marks the class as made here: a namedtuple has
`_fields` too.  A class the dataclass would refuse (a mutable default, a
field without default after a defaulted one) is refused here too.

A record that declares `__dataclass_fields__ = DataclassFields()` is also
taken for a frozen dataclass by `dataclasses.fields`, `replace`, `asdict`
and `is_dataclass`.  The field table is built on its first read, from the
record's dataclass twin, so only a process that reads it imports
`dataclasses` (and with it `inspect`, `ast`, `dis` and `tokenize`).
"""

from __future__ import annotations

from functools import cache
from types import FunctionType

_ORDER = {"__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="}


class FrozenRecordError(AttributeError):
    """Raised when a field of a record is assigned or deleted."""


def _repr(self):
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


@cache
def _shape(size: int, order: bool) -> dict:
    """{method name: function} of a record with fields `_0`..`_{size-1}`."""
    ps = [f"_{i}" for i in range(size)]
    mine = "".join(f"self.{p}, " for p in ps)
    theirs = "".join(f"other.{p}, " for p in ps)
    src = [f"def __init__(self, {', '.join(ps)}):"]
    src += [f"    _set(self, {p!r}, {p})" for p in ps] + ["    return"]  # a body at size 0
    src += ["def __hash__(self):", f"    return hash(({mine}))"]
    for meth, op in [("__eq__", "==")] + (list(_ORDER.items()) if order else []):
        src += [f"def {meth}(self, other):",
                "    if other.__class__ is self.__class__:",
                f"        return ({mine}) {op} ({theirs})",
                "    return NotImplemented"]
    made = {}
    exec("\n".join(src), {"_set": object.__setattr__}, made)
    return made


def record(cls=None, /, *, order: bool = False):
    """Class decorator, as `@record` or `@record(order=True)`."""
    if cls is None:
        return lambda c: record(c, order=order)
    own = dict(cls.__dict__)
    if own.get("__hash__", 0) is None and "__eq__" in own:
        del own["__hash__"]  # Python's for an own __eq__: the dataclass hashes the fields
    names = tuple(own.get("__annotations__", ()))
    defaults = ()
    for n in names:
        if n in own:
            if own[n].__class__.__hash__ is None:  # the dataclass's test for mutability
                raise ValueError(f"mutable default {type(own[n])} for field {n} is not "
                                 "allowed: use default_factory")
            defaults += (own[n],)
        elif defaults:
            raise TypeError(f"non-default argument {n!r} follows default argument")
    to_field = {f"_{i}": n for i, n in enumerate(names)}
    if "self" in names:  # the instance parameter takes the name the dataclass gives it
        to_field["self"] = "__dataclass_self__"
    made = {"__match_args__": names, "_fields": names, "_record": True, "__replace__": replace,
            "__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    for meth, fn in _shape(len(names), order).items():
        code = fn.__code__
        code = code.replace(**{k: tuple(to_field.get(x, x) for x in getattr(code, k))
                               for k in ("co_varnames", "co_names", "co_consts")})
        made[meth] = FunctionType(code, fn.__globals__, meth,
                                  defaults if meth == "__init__" and defaults else None)
        made[meth].__qualname__ = f"{cls.__qualname__}.{meth}"
    for name, value in made.items():
        if name not in own:
            setattr(cls, name, value)
    return cls


def replace(obj, /, **changes):
    """A copy of the record `obj` with the given fields changed."""
    kwargs = {n: getattr(obj, n) for n in obj._fields}
    kwargs.update(changes)
    return obj.__class__(**kwargs)


class DataclassFields:
    """The `__dataclass_fields__` of a record, built on first read: the
    field table of the record's frozen-dataclass twin (same name, fields
    and defaults), which then replaces this descriptor on the class."""

    def __get__(self, obj, cls):
        import dataclasses

        own = vars(cls)
        body = {n: own[n] for n in cls._fields if n in own}
        twin = dataclasses.dataclass(frozen=True)(
            type(cls.__name__, (), {"__annotations__": cls.__annotations__, **body}))
        table = cls.__dataclass_fields__ = twin.__dataclass_fields__
        return table
