"""Frozen value records.

`record` gives a class the methods `dataclasses.dataclass(frozen=True)`
would give it, with the same behaviour: an `__init__` over the annotated
fields (class attributes are the defaults), `Name(f=...)` reprs, equality
and hashing on the field tuple, assignment refused, `__match_args__`, and
with `order=True` the four comparisons.  It writes them as one source text
and runs one `exec` per class, where `dataclass` runs one per method and
imports `inspect`: that is most of what a dataclass costs at import.
Methods the class defines itself are kept.  `_fields` names the fields and
`_record` marks the class as made here: a namedtuple has `_fields` too.
"""

from __future__ import annotations

_ORDER = {"__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="}


class FrozenRecordError(AttributeError):
    """Raised when a field of a record is assigned or deleted."""


def record(cls=None, /, *, order: bool = False):
    """Class decorator, as `@record` or `@record(order=True)`."""
    if cls is None:
        return lambda c: record(c, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {"_set": object.__setattr__, "_Frozen": FrozenRecordError}
    params = []
    for n in names:
        if n in cls.__dict__:
            ns[f"_d_{n}"] = cls.__dict__[n]
            n = f"{n}=_d_{n}"
        params.append(n)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    fields = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    src = [f"def __init__(self, {', '.join(params)}):"]
    src += [f"    _set(self, {n!r}, {n})" for n in names]
    src += ["def __repr__(self):",
            f"    return f'{{self.__class__.__qualname__}}({fields})'",
            "def __hash__(self):",
            f"    return hash(({mine}))",
            "def __setattr__(self, name, value):",
            "    raise _Frozen(f'cannot assign to field {name!r}')",
            "def __delattr__(self, name):",
            "    raise _Frozen(f'cannot delete field {name!r}')"]
    for meth, op in [("__eq__", "==")] + (list(_ORDER.items()) if order else []):
        src += [f"def {meth}(self, other):",
                "    if other.__class__ is self.__class__:",
                f"        return ({mine}) {op} ({theirs})",
                "    return NotImplemented"]
    made = {"__match_args__": names, "_fields": names, "_record": True}
    exec("\n".join(src), ns, made)
    for name, value in made.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    return cls


def replace(obj, /, **changes):
    """A copy of the record `obj` with the given fields changed."""
    kwargs = {n: getattr(obj, n) for n in obj._fields}
    kwargs.update(changes)
    return obj.__class__(**kwargs)
