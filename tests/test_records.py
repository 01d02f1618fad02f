"""Records behave as the frozen dataclasses they replace.

Each check compares a `record` class with a `dataclasses.dataclass(frozen=True)`
twin of the same name, fields and defaults.  The package's one remaining
dataclass is the convergence certificate.  A count guard holds what a record
costs at import: a class of a shape already in use compiles nothing.
"""

from __future__ import annotations

import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import random
from collections import namedtuple

import pytest

import rieszkit
from rieszkit.convergence import ConvergenceCertificate
from rieszkit.records import record, replace
from rieszkit.spaces import FINDIM, Affine, Token, gamma, tail_seq


def _twins(order: bool = False):
    """A record and a dataclass, both named Pair, with one defaulted field."""

    def body():
        return {"__annotations__": {"a": "int", "b": "tuple"}, "b": ()}

    rec = record(order=order)(type("Pair", (), body()))
    dc = dataclasses.dataclass(frozen=True, order=order)(type("Pair", (), body()))
    return rec, dc


# field names that are the placeholders a record's methods are compiled over,
# out of place, or names those methods use themselves
WIDE = ("_1", "hash", "_0", "other", "_set", "self_", *(f"f{i}" for i in range(6, 12)))


def _wide_twins(size: int, order: bool = False):
    """A record and a dataclass named Wide over the first `size` names of
    WIDE, the last one defaulted to -1."""
    names = WIDE[:size]

    def body():
        return {"__annotations__": dict.fromkeys(names, "int"), **dict.fromkeys(names[-1:], -1)}

    rec = record(order=order)(type("Wide", (), body()))
    dc = dataclasses.dataclass(frozen=True, order=order)(type("Wide", (), body()))
    return rec, dc


def _generated(order: bool) -> list:
    return ["__init__", "__eq__", "__hash__", *(("__lt__", "__le__", "__gt__", "__ge__")
                                              if order else ())]


@pytest.mark.parametrize("size, order", [(0, False), (1, False), (3, False), (3, True),
                                         (12, False)])
def test_records_of_every_width_match_the_dataclass(size, order):
    rec, dc = _wide_twins(size, order)
    assert _params(rec) == _params(dc) and rec.__match_args__ == dc.__match_args__
    assert [getattr(rec, m).__qualname__ for m in _generated(order)] == \
        [getattr(dc, m).__qualname__ for m in _generated(order)] == \
        [f"Wide.{m}" for m in _generated(order)]
    rng = random.Random(size)
    rows = [tuple(rng.randint(0, 2) for _ in range(size)) for _ in range(12)]
    rows += [row[:-1] for row in rows[:3]]  # the default fills the last field
    for x in rows:
        r, d = rec(*x), dc(*x)
        assert repr(r) == repr(d) and hash(r) == hash(d)
        assert [getattr(r, n) for n in rec._fields] == [getattr(d, n) for n in rec._fields]
        assert r == rec(**{n: getattr(d, n) for n in rec._fields}) and r != d
        for y in rows:
            assert (r == rec(*y)) == (d == dc(*y))
            if order:
                for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                    assert getattr(r, op)(rec(*y)) == getattr(d, op)(dc(*y))
        for n in rec._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field {n!r}"):
                setattr(r, n, 0)
    with pytest.raises(TypeError):
        rec(*range(size + 1))


def test_a_shape_in_use_compiles_nothing_and_a_new_shape_compiles_once(monkeypatch):
    calls = []
    for name in ("compile", "exec"):
        def counted(*args, _real=getattr(builtins, name), **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(builtins, name, counted)

    def fresh(size, order=False):
        body = {"__annotations__": {f"x{i}": "int" for i in range(size)}}
        return record(order=order)(type("Fresh", (), body))

    # the shapes of Element, Affine and Token
    pair, triple, ordered = fresh(2), fresh(3), fresh(2, order=True)
    assert calls == []
    assert pair(1, 2) == pair(1, 2) != pair(2, 1) and hash(triple(1, 2, 3)) == hash((1, 2, 3))
    assert ordered(1, 2) < ordered(1, 3) and repr(ordered(1, 2)) == "Fresh(x0=1, x1=2)"
    for _ in range(3):
        fresh(17, order=True)
    assert len(calls) <= 1


def test_an_own_eq_without_hash_hashes_the_fields_as_the_dataclass_does():
    def eq_only(decorate):
        @decorate
        class Pair:
            a: int
            b: int

            def __eq__(self, other):
                return self.a == other.a

        return Pair

    rec, dc = eq_only(record), eq_only(dataclasses.dataclass(frozen=True))
    assert hash(rec(1, 2)) == hash(dc(1, 2)) == hash((1, 2))
    assert rec(1, 2) == rec(1, 3) and dc(1, 2) == dc(1, 3)

    def no_hash(decorate):  # an own `__hash__ = None` without an own __eq__ stays
        return decorate(type("Pair", (), {"__annotations__": {"a": "int"}, "__hash__": None}))

    for cls in (no_hash(record), no_hash(dataclasses.dataclass(frozen=True))):
        with pytest.raises(TypeError, match="unhashable"):
            hash(cls(1))


def test_a_field_without_default_after_a_defaulted_one_is_refused_as_by_the_dataclass():
    def body():
        return {"__annotations__": {"a": "int", "b": "int"}, "a": 0}

    for decorate in (record, dataclasses.dataclass(frozen=True)):
        with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
            decorate(type("Pair", (), body()))


def test_construction_repr_and_match_args_match_the_dataclass():
    rec, dc = _twins()
    for args, kwargs in [((1,), {}), ((1, (2,)), {}), ((), {"a": 1, "b": (3,)}),
                         ((1,), {"b": "x"})]:
        r, d = rec(*args, **kwargs), dc(*args, **kwargs)
        assert (r.a, r.b) == (d.a, d.b)
        assert repr(r) == repr(d)
    assert rec.__match_args__ == dc.__match_args__ == ("a", "b")
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"c": 2}), ((1,), {"a": 2})]:
        with pytest.raises(TypeError):
            dc(*args, **kwargs)
        with pytest.raises(TypeError):
            rec(*args, **kwargs)
    match rec(5, (6,)):
        case rec(a, b):
            assert (a, b) == (5, (6,))


def test_equality_and_hash_match_the_dataclass():
    rec, dc = _twins()
    other_rec, _ = _twins()
    values = [(1, ()), (1, (2,)), (2, ()), (1.0, ())]
    for x in values:
        for y in values:
            assert (rec(*x) == rec(*y)) == (dc(*x) == dc(*y))
            assert (rec(*x) != rec(*y)) == (dc(*x) != dc(*y))
        assert hash(rec(*x)) == hash(dc(*x)) == hash(x)
        # instances of another class never compare equal, whatever the fields
        assert rec(*x) != dc(*x) and rec(*x) != other_rec(*x) and rec(*x) != x
        assert rec(*x).__eq__(x) is NotImplemented
    assert len({rec(1), rec(1, ()), rec(2)}) == 2


def test_fields_are_frozen_like_the_dataclass():
    rec, dc = _twins()
    for obj in (rec(1), dc(1)):
        with pytest.raises(AttributeError, match="cannot assign to field 'a'"):
            obj.a = 2
        with pytest.raises(AttributeError, match="cannot assign to field 'c'"):
            obj.c = 2
        with pytest.raises(AttributeError, match="cannot delete field 'b'"):
            del obj.b
        assert obj.a == 1


def test_ordering_matches_the_dataclass_and_token_sorts_as_before():
    rec, dc = _twins(order=True)
    rng = random.Random(7)
    pairs = [(rng.randint(0, 3), (rng.randint(0, 2),)) for _ in range(40)]
    assert [(r.a, r.b) for r in sorted(rec(*p) for p in pairs)] == \
        [(d.a, d.b) for d in sorted(dc(*p) for p in pairs)]
    for x in pairs[:8]:
        for y in pairs[:8]:
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(rec(*x), op)(rec(*y)) == getattr(dc(*x), op)(dc(*y))
    with pytest.raises(TypeError):
        rec(1) < dc(1)
    plain, _ = _twins()
    with pytest.raises(TypeError):
        plain(1) < plain(2)

    tokens = [Token(rng.choice(("g", "star")), rng.randint(1, 9)) for _ in range(50)]
    assert sorted(tokens) == sorted(tokens, key=lambda t: (t.family, t.k))
    assert gamma(2) < gamma(10) < Token("star", 1)


def test_replace_matches_dataclasses_replace():
    rec, dc = _twins()
    for changes in [{}, {"a": 9}, {"b": (1,)}, {"a": 0, "b": "y"}]:
        r, d = replace(rec(1, (2,)), **changes), dataclasses.replace(dc(1, (2,)), **changes)
        assert type(r) is rec and (r.a, r.b) == (d.a, d.b)
    with pytest.raises(TypeError):
        replace(rec(1), c=2)
    with pytest.raises(TypeError):
        dataclasses.replace(dc(1), c=2)


def test_methods_the_class_defines_are_kept():
    assert vars(Affine)["__repr__"].__qualname__ == "Affine.__repr__"
    assert repr(Affine(1, 2, 3)) != "Affine(p=1, q=2, d=3)"
    assert vars(Token)["__hash__"].__qualname__ == "Token.__hash__"
    assert hash(Token("g", 5)) == hash(Token("star", 5)) == 5 != hash(("g", 5))
    assert repr(FINDIM) == "KindRow('findim(n)')"
    assert repr(tail_seq()) == "SpaceDesc(row=KindRow('l0inf'), dim=0)"
    assert str(gamma(3)) == "g(3)" and repr(gamma(3)) == "Token(family='g', k=3)"


def _package_classes():
    for info in pkgutil.iter_modules(rieszkit.__path__):
        mod = importlib.import_module(f"rieszkit.{info.name}")
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                yield obj


def _params(cls) -> list:
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def _is_record(cls) -> bool:
    """Whether `record` made the class: the marker it sets, in the class's
    own namespace, so neither a namedtuple nor a record's subclass counts."""
    return vars(cls).get("_record") is True


def test_a_record_is_told_by_its_marker_not_by_its_fields():
    rec, dc = _twins()
    tok = namedtuple("Tok", "kind text")
    assert _is_record(rec) and "_fields" in vars(tok)
    assert not any(map(_is_record, [dc, tok, type("Sub", (rec,), {})]))


def test_every_record_has_the_signature_of_its_dataclass_twin():
    records = [cls for cls in _package_classes() if _is_record(cls)]
    assert {"Element", "SpaceDesc", "Token", "ElementSeq", "Operator", "Report"} <= \
        {cls.__name__ for cls in records}
    for cls in records:
        body = {n: vars(cls)[n] for n in cls._fields if n in vars(cls)}
        twin = dataclasses.dataclass(frozen=True)(
            type(cls.__name__, (), {"__annotations__": cls.__annotations__, **body}))
        assert _params(cls) == _params(twin), cls.__name__
        assert cls.__match_args__ == twin.__match_args__
        for m in set(_generated(order=True)) & set(vars(cls)):
            assert vars(cls)[m].__qualname__ == f"{cls.__qualname__}.{m}"


def test_the_certificate_is_the_only_dataclass():
    dcs = [cls.__name__ for cls in _package_classes() if hasattr(cls, "__dataclass_fields__")]
    assert dcs == ["ConvergenceCertificate"]
    cert = ConvergenceCertificate(verdict="converges", space=tail_seq())
    varied = dataclasses.replace(cert, verdict="diverges", n0=3)
    assert (varied.verdict, varied.n0, varied.space) == ("diverges", 3, cert.space)
