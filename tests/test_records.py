"""Records behave as the frozen dataclasses they replace.

Each check compares a `record` class with a `dataclasses.dataclass(frozen=True)`
twin of the same name, fields and defaults.  The package's one remaining
dataclass is the convergence certificate.
"""

from __future__ import annotations

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
from rieszkit.spaces import FINDIM, Token, gamma, tail_seq


def _twins(order: bool = False):
    """A record and a dataclass, both named Pair, with one defaulted field."""

    def body():
        return {"__annotations__": {"a": "int", "b": "tuple"}, "b": ()}

    rec = record(order=order)(type("Pair", (), body()))
    dc = dataclasses.dataclass(frozen=True, order=order)(type("Pair", (), body()))
    return rec, dc


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


def test_the_certificate_is_the_only_dataclass():
    dcs = [cls.__name__ for cls in _package_classes() if hasattr(cls, "__dataclass_fields__")]
    assert dcs == ["ConvergenceCertificate"]
    cert = ConvergenceCertificate(verdict="converges", space=tail_seq())
    varied = dataclasses.replace(cert, verdict="diverges", n0=3)
    assert (varied.verdict, varied.n0, varied.space) == ("diverges", 3, cert.space)
