"""Records behave as the frozen dataclasses they replace.

Each check compares a `record` class with a `dataclasses.dataclass(frozen=True)`
twin of the same name, fields and defaults.  The convergence certificate is
a record that dataclasses' introspection also reads as the frozen dataclass
it was, and `import rieszkit.cli` imports no `dataclasses`.  A count guard
holds what a record costs at import: a class of a shape already in use
compiles nothing.
"""

from __future__ import annotations

import builtins
import copy
import dataclasses
import importlib
import inspect
import pkgutil
import random
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import rieszkit
from rieszkit.convergence import ConvergenceCertificate, decide_order_convergence
from rieszkit.elements import atom, element_tail
from rieszkit.records import DataclassFields, FrozenRecordError, record, replace
from rieszkit.scalars import Q, RationalSeq
from rieszkit.sequences import element_seq
from rieszkit.spaces import FINDIM, Affine, Token, gamma, seq_form, tail_seq


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


@pytest.mark.parametrize("default", [[], {}, set()])
def test_a_mutable_default_is_refused_as_by_the_dataclass(default):
    def body():
        return {"__annotations__": {"a": "int", "b": "int"}, "a": 0, "b": default}

    for decorate in (record, dataclasses.dataclass(frozen=True)):
        with pytest.raises(ValueError) as refused:
            decorate(type("Pair", (), body()))
        assert str(refused.value) == (f"mutable default {type(default)} for field b is not "
                                      "allowed: use default_factory")


def test_a_field_named_self_is_set_by_keyword_as_by_the_dataclass():
    def body():
        return {"__annotations__": {"self": "int", "other": "int"}, "other": 0}

    rec = record(type("Pair", (), body()))
    dc = dataclasses.dataclass(frozen=True)(type("Pair", (), body()))
    for x in [{"self": 3}, {"self": 3, "other": 4}, {"other": 4, "self": 3}]:
        assert repr(rec(**x)) == repr(dc(**x))
    assert rec(self=3, other=4) == rec(3, 4) != rec(4, 3)
    assert [*inspect.signature(rec.__init__).parameters] == \
        [*inspect.signature(dc.__init__).parameters] == ["__dataclass_self__", "self", "other"]
    # the same bytecode as a record of the same shape with other names
    plain = record(type("Plain", (), {"__annotations__": {"a": "int", "b": "int"}}))
    assert rec.__init__.__code__.co_code == plain.__init__.__code__.co_code


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


# the certificate's fields as the frozen dataclass declared them: name,
# annotation, default
CERTIFICATE_FIELDS = [
    ("verdict", "str", dataclasses.MISSING), ("space", "SpaceDesc", dataclasses.MISSING),
    ("mode", "str", "order"), ("dominating", "ElementSeq | None", None),
    ("escaping", "Tuple[MovingAtom, ...]", ()), ("escape_bound", "Q", Q(0)),
    ("order_bound", "Element | None", None), ("minorant", "Element | None", None),
    ("bad_class", "str | None", None), ("bad_value", "Q | None", None), ("n0", "int", 1),
    ("anchors", "Tuple[str, ...]", ()), ("notes", "Tuple[str, ...]", ()),
]


def _certificate() -> ConvergenceCertificate:
    """A decided certificate holding elements and a dominating family."""
    space = tail_seq()
    limit = element_tail(space, [Q(3), Q(-1, 2)], 0)
    x = element_seq(space, static=limit, atoms=[(seq_form(1, 2), RationalSeq.const(Q(1, 2)))])
    return decide_order_convergence(x, limit)


def test_the_certificate_reads_as_the_frozen_dataclass_it_was():
    cert = _certificate()
    assert dataclasses.is_dataclass(cert) and dataclasses.is_dataclass(ConvergenceCertificate)
    fields = dataclasses.fields(cert)
    assert [(f.name, f.type, f.default) for f in fields] == CERTIFICATE_FIELDS
    assert all(f.default_factory is dataclasses.MISSING and f.init and f.compare
               for f in fields)
    assert fields == dataclasses.fields(ConvergenceCertificate)
    values = {n: getattr(cert, n) for n, _, _ in CERTIFICATE_FIELDS}
    assert cert.order_bound is not None and cert.dominating is not None
    assert dataclasses.asdict(cert) == values
    assert dataclasses.astuple(cert) == tuple(values.values())
    for changes in [{}, {"n0": 3}, {"verdict": "diverges", "minorant": atom(cert.space, 2)},
                    {"escaping": (), "dominating": None}]:
        varied = dataclasses.replace(cert, **changes)
        assert type(varied) is ConvergenceCertificate
        assert varied == replace(cert, **changes) == ConvergenceCertificate(**{**values, **changes})
        assert hash(varied) == hash(replace(cert, **changes))
    with pytest.raises(TypeError):
        dataclasses.replace(cert, probe=8)
    # copy.replace, Python 3.13 and later, calls it
    assert cert.__replace__(n0=3) == replace(cert, n0=3)
    if hasattr(copy, "replace"):
        assert copy.replace(cert, n0=3) == replace(cert, n0=3)
    assert repr(cert).startswith("ConvergenceCertificate(verdict='converges', space=")
    for name in ("verdict", "n0", "other"):
        with pytest.raises(AttributeError):
            setattr(cert, name, None)
    with pytest.raises(FrozenRecordError):
        cert.n0 = 2
    assert cert.converges and not replace(cert, verdict="diverges").converges


def test_the_dataclass_field_table_is_built_once(monkeypatch):
    made = []

    def counted(*args, _real=dataclasses.dataclass, **kwargs):
        made.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(dataclasses, "dataclass", counted)
    fresh = record(type("Fresh", (), {"__annotations__": {"a": "int", "b": "str"}, "b": "x",
                                      "__dataclass_fields__": DataclassFields()}))
    assert made == []
    table = fresh.__dataclass_fields__
    for _ in range(3):
        assert dataclasses.replace(fresh(1), a=2) == fresh(2)
        assert dataclasses.fields(fresh(1)) == dataclasses.fields(fresh)
    assert len(made) == 1 and vars(fresh)["__dataclass_fields__"] is table
    assert list(table) == ["a", "b"] and table["b"].default == "x"
    # the certificate's table, once read, is a plain attribute of the class
    dataclasses.fields(ConvergenceCertificate)
    assert vars(ConvergenceCertificate)["__dataclass_fields__"] is \
        ConvergenceCertificate.__dataclass_fields__


# dataclasses and what it imports: none of them loads at CLI start-up
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_the_cli_imports_no_dataclasses():
    """A fresh isolated interpreter (pytest itself imports dataclasses and
    inspect, so the check cannot run in this process)."""
    src = Path(rieszkit.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import rieszkit.cli; "
            f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]", out.stdout
