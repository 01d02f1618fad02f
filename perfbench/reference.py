"""Plain dict-based pointwise reference for the element workloads.

An element of l0inf, ck or grid is modelled as `Ref(values, default)`: the
coordinates stored explicitly plus the value everywhere else (the tail, the
ambient value, or the grid constant).  Every lattice operation is computed
coordinate by coordinate over the union of supports, and results are
compared at that union plus one fresh coordinate that no input touches.

Engine results are read back through their rendered text, the format the
reports print, so the reference does not depend on how elements are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Ref:
    values: dict
    default: Fraction

    def at(self, idx) -> Fraction:
        return self.values.get(idx, self.default)


def pointwise(op, *refs: Ref) -> Ref:
    keys = set().union(*(r.values for r in refs))
    return Ref(
        {k: op(*(r.at(k) for r in refs)) for k in keys},
        op(*(r.default for r in refs)),
    )


def add(x: Ref, y: Ref) -> Ref:
    return pointwise(lambda a, b: a + b, x, y)


def scale(c: Fraction, x: Ref) -> Ref:
    return pointwise(lambda a: c * a, x)


def sup(x: Ref, y: Ref) -> Ref:
    return pointwise(max, x, y)


def absolute(x: Ref) -> Ref:
    return pointwise(abs, x)


def probe_points(kind: str, *refs: Ref) -> list:
    """The union of supports plus one coordinate beyond all of them."""
    keys = set().union(*(r.values for r in refs))
    if kind == "l0inf":
        fresh = max(keys, default=0) + 1
    elif kind == "ck":
        fresh = "star(1)"
    else:
        fresh = (max((k[0] for k in keys), default=0) + 1, 1)
    return sorted(keys, key=str) + [fresh]


def le(kind: str, x: Ref, y: Ref) -> bool:
    return all(x.at(k) <= y.at(k) for k in probe_points(kind, x, y))


def disjoint(kind: str, x: Ref, y: Ref) -> bool:
    return all(x.at(k) == 0 or y.at(k) == 0 for k in probe_points(kind, x, y))


def same(kind: str, x: Ref, y: Ref) -> bool:
    return all(x.at(k) == y.at(k) for k in probe_points(kind, x, y))


# ---------------------------------------------------------------------------
# reading rendered engine elements


def parse_render(kind: str, text: str) -> Ref:
    """Inverse of `rieszkit.elements.render` for l0inf, ck and grid."""
    if kind == "l0inf":  # (v1,v2,...|tail)
        body, tail = text[1:-1].rsplit("|", 1)
        vals = body.split(",") if body else []
        return Ref({i: Fraction(v) for i, v in enumerate(vals, 1)}, Fraction(tail))
    if kind == "ck":  # {g(1):v,...|ambient}
        body, amb = text[1:-1].rsplit("|", 1)
        values = {}
        for item in body.split(",") if body else []:
            tok, v = item.rsplit(":", 1)
            values[tok] = Fraction(v)
        return Ref(values, Fraction(amb))
    # grid: [(p11,p12,..|rt1);(..|rt2)|tail]; grid row tails equal the tail
    body, tail = text[1:-1].rsplit("|", 1)
    values = {}
    for n, row in enumerate(body.split(";") if body else [], 1):
        prefix, rtail = row[1:-1].rsplit("|", 1)
        if Fraction(rtail) != Fraction(tail):
            raise ValueError(f"grid row {n} has tail {rtail}, expected {tail}")
        for m, v in enumerate(prefix.split(",") if prefix else [], 1):
            values[(n, m)] = Fraction(v)
    return Ref(values, Fraction(tail))
