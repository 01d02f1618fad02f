"""Canonical elements of the four space kinds and their lattice operations.

Canonical forms make equality decidable:

  tail_seq   -- the prefix carries no trailing entries equal to the tail
  fin_dev    -- no stored entry equals the ambient value
  row_block  -- each row payload is canonical as a tail_seq payload and no
                trailing row equals the constant-at-tail row
  fin_dim    -- plain coordinate tuples

All operations are pointwise over the (finitely many) touched coordinates
plus the tail/ambient slots, which is the lattice structure of each
represented space.  A binary operation is one walk over the union of the
stored coordinates plus those slots (`fin_dev` entries read through a
per-element token index), so each costs time linear in the stored
coordinates; `le` and `is_disjoint` stop at the first deciding pair, and
`coordinate` takes constant time.

This module also owns generator decomposition: `decompose` writes an
element over the atoms, row units and unit of its space, `recompose` builds
the canonical element of such a sum in one pass, and `lincomb` sums scaled
elements through the two.  Sums of many terms go through them rather than
through repeated `add`, which canonicalizes the whole element each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import InvalidIndexError, SpaceMismatchError
from .scalars import Q, Q0, QLike, qadd, qmul, qof, qstr, qsub
from .spaces import (
    AtomIndex,
    Kind,
    SpaceDesc,
    Token,
    atom_key,
)

RowPayload = Tuple[Tuple[Q, ...], Q]  # (prefix, row tail)


@dataclass(frozen=True)
class Element:
    space: SpaceDesc
    data: tuple

    # -- kind-specific accessors -------------------------------------------
    @property
    def coords(self) -> Tuple[Q, ...]:
        assert self.space.kind == Kind.FIN_DIM
        return self.data

    @property
    def prefix(self) -> Tuple[Q, ...]:
        assert self.space.kind == Kind.TAIL_SEQ
        return self.data[0]

    @property
    def tail(self) -> Q:
        if self.space.kind in (Kind.TAIL_SEQ, Kind.ROW_BLOCK):
            return self.data[1]
        raise AssertionError("tail is only defined for sequence kinds")

    @property
    def entries(self) -> Tuple[Tuple[Token, Q], ...]:
        assert self.space.kind == Kind.FIN_DEV
        return self.data[0]

    @property
    def ambient(self) -> Q:
        assert self.space.kind == Kind.FIN_DEV
        return self.data[1]

    @property
    def rows(self) -> Tuple[RowPayload, ...]:
        assert self.space.kind == Kind.ROW_BLOCK
        return self.data[0]

    @cached_property
    def _by_token(self) -> dict:
        """fin_dev entries by token, built on first use; not a field."""
        return dict(self.data[0])

    # -- generic ------------------------------------------------------------
    def is_zero(self) -> bool:
        # canonical zero: all coordinates 0, or nothing stored and a 0 tail
        if self.space.kind == Kind.FIN_DIM:
            return not any(self.data)
        return self.data == ((), 0)

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        return sub(self, other)

    def __neg__(self) -> "Element":
        return scale(-1, self)

    def __rmul__(self, c) -> "Element":
        return scale(c, self)

    def __str__(self) -> str:
        return render(self)


# ---------------------------------------------------------------------------
# constructors


def element_fin(space: SpaceDesc, coords: Sequence[QLike]) -> Element:
    if space.kind != Kind.FIN_DIM:
        raise SpaceMismatchError("element_fin needs a fin_dim space")
    vals = tuple(qof(v) for v in coords)
    if len(vals) != space.dim:
        raise InvalidIndexError(f"expected {space.dim} coordinates, got {len(vals)}")
    return Element(space, vals)


def _canonical_row(prefix: Sequence[QLike], rtail: QLike) -> RowPayload:
    rt = qof(rtail)
    pref = [qof(v) for v in prefix]
    while pref and pref[-1] == rt:
        pref.pop()
    return (tuple(pref), rt)


def element_tail(space: SpaceDesc, prefix: Sequence[QLike], tail: QLike) -> Element:
    if space.kind != Kind.TAIL_SEQ:
        raise SpaceMismatchError("element_tail needs a tail_seq space")
    return Element(space, _canonical_row(prefix, tail))


def element_findev(
    space: SpaceDesc, entries: Mapping[Token, QLike] | Iterable[Tuple[Token, QLike]],
    ambient: QLike,
) -> Element:
    if space.kind != Kind.FIN_DEV:
        raise SpaceMismatchError("element_findev needs a fin_dev space")
    amb = qof(ambient)
    items = entries.items() if isinstance(entries, Mapping) else entries
    kept = {}
    for tok, v in items:
        v_q = qof(v)
        if v_q != amb:
            kept[tok] = v_q
    ordered = tuple(sorted(kept.items(), key=lambda kv: atom_key(kv[0])))
    return Element(space, (ordered, amb))


def element_rowblock(
    space: SpaceDesc, rows: Sequence[Tuple[Sequence[QLike], QLike]], tail: QLike
) -> Element:
    if space.kind != Kind.ROW_BLOCK:
        raise SpaceMismatchError("element_rowblock needs a row_block space")
    tail_q = qof(tail)
    canon = [_canonical_row(p, rt) for p, rt in rows]
    while canon and canon[-1] == ((), tail_q):
        canon.pop()
    if not space.row_units:
        # grid variant: constant off a finite set, so every row tail is the
        # global constant
        for p, rt in canon:
            if rt != tail_q:
                raise SpaceMismatchError(
                    "grid elements must have row tails equal to the global tail"
                )
    return Element(space, (tuple(canon), tail_q))


def zero(space: SpaceDesc) -> Element:
    return recompose(space, [])


def unit(space: SpaceDesc) -> Element:
    return recompose(space, [(("unit",), 1)])


def _check_atom(space: SpaceDesc, idx) -> None:
    k = space.kind
    if k == Kind.FIN_DEV:
        if not isinstance(idx, Token):
            raise InvalidIndexError("fin_dev atoms are indexed by tokens")
    elif k == Kind.ROW_BLOCK:
        if not (isinstance(idx, tuple) and len(idx) == 2 and min(idx) >= 1):
            raise InvalidIndexError(f"row_block atom index {idx!r} out of range")
    elif not isinstance(idx, int) or idx < 1 or (k == Kind.FIN_DIM and idx > space.dim):
        raise InvalidIndexError(f"atom index {idx!r} out of range")


def _check_row_unit(space: SpaceDesc, n: int) -> None:
    if space.kind != Kind.ROW_BLOCK or not space.row_units:
        raise InvalidIndexError("row units exist only in the ek variant")
    if n < 1:
        raise InvalidIndexError("row index out of range")


def atom(space: SpaceDesc, idx: AtomIndex) -> Element:
    return recompose(space, [(("atom", idx), 1)])


def row_unit(space: SpaceDesc, n: int) -> Element:
    return recompose(space, [(("row_unit", n), 1)])


# ---------------------------------------------------------------------------
# generator decomposition


def decompose(x: Element) -> list:
    """Exact finite decomposition of x over the generator family of its
    space: [(("atom", idx) | ("row_unit", n) | ("unit",), coefficient)]."""
    space = x.space
    k = space.kind
    if k == Kind.FIN_DIM:
        return [(("atom", i), v) for i, v in enumerate(x.coords, start=1) if v != 0]
    out = []
    if k == Kind.ROW_BLOCK:
        for n, (pref, rt) in enumerate(x.rows, start=1):
            out.extend((("atom", (n, m)), qsub(v, rt))
                       for m, v in enumerate(pref, start=1) if v != rt)
            if space.row_units and rt != x.tail:
                out.append((("row_unit", n), qsub(rt, x.tail)))
        base = x.tail
    elif k == Kind.TAIL_SEQ:
        base = x.tail
        out.extend((("atom", i), qsub(v, base))
                   for i, v in enumerate(x.prefix, start=1) if v != base)
    else:
        base = x.ambient
        out.extend((("atom", tok), qsub(v, base)) for tok, v in x.entries)
    if base != 0:
        out.append((("unit",), base))
    return out


def recompose(space: SpaceDesc, parts) -> Element:
    """The canonical element sum of coefficient * generator over `parts`
    (in the format of `decompose`), built in one pass.  Parts are read once,
    in order, and each index is checked as it is read, so the first bad
    index raises InvalidIndexError."""
    u = Q0
    coeffs: dict = {}
    for ref, c in parts:
        if ref[0] == "atom":
            _check_atom(space, ref[1])
        elif ref[0] == "row_unit":
            _check_row_unit(space, ref[1])
        else:
            u = qadd(u, qof(c))
            continue
        coeffs[ref] = qadd(coeffs.get(ref, Q0), qof(c))
    atoms = {ref[1]: c for ref, c in coeffs.items() if ref[0] == "atom"}
    k = space.kind
    if k == Kind.FIN_DIM:
        return element_fin(space, [qadd(u, atoms.get(i, Q0)) for i in range(1, space.dim + 1)])
    if k == Kind.TAIL_SEQ:
        width = max(atoms, default=0)
        return element_tail(space, [qadd(u, atoms.get(i, Q0)) for i in range(1, width + 1)], u)
    if k == Kind.FIN_DEV:
        return element_findev(space, {tok: qadd(u, c) for tok, c in atoms.items()}, u)
    row_tails = {ref[1]: qadd(u, c) for ref, c in coeffs.items() if ref[0] == "row_unit"}
    cells: dict = {}
    for (n, m), c in atoms.items():
        cells.setdefault(n, {})[m] = c
    rows = []
    for n in range(1, max([*cells, *row_tails], default=0) + 1):
        rt = row_tails.get(n, u)
        row = cells.get(n, {})
        rows.append(([qadd(rt, row.get(m, Q0)) for m in range(1, max(row, default=0) + 1)], rt))
    return element_rowblock(space, rows, u)


def lincomb(space: SpaceDesc, terms) -> Element:
    """sum of c * x over (c, x) in `terms`, canonicalized once."""
    parts = []
    for c, x in terms:
        if x.space != space:
            raise SpaceMismatchError(f"{space.label} vs {x.space.label}")
        c_q = qof(c)
        parts.extend((ref, qmul(c_q, v)) for ref, v in decompose(x))
    return recompose(space, parts)


# ---------------------------------------------------------------------------
# coordinate access


def coordinate(x: Element, idx: AtomIndex) -> Q:
    """The coordinate functional of the atom at `idx` applied to x."""
    k = x.space.kind
    if k == Kind.FIN_DIM:
        if not isinstance(idx, int) or not 1 <= idx <= x.space.dim:
            raise InvalidIndexError(f"coordinate {idx!r} out of range")
        return x.coords[idx - 1]
    if k == Kind.TAIL_SEQ:
        if not isinstance(idx, int) or idx < 1:
            raise InvalidIndexError(f"coordinate {idx!r} out of range")
        return x.prefix[idx - 1] if idx <= len(x.prefix) else x.tail
    if k == Kind.FIN_DEV:
        if not isinstance(idx, Token):
            raise InvalidIndexError("fin_dev coordinates are tokens")
        return x._by_token.get(idx, x.ambient)
    if not (isinstance(idx, tuple) and len(idx) == 2):
        raise InvalidIndexError("row_block coordinates are (row, col) pairs")
    n, m = idx
    if n < 1 or m < 1:
        raise InvalidIndexError("row_block coordinates start at (1, 1)")
    if n <= len(x.rows):
        pref, rt = x.rows[n - 1]
        return pref[m - 1] if m <= len(pref) else rt
    return x.tail


def support(x: Element) -> list[AtomIndex]:
    """Touched coordinates (where a value is stored explicitly), sorted."""
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return [i for i in range(1, x.space.dim + 1) if x.coords[i - 1] != 0]
    if k == Kind.TAIL_SEQ:
        return list(range(1, len(x.prefix) + 1))
    if k == Kind.FIN_DEV:
        return [tok for tok, _ in x.entries]
    out = []
    for n, (pref, _) in enumerate(x.rows, start=1):
        out.extend((n, m) for m in range(1, len(pref) + 1))
    return sorted(out)


def max_abs_coord(x: Element) -> Q:
    """sup over all coordinates of |x| (tails and ambients included)."""
    return max(abs(v) for v, _ in _pairs(x, x))


# ---------------------------------------------------------------------------
# linear and lattice operations, all pointwise


def _check_same_space(x: Element, y: Element) -> None:
    if x.space != y.space:
        raise SpaceMismatchError(f"{x.space.label} vs {y.space.label}")


def _pad(a, ta, b, tb):
    """Prefixes a and b, the shorter read on through its tail to the
    length of the longer."""
    return a + (ta,) * (len(b) - len(a)), b + (tb,) * (len(a) - len(b))


def _line(a, ta, b, tb):
    """(a_i, b_i) over the padded prefixes, then the pair of tails."""
    return chain(zip(*_pad(a, ta, b, tb)), ((ta, tb),))


def _tokens(x: Element, y: Element):
    """(token, x value, y value) over the tokens x or y stores, x's first."""
    dx, dy = x._by_token, y._by_token
    ax, ay = x.data[1], y.data[1]
    return ((t, dx.get(t, ax), dy.get(t, ay)) for t in {**dx, **dy})


def _rows(x: Element, y: Element):
    """Row pairs over the padded row blocks (past its rows a block is the
    constant row of its tail)."""
    return zip(*_pad(x.data[0], ((), x.data[1]), y.data[0], ((), y.data[1])))


def _pairs(x: Element, y: Element):
    """Every (x value, y value) pair the two elements take: one per stored
    coordinate of either, one per tail, ambient or row-tail slot."""
    _check_same_space(x, y)
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return zip(x.data, y.data)
    if k == Kind.TAIL_SEQ:
        return _line(*x.data, *y.data)
    tails = ((x.data[1], y.data[1]),)
    if k == Kind.FIN_DEV:
        return chain(((a, b) for _, a, b in _tokens(x, y)), tails)
    return chain(chain.from_iterable(_line(*rx, *ry) for rx, ry in _rows(x, y)), tails)


def _zip_line(a, ta, b, tb, op):
    return list(map(op, *_pad(a, ta, b, tb))), op(ta, tb)


def _pointwise(x: Element, y: Element, op) -> Element:
    _check_same_space(x, y)
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return element_fin(x.space, [op(a, b) for a, b in zip(x.data, y.data)])
    if k == Kind.TAIL_SEQ:
        return element_tail(x.space, *_zip_line(*x.data, *y.data, op))
    if k == Kind.FIN_DEV:
        vals = {t: op(a, b) for t, a, b in _tokens(x, y)}
        return element_findev(x.space, vals, op(x.data[1], y.data[1]))
    rows = [_zip_line(*rx, *ry, op) for rx, ry in _rows(x, y)]
    return element_rowblock(x.space, rows, op(x.data[1], y.data[1]))


def _map(x: Element, f) -> Element:
    """f applied to every value x takes, in one pass over its payload."""
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return element_fin(x.space, [f(v) for v in x.data])
    body, t = x.data
    if k == Kind.TAIL_SEQ:
        return element_tail(x.space, [f(v) for v in body], f(t))
    if k == Kind.FIN_DEV:
        return element_findev(x.space, {tok: f(v) for tok, v in body}, f(t))
    return element_rowblock(x.space, [([f(v) for v in p], f(rt)) for p, rt in body], f(t))


def add(x: Element, y: Element) -> Element:
    return _pointwise(x, y, qadd)


def sub(x: Element, y: Element) -> Element:
    return _pointwise(x, y, qsub)


def scale(c: QLike, x: Element) -> Element:
    return _map(x, partial(qmul, qof(c)))


def sup2(x: Element, y: Element) -> Element:
    """Least upper bound of {x, y} in the represented space."""
    return _pointwise(x, y, max)


def inf2(x: Element, y: Element) -> Element:
    return _pointwise(x, y, min)


def pos(x: Element) -> Element:
    """Positive part x v 0."""
    return _map(x, lambda v: max(v, 0))


def neg(x: Element) -> Element:
    """Negative part (-x) v 0."""
    return pos(-x)


def abs_(x: Element) -> Element:
    return _map(x, abs)


def le(x: Element, y: Element) -> bool:
    """Pointwise order: x <= y on every coordinate (tails included)."""
    return all(a <= b for a, b in _pairs(x, y))


def is_positive(x: Element) -> bool:
    return le(zero(x.space), x)


def is_disjoint(x: Element, y: Element) -> bool:
    """|x| ^ |y| = 0: at every coordinate one of the two is 0."""
    return all(a == 0 or b == 0 for a, b in _pairs(x, y))


# ---------------------------------------------------------------------------
# rendering


def render(x: Element) -> str:
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return "(" + ",".join(qstr(v) for v in x.coords) + ")"
    if k == Kind.TAIL_SEQ:
        body = ",".join(qstr(v) for v in x.prefix)
        return f"({body}|{qstr(x.tail)})"
    if k == Kind.FIN_DEV:
        body = ",".join(f"{t}:{qstr(v)}" for t, v in x.entries)
        return f"{{{body}|{qstr(x.ambient)}}}"
    rows = ";".join(
        "(" + ",".join(qstr(v) for v in p) + f"|{qstr(rt)})" for p, rt in x.rows
    )
    return f"[{rows}|{qstr(x.tail)}]"
