"""Canonical payloads of the four space kinds and their lattice operations.

One payload format serves a space and the representable fragment of its
order completion (see `completion`).  A line is a pair (prefix, residues):
its value at index i is prefix[i - 1] for i <= len(prefix), and
residues[i % len(residues)] past the prefix.

  fin_dim    -- a line 0 past the dimension: the coordinates, then (0,)
  tail_seq   -- a line
  fin_dev    -- (entries, ambient, line residues): the stored token values;
                every other g(k) reads the line residue of k, every other
                token the ambient
  row_block  -- a line of rows, each row a line: the explicit rows, then
                the background rows by row residue

An element of the space is the payload in which every residue tuple has
length 1, the ck line reads the ambient and the background is one constant
row (on grid every row tail is that constant as well): `in_base_space`
checks this.  Canonical forms make equality decidable: residues are cut to
their shortest period, no prefix (or row list) ends in an entry equal to the
residue it would read past its end, and ck stores no token equal to its
background.

All operations are pointwise over the (finitely many) touched coordinates
plus the residue slots, which is the lattice structure of each represented
space.  A binary operation is one walk over the union of the stored
coordinates plus the residues of both operands aligned by absolute index
modulo the lcm of their lengths (`fin_dev` entries read through a
per-element token index), so each costs time linear in the stored
coordinates plus that lcm; `le` and `is_disjoint` stop at the first deciding
pair, and `coordinate` takes constant time.

This module also owns generator decomposition: `decompose` writes an
element over the atoms, row units and unit of its space, `recompose` builds
the canonical element of such a sum in one pass, and `lincomb` sums scaled
elements through the two.  Sums of many terms go through them rather than
through repeated `add`, which canonicalizes the whole element each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, starmap
from math import lcm
from typing import Iterable, Mapping, Sequence, Tuple

from .errors import InvalidIndexError, SpaceMismatchError, StencilError
from .scalars import Q, Q0, QLike, qadd, qmul, qof, qstr, qsub
from .spaces import (
    AtomIndex,
    Kind,
    SpaceDesc,
    Token,
    atom_key,
    gamma,
)

Line = Tuple[tuple, tuple]  # (prefix, residues)

_ZERO_LINE: Line = ((), (Q0,))
# the canonical zero payloads: a line (fin_dim, tail_seq), a fin_dev
# payload, a line of rows (row_block)
_ZEROS = (_ZERO_LINE, ((), Q0, (Q0,)), ((), (_ZERO_LINE,)))


@dataclass(frozen=True)
class Element:
    space: SpaceDesc
    data: tuple

    # -- kind-specific accessors of a base element ---------------------------
    @property
    def coords(self) -> Tuple[Q, ...]:
        assert self.space.kind == Kind.FIN_DIM
        p, res = self.data
        return p + _run(res, len(p) + 1, self.space.dim - len(p))

    @property
    def prefix(self) -> Tuple[Q, ...]:
        assert self.space.kind == Kind.TAIL_SEQ
        return self.data[0]

    @property
    def tail(self) -> Q:
        if self.space.kind == Kind.TAIL_SEQ:
            return self.data[1][0]
        if self.space.kind == Kind.ROW_BLOCK:
            return self.data[1][0][1][0]
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
    def rows(self) -> Tuple[Tuple[Tuple[Q, ...], Q], ...]:
        """(prefix, row tail) of each explicit row."""
        assert self.space.kind == Kind.ROW_BLOCK
        return tuple((p, rt) for p, (rt,) in self.data[0])

    @cached_property
    def _by_token(self) -> "_TokenValues":
        """fin_dev values by token, built on first use; not a field."""
        entries, amb, line = self.data
        d = _TokenValues(entries)
        d.ambient, d.line = amb, line
        return d

    # -- generic ------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.data in _ZEROS

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


class _TokenValues(dict):
    """A fin_dev payload's stored values by token; any other token reads its
    background: the line residue of a g token, else the ambient."""

    __slots__ = ("ambient", "line")

    def __missing__(self, t: Token) -> Q:
        return self.line[t.k % len(self.line)] if t.family == "g" else self.ambient


# ---------------------------------------------------------------------------
# canonical payloads and constructors


def _canonical_line(prefix: Sequence, residues: tuple) -> Line:
    """The line with the shortest period (a divisor of the residue count)
    and no trailing prefix entry equal to the residue it would read."""
    pref, res = tuple(prefix), residues
    m = len(res)
    for d in range(1, m):
        if m % d == 0 and res == res[:d] * (m // d):
            res, m = res[:d], d
            break
    n = len(pref)
    while n and pref[n - 1] == res[n % m]:
        n -= 1
    return pref[:n], res


def _findev(space: SpaceDesc, values: dict, amb: Q, line: tuple) -> Element:
    """The canonical fin_dev payload of token values over a background."""
    line = _canonical_line((), line)[1]
    m = len(line)
    # kept where it differs from its background, as _TokenValues reads it
    kept = [(t, v) for t, v in values.items()
            if v != (line[t.k % m] if t.family == "g" else amb)]
    kept.sort(key=_entry_key)
    return Element(space, (tuple(kept), amb, line))


def _entry_key(entry):
    return atom_key(entry[0])


def _progression(step: int, first: int, v, z) -> Line:
    """The line that is v at first, first + step, ... (at first alone when
    step is 0) and z elsewhere."""
    res = tuple(v if step and r == first % step else z for r in range(step or 1))
    return _canonical_line([v if i == first else z for i in range(1, first + 1)], res)


def element_fin(space: SpaceDesc, coords: Sequence[QLike]) -> Element:
    if space.kind != Kind.FIN_DIM:
        raise SpaceMismatchError("element_fin needs a fin_dim space")
    vals = tuple(qof(v) for v in coords)
    if len(vals) != space.dim:
        raise InvalidIndexError(f"expected {space.dim} coordinates, got {len(vals)}")
    return Element(space, _canonical_line(vals, (Q0,)))


def element_tail(space: SpaceDesc, prefix: Sequence[QLike], tail: QLike) -> Element:
    if space.kind != Kind.TAIL_SEQ:
        raise SpaceMismatchError("element_tail needs a tail_seq space")
    return Element(space, _canonical_line([qof(v) for v in prefix], (qof(tail),)))


def element_findev(
    space: SpaceDesc, entries: Mapping[Token, QLike] | Iterable[Tuple[Token, QLike]],
    ambient: QLike,
) -> Element:
    if space.kind != Kind.FIN_DEV:
        raise SpaceMismatchError("element_findev needs a fin_dev space")
    amb = qof(ambient)
    items = entries.items() if isinstance(entries, Mapping) else entries
    # a base element: every unstored token reads the ambient
    kept = {}
    for tok, v in items:
        v_q = qof(v)
        if v_q != amb:
            kept[tok] = v_q
    return Element(space, (tuple(sorted(kept.items(), key=_entry_key)), amb, (amb,)))


def element_rowblock(
    space: SpaceDesc, rows: Sequence[Tuple[Sequence[QLike], QLike]], tail: QLike
) -> Element:
    if space.kind != Kind.ROW_BLOCK:
        raise SpaceMismatchError("element_rowblock needs a row_block space")
    tail_q = (qof(tail),)
    canon = [_canonical_line([qof(v) for v in p], (qof(rt),)) for p, rt in rows]
    if not space.row_units and any(rt != tail_q for _, rt in canon):
        # grid variant: constant off a finite set, so every row tail is the
        # global constant
        raise SpaceMismatchError("grid elements must have row tails equal to the global tail")
    return Element(space, _canonical_line(canon, (((), tail_q),)))


def piece_element(space: SpaceDesc, piece) -> Element:
    """The payload that is value on one arithmetic-progression piece and 0
    elsewhere: (step, first, value) on the coordinate line (the integers of
    tail_seq and fin_dim, the g tokens of fin_dev), (row_step, row_first,
    col_step, col_first, value) on the cells of a row block.  Step 0 means
    the one index first."""
    k = space.kind
    *where, value = piece
    v = qof(value)
    if k == Kind.ROW_BLOCK:
        row_step, row_first, col_step, col_first = where
        row = _progression(col_step, col_first, v, Q0)
        return Element(space, _progression(row_step, row_first, row, _ZERO_LINE))
    step, first = where
    if k == Kind.FIN_DIM:
        if step:
            raise StencilError("moving pieces cannot target a finite-dimensional space")
        return recompose(space, [(("atom", first), v)])
    line = _progression(step, first, v, Q0)
    if k == Kind.TAIL_SEQ:
        return Element(space, line)
    return _findev(space, {gamma(i): u for i, u in enumerate(line[0], start=1)}, Q0, line[1])


def in_base_space(x: Element) -> bool:
    """Whether the payload is an element of its space: every residue tuple
    has length 1, the fin_dev line reads the ambient, the background of a
    row block is one constant row and, on grid, every row tail is that
    constant."""
    k = x.space.kind
    if k == Kind.FIN_DEV:
        return x.data[2] == (x.data[1],)
    if k != Kind.ROW_BLOCK:
        return len(x.data[1]) == 1
    rows, back = x.data
    if len(back) != 1 or back[0][0] or len(back[0][1]) != 1:
        return False
    if x.space.row_units:
        return all(len(rt) == 1 for _, rt in rows)
    return all(rt == back[0][1] for _, rt in rows)


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
    out = []
    if k == Kind.ROW_BLOCK:
        base = x.tail
        for n, (pref, rt) in enumerate(x.rows, start=1):
            out.extend((("atom", (n, m)), qsub(v, rt))
                       for m, v in enumerate(pref, start=1) if v != rt)
            if space.row_units and rt != base:
                out.append((("row_unit", n), qsub(rt, base)))
    elif k == Kind.FIN_DEV:
        base = x.ambient
        out.extend((("atom", tok), qsub(v, base)) for tok, v in x.entries)
    else:
        # a line with one residue: the tail, 0 on fin_dim
        prefix, (base,) = x.data
        out.extend((("atom", i), qsub(v, base))
                   for i, v in enumerate(prefix, start=1) if v != base)
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
    if k == Kind.FIN_DEV:
        if not isinstance(idx, Token):
            raise InvalidIndexError("fin_dev coordinates are tokens")
        return x._by_token[idx]
    if k == Kind.ROW_BLOCK:
        if not (isinstance(idx, tuple) and len(idx) == 2):
            raise InvalidIndexError("row_block coordinates are (row, col) pairs")
        n, m = idx
        if n < 1 or m < 1:
            raise InvalidIndexError("row_block coordinates start at (1, 1)")
        return _at(_at(x.data, n), m)
    # a line: tail_seq, and fin_dim within its dimension
    if not isinstance(idx, int) or idx < 1 or (k == Kind.FIN_DIM and idx > x.space.dim):
        raise InvalidIndexError(f"coordinate {idx!r} out of range")
    return _at(x.data, idx)


def _at(line: Line, i: int):
    """The value of a line at index i >= 1."""
    p, res = line
    return p[i - 1] if i <= len(p) else res[i % len(res)]


def support(x: Element) -> list[AtomIndex]:
    """Touched coordinates (where a value is stored explicitly), sorted."""
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return [i for i, v in enumerate(x.coords, start=1) if v != 0]
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


def _run(res: tuple, start: int, n: int) -> tuple:
    """The n values the residues res give at indices start, start + 1, ..."""
    if not n:
        return ()
    s = start % len(res)
    return ((res[s:] + res[:s]) * -(-n // len(res)))[:n]


def _pad(a, ra, b, rb):
    """Prefixes a and b, the shorter read on through its residues to the
    length of the longer."""
    n = len(b) - len(a)
    if n < 0:
        return a, b + _run(rb, len(b) + 1, -n)
    return a + _run(ra, len(a) + 1, n), b


def _tails(ra, rb):
    """The two residue tuples repeated to the lcm m of their lengths: entry
    r of each is its value at the indices = r mod m."""
    m = lcm(len(ra), len(rb))
    return ra * (m // len(ra)), rb * (m // len(rb))


def _line(la: Line, lb: Line):
    """(a_i, b_i) over the padded prefixes, then over the aligned residues."""
    (a, ra), (b, rb) = la, lb
    return chain(zip(*_pad(a, ra, b, rb)), zip(*_tails(ra, rb)))


def _zip_lines(op, la: Line, lb: Line) -> Line:
    """The canonical line of op over the aligned values of two lines."""
    (a, ra), (b, rb) = la, lb
    return _canonical_line(tuple(map(op, *_pad(a, ra, b, rb))), tuple(map(op, *_tails(ra, rb))))


def _map_line(f, line: Line) -> Line:
    p, res = line
    return _canonical_line(tuple(map(f, p)), tuple(map(f, res)))


def _tokens(x: Element, y: Element):
    """(token, x value, y value) over the tokens x or y stores, x's first."""
    dx, dy = x._by_token, y._by_token
    return ((t, dx[t], dy[t]) for t in {**dx, **dy})


def _pairs(x: Element, y: Element):
    """Every (x value, y value) pair the two payloads take: one per stored
    coordinate of either, one per aligned residue and ambient slot."""
    _check_same_space(x, y)
    k = x.space.kind
    if k == Kind.FIN_DEV:
        (_, ax, lx), (_, ay, ly) = x.data, y.data
        return chain(((a, b) for _, a, b in _tokens(x, y)), ((ax, ay),), zip(*_tails(lx, ly)))
    if k == Kind.ROW_BLOCK:
        return chain.from_iterable(starmap(_line, _line(x.data, y.data)))
    return _line(x.data, y.data)


def _pointwise(x: Element, y: Element, op) -> Element:
    _check_same_space(x, y)
    k = x.space.kind
    if k == Kind.FIN_DEV:
        (_, ax, lx), (_, ay, ly) = x.data, y.data
        vals = {t: op(a, b) for t, a, b in _tokens(x, y)}
        return _findev(x.space, vals, op(ax, ay), tuple(map(op, *_tails(lx, ly))))
    if k == Kind.ROW_BLOCK:
        op = partial(_zip_lines, op)
    return Element(x.space, _zip_lines(op, x.data, y.data))


def _map(x: Element, f) -> Element:
    """f applied to every value x takes, in one pass over its payload."""
    k = x.space.kind
    if k == Kind.FIN_DEV:
        entries, amb, line = x.data
        return _findev(x.space, {t: f(v) for t, v in entries}, f(amb), tuple(map(f, line)))
    if k == Kind.ROW_BLOCK:
        f = partial(_map_line, f)
    return Element(x.space, _map_line(f, x.data))


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
    return _map(x, partial(max, Q0))


def _neg_part(v: Q) -> Q:
    return -v if v < 0 else Q0


def neg(x: Element) -> Element:
    """Negative part (-x) v 0."""
    return _map(x, _neg_part)


def _abs(v: Q) -> Q:
    return -v if v < 0 else v


def abs_(x: Element) -> Element:
    return _map(x, _abs)


def le(x: Element, y: Element) -> bool:
    """Pointwise order: x <= y on every coordinate (tails included)."""
    return all(a <= b for a, b in _pairs(x, y))


def is_positive(x: Element) -> bool:
    return le(zero(x.space), x)


def is_disjoint(x: Element, y: Element) -> bool:
    """|x| ^ |y| = 0: at every coordinate one of the two is 0."""
    return all(a == 0 or b == 0 for a, b in _pairs(x, y))


# ---------------------------------------------------------------------------
# pattern structure and rendering


def g_line(x: Element) -> Line:
    """The values of a fin_dev payload on the g tokens, as a line: g(1),
    ..., g(K) for the last g token K it stores, then the line residues."""
    d = x._by_token
    width = max((t.k for t in d if t.family == "g"), default=0)
    return tuple(d[gamma(i)] for i in range(1, width + 1)), x.data[2]


def line_classes(line: Line):
    """(index, residue, value) for each value class of a line, prefix first:
    an entry of the prefix has residue None, a residue class r is read at
    its first index past the prefix."""
    p, res = line
    s, m = len(p) + 1, len(res)
    return chain(((i, None, v) for i, v in enumerate(p, start=1)),
                 ((s + (r - s) % m, r, v) for r, v in enumerate(res)))


def _line_str(line: Line) -> str:
    p, res = line
    return ",".join(map(qstr, p)) + "|" + ",".join(map(qstr, res))


def render(x: Element) -> str:
    """(prefix|residues) for a line; a fin_dev line that does not read the
    ambient follows it, a background row with a prefix is parenthesized."""
    k = x.space.kind
    if k == Kind.FIN_DIM:
        return "(" + ",".join(qstr(v) for v in x.coords) + ")"
    if k == Kind.TAIL_SEQ:
        return f"({_line_str(x.data)})"
    if k == Kind.FIN_DEV:
        entries, amb, line = x.data
        body = ",".join(f"{t}:{qstr(v)}" for t, v in entries)
        on_line = "" if line == (amb,) else "|" + ",".join(map(qstr, line))
        return f"{{{body}|{qstr(amb)}{on_line}}}"
    rows, back = x.data
    body = ";".join(f"({_line_str(r)})" for r in rows)
    back_str = ";".join(f"({_line_str(r)})" if r[0] else ",".join(map(qstr, r[1])) for r in back)
    return f"[{body}|{back_str}]"
