"""Canonical payloads of the space kinds and their lattice operations.

One payload format serves a space and the representable fragment of its
order completion (see `completion`).  A line is a pair (prefix, residues):
its value at index i is prefix[i - 1] for i <= len(prefix), and
residues[i % len(residues)] past the prefix.  The kind table's `shape`
column (see `spaces`) names one of three payload shapes, each an object
that owns everything depending on it; a public function dispatches once:

  line       -- fin_dim (0 past the dimension: the coordinates, then (0,))
                and tail_seq
  fin_dev    -- (stars, ambient, g-line): the stored (star token, value)
                pairs by index, the value at every other star token, and
                the line of values at g(1), g(2), ...
  row_block  -- a line of rows, each row a line: the explicit rows, then
                the background rows by row residue

An element of the space is the payload in which every residue tuple has
length 1, the g-line's residue is the ambient and the background is one
constant row (on grid every row tail is that constant as well):
`in_base_space` checks this.  Canonical forms make equality decidable:
residues are cut to their shortest period, no prefix (or row list) ends in
an entry equal to the residue it would read past its end, and ck stores no
star equal to the ambient.

All operations are pointwise over the (finitely many) touched coordinates
plus the residue slots, which is the lattice structure of each represented
space.  A binary operation is one walk over the union of the stored
coordinates plus the residues of both operands aligned by absolute index
modulo the lcm of their lengths (ck walks its g-line as a tail_seq line and
merges only the stars by token), so each costs time linear in the stored
coordinates plus that lcm; prefixes are dense, so a lone e(k) on l0inf, or
g(k) on ck, costs O(k).  `holds` (`le` is its `qle` case) and
`is_disjoint` stop at the first deciding pair, and `coordinate` reads a
line in constant time.  The comparisons are `all` folds and `max_abs_coord`
a `qmax` fold over the value pairs, so a row-block walk skips a row pair it
has already walked: the background rows of a `recompose` result are one
shared object.  Every per-coordinate decision, in these folds, in the
lattice maps and in the background filters, is one call of the `scalars`
decision kernel on integer pairs, never a `Fraction` comparison.  Every
stored 0 is the one `Q0` (see `scalars`): the constructors read values
through `qof` and the walks through the kernels, so each zero test here
asks `v is Q0` first and reads the value only behind it.

This module also owns generator decomposition: `decompose` writes an
element over the atoms, row units and unit of its space, and `recompose`
builds the canonical element of such a sum in one pass, with Python-level
work per stored part: the values between stored indices, and the
background rows, are filled by repeating one object.  It is the one
canonicalizer of such sums: operator images (`operators.image_parts`),
sequence steps (`sequences.eval_seq`) and step residuals reach it as
generator parts, not as elements decomposed again, and `lincomb` sums scaled
elements through it rather than through repeated `add`, which canonicalizes
the whole element each time.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain, starmap
from math import lcm
from operator import eq as _rows_eq
from typing import Iterable, Mapping, Sequence, Tuple

from .records import record
from .errors import InvalidIndexError, SpaceMismatchError, StencilError
from .scalars import Q, Q0, QLike, qabs, qadd, qeq, qle, qmax, qmin, qmul, qof, qstr, qsub
from .spaces import (
    AtomIndex,
    Kind,
    SpaceDesc,
    Token,
)

Line = Tuple[tuple, tuple]  # (prefix, residues)

_ZERO_LINE: Line = ((), (Q0,))


@record
class Element:
    space: SpaceDesc
    data: tuple

    # -- accessors of a base element -----------------------------------------
    @property
    def tail(self) -> Q:
        """The value of a base line past its prefix."""
        return self.data[1][0]

    @property
    def entries(self) -> Tuple[Tuple[Token, Q], ...]:
        """The fin_dev (token, value) pairs off their background, see `_stored`."""
        return tuple(_stored(self))

    @property
    def ambient(self) -> Q:
        """The value of a fin_dev payload at every unstored star token."""
        return self.data[1]

    @property
    def rows(self) -> Tuple[Tuple[Tuple[Q, ...], Q], ...]:
        """(prefix, row tail) of each explicit row of a row block."""
        return tuple((p, rt) for p, (rt,) in self.data[0])

    # -- generic ------------------------------------------------------------
    def is_zero(self) -> bool:
        """Whether the payload is its shape's zero, decided by the shape
        (`_zero_line`): no stored prefix, star or row, and one residue that
        is 0, so no `Fraction` is compared."""
        return _shape(self).is_zero(self.data)

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
# canonical payloads and constructors


def _canonical_line(prefix: Sequence, residues: tuple, eq=qeq) -> Line:
    """The line with the shortest period (a divisor of the residue count)
    and no trailing prefix entry equal to the residue it would read.  `eq`
    is the equality of the line's values: `qeq` on payload values, tuple
    equality (`_rows_eq`) on the rows of a row block."""
    pref, res = tuple(prefix), residues
    m = len(res)
    for d in range(1, m):
        if m % d == 0 and all(map(eq, res[d:], res)):
            res, m = res[:d], d
            break
    n = len(pref)
    # identity first: the identity-skipping kernels hand back the residue
    # object itself
    while n and (pref[n - 1] is res[n % m] or eq(pref[n - 1], res[n % m])):
        n -= 1
    return pref[:n], res


def _kept(stars, amb: Q) -> tuple:
    """The (star token, value) pairs whose value is not amb."""
    return tuple([(t, v) for t, v in stars if v is not amb and not qeq(v, amb)]) if stars else ()


def _findev(space: SpaceDesc, coeffs: dict, amb: Q, u: Q) -> Element:
    """The canonical base fin_dev payload that is u + c at each token with
    coefficient c and amb elsewhere; the g values fill a tail_seq prefix."""
    g, stars = {}, []
    for t, c in coeffs.items():
        if t.family == "g":
            g[t.k] = qadd(u, c)
        else:
            stars.append((t, qadd(u, c)))
    vals = [amb] * max(g, default=0)
    for k, v in g.items():
        vals[k - 1] = v
    return Element(space, (_kept(sorted(stars), amb), amb, _canonical_line(vals, (amb,))))


def _progression(step: int, first: int, v, z, eq=qeq) -> Line:
    """The line that is v at first, first + step, ... (at first alone when
    step is 0) and z elsewhere."""
    res = tuple(v if step and r == first % step else z for r in range(step or 1))
    return _canonical_line([v if i == first else z for i in range(1, first + 1)], res, eq)


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
    return _findev(space, {tok: qof(v) for tok, v in dict(entries).items()}, qof(ambient), Q0)


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
    return Element(space, _canonical_line(canon, (((), tail_q),), _rows_eq))


# ---------------------------------------------------------------------------
# walks over lines


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


def _zip_lines(op, la: Line, lb: Line, eq=qeq) -> Line:
    """The canonical line of op over the aligned values of two lines."""
    (a, ra), (b, rb) = la, lb
    return _canonical_line(tuple(map(op, *_pad(a, ra, b, rb))), tuple(map(op, *_tails(ra, rb))),
                           eq)


def _map_line(f, line: Line, eq=qeq) -> Line:
    p, res = line
    return _canonical_line(tuple(map(f, p)), tuple(map(f, res)), eq)


def _zero_line(line: Line) -> bool:
    """Whether a line of values is the zero line ((), (0,))."""
    p, res = line
    return not p and len(res) == 1 and ((v := res[0]) is Q0 or not v)


def _at(line: Line, i: int):
    """The value of a line at index i >= 1."""
    p, res = line
    return p[i - 1] if i <= len(p) else res[i % len(res)]


def _star_values(x: Element, y: Element) -> list:
    """(token, x value, y value) at each star x or y stores, by index."""
    (sx, ax, _), (sy, ay, _) = x.data, y.data
    if not (sx or sy):
        return ()
    dx, dy = dict(sx), dict(sy)
    return [(t, dx.get(t, ax), dy.get(t, ay)) for t in sorted({**dx, **dy})]


def _stored(x: Element) -> list:
    """The (token, value) pairs of a fin_dev payload off their background, by
    index and g(k) before star(k), as `atom_key` orders them."""
    stars, _, (p, res) = x.data
    gs = [(Token("g", i), v) for i, v in enumerate(p, start=1) if not qeq(v, res[i % len(res)])]
    return sorted(gs + list(stars), key=lambda e: (e[0].k, e[0].family)) if stars else gs


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


def _describe_line(line: Line) -> dict:
    prefix, residues = line
    return {
        "prefix": [qstr(v) for v in prefix],
        "modulus": len(residues),
        "residues": [qstr(v) for v in residues],
    }


# ---------------------------------------------------------------------------
# the payload shapes


class _LineShape:
    """fin_dim and tail_seq: one line; a space with a dimension (fin_dim)
    reads 0 past it."""

    is_zero = staticmethod(_zero_line)

    def at(self, x: Element, i: int) -> Q:
        return _at(x.data, i)

    def pairs(self, x: Element, y: Element):
        return _line(x.data, y.data)

    def pointwise(self, x: Element, y: Element, op) -> Element:
        return Element(x.space, _zip_lines(op, x.data, y.data))

    def map(self, x: Element, f) -> Element:
        return Element(x.space, _map_line(f, x.data))

    def decompose(self, x: Element):
        prefix, (base,) = x.data
        return [(("atom", i), qsub(v, base))
                for i, v in enumerate(prefix, start=1) if not qeq(v, base)], base

    def recompose(self, space: SpaceDesc, atoms: dict, rows: dict, u: Q) -> Element:
        vals = [u] * (space.dim or max(atoms, default=0))
        for i, c in atoms.items():
            vals[i - 1] = qadd(u, c)
        return Element(space, _canonical_line(vals, (Q0 if space.dim else u,)))

    def piece(self, space: SpaceDesc, where, v: Q) -> Element:
        step, first = where
        if space.dim:
            if step:
                raise StencilError("moving pieces cannot target a finite-dimensional space")
            space.row.check_atom(first, space.dim)
        return Element(space, _progression(step, first, v, Q0))

    def support(self, x: Element) -> list:
        return list(range(1, len(x.data[0]) + 1))

    def in_base(self, x: Element) -> bool:
        return len(x.data[1]) == 1

    def render(self, x: Element) -> str:
        if not x.space.dim:
            return f"({_line_str(x.data)})"
        p, res = x.data
        coords = p + _run(res, len(p) + 1, x.space.dim - len(p))
        return "(" + ",".join(qstr(v) for v in coords) + ")"

    def describe(self, x: Element) -> dict:
        if x.space.dim:
            return {"kind": "element", "value": self.render(x)}
        return {"kind": "tail_pattern", **_describe_line(x.data)}

    def classes(self, x: Element):
        # on fin_dim the one residue class is 0 past the dimension
        for i, r, v in line_classes(x.data):
            if v and r is None:
                yield i, v, f"coordinate {i} settles at {qstr(v)}"
            elif v:
                yield i, v, f"coordinates = {r} mod {len(x.data[1])} settle at {qstr(v)}"


class _FinDevShape:
    """fin_dev: the stars and ambient beside the g-line, a tail_seq line."""

    @staticmethod
    def is_zero(data) -> bool:
        stars, amb, line = data
        return not stars and (amb is Q0 or not amb) and _zero_line(line)

    def at(self, x: Element, t: Token) -> Q:
        if t.family == "g":
            return _at(x.data[2], t.k)
        return next((v for s, v in x.data[0] if s.k == t.k), x.data[1])

    def pairs(self, x: Element, y: Element):
        (_, ax, lx), (_, ay, ly) = x.data, y.data
        return chain(((a, b) for _, a, b in _star_values(x, y)), ((ax, ay),), _line(lx, ly))

    def pointwise(self, x: Element, y: Element, op) -> Element:
        amb = op(x.data[1], y.data[1])
        stars = _kept([(t, op(a, b)) for t, a, b in _star_values(x, y)], amb)
        return Element(x.space, (stars, amb, _zip_lines(op, x.data[2], y.data[2])))

    def map(self, x: Element, f) -> Element:
        stars, amb, line = x.data
        a = f(amb)
        return Element(x.space, (_kept([(t, f(v)) for t, v in stars], a), a, _map_line(f, line)))

    def decompose(self, x: Element):
        base = x.data[1]
        return [(("atom", tok), qsub(v, base)) for tok, v in _stored(x)], base

    def recompose(self, space: SpaceDesc, atoms: dict, rows: dict, u: Q) -> Element:
        return _findev(space, atoms, u, u)

    def piece(self, space: SpaceDesc, where, v: Q) -> Element:
        step, first = where
        return Element(space, ((), Q0, _progression(step, first, v, Q0)))

    def support(self, x: Element) -> list:
        return [tok for tok, _ in _stored(x)]

    def in_base(self, x: Element) -> bool:
        return x.data[2][1] == (x.data[1],)

    def render(self, x: Element) -> str:
        """A g-line residue that is not the ambient follows it."""
        _, amb, (_, res) = x.data
        body = ",".join(f"{t}:{qstr(v)}" for t, v in _stored(x))
        on_line = "" if res == (amb,) else "|" + ",".join(map(qstr, res))
        return f"{{{body}|{qstr(amb)}{on_line}}}"

    def describe(self, x: Element) -> dict:
        stars, amb, line = x.data
        return {
            "kind": "fin_dev_pattern",
            "extra": [[str(t), qstr(v)] for t, v in stars],
            "line": _describe_line(line),
            "ambient": qstr(amb),
        }

    def classes(self, x: Element):
        stars, amb, line = x.data
        for t, v in stars:
            if v:
                yield t, v, f"coordinate {t} settles at {qstr(v)}"
        for i, r, v in line_classes(line):
            if v and r is None:
                yield Token("g", i), v, f"coordinate g({i}) settles at {qstr(v)}"
            elif v:
                yield Token("g", i), v, f"line residue {r} mod {len(line[1])} settles at {qstr(v)}"
        if amb:
            yield None, amb, f"ambient value stays {qstr(amb)} at every untouched point"


class _RowBlockShape:
    """row_block: a line of rows, each row a line."""

    @staticmethod
    def is_zero(data) -> bool:
        rows, back = data
        return not rows and len(back) == 1 and _zero_line(back[0])

    def at(self, x: Element, idx: Tuple[int, int]) -> Q:
        return _at(_at(x.data, idx[0]), idx[1])

    def pairs(self, x: Element, y: Element):
        """The pairs of each row pair, a row pair walked once: every
        background row of a `recompose` result is one shared object, so
        repeats are found by the identity of the two rows."""
        seen = set()
        for rx, ry in _line(x.data, y.data):
            key = id(rx), id(ry)
            if key not in seen:
                seen.add(key)
                yield from _line(rx, ry)

    def pointwise(self, x: Element, y: Element, op) -> Element:
        return Element(x.space, _zip_lines(partial(_zip_lines, op), x.data, y.data, _rows_eq))

    def map(self, x: Element, f) -> Element:
        return Element(x.space, _map_line(partial(_map_line, f), x.data, _rows_eq))

    def decompose(self, x: Element):
        base = x.data[1][0][1][0]
        out = []
        for n, (pref, rt) in enumerate(x.rows, start=1):
            out.extend((("atom", (n, m)), qsub(v, rt))
                       for m, v in enumerate(pref, start=1) if not qeq(v, rt))
            if x.space.row_units and not qeq(rt, base):
                out.append((("row_unit", n), qsub(rt, base)))
        return out, base

    def recompose(self, space: SpaceDesc, atoms: dict, rows: dict, u: Q) -> Element:
        # the rows come out canonical: a row whose cells and row unit sum to
        # 0 is the one background row object, so the trim below compares by
        # identity; row tails other than u come from row units, which only
        # ek has
        back = ((), (u,))
        row_tails = {n: qadd(u, c) for n, c in rows.items()}
        cells: dict = {}
        for (n, m), c in atoms.items():
            cells.setdefault(n, {})[m] = c
        out = [back] * max([*cells, *row_tails], default=0)
        for n, rt in row_tails.items():
            if rt is not u:
                out[n - 1] = ((), (rt,))
        for n, row in cells.items():
            rt = row_tails.get(n, u)
            vals = [rt] * max(row)
            for m, c in row.items():
                vals[m - 1] = qadd(rt, c)
            line = _canonical_line(vals, (rt,))
            out[n - 1] = back if line == back else line
        return Element(space, _canonical_line(out, (back,), _rows_eq))

    def piece(self, space: SpaceDesc, where, v: Q) -> Element:
        row_step, row_first, col_step, col_first = where
        row = _progression(col_step, col_first, v, Q0)
        return Element(space, _progression(row_step, row_first, row, _ZERO_LINE, _rows_eq))

    def support(self, x: Element) -> list:
        out = []
        for n, (pref, _) in enumerate(x.rows, start=1):
            out.extend((n, m) for m in range(1, len(pref) + 1))
        return sorted(out)

    def in_base(self, x: Element) -> bool:
        rows, back = x.data
        if len(back) != 1 or back[0][0] or len(back[0][1]) != 1:
            return False
        if x.space.row_units:
            return all(len(rt) == 1 for _, rt in rows)
        return all(rt == back[0][1] for _, rt in rows)

    def render(self, x: Element) -> str:
        """A background row with a prefix is parenthesized."""
        rows, back = x.data
        body = ";".join(f"({_line_str(r)})" for r in rows)
        back_str = ";".join(f"({_line_str(r)})" if r[0] else ",".join(map(qstr, r[1]))
                            for r in back)
        return f"[{body}|{back_str}]"

    def describe(self, x: Element) -> dict:
        rows, back = x.data
        return {
            "kind": "row_block_pattern",
            "rows": [_describe_line(r) for r in rows],
            "row_residues": [_describe_line(r) for r in back],
        }

    def classes(self, x: Element):
        for n, rr, row in line_classes(x.data):
            for m, r, v in line_classes(row):
                if v and rr is not None:
                    yield (n, m), v, f"row class {rr} settles nonzero"
                elif v and r is not None:
                    yield (n, m), v, f"row {n} tail settles at {qstr(v)}"
                elif v:
                    yield (n, m), v, f"cell ({n},{m}) settles at {qstr(v)}"


_SHAPES = {"line": _LineShape(), "fin_dev": _FinDevShape(), "row_block": _RowBlockShape()}


def _shape(x: Element):
    return _SHAPES[x.space.row.shape]


# ---------------------------------------------------------------------------
# generators, pieces and membership


def piece_element(space: SpaceDesc, piece) -> Element:
    """The payload that is value on one arithmetic-progression piece and 0
    elsewhere: (step, first, value) on the coordinate line (the integers of
    tail_seq and fin_dim, the g tokens of fin_dev), (row_step, row_first,
    col_step, col_first, value) on the cells of a row block.  Step 0 means
    the one index first."""
    *where, value = piece
    return _SHAPES[space.row.shape].piece(space, where, qof(value))


def in_base_space(x: Element) -> bool:
    """Whether the payload is an element of its space: every residue tuple
    has length 1, the fin_dev line reads the ambient, the background of a
    row block is one constant row and, on grid, every row tail is that
    constant."""
    return _shape(x).in_base(x)


def zero(space: SpaceDesc) -> Element:
    return recompose(space, [])


def unit(space: SpaceDesc) -> Element:
    return recompose(space, [(("unit",), 1)])


def atom(space: SpaceDesc, idx: AtomIndex) -> Element:
    return recompose(space, [(("atom", idx), 1)])


def row_unit(space: SpaceDesc, n: int) -> Element:
    return recompose(space, [(("row_unit", n), 1)])


def decompose(x: Element) -> list:
    """Exact finite decomposition of x over the generator family of its
    space: [(("atom", idx) | ("row_unit", n) | ("unit",), coefficient)]."""
    out, base = _shape(x).decompose(x)
    if base is not Q0 and base:
        out.append((("unit",), base))
    return out


def recompose(space: SpaceDesc, parts) -> Element:
    """The canonical element sum of coefficient * generator over `parts`
    (in the format of `decompose`), built in one pass.  Parts are read once,
    in order, and each index is checked as it is read, so the first bad
    index raises InvalidIndexError."""
    check, dim = space.row.check_atom, space.dim
    u = Q0
    atoms: dict = {}
    rows: dict = {}
    for ref, c in parts:
        if ref[0] == "atom":
            idx = ref[1]
            check(idx, dim)
            atoms[idx] = qadd(atoms.get(idx, Q0), qof(c))
        elif ref[0] == "row_unit":
            n = ref[1]
            if not space.row_units:
                raise InvalidIndexError("row units exist only in the ek variant")
            if n < 1:
                raise InvalidIndexError("row index out of range")
            rows[n] = qadd(rows.get(n, Q0), qof(c))
        else:
            u = qadd(u, qof(c))
    return _SHAPES[space.row.shape].recompose(space, atoms, rows, u)


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
    x.space.row.check_atom(idx, x.space.dim)
    return _shape(x).at(x, idx)


def coordinate_reader(x: Element):
    """The coordinate functionals of x as one function of the index, without
    the index check `coordinate` makes: for a walk that checks the indices
    it reads itself."""
    return partial(_shape(x).at, x)


def support(x: Element) -> list[AtomIndex]:
    """Touched coordinates (where a value is stored explicitly), sorted."""
    return _shape(x).support(x)


def max_abs_coord(x: Element) -> Q:
    """sup over all coordinates of |x| (tails and ambients included)."""
    return reduce(qmax, [qabs(v) for v, _ in _pairs(x, x)])


# ---------------------------------------------------------------------------
# linear and lattice operations, all pointwise


def _check_same_space(x: Element, y: Element) -> None:
    if x.space != y.space:
        raise SpaceMismatchError(f"{x.space.label} vs {y.space.label}")


def _pairs(x: Element, y: Element):
    """Every (x value, y value) pair the two payloads take: one per stored
    coordinate of either, one per aligned residue and ambient slot."""
    _check_same_space(x, y)
    return _SHAPES[x.space.row.shape].pairs(x, y)


def _pointwise(x: Element, y: Element, op) -> Element:
    _check_same_space(x, y)
    return _SHAPES[x.space.row.shape].pointwise(x, y, op)


def _map(x: Element, f) -> Element:
    """f applied to every value x takes, in one pass over its payload."""
    return _SHAPES[x.space.row.shape].map(x, f)


def add(x: Element, y: Element) -> Element:
    """x + y; a zero operand gives the other operand back."""
    _check_same_space(x, y)
    if x.is_zero():
        return y
    return x if y.is_zero() else _pointwise(x, y, qadd)


def sub(x: Element, y: Element) -> Element:
    """x - y; x itself when y is zero."""
    _check_same_space(x, y)
    return x if y.is_zero() else _pointwise(x, y, qsub)


def scale(c: QLike, x: Element) -> Element:
    """c * x, with c's integer pair read once: x itself for c = 1, the zero
    element for c = 0, a negation that keeps Q0 at the zeros for c = -1,
    and one product per nonzero value for any other c."""
    c = qof(c)
    pair = c.as_integer_ratio()
    if pair == (1, 1):
        return x
    if not pair[0]:
        return zero(x.space)
    if pair == (-1, 1):
        return _map(x, lambda v: Q0 if v is Q0 or not v else -v)
    return _map(x, lambda v: Q0 if v is Q0 or not v else v * c)


def sup2(x: Element, y: Element) -> Element:
    """Least upper bound of {x, y} in the represented space."""
    return _pointwise(x, y, qmax)


def inf2(x: Element, y: Element) -> Element:
    return _pointwise(x, y, qmin)


def pos(x: Element) -> Element:
    """Positive part x v 0."""
    return _map(x, partial(qmax, Q0))


def neg(x: Element) -> Element:
    """Negative part (-x) v 0."""
    return _map(x, lambda v: -v if v.numerator < 0 else Q0)


def abs_(x: Element) -> Element:
    return _map(x, qabs)


def holds(rel, x: Element, y: Element) -> bool:
    """rel(x(i), y(i)) at every coordinate i, tails and ambients included."""
    return all(starmap(rel, _pairs(x, y)))


def le(x: Element, y: Element) -> bool:
    """Pointwise order: x <= y on every coordinate (tails included)."""
    return holds(qle, x, y)


def nonpositive(x: Element) -> bool:
    """x <= 0: every value x takes is at most 0, read from x alone."""
    return all(qle(v, Q0) for v, _ in _pairs(x, x))


def is_positive(x: Element) -> bool:
    return le(zero(x.space), x)


def is_disjoint(x: Element, y: Element) -> bool:
    """|x| ^ |y| = 0: at every coordinate one of the two is 0."""
    return all(a is Q0 or b is Q0 or not a or not b for a, b in _pairs(x, y))


# ---------------------------------------------------------------------------
# rendering and value classes


def render(x: Element) -> str:
    """(prefix|residues) for a line, the coordinates on fin_dim; see each
    shape for the other payloads."""
    return _shape(x).render(x)


def describe(x: Element) -> dict:
    """JSON-friendly description of a payload with deterministic ordering,
    the report format of a completion pattern."""
    return _shape(x).describe(x)


def nonzero_classes(x: Element):
    """(coordinate, value, description) of each nonzero value class of the
    payload x, in storage order.  A None coordinate is the ambient class of
    fin_dev: every fresh point keeps that value."""
    return _shape(x).classes(x)
