"""Representable fragment of the order completion.

A completion element generalizes an element's tail payload to an eventually
periodic residue pattern.  This fragment is closed under the sums, positive
parts and limits the engine produces (local finiteness of tail rules keeps
every coordinate's contribution list finite), and membership in the base
space is decidable: a pattern belongs to the space exactly when it collapses
to a single tail value (respectively a finite deviation set).

  tail_seq   -> TailPattern: explicit prefix, then values by residue class
  fin_dev    -> FinDevPattern: off-line tokens + TailPattern on the token
                line + ambient value for untouched points
  row_block  -> RowBlockPattern: explicit rows (TailPattern each) + per
                row-residue patterns for all later rows
  fin_dim    -> the space is already order complete; patterns are elements

This module owns the pattern format: `pattern_from_pieces` is the one
builder that reads a base element plus arithmetic-progression pieces off as
a prefix and residues (`embed` is the case without pieces), and `_values`
is the one walk over the values a pattern stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Tuple, Union

from .errors import SpaceMismatchError, StencilError
from .scalars import Q, QLike, qadd, qof, qstr
from .spaces import Kind, SpaceDesc, Token, atom_key, gamma
from .elements import (
    Element,
    add,
    decompose,
    element_findev,
    element_rowblock,
    element_tail,
    recompose,
    render,
    scale,
    sup2,
    zero,
)


@dataclass(frozen=True)
class TailPattern:
    """Values over indices 1, 2, ...: explicit prefix, then residues mod q.

    The value at i > len(prefix) is residues[i % modulus].
    """

    prefix: Tuple[Q, ...]
    modulus: int
    residues: Tuple[Q, ...]

    def at(self, i: int) -> Q:
        if i < 1:
            raise ValueError("pattern index starts at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.residues[i % self.modulus]

    def collapse(self) -> Tuple[Tuple[Q, ...], Q] | None:
        """(prefix, tail) when the residues agree, else None."""
        vals = set(self.residues)
        if len(vals) != 1:
            return None
        return (self.prefix, next(iter(vals)))

    def all_values(self) -> list[Q]:
        return list(self.prefix) + list(self.residues)

    def __str__(self) -> str:
        body = ",".join(qstr(v) for v in self.prefix)
        res = ",".join(qstr(v) for v in self.residues)
        return f"({body}|mod{self.modulus}:{res})"


def tail_pattern(prefix, modulus: int, residues) -> TailPattern:
    """Canonical constructor: minimal modulus, minimal prefix."""
    pref = [qof(v) for v in prefix]
    res = [qof(v) for v in residues]
    if modulus < 1 or len(res) != modulus:
        raise ValueError("modulus must match the residue tuple")
    # reduce the modulus to the smallest divisor consistent with the values
    for d in sorted(_divisors(modulus)):
        if all(res[r] == res[r % d] for r in range(modulus)):
            res = res[:d]
            modulus = d
            break
    # trim prefix entries already explained by the pattern
    while pref and pref[-1] == res[len(pref) % modulus]:
        pref.pop()
    return TailPattern(tuple(pref), modulus, tuple(res))


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _tp_zip(a: TailPattern, b: TailPattern, op) -> TailPattern:
    width = max(len(a.prefix), len(b.prefix))
    mod = a.modulus * b.modulus // gcd(a.modulus, b.modulus)
    # align the explicit region to a residue boundary so residues line up
    width += (-width) % mod
    pref = [op(a.at(i), b.at(i)) for i in range(1, width + 1)]
    res = [op(a.at(width + j), b.at(width + j)) for j in range(1, mod + 1)]
    # residues are indexed by i % mod
    aligned = [Q(0)] * mod
    for j in range(1, mod + 1):
        aligned[(width + j) % mod] = res[j - 1]
    return tail_pattern(pref, mod, aligned)


def _tp_map(a: TailPattern, op) -> TailPattern:
    return tail_pattern([op(v) for v in a.prefix], a.modulus, [op(v) for v in a.residues])


def tp_scale(c: Q, a: TailPattern) -> TailPattern:
    return _tp_map(a, lambda v: c * v)


ZERO_TP = TailPattern((), 1, (Q(0),))


@dataclass(frozen=True)
class FinDevPattern:
    """extra off-line token values, a pattern on the token line, ambient."""

    extra: Tuple[Tuple[Token, Q], ...]
    line: TailPattern
    ambient: Q

    @cached_property
    def _by_token(self) -> dict:
        """extra values by token, built on first use; not a field."""
        return dict(self.extra)

    def at_token(self, tok: Token) -> Q:
        if tok in self._by_token:
            return self._by_token[tok]
        if tok.family == "g":
            return self.line.at(tok.k)
        return self.ambient

    def __str__(self) -> str:
        body = ",".join(f"{t}:{qstr(v)}" for t, v in self.extra)
        return f"{{{body}; line {self.line} | {qstr(self.ambient)}}}"


def findev_pattern(extra, line: TailPattern, ambient: QLike) -> FinDevPattern:
    amb = qof(ambient)
    kept = tuple(
        sorted(
            ((t, qof(v)) for t, v in (extra.items() if hasattr(extra, "items") else extra) if qof(v) != amb),
            key=lambda kv: atom_key(kv[0]),
        )
    )
    # fold line values equal to ambient into the pattern itself (no-op), keep canonical line
    return FinDevPattern(kept, tail_pattern(line.prefix, line.modulus, line.residues), amb)


@dataclass(frozen=True)
class RowBlockPattern:
    """Explicit rows then rows by residue class; each row a TailPattern."""

    rows: Tuple[TailPattern, ...]
    row_residues: Tuple[TailPattern, ...]

    @property
    def row_modulus(self) -> int:
        return len(self.row_residues)

    def row_at(self, n: int) -> TailPattern:
        if n <= len(self.rows):
            return self.rows[n - 1]
        return self.row_residues[n % self.row_modulus]

    def at(self, n: int, m: int) -> Q:
        return self.row_at(n).at(m)


def rowblock_pattern(rows, row_residues) -> RowBlockPattern:
    rows = list(rows)
    res = list(row_residues)
    if not res:
        raise ValueError("need at least one row residue pattern")
    for d in sorted(_divisors(len(res))):
        if all(res[r] == res[r % d] for r in range(len(res))):
            res = res[:d]
            break
    depth = len(rows)
    depth += (-depth) % len(res)
    while len(rows) < depth:
        rows.append(res[(len(rows) + 1) % len(res)])
    while rows and rows[-1] == res[len(rows) % len(res)]:
        rows.pop()
    return RowBlockPattern(tuple(rows), tuple(res))


def _rbp_zip(a: RowBlockPattern, b: RowBlockPattern, op) -> RowBlockPattern:
    depth = max(len(a.rows), len(b.rows))
    mod = a.row_modulus * b.row_modulus // gcd(a.row_modulus, b.row_modulus)
    depth += (-depth) % mod
    rows = [_tp_zip(a.row_at(n), b.row_at(n), op) for n in range(1, depth + 1)]
    res = [ZERO_TP] * mod
    for j in range(1, mod + 1):
        res[(depth + j) % mod] = _tp_zip(a.row_at(depth + j), b.row_at(depth + j), op)
    return rowblock_pattern(rows, res)


Pattern = Union[Element, TailPattern, FinDevPattern, RowBlockPattern]


@dataclass(frozen=True)
class CompletionElement:
    space: SpaceDesc
    pat: Pattern

    def is_zero(self) -> bool:
        return all(v == 0 for v in _values(self.pat))

    def __str__(self) -> str:
        return f"~{self.pat}"


def _values(pat: Pattern) -> list[Q]:
    """Every value a pattern stores, tails and ambients included."""
    if isinstance(pat, Element):
        return list(pat.coords)
    if isinstance(pat, TailPattern):
        return pat.all_values()
    if isinstance(pat, FinDevPattern):
        return [pat.ambient] + [v for _, v in pat.extra] + pat.line.all_values()
    return [v for row in pat.rows + pat.row_residues for v in row.all_values()]


def pattern_max_abs(ce: CompletionElement) -> Q:
    return max((abs(v) for v in _values(ce.pat)), default=Q(0))


# ---------------------------------------------------------------------------
# the pattern builder


def pattern_from_pieces(space: SpaceDesc, base: Element, pieces) -> CompletionElement:
    """base plus arithmetic-progression pieces, as a completion element.

    A line piece (step, first, value) adds value at the indices first,
    first + step, ... of the coordinate line (the integers of tail_seq and
    fin_dim, the g tokens of fin_dev).  A row-block piece (row_step,
    row_first, col_step, col_first, value) adds it at every cell whose row
    and column lie on the two progressions.  Step 0 means the one index
    first.
    """
    k = space.kind
    if k == Kind.FIN_DIM:
        if any(step for step, _, _ in pieces):
            raise StencilError("moving pieces cannot target a finite-dimensional space")
        parts = decompose(base) + [(("atom", first), v) for _, first, v in pieces]
        return CompletionElement(space, recompose(space, parts))
    if k == Kind.TAIL_SEQ:
        return CompletionElement(
            space, _line(dict(enumerate(base.prefix, start=1)), base.tail, pieces)
        )
    if k == Kind.FIN_DEV:
        on_line = {t.k: v for t, v in base.entries if t.family == "g"}
        extra = [(t, v) for t, v in base.entries if t.family != "g"]
        line = _line(on_line, base.ambient, pieces)
        return CompletionElement(space, findev_pattern(extra, line, base.ambient))
    rows = {n: (dict(enumerate(p, start=1)), rt) for n, (p, rt) in enumerate(base.rows, start=1)}

    def row(n: int) -> TailPattern:
        cells, rt = rows.get(n, ({}, base.tail))
        own = [(cs, cf, v) for rs, rf, cs, cf, v in pieces if _covers(rs, rf, n)]
        return _line(cells, rt, own)

    prefix, residues = _read_off(row, len(base.rows), [p[:2] for p in pieces])
    return CompletionElement(space, rowblock_pattern(prefix, residues))


def _line(cells: dict, default: Q, pieces) -> TailPattern:
    """The line pattern of the values `cells` (default elsewhere) plus line
    pieces."""

    def at(i: int) -> Q:
        v = cells.get(i, default)
        for step, first, value in pieces:
            if _covers(step, first, i):
                v = qadd(v, value)
        return v

    prefix, residues = _read_off(at, max(cells, default=0), [p[:2] for p in pieces])
    return tail_pattern(prefix, len(residues), residues)


def _read_off(value_at, width: int, progressions):
    """(prefix, residues) of an index function that is constant past width
    apart from the (step, first) progressions: the residue of i is at
    position i % modulus."""
    mod = lcm(1, *(step for step, _ in progressions if step))
    th = max([width] + [first for _, first in progressions])
    th += (-th) % mod
    residues = [None] * mod
    for i in range(th + 1, th + mod + 1):
        residues[i % mod] = value_at(i)
    return [value_at(i) for i in range(1, th + 1)], residues


def _covers(step: int, first: int, i: int) -> bool:
    if step == 0:
        return i == first
    return i >= first and (i - first) % step == 0


def embed(x: Element) -> CompletionElement:
    return pattern_from_pieces(x.space, x, ())


def _check_space(a: CompletionElement, b: CompletionElement) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"{a.space.label} vs {b.space.label}")


def _ce_zip(a: CompletionElement, b: CompletionElement, elem_op, op) -> CompletionElement:
    _check_space(a, b)
    pa, pb = a.pat, b.pat
    if isinstance(pa, Element):
        return CompletionElement(a.space, elem_op(pa, pb))
    if isinstance(pa, TailPattern):
        return CompletionElement(a.space, _tp_zip(pa, pb, op))
    if isinstance(pa, FinDevPattern):
        toks = {**pa._by_token, **pb._by_token}
        extra = {t: op(pa.at_token(t), pb.at_token(t)) for t in toks}
        line = _tp_zip(pa.line, pb.line, op)
        return CompletionElement(
            a.space, findev_pattern(extra, line, op(pa.ambient, pb.ambient))
        )
    return CompletionElement(a.space, _rbp_zip(pa, pb, op))


def ce_add(a: CompletionElement, b: CompletionElement) -> CompletionElement:
    return _ce_zip(a, b, add, lambda x, y: x + y)


def ce_sub(a: CompletionElement, b: CompletionElement) -> CompletionElement:
    return ce_add(a, ce_scale(Q(-1), b))


def ce_sup(a: CompletionElement, b: CompletionElement) -> CompletionElement:
    return _ce_zip(a, b, sup2, max)


def ce_scale(c: QLike, a: CompletionElement) -> CompletionElement:
    c_q = qof(c)
    pa = a.pat
    if isinstance(pa, Element):
        return CompletionElement(a.space, scale(c_q, pa))
    if isinstance(pa, TailPattern):
        return CompletionElement(a.space, tp_scale(c_q, pa))
    if isinstance(pa, FinDevPattern):
        return CompletionElement(
            a.space,
            findev_pattern(
                {t: c_q * v for t, v in pa.extra},
                tp_scale(c_q, pa.line),
                c_q * pa.ambient,
            ),
        )
    return CompletionElement(
        a.space,
        rowblock_pattern(
            [tp_scale(c_q, r) for r in pa.rows],
            [tp_scale(c_q, r) for r in pa.row_residues],
        ),
    )


def ce_pos(a: CompletionElement) -> CompletionElement:
    zero_ce = embed_zero(a.space)
    return ce_sup(a, zero_ce)


def embed_zero(space: SpaceDesc) -> CompletionElement:
    return embed(zero(space))


def ce_le(a: CompletionElement, b: CompletionElement) -> bool:
    _check_space(a, b)
    diff = ce_sub(b, a)
    return ce_is_nonneg(diff)


def ce_is_nonneg(a: CompletionElement) -> bool:
    return all(v >= 0 for v in _values(a.pat))


def in_space(a: CompletionElement) -> bool:
    return collapse(a) is not None


def collapse(a: CompletionElement) -> Element | None:
    """The element of the base space the pattern denotes, if it is one."""
    pa = a.pat
    if isinstance(pa, Element):
        return pa
    if isinstance(pa, TailPattern):
        c = pa.collapse()
        if c is None:
            return None
        return element_tail(a.space, c[0], c[1])
    if isinstance(pa, FinDevPattern):
        c = pa.line.collapse()
        if c is None or c[1] != pa.ambient:
            return None
        prefix, _ = c
        entries = dict(pa.extra)
        for i, v in enumerate(prefix, start=1):
            entries[gamma(i)] = v
        return element_findev(a.space, entries, pa.ambient)
    # row_block: every row beyond the explicit block must be the constant
    # background row, and that background must be a single value
    back = None
    for r in pa.row_residues:
        c = r.collapse()
        if c is None or c[0] != ():
            return None
        if back is None:
            back = c[1]
        elif back != c[1]:
            return None
    rows = []
    for r in pa.rows:
        c = r.collapse()
        if c is None:
            return None
        rows.append(c)
    if not a.space.row_units:
        if any(rt != back for _, rt in rows):
            return None
    return element_rowblock(a.space, rows, back)


def describe_pattern(a: CompletionElement) -> dict:
    """JSON-friendly description with deterministic ordering."""
    pa = a.pat
    if isinstance(pa, Element):
        return {"kind": "element", "value": render(pa)}
    if isinstance(pa, TailPattern):
        return {"kind": "tail_pattern", **_describe_line(pa)}
    if isinstance(pa, FinDevPattern):
        return {
            "kind": "fin_dev_pattern",
            "extra": [[str(t), qstr(v)] for t, v in pa.extra],
            "line": _describe_line(pa.line),
            "ambient": qstr(pa.ambient),
        }
    return {
        "kind": "row_block_pattern",
        "rows": [_describe_line(r) for r in pa.rows],
        "row_residues": [_describe_line(r) for r in pa.row_residues],
    }


def _describe_line(p: TailPattern) -> dict:
    return {
        "prefix": [qstr(v) for v in p.prefix],
        "modulus": p.modulus,
        "residues": [qstr(v) for v in p.residues],
    }
