"""Space descriptors, atom indices, and affine index forms.

Four representable space kinds are supported:

  fin_dim(n)       -- rational n-vectors, atoms e_1..e_n
  tail_seq()       -- eventually constant sequences, atoms e_1, e_2, ..., unit
  fin_dev()        -- finite-deviation functions over an uncountable discrete
                      index plus a point at infinity; atoms are one-point
                      indicators, the unit is the constant-one function
  row_block_ek()   -- double sequences, eventually constant in the row index,
                      every row eventually constant (atoms, row units, unit)
  row_block_grid() -- double sequences constant off a finite set (atoms, unit)

The uncountable index set is symbolic: tokens g(1), g(2), ... form the
distinguished countable line used by sequences, and star(k) tokens are fresh
points guaranteed to avoid any finite or countable-line support in play.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple, Union

from .errors import InvalidIndexError
from .scalars import Q, QLike, qof, qstr


class Kind(str, Enum):
    FIN_DIM = "fin_dim"
    TAIL_SEQ = "tail_seq"
    FIN_DEV = "fin_dev"
    ROW_BLOCK = "row_block"


@dataclass(frozen=True)
class SpaceDesc:
    kind: Kind
    dim: int = 0
    row_units: bool = False

    @property
    def label(self) -> str:
        if self.kind == Kind.FIN_DIM:
            return f"findim({self.dim})"
        if self.kind == Kind.TAIL_SEQ:
            return "l0inf"
        if self.kind == Kind.FIN_DEV:
            return "ck"
        return "ek" if self.row_units else "grid"


def fin_dim(n: int) -> SpaceDesc:
    if n < 1:
        raise InvalidIndexError("fin_dim dimension must be >= 1")
    return SpaceDesc(Kind.FIN_DIM, dim=n)


def tail_seq() -> SpaceDesc:
    return SpaceDesc(Kind.TAIL_SEQ)


def fin_dev() -> SpaceDesc:
    return SpaceDesc(Kind.FIN_DEV)


def row_block_ek() -> SpaceDesc:
    return SpaceDesc(Kind.ROW_BLOCK, row_units=True)


def row_block_grid() -> SpaceDesc:
    return SpaceDesc(Kind.ROW_BLOCK, row_units=False)


_KIND_LABELS = {
    "l0inf": tail_seq,
    "ck": fin_dev,
    "ek": row_block_ek,
    "grid": row_block_grid,
}


def parse_space_label(label: str) -> SpaceDesc:
    label = label.strip()
    if label in _KIND_LABELS:
        return _KIND_LABELS[label]()
    if label.startswith("findim(") and label.endswith(")"):
        return fin_dim(int(label[7:-1]))
    raise InvalidIndexError(f"unknown space kind {label!r}")


@dataclass(frozen=True, order=True)
class Token:
    """A symbolic point of the uncountable index set."""

    family: str  # "g" (the countable line) or "star" (fresh points)
    k: int

    def __str__(self) -> str:
        return f"{self.family}({self.k})"


def gamma(k: int) -> Token:
    if k < 1:
        raise InvalidIndexError("line tokens are indexed from 1")
    return Token("g", k)


def fresh_star(used: Iterable[Token]) -> Token:
    """Smallest star token not appearing in `used` (deterministic)."""
    taken = {t.k for t in used if t.family == "star"}
    k = 1
    while k in taken:
        k += 1
    return Token("star", k)


AtomIndex = Union[int, Token, Tuple[int, int]]


def atom_key(idx: AtomIndex):
    """Sort key giving a deterministic order to mixed atom indices."""
    if isinstance(idx, int):
        return (0, idx, 0, "")
    if isinstance(idx, Token):
        return (1, idx.k, 0, idx.family)
    return (2, idx[0], idx[1], "")


def atom_str(idx: AtomIndex) -> str:
    if isinstance(idx, int):
        return f"e({idx})"
    if isinstance(idx, Token):
        return str(idx)
    return f"e({idx[0]},{idx[1]})"


@dataclass(frozen=True)
class Affine:
    """n -> a*n + b with rational coefficients; integrality is contextual."""

    a: Q
    b: Q

    def at(self, n: int) -> Q:
        return self.a * n + self.b

    def at_int(self, n: int) -> int:
        a, b = self.a, self.b
        if a.denominator == 1 and b.denominator == 1:
            return a.numerator * n + b.numerator
        v = self.at(n)
        if v.denominator != 1:
            raise InvalidIndexError(f"index form {self} is not integral at n={n}")
        return v.numerator

    @property
    def moving(self) -> bool:
        return self.a > 0

    def __str__(self) -> str:
        if self.a == 0:
            return qstr(self.b)
        an = "n" if self.a == 1 else f"{qstr(self.a)}n"
        if self.b == 0:
            return an
        sign = "+" if self.b > 0 else "-"
        return f"{an}{sign}{qstr(abs(self.b))}"


def affine(a: QLike, b: QLike) -> Affine:
    return Affine(qof(a), qof(b))


def affine_intersection(p: Affine, q: Affine) -> int | None:
    """Integer n with p(n) == q(n), or None (identical forms return None too)."""
    if p.a == q.a:
        return None
    n = (q.b - p.b) / (p.a - q.a)
    if n.denominator != 1:
        return None
    return n.numerator


@dataclass(frozen=True)
class SeqForm:
    """Coordinate form over integer coordinates (tail_seq / fin_dim)."""

    idx: Affine

    def at(self, n: int) -> int:
        return self.idx.at_int(n)

    @property
    def moving(self) -> bool:
        return self.idx.moving

    def __str__(self) -> str:
        return str(self.idx)


@dataclass(frozen=True)
class TokenForm:
    """Coordinate form over the countable token line: n -> g(idx(n))."""

    idx: Affine

    def at(self, n: int) -> Token:
        return gamma(self.idx.at_int(n))

    @property
    def moving(self) -> bool:
        return self.idx.moving

    def __str__(self) -> str:
        return f"g({self.idx})"


@dataclass(frozen=True)
class PairForm:
    """Coordinate form over pair atoms: n -> (row(n), col(n))."""

    row: Affine
    col: Affine

    def at(self, n: int) -> Tuple[int, int]:
        return (self.row.at_int(n), self.col.at_int(n))

    @property
    def moving(self) -> bool:
        return self.row.moving or self.col.moving

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


CoordForm = Union[SeqForm, TokenForm, PairForm]


def seq_form(a: QLike, b: QLike) -> SeqForm:
    return SeqForm(affine(a, b))


def token_form(a: QLike, b: QLike) -> TokenForm:
    return TokenForm(affine(a, b))


def pair_form(row_a: QLike, row_b: QLike, col_a: QLike, col_b: QLike) -> PairForm:
    return PairForm(affine(row_a, row_b), affine(col_a, col_b))


def _affine_solutions(p: Affine, q: Affine) -> tuple[str, int | None]:
    """Solution set of p(n) == q(n) over integers: ("all"|"one"|"none", n)."""
    if p.a == q.a:
        return ("all", None) if p.b == q.b else ("none", None)
    n = affine_intersection(p, q)
    return ("one", n) if n is not None else ("none", None)


def forms_collide_at(f: CoordForm, g: CoordForm) -> list[int]:
    """Steps n >= 1 where two distinct atom forms hit the same coordinate.

    Distinct affine forms alias at most once per component, so the result
    is finite; identical forms are merged before this is consulted.
    """
    if type(f) is not type(g):
        return []
    if isinstance(f, PairForm):
        row = _affine_solutions(f.row, g.row)
        col = _affine_solutions(f.col, g.col)
        sets = [row, col]
        if any(s[0] == "none" for s in sets):
            return []
        singles = [s[1] for s in sets if s[0] == "one"]
        if not singles:  # both "all": identical forms, handled by merging
            return []
        if len(set(singles)) > 1:
            return []
        n = singles[0]
        return [n] if n is not None and n >= 1 else []
    kind, n = _affine_solutions(f.idx, g.idx)
    if kind == "one" and n is not None and n >= 1:
        return [n]
    return []


def form_space_matches(form: CoordForm, space: SpaceDesc) -> bool:
    if space.kind in (Kind.TAIL_SEQ, Kind.FIN_DIM):
        return isinstance(form, SeqForm)
    if space.kind == Kind.FIN_DEV:
        return isinstance(form, TokenForm)
    return isinstance(form, PairForm)
