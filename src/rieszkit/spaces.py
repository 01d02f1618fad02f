"""Space descriptors, the kind table, atom indices, and affine index forms.

Five space variants are supported, one row each of the kind table:

  findim(n) -- rational n-vectors, atoms e_1..e_n
  l0inf     -- eventually constant sequences, atoms e_1, e_2, ..., unit
  ck        -- finite-deviation functions over an uncountable discrete
               index plus a point at infinity; atoms are one-point
               indicators, the unit is the constant-one function
  ek        -- double sequences, eventually constant in the row index,
               every row eventually constant (atoms, row units, unit)
  grid      -- double sequences constant off a finite set (atoms, unit)

A `KindRow` holds every fact the engine reads about a variant (see its
fields); a `SpaceDesc` is a row plus the dimension of findim, and callers
read `space.row.<fact>` instead of switching on the kind.

The uncountable index set is symbolic: tokens g(1), g(2), ... form the
distinguished countable line used by sequences, and star(k) tokens are fresh
points guaranteed to avoid any finite or countable-line support in play.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Tuple, Union

from .records import record
from .errors import InvalidIndexError
from .scalars import Q, QLike, qof, qstr


class Kind(str, Enum):
    FIN_DIM = "fin_dim"
    TAIL_SEQ = "tail_seq"
    FIN_DEV = "fin_dev"
    ROW_BLOCK = "row_block"


@record
class KindRow:
    """One row of the kind table, one object per variant.  A row's repr is
    its label, so reprs of spaces carry no function addresses."""

    kind: Kind
    label: str  # formatted with the dimension
    form: type  # SeqForm, TokenForm or PairForm
    shape: str  # the payload shape in `elements`: line, fin_dev or row_block
    check_atom: Callable  # (idx, dim) -> None, raises InvalidIndexError
    row_units: bool = False
    # operators and functionals from the space are representable exactly
    # when its atoms are countable, and fresh points exist exactly otherwise
    countable: bool = True
    enumerated: bool = False  # atoms e_1, e_2, ...: partial sums make sense
    sequence: bool = False  # enumerated and infinite: the eventually constant sequences
    atom_span_codim: int | None = 1  # of the uniform closure; None = infinite
    uniformly_complete: bool = False
    order_complete: bool = False

    def __repr__(self) -> str:
        return f"KindRow({self.label.format('n')!r})"


@record
class SpaceDesc:
    row: KindRow
    dim: int = 0  # findim only

    @property
    def kind(self) -> Kind:
        return self.row.kind

    @property
    def row_units(self) -> bool:
        return self.row.row_units

    @property
    def label(self) -> str:
        return self.row.label.format(self.dim)


@record(order=True)
class Token:
    """A symbolic point of the uncountable index set."""

    family: str  # "g" (the countable line) or "star" (fresh points)
    k: int

    def __hash__(self) -> int:
        return self.k  # cheaper than the field tuple's; __eq__ tells g(k) from star(k)

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


@record
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

    def solve(self, v: int) -> int | None:
        """The integer n with a*n + b == v for a moving form, or None."""
        a, b = self.a, self.b
        if a.denominator == 1 and b.denominator == 1:
            n, r = divmod(v - b.numerator, a.numerator)
            return None if r else n
        n = (v - b) / a
        return n.numerator if n.denominator == 1 else None

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
    """The step n >= 1 with p(n) == q(n), or None: forms are read at the
    steps n >= 1 only (identical forms return None too)."""
    if p.a == q.a:
        return None
    n = (q.b - p.b) / (p.a - q.a)
    if n.denominator != 1 or n.numerator < 1:
        return None
    return n.numerator


@record
class SeqForm:
    """Coordinate form over integer coordinates (tail_seq / fin_dim)."""

    idx: Affine

    def at(self, n: int) -> int:
        return self.idx.at_int(n)

    def step_of(self, idx: int) -> int | None:
        """The step n at which a moving form reads idx, or None."""
        return self.idx.solve(idx)

    @property
    def moving(self) -> bool:
        return self.idx.moving

    def __str__(self) -> str:
        return str(self.idx)


@record
class TokenForm:
    """Coordinate form over the countable token line: n -> g(idx(n))."""

    idx: Affine

    def at(self, n: int) -> Token:
        return gamma(self.idx.at_int(n))

    def step_of(self, idx: Token) -> int | None:
        """The step n at which a moving form reads idx, or None: star
        tokens lie off the line."""
        return self.idx.solve(idx.k) if idx.family == "g" else None

    @property
    def moving(self) -> bool:
        return self.idx.moving

    def __str__(self) -> str:
        return f"g({self.idx})"


@record
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
    is finite; identical forms are merged before this is consulted, and
    both forms fit one space, so they are of one type.
    """
    pairs = [(f.row, g.row), (f.col, g.col)] if isinstance(f, PairForm) else [(f.idx, g.idx)]
    sols = [_affine_solutions(p, q) for p, q in pairs]
    if any(kind == "none" for kind, _ in sols):
        return []
    # no single step when every component agrees everywhere (identical forms,
    # handled by merging) or when two components meet at different steps
    singles = {n for kind, n in sols if kind == "one"}
    if len(singles) != 1:
        return []
    return [singles.pop()]


def form_space_matches(form: CoordForm, space: SpaceDesc) -> bool:
    return type(form) is space.row.form


# ---------------------------------------------------------------------------
# the kind table


def _check_line_atom(idx, dim: int) -> None:
    """Atoms e_1, e_2, ..., up to the dimension when there is one."""
    if not isinstance(idx, int) or idx < 1 or (dim and idx > dim):
        raise InvalidIndexError(f"atom index {idx!r} out of range")


def _check_token_atom(idx, dim: int) -> None:
    if not isinstance(idx, Token):
        raise InvalidIndexError("fin_dev atoms are indexed by tokens")


def _check_pair_atom(idx, dim: int) -> None:
    if not (isinstance(idx, tuple) and len(idx) == 2 and min(idx) >= 1):
        raise InvalidIndexError(f"row_block atom index {idx!r} out of range")


FINDIM = KindRow(Kind.FIN_DIM, "findim({})", SeqForm, "line", _check_line_atom,
                 enumerated=True, atom_span_codim=0, uniformly_complete=True,
                 order_complete=True)
# the unit spans the quotient by the atom span; dyadic staircases are
# uniformly Cauchy with no eventually constant limit
L0INF = KindRow(Kind.TAIL_SEQ, "l0inf", SeqForm, "line", _check_line_atom,
                enumerated=True, sequence=True)
# a sup-norm lattice over an uncountable index
CK = KindRow(Kind.FIN_DEV, "ck", TokenForm, "fin_dev", _check_token_atom,
             countable=False, uniformly_complete=True)
# each row unit survives the closure of the atom span independently
EK = KindRow(Kind.ROW_BLOCK, "ek", PairForm, "row_block", _check_pair_atom,
             row_units=True, atom_span_codim=None)
GRID = KindRow(Kind.ROW_BLOCK, "grid", PairForm, "row_block", _check_pair_atom)


def fin_dim(n: int) -> SpaceDesc:
    if n < 1:
        raise InvalidIndexError("fin_dim dimension must be >= 1")
    return SpaceDesc(FINDIM, n)


def tail_seq() -> SpaceDesc:
    return SpaceDesc(L0INF)


def fin_dev() -> SpaceDesc:
    return SpaceDesc(CK)


def row_block_ek() -> SpaceDesc:
    return SpaceDesc(EK)


def row_block_grid() -> SpaceDesc:
    return SpaceDesc(GRID)


_LABELS = {row.label: SpaceDesc(row) for row in (L0INF, CK, EK, GRID)}


def parse_space_label(label: str) -> SpaceDesc:
    label = label.strip()
    if label in _LABELS:
        return _LABELS[label]
    if label.startswith("findim(") and label.endswith(")") and label[7:-1].isdecimal():
        return fin_dim(int(label[7:-1]))
    raise InvalidIndexError(f"unknown space kind {label!r}")
