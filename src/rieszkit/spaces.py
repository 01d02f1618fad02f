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

A coordinate form (`SeqForm`, `TokenForm`, `PairForm`, components `Affine`)
is read two ways.  Along a sequence, step n reads `at(n)`: a pair form reads
n -> (row(n), col(n)).  In a stencil rule, an entry sends an atom to
`image(idx)`: a pair form sends the atom (n, m) to (row(n), col(m)), its row
form reading the free row variable and its column form the rule's driving
index m; a line form reads the atom i as the sequence reads step i.  Each
form class owns both readings: `preimage` inverts the rule reading,
`collides_at` and `meets` give where two forms meet along a sequence and in
a rule, `piece` is the pattern piece a rule entry sweeps, `leak` the
coordinate a stationary entry keeps hitting and `check_rule` refuses an
entry that leaves the index set; `SeqForm` and `TokenForm` share them
through `idx`.  A pair form's `compose` is its entry applied to a sequence
of atoms, whose column `drive` reads.

A component `Affine` n -> (p*n + q) / d is three integers in lowest terms
with d >= 1, so equal forms have equal fields.  Every reading above, and
hashing and equality, computes on them; `affine` takes the rational slope
and offset, and only `repr` writes them back as rationals.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Callable, Iterable, Tuple, Union

from .records import record
from .errors import InvalidIndexError, PreconditionError, StencilError
from .scalars import Q, QLike, qof


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
    shape, k, col, family = atom_key(idx)
    return (f"e({k})", f"{family}({k})", f"e({k},{col})")[shape]


@record
class Affine:
    """n -> (p*n + q) / d, d >= 1 and gcd(p, q, d) = 1: the slope p/d and
    offset q/d of `affine`, read on integers.  Integrality is contextual."""

    p: int
    q: int
    d: int

    def at_int(self, n: int) -> int:
        v, r = divmod(self.p * n + self.q, self.d)
        if r:
            raise InvalidIndexError(f"index form {self} is not integral at n={n}")
        return v

    def step(self, k: int = 1) -> int:
        """The slope times k, an integer where the caller reads it."""
        return self.p * k // self.d

    @property
    def moving(self) -> bool:
        return self.p > 0

    def meet(self, other: Affine) -> int | None:
        """The step n >= 1 with self(n) == other(n), or None: forms are read
        at the steps n >= 1 only (identical forms return None too)."""
        slope = self.p * other.d - other.p * self.d
        if not slope:
            return None
        n, r = divmod(other.q * self.d - self.q * other.d, slope)
        return None if r or n < 1 else n

    def preimage(self, v: int) -> int | None:
        """The integer n with (p*n + q) / d == v, or None.  A stationary form
        equal to v reads it at every n, which no locally finite rule does.
        Any integer: a fill that `normalize` re-indexes reads its line from
        0."""
        p, q = self.p, self.q
        if not p:
            if q == v * self.d:
                raise PreconditionError("rule is not locally finite")
            return None
        n, r = divmod(v * self.d - q, p)
        return None if r else n

    def first_off(self, s: int, top: int = 0, modulus: int = 1) -> int | None:
        """The first n = s + modulus * j, j >= 0, at which the form is not an
        integer in 1..top (top 0: no upper end), or None.  In j the form is
        integral everywhere if at j = 0 and 1, and it leaves 1..top where
        a j + b > 0 for one of two linear (a, b)."""
        f = self.compose(Affine(modulus, s, 1))
        p, q, d = f.p, f.q, f.d
        offs = [j for j in (0, 1) if (p * j + q) % d]
        for a, b in [(-p, d - q)] + ([(p, q - top * d)] if top else []):
            offs += [0] if b > 0 else [-b // a + 1] if a > 0 else []
        return s + modulus * min(offs) if offs else None

    def compose(self, inner: Affine) -> Affine:
        """n -> self(inner(n))."""
        return _canonical(self.p * inner.p, self.p * inner.q + self.q * inner.d,
                          self.d * inner.d)

    def check_class(self, modulus: int, residue: int, first: int, finite: bool) -> None:
        """Refuse this form as a rule component driven by the rule variable
        over its residue class from `first` on; `finite` is a
        finite-dimensional codomain."""
        p, q, d = self.p, self.q, self.d
        if p < 0:
            raise StencilError(f"index form {self} eventually leaves the index set")
        if p * modulus % d or (p * residue + q) % d:
            raise StencilError(f"index form {self} is not integral on its class")
        if p * first + q < d:
            raise StencilError(f"index form {self} leaves the index set at i={first}")
        if finite and p:
            raise StencilError("moving forms cannot target a finite-dimensional space")

    def __str__(self) -> str:
        p, q, d = self.p, self.q, self.d
        if not p:
            return _ratio(q, d)
        an = "n" if p == d else f"{_ratio(p, d)}n"
        if not q:
            return an
        return f"{an}{'+' if q > 0 else '-'}{_ratio(abs(q), d)}"

    def __repr__(self) -> str:
        return f"Affine(a={Q(self.p, self.d)!r}, b={Q(self.q, self.d)!r})"


def _canonical(p: int, q: int, d: int) -> Affine:
    """The form (p*n + q) / d, d >= 1, in lowest terms."""
    g = gcd(p, q, d)
    return Affine(p // g, q // g, d // g)


def _ratio(num: int, den: int) -> str:
    """num/den as `qstr` writes it: "p" for integers, "p/q" otherwise."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def affine(a: QLike, b: QLike) -> Affine:
    """The form n -> a*n + b."""
    if type(a) is int and type(b) is int:
        return Affine(a, b, 1)
    (pa, da), (pb, db) = qof(a).as_integer_ratio(), qof(b).as_integer_ratio()
    return _canonical(pa * db, pb * da, da * db)


def _on_class(n: int | None, threshold: int, modulus: int, residue: int) -> int | None:
    """n when it is a driving index past the threshold in the residue class."""
    return n if n is not None and n > threshold and n % modulus == residue else None


class _LineForm:
    """What the two forms over one line of coordinates share: in a rule the
    atom i reads the coordinate the sequence reads at step i, so every job
    is one job on the component `idx`."""

    @property
    def moving(self) -> bool:
        return self.idx.moving

    def image(self, i: int):
        return self.at(i)

    def collides_at(self, other) -> int | None:
        return self.idx.meet(other.idx)

    def meets(self, other, threshold: int, modulus: int, residue: int) -> int | None:
        return _on_class(self.idx.meet(other.idx), threshold, modulus, residue)

    def check_rule(self, modulus: int, residue: int, first: int, finite: bool) -> None:
        self.idx.check_class(modulus, residue, first, finite)

    def piece(self, modulus: int, first: int, value: Q, row: int | None) -> tuple:
        return (self.idx.step(modulus), self.idx.at_int(first), value)

    def leak(self, first: int):
        return None if self.moving else self.at(first)

    def first_off(self, s: int, dim: int, modulus: int = 1) -> int | None:
        """The first step from s in its class that reads no atom of the space."""
        return self.idx.first_off(s, dim, modulus)


@record
class SeqForm(_LineForm):
    """Coordinate form over integer coordinates (tail_seq / fin_dim)."""

    idx: Affine

    def at(self, n: int) -> int:
        return self.idx.at_int(n)

    def preimage(self, idx: int) -> int | None:
        return self.idx.preimage(idx)

    def __str__(self) -> str:
        return str(self.idx)


@record
class TokenForm(_LineForm):
    """Coordinate form over the countable token line: n -> g(idx(n))."""

    idx: Affine

    def at(self, n: int) -> Token:
        return gamma(self.idx.at_int(n))

    def preimage(self, idx: Token) -> int | None:
        """Star tokens lie off the line."""
        return self.idx.preimage(idx.k) if idx.family == "g" else None

    def __str__(self) -> str:
        return f"g({self.idx})"


@record
class PairForm:
    """Coordinate form over pair atoms.  Along a sequence it reads
    n -> (row(n), col(n)); in a rule it sends the atom (n, m) to
    (row(n), col(m)), the row form reading the free row variable over the
    rows 1, 2, ... and the column form the driving index m."""

    row: Affine
    col: Affine

    def at(self, n: int) -> Tuple[int, int]:
        return (self.row.at_int(n), self.col.at_int(n))

    @property
    def moving(self) -> bool:
        return self.row.moving or self.col.moving

    @property
    def drive(self) -> Affine:
        """The driving index of the atom read at step n."""
        return self.col

    def image(self, idx: Tuple[int, int]) -> Tuple[int, int]:
        return (self.row.at_int(idx[0]), self.col.at_int(idx[1]))

    def preimage(self, idx: Tuple[int, int]) -> Tuple[int, int] | None:
        """The atom (n, m) with image idx, n a row; the caller holds m past
        the threshold."""
        n = self.row.preimage(idx[0])
        if n is None or n < 1:
            return None
        m = self.col.preimage(idx[1])
        return None if m is None else (n, m)

    def collides_at(self, other: PairForm) -> int | None:
        """The one step where every component that differs meets."""
        steps = {p.meet(q) for p, q in ((self.row, other.row), (self.col, other.col))
                 if p != q}
        return steps.pop() if len(steps) == 1 and None not in steps else None

    def row_meet(self, other: PairForm) -> int | None:
        return self.row.meet(other.row)

    def meets(self, other: PairForm, threshold: int, modulus: int, residue: int) -> int | None:
        """The class's first driving index for two entries that meet on a
        row at every column."""
        if self.row != other.row and self.row_meet(other) is None:
            return None
        if self.col == other.col:
            return threshold + 1 + (residue - threshold - 1) % modulus
        return _on_class(self.col.meet(other.col), threshold, modulus, residue)

    def check_rule(self, modulus: int, residue: int, first: int, finite: bool) -> None:
        row = self.row
        if row.p < 0:
            raise StencilError(f"index form {row} eventually leaves the index set")
        if row.d != 1:
            raise StencilError(f"row form {row} is not integral")
        if row.at_int(1) < 1:
            raise StencilError(f"row form {row} leaves the index set")
        self.col.check_class(modulus, residue, first, finite)

    def piece(self, modulus: int, first: int, value: Q, row: int | None) -> tuple:
        """(row_step, row_first, col_step, col_first, value), over one row
        when row is given."""
        col = (self.col.step(modulus), self.col.at_int(first), value)
        if row is None:
            return (self.row.step(), self.row.at_int(1)) + col
        return (0, self.row.at_int(row)) + col

    def leak(self, first: int) -> Tuple[int, int] | None:
        if self.row.moving and self.col.moving:
            return None
        return (self.row.at_int(1), self.col.at_int(first))

    def first_off(self, s: int, dim: int, modulus: int = 1) -> int | None:
        offs = [n for a in (self.row, self.col) if (n := a.first_off(s, 0, modulus)) is not None]
        return min(offs, default=None)

    def compose(self, inner: PairForm) -> PairForm:
        return PairForm(self.row.compose(inner.row), self.col.compose(inner.col))

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


CoordForm = Union[SeqForm, TokenForm, PairForm]


def seq_form(a: QLike, b: QLike) -> SeqForm:
    return SeqForm(affine(a, b))


def token_form(a: QLike, b: QLike) -> TokenForm:
    return TokenForm(affine(a, b))


def pair_form(row_a: QLike, row_b: QLike, col_a: QLike, col_b: QLike) -> PairForm:
    return PairForm(affine(row_a, row_b), affine(col_a, col_b))


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
