"""Symbolically represented element sequences.

An ElementSeq denotes (x_n) for n >= 1 through four components:

  static   -- a fixed element added at every step
  atoms    -- finitely many (coordinate form, coefficient sequence) pairs;
              the form is affine in n (a stationary form has slope zero,
              a moving form strictly escapes every finite coordinate set)
  fills    -- accumulation terms: a fill contributes `value` at every
              coordinate form(k) with k in a residue class, kmin <= k <= n-lag
              (these are the closed forms of stencil partial sums)
  ambient  -- a scalar sequence multiplying the unit at every step

For n < n0 an explicit prelude overrides the symbolic form, so evaluation is
exact at every index.  All decision procedures work from two facts about
this class: for a fixed coordinate the value sequence is eventually constant
(or a harmonic multiple), and the coordinatewise limits form a representable
completion pattern.

Every element this module produces is one `recompose` over generator parts,
and the limit pattern is one `pattern_from_pieces` call: the base element
collects the static part, the ambient limit and the stationary atoms, and
each fill is a piece: `eval_seq` builds a symbolic step as the
`recompose` of its parts.  The static part is the same at every step, so a
sequence decomposes it once, on first use.  A symbolic step is its static
parts followed by `moving_parts` (the unit term and the atom and fill
hits).  This module alone reads a step in the probe walks: each
pointwise check of the verifiers is one `walk_failure`, b_{n+1} <= b_n one
`decreasing_failure`, and both read a step by its difference from the step
before (`StepWalk`), building one only at the walk's whole steps.
"""

from __future__ import annotations

from functools import cached_property
from math import inf
from typing import Tuple

from .records import record, replace
from .errors import InvalidIndexError, SpaceMismatchError, StencilError
from .scalars import Q, Q0, QLike, RationalSeq, ZERO_SEQ, qadd, qeq, qof, qsub
from .spaces import (
    CoordForm,
    PairForm,
    SpaceDesc,
    affine,
    atom_key,
    form_space_matches,
)
from .elements import (
    Element,
    coordinate_reader,
    decompose,
    holds,
    le,
    max_abs_coord,
    nonpositive,
    recompose,
    sub,
    zero,
)
from .completion import pattern_from_pieces

MovingAtom = Tuple[CoordForm, RationalSeq]


@record
class Fill:
    """Accumulated coordinates {form(k) : k ≡ residue (mod modulus), kmin <= k <= n-lag}."""

    form: CoordForm
    modulus: int
    residue: int
    kmin: int
    lag: int
    value: Q

    def ks_at(self, n: int) -> list[int]:
        top = n - self.lag
        if top < self.kmin:
            return []
        first = self.kmin + ((self.residue - self.kmin) % self.modulus)
        return list(range(first, top + 1, self.modulus))

    def hit_at(self, n: int) -> int | None:
        """The one k a step n adds, k = n - lag when it lies in the class,
        or None."""
        k = n - self.lag
        return k if k >= self.kmin and (k - self.residue) % self.modulus == 0 else None

    def covers(self, idx, n: int) -> bool:
        """Whether step n holds a hit at the coordinate idx, through the
        form's inverse."""
        k = self.form.preimage(idx)
        return (k is not None and self.kmin <= k <= n - self.lag
                and (k - self.residue) % self.modulus == 0)


def fill(form: CoordForm, modulus: int, residue: int, kmin: int, lag: int, value: QLike) -> Fill:
    if modulus < 1 or not 0 <= residue < modulus:
        raise StencilError("bad fill residue class")
    if isinstance(form, PairForm):
        raise StencilError("row_block fills are not supported")
    if not form.idx.moving:
        raise StencilError("fill forms must be strictly moving")
    return Fill(form, modulus, residue, max(kmin, 1), lag, qof(value))


@record
class ElementSeq:
    space: SpaceDesc
    static: Element
    atoms: Tuple[MovingAtom, ...]
    fills: Tuple[Fill, ...]
    ambient: RationalSeq
    n0: int = 1
    prelude: Tuple[Element, ...] = ()

    @cached_property
    def _static_parts(self) -> tuple:
        """`decompose(static)`, built on first use; not a field."""
        return tuple(decompose(self.static))


def element_seq(
    space: SpaceDesc,
    static: Element | None = None,
    atoms=(),
    fills=(),
    ambient: RationalSeq | None = None,
    n0: int = 1,
    prelude=(),
) -> ElementSeq:
    """Canonical constructor: validates forms, merges duplicates, and pushes
    the prelude past any aliasing of distinct atom forms."""
    static = static if static is not None else zero(space)
    if static.space != space:
        raise SpaceMismatchError("static part lives in the wrong space")
    ambient = ambient if ambient is not None else ZERO_SEQ
    if ambient.h:
        raise StencilError("ambient sequences must be eventually constant")
    merged: list[MovingAtom] = []
    for form, coeff in atoms:
        if not form_space_matches(form, space):
            raise SpaceMismatchError(f"atom form {form} does not fit {space.label}")
        for i, (f2, c2) in enumerate(merged):
            if f2 == form:
                merged[i] = (f2, c2.add(coeff))
                break
        else:
            merged.append((form, coeff))
    merged = [(f, c) for f, c in merged if not c.is_zero()]
    fills = tuple(f for f in fills if f.value != 0)
    for f in fills:
        if not form_space_matches(f.form, space):
            raise SpaceMismatchError(f"fill form {f.form} does not fit {space.label}")
    # distinct forms may alias at finitely many steps; hide those behind the
    # prelude so symbolic reasoning can assume injective supports
    collide = 0
    for i, (f1, _) in enumerate(merged):
        for f2, _ in merged[i + 1 :]:
            n = f1.collides_at(f2)
            if n is not None:
                collide = max(collide, n + 1)
    seq = ElementSeq(space, static, tuple(merged), fills, ambient, n0, tuple(prelude))
    if collide > seq.n0:
        pre = [
            (prelude[k] if k < len(seq.prelude)
             else recompose(space, _eval_symbolic(seq, k + 1)))
            for k in range(collide - 1)
        ]
        seq = replace(seq, n0=collide, prelude=tuple(pre))
    if len(seq.prelude) != seq.n0 - 1:
        raise StencilError("prelude must cover exactly the steps below n0")
    return seq


def _eval_symbolic(seq: ElementSeq, n: int) -> list:
    """The generator parts of the symbolic value at step n (ignores the
    prelude)."""
    return [*seq._static_parts, *moving_parts(seq, n)]


def _atom_hits(seq: ElementSeq, n: int) -> dict:
    """{coordinate: summed coefficient} of the atoms at step n; a zero
    coefficient reads no coordinate, and a constant one past its prefix is
    its tail, read without a call."""
    hits: dict = {}
    for form, coeff in seq.atoms:
        c = coeff.tail if not coeff.h and n > len(coeff.prefix) else coeff.at(n)
        if c is not Q0 and c:
            idx = form.at(n)
            hits[idx] = qadd(hits.get(idx, Q0), c)
    return hits


def moving_parts(seq: ElementSeq, n: int) -> list:
    """The symbolic step n less the static part, as generator parts: the
    ambient's unit term, then the atom and fill hits in atom order."""
    hits = _atom_hits(seq, n)
    for f in seq.fills:
        for k in f.ks_at(n):
            idx = f.form.at(k)
            hits[idx] = qadd(hits.get(idx, Q0), f.value)
    return [(("unit",), seq.ambient.at(n)), *_atom_parts(hits.items())]


def _atom_parts(hits) -> list:
    """Generator parts of (atom index, coefficient) pairs, in atom order."""
    ordered = sorted(hits, key=lambda kv: atom_key(kv[0]))
    return [(("atom", idx), v) for idx, v in ordered if v is not Q0 and v]


def eval_seq(seq: ElementSeq, n: int) -> Element:
    """x_n: the stored prelude element, or the `recompose` of the symbolic
    step's generator parts."""
    if n < 1:
        raise ValueError("sequence index starts at 1")
    if n < seq.n0:
        return seq.prelude[n - 1]
    return recompose(seq.space, _eval_symbolic(seq, n))


def check_indices(seq: ElementSeq) -> None:
    """Raise what the first symbolic step holding an index out of range
    raises.  Each form leaves the index set at a step it computes
    (`first_off`), a fill's over its class from its first hit; an atom is
    read there only when its coefficient is nonzero, which from the settle
    bound on it is everywhere or nowhere."""
    dim, bad = seq.space.dim, []
    for form, coeff in seq.atoms:
        n = form.first_off(seq.n0, dim)
        while n is not None and not coeff.at(n):
            n = None if n >= coeff.settle_bound() else form.first_off(n + 1, dim)
        if n is not None:
            bad.append(n)
    for f in seq.fills:
        k = f.form.first_off(f.kmin + (f.residue - f.kmin) % f.modulus, dim, f.modulus)
        if k is not None:
            bad.append(max(seq.n0, k + f.lag))
    for n in sorted(bad):
        eval_seq(seq, n)  # raises the whole step's error


# ---------------------------------------------------------------------------
# the step walk


class StepWalk:
    """x_n for n = first, first + 1, ..., each step read by its difference
    from the step before, without building x_n.

    `whole(n)` says the caller must compare step n whole, as `value(n)`: the
    walk's first step, a prelude step, the first symbolic step n0, and a
    step where the ambient changes.  Any other step differs from step n - 1
    only at the coordinates `step(n)` returns: the old and new coordinate of
    an atom whose coordinate or coefficient moved, and each fill's one new
    hit k = n - lag.  Every other coordinate, tail and ambient slot keeps
    its value, so a comparison that held at step n - 1 holds at step n off
    those coordinates.  `at(idx)` then reads x_n at one coordinate: the
    static value, the ambient, the atoms there and the fill hits there,
    each fill through its form's inverse.  A step costs O(atoms + fills),
    so a walk costs O(window * (atoms + fills)), not O(window^2): the
    difference walks each step's atom hits once, and an eventually constant
    coefficient past its prefix is read as its tail, with no
    `RationalSeq.at` call (`_atom_hits`).

    The steps must be taken in order, `step` only at a step that is not
    whole; the atom hits of a whole step are read again at the next step,
    from the same terms the caller's whole comparison has already read.
    """

    def __init__(self, seq: ElementSeq, first: int = 1):
        self.seq, self.first = seq, first
        self._static = coordinate_reader(seq.static)
        self._check, self._dim = seq.space.row.check_atom, seq.space.dim
        self._n, self._hits, self._amb = 0, {}, Q0
        # past this step no step is whole: the ambient has settled
        amb = seq.ambient
        self._settled = inf if amb.h else max(first, seq.n0, amb.settle_bound())

    def whole(self, n: int) -> bool:
        amb = self.seq.ambient
        return n <= self._settled and (
            n <= self.first or n <= self.seq.n0 or not qeq(amb.at(n), amb.at(n - 1)))

    def value(self, n: int) -> Element:
        return eval_seq(self.seq, n)

    def step(self, n: int) -> dict:
        """{coordinate: x_n - x_{n-1} there} where that is not 0, each
        coordinate checked against the space as a whole step checks it."""
        seq = self.seq
        prev = self._hits if self._n == n - 1 else _atom_hits(seq, n - 1)
        hits = _atom_hits(seq, n)
        delta = {i: d for i, c in hits.items() if (d := qsub(c, prev.get(i, Q0))) is not Q0}
        for i, c in prev.items():  # a coordinate only step n - 1 held drops to 0
            if i not in hits and c is not Q0:
                delta[i] = -c
        for f in seq.fills:
            if (k := f.hit_at(n)) is not None:
                i = f.form.at(k)
                d = qadd(delta.get(i, Q0), f.value)
                if d is Q0:
                    delta.pop(i, None)
                else:
                    delta[i] = d
        # a coordinate whose value moves is one x_n stores (an index x_{n-1}
        # stored was checked before), so an index out of range raises, the
        # first in atom order, as the whole step's `recompose` would
        check, dim = self._check, self._dim
        bad = []
        for i in delta:
            try:
                check(i, dim)
            except InvalidIndexError:
                bad.append(i)
        if bad:
            check(min(bad, key=atom_key), dim)
        self._n, self._hits, self._amb = n, hits, seq.ambient.at(n)
        return delta

    def at(self, idx) -> Q:
        """x_n at the coordinate idx, n the step `step` last took."""
        n = self._n
        v = qadd(qadd(self._static(idx), self._amb), self._hits.get(idx, Q0))
        for f in self.seq.fills:
            if f.covers(idx, n):
                v = qadd(v, f.value)
        return v


class _Fixed:
    """The side of a walk that never moves: a fixed element, read through its
    coordinate functionals and compared whole as it is, never decomposed."""

    def __init__(self, x: Element):
        self.at, self.value = coordinate_reader(x), lambda n: x

    def whole(self, n: int) -> bool:
        return False

    def step(self, n: int) -> dict:
        return {}


def walk_failure(rel, x, y, first: int, last: int) -> int | None:
    """The first n in first..last at which rel(x_n(i), y_n(i)) fails at
    some coordinate i, or None.  A side is an ElementSeq, walked by a
    `StepWalk` from `first`, or a fixed Element.  A step either walk needs
    whole is compared as elements (`holds`), any other only at the
    coordinates either walk moves, once both have checked them: elsewhere
    both sides keep their values of step n - 1, where rel held."""
    xw, yw = (StepWalk(s, first) if isinstance(s, ElementSeq) else _Fixed(s) for s in (x, y))
    for n in range(first, last + 1):
        if xw.whole(n) or yw.whole(n):
            ok = holds(rel, xw.value(n), yw.value(n))
        else:
            moved = xw.step(n) | yw.step(n)
            ok = all(rel(xw.at(i), yw.at(i)) for i in moved)
        if not ok:
            return n
    return None


def decreasing_failure(b: ElementSeq, last: int) -> int | None:
    """The first n in 1..last at which b_{n+1} <= b_n fails, or None, with
    b read by a `StepWalk` from step 2.  A prelude step compares the stored
    elements; the first symbolic step, and one where the ambient changes,
    decide b_{n+1} - b_n <= 0 on the two steps' moving parts, where the
    static part cancels, from the values of that difference alone
    (`nonpositive`); any other step decides it on the coordinates it
    moves, the only ones where b_{n+1} - b_n is not 0."""
    walk = StepWalk(b, 2)
    for n in range(1, last + 1):
        if not walk.whole(n + 1):
            ok = all(d.numerator <= 0 for d in walk.step(n + 1).values())
        elif n < b.n0:
            ok = le(eval_seq(b, n + 1), b.prelude[n - 1])
        else:
            prev = moving_parts(b, n)
            if n == b.n0:
                # the differences skip cancelled terms: check step n0's
                # indices, its atom parts in order, as its `recompose` would
                check, dim = b.space.row.check_atom, b.space.dim
                for (_, idx), _ in prev[1:]:
                    check(idx, dim)
            # terms pair up by generator; a fill hit or settled coefficient
            # both steps share is one value object, which cancels by identity
            later = dict(moving_parts(b, n + 1))
            diff = [(r, d) for r, c in prev if (d := qsub(later.pop(r, Q0), c)) is not Q0]
            ok = nonpositive(recompose(b.space, [*diff, *later.items()]))
        if not ok:
            return n
    return None


# ---------------------------------------------------------------------------
# builders


def sub_element(seq: ElementSeq, x: Element) -> ElementSeq:
    if x.space != seq.space:
        raise SpaceMismatchError("cannot subtract across spaces")
    return ElementSeq(
        seq.space,
        sub(seq.static, x),
        seq.atoms,
        seq.fills,
        seq.ambient,
        seq.n0,
        tuple(sub(p, x) for p in seq.prelude),
    )


def less_atoms(seq: ElementSeq, atoms, first: int = 1) -> ElementSeq:
    """seq less the given (form, coefficient) atoms, read from step `first`
    on: their negatives join the atoms, and each prelude step from `first`
    on is built less their values there; an earlier step keeps its value."""
    if not atoms:
        return seq
    prelude = tuple(p if n < first else recompose(seq.space, [*decompose(p), *(
        (("atom", form.at(n)), -c) for form, coeff in atoms if (c := coeff.at(n)) is not Q0 and c
    )]) for n, p in enumerate(seq.prelude, 1))
    return replace(seq, atoms=seq.atoms + tuple((form, coeff.scale(-1)) for form, coeff in atoms),
                   prelude=prelude)


# ---------------------------------------------------------------------------
# normalization: merge fills on the same coordinate line (telescoping)


def normalize(seq: ElementSeq) -> ElementSeq:
    """Merge fills covering the same coordinate line.

    Overlapping ranges add their values; range boundaries that do not cancel
    come back as static corrections (lower end) or moving atoms (upper end).
    Only full classes (modulus 1) telescope; other fills stay as they are.
    A sequence without fills has nothing to merge and comes back as it is:
    its atoms are already merged and its prelude already covers every
    aliasing step, as `element_seq` leaves them and `sub_element` keeps
    them, so rebuilding it would give an equal sequence.
    """
    if not seq.fills:
        return seq
    groups: dict = {}
    passthrough = []
    for f in seq.fills:
        idx = f.form.idx
        if f.modulus != 1 or idx.d != 1:
            passthrough.append(f)
            continue
        key = (type(f.form), idx.p, idx.q % idx.p)
        groups.setdefault(key, []).append(f)
    corrections = []
    new_atoms = list(seq.atoms)
    new_fills = list(passthrough)
    for (form_type, step, base), fs in sorted(
        groups.items(), key=lambda kv: (kv[0][0].__name__, kv[0][1], kv[0][2])
    ):
        # express each fill by its line index j: coordinate = line.at(j)
        line = form_type(affine(step, base))
        parts = []
        for f in fs:
            delta = (f.form.idx.q - base) // step
            parts.append((f.kmin + delta, f.lag - delta, f.value))
        jmins = [p[0] for p in parts]
        lags = [p[1] for p in parts]
        total = sum((p[2] for p in parts), Q(0))
        jmin, jmax = min(jmins), max(jmins)
        lag_min, lag_max = min(lags), max(lags)
        # lower boundary: line indices present in some but not all ranges
        for j in range(jmin, jmax):
            v = sum((p[2] for p in parts if p[0] <= j), Q(0))
            if v != 0 and step * j + base >= 1:
                corrections.append((("atom", line.at(j)), v))
        # upper boundary: the last few line indices, moving with n
        for lag in range(lag_min, lag_max):
            v = sum((p[2] for p in parts if p[1] <= lag), Q(0))
            if v != 0:
                form = form_type(affine(step, base - step * lag))
                new_atoms.append((form, RationalSeq.const(v)))
        if total != 0:
            new_fills.append(Fill(line, 1, 0, jmax, lag_max, total))
    # the static part is kept as it is unless a lower boundary corrects it
    static = (recompose(seq.space, [*seq._static_parts, *corrections]) if corrections
              else seq.static)
    return element_seq(
        seq.space,
        static,
        new_atoms,
        new_fills,
        seq.ambient,
        seq.n0,
        seq.prelude,
    )


# ---------------------------------------------------------------------------
# structural threshold and eventual pattern


def structural_threshold(seq: ElementSeq) -> int:
    """An index beyond which all components are in their eventual regime."""
    t = seq.n0
    t = max(t, seq.ambient.settle_bound())
    for _, coeff in seq.atoms:
        t = max(t, coeff.settle_bound())
    for f in seq.fills:
        t = max(t, f.kmin + f.lag + f.modulus)
    return t + 1


def eventual_pattern(seq: ElementSeq) -> Element:
    """Coordinatewise limits of the sequence, as a completion pattern.

    Moving atoms hit each fixed coordinate at most finitely often and
    contribute nothing; stationary atoms contribute their eventual
    coefficient; a fill eventually covers its whole coordinate line.
    """
    stationary = []
    for form, coeff in seq.atoms:
        if not form.moving:
            ev = coeff.eventual_value()  # harmonic decays (None) vanish in the limit
            if ev:
                stationary.append((form.at(seq.n0), ev))
    base = recompose(seq.space, [*seq._static_parts, (("unit",), seq.ambient.limit()),
                                 *_atom_parts(stationary)])
    pieces = []
    for f in seq.fills:
        # the covered line over the class index j, k = modulus * j + residue
        if f.form.idx.compose(affine(f.modulus, f.residue)).d != 1:
            raise StencilError("fill line is not integral")
        first_k = f.kmin + ((f.residue - f.kmin) % f.modulus)
        pieces.append(f.form.piece(f.modulus, first_k, f.value, None))
    return pattern_from_pieces(seq.space, base, pieces)


# ---------------------------------------------------------------------------
# bounds


def deviation_bound(seq: ElementSeq) -> Q:
    """A bound M with |x_n| <= M * unit for all n (the class is bounded)."""
    m = max_abs_coord(seq.static) + seq.ambient.max_abs()
    for _, coeff in seq.atoms:
        m += coeff.max_abs()
    for f in seq.fills:
        m += abs(f.value)
    for p in seq.prelude:
        m = max(m, max_abs_coord(p))
    return m


def cover_shift(seq: ElementSeq) -> int:
    """A shift s such that every coordinate with line index i is settled by
    step i + s: fills have reached it and transient atoms have passed."""
    # fills: structural_threshold already passes each kmin + lag + modulus
    s = structural_threshold(seq)
    for form, coeff in seq.atoms:
        if form.moving:
            q, d = form.idx.q, form.idx.d
            s = max(s, -q // d + 1 if q < 0 else 1)
    return s
