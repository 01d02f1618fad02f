"""Finite symbolic operator representations.

An operator is a generator-image table: explicit atom images below a
threshold, a residue-class affine stencil for the atoms beyond it, images of
the row units (row-block domains), and the image of the unit.  Linear
extension over the generator decomposition defines the operator on the whole
space.  Everything here is exact.

`image_parts` owns the image of one generator, as generator parts (the
format of `elements.decompose`), and `apply_parts` the image of a sum of
parts; `apply_op` and `atom_image` canonicalize them once, in one
`recompose`.

Stencil entries with a stationary output form (slope 0) break local
finiteness; they are representable so the order-boundedness test can refuse
them, but accumulation-based operations reject them.

A rule entry's geometry is its coordinate form's (see `spaces`): the image
of an atom, the inverse, where two entries meet, the pattern piece an entry
sweeps and the leak coordinate are form methods, so nothing here switches
on the form type.
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from typing import Tuple

from .records import record
from .errors import (
    InvalidIndexError,
    PreconditionError,
    SpaceMismatchError,
    StencilError,
)
from .scalars import Q, Q0, QLike, qadd, qmul, qof
from .spaces import AtomIndex, CoordForm, SpaceDesc, atom_key, fin_dim, form_space_matches
from .elements import (
    Element,
    add,
    coordinate,
    decompose,
    element_fin,
    le,
    lincomb,
    max_abs_coord,
    pos,
    abs_,
    recompose,
    scale,
    unit,
    zero,
    is_positive as elem_is_positive,
)
from .completion import pattern_from_pieces
from .scalars import ZERO_SEQ
from .sequences import ElementSeq, fill, normalize

StencilEntry = Tuple[CoordForm, Q]


@record
class StencilRule:
    """Images of tail atoms: for the driving index i > threshold with
    i = residue (mod modulus), the atom maps to sum of coeff * atom(form(i)).

    For row-block domains the driving index is the column m and forms are
    pairs affine in (row, column)."""

    modulus: int
    threshold: int
    entries: Tuple[Tuple[StencilEntry, ...], ...]  # indexed by residue

    def entries_for(self, i: int) -> Tuple[StencilEntry, ...]:
        return self.entries[i % self.modulus]

    def is_zero(self) -> bool:
        return all(not es for es in self.entries)

    def map_coeffs(self, f) -> "StencilRule":
        """Each coefficient c replaced by f(c), entries f sends to 0 dropped."""
        return StencilRule(self.modulus, self.threshold, tuple(
            tuple((form, f(c)) for form, c in es if f(c) != 0) for es in self.entries))


def stencil_rule(
    modulus: int,
    threshold: int,
    entries_by_residue,
    codomain: SpaceDesc,
) -> StencilRule:
    """Canonical constructor: merges identical forms, rejects forms that
    meet at an atom past the threshold (callers materialize those)."""
    if modulus < 1 or threshold < 0:
        raise StencilError("bad stencil rule header")
    canon = []
    for r in range(modulus):
        raw = list(entries_by_residue[r]) if r < len(entries_by_residue) else []
        for form, _ in raw:
            if not form_space_matches(form, codomain):
                raise StencilError(f"form {form} does not fit codomain {codomain.label}")
            form.check_rule(modulus, r, _first_in_class(threshold, modulus, r),
                            bool(codomain.dim))
        kept = _merged(raw)
        hits = _meetings(kept, modulus, r, threshold)
        if hits:
            raise StencilError(f"stencil entries collide at index {hits[0]}; "
                               "materialize it as an explicit image")
        kept.sort(key=lambda fc: (str(fc[0]),))
        canon.append(tuple(kept))
    return StencilRule(modulus, threshold, tuple(canon))


def _merged(entries) -> list:
    """The entries with identical forms summed and zero sums dropped."""
    sums: dict = {}
    for form, coeff in entries:
        sums[form] = qadd(sums.get(form, Q0), qof(coeff))
    return [(f, c) for f, c in sums.items() if c is not Q0]


def _meetings(entries, modulus: int, residue: int, threshold: int) -> list[int]:
    """The driving index past the threshold, in the residue class, where
    each pair of distinct entry forms meets, in entry order.  The forms fit
    one codomain, so they are of one type."""
    return [n for i, (f1, _) in enumerate(entries) for f2, _ in entries[i + 1:]
            if (n := f1.meets(f2, threshold, modulus, residue)) is not None]


@record
class Operator:
    domain: SpaceDesc
    codomain: SpaceDesc
    atom_images: Tuple[Tuple[AtomIndex, Element], ...]
    rule: StencilRule | None
    row_unit_images: Tuple[Tuple[int, Element], ...]
    unit_image: Element


def operator(
    domain: SpaceDesc,
    codomain: SpaceDesc,
    atom_images=None,
    rule: StencilRule | None = None,
    row_unit_images=None,
    unit_image: Element | None = None,
) -> Operator:
    if not domain.row.countable:
        raise PreconditionError(
            "operators from the uncountable kind are not representable"
        )
    images = dict(atom_images or {})
    for idx, img in images.items():
        if img.space != codomain:
            raise SpaceMismatchError(f"image of {idx} lives in {img.space.label}")
    rows = dict(row_unit_images or {})
    if rows and not domain.row_units:
        raise SpaceMismatchError("row-unit images need an ek domain")
    for r, img in rows.items():
        if img.space != codomain:
            raise SpaceMismatchError(f"row-unit image {r} lives in {img.space.label}")
    if domain.dim:
        # finitely many atoms: no tail rule, every image in the table, and
        # the unit image is their sum
        if rule is not None:
            raise PreconditionError("finite-dimensional domains have no tail rule")
        for idx in images:
            if not isinstance(idx, int) or not 1 <= idx <= domain.dim:
                raise InvalidIndexError(f"atom {idx!r} outside the domain")
        images = {i: images.get(i, zero(codomain)) for i in range(1, domain.dim + 1)}
        derived_unit = lincomb(codomain, [(1, img) for img in images.values()])
        if unit_image is not None and unit_image != derived_unit:
            raise PreconditionError("unit image must equal the sum of atom images")
        unit_image = derived_unit
    # a table entry off the domain's atoms would be counted by every image
    # sum; on fin_dim this holds by the check above
    for idx in images:
        domain.row.check_atom(idx, domain.dim)
    # a pair form reads an atom's row as the free row variable and its column
    # as the driving index, so a rule maps row blocks into row blocks or
    # neither
    row_domain = domain.row.shape == "row_block"
    if rule is not None and not rule.is_zero() and row_domain != (
            codomain.row.shape == "row_block"):
        if row_domain:
            raise StencilError(f"rules on {domain.label} need a row-block codomain, "
                               f"not {codomain.label}")
        raise StencilError(f"rules into {codomain.label} need a row-block domain, "
                           f"not {domain.label}")
    if unit_image is None:
        raise PreconditionError("domains with a unit need a unit image")
    if unit_image.space != codomain:
        raise SpaceMismatchError("unit image lives in the wrong space")
    # enumerated atoms: explicit images must sit below the rule threshold,
    # so the rule is materialized up to any index the table reaches past;
    # pair domains instead let explicit entries override the rule pointwise
    # (pattern sums compensate at the overridden atoms)
    if rule is not None and domain.row.enumerated:
        past = [idx for idx in images if idx > rule.threshold]
        if past:
            new_threshold = max(past)
            for idx in range(rule.threshold + 1, new_threshold + 1):
                images.setdefault(idx, recompose(codomain, _rule_parts(rule, idx)))
            rule = StencilRule(rule.modulus, new_threshold, rule.entries)
    ordered = tuple(sorted(images.items(), key=lambda kv: atom_key(kv[0])))
    row_items = tuple(sorted(rows.items()))
    return Operator(domain, codomain, ordered, rule, row_items, unit_image)


def _driving_index(idx: AtomIndex) -> int:
    if isinstance(idx, tuple):
        return idx[1]
    return idx


def _rule_parts(rule: StencilRule | None, idx: AtomIndex, tf=None) -> list:
    """The rule's image of one atom as generator parts, straight from the
    stencil entries, each coefficient mapped through tf; none at or below
    the threshold."""
    i = _driving_index(idx)
    if rule is None or i <= rule.threshold:
        return []
    return [(("atom", form.image(idx)), c if tf is None else tf(c))
            for form, c in rule.entries_for(i)]


def image_parts(T: Operator, ref) -> list:
    """T of one generator (`ref` in the format of `decompose`) as generator
    parts of the codomain: a table image through `decompose`, a rule image
    straight from the stencil entries, a row unit's and the unit's from
    their stored images.  The `recompose` they go into checks the indices."""
    if ref[0] == "atom":
        idx = ref[1]
        for k, img in T.atom_images:
            if k == idx:
                return decompose(img)
        if T.domain.dim:
            raise InvalidIndexError(f"atom {idx!r} outside the domain")
        return _rule_parts(T.rule, idx)
    if ref[0] == "row_unit":
        for k, img in T.row_unit_images:
            if k == ref[1]:
                return decompose(img)
        return []
    return decompose(T.unit_image)


def atom_image(T: Operator, idx: AtomIndex) -> Element:
    for k, img in T.atom_images:
        if k == idx:
            return img
    return recompose(T.codomain, image_parts(T, ("atom", idx)))


def row_unit_image(T: Operator, r: int) -> Element:
    for k, img in T.row_unit_images:
        if k == r:
            return img
    return zero(T.codomain)


# ---------------------------------------------------------------------------
# application


def apply_parts(T: Operator, parts) -> list:
    """T of a sum of generator parts, as generator parts of the codomain:
    the image of each generator, scaled by its coefficient."""
    return [(g, qmul(c, v)) for ref, c in parts for g, v in image_parts(T, ref)]


def apply_op(T: Operator, x: Element) -> Element:
    """T(x): the `apply_parts` of x's decomposition, in one `recompose`."""
    if x.space != T.domain:
        raise SpaceMismatchError(f"argument lives in {x.space.label}")
    return recompose(T.codomain, apply_parts(T, decompose(x)))


# ---------------------------------------------------------------------------
# operator arithmetic


def scale_op(c: QLike, T: Operator) -> Operator:
    c_q = qof(c)
    images = {k: scale(c_q, v) for k, v in T.atom_images}
    rows = {k: scale(c_q, v) for k, v in T.row_unit_images}
    rule = None if T.rule is None else T.rule.map_coeffs(lambda c: c_q * c)
    return operator(T.domain, T.codomain, images, rule, rows, scale(c_q, T.unit_image))


def add_op(S: Operator, T: Operator) -> Operator:
    """S + T in one pass.  On a sequence domain the threshold rises to every
    index where two entries of the merged rule meet, and every atom up to it
    is materialized.  On a row-block domain one threshold holds on every
    row: the sum takes the larger rule threshold, which is refused where the
    other rule has an entry at a column up to it, and sums the table
    entries."""
    if S.domain != T.domain or S.codomain != T.codomain:
        raise SpaceMismatchError("operator shapes differ")
    rules = [op_.rule for op_ in (S, T) if op_.rule is not None]
    modulus = lcm(1, *(rule.modulus for rule in rules))
    merged = [[e for rule in rules for e in rule.entries_for(r)] for r in range(modulus)]
    if S.domain.row.enumerated:
        threshold = max([table_top(S), table_top(T)] + [
            n for r, es in enumerate(merged) for n in _meetings(_merged(es), modulus, r, 0)])
        tables = range(1, threshold + 1)
    else:
        threshold = max((rule.threshold for rule in rules), default=0)
        for rule in rules:
            for m in range(rule.threshold + 1, threshold + 1):
                if rule.entries_for(m):
                    raise PreconditionError(
                        f"one threshold serves every row, and a rule entry at column {m} "
                        f"lies between the thresholds {rule.threshold} and {threshold}")
        tables = {k for k, _ in S.atom_images} | {k for k, _ in T.atom_images}
    rule = stencil_rule(modulus, threshold, merged, S.codomain) if any(merged) else None
    images = {idx: add(atom_image(S, idx), atom_image(T, idx)) for idx in tables}
    rows_out = {}
    for r in {k for k, _ in S.row_unit_images} | {k for k, _ in T.row_unit_images}:
        rows_out[r] = add(row_unit_image(S, r), row_unit_image(T, r))
    return operator(
        S.domain,
        S.codomain,
        images,
        rule,
        rows_out,
        add(S.unit_image, T.unit_image),
    )


def _max_drive(T: Operator) -> int:
    return max((_driving_index(idx) for idx, _ in T.atom_images), default=0)


def table_top(T: Operator) -> int:
    """The driving index past which T's images follow its rule: the rule
    threshold, or with no rule the largest driving index of a table entry."""
    return T.rule.threshold if T.rule else _max_drive(T)


def op_eq(S: Operator, T: Operator) -> bool:
    """Exact equality on the generator family."""
    rows = {k for k, _ in S.row_unit_images} | {k for k, _ in T.row_unit_images}
    return (
        (S.domain, S.codomain) == (T.domain, T.codomain)
        and S.unit_image == T.unit_image
        and all(row_unit_image(S, r) == row_unit_image(T, r) for r in rows)
        and same_atom_images(S, T)
    )


def same_atom_images(S, T) -> bool:
    """Exact equality of the atom images of two operators on the same
    domain.

    Table entries and, on sequence domains, every atom up to the larger
    threshold are compared directly.  Beyond that the images follow the
    rules, so the entry sets are compared per driving index, one per residue
    class of the common modulus.  Entries of one rule never collide and two
    distinct affine forms agree at one index at most, so equal entry sets
    are exactly equal images.  On pair domains every column up to the
    threshold is compared the same way, since a column holds infinitely many
    atoms."""
    rules = [R.rule for R in (S, T) if R.rule is not None]
    top = max([_max_drive(S), _max_drive(T)] + [r.threshold for r in rules])
    tables = {k for k, _ in S.atom_images} | {k for k, _ in T.atom_images}
    first = 1
    if S.domain.row.enumerated:
        tables, first = range(1, top + 1), top + 1
    return all(atom_image(S, k) == atom_image(T, k) for k in tables) and all(
        _active_entries(S.rule, m) == _active_entries(T.rule, m)
        for m in range(first, top + lcm(1, *(r.modulus for r in rules)) + 1)
    )


def _active_entries(rule: StencilRule | None, m: int) -> dict:
    if rule is None or m <= rule.threshold:
        return {}
    return dict(rule.entries_for(m))


# ---------------------------------------------------------------------------
# functionals and rank-one operators


def functional(domain: SpaceDesc, atom_coeffs=None, unit_value: QLike = 0,
               row_unit_coeffs=None) -> Operator:
    """The order-bounded functional with finitely many atom coefficients (the
    tail coefficients vanish, so the modulus sum is a finite closed form),
    row-unit coefficients where those exist and the unit value, as an
    operator into fin_dim(1).  Zero coefficients are dropped; on a findim
    domain the unit value is the sum of the atom coefficients."""
    line = fin_dim(1)

    def images(coeffs) -> dict:
        return {k: element_fin(line, [c]) for k, c in dict(coeffs or {}).items() if qof(c) != 0}

    return operator(domain, line, images(atom_coeffs), None, images(row_unit_coeffs),
                    None if domain.dim else element_fin(line, [unit_value]))


def rank_one(f: Operator, v: Element) -> Operator:
    """The operator x -> f(x) * v, for a functional f (an operator into
    fin_dim(1))."""

    def times_v(img: Element) -> Element:
        return scale(coordinate(img, 1), v)

    return operator(f.domain, v.space, {k: times_v(img) for k, img in f.atom_images}, None,
                    {r: times_v(img) for r, img in f.row_unit_images}, times_v(f.unit_image))


def coordinate_functional_of(T: Operator, out_idx: AtomIndex) -> Operator:
    """The functional x -> coordinate(T(x), out_idx); finite by local
    finiteness of the tail rule."""
    coeffs: dict = {}
    for idx, img in T.atom_images:
        c = coordinate(img, out_idx)
        if c is not Q0 and c:
            coeffs[idx] = c
    if T.rule is not None:
        for idx, c in _rule_hits(T, out_idx):
            coeffs[idx] = coeffs.get(idx, Q(0)) + c
    rows = {}
    for r, img in T.row_unit_images:
        c = coordinate(img, out_idx)
        if c is not Q0 and c:
            rows[r] = c
    return functional(
        T.domain, coeffs, coordinate(T.unit_image, out_idx), rows
    )


def _rule_hits(T: Operator, out_idx: AtomIndex):
    """(atom index, coefficient) pairs where the tail rule touches out_idx."""
    rule = T.rule
    explicit = {k for k, _ in T.atom_images}
    hits = []
    for r, _, form, c in _rule_sweep(rule):
        idx = form.preimage(out_idx)
        if idx is not None:
            i = _driving_index(idx)
            if i > rule.threshold and i % rule.modulus == r and idx not in explicit:
                hits.append((idx, c))
    return hits


# ---------------------------------------------------------------------------
# partial sums and image-sum patterns


def partial_sum_seq(T: Operator) -> ElementSeq:
    """s_n = sum of the first n atom images, in closed symbolic form."""
    if not T.domain.row.sequence:
        raise PreconditionError("partial sums need countably enumerated atoms")
    threshold = table_top(T)
    fills = []
    for r, first, form, c in _rule_sweep(T.rule):
        if not form.moving:
            if c != 0:
                raise StencilError(
                    "stationary stencil entries admit no closed accumulation form"
                )
            continue
        fills.append(fill(form, T.rule.modulus, r, first, 0, c))
    sums = list(accumulate(
        (atom_image(T, i) for i in range(1, threshold + 1)), add, initial=zero(T.codomain)
    ))
    seq = ElementSeq(
        T.codomain,
        sums[-1],
        (),
        tuple(fills),
        ZERO_SEQ,
        max(threshold, 1),
        tuple(sums[1:-1]),
    )
    return normalize(seq)


def _first_in_class(threshold: int, modulus: int, r: int) -> int:
    """The first driving index past the threshold in the residue class r."""
    return threshold + 1 + (r - threshold - 1) % modulus


def _rule_sweep(rule: StencilRule | None):
    """(residue, first driving index past the threshold, form, coefficient)
    for every rule entry."""
    if rule is None:
        return
    for r, es in enumerate(rule.entries):
        first = _first_in_class(rule.threshold, rule.modulus, r)
        for form, c in es:
            yield r, first, form, c


# name -> (coefficient map, element map) of an image-sum transform
_TRANSFORMS = {
    "id": (lambda c: c, lambda x: x),
    "pos": (lambda c: max(c, Q(0)), pos),
    "abs": (lambda c: abs(c), abs_),
}


def image_sum_pattern(T: Operator, transform: str = "id") -> Element:
    """The coordinatewise sum over all atoms of transform(T(atom)).

    Exact because the tail rule is locally finite: every output coordinate
    receives finitely many contributions, eventually periodically.  Explicit
    entries that override the rule (pair domains) are compensated, since the
    rule pieces sweep over every atom beyond the threshold.
    """
    return _sum_pattern(T, transform, None)


def row_sum_pattern(T: Operator, row: int, transform: str = "id") -> Element:
    """Sum over the atoms of one row of a row-block domain."""
    if T.domain.row.shape != "row_block":
        raise PreconditionError("row sums need a row-block domain")
    return _sum_pattern(T, transform, row)


def _sum_pattern(T: Operator, transform: str, row: int | None) -> Element:
    """Sum over all atoms, or over one row: the table entries less what the
    rule pieces put there, plus the rule pieces."""
    tf, etf = _TRANSFORMS[transform]
    parts = []
    for idx, img in T.atom_images:
        if row is None or idx[0] == row:
            parts += decompose(etf(img))
            parts += [(g, -c) for g, c in _rule_parts(T.rule, idx, tf)]
    base = recompose(T.codomain, parts)
    pieces = [
        form.piece(T.rule.modulus, first, tf(c), row)
        for _, first, form, c in _rule_sweep(T.rule)
        if tf(c) != 0
    ]
    return pattern_from_pieces(T.codomain, base, pieces)


# ---------------------------------------------------------------------------
# order boundedness


@record
class BoundReport:
    bounded: bool
    bound: Element | None
    note: str


def order_bounded_test(T: Operator) -> BoundReport:
    """Order boundedness via the modulus partial sums.

    The increasing family sum_{k<=n} |T(e_k)| is bounded above exactly when
    the tail rule keeps local finiteness (no stationary entry leaks into a
    fixed coordinate); the bound combines its supremum with the unit and
    row-unit images.
    """
    leak = _stationary_leak(T)
    if leak is not None:
        return BoundReport(
            False,
            None,
            f"coordinate {leak} accumulates unboundedly through the tail rule",
        )
    m = max_abs_coord(image_sum_pattern(T, "abs"))
    m = max(m, max_abs_coord(T.unit_image))
    for _, img in T.row_unit_images:
        m = max(m, max_abs_coord(img))
    return BoundReport(True, scale(m, unit(T.codomain)), "modulus partial sums settle")


def _stationary_leak(T: Operator):
    """The coordinate the first stationary rule entry hits at every atom of
    its class, read at the class's first atom, or None."""
    for _, first, form, c in _rule_sweep(T.rule):
        if c != 0 and (leak := form.leak(first)) is not None:
            return leak
    return None


# ---------------------------------------------------------------------------
# positivity


def table_rows(T: Operator) -> list[int]:
    """The rows of a row-block domain on which T's row sums are read, sorted,
    then the generic row.  They are the rows of the row-unit and atom tables
    and the rows where two rule entries with distinct row forms meet; the
    generic row is the first row past them, where the rule's row sums recur
    row by row and the row unit maps to 0."""
    forms = {f for es in T.rule.entries for f, _ in es} if T.rule else ()
    rows = {r for r, _ in T.row_unit_images} | {idx[0] for idx, _ in T.atom_images} | {
        n for p in forms for q in forms if (n := p.row_meet(q)) is not None}
    return sorted(rows) + [max(rows, default=0) + 1]


def is_positive_operator(T: Operator) -> bool:
    """T >= 0, decided exactly on the generators (see `first_negative_generator`)."""
    return first_negative_generator(T) is None


def first_negative_generator(T: Operator):
    """The first generator at which T >= 0 fails, as a ref in the format of
    `decompose`, or None.  In order: a table atom whose image is not
    positive; a negative rule coefficient, at the first atom of its class
    past the table (on a row past the table rows on row blocks); a
    stationary entry, which piles onto one coordinate, so the unit less
    finitely many atoms fails; on ek a row of `table_rows` whose atom
    images sum past its row unit's image (a row unit past the tables maps
    to 0, so a nonzero rule fails the generic row); the unit, when the atom
    images (on ek the row-unit images) sum past its image."""
    for idx, img in T.atom_images:
        if not elem_is_positive(img):
            return ("atom", idx)
    for _, first, _, c in _rule_sweep(T.rule):
        if c < 0:
            return ("atom", first if T.domain.row.enumerated else (table_rows(T)[-1], first))
    if _stationary_leak(T) is not None:
        return ("unit",)
    rows = table_rows(T) if T.domain.row_units else []
    for r in rows:
        if not le(row_sum_pattern(T, r), row_unit_image(T, r)):
            return ("row_unit", r)
    below = (lincomb(T.codomain, [(1, row_unit_image(T, r)) for r in rows]) if rows
             else image_sum_pattern(T, "id"))
    return None if le(below, T.unit_image) else ("unit",)
