"""Finite symbolic operator representations.

An operator is a generator-image table: explicit atom images below a
threshold, a residue-class affine stencil for the atoms beyond it, images of
the row units (row-block domains), and the image of the unit.  Linear
extension over the generator decomposition defines the operator on the whole
space.  Everything here is exact.

`image_parts` owns the image of one generator, as generator parts (the
format of `elements.decompose`); `apply_op` and `atom_image` canonicalize
them once, in one `recompose`.

Stencil entries with a stationary output form (slope 0) break local
finiteness; they are representable so the order-boundedness test can refuse
them, but accumulation-based operations reject them.
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
from .spaces import (
    AtomIndex,
    CoordForm,
    PairForm,
    SpaceDesc,
    TokenForm,
    affine,
    affine_intersection,
    atom_key,
    fin_dim,
    form_space_matches,
)
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


def _validate_form(form: CoordForm, codomain: SpaceDesc, modulus: int, residue: int,
                   threshold: int) -> None:
    if not form_space_matches(form, codomain):
        raise StencilError(f"form {form} does not fit codomain {codomain.label}")
    affs = [form.idx] if not isinstance(form, PairForm) else [form.row, form.col]
    for k, aff in enumerate(affs):
        if aff.a < 0:
            raise StencilError(f"index form {aff} eventually leaves the index set")
        if isinstance(form, PairForm) and k == 0:
            # the row component is driven by the free row variable over all n
            if aff.a.denominator != 1 or aff.b.denominator != 1:
                raise StencilError(f"row form {aff} is not integral")
            if aff.at(1) < 1:
                raise StencilError(f"row form {aff} leaves the index set")
            continue
        # driven by the rule variable over the residue class beyond threshold
        if (aff.a * modulus).denominator != 1 or (aff.a * residue + aff.b).denominator != 1:
            raise StencilError(f"index form {aff} is not integral on its class")
        first = threshold + 1
        while first % modulus != residue:
            first += 1
        if aff.at(first) < 1:
            raise StencilError(f"index form {aff} leaves the index set at i={first}")
        if codomain.dim and aff.a != 0:
            raise StencilError("moving forms cannot target a finite-dimensional space")


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
            _validate_form(form, codomain, modulus, r, threshold)
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
    each pair of distinct entry forms meets, in entry order: threshold + 1
    for two pair forms that meet on a row at every column.  The forms fit
    one codomain, so they are of one type."""
    hits = []
    for i, (f1, _) in enumerate(entries):
        for f2, _ in entries[i + 1:]:
            if isinstance(f1, PairForm):
                if f1.row != f2.row and affine_intersection(f1.row, f2.row) is None:
                    continue
                if f1.col == f2.col:
                    # they meet at every column of the meeting row
                    hits.append(threshold + 1)
                    continue
                n = affine_intersection(f1.col, f2.col)
            else:
                n = affine_intersection(f1.idx, f2.idx)
            if n is not None and n > threshold and n % modulus == residue:
                hits.append(n)
    return hits


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
    return [(("atom", _form_at(form, idx)), c if tf is None else tf(c))
            for form, c in rule.entries_for(i)]


def _form_at(form: CoordForm, idx: AtomIndex) -> AtomIndex:
    """The output coordinate of a stencil form at the atom idx; on pair
    domains the row form reads the atom's row, the column form its column."""
    if isinstance(idx, tuple):
        return (form.row.at_int(idx[0]), form.col.at_int(idx[1]))
    return form.at(idx)


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


def apply_op(T: Operator, x: Element) -> Element:
    """T(x): the images of x's generators, scaled, in one `recompose`."""
    if x.space != T.domain:
        raise SpaceMismatchError(f"argument lives in {x.space.label}")
    return recompose(T.codomain, [(g, qmul(c, v)) for ref, c in decompose(x)
                                  for g, v in image_parts(T, ref)])


# ---------------------------------------------------------------------------
# operator arithmetic


def zero_op(domain: SpaceDesc, codomain: SpaceDesc) -> Operator:
    return operator(domain, codomain, {}, None, None, zero(codomain))


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
    for r in range(rule.modulus):
        for form, c in rule.entries[r]:
            for idx in _preimages(form, out_idx):
                i = _driving_index(idx)
                if i > rule.threshold and i % rule.modulus == r and idx not in explicit:
                    hits.append((idx, c))
    return hits


def _preimages(form: CoordForm, out_idx: AtomIndex) -> list:
    """The atoms a rule form sends to the codomain atom out_idx (see
    `_form_at`); a line form reaches no fresh (star) token."""
    if isinstance(form, PairForm):
        return [(n, m) for n in _affine_preimages(form.row, out_idx[0])
                for m in _affine_preimages(form.col, out_idx[1])]
    if isinstance(form, TokenForm):
        return _affine_preimages(form.idx, out_idx.k) if out_idx.family == "g" else []
    return _affine_preimages(form.idx, out_idx)


def _affine_preimages(aff, target: int) -> list[int]:
    """The step where aff meets the constant target; every step when aff is
    that constant, which a locally finite rule never is."""
    const = affine(0, target)
    if aff == const:
        raise PreconditionError("rule is not locally finite")
    n = affine_intersection(aff, const)
    return [] if n is None else [n]


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


def _rule_sweep(rule: StencilRule | None):
    """(residue, first driving index past the threshold, form, coefficient)
    for every rule entry."""
    if rule is None:
        return
    for r, es in enumerate(rule.entries):
        first = rule.threshold + 1 + (r - rule.threshold - 1) % rule.modulus
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
    if T.domain.row.form is not PairForm:
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
        _piece(form, T.rule.modulus, first, tf(c), row)
        for _, first, form, c in _rule_sweep(T.rule)
        if tf(c) != 0
    ]
    return pattern_from_pieces(T.codomain, base, pieces)


def _piece(form: CoordForm, modulus: int, first: int, value: Q, row: int | None):
    """The pattern piece a rule entry sweeps from the driving index first:
    (step, first, value) on a line, (row_step, row_first, col_step,
    col_first, value) on row blocks (one row when row is given)."""
    if not isinstance(form, PairForm):
        return (int(form.idx.a * modulus), form.idx.at_int(first), value)
    col = (int(form.col.a * modulus), form.col.at_int(first), value)
    if row is None:
        return (int(form.row.a), form.row.at_int(1)) + col
    return (0, form.row.at_int(row)) + col


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
    if T.rule is None:
        return None
    for r in range(T.rule.modulus):
        for form, c in T.rule.entries[r]:
            if c == 0:
                continue
            if isinstance(form, PairForm):
                if form.row.a == 0 or form.col.a == 0:
                    return (form.row.at_int(1), form.col.at_int(max(T.rule.threshold + 1, 1)))
            elif form.idx.a == 0:
                return form.at(T.rule.threshold + 1)
    return None


# ---------------------------------------------------------------------------
# positivity


def table_rows(T: Operator) -> list[int]:
    """The rows of a row-block domain on which T's row sums are read, sorted,
    then the generic row.  They are the rows of the row-unit and atom tables
    and the rows where two rule entries with distinct row forms meet; the
    generic row is the first row past them, where the rule's row sums recur
    row by row and the row unit maps to 0."""
    forms = {f.row for es in T.rule.entries for f, _ in es} if T.rule else ()
    rows = {r for r, _ in T.row_unit_images} | {idx[0] for idx, _ in T.atom_images} | {
        n for p in forms for q in forms if (n := affine_intersection(p, q)) is not None}
    return sorted(rows) + [max(rows, default=0) + 1]


def is_positive_operator(T: Operator) -> bool:
    """T >= 0, decided on the generators: every atom image is positive and
    the atom images sum to at most the unit image.  On ek each row of
    `table_rows` sums its atom images to at most its row unit's image, and
    those images sum to at most the unit's; a row unit past the tables maps
    to 0, so a nonzero rule fails the generic row."""
    if _stationary_leak(T) is not None:
        return False
    if not all(elem_is_positive(img) for _, img in T.atom_images):
        return False
    if T.rule is not None and any(c < 0 for es in T.rule.entries for _, c in es):
        return False
    if not T.domain.row_units:
        # the atom images are positive, so their partial sums increase to
        # the image sum: it alone decides whether they stay below the unit
        # image
        return le(image_sum_pattern(T, "id"), T.unit_image)
    rows = table_rows(T)
    return all(le(row_sum_pattern(T, r), row_unit_image(T, r)) for r in rows) and le(
        lincomb(T.codomain, [(1, row_unit_image(T, r)) for r in rows]), T.unit_image)
