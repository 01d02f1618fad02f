"""Theorem-driven procedures on representable operators.

The positive-part values are computed in the completion and then membership
tested.  T+ is linear, so it is fixed by its values on the generators: on an
atom the supremum over the order interval collapses to the positive part of
the image; on the unit it is the closed form

    sup = (sum of positive parts of the atom images)
        + positive part of (unit image - sum of the atom images)

per output coordinate, the endpoint solution of the box-linear program over
the order interval.  On ek a row unit's supremum is the same form over its
row, and the unit's adds each row's correction (the positive part of its
row-unit image less its atom-image sum), with the row-unit images in place
of the atom images in the second term.  The order-continuity test reduces to
order convergence of the atom-image partial sums to the unit image; the band
projection onto the order-continuous part keeps the atom images and replaces
the unit image by the partial-sum limit computed in the completion.

A positive-part candidate and a band projection are plain `Operator`s whose
unit and row-unit images are completion payloads (see `completion`), so
`op_eq`, `add_op` and `atom_image` apply to them; `failing_generator`
decides whether those images lie in the codomain.
"""

from __future__ import annotations

from functools import reduce
from typing import Tuple

from .records import record, replace
from .errors import PreconditionError, StencilError, UnsupportedHypothesisError
from .scalars import Q
from .spaces import AtomIndex, SpaceDesc, atom_str
from .elements import (
    Element,
    add,
    atom,
    decompose,
    in_base_space,
    is_positive as elem_is_positive,
    lincomb,
    nonzero_classes,
    pos,
    row_unit,
    scale,
    sub,
    unit,
    zero,
)
from .convergence import ConvergenceCertificate, decide_order_convergence, require_probe
from .operators import (
    Operator,
    add_op,
    apply_op,
    atom_image,
    coordinate_functional_of,
    first_negative_generator,
    functional,
    image_sum_pattern,
    is_positive_operator,
    operator,
    order_bounded_test,
    partial_sum_seq,
    rank_one,
    row_sum_pattern,
    row_unit_image,
    scale_op,
    table_rows,
    table_top,
    _stationary_leak,
)


def _require_bounded(T: Operator) -> None:
    # order_bounded_test's verdict is the leak check alone; the full test,
    # which also builds the bound, runs only to word the refusal
    if _stationary_leak(T) is not None:
        raise PreconditionError(f"operator is not order bounded: {order_bounded_test(T).note}")


def rk_value(T: Operator, x: Element) -> Element:
    """sup { T(y) : 0 <= y <= x }, computed in the completion: T+ is linear,
    so it is the sum over x's generators of their suprema."""
    if x.space != T.domain:
        raise PreconditionError("argument lives in the wrong space")
    if not elem_is_positive(x):
        raise PreconditionError("the interval endpoint must be positive")
    _require_bounded(T)
    return reduce(add, (scale(c, _generator_sup(T, ref)) for ref, c in decompose(x)),
                  zero(T.codomain))


def _generator_sup(T: Operator, ref) -> Element:
    """sup { T(y) : 0 <= y <= g } for one generator g (`ref` in the format
    of `decompose`): on an atom the positive part of its image; on a row
    unit its row's; on the unit every atom's, plus on ek every row's
    correction and the positive part of the unit image less the row-unit
    images.  Past `table_rows` the corrections recur, so they must vanish
    there."""
    if ref[0] == "atom":
        return pos(atom_image(T, ref[1]))
    if ref[0] == "row_unit":
        return add(row_sum_pattern(T, ref[1], "pos"), _row_correction(T, ref[1]))
    sigma_pos = image_sum_pattern(T, "pos")
    if not T.domain.row_units:
        return add(sigma_pos, pos(sub(T.unit_image, image_sum_pattern(T, "id"))))
    *rows, generic = table_rows(T)
    if not _row_correction(T, generic).is_zero():
        raise UnsupportedHypothesisError(
            "positive-part values for this operator family leave the "
            "representable completion fragment"
        )
    rho_sum = lincomb(T.codomain, [(1, row_unit_image(T, r)) for r in rows])
    return reduce(add, (_row_correction(T, r) for r in rows),
                  add(sigma_pos, pos(sub(T.unit_image, rho_sum))))


def _row_correction(T: Operator, r: int) -> Element:
    """The positive part of row r's unit image less its atom-image sum."""
    return pos(sub(row_unit_image(T, r), row_sum_pattern(T, r, "id")))


# ---------------------------------------------------------------------------
# positive part


NONZERO_TAIL = "row units beyond the table do not vanish"


def failing_generator(P: Operator, tail: Element | None = None) -> str | None:
    """The first generator whose image P does not carry into its codomain,
    or None: the unit, a row unit of the table, or the row units past the
    table when their image `tail` (see `positive_part`) leaves the codomain
    or, inside it, is not the 0 that P maps them to (NONZERO_TAIL)."""
    if not in_base_space(P.unit_image):
        return "unit"
    for r, img in P.row_unit_images:
        if not in_base_space(img):
            return f"row unit {r}"
    if tail is None or tail.is_zero():
        return None
    return NONZERO_TAIL if in_base_space(tail) else "row units beyond the table"


def positive_part(T: Operator) -> tuple[Operator, Element | None, bool]:
    """(P, tail, in_f): the candidate positive part, its row-unit tail and
    the membership flag.

    P keeps the positive parts of T's atom images, tail rule included; its
    unit image and its row-unit images on the rows of `table_rows` are the
    interval suprema, completion payloads.  On ek domains `tail` is the
    supremum below the generic row unit (the shape recurs row by row past
    the table rows), which P, like every operator, maps to 0; elsewhere it
    is None.  in_f is `failing_generator(P, tail) is None`: then P is the
    positive part inside the operator space."""
    _require_bounded(T)
    rows, tail = {}, None
    if T.domain.row_units:
        *table, generic = table_rows(T)
        rows = {r: rk_value(T, row_unit(T.domain, r)) for r in table}
        tail = rk_value(T, row_unit(T.domain, generic))
    rule = None if T.rule is None else T.rule.map_coeffs(lambda c: max(c, Q(0)))
    P = operator(
        T.domain, T.codomain, {k: pos(v) for k, v in T.atom_images}, rule, rows,
        rk_value(T, unit(T.domain)),
    )
    return P, tail, failing_generator(P, tail) is None


# ---------------------------------------------------------------------------
# order continuity and the band projection


def order_continuity_test(T: Operator) -> tuple[bool, ConvergenceCertificate]:
    """Order continuity via the partial-sum criterion: the atom-image sums
    must order converge to the unit image."""
    if not T.domain.row.enumerated:
        raise UnsupportedHypothesisError(
            "the partial-sum criterion needs a linearly enumerated atom system"
        )
    _require_bounded(T)
    if T.domain.dim:
        cert = ConvergenceCertificate(
            verdict="converges",
            space=T.codomain,
            mode="order",
            n0=1,
            anchors=("partial-sum-criterion",),
            notes=("finitely many atoms: the sum reaches the unit image",),
        )
        return True, cert
    s = partial_sum_seq(T)
    cert = decide_order_convergence(s, T.unit_image)
    cert = replace(
        cert, anchors=cert.anchors + ("partial-sum-criterion", "sigma-net-equivalence"))
    return cert.converges, cert


def oc_projection(T: Operator) -> Operator:
    """Band projection onto the order-continuous part: T with its unit image
    replaced by the partial-sum limit `image_sum_pattern(T, "id")`, a
    completion payload.  The atom images are kept."""
    if not T.domain.row.enumerated:
        raise UnsupportedHypothesisError(
            "the projection needs a linearly enumerated atom system"
        )
    _require_bounded(T)
    return replace(T, unit_image=image_sum_pattern(T, "id"))


def projection_fixes(T: Operator) -> bool:
    """P(T) == T, i.e. the unit image equals the partial-sum limit."""
    return image_sum_pattern(T, "id") == T.unit_image


# ---------------------------------------------------------------------------
# pervasiveness witnesses


@record
class Witness:
    functional: Operator  # into fin_dim(1)
    vector: Element
    operator: Operator
    generator: str
    coordinate: AtomIndex | None
    transcript: Tuple[str, ...]


def pervasive_witness(T: Operator, probe: int = 8) -> Witness:
    """A rank-one operator R with 0 < R <= T.

    With an atomic codomain the witness composes the coordinate functional
    at the first positive coordinate j of T(x0) with T and tensors it with
    e_j, from any generator x0 with a nonzero image.  When T vanishes on
    every domain atom and the atom span closure has codimension at most
    one, T itself is the (rank-one) witness instead.
    """
    if not is_positive_operator(T):
        raise PreconditionError("T is not positive")
    gen, x0 = _first_positive_generator(T)
    if gen is None:
        raise PreconditionError("T is not positive (no generator image is nonzero)")
    codim = T.domain.row.atom_span_codim
    if gen[0] == "atom" or codim is None or codim > 1:
        j = _first_positive_coordinate(apply_op(T, x0))
        f, v, note = coordinate_functional_of(T, j), atom(T.codomain, j), ()
    else:
        # every atom image vanishes: T factors through the quotient by the
        # atom span closure, which has codimension <= 1
        j, f, v = None, functional(T.domain, {}, 1), T.unit_image
        note = ("T vanishes on the atom span closure, so it is the rank-one tensor "
                "of the unit-coefficient functional with its unit image",)
    R = rank_one(f, v)
    ok, log = verify_witness(R, T, probe)
    if not ok:
        raise PreconditionError("witness construction failed its own transcript")
    label = atom_str(gen[1]) if gen[0] == "atom" else "unit"
    return Witness(f, v, R, label, j, tuple(log) + note)


def _first_positive_generator(T: Operator):
    """The first generator of a positive T with a nonzero image, whatever
    the probe: a table atom; an atom up to one rule period past the
    threshold, where each residue class of the rule has one, on rows up to
    one more than the table has entries, so that one of them follows the
    rule alone; the unit."""
    top = table_top(T) + (T.rule.modulus if T.rule else 0)
    for idx, img in T.atom_images:  # explicit table first (sorted)
        if not img.is_zero():
            return ("atom", idx), atom(T.domain, idx)
    window = (range(1, (T.domain.dim or top) + 1) if T.domain.row.enumerated else
              [(n, m) for n in range(1, len(T.atom_images) + 2) for m in range(1, top + 1)])
    for idx in window:
        if not atom_image(T, idx).is_zero():
            return ("atom", idx), atom(T.domain, idx)
    if not T.unit_image.is_zero():
        return ("unit",), unit(T.domain)
    # T is positive, so T(r) <= T(u) = 0 for every row unit r as well
    return None, None


def _first_positive_coordinate(y: Element) -> AtomIndex:
    """The first coordinate at which y is positive, walking its value
    classes in storage order."""
    for j, v, _ in nonzero_classes(y):
        if v > 0:
            return j
    raise PreconditionError("image has no positive coordinate")


def verify_witness(R: Operator, T: Operator, probe: int = 8) -> tuple[bool, list[str]]:
    """Re-check 0 < R <= T exactly, whatever the probe: the one witness
    verifier, whose log is a witness's transcript.

    R >= 0 and T - R >= 0 are each decided on the generators by
    `first_negative_generator`, and a failure names the generator where it
    fails.  The probe only sets the atom range the passing log names, and
    one below 1 is refused (`require_probe`)."""
    require_probe(probe)
    if not is_positive_operator(R):
        return False, ["FAIL R is not positive"]
    if all(img.is_zero() for _, img in R.atom_images) and R.unit_image.is_zero():
        return False, ["FAIL R is zero"]
    log = ["R is positive and nonzero"]
    try:
        D = add_op(T, scale_op(-1, R))
    except (PreconditionError, StencilError) as e:
        return False, log + [f"FAIL T - R is not representable: {e}"]
    enumerated = T.domain.row.enumerated
    ref = first_negative_generator(D)
    if ref is None:
        top = T.domain.dim or max(table_top(R), table_top(T)) + probe
        log.append(f"R <= T on atoms 1..{top}" if enumerated
                   else "R <= T on the probed atom grid and every table entry")
        if T.domain.row.sequence:
            log.append("tail rule comparison: R vanishes beyond its table and T stays positive"
                       if R.rule is None or R.rule.is_zero() else "R <= T on the probed tail")
        if not T.domain.dim:
            log.append("R(unit) <= T(unit)")
        return True, log
    if ref[0] == "row_unit":
        fail = f"FAIL R <= T at row unit {ref[1]}"
    elif ref[0] == "unit":
        fail = "FAIL R <= T at the unit less finitely many atoms" + (
            " or row units" if T.domain.row_units else "")
    elif ref[1] not in dict(D.atom_images):
        fail = f"FAIL tail comparison at atom {ref[1]}"
    else:
        i = ref[1]
        fail = f"FAIL R(e{i}) !<= T(e{i})" if enumerated else f"FAIL R <= T at atom {i}"
    return False, log + [fail]


# ---------------------------------------------------------------------------
# classification of space pairs


# every variant of the kind table carries a complete atom system, so every
# codomain is atomic: the atomic-codomain route always gives pervasiveness,
# and these conclusions hold for every space pair
PERVASIVE_ROUTE = "atomic-codomain"
PAIR_CONCLUSIONS = (
    f"operator space pervasive in its completion ({PERVASIVE_ROUTE})",
    "interval-supremum formula for every positive part",
    "order-continuous regular operators form a band",
    "lattice completion realized inside the completed-codomain operators",
)


@record
class Classification:
    """The facts about a space pair that vary with the pair."""

    domain: SpaceDesc
    codomain: SpaceDesc
    riesz_space: bool
    codomain_order_complete: bool
    anchors: Tuple[str, ...]
    notes: Tuple[str, ...]


def classify_pair(E: SpaceDesc, F: SpaceDesc) -> Classification:
    anchors = [
        "rk-property-pervasive",
        "atomic-codomain-witness",
        "rk-formula",
        "oc-regular-band",
    ]
    notes = ["the codomain has a complete atom system; coordinate "
             "compositions give rank-one minorants"]
    if F.row.sequence:
        anchors.append("grid-codomain-rk")
        notes.append("eventually constant codomains always carry the "
                     "interval-supremum formula")
    if E.row.sequence:
        anchors.append("partial-sum-criterion")
    riesz = E.row.atom_span_codim == 0 and F.row.uniformly_complete
    if riesz:
        anchors.append("uniformly-complete-riesz")
    order_complete = F.row.order_complete
    if order_complete:
        riesz = True
        notes.append("the codomain is order complete; every classical "
                     "conclusion applies")
    return Classification(
        domain=E,
        codomain=F,
        riesz_space=riesz,
        codomain_order_complete=order_complete,
        anchors=tuple(dict.fromkeys(anchors)),
        notes=tuple(notes),
    )
