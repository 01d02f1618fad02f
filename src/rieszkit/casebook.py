"""Executable case studies with re-checkable certificates.

Three named runs:

  not-directed        -- the moving-indicator operator into the
                         uncountable-index space: order bounded and order
                         continuous, yet no positive order-continuous
                         majorant exists, so the order-continuous operators
                         there are not directed
  bounded-not-regular -- the row-pair difference operator: order bounded and
                         order continuous, but its interval suprema leave
                         the codomain on every row unit; growth of the
                         truncated majorant floor is attached as evidence
  projection-demo     -- randomized checks of the band-projection laws

The per-step checks of the first two runs, the cut-downs of not-directed
and the image steps of bounded-not-regular, compare generator parts
(`elements.sum_parts`) rather than elements.  The generator decomposition
of these spaces is unique, so merged parts are equal exactly when the
elements are; and a step's parts are O(1), where its element stores a
dense prefix as long as the step (a lone g(n) or e(n)), so each run costs
time linear in `--probe`, not quadratic.
"""

from __future__ import annotations

import random

from .errors import PreconditionError
from .scalars import Q, RationalSeq, qabs
from .spaces import (
    fin_dev,
    gamma,
    pair_form,
    row_block_ek,
    row_block_grid,
    seq_form,
    tail_seq,
    token_form,
)
from .elements import (
    atom,
    element_findev,
    element_tail,
    le,
    recompose,
    render,
    row_unit,
    scale,
    sum_parts,
    unit,
    zero,
)
from .completion import collapse
from .operators import (
    Operator,
    add_op,
    apply_op,
    apply_parts,
    atom_image,
    functional,
    image_parts,
    image_sum_pattern,
    op_eq,
    operator,
    order_bounded_test,
    partial_sum_seq,
    rank_one,
    scale_op,
    stencil_rule,
)
from .sequences import ElementSeq, element_seq, eval_seq, step_parts
from .convergence import (
    decide_order_convergence,
    o1_dominating_obstruction,
    verify_certificate,
)
from .calculus import (
    failing_generator,
    oc_projection,
    order_continuity_test,
    positive_part,
)
from .oracles import bruteforce_dominating_search, majorant_floors
from .reports import Report


def _require(ok: bool, what: str) -> None:
    """Check one conclusion of a run; unlike assert, this survives python -O."""
    if not ok:
        raise PreconditionError(f"casebook check failed: {what}")


def moving_indicator_operator() -> Operator:
    """Atoms map to successive one-point indicator differences; the unit
    maps to zero."""
    dom, cod = tail_seq(), fin_dev()
    rule = stencil_rule(
        1, 1, [[(token_form(1, 0), 1), (token_form(1, -1), -1)]], cod
    )
    return operator(
        dom,
        cod,
        {1: element_findev(cod, {gamma(1): 1}, 0)},
        rule,
        None,
        zero(cod),
    )


def moving_indicator_sequence() -> ElementSeq:
    """The sequence n -> indicator of the point g(n) in the uncountable-index
    space: the atom-image partial sums of the moving-indicator operator,
    whose coordinatewise limit is zero."""
    return element_seq(fin_dev(), atoms=[(token_form(1, 0), RationalSeq.const(1))])


def row_pair_difference_operator() -> Operator:
    """(Tx)_(n,m) = x_(n,2m-1) - x_(n,2m) from the row-block space with row
    units into the constant-off-finite grid."""
    dom, cod = row_block_ek(), row_block_grid()
    rule = stencil_rule(
        2,
        0,
        [
            [(pair_form(1, 0, Q(1, 2), 0), -1)],
            [(pair_form(1, 0, Q(1, 2), Q(1, 2)), 1)],
        ],
        cod,
    )
    return operator(dom, cod, {}, rule, {}, zero(cod))


def limit_functional_rank_one() -> Operator:
    dom = tail_seq()
    return rank_one(functional(dom, {}, 1), atom(dom, 1))


def identity_on_tail_seq() -> Operator:
    dom = tail_seq()
    rule = stencil_rule(1, 0, [[(seq_form(1, 0), 1)]], dom)
    return operator(dom, dom, {}, rule, None, unit(dom))


# ---------------------------------------------------------------------------


def run_not_directed(probe: int = 8) -> Report:
    T = moving_indicator_operator()
    dom, cod = T.domain, T.codomain
    transcript = []
    bound = order_bounded_test(T)
    _require(bound.bounded and bound.bound == scale(2, unit(cod)),
             "the order bound is twice the unit")
    # the partial sums of the moduli increase with n, so the last one below
    # the bound puts every one below it: one sum and one comparison.  An
    # image with no unit part has the modulus sum |c| e over its merged
    # atom parts c e, so the sum is one `recompose` of those parts
    images = [sum_parts(cod, image_parts(T, ("atom", n))) for n in range(1, probe + 1)]
    _require(all(("unit",) not in img for img in images), "the atom images have no unit part")
    moduli = recompose(cod, [(ref, qabs(c)) for img in images for ref, c in img.items()])
    _require(le(moduli, bound.bound), f"modulus partial sums 1..{probe} below the bound")
    transcript.append(
        f"modulus partial sums stay below {render(bound.bound)} "
        f"(literal sums checked at n=1..{probe}): order bounded"
    )
    oc, cert = order_continuity_test(T)
    _require(oc, "order continuity")
    s = partial_sum_seq(T)
    okc, _ = verify_certificate(cert, s, zero(T.codomain), probe)
    _require(okc, "the order-continuity certificate verifies")
    lit = zero(T.codomain)
    for n in range(1, 4):
        lit = lit + atom_image(T, n)
        _require(eval_seq(s, n) == lit, f"partial sum {n} matches the literal sum")
    transcript.append(
        "atom-image partial sums telescope to a moving indicator and order "
        "converge to the zero unit image: order continuous"
    )
    # any candidate majorant S >= 0, -T with generator data satisfies
    # y_n := S(1) - partial sums of S >= -T(1 - sum of first n atoms),
    # evaluated exactly below: the cut-downs run as one sum by linearity,
    # -T(1) less one atom image a step, checked once against the literal
    # cut.  The sum is kept as merged generator parts, which the unique
    # decomposition makes an exact equality test, so a step costs O(its
    # parts) and the loop is linear in probe
    minus_T = scale_op(-1, T)
    rhs = sum_parts(cod, apply_parts(minus_T, [(("unit",), 1)]))
    for n in range(1, probe + 1):
        rhs = sum_parts(cod, [*rhs.items(), *apply_parts(minus_T, [(("atom", n), -1)])])
        _require(rhs == {("atom", gamma(n)): 1}, f"the cut-down {n} maps to g({n})")
    cut = recompose(dom, [(("unit",), 1)] + [(("atom", k), -1) for k in range(1, probe + 1)])
    _require(apply_op(minus_T, cut) == recompose(cod, rhs.items()),
             f"the literal cut-down {probe} maps to the sum")
    transcript.append(
        "for any S >= 0, -T: y_n = S(1) - sum of its first n atom images "
        "dominates the n-th indicator (evaluated exactly on probes)"
    )
    transcript.append(
        "y_n decreases (atom images of S are positive), keeps infinitely "
        "many coordinates >= 1, and so keeps ambient >= 1 in the "
        "finite-deviation representation"
    )
    x = moving_indicator_sequence()
    obstruction = o1_dominating_obstruction(x)
    ok, log = verify_certificate(obstruction, x, probe=probe)
    _require(ok, "the obstruction certificate verifies")
    transcript.append(
        "the monotone rule requires the ambient of a decreasing-to-zero "
        "family to vanish; the fresh-point minorant refutes every candidate"
    )
    search = bruteforce_dominating_search(x, bound=6)
    _require(search.found is None, "no dominating family in the bounded search")
    transcript.append(
        f"bounded search over {search.candidates_checked} structured "
        "candidate families confirms: none dominate while decreasing to zero"
    )
    transcript.append(
        "the candidate class is every operator given by generator data "
        "with a residue-class affine tail; the derivation used only "
        "positivity and linearity, so it covers the whole class"
    )
    return Report(
        command="casebook not-directed",
        verdict="not directed",
        exit_code=0,
        anchors=(
            "order-bound-partial-moduli",
            "partial-sum-criterion",
            "moving-indicator-oconv",
            "uncountable-ambient-obstruction",
        ),
        certificate={"order_continuity": cert, "obstruction": obstruction},
        oracle={
            "dominating_search_checked": search.candidates_checked,
            "dominating_search_found": False,
        },
        transcript=tuple(transcript),
        details={"order_bound": bound.bound},
    )


def run_bounded_not_regular(probe: int = 8) -> Report:
    T = row_pair_difference_operator()
    dom, cod = T.domain, T.codomain
    transcript = []
    _require(apply_op(T, atom(dom, (1, 1))) == atom(cod, (1, 1)), "the first atom passes through")
    _require(apply_op(T, row_unit(dom, 1)).is_zero(), "row unit 1 cancels")
    _require(apply_op(T, unit(dom)).is_zero(), "the unit cancels")
    transcript.append(
        "spot checks: the first atom passes through, row units and the unit "
        "cancel pairwise"
    )
    bound = order_bounded_test(T)
    _require(bound.bounded, "order boundedness")
    transcript.append(f"order bounded with bound {render(bound.bound)}")
    # order continuity through the coordinatewise route: the tail rule makes
    # every output coordinate a finite combination of input coordinates, and
    # probed order-null test sequences map to order-null sequences.  Each
    # step n of the symbolic image is checked against T of the test step as
    # merged generator parts, exact by the unique decomposition, so a step
    # costs O(its parts) and the check is linear in probe
    tests = {
        "moving row bump": element_seq(
            dom, atoms=[(pair_form(1, 0, 0, 1), RationalSeq.const(1))]
        ),
        "moving even-column bump": element_seq(
            dom, atoms=[(pair_form(0, 1, 2, 0), RationalSeq.const(1))]
        ),
        "moving odd-diagonal bump": element_seq(
            dom, atoms=[(pair_form(1, 0, 2, 1), RationalSeq.const(1))]
        ),
        "decaying fixed atom": element_seq(
            dom, atoms=[(pair_form(0, 1, 0, 1), RationalSeq.harmonic(1))]
        ),
    }
    certs = {}
    for name, xs in tests.items():
        image_seq = _image_sequence(T, xs)
        cert = decide_order_convergence(image_seq, zero(cod))
        _require(cert.converges, f"the {name} image converges")
        for n in range(1, probe + 1):
            _require(sum_parts(cod, step_parts(image_seq, n))
                     == sum_parts(cod, apply_parts(T, step_parts(xs, n))),
                     f"the {name} image at step {n}")
        ok, _ = verify_certificate(cert, image_seq, zero(cod), probe)
        _require(ok, f"the {name} certificate verifies")
        certs[name] = cert
    transcript.append(
        "order-null test sequences map to order-null image sequences "
        "(coordinatewise route; certificates attached)"
    )
    P, tail, in_f = positive_part(T)
    _require(not in_f, "the positive part leaves the operator space")
    failing = failing_generator(P, tail)
    transcript.append(
        f"interval suprema on {failing} form the all-ones row pattern, "
        "which deviates from the grid constant on an infinite set: the "
        "positive part leaves the operator space"
    )
    mu = majorant_floors(T, 8)
    _require(all(v >= Q(n, 2) for n, v in enumerate(mu)), "majorant floors grow linearly")
    _require(all(a <= b for a, b in zip(mu, mu[1:])), "majorant floors increase")
    transcript.append(
        "truncated majorant floors grow linearly with the level, evidence "
        "consistent with the cited non-regularity (the non-regularity proof "
        "itself is external)"
    )
    return Report(
        command="casebook bounded-not-regular",
        verdict="order continuous, order bounded, positive part not representable",
        exit_code=0,
        anchors=(
            "order-bound-partial-moduli",
            "pointwise-rowblock-oc",
            "rk-formula",
            "cited-nonregularity",
        ),
        certificate={"order_convergence": certs},
        oracle={"majorant_floor": {str(n): v for n, v in enumerate(mu)}},
        transcript=tuple(transcript),
        details={
            "order_bound": bound.bound,
            "positive_part_in_space": in_f,
            "failing_generator": failing,
        },
    )


def _image_sequence(T: Operator, xs):
    """Push a single-atom symbolic test sequence through a stencil operator.

    The composition of affine forms is again affine when the test atom's
    column stays in one residue class of the rule (fixed column, or a slope
    that is a multiple of the modulus)."""
    (form, coeff), = xs.atoms
    if T.rule is None:
        return element_seq(T.codomain)
    q = T.rule.modulus
    drive = form.drive
    if drive.p % (drive.d * q):  # the slope p/d is not a multiple of the modulus
        raise PreconditionError(
            "the test atom's column walks across residue classes; its image "
            "sequence is outside the representable class"
        )
    m0 = drive.at_int(1)
    if m0 <= T.rule.threshold and not drive.p:
        return element_seq(T.codomain)  # below the rule: image is zero
    return element_seq(T.codomain, atoms=[(out_form.compose(form), coeff.scale(c))
                                          for out_form, c in T.rule.entries_for(m0)])


def run_projection_demo(seed: int = 42) -> Report:
    rng = random.Random(seed)
    dom = tail_seq()
    checks = {"idempotent": 0, "bounded_between": 0, "additive": 0, "kills_no_atom": 0}
    transcript = []
    for _ in range(12):
        T = _random_stencil_operator(rng, positive=True)
        S = _random_stencil_operator(rng, positive=True)
        P_T = oc_projection(T)
        P_S = oc_projection(S)
        _require(op_eq(oc_projection(P_T), P_T), "the projection is idempotent")
        checks["idempotent"] += 1
        _require(le(zero(T.codomain), P_T.unit_image), "the projection is positive")
        _require(le(P_T.unit_image, T.unit_image), "the projection is below T")
        checks["bounded_between"] += 1
        _require(op_eq(oc_projection(add_op(S, T)), add_op(P_S, P_T)),
                 "the projection is additive")
        checks["additive"] += 1
        # the complement kills every atom: P keeps the atom images
        for i in range(1, 5):
            _require(atom_image(P_T, i) == atom_image(T, i), f"the projection keeps atom {i}")
        checks["kills_no_atom"] += 1
    transcript.append(
        "12 random positive stencil operators: projection idempotent, "
        "additive, squeezed between 0 and the operator, and the complement "
        "vanishes on every atom"
    )
    ident = identity_on_tail_seq()
    _require(oc_projection(ident).unit_image == ident.unit_image, "the identity is fixed")
    lf = limit_functional_rank_one()
    P_lf = oc_projection(lf)
    _require(P_lf.unit_image.is_zero() and P_lf.unit_image != lf.unit_image,
             "the limit-functional tensor projects to zero")
    transcript.append(
        "the identity is fixed; the limit-functional tensor projects to zero"
    )
    return Report(
        command="casebook projection-demo",
        verdict="projection laws hold",
        exit_code=0,
        anchors=("partial-sum-projection", "oc-regular-band"),
        certificate=None,
        oracle={"checks": checks, "seed": seed},
        transcript=tuple(transcript),
    )


def _random_stencil_operator(rng: random.Random, positive: bool = False) -> Operator:
    """Random operator on the eventually constant sequences, full-coverage
    tail rule so the partial-sum limit is representable."""
    dom = tail_seq()
    threshold = rng.randint(1, 3)
    images = {}
    for i in range(1, threshold + 1):
        vals = [Q(rng.randint(0 if positive else -3, 3)) for _ in range(rng.randint(0, 2))]
        images[i] = element_tail(dom, vals, 0)
    b = rng.randint(0, 2)
    coeff = Q(rng.randint(0 if positive else -2, 3))
    entries = [[(seq_form(1, b), coeff)]] if coeff != 0 else [[]]
    rule = stencil_rule(1, threshold, entries, dom)
    tmp = operator(dom, dom, images, rule, None, zero(dom))
    sigma = collapse(image_sum_pattern(tmp, "id"))
    _require(sigma is not None, "the partial-sum limit is representable")
    if positive:
        slack = Q(rng.randint(0, 2))
        unit_img = sigma + scale(slack, unit(dom))
    else:
        bump = Q(rng.randint(-2, 2))
        unit_img = sigma + scale(bump, atom(dom, 1))
    return operator(dom, dom, images, rule, None, unit_img)


CASEBOOK = {
    "not-directed": run_not_directed,
    "bounded-not-regular": run_bounded_not_regular,
    "projection-demo": run_projection_demo,
}
