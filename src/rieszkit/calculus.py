"""Theorem-driven procedures on representable operators.

The positive-part values are computed in the completion and then membership
tested: on an atom the supremum over the order interval collapses to the
positive part of the image; on the unit it is the closed form

    sup = (sum of positive parts of the atom images)
        + positive part of (unit image - sum of the atom images)

per output coordinate, the endpoint solution of the box-linear program over
the order interval.  The order-continuity test reduces to order convergence
of the atom-image partial sums to the unit image; the band projection onto
the order-continuous part keeps the atom images and replaces the unit image
by the partial-sum limit computed in the completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import PreconditionError, UnsupportedHypothesisError
from .scalars import Q
from .spaces import AtomIndex, Kind, SpaceDesc
from .elements import (
    Element,
    atom,
    decompose,
    is_positive as elem_is_positive,
    le,
    lincomb,
    pos,
    row_unit,
    scale,
    sub,
    unit,
    zero,
)
from .completion import (
    CompletionElement,
    ce_add,
    ce_pos,
    ce_scale,
    ce_sub,
    collapse,
    embed,
    in_space,
)
from .convergence import ConvergenceCertificate, decide_order_convergence
from .operators import (
    BoundReport,
    Functional,
    Operator,
    StencilRule,
    apply_op,
    atom_image,
    coordinate_functional_of,
    functional,
    image_sum_pattern,
    is_positive_operator,
    operator,
    order_bounded_test,
    partial_sum_seq,
    rank_one,
    row_sum_pattern,
    row_unit_image,
    same_atom_images,
    _max_drive,
    _rule_image,
)


def _require_bounded(T: Operator) -> BoundReport:
    rep = order_bounded_test(T)
    if not rep.bounded:
        raise PreconditionError(f"operator is not order bounded: {rep.note}")
    return rep


def entrywise_pos_op(T: Operator) -> Operator:
    """Atom images replaced by their positive parts (tail rule included)."""
    images = {k: pos(v) for k, v in T.atom_images}
    rule = None
    if T.rule is not None:
        rule = StencilRule(
            T.rule.modulus,
            T.rule.threshold,
            tuple(
                tuple((f, max(c, Q(0))) for f, c in es if c > 0)
                for es in T.rule.entries
            ),
        )
    if T.domain.kind == Kind.FIN_DIM:
        return operator(T.domain, T.codomain, images)
    unit_img = zero(T.codomain)  # placeholder; only atom action is used
    return operator(T.domain, T.codomain, images, rule, None, unit_img)


def rk_unit_pattern(T: Operator) -> CompletionElement:
    """sup of T over the order interval below the unit, coordinatewise."""
    sigma_pos = image_sum_pattern(T, "pos")
    sigma = image_sum_pattern(T, "id")
    return ce_add(sigma_pos, ce_pos(ce_sub(embed(T.unit_image), sigma)))


def rk_value(T: Operator, x: Element) -> CompletionElement:
    """sup { T(y) : 0 <= y <= x }, computed in the completion."""
    if x.space != T.domain:
        raise PreconditionError("argument lives in the wrong space")
    if not elem_is_positive(x):
        raise PreconditionError("the interval endpoint must be positive")
    _require_bounded(T)
    kind = T.domain.kind
    tpos = entrywise_pos_op(T)
    if kind == Kind.FIN_DIM:
        return embed(lincomb(T.codomain, [
            (v, pos(atom_image(T, i))) for i, v in enumerate(x.coords, start=1) if v != 0
        ]))
    if kind == Kind.TAIL_SEQ or (kind == Kind.ROW_BLOCK and not T.domain.row_units):
        t = x.tail
        devs = sub(x, scale(t, unit(T.domain)))
        finite_part = embed(apply_op(tpos, devs))
        if t == 0:
            return finite_part
        return ce_add(finite_part, ce_scale(t, rk_unit_pattern(T)))
    # ek domain: pointwise positive action + row-unit and unit correction terms
    t = x.tail
    out = embed(zero(T.codomain))
    dev_elem = lincomb(T.codomain, [
        (c, pos(atom_image(T, ref[1]))) for ref, c in decompose(x) if ref[0] == "atom"
    ])
    out = ce_add(out, embed(dev_elem))
    explicit_rows = list(range(1, len(x.rows) + 1))
    rowpos_total = None
    for r, (_, rt) in enumerate(x.rows, start=1):
        rp = row_sum_pattern(T, r, "pos")
        rowpos_total = rp if rowpos_total is None else ce_add(rowpos_total, rp)
        if rt != 0:
            out = ce_add(out, ce_scale(rt, rp))
            corr = ce_pos(
                ce_sub(embed(row_unit_image(T, r)), row_sum_pattern(T, r, "id"))
            )
            out = ce_add(out, ce_scale(rt, corr))
    if t != 0:
        sigma_pos = image_sum_pattern(T, "pos")
        beyond_pos = (
            ce_sub(sigma_pos, rowpos_total) if rowpos_total is not None else sigma_pos
        )
        out = ce_add(out, ce_scale(t, beyond_pos))
        _check_ek_beyond_rows(T, explicit_rows)
        rho_sum = lincomb(T.codomain, [(1, img) for _, img in T.row_unit_images])
        for r, _ in T.row_unit_images:
            if r not in explicit_rows:
                corr = ce_pos(
                    ce_sub(embed(row_unit_image(T, r)), row_sum_pattern(T, r, "id"))
                )
                out = ce_add(out, ce_scale(t, corr))
        out = ce_add(out, ce_scale(t, ce_pos(embed(sub(T.unit_image, rho_sum)))))
    return out


def _check_ek_beyond_rows(T: Operator, explicit_rows) -> None:
    """Rows past every table must contribute nothing to the supremum: the
    zero row-unit image there has to dominate the rule's row sums."""
    probe_row = max(
        [r for r, _ in T.row_unit_images] + list(explicit_rows) + [0]
    ) + 1
    corr = ce_pos(ce_sub(embed(zero(T.codomain)), row_sum_pattern(T, probe_row, "id")))
    if not corr.is_zero():
        raise PreconditionError(
            "positive-part values for this operator family leave the "
            "representable completion fragment"
        )


def rk_value_functional_unit(f: Functional) -> Q:
    """Closed form of the positive part of a functional at the unit:
    max(sum of positive coefficients, unit value + sum of negative parts)."""
    pos_sum = sum((max(v, Q(0)) for _, v in f.atom_coeffs), Q(0))
    neg_sum = sum((max(-v, Q(0)) for _, v in f.atom_coeffs), Q(0))
    return max(pos_sum, f.unit_value + neg_sum)


# ---------------------------------------------------------------------------
# operators over completion values


@dataclass(frozen=True)
class CompletionOperator:
    """Generator images with completion-valued unit and row-unit images;
    atom images stay exact elements.  `row_unit_tail` is the image pattern
    at a representative row beyond every table (the shape recurs row by
    row), present only for ek domains."""

    domain: SpaceDesc
    codomain: SpaceDesc
    atom_images: Tuple[Tuple[AtomIndex, Element], ...]
    rule: StencilRule | None
    row_unit_images: Tuple[Tuple[int, CompletionElement], ...]
    unit_image: CompletionElement
    row_unit_tail: CompletionElement | None = None

    def atom_image(self, idx: AtomIndex) -> Element:
        for k, img in self.atom_images:
            if k == idx:
                return img
        return _rule_image(self.codomain, self.rule, idx)

    def in_codomain(self) -> bool:
        return self.failing_generator() is None

    def failing_generator(self) -> str | None:
        if not in_space(self.unit_image):
            return "unit"
        for r, img in self.row_unit_images:
            if not in_space(img):
                return f"row unit {r}"
        if self.row_unit_tail is not None and not in_space(self.row_unit_tail):
            return "row units beyond the table"
        return None

    def restrict(self) -> Operator:
        u = collapse(self.unit_image)
        rows = {r: collapse(img) for r, img in self.row_unit_images}
        if u is None or any(v is None for v in rows.values()):
            raise PreconditionError("completion images do not restrict to the space")
        if self.row_unit_tail is not None:
            tail = collapse(self.row_unit_tail)
            if tail is None or not tail.is_zero():
                raise PreconditionError(
                    "row-unit images beyond the table do not vanish"
                )
        if self.domain.kind == Kind.FIN_DIM:
            return operator(self.domain, self.codomain, dict(self.atom_images))
        return operator(
            self.domain, self.codomain, dict(self.atom_images), self.rule, rows, u
        )


def embed_operator(T: Operator) -> CompletionOperator:
    return CompletionOperator(
        T.domain,
        T.codomain,
        T.atom_images,
        T.rule,
        tuple((r, embed(img)) for r, img in T.row_unit_images),
        embed(T.unit_image),
    )


def completion_op_eq(A: CompletionOperator, B: CompletionOperator) -> bool:
    """Exact equality on the generator family."""
    return (
        (A.domain, A.codomain) == (B.domain, B.codomain)
        and A.unit_image == B.unit_image
        and dict(A.row_unit_images) == dict(B.row_unit_images)
        and same_atom_images(A, B)
    )


def _atom_part(A: CompletionOperator) -> Operator:
    """The operator with A's atom images and rule and zero unit and row-unit
    images."""
    return operator(
        A.domain, A.codomain, dict(A.atom_images), A.rule, None,
        zero(A.codomain) if A.domain.kind != Kind.FIN_DIM else None,
    )


def completion_op_add(A: CompletionOperator, B: CompletionOperator) -> CompletionOperator:
    from .operators import add_op

    S = add_op(_atom_part(A), _atom_part(B))
    rows = {}
    for r, img in list(A.row_unit_images) + list(B.row_unit_images):
        rows[r] = ce_add(rows[r], img) if r in rows else img
    return CompletionOperator(
        A.domain,
        A.codomain,
        S.atom_images,
        S.rule,
        tuple(sorted(rows.items())),
        ce_add(A.unit_image, B.unit_image),
    )


# ---------------------------------------------------------------------------
# positive part


def positive_part(T: Operator) -> tuple[CompletionOperator, bool]:
    """Candidate positive part over the completion, with the membership flag.

    The candidate's generator images are the interval suprema; when every one
    is representable the candidate is the positive part inside the operator
    space, by restriction of the supremum computed in the completion."""
    _require_bounded(T)
    tpos = entrywise_pos_op(T)
    if T.domain.kind == Kind.FIN_DIM:
        cand = CompletionOperator(
            T.domain, T.codomain, tpos.atom_images, None, (), embed(tpos.unit_image)
        )
        return cand, True
    if T.domain.kind == Kind.ROW_BLOCK and T.domain.row_units:
        table_rows = [r for r, _ in T.row_unit_images]
        rows = tuple(
            (r, rk_value(T, row_unit(T.domain, r))) for r in table_rows
        )
        beyond = max(table_rows, default=0) + 1
        tail = rk_value(T, row_unit(T.domain, beyond))
        cand = CompletionOperator(
            T.domain,
            T.codomain,
            tpos.atom_images,
            tpos.rule,
            rows,
            rk_value(T, unit(T.domain)),
            row_unit_tail=tail,
        )
        return cand, cand.in_codomain()
    cand = CompletionOperator(
        T.domain, T.codomain, tpos.atom_images, tpos.rule, (), rk_unit_pattern(T)
    )
    return cand, cand.in_codomain()


# ---------------------------------------------------------------------------
# order continuity and the band projection


def order_continuity_test(
    T: Operator, probe: int = 8
) -> tuple[bool, ConvergenceCertificate]:
    """Order continuity via the partial-sum criterion: the atom-image sums
    must order converge to the unit image."""
    if T.domain.kind == Kind.ROW_BLOCK:
        raise UnsupportedHypothesisError(
            "the partial-sum criterion needs a linearly enumerated atom system"
        )
    _require_bounded(T)
    if T.domain.kind == Kind.FIN_DIM:
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
    cert = decide_order_convergence(s, T.unit_image, probe)
    cert = ConvergenceCertificate(
        verdict=cert.verdict,
        space=cert.space,
        mode=cert.mode,
        dominating=cert.dominating,
        escaping=cert.escaping,
        escape_bound=cert.escape_bound,
        order_bound=cert.order_bound,
        minorant=cert.minorant,
        bad_class=cert.bad_class,
        bad_value=cert.bad_value,
        n0=cert.n0,
        anchors=cert.anchors + ("partial-sum-criterion", "sigma-net-equivalence"),
        notes=cert.notes,
    )
    return cert.converges, cert


def oc_projection(T: Operator | CompletionOperator) -> CompletionOperator:
    """Band projection onto the order-continuous part: atom images are kept
    and the unit image becomes the partial-sum limit in the completion."""
    if T.domain.kind == Kind.ROW_BLOCK:
        raise UnsupportedHypothesisError(
            "the projection needs a linearly enumerated atom system"
        )
    if isinstance(T, CompletionOperator):
        base = _atom_part(T)
    else:
        _require_bounded(T)
        base = T
    if base.domain.kind == Kind.FIN_DIM:
        return embed_operator(base)
    sigma = image_sum_pattern(base, "id")
    return CompletionOperator(
        base.domain, base.codomain, base.atom_images, base.rule, (), sigma
    )


def projection_fixes(T: Operator) -> bool:
    """P(T) == T, i.e. the unit image equals the partial-sum limit."""
    if T.domain.kind == Kind.FIN_DIM:
        return True
    return image_sum_pattern(T, "id") == embed(T.unit_image)


# ---------------------------------------------------------------------------
# pervasiveness witnesses


@dataclass(frozen=True)
class Witness:
    functional: Functional
    vector: Element
    operator: Operator
    generator: str
    coordinate: AtomIndex | None
    transcript: Tuple[str, ...]


def pervasive_witness(T: Operator, probe: int = 8) -> Witness:
    """A rank-one operator R with 0 < R <= T.

    With an atomic codomain the witness composes a coordinate functional
    with T and tensors it against the selected codomain atom; when T
    vanishes on every domain atom the domain's atom span must have
    codimension at most one, and T itself is the (rank-one) witness.
    """
    if not is_positive_operator(T):
        raise PreconditionError("T is not positive")
    gen, x0 = _first_positive_generator(T, probe)
    if gen is None:
        raise PreconditionError("T is not positive (no generator image is nonzero)")
    if gen[0] == "atom":
        j = _first_positive_coordinate(apply_op(T, x0))
        f = coordinate_functional_of(T, j)
        v = atom(T.codomain, j)
        R = rank_one(f, v)
        transcript = _witness_transcript(R, T, gen, j, probe)
        return Witness(f, v, R, _gen_label(gen), j, transcript)
    # every atom image vanishes: T factors through the quotient by the atom
    # span closure, which must have codimension <= 1
    if not _atom_span_codim_le_1(T.domain):
        raise UnsupportedHypothesisError(
            "atom images vanish and the atom span closure has codimension > 1 "
            "(neither the atomic-codomain nor the codimension-one route applies)"
        )
    f = functional(T.domain, {}, 1)
    v = T.unit_image
    R = rank_one(f, v)
    transcript = _witness_transcript(R, T, gen, None, probe)
    transcript = transcript + (
        "T vanishes on the atom span closure, so it is the rank-one tensor "
        "of the unit-coefficient functional with its unit image",
    )
    return Witness(f, v, R, _gen_label(gen), None, transcript)


def _gen_label(gen) -> str:
    if gen[0] == "atom":
        from .spaces import atom_str

        return atom_str(gen[1])
    return "unit"


def _first_positive_generator(T: Operator, probe: int):
    top = (T.rule.threshold if T.rule else _max_drive(T)) + probe
    for idx, img in T.atom_images:  # explicit table first (sorted)
        if not img.is_zero():
            return ("atom", idx), atom(T.domain, idx)
    if T.domain.kind in (Kind.FIN_DIM, Kind.TAIL_SEQ):
        hi = T.domain.dim if T.domain.kind == Kind.FIN_DIM else top
        for i in range(1, hi + 1):
            img = atom_image(T, i)
            if not img.is_zero():
                return ("atom", i), atom(T.domain, i)
        if T.rule is not None and not T.rule.is_zero():
            first = T.rule.threshold + 1
            return ("atom", first), atom(T.domain, first)
    else:
        for n in range(1, probe + 1):
            for m in range(1, top + 1):
                img = atom_image(T, (n, m))
                if not img.is_zero():
                    return ("atom", (n, m)), atom(T.domain, (n, m))
    if not T.unit_image.is_zero():
        return ("unit",), unit(T.domain)
    for r, img in T.row_unit_images:
        if not img.is_zero():
            return ("unit",), row_unit(T.domain, r)
    return None, None


def _first_positive_coordinate(y: Element) -> AtomIndex:
    k = y.space.kind
    if k == Kind.FIN_DIM:
        for i, v in enumerate(y.coords, start=1):
            if v > 0:
                return i
    elif k == Kind.TAIL_SEQ:
        for i, v in enumerate(y.prefix, start=1):
            if v > 0:
                return i
        if y.tail > 0:
            return len(y.prefix) + 1
    elif k == Kind.FIN_DEV:
        for tok, v in y.entries:
            if v > 0:
                return tok
        if y.ambient > 0:
            from .spaces import gamma

            return gamma(1)
    else:
        for n, (pref, rt) in enumerate(y.rows, start=1):
            for m, v in enumerate(pref, start=1):
                if v > 0:
                    return (n, m)
            if rt > 0:
                return (n, len(pref) + 1)
        if y.tail > 0:
            return (len(y.rows) + 1, 1)
    raise PreconditionError("image has no positive coordinate")


def _witness_transcript(R: Operator, T: Operator, gen, j, probe: int) -> Tuple[str, ...]:
    ok, lines = verify_witness_inner(R, T, probe)
    if not ok:
        raise PreconditionError("witness construction failed its own transcript")
    return tuple(lines)


def verify_witness(w: Witness, T: Operator, probe: int = 8) -> tuple[bool, list[str]]:
    return verify_witness_inner(w.operator, T, probe)


def verify_witness_inner(R: Operator, T: Operator, probe: int = 8) -> tuple[bool, list[str]]:
    """Re-check 0 < R <= T on generators (probed window plus symbolic tail)."""
    log: list[str] = []
    ok = True
    if not is_positive_operator(R):
        return False, ["FAIL R is not positive"]
    nonzero = any(not img.is_zero() for _, img in R.atom_images) or (
        not R.unit_image.is_zero()
    )
    if not nonzero:
        return False, ["FAIL R is zero"]
    log.append("R is positive and nonzero")
    top = max(
        R.rule.threshold if R.rule else _max_drive(R),
        T.rule.threshold if T.rule else _max_drive(T),
    ) + probe
    if T.domain.kind in (Kind.FIN_DIM, Kind.TAIL_SEQ):
        hi = T.domain.dim if T.domain.kind == Kind.FIN_DIM else top
        for i in range(1, hi + 1):
            if not le(atom_image(R, i), atom_image(T, i)):
                log.append(f"FAIL R(e{i}) !<= T(e{i})")
                ok = False
        if ok:
            log.append(f"R <= T on atoms 1..{hi}")
        if T.domain.kind == Kind.TAIL_SEQ:
            if R.rule is None or R.rule.is_zero():
                # tail: R vanishes there while T's rule keeps positive coefficients
                tail_ok = T.rule is None or all(
                    c >= 0 for es in T.rule.entries for _, c in es
                )
                log.append(
                    "tail rule comparison: R vanishes beyond its table and T stays positive"
                    if tail_ok
                    else "FAIL tail comparison"
                )
                ok = ok and tail_ok
            else:
                for i in range(top, top + probe):
                    if not le(atom_image(R, i), atom_image(T, i)):
                        log.append(f"FAIL tail comparison at atom {i}")
                        ok = False
                        break
                else:
                    log.append("R <= T on the probed tail")
    else:
        pairs = {(n, m) for n in range(1, probe + 1) for m in range(1, top + 1)}
        pairs.update(k for k, _ in R.atom_images)
        pairs.update(k for k, _ in T.atom_images)
        for nm in sorted(pairs):
            if not le(atom_image(R, nm), atom_image(T, nm)):
                log.append(f"FAIL R <= T at atom {nm}")
                ok = False
        if ok:
            log.append("R <= T on the probed atom grid and every table entry")
        for r in {k for k, _ in R.row_unit_images} | {k for k, _ in T.row_unit_images}:
            if not le(row_unit_image(R, r), row_unit_image(T, r)):
                log.append(f"FAIL R <= T at row unit {r}")
                ok = False
    if T.domain.kind != Kind.FIN_DIM:
        if not le(R.unit_image, T.unit_image):
            log.append("FAIL R(unit) !<= T(unit)")
            ok = False
        else:
            log.append("R(unit) <= T(unit)")
    return ok, log


# ---------------------------------------------------------------------------
# classification of space pairs


@dataclass(frozen=True)
class Classification:
    domain: SpaceDesc
    codomain: SpaceDesc
    pervasive: bool
    pervasive_route: str
    rk_property: bool
    oc_band: bool
    riesz_completion_subspace: bool
    riesz_space: bool
    codomain_order_complete: bool
    anchors: Tuple[str, ...]
    notes: Tuple[str, ...]


def _atom_span_codim(space: SpaceDesc) -> int | None:
    """Codimension of the uniform closure of the atom span (None = infinite)."""
    if space.kind == Kind.FIN_DIM:
        return 0
    if space.kind == Kind.TAIL_SEQ:
        return 1  # the unit spans the quotient
    if space.kind == Kind.FIN_DEV:
        return 1
    if space.row_units:
        return None  # each row unit survives the closure independently
    return 1


def _atom_span_codim_le_1(space: SpaceDesc) -> bool:
    c = _atom_span_codim(space)
    return c is not None and c <= 1


def _uniformly_complete(space: SpaceDesc) -> bool:
    # reconstructed table: the finite-dimensional and uncountable-index kinds
    # are complete (sup-norm lattices); the eventually-constant kinds are not
    # (dyadic staircases are uniformly Cauchy with no eventually constant limit)
    return space.kind in (Kind.FIN_DIM, Kind.FIN_DEV)


def classify_pair(E: SpaceDesc, F: SpaceDesc) -> Classification:
    # all four representable kinds carry complete atom systems, so every
    # codomain is atomic and the atomic-codomain route always applies
    anchors = [
        "rk-property-pervasive",
        "atomic-codomain-witness",
        "rk-formula",
        "oc-regular-band",
    ]
    notes = ["the codomain has a complete atom system; coordinate "
             "compositions give rank-one minorants"]
    if F.kind == Kind.TAIL_SEQ:
        anchors.append("grid-codomain-rk")
        notes.append("eventually constant codomains always carry the "
                     "interval-supremum formula")
    if E.kind == Kind.TAIL_SEQ:
        anchors.append("partial-sum-criterion")
    riesz = _atom_span_codim(E) == 0 and _uniformly_complete(F)
    if riesz:
        anchors.append("uniformly-complete-riesz")
    order_complete = F.kind == Kind.FIN_DIM
    if order_complete:
        riesz = True
        notes.append("the codomain is order complete; every classical "
                     "conclusion applies")
    return Classification(
        domain=E,
        codomain=F,
        pervasive=True,
        pervasive_route="atomic-codomain",
        rk_property=True,
        oc_band=True,
        riesz_completion_subspace=True,
        riesz_space=riesz,
        codomain_order_complete=order_complete,
        anchors=tuple(dict.fromkeys(anchors)),
        notes=tuple(notes),
    )
