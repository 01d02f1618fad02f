"""Decision procedures for monotone limits and order convergence, with
re-checkable certificates.

The decision rules per space kind:

  monotone family b_n decreasing:  b_n decreases to zero iff every
  coordinate's value sequence has infimum 0, and -- for the uncountably
  indexed kind -- the ambient sequence also tends to 0.  The ambient clause
  is forced by the representation: a countable union of finite supports
  misses some fresh point, whose value is the ambient, so a persistent
  ambient eps yields the positive minorant eps * indicator(fresh point).

  order convergence x_n -> L:  the sequence is order bounded by class
  structure, and converges iff every coordinate's value sequence tends to
  the limit's coordinate (ambient included for the uncountable kind).  The
  certificate carries an explicit dominating family for the part that a
  same-index decreasing family can dominate, and an escaping-support record
  for moving bumps, which are dominated by the net of finite-support
  cut-downs of the order bound (an order-convergence witness that is
  provably not replaceable by a same-index family in the uncountable kind).

Each probed check of the verifier is one walk of `sequences`.
"""

from __future__ import annotations

from typing import Tuple

from .records import DataclassFields, record
from .errors import NotDecreasingError, PreconditionError, SpaceMismatchError
from .scalars import Q, RationalSeq, qabs_le, qle, qstr
from .spaces import SpaceDesc, Token, fresh_star, seq_form
from .elements import (
    Element,
    atom,
    is_positive,
    le,
    max_abs_coord,
    nonzero_classes,
    scale,
    support,
    unit,
)
from .sequences import (
    ElementSeq,
    MovingAtom,
    check_indices,
    cover_shift,
    decreasing_failure,
    deviation_bound,
    element_seq,
    eval_seq,
    eventual_pattern,
    fill,
    less_atoms,
    normalize,
    structural_threshold,
    sub_element,
    walk_failure,
)

CONVERGES = "converges"
DIVERGES = "diverges"


@record
class ConvergenceCertificate:
    verdict: str
    space: SpaceDesc
    mode: str = "order"  # "monotone" | "order" | "o1_obstruction"
    dominating: ElementSeq | None = None
    escaping: Tuple[MovingAtom, ...] = ()
    escape_bound: Q = Q(0)
    order_bound: Element | None = None
    minorant: Element | None = None
    bad_class: str | None = None
    bad_value: Q | None = None
    n0: int = 1
    anchors: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    # the public evidence type: callers vary it with `dataclasses.replace`
    __dataclass_fields__ = DataclassFields()

    @property
    def converges(self) -> bool:
        return self.verdict == CONVERGES


# ---------------------------------------------------------------------------
# decreasing check


def require_probe(probe: int) -> None:
    """Refuse a probe below 1: its window would end before the steps the
    symbolic rule starts from, and a check over it would pass vacuously."""
    if probe < 1:
        raise PreconditionError(f"probe must be at least 1, got {probe}")


def check_decreasing(b: ElementSeq, probe: int = 8) -> int:
    """Verify b_{n+1} <= b_n for all n; returns the verified window end.

    Concrete comparisons cover every step up to the structural threshold
    plus the probe (`sequences.decreasing_failure`).  Beyond the window the
    eventual regime makes the comparisons recur verbatim, which the
    symbolic conditions certify: nonincreasing ambient, nonincreasing
    stationary coefficients, nonpositive moving coefficients and fill
    values.  A probe below 1 is refused (`require_probe`).
    """
    require_probe(probe)
    window = structural_threshold(b) + probe
    n = decreasing_failure(b, window)
    if n is not None:
        raise NotDecreasingError(n, f"b({n + 1}) !<= b({n})")
    if not b.ambient.is_nonincreasing():
        raise NotDecreasingError(window, "ambient sequence increases in the tail")
    for form, coeff in b.atoms:
        if form.moving:
            if coeff.limit() > 0 or coeff.h > 0:
                raise NotDecreasingError(
                    window, f"moving coefficient at {form} stays positive"
                )
        else:
            if not coeff.is_nonincreasing():
                raise NotDecreasingError(
                    window, f"stationary coefficient at {form} increases"
                )
    for f in b.fills:
        if f.value > 0:
            raise NotDecreasingError(window, f"fill at {f.form} adds positive mass")
    return window


# ---------------------------------------------------------------------------
# witnesses for a nonzero eventual pattern


def _pattern_witness(pat: Element) -> tuple[object | None, Q, str]:
    """(coordinate, value, description) of the first nonzero pattern class.

    A None coordinate means the obstruction sits on the ambient class of the
    uncountable kind: every fresh point keeps that value.
    """
    return next(nonzero_classes(pat), (None, Q(0), "zero"))


def _tokens_in_play(seq: ElementSeq) -> set[Token]:
    if seq.space.row.countable:  # fresh points exist only over an uncountable index
        return set()
    return {t for x in (seq.static, *seq.prelude) for t in support(x)}


# ---------------------------------------------------------------------------
# monotone limits


def decide_monotone_limit(b: ElementSeq, probe: int = 8) -> ConvergenceCertificate:
    """Decide whether the (verified decreasing) family b_n has infimum 0:
    once `check_decreasing` passes on b normalized (it raises otherwise),
    b_n decreases to 0 exactly when its eventual pattern is zero."""
    b = normalize(b)
    check_decreasing(b, probe)
    pat = eventual_pattern(b)
    if pat.is_zero():
        return ConvergenceCertificate(
            verdict=CONVERGES,
            space=b.space,
            mode="monotone",
            dominating=b,
            n0=b.n0,
            anchors=("monotone-coordinate-rule",),
            notes=("every coordinate class of the family settles at 0",),
        )
    coord, value, desc = _pattern_witness(pat)
    if value > 0:
        if coord is None:
            star = fresh_star(_tokens_in_play(b))
            minorant = scale(value / 2, atom(b.space, star))
            note = (
                f"every countable union of finite supports misses {star}; "
                f"the family keeps value >= {qstr(value)} there"
            )
            anchors = ("uncountable-ambient-obstruction",)
        else:
            minorant = scale(value, atom(b.space, coord))
            note = desc
            anchors = ("monotone-coordinate-rule",)
        return ConvergenceCertificate(
            verdict=DIVERGES,
            space=b.space,
            mode="monotone",
            minorant=minorant,
            bad_class=desc,
            bad_value=value,
            n0=b.n0,
            anchors=anchors,
            notes=(note,),
        )
    return ConvergenceCertificate(
        verdict=DIVERGES,
        space=b.space,
        mode="monotone",
        bad_class=desc,
        bad_value=value,
        n0=b.n0,
        anchors=("monotone-coordinate-rule",),
        notes=(f"family is not nonnegative in the limit: {desc}",),
    )


# ---------------------------------------------------------------------------
# order convergence


def _build_residual(d: ElementSeq, bound: Q) -> tuple[ElementSeq, Tuple[MovingAtom, ...]]:
    """Split d into (residual dominating family, escaping moving atoms)."""
    space = d.space
    harmonic_parts = [
        (form, coeff.abs_env())
        for form, coeff in d.atoms
        if not form.moving and coeff.h
    ]
    if space.row.sequence:
        # a same-index family suffices: bound times the unit off an
        # advancing front, plus matched harmonic envelopes
        shift = cover_shift(d)
        march = fill(seq_form(1, 0), 1, 0, 1, shift, -bound) if bound != 0 else None
        dom = element_seq(
            space,
            atoms=harmonic_parts,
            fills=[march] if march else [],
            ambient=RationalSeq.const(bound),
        )
        return dom, ()
    # fin_dim has no moving support; on the uncountable or pair-indexed kinds
    # moving support escapes any finite set, so it is dominated by the net
    # of finite cut-downs of the bound; the stationary remainder gets its
    # own same-index family, enveloped on the evaluated values (static and
    # ambient components may cancel)
    escaping = tuple((form, coeff) for form, coeff in d.atoms if form.moving)
    dom = element_seq(space, atoms=harmonic_parts, ambient=_static_settle_env(d))
    return dom, escaping


def _static_settle_env(d: ElementSeq) -> RationalSeq:
    """Envelope for the prelude/static transients of the stationary part:
    the running maximum from the right of the evaluated deviations."""
    stationary = less_atoms(d, [(form, coeff) for form, coeff in d.atoms if form.moving])
    devs = [max_abs_coord(eval_seq(stationary, n))
            for n in range(1, structural_threshold(d) + 1)]
    return RationalSeq.steps(devs, 0).abs_env()


def decide_order_convergence(
    x: ElementSeq, limit: Element, probe: int = 8
) -> ConvergenceCertificate:
    if limit.space != x.space:
        raise SpaceMismatchError("limit lives in the wrong space")
    check_indices(x)
    d = normalize(sub_element(x, limit))
    pat = eventual_pattern(d)
    bound = deviation_bound(d)
    order_bound = scale(bound, unit(x.space))
    if not pat.is_zero():
        coord, value, desc = _pattern_witness(pat)
        return ConvergenceCertificate(
            verdict=DIVERGES,
            space=x.space,
            order_bound=order_bound,
            bad_class=desc,
            bad_value=value,
            n0=d.n0,
            anchors=("coordinatewise-order-rule",),
            notes=(f"value sequence fails to reach the limit: {desc}",),
        )
    residual, escaping = _build_residual(d, bound)
    esc_bound = max((c.max_abs() for _, c in escaping), default=Q(0))
    anchors = ["coordinatewise-order-rule", "completion-transfer"]
    notes = ["every coordinate value sequence settles at the limit value"]
    if escaping:
        anchors.append("escaping-support-net")
        notes.append(
            "moving bumps leave every finite coordinate set; the net of "
            "finite cut-downs of the order bound dominates them"
        )
    return ConvergenceCertificate(
        verdict=CONVERGES,
        space=x.space,
        dominating=residual,
        escaping=escaping,
        escape_bound=esc_bound,
        order_bound=order_bound,
        n0=max(d.n0, structural_threshold(d)),
        anchors=tuple(anchors),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# the same-index (o1) obstruction for moving bumps over uncountable supports


def o1_dominating_obstruction(x: ElementSeq) -> ConvergenceCertificate:
    """Certificate that no same-index decreasing family dominates x_n.

    Applies to uncountably indexed moving bumps with coefficients bounded
    away from 0: any decreasing y_n >= |x_n| satisfies y_n >= y_m >= |x_m|
    for m >= n, so y_n carries infinitely many coordinates >= c; a
    finite-deviation element then has ambient >= c, and some fresh point
    keeps the value c at every step.
    """
    if x.space.row.countable:
        raise PreconditionError("the obstruction argument needs the uncountable kind")
    cands = []
    for form, coeff in x.atoms:
        if form.moving:
            ev = coeff.eventual_value()
            if ev is not None and ev != 0:
                cands.append(abs(ev))
    if not cands:
        raise PreconditionError("no moving bump with coefficient bounded away from 0")
    c = min(cands)
    star = fresh_star(_tokens_in_play(x))
    minorant = scale(c / 2, atom(x.space, star))
    return ConvergenceCertificate(
        verdict=DIVERGES,
        space=x.space,
        mode="o1_obstruction",
        minorant=minorant,
        bad_class="ambient of any dominating decreasing family",
        bad_value=c,
        n0=x.n0,
        anchors=("uncountable-ambient-obstruction",),
        notes=(
            f"any decreasing family above |x_n| keeps infinitely many "
            f"coordinates >= {qstr(c)}, hence ambient >= {qstr(c)}; "
            f"the fresh point {star} then witnesses a positive minorant",
        ),
    )


# ---------------------------------------------------------------------------
# independent verifier

# The evidence each verdict needs, by mode: every group names certificate
# fields of which at least one must be present.  A certificate citing the
# partial-sum criterion alone sums finitely many atoms (a findim domain): its
# entry, keyed by those anchors too, asks for no field, and the verifier
# checks symbolically that x - limit is eventually 0 instead.
_FINITE_SUM = (CONVERGES, "order", ("partial-sum-criterion",))
_EVIDENCE = {
    _FINITE_SUM: (),
    (CONVERGES, "order"): (("order_bound",), ("dominating", "escaping")),
    (CONVERGES, "monotone"): (("dominating",),),
    (DIVERGES, "order"): (("minorant", "bad_class"),),
    (DIVERGES, "monotone"): (("minorant", "bad_class"),),
    (DIVERGES, "o1_obstruction"): (("minorant",),),
}


def _missing_evidence(cert: ConvergenceCertificate) -> str | None:
    """The log line refusing a certificate that lacks the evidence its
    verdict and mode need, or None when it carries that evidence."""
    key = (cert.verdict, cert.mode)
    groups = _EVIDENCE.get((*key, cert.anchors), _EVIDENCE.get(key))
    if groups is None:
        return f"FAIL no {cert.verdict} certificate has mode {cert.mode}"
    present = {f for f in ("order_bound", "dominating", "minorant", "bad_class")
               if getattr(cert, f) is not None}
    if cert.escaping:
        present.add("escaping")
    for group in groups:
        if present.isdisjoint(group):
            return (f"FAIL a {cert.verdict} certificate in mode {cert.mode} "
                    f"carries no {' or '.join(group)}")
    return None


def _minorant_positive(h: Element, log: list[str]) -> bool:
    """Whether the minorant h is a positive element (h >= 0 and h != 0),
    logged."""
    ok = is_positive(h) and not h.is_zero()
    log.append("minorant is positive" if ok else "FAIL minorant is not positive")
    return ok


def verify_certificate(
    cert: ConvergenceCertificate,
    x: ElementSeq,
    limit: Element | None = None,
    probe: int = 8,
) -> tuple[bool, list[str]]:
    """Re-check a certificate using only element comparisons at probed steps
    plus the symbolic tail rule; independent of how it was produced.

    A certificate without the evidence its verdict needs (`_EVIDENCE`) is
    refused before any check runs.  Each probed check names its relation
    once, in one `walk_failure` to the structural threshold plus the probe
    that logs its first failing n: |d_n| <= the order bound and h <= x_n
    from step 1, |d_n - escaping_n| <= b_n from max(1, n0) over at least
    `probe` steps.  Escaping forms must be moving: a positive slope makes a
    form injective, so its supports leave every finite set.  A minorant
    must be positive and nonzero.  An x whose symbolic steps hold an index
    out of range raises as the decider does (`check_indices`).  A probe
    below 1 is refused where the window is computed (`require_probe`), so a
    certificate refused unchecked is refused at any probe."""
    check_indices(x)
    missing = _missing_evidence(cert)
    if missing:
        return False, [missing]
    require_probe(probe)
    log: list[str] = []
    d = x if limit is None else normalize(sub_element(x, limit))
    window = structural_threshold(d) + probe
    if cert.verdict == CONVERGES:
        ok = True
        if (cert.verdict, cert.mode, cert.anchors) == _FINITE_SUM:
            # no atoms, no fills, and a zero ambient and static part past the prelude
            ok = not (d.atoms or d.fills) and d.ambient.is_zero() and d.static.is_zero()
            log.append(f"x - limit is 0 from n={d.n0} on (symbolic)" if ok
                       else "FAIL x - limit is not eventually 0")
        if cert.order_bound is not None:
            n = walk_failure(qabs_le, d, cert.order_bound, 1, window)
            log.append(f"order bound holds at n=1..{window}" if n is None
                       else f"FAIL order bound at n={n}")
            ok = ok and n is None
        b = cert.dominating
        if b is not None:
            try:
                check_decreasing(b, probe)
                log.append("dominating family verified decreasing")
            except NotDecreasingError as e:
                log.append(f"FAIL dominating family not decreasing: {e}")
                ok = False
            if not eventual_pattern(b).is_zero():
                log.append("FAIL dominating family does not settle at 0")
                ok = False
            else:
                log.append("dominating family settles at 0 (monotone rule)")
            first = max(1, cert.n0)
            last = max(window, first - 1 + probe)
            n = walk_failure(qabs_le, less_atoms(d, cert.escaping, first), b, first, last)
            log.append(f"stationary part dominated at n={cert.n0}..{last}" if n is None
                       else f"FAIL domination of the stationary part at n={n}")
            ok = ok and n is None
        for form, coeff in cert.escaping:
            if not form.moving:
                log.append(f"FAIL escaping form {form} is stationary")
                ok = False
            if coeff.max_abs() > cert.escape_bound:
                log.append(f"FAIL escaping coefficient at {form} exceeds the bound")
                ok = False
        if cert.escaping and all(form.moving for form, _ in cert.escaping):
            # a moving form has positive slope, so it is injective, and
            # distinct affine forms share a coordinate at most once: every
            # fixed coordinate is hit finitely often
            log.append("escaping supports leave every finite set (affine)")
        return ok, log
    # diverges
    ok, h = True, cert.minorant
    if cert.mode == "o1_obstruction":
        # the minorant bounds every candidate decreasing family above |x_n|,
        # not x itself; re-derive the coefficient floor and the freshness
        if not _minorant_positive(h, log):
            return False, log
        floors = [
            abs(c.eventual_value())
            for f, c in x.atoms
            if f.moving and c.eventual_value() not in (None, Q(0))
        ]
        if not floors:
            log.append("FAIL no moving bump with a coefficient floor")
            return False, log
        c0 = min(floors)
        if max_abs_coord(h) > c0:
            log.append("FAIL minorant exceeds the coefficient floor")
            ok = False
        else:
            log.append(
                f"any decreasing family above the bumps keeps infinitely many "
                f"coordinates >= {qstr(c0)}, so its ambient is >= {qstr(c0)}"
            )
        used = _tokens_in_play(x)
        fresh = [] if h.space.row.countable else [t for t in support(h) if t.family == "star"]
        if not fresh or any(t in used for t in fresh):
            log.append("FAIL minorant support is not a fresh point")
            ok = False
        else:
            log.append(f"minorant sits at the fresh point {fresh[0]}")
        return ok, log
    pat = eventual_pattern(d)
    if h is not None:
        ok = _minorant_positive(h, log)
        if limit is None:
            n = walk_failure(qle, h, x, 1, window)
            log.append(f"minorant below the family at n=1..{window}" if n is None
                       else f"FAIL minorant not below the family at n={n}")
            ok = ok and n is None
            # past the window: below the family's eventual pattern
            if not le(h, pat):
                log.append("FAIL minorant not below the eventual pattern")
                ok = False
    if cert.bad_class is not None:
        if pat.is_zero():
            log.append("FAIL claimed obstruction but the pattern settles at 0")
            ok = False
        else:
            log.append(f"obstruction confirmed: {cert.bad_class}")
    return ok, log

