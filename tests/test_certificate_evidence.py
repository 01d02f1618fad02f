"""The verifier refuses certificates that lack the evidence their verdict
needs.

The certificates are the shapes the benchmark's `wide_lattice` workload
mutates, built here on l0inf and ck: an order-convergence certificate for a
moving bump over a static part, the same sequence against a limit it
misses, and a monotone certificate for a decreasing family that keeps a
static part.  Each mutant either drops the evidence of its verdict, flips
the verdict, or moves the minorant off the family; every one must be
rejected, and the certificates the deciders produce must still verify.
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate
from pathlib import Path

import pytest

from rieszkit.calculus import order_continuity_test, verify_witness

from rieszkit.convergence import (
    CONVERGES,
    DIVERGES,
    ConvergenceCertificate,
    check_decreasing,
    decide_monotone_limit,
    decide_order_convergence,
    o1_dominating_obstruction,
    verify_certificate,
)
from rieszkit.errors import PreconditionError
from rieszkit.elements import add, atom, element_findev, element_tail, scale, sub, unit, zero
from rieszkit.operators import atom_image
from rieszkit.scalars import Q, RationalSeq
from rieszkit.sequences import element_seq, fill
from rieszkit.spaces import Token, fin_dev, gamma, seq_form, tail_seq, token_form
from rieszkit.specfile import build_all, parse

PROBE = 8
STATIC = [Q(3), Q(-1, 2), Q(2), Q(5, 3), Q(-4)]
# the values the monotone family keeps, at more atoms than the probe window
# reaches, as in the benchmark
DECREASING = [Q(k % 5 + 1, k % 3 + 1) for k in range(20)]

KINDS = {
    "l0inf": (tail_seq(), seq_form, lambda k: k,
              lambda space, vals: element_tail(space, vals, 0)),
    "ck": (fin_dev(), token_form, gamma,
           lambda space, vals: element_findev(
               space, {gamma(k): v for k, v in enumerate(vals, start=1)}, 0)),
}


def certificates(kind: str):
    """(valid, mutants): each maps a name to (certificate, sequence, limit)."""
    space, line, index, element = KINDS[kind]
    S = element(space, STATIC)
    x = element_seq(space, static=S, atoms=[(line(1, 2), RationalSeq.const(Q(1, 2)))])
    off = add(S, atom(space, index(2)))
    march = fill(line(1, 0), 1, 0, 1, 0, -1)
    bz = element_seq(space, static=add(unit(space), element(space, DECREASING)),
                     fills=[march])
    conv = decide_order_convergence(x, S)
    div = decide_order_convergence(x, off)
    mono = decide_monotone_limit(bz)
    assert (conv.verdict, div.verdict, mono.verdict) == (CONVERGES, DIVERGES, DIVERGES)
    replace = dataclasses.replace
    # past the kept values the family is 1 only until the march passes
    far = atom(space, index(len(DECREASING) + 1))
    const_unit = element_seq(space, ambient=RationalSeq.const(1))
    valid = {
        "order-converges": (conv, x, S),
        "order-diverges": (div, x, off),
        "monotone-diverges": (mono, bz, None),
    }
    mutants = {
        "empty-converges": (ConvergenceCertificate(verdict=CONVERGES, space=space),
                            const_unit, zero(space)),
        "drop-dominating": (replace(conv, dominating=None, escaping=()), x, S),
        "drop-order-bound": (replace(conv, order_bound=None), x, S),
        "flip-converges": (replace(conv, verdict=DIVERGES), x, S),
        "flip-diverges": (replace(div, verdict=CONVERGES), x, off),
        "scale-minorant": (replace(mono, minorant=scale(3, mono.minorant)), bz, None),
        "move-minorant": (replace(mono, minorant=far), bz, None),
    }
    return valid, mutants


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_certificates_without_their_evidence_are_rejected(kind):
    _, mutants = certificates(kind)
    accepted = [name for name, (cert, seq, limit) in mutants.items()
                if verify_certificate(cert, seq, limit, PROBE)[0]]
    assert accepted == []


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_decided_certificates_still_verify(kind):
    valid, _ = certificates(kind)
    for name, (cert, seq, limit) in valid.items():
        ok, log = verify_certificate(cert, seq, limit, PROBE)
        assert ok, (name, log)
        assert not any(line.startswith("FAIL") for line in log)


def test_a_monotone_minorant_must_lie_below_the_eventual_pattern():
    """With no limit the minorant is checked against the family's eventual
    pattern, symbolically: the probe window alone ends before the march
    passes the atom the minorant sits on."""
    space = tail_seq()
    march = fill(seq_form(1, 0), 1, 0, 1, 0, -1)
    b = element_seq(space, static=unit(space), fills=[march])
    cert = ConvergenceCertificate(verdict=DIVERGES, space=space, mode="monotone",
                                  minorant=atom(space, 40))
    ok, log = verify_certificate(cert, b, None, 1)
    assert not ok
    assert log[-1] == "FAIL minorant not below the eventual pattern"


def test_a_mixed_sign_minorant_is_refused():
    """A minorant must be positive and nonzero, not merely somewhere above
    0: with one negative coordinate it is no positive element below the
    family.  On the o1 certificate of the moving bump over ck, and on the
    monotone certificate of the constant-unit family on l0inf, the decided
    minorant verifies and a mixed-sign one that passes every other check is
    refused."""
    ck, l0 = fin_dev(), tail_seq()
    bump = element_seq(ck, atoms=[(token_form(1, 0), RationalSeq.const(1))])
    const_unit = element_seq(l0, ambient=RationalSeq.const(1))
    star1, star2 = (atom(ck, Token("star", k)) for k in (1, 2))
    for cert, mixed, seq in (
        (o1_dominating_obstruction(bump), scale(Q(1, 2), sub(star1, star2)), bump),
        (decide_monotone_limit(const_unit), sub(atom(l0, 1), atom(l0, 2)), const_unit),
    ):
        assert verify_certificate(cert, seq, None, PROBE)[0]
        ok, log = verify_certificate(dataclasses.replace(cert, minorant=mixed), seq, None, PROBE)
        assert not ok and log[0] == "FAIL minorant is not positive", log


def test_a_verdict_without_its_evidence_is_refused_unchecked():
    space = tail_seq()
    x = element_seq(space)
    for verdict, mode, lacking in (
        (CONVERGES, "order", "order_bound"),
        (CONVERGES, "monotone", "dominating"),
        (DIVERGES, "order", "minorant or bad_class"),
        (DIVERGES, "monotone", "minorant or bad_class"),
    ):
        cert = ConvergenceCertificate(verdict=verdict, space=space, mode=mode)
        assert verify_certificate(cert, x, zero(space)) == (
            False, [f"FAIL a {verdict} certificate in mode {mode} carries no {lacking}"])


FINDIM_TO_L0INF = """space E = findim(2)
space F = l0inf

operator T : E -> F {
  e(1) -> 1 @ 1
  e(2) -> 2 @ 3
}
"""


@pytest.mark.parametrize("text", [
    (Path(__file__).parent / "specs" / "findim_matrix.rzk").read_text(encoding="utf-8"),
    FINDIM_TO_L0INF,
], ids=["findim_matrix", "findim_to_l0inf"])
def test_a_finite_sum_certificate_is_checked_symbolically(text):
    """On a findim domain `order_continuity_test` cites the partial-sum
    criterion alone and carries no order bound or dominating family.  Its
    evidence entry asks for none: the certificate verifies against the
    sequence whose prelude is the partial sums and whose static part is the
    unit image, because x - limit is symbolically 0 past the prelude, and
    is refused when the static part differs from the limit."""
    (T,) = build_all(parse(text))[1].values()
    ok, cert = order_continuity_test(T)
    assert ok and (cert.verdict, cert.mode, cert.order_bound, cert.dominating) == (
        CONVERGES, "order", None, None)
    n = T.domain.dim
    sums = tuple(accumulate(atom_image(T, k) for k in range(1, n + 1)))
    assert sums[-1] == T.unit_image
    x = element_seq(T.codomain, static=T.unit_image, n0=n + 1, prelude=sums)
    assert verify_certificate(cert, x, T.unit_image, PROBE) == (
        True, [f"x - limit is 0 from n={n + 1} on (symbolic)"])
    off = element_seq(T.codomain, static=add(T.unit_image, atom(T.codomain, 1)),
                      n0=n + 1, prelude=sums)
    assert verify_certificate(cert, off, T.unit_image, PROBE) == (
        False, ["FAIL x - limit is not eventually 0"])
    # the entry is the certificate's own: the same fields without its
    # anchors are refused unchecked, as every empty certificate is
    bare = dataclasses.replace(cert, anchors=())
    assert verify_certificate(bare, x, T.unit_image, PROBE) == (
        False, ["FAIL a converges certificate in mode order carries no order_bound"])


@pytest.mark.parametrize("kind", ["l0inf", "ck"])
@pytest.mark.parametrize("n0", [11, 10**6])
@pytest.mark.parametrize("probe", [1, 8, 32])
def test_a_first_dominated_step_past_the_window_is_still_checked(kind, n0, probe):
    """x_n = unit does not converge to 0, and the decider says so.  A forged
    certificate that claims it does, with the zero family dominating from
    n0 on, is refused at every probe: the domination walk reads at least
    `probe` steps from n0, however far past the probe window n0 lies."""
    space = KINDS[kind][0]
    x = element_seq(space, ambient=RationalSeq.const(1))
    assert decide_order_convergence(x, zero(space)).verdict == DIVERGES
    cert = ConvergenceCertificate(verdict=CONVERGES, space=space, dominating=element_seq(space),
                                  order_bound=unit(space), n0=n0)
    ok, log = verify_certificate(cert, x, zero(space), probe)
    assert not ok and log[-1] == f"FAIL domination of the stationary part at n={n0}", log


@pytest.mark.parametrize("probe", [0, -1, -5])
def test_a_probe_below_one_is_an_input_error(probe):
    """On l0inf, x_n = e_n converges to 0.  With its decided certificate's
    order bound forged to e_1, a probe below 1 could end the order bound's
    window before step 2, where e_n leaves e_1 (at probe -5 the window is
    empty: "order bound holds at n=1..-3"): the verifier, the decreasing
    check and the witness verifier refuse such a probe before any probed
    check runs."""
    space = tail_seq()
    x = element_seq(space, atoms=[(seq_form(1, 0), RationalSeq.const(1))])
    cert = decide_order_convergence(x, zero(space))
    forged = dataclasses.replace(cert, order_bound=atom(space, 1))
    assert verify_certificate(forged, x, zero(space), 1)[0] is False
    with pytest.raises(PreconditionError, match="probe must be at least 1"):
        verify_certificate(forged, x, zero(space), probe)
    with pytest.raises(PreconditionError, match="probe must be at least 1"):
        check_decreasing(cert.dominating, probe)
    T, = build_all(parse("space E = l0inf\noperator T : E -> E {\n  unit -> 1 * unit\n}\n"))[1].values()
    with pytest.raises(PreconditionError, match="probe must be at least 1"):
        verify_witness(T, T, probe)
