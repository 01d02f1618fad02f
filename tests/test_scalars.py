"""`RationalSeq` against a literal three-kind reference.

The reference below keeps a sequence as one of three kinds (const, steps,
harmonic) and switches on the kind in every method, as the closed form
(prefix, tail, h) is meant to agree with.  Random operands of every kind go
through both; results that are sequences are compared through `describe`
and their values.  The payload kernel (`qadd` ... `qabs`) is checked against
`Fraction`'s own operators, including which operand it hands back.
"""

from __future__ import annotations

import fractions
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from conftest import fraction_calls
from rieszkit.scalars import (
    Q,
    Q0,
    RationalSeq,
    qabs,
    qadd,
    qeq,
    qle,
    qmax,
    qmin,
    qmul,
    qof,
    qstr,
    qsub,
)


@dataclass(frozen=True)
class Ref:
    kind: str
    value: Q = Q(0)
    prefix: tuple = ()
    tail: Q = Q(0)

    @staticmethod
    def const(c):
        return Ref("const", value=Q(c))

    @staticmethod
    def steps(prefix, tail):
        tail = Q(tail)
        pref = [Q(v) for v in prefix]
        while pref and pref[-1] == tail:
            pref.pop()
        if not pref:
            return Ref("const", value=tail)
        return Ref("steps", prefix=tuple(pref), tail=tail)

    @staticmethod
    def harmonic(c):
        if Q(c) == 0:
            return Ref("const", value=Q(0))
        return Ref("harmonic", value=Q(c))

    def at(self, n):
        if self.kind == "const":
            return self.value
        if self.kind == "steps":
            return self.prefix[n - 1] if n <= len(self.prefix) else self.tail
        return self.value / n

    def limit(self):
        if self.kind == "const":
            return self.value
        if self.kind == "steps":
            return self.tail
        return Q(0)

    def eventual_value(self):
        return None if self.kind == "harmonic" else self.limit()

    def is_zero(self):
        if self.kind == "const":
            return self.value == 0
        if self.kind == "steps":
            return self.tail == 0 and all(v == 0 for v in self.prefix)
        return False

    def max_abs(self):
        if self.kind == "steps":
            return max([abs(self.tail)] + [abs(v) for v in self.prefix])
        return abs(self.value)

    def is_nonincreasing_from(self, n0):
        if self.kind == "const":
            return True
        if self.kind == "harmonic":
            return self.value >= 0
        vals = [self.at(n) for n in range(n0, len(self.prefix) + 2)]
        return all(a >= b for a, b in zip(vals, vals[1:]))

    def scale(self, c):
        if c == 0:
            return Ref.const(0)
        if self.kind == "const":
            return Ref.const(self.value * c)
        if self.kind == "steps":
            return Ref.steps([v * c for v in self.prefix], self.tail * c)
        return Ref.harmonic(self.value * c)

    def add(self, other):
        a, b = self, other
        if "harmonic" in (a.kind, b.kind):
            if a.kind == b.kind:
                return Ref.harmonic(a.value + b.value)
            plain = b if a.kind == "harmonic" else a
            if plain.is_zero():
                return a if a.kind == "harmonic" else b
            raise ValueError("no closed form for harmonic + non-harmonic")
        if a.kind == b.kind == "const":
            return Ref.const(a.value + b.value)
        width = max(len(a.prefix), len(b.prefix))
        return Ref.steps([a.at(n) + b.at(n) for n in range(1, width + 1)],
                         a.limit() + b.limit())

    def abs_env(self):
        if self.kind == "const":
            return Ref.const(abs(self.value))
        if self.kind == "harmonic":
            return Ref.harmonic(abs(self.value))
        env, running = [], abs(self.tail)
        for v in reversed(self.prefix):
            running = max(running, abs(v))
            env.append(running)
        return Ref.steps(env[::-1], abs(self.tail))

    def settle_bound(self):
        return len(self.prefix) + 1 if self.kind == "steps" else 1

    def describe(self):
        if self.kind == "const":
            return qstr(self.value)
        if self.kind == "harmonic":
            return f"{qstr(self.value)}/n"
        return f"[{','.join(qstr(v) for v in self.prefix)};{qstr(self.tail)}]"


def _scalar(rng):
    return Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))


def _operand(rng):
    """The same random sequence built through both classes."""
    kind = rng.choice(["const", "steps", "harmonic", "zero"])
    if kind == "steps":
        args = ([_scalar(rng) for _ in range(rng.randint(0, 4))], _scalar(rng))
    else:
        args = (Q(0) if kind == "zero" else _scalar(rng),)
    make = "const" if kind == "zero" else kind
    return getattr(RationalSeq, make)(*args), getattr(Ref, make)(*args)


def _same(got: RationalSeq, want: Ref) -> None:
    assert (got.kind, got.describe()) == (want.kind, want.describe())
    assert [got.at(n) for n in range(1, 8)] == [want.at(n) for n in range(1, 8)]


def test_closed_form_agrees_with_the_three_kind_reference():
    rng = random.Random(5)
    for _ in range(400):
        (a, ra), (b, rb) = _operand(rng), _operand(rng)
        _same(a, ra)
        assert a.limit() == ra.limit()
        assert a.eventual_value() == ra.eventual_value()
        assert a.is_zero() == ra.is_zero()
        assert a.max_abs() == ra.max_abs()
        assert a.settle_bound() == ra.settle_bound()
        for n0 in range(1, 7):
            assert a.is_nonincreasing_from(n0) == ra.is_nonincreasing_from(n0)
        for c in (Q(0), Q(1), Q(-1), _scalar(rng)):
            _same(a.scale(c), ra.scale(c))
        _same(a.abs_env(), ra.abs_env())
        try:
            want = ra.add(rb)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                a.add(b)
            assert str(err.value) == str(e)
        else:
            _same(a.add(b), want)
            _same(b.add(a), rb.add(ra))


def test_constructors_keep_their_canonical_forms():
    assert RationalSeq.harmonic(0) == RationalSeq.const(0) == RationalSeq()
    assert RationalSeq.harmonic(2) == RationalSeq(h=Q(2))
    assert RationalSeq.steps([1, 2, 2], 2) == RationalSeq.steps([1], 2)
    assert RationalSeq.steps([3, 3], 3) == RationalSeq.const(3)
    assert RationalSeq.harmonic(1).add(RationalSeq.harmonic(-1)) == RationalSeq.const(0)
    assert RationalSeq.steps([1], 0).scale(0) == RationalSeq.const(0)
    with pytest.raises(ValueError):
        RationalSeq.const(0).at(0)


def test_at_builds_no_rational_without_a_harmonic_term():
    seqs = [RationalSeq.const(Q(1, 2)), RationalSeq.steps([1, 2], Q(-3))]
    harmonic = RationalSeq.harmonic(Q(1))
    with fraction_calls() as built:
        for s in seqs:
            for n in range(1, 10):
                s.at(n)
        assert built[0] == 0
        harmonic.at(3)
    assert built[0] > 0


# ---------------------------------------------------------------------------
# the payload kernel against Fraction's own operators


KERNEL_VALUES = [Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(7, 3), Q(-5, 6), 10**20 + Q(1, 3)]


def _check_kernel(a: Q, b: Q) -> None:
    assert qle(a, b) is (a <= b)
    assert qeq(a, b) is (a == b)
    # the builtin max and min pick the first operand on a tie
    assert qmax(a, b) is max(a, b)
    assert qmin(a, b) is min(a, b)
    for got, want in ((qadd(a, b), a + b), (qsub(a, b), a - b), (qmul(a, b), a * b),
                      (qabs(a), abs(a))):
        assert got == want and type(got) is Q


@pytest.mark.parametrize("a", KERNEL_VALUES, ids=str)
@pytest.mark.parametrize("b", KERNEL_VALUES, ids=str)
def test_kernel_agrees_with_fraction_operators(a, b):
    _check_kernel(a, b)
    _check_kernel(Q(a.numerator, a.denominator), b)  # equal, not identical


@given(st.fractions(), st.fractions())
def test_kernel_agrees_with_fraction_operators_hypothesis(a, b):
    _check_kernel(a, b)


def test_kernel_reuses_its_operands():
    x, y = Q(7, 3), Q(7, 3)
    assert qmul(Q(1), x) is x and qmul(x, Q(1)) is x
    assert qmul(Q0, x) is Q0 and qmul(x, Q(0)) is Q0
    assert qmax(x, y) is x and qmin(x, y) is x and qmax(y, x) is y
    assert qabs(x) is x and qabs(Q0) is Q0
    assert qadd(x, Q(0)) is x and qsub(x, Q(0)) is x


def _identical_operands(monkeypatch, a: Q) -> None:
    """The kernels on (a, a) with every integer-pair read counted: the same
    object is the same value, decided before any pair is read."""
    reads = 0
    ratio = fractions.Fraction.as_integer_ratio

    def counting(self):
        nonlocal reads
        reads += 1
        return ratio(self)

    monkeypatch.setattr(fractions.Fraction, "as_integer_ratio", counting)
    got = qsub(a, a), qle(a, a), qeq(a, a), qmax(a, a), qmin(a, a)
    monkeypatch.undo()
    assert got[0] is Q0 and got[1] is True and got[2] is True
    assert got[3] is a and got[4] is a
    assert reads == 0
    # equal but distinct operands give the values they gave before
    b = Q(a.numerator, a.denominator)
    assert qsub(a, b) == 0 and type(qsub(a, b)) is Q
    assert qle(a, b) and qle(b, a) and qeq(a, b)
    assert qmax(a, b) is a and qmin(a, b) is a and qmax(b, a) is b


@pytest.mark.parametrize("a", KERNEL_VALUES, ids=str)
def test_kernel_decides_identical_operands_without_arithmetic(monkeypatch, a):
    _identical_operands(monkeypatch, a)


@given(st.fractions())
def test_kernel_decides_identical_operands_hypothesis(a):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _identical_operands(monkeypatch, a)


# ---------------------------------------------------------------------------
# zero is one object


def test_every_zero_the_kernel_makes_is_q0():
    a = Q(7, 3)
    assert qadd(a, -a) is Q0 and qadd(-a, a) is Q0
    assert qsub(a, Q(a.numerator, a.denominator)) is Q0  # equal, not identical
    assert qof(0) is Q0 and qof("0") is Q0 and qof(Q(0)) is Q0
    assert qof(a) is a and qof("7/3") == a


def test_every_zero_a_coefficient_sequence_stores_is_q0():
    """`RationalSeq`'s sums, multiples and envelopes compute through the
    kernel, so a coefficient that is 0 is `Q0` too."""
    total = RationalSeq.steps([1, 2], 1).add(RationalSeq.steps([-1, -2], -1))
    assert total.tail is Q0 and total.h is Q0 and total.prefix == ()
    doubled = RationalSeq.steps([1, 0, 2], 3).scale(2)
    assert doubled.prefix == (Q(2), Q0, Q(4))
    assert all(v is Q0 for v in doubled.prefix if v == 0)
    assert RationalSeq.steps([Q(-1, 2), 0], 0).abs_env().tail is Q0
    mixed = RationalSeq.steps([1, 0, 3], 0).add(RationalSeq.steps([-1, 2], 0))
    assert mixed.prefix == (Q0, Q(2), Q(3)) and mixed.prefix[0] is Q0
    rng = random.Random(11)
    for _ in range(200):
        (a, _), (b, _) = _operand(rng), _operand(rng)
        seqs = [a.scale(_scalar(rng)), a.abs_env()]
        try:
            seqs.append(a.add(b))
        except ValueError:
            pass
        for seq in seqs:
            assert all(v is Q0 for v in (*seq.prefix, seq.tail, seq.h) if v == 0)


@given(st.fractions())
def test_a_pair_that_cancels_gives_q0_hypothesis(a):
    """Operands as a payload holds them (through qof) whose sum is 0."""
    b = qof(Q(-a.numerator, a.denominator))
    assert qadd(qof(a), b) is Q0
    assert qsub(qof(a), qof(Q(a.numerator, a.denominator))) is Q0
