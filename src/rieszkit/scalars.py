"""Exact scalars and closed-form scalar sequences.

Every number in the engine is a rational (`fractions.Fraction`), stored in
lowest terms with a positive denominator; there is no rounding anywhere.
Payload values of elements and patterns are always `Fraction`, never `int`.
`RationalSeq` is the closed-form class of scalar sequences the symbolic
machinery can decide things about: constants, eventually constant steps,
and harmonic decays c/n.

`qadd`, `qsub` and `qmul` are the payload arithmetic.  Most coordinates of
the sparse data are 0, and most coefficients 0 or 1, so they reuse an
operand instead of building a new rational: x + 0 and x - 0 are x, 0 - x is
-x, x * 0 is the shared `Q0`, x * 1 is x and x * -1 is -x.  Only the other
cases compute a new rational; the value is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Q = Fraction

QLike = Union[Q, int, str]

Q0 = Q(0)


def qof(x: QLike) -> Q:
    if isinstance(x, Q):
        return x
    return Q(x)


def qadd(a: Q, b: Q) -> Q:
    """a + b, reusing the other operand when one is 0."""
    if not b:
        return a
    if not a:
        return b
    return a + b


def qsub(a: Q, b: Q) -> Q:
    """a - b, reusing a when b is 0 and negating b when a is 0."""
    if not b:
        return a
    if not a:
        return -b
    return a - b


def qmul(a: Q, b: Q) -> Q:
    """a * b: Q0 when a factor is 0, the other factor (or its negation)
    when one is 1 (or -1)."""
    if not a or not b:
        return Q0
    if a == 1:
        return b
    if b == 1:
        return a
    if a == -1:
        return -b
    if b == -1:
        return -a
    return a * b


def qstr(q: Q) -> str:
    """Canonical rendering: "p" for integers, "p/q" otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


CONST = "const"
STEPS = "steps"
HARMONIC = "harmonic"


@dataclass(frozen=True)
class RationalSeq:
    """A scalar sequence n >= 1 in one of three closed forms.

    const:    value, value, value, ...
    steps:    prefix[0], ..., prefix[-1], tail, tail, ...
    harmonic: value/1, value/2, value/3, ...
    """

    kind: str
    value: Q = Q(0)
    prefix: tuple = ()
    tail: Q = Q(0)

    @staticmethod
    def const(c: QLike) -> "RationalSeq":
        return RationalSeq(CONST, value=qof(c))

    @staticmethod
    def steps(prefix: Iterable[QLike], tail: QLike) -> "RationalSeq":
        tail_q = qof(tail)
        pref = [qof(v) for v in prefix]
        while pref and pref[-1] == tail_q:
            pref.pop()
        if not pref:
            return RationalSeq(CONST, value=tail_q)
        return RationalSeq(STEPS, prefix=tuple(pref), tail=tail_q)

    @staticmethod
    def harmonic(c: QLike) -> "RationalSeq":
        c_q = qof(c)
        if c_q == 0:
            return RationalSeq(CONST, value=Q(0))
        return RationalSeq(HARMONIC, value=c_q)

    def at(self, n: int) -> Q:
        if n < 1:
            raise ValueError("sequence index starts at 1")
        if self.kind == CONST:
            return self.value
        if self.kind == STEPS:
            if n <= len(self.prefix):
                return self.prefix[n - 1]
            return self.tail
        return self.value / n

    def limit(self) -> Q:
        if self.kind == CONST:
            return self.value
        if self.kind == STEPS:
            return self.tail
        return Q(0)

    def eventual_value(self) -> Q | None:
        """Value the sequence is eventually *equal* to, or None (harmonic)."""
        if self.kind == HARMONIC:
            return None
        return self.limit()

    def is_zero(self) -> bool:
        if self.kind == CONST:
            return self.value == 0
        if self.kind == STEPS:
            return self.tail == 0 and all(v == 0 for v in self.prefix)
        return False

    def max_abs(self) -> Q:
        if self.kind == CONST:
            return abs(self.value)
        if self.kind == STEPS:
            return max([abs(self.tail)] + [abs(v) for v in self.prefix])
        return abs(self.value)

    def is_nonincreasing_from(self, n0: int = 1) -> bool:
        if self.kind == CONST:
            return True
        if self.kind == HARMONIC:
            return self.value >= 0
        vals = [self.at(n) for n in range(n0, len(self.prefix) + 2)]
        return all(a >= b for a, b in zip(vals, vals[1:]))

    def scale(self, c: QLike) -> "RationalSeq":
        c_q = qof(c)
        if c_q == 0:
            return RationalSeq.const(0)
        if self.kind == CONST:
            return RationalSeq.const(self.value * c_q)
        if self.kind == STEPS:
            return RationalSeq.steps([v * c_q for v in self.prefix], self.tail * c_q)
        return RationalSeq.harmonic(self.value * c_q)

    def add(self, other: "RationalSeq") -> "RationalSeq":
        a, b = self, other
        if a.kind == HARMONIC or b.kind == HARMONIC:
            if a.kind == HARMONIC and b.kind == HARMONIC:
                return RationalSeq.harmonic(a.value + b.value)
            other_one = b if a.kind == HARMONIC else a
            harm = a if a.kind == HARMONIC else b
            if other_one.is_zero():
                return harm
            raise ValueError("no closed form for harmonic + non-harmonic")
        if a.kind == CONST and b.kind == CONST:
            return RationalSeq.const(a.value + b.value)
        width = max(
            len(a.prefix) if a.kind == STEPS else 0,
            len(b.prefix) if b.kind == STEPS else 0,
        )
        pref = [a.at(n) + b.at(n) for n in range(1, width + 1)]
        return RationalSeq.steps(pref, a.limit() + b.limit())

    def abs_env(self) -> "RationalSeq":
        """Nonincreasing envelope e(n) >= |self(n)| with the same (zero) limit class.

        For steps, this is the running maximum of |values| from the right;
        the envelope is eventually |tail|.
        """
        if self.kind == CONST:
            return RationalSeq.const(abs(self.value))
        if self.kind == HARMONIC:
            return RationalSeq.harmonic(abs(self.value))
        env = []
        running = abs(self.tail)
        for v in reversed(self.prefix):
            running = max(running, abs(v))
            env.append(running)
        env.reverse()
        return RationalSeq.steps(env, abs(self.tail))

    def settle_bound(self) -> int:
        """An index beyond which the sequence is in its eventual regime."""
        if self.kind == STEPS:
            return len(self.prefix) + 1
        return 1

    def describe(self) -> str:
        if self.kind == CONST:
            return qstr(self.value)
        if self.kind == HARMONIC:
            return f"{qstr(self.value)}/n"
        body = ",".join(qstr(v) for v in self.prefix)
        return f"[{body};{qstr(self.tail)}]"


ZERO_SEQ = RationalSeq.const(0)
ONE_SEQ = RationalSeq.const(1)
