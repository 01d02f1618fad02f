"""Exact scalars and closed-form scalar sequences.

Every payload value and coefficient in the engine is a rational
(`fractions.Fraction`), stored in lowest terms with a positive denominator;
there is no rounding anywhere.  Payload values of elements and patterns are
always `Fraction`, never `int`.  Coordinate indices and the index forms
that read them (`spaces.Affine`) are integers.
`RationalSeq` is the closed form of the scalar sequences the symbolic
machinery can decide things about: a finite prefix, then tail + h/n.  It
covers constants, eventually constant steps and harmonic decays c/n.

Zero is one object: `qof` turns every zero input (0, "0", Fraction(0))
into the shared `Q0`, and a kernel result equal to 0 is `Q0`, so a payload
built by them stores no other zero and a test for 0 is first `v is Q0`, with
no Python-level call.  Correctness never rests on this: a zero that reached
a payload some other way is still caught by the value test each such site
keeps behind the identity test.

`qadd`, `qsub` and `qmul` are the payload arithmetic.  Most coordinates of
the sparse data are 0, and most coefficients 0 or 1, so they reuse an
operand instead of building a new rational: x + 0 and x - 0 are x, 0 - x is
-x, x * 0 is `Q0`, x * 1 is x and x * -1 is -x, each decided by identity
with `Q0` before any value is read.  Only the other cases compute a new
rational, and a sum or difference that cancels is `Q0`.

`qle`, `qabs_le`, `qeq`, `qmax`, `qmin` and `qabs` are the payload
decisions: every sup, inf, |x|, positive part and order test of the lattice
walks ends in one of them per stored coordinate.  Payload values are
immutable, so the same object means the same value, and each kernel decides
that before it reads any integer pair: `qsub(a, a)` is `Q0`, `qle(a, a)` and
`qeq(a, a)` hold and `qmax(a, a)` and `qmin(a, a)` are `a`, so a walk over
payloads sharing their values (x - S on x's own static part S) does no
arithmetic there.  Otherwise a decision reads the integer pairs
(`as_integer_ratio()`, or the sign of `numerator`) and compares them with
integer arithmetic: `Fraction`'s own comparisons first test the other
operand against `numbers.Rational` through the ABC machinery, which costs
several times the comparison itself.  The arithmetic stays `Fraction`'s own
`+ - *`: rebuilding a sum or product from integer arithmetic is slower than
it on Python 3.12 and later.  Only the public API is read, never a private
attribute of `Fraction`.  `qmax` and `qmin` return one of their operands, the
first on a tie as the builtin `max` and `min` do, and `qabs` returns its
operand unless it is negative, so no rendered value changes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .records import record

Q = Fraction

QLike = Union[Q, int, str]

Q0 = Q(0)

# the integer pairs of 1 and -1, as `as_integer_ratio()` gives them
_ONE, _MINUS_ONE = (1, 1), (-1, 1)


def qof(x: QLike) -> Q:
    if not isinstance(x, Q):
        x = Q(x)
    return x if x else Q0


def qadd(a: Q, b: Q) -> Q:
    """a + b, reusing the other operand when one is 0; Q0 when it cancels."""
    if b is Q0 or a is Q0:
        return a if b is Q0 else b
    if not b:
        return a
    if not a:
        return b
    s = a + b
    return s if s else Q0


def qsub(a: Q, b: Q) -> Q:
    """a - b: Q0 when b is a or the difference cancels, a when b is 0 and
    -b when a is 0."""
    if a is b:
        return Q0
    if b is Q0 or not b:
        return a
    if a is Q0 or not a:
        return -b
    d = a - b
    return d if d else Q0


def qmul(a: Q, b: Q) -> Q:
    """a * b: Q0 when a factor is 0, the other factor (or its negation)
    when one is 1 (or -1)."""
    if a is Q0 or b is Q0:
        return Q0
    pa, pb = a.as_integer_ratio(), b.as_integer_ratio()
    if not pa[0] or not pb[0]:
        return Q0
    if pa == _ONE:
        return b
    if pb == _ONE:
        return a
    if pa == _MINUS_ONE:
        return -b
    if pb == _MINUS_ONE:
        return -a
    return a * b


def qle(a: Q, b: Q) -> bool:
    """a <= b."""
    if a is b:
        return True
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return an * bd <= bn * ad


def qabs_le(a: Q, b: Q) -> bool:
    """|a| <= b, without building |a|."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return abs(an) * bd <= bn * ad


def qeq(a: Q, b: Q) -> bool:
    """a == b: lowest terms with a positive denominator make the pairs
    equal exactly when the values are."""
    return a is b or a.as_integer_ratio() == b.as_integer_ratio()


def qmax(a: Q, b: Q) -> Q:
    """max(a, b): b only when it is larger."""
    if a is b:
        return a
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return b if an * bd < bn * ad else a


def qmin(a: Q, b: Q) -> Q:
    """min(a, b): b only when it is smaller."""
    if a is b:
        return a
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    return b if bn * ad < an * bd else a


def qabs(a: Q) -> Q:
    """|a|: a itself unless it is negative."""
    return -a if a.numerator < 0 else a


def qstr(q: Q) -> str:
    """Canonical rendering: "p" for integers, "p/q" otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@record
class RationalSeq:
    """A scalar sequence n >= 1 in one closed form: prefix[n-1] for
    n <= len(prefix), and tail + h/n after that.

    The constructors give the three kinds `describe` writes: const
    (c, c, c, ...) and steps (the prefix, then tail, tail, ...) have h = 0
    and no trailing prefix entry equal to the tail; harmonic (c/1, c/2, ...)
    is h = c alone.  `add` refuses the sums that would leave these kinds, so
    h != 0 only comes with an empty prefix and a zero tail.
    """

    prefix: tuple = ()
    tail: Q = Q0
    h: Q = Q0

    @staticmethod
    def const(c: QLike) -> "RationalSeq":
        return RationalSeq(tail=qof(c))

    @staticmethod
    def steps(prefix: Iterable[QLike], tail: QLike) -> "RationalSeq":
        return _closed([qof(v) for v in prefix], qof(tail), Q0)

    @staticmethod
    def harmonic(c: QLike) -> "RationalSeq":
        return RationalSeq(h=qof(c))

    @property
    def kind(self) -> str:
        """The form `describe` writes: "const", "steps" or "harmonic"."""
        return "harmonic" if self.h else "steps" if self.prefix else "const"

    def at(self, n: int) -> Q:
        if n < 1:
            raise ValueError("sequence index starts at 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return qadd(self.tail, self.h / n) if self.h else self.tail

    def limit(self) -> Q:
        return self.tail

    def eventual_value(self) -> Q | None:
        """Value the sequence is eventually *equal* to, or None (harmonic)."""
        return None if self.h else self.tail

    def is_zero(self) -> bool:
        return not self.h and not self.tail and not any(self.prefix)

    def max_abs(self) -> Q:
        return max(abs(self.at(n)) for n in range(1, len(self.prefix) + 2))

    def is_nonincreasing(self) -> bool:
        vals = [self.at(n) for n in range(1, len(self.prefix) + 2)]
        return self.h >= 0 and all(a >= b for a, b in zip(vals, vals[1:]))

    def scale(self, c: QLike) -> "RationalSeq":
        c_q = qof(c)
        return _closed([qmul(v, c_q) for v in self.prefix], qmul(self.tail, c_q), qmul(self.h, c_q))

    def add(self, other: "RationalSeq") -> "RationalSeq":
        a, b = self, other
        if bool(a.h) != bool(b.h) and not (a.is_zero() or b.is_zero()):
            raise ValueError("no closed form for harmonic + non-harmonic")
        width = max(len(a.prefix), len(b.prefix))
        pref = [qadd(a.at(n), b.at(n)) for n in range(1, width + 1)]
        return _closed(pref, qadd(a.tail, b.tail), qadd(a.h, b.h))

    def abs_env(self) -> "RationalSeq":
        """Nonincreasing envelope e(n) >= |self(n)| with the same (zero) limit class.

        The prefix part is the running maximum of |values| from the right;
        the envelope is eventually |tail| + |h|/n.
        """
        env = []
        running = qabs(self.tail)
        for v in reversed(self.prefix):
            running = qmax(running, qabs(v))
            env.append(running)
        env.reverse()
        return _closed(env, qabs(self.tail), qabs(self.h))

    def settle_bound(self) -> int:
        """An index beyond which the sequence is in its eventual regime."""
        return len(self.prefix) + 1

    def describe(self) -> str:
        rest = f"{qstr(self.h)}/n" if self.h else qstr(self.tail)
        if not self.prefix:
            return rest
        return f"[{','.join(map(qstr, self.prefix))};{rest}]"


def _closed(prefix: list, tail: Q, h: Q) -> RationalSeq:
    """The canonical form: trailing prefix entries equal to the tail go."""
    while prefix and qeq(prefix[-1], tail):
        prefix.pop()
    return RationalSeq(tuple(prefix), tail, h)


ZERO_SEQ = RationalSeq.const(0)
