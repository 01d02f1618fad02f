"""Declarative spec files: spaces and operators.

Grammar (line oriented, '#' comments):

    space NAME = l0inf | ck | ek | grid | findim(N)

    operator NAME : DOMAIN -> CODOMAIN {
      e(IDX) -> ELEM                      # explicit atom image
      atoms VAR > N [, VAR mod Q == R] -> 0 | { COEF @ COORD, ... }
      rowunit(N) -> ELEM                  # ek domains
      rowunits VAR > N -> 0
      unit -> ELEM
    }

    IDX   := INT | INT,INT
    ELEM  := 0 | TERM + TERM + ...        TERM := COEF @ COORDLIT | COEF * unit
                                                  | COEF * rowunit(N)
    COORD := AFFINE | g(AFFINE) | (AFFINE, AFFINE)
    AFFINE := [+|-] AT ((+|-) AT)*      e.g. 2n-1, (m+1)/2
    AT    := NUM[/NUM] [VAR] | VAR[/NUM] | (AFFINE)[/NUM]

Index forms must be affine; anything else is rejected with its position.
No clause but `atoms` may repeat (`e` and `rowunit`: per index), and every
`atoms` rule of an operator shares one threshold N.
A pair coordinate's row reads `n` (the row) and its column the rule
variable; every other coordinate reads the rule variable.
A findim domain takes no `atoms` rule, and its optional `unit` clause must
equal the sum of the atom images.

Each line is parsed straight into the values the engine takes: spaces into
`SpaceDesc`s, rule coordinates into coordinate forms, element expressions
into generator terms; `build_operator` only assembles them.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import partial
from math import lcm
from typing import Iterator, Tuple

from .records import record
from .errors import RieszkitError
from .scalars import Q, QLike
from .spaces import (Affine, PairForm, SeqForm, SpaceDesc, TokenForm, affine, atom_str,
                     parse_space_label)
from .elements import Element, recompose
from .operators import Operator, operator, stencil_rule


class SpecError(RieszkitError):
    def __init__(self, line: int, col: int, message: str, expected: tuple = ()):
        loc = f"line {line}:{col}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}: {message}{exp}")
        self.line = line
        self.col = col
        self.expected = expected


# ---------------------------------------------------------------------------
# declarations
#
# An element expression is a tuple of (generator, coeff) terms in the format
# of `elements.decompose`, except that a literal coordinate's generator is
# ("atom", stationary form): the form names the atom, which is made at build.


@record
class SpaceDecl:
    name: str
    space: SpaceDesc


@record
class AtomsRule:
    threshold: int
    modulus: int
    residue: int
    entries: Tuple[tuple, ...]  # (form, coeff) pairs, as `stencil_rule` takes them


@record
class OperatorDecl:
    name: str
    domain: str
    codomain: str
    atom_images: Tuple[tuple, ...]  # (atom index, element expression)
    rules: Tuple[AtomsRule, ...]
    row_unit_images: Tuple[tuple, ...]  # (row, element expression)
    unit_image: tuple | None
    line: int


@record
class SpecFile:
    spaces: Tuple[SpaceDecl, ...]
    operators: Tuple[OperatorDecl, ...]


# ---------------------------------------------------------------------------
# tokenizer

# one alternative per token kind (groups 1-3), then any other character
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(->|==|[=:{}(),@*+/>-])|\S")
_KINDS = (None, "num", "name", "op")


class Tok(namedtuple("_Tok", "kind text line col")):
    __slots__ = ()


# a token from its field tuple, in one C call: no Python-level constructor
_tok = partial(tuple.__new__, Tok)


def _tokenize_line(text: str, line_no: int) -> list[Tok]:
    """The tokens of a line, in one pass of the token pattern.  A character
    that starts no token is refused at its own column."""
    out = []
    body = text.split("#", 1)[0]
    for m in _TOKEN_RE.finditer(body):
        kind = m.lastindex
        if kind is None:
            raise SpecError(line_no, m.start() + 1, f"unexpected character {m.group()!r}")
        out.append(_tok((_KINDS[kind], m.group(), line_no, m.start() + 1)))
    return out


class _Cursor:
    def __init__(self, toks: list[Tok], line: int):
        self.toks = toks
        self.i = 0
        self.line = line

    def peek(self) -> Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, expected: tuple = ()) -> Tok:
        t = self.peek()
        if t is None:
            col = self.toks[-1].col + len(self.toks[-1].text) if self.toks else 1
            raise SpecError(self.line, col, "unexpected end of line", expected)
        self.i += 1
        return t

    def expect(self, text: str) -> Tok:
        t = self.next((text,))
        if t.text != text:
            raise SpecError(t.line, t.col, f"got {t.text!r}", (text,))
        return t

    def require_end(self):
        t = self.peek()
        if t is not None:
            raise SpecError(t.line, t.col, f"trailing input {t.text!r}")


def _statements(lines: list[str]) -> Iterator[_Cursor]:
    """A cursor on each line that has tokens, tokenized when it is reached."""
    for line_no, text in enumerate(lines, start=1):
        toks = _tokenize_line(text, line_no)
        if toks:
            yield _Cursor(toks, line_no)


# ---------------------------------------------------------------------------
# parsing


def parse(text: str) -> SpecFile:
    spaces: list[SpaceDecl] = []
    operators: list[OperatorDecl] = []
    lines = text.splitlines()
    statements = _statements(lines)
    for cur in statements:
        head = cur.next(("space", "operator"))
        if head.text == "space":
            spaces.append(_parse_space(cur))
        elif head.text == "operator":
            operators.append(_parse_operator(cur, statements, len(lines)))
        else:
            raise SpecError(
                head.line, head.col, f"unknown statement {head.text!r}",
                ("space", "operator"),
            )
    return SpecFile(tuple(spaces), tuple(operators))


def _parse_space(cur: _Cursor) -> SpaceDecl:
    name = cur.next(("space name",))
    if name.kind != "name":
        raise SpecError(name.line, name.col, f"got {name.text!r}", ("space name",))
    cur.expect("=")
    kind = cur.next(("l0inf", "ck", "ek", "grid", "findim"))
    label = kind.text
    if label == "findim":
        cur.expect("(")
        n = cur.next(("dimension",))
        cur.expect(")")
        label = f"findim({n.text})"
    try:
        space = parse_space_label(label)
    except RieszkitError:
        raise SpecError(
            kind.line, kind.col, f"unknown space kind {label!r}",
            ("l0inf", "ck", "ek", "grid", "findim(N)"),
        )
    cur.require_end()
    return SpaceDecl(name.text, space)


_CLAUSES = ("e", "atoms", "unit", "rowunit", "rowunits", "}")


def _parse_operator(cur: _Cursor, statements: Iterator[_Cursor], last_line: int) -> OperatorDecl:
    """The declaration whose header `cur` holds; its body is read from
    `statements` up to the closing brace."""
    name = cur.next(("operator name",))
    cur.expect(":")
    dom = cur.next(("domain space",))
    cur.expect("->")
    cod = cur.next(("codomain space",))
    cur.expect("{")
    cur.require_end()
    atom_images = []
    rules = []
    row_images = []
    unit_image = None
    seen = set()  # the clauses that may appear once: every one but `atoms`
    for cur in statements:
        head = cur.next(_CLAUSES)
        if head.text == "}":
            cur.require_end()
            break
        clause = head.text
        if head.text == "e":
            cur.expect("(")
            idx = _parse_int(cur)
            if cur.peek() and cur.peek().text == ",":
                cur.next()
                idx = (idx, _parse_int(cur))
            cur.expect(")")
            cur.expect("->")
            atom_images.append((idx, _parse_elem_expr(cur)))
            clause = atom_str(idx)
        elif head.text == "atoms":
            rules.append(_parse_atoms_rule(cur))
            clause = None
        elif head.text == "unit":
            cur.expect("->")
            unit_image = _parse_elem_expr(cur)
        elif head.text == "rowunit":
            r = _parse_paren_int(cur)
            cur.expect("->")
            row_images.append((r, _parse_elem_expr(cur)))
            clause = f"rowunit({r})"
        elif head.text == "rowunits":
            # a row unit with no `rowunit` clause maps to 0 already: the
            # clause is checked and states that, but stores nothing
            cur.next(("variable",))
            cur.expect(">")
            _parse_int(cur)
            cur.expect("->")
            z = cur.next(("0",))
            if z.text != "0":
                raise SpecError(z.line, z.col, "row-unit tails must vanish", ("0",))
        else:
            raise SpecError(head.line, head.col, f"unknown clause {head.text!r}", _CLAUSES)
        cur.require_end()
        if clause and clause in seen:
            raise SpecError(head.line, head.col, f"repeated clause {clause!r}")
        if head.text == "atoms" and rules[-1].threshold != rules[0].threshold:
            raise SpecError(head.line, head.col,
                            f"atoms threshold {rules[-1].threshold} differs from "
                            f"{rules[0].threshold}; every atoms rule shares one threshold")
        seen.add(clause)
    else:
        raise SpecError(last_line, 1, "operator block never closed", ("}",))
    return OperatorDecl(
        name.text,
        dom.text,
        cod.text,
        tuple(atom_images),
        tuple(rules),
        tuple(row_images),
        unit_image,
        name.line,
    )


def _parse_int(cur: _Cursor, what: str = "integer") -> int:
    t = cur.next((what,))
    if t.kind != "num":
        raise SpecError(t.line, t.col, f"got {t.text!r}", (what,))
    return int(t.text)


def _parse_paren_int(cur: _Cursor) -> int:
    cur.expect("(")
    n = _parse_int(cur)
    cur.expect(")")
    return n


def _denominator(cur: _Cursor, what: str) -> int:
    """The integer after a '/', or 1 when none follows; 0 is an input error
    at its token."""
    t = cur.peek()
    if t is None or t.text != "/":
        return 1
    cur.next()
    t = cur.peek()
    den = _parse_int(cur, what)
    if den == 0:
        raise SpecError(t.line, t.col, "zero denominator")
    return den


def _parse_scalar(cur: _Cursor) -> Q:
    t = cur.peek()
    sign = -1 if t is not None and t.text == "-" else 1
    if sign < 0:
        cur.next()
    num = _parse_int(cur, "number")
    return sign * Q(num, _denominator(cur, "denominator"))


def _parse_atoms_rule(cur: _Cursor) -> AtomsRule:
    var = cur.next(("variable",))
    if var.kind != "name":
        raise SpecError(var.line, var.col, f"got {var.text!r}", ("variable",))
    cur.expect(">")
    threshold = _parse_int(cur)
    modulus, residue = 1, 0
    if cur.peek() and cur.peek().text == ",":
        cur.next()
        v2 = cur.next((var.text,))
        if v2.text != var.text:
            raise SpecError(v2.line, v2.col, "modulus clause must use the rule variable")
        cur.expect("mod")
        modulus = _parse_int(cur)
        cur.expect("==")
        residue = _parse_int(cur)
        if not 0 <= residue < modulus:
            raise SpecError(v2.line, v2.col, "residue out of range")
    cur.expect("->")
    t = cur.peek()
    entries = []
    if t is not None and t.text == "0":
        cur.next()
    else:
        cur.expect("{")
        while True:
            coeff = _parse_scalar(cur)
            cur.expect("@")
            entries.append((_parse_coord(cur, _parse_affine_sum, var.text), coeff))
            nxt = cur.next((",", "}"))
            if nxt.text == "}":
                break
            if nxt.text != ",":
                raise SpecError(nxt.line, nxt.col, f"got {nxt.text!r}", (",", "}"))
    return AtomsRule(threshold, modulus, residue, tuple(entries))


def _parse_coord(cur: _Cursor, component, var: str):
    """The coordinate form whose components `component(cur, var)` reads:
    g(C) is a token form, (R, C) a pair form whose row R reads n, and a bare
    C a sequence form."""
    t = cur.peek()
    if t is None:
        raise SpecError(cur.line, 1, "missing coordinate")
    if t.kind == "name" and t.text == "g":
        cur.next()
        cur.expect("(")
        form = TokenForm(component(cur, var))
    elif t.text == "(":
        cur.next()
        row = component(cur, "n")
        cur.expect(",")
        form = PairForm(row, component(cur, var))
    else:
        return SeqForm(component(cur, var))
    cur.expect(")")
    return form


def _literal(cur: _Cursor, var: str) -> Affine:
    """A literal coordinate component: the stationary form of an integer."""
    return affine(0, _parse_int(cur))


_INDEX_STOP = frozenset({")", ",", "}"})


def _parse_affine_sum(cur: _Cursor, var: str, stop=_INDEX_STOP) -> Affine:
    """[sign] TERM (sign TERM)* in the variable `var`, read up to a token of
    `stop`.  A run of signs, a sign with no term after it and two terms
    with no sign between them are refused at the offending token."""
    t = cur.peek()
    if t is not None and t.text in stop:
        raise SpecError(t.line, t.col, "empty index form")
    a = b = 0
    while True:
        sign = 1
        if t is not None and t.text in ("+", "-"):
            cur.next()
            sign = 1 if t.text == "+" else -1
            if cur.peek() is None or cur.peek().text in stop:
                raise SpecError(t.line, t.col, f"sign {t.text!r} without a term")
        ta, tb = _parse_term(cur, var)
        a += sign * ta
        b += sign * tb
        t = cur.peek()
        if t is None or t.text in stop:
            return affine(a, b)
        if t.text not in ("+", "-"):
            raise SpecError(t.line, t.col, f"unexpected {t.text!r} in index form")


def _parse_term(cur: _Cursor, var: str) -> tuple[QLike, QLike]:
    """(coefficient of `var`, constant) of one term
    NUM[/NUM] [VAR] | VAR[/NUM] | (SUM)[/NUM]: integers unless divided."""
    t = cur.next()
    if t.text == "(":
        group = _parse_affine_sum(cur, var, frozenset({")"}))
        cur.expect(")")
        a, b, d = group.p, group.q, group.d
    elif t.kind == "num":
        a, b, d = 0, int(t.text), 1
    elif t.kind == "name":
        _read_variable(cur, t, var)
        a, b, d = 1, 0, 1
    else:
        raise SpecError(t.line, t.col, f"unexpected {t.text!r} in index form")
    den = _denominator(cur, "integer") * d
    if den != 1:
        a, b = Q(a, den), Q(b, den)
    v = cur.peek()
    if t.kind == "num" and v is not None and v.kind == "name":
        _read_variable(cur, cur.next(), var)
        a, b = b, 0
    return a, b


def _read_variable(cur: _Cursor, v: Tok, var: str) -> None:
    """`v`, just read, must be `var` and must not be multiplied."""
    if v.text != var:
        raise SpecError(v.line, v.col, f"unknown variable {v.text!r}")
    t = cur.peek()
    if t is not None and (t.kind == "name" or t.text == "*"):
        raise SpecError(t.line, t.col, "non-affine index form")


def _parse_elem_expr(cur: _Cursor) -> tuple:
    t = cur.peek()
    if t is not None and t.text == "0" and cur.i == len(cur.toks) - 1:
        cur.next()
        return ()
    terms = []
    while True:
        coeff = _parse_scalar(cur)
        op = cur.next(("@", "*"))
        if op.text == "@":
            ref = ("atom", _parse_coord(cur, _literal, "n"))
        elif op.text == "*":
            what = cur.next(("unit", "rowunit"))
            if what.text == "unit":
                ref = ("unit",)
            elif what.text == "rowunit":
                ref = ("row_unit", _parse_paren_int(cur))
            else:
                raise SpecError(
                    what.line, what.col, f"got {what.text!r}", ("unit", "rowunit")
                )
        else:
            raise SpecError(op.line, op.col, f"got {op.text!r}", ("@", "*"))
        terms.append((ref, coeff))
        nxt = cur.peek()
        if nxt is None or nxt.text != "+":
            return tuple(terms)
        cur.next()


# ---------------------------------------------------------------------------
# building engine objects


def build_spaces(spec: SpecFile) -> dict[str, SpaceDesc]:
    return {decl.name: decl.space for decl in spec.spaces}


def _build_element(terms: tuple, space: SpaceDesc) -> Element:
    # a generator, so each index is checked before the next term is read
    return recompose(space, (((ref[0], ref[1].at(1)) if ref[0] == "atom" else ref, c)
                             for ref, c in terms))


def build_operator(decl: OperatorDecl, spaces: dict[str, SpaceDesc]) -> Operator:
    """The operator a declaration describes; every engine error raised while
    it is built becomes a SpecError that names the declaration's line."""
    if decl.domain not in spaces:
        raise SpecError(decl.line, 1, f"unknown space {decl.domain!r}")
    if decl.codomain not in spaces:
        raise SpecError(decl.line, 1, f"unknown space {decl.codomain!r}")
    dom, cod = spaces[decl.domain], spaces[decl.codomain]
    try:
        images = {idx: _build_element(terms, cod) for idx, terms in decl.atom_images}
        rule = None
        if decl.rules:
            modulus = lcm(*(r.modulus for r in decl.rules))
            threshold = decl.rules[0].threshold
            entries = [[e for r in decl.rules if res % r.modulus == r.residue for e in r.entries]
                       for res in range(modulus)]
            rule = stencil_rule(modulus, threshold, entries, cod)
        rows = {r: _build_element(terms, cod) for r, terms in decl.row_unit_images}
        unit_img = (
            _build_element(decl.unit_image, cod) if decl.unit_image is not None else None
        )
        if unit_img is None and not dom.dim:
            raise SpecError(decl.line, 1, f"operator {decl.name!r} needs a unit clause")
        return operator(dom, cod, images, rule, rows, unit_img)
    except SpecError:
        raise
    except RieszkitError as e:
        raise SpecError(decl.line, 1, f"operator {decl.name!r}: {e}") from None


def build_all(spec: SpecFile) -> tuple[dict[str, SpaceDesc], dict[str, Operator]]:
    spaces = build_spaces(spec)
    ops = {decl.name: build_operator(decl, spaces) for decl in spec.operators}
    return spaces, ops
