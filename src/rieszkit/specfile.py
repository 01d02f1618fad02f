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
    AFFINE := linear expressions in the rule variables, e.g. 2n-1, (m+1)/2

Index forms must be affine; anything else is rejected with its position.
A findim domain takes no `atoms` rule, and its optional `unit` clause must
equal the sum of the atom images.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Tuple

from .records import record
from .errors import RieszkitError
from .scalars import Q, qstr
from .spaces import (
    Affine,
    PairForm,
    SeqForm,
    SpaceDesc,
    TokenForm,
    pair_form,
    parse_space_label,
    seq_form,
    token_form,
)
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
# AST


@record
class SpaceDecl:
    name: str
    kind_label: str
    line: int


@record
class ElemTerm:
    coeff: Q
    target: tuple  # ("coord", stationary CoordForm) | ("unit",) | ("rowunit", n)


@record
class ElemExpr:
    terms: Tuple[ElemTerm, ...]


@record
class StencilEntryAst:
    coeff: Q
    coord: tuple  # ("seq", Affine) | ("token", Affine) | ("pair", Affine, Affine)


@record
class AtomsRule:
    var: str
    threshold: int
    modulus: int
    residue: int
    entries: Tuple[StencilEntryAst, ...]
    line: int


@record
class OperatorDecl:
    name: str
    domain: str
    codomain: str
    atom_images: Tuple[Tuple[tuple, ElemExpr], ...]  # idx tuple ("i", n) | ("pair", n, m)
    rules: Tuple[AtomsRule, ...]
    row_unit_images: Tuple[Tuple[int, ElemExpr], ...]
    row_units_zero_from: int | None
    unit_image: ElemExpr | None
    line: int


@record
class SpecFile:
    spaces: Tuple[SpaceDecl, ...]
    operators: Tuple[OperatorDecl, ...]


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>->|==|[=:{}(),@*+/>-]))"
)


@record
class Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list[Tok]:
    out = []
    pos = 0
    body = text.split("#", 1)[0]
    while pos < len(body):
        m = _TOKEN_RE.match(body, pos)
        if m is None:
            if body[pos:].strip() == "":
                break
            raise SpecError(line_no, pos + 1, f"unexpected character {body[pos]!r}")
        if m.lastgroup is None:
            break
        kind = m.lastgroup
        out.append(Tok(kind, m.group(kind), line_no, m.start(kind) + 1))
        pos = m.end()
        if pos == m.start():
            break
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

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    def require_end(self):
        if not self.at_end():
            t = self.peek()
            raise SpecError(t.line, t.col, f"trailing input {t.text!r}")


# ---------------------------------------------------------------------------
# parsing


def parse(text: str) -> SpecFile:
    spaces: list[SpaceDecl] = []
    operators: list[OperatorDecl] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        toks = _tokenize_line(lines[i], i + 1)
        if not toks:
            i += 1
            continue
        cur = _Cursor(toks, i + 1)
        head = cur.next(("space", "operator"))
        if head.text == "space":
            spaces.append(_parse_space(cur))
            i += 1
        elif head.text == "operator":
            decl, i = _parse_operator(cur, lines, i)
            operators.append(decl)
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
        parse_space_label(label)
    except RieszkitError:
        raise SpecError(
            kind.line, kind.col, f"unknown space kind {label!r}",
            ("l0inf", "ck", "ek", "grid", "findim(N)"),
        )
    cur.require_end()
    return SpaceDecl(name.text, label, name.line)


def _parse_operator(cur: _Cursor, lines: list[str], i: int):
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
    row_zero_from = None
    unit_image = None
    j = i + 1
    while True:
        if j >= len(lines):
            raise SpecError(len(lines), 1, "operator block never closed", ("}",))
        toks = _tokenize_line(lines[j], j + 1)
        if not toks:
            j += 1
            continue
        cur = _Cursor(toks, j + 1)
        head = cur.next(("e", "atoms", "unit", "rowunit", "rowunits", "}"))
        if head.text == "}":
            cur.require_end()
            j += 1
            break
        if head.text == "e":
            cur.expect("(")
            n1 = _parse_int(cur)
            if cur.peek() and cur.peek().text == ",":
                cur.expect(",")
                n2 = _parse_int(cur)
                idx = ("pair", n1, n2)
            else:
                idx = ("i", n1)
            cur.expect(")")
            cur.expect("->")
            atom_images.append((idx, _parse_elem_expr(cur)))
        elif head.text == "atoms":
            rules.append(_parse_atoms_rule(cur, head.line))
        elif head.text == "unit":
            cur.expect("->")
            unit_image = _parse_elem_expr(cur)
        elif head.text == "rowunit":
            cur.expect("(")
            r = _parse_int(cur)
            cur.expect(")")
            cur.expect("->")
            row_images.append((r, _parse_elem_expr(cur)))
        elif head.text == "rowunits":
            var = cur.next(("variable",))
            cur.expect(">")
            row_zero_from = _parse_int(cur)
            cur.expect("->")
            z = cur.next(("0",))
            if z.text != "0":
                raise SpecError(
                    z.line, z.col, "row-unit tails must vanish", ("0",)
                )
            cur.require_end()
        else:
            raise SpecError(
                head.line, head.col, f"unknown clause {head.text!r}",
                ("e", "atoms", "unit", "rowunit", "rowunits", "}"),
            )
        if head.text != "rowunits":
            cur.require_end()
        j += 1
    decl = OperatorDecl(
        name.text,
        dom.text,
        cod.text,
        tuple(atom_images),
        tuple(rules),
        tuple(row_images),
        row_zero_from,
        unit_image,
        name.line,
    )
    return decl, j


def _parse_int(cur: _Cursor, what: str = "integer") -> int:
    t = cur.next((what,))
    if t.kind != "num":
        raise SpecError(t.line, t.col, f"got {t.text!r}", (what,))
    return int(t.text)


def _parse_denominator(cur: _Cursor, what: str = "integer") -> int:
    """The integer after a '/'; 0 is an input error at its token."""
    t = cur.peek()
    den = _parse_int(cur, what)
    if den == 0:
        raise SpecError(t.line, t.col, "zero denominator")
    return den


def _parse_scalar(cur: _Cursor) -> Q:
    sign = Q(1)
    t = cur.peek()
    if t is not None and t.text == "-":
        cur.next()
        sign = Q(-1)
    t = cur.next(("number",))
    if t.kind != "num":
        raise SpecError(t.line, t.col, f"got {t.text!r}", ("number",))
    num = Q(int(t.text))
    nxt = cur.peek()
    if nxt is not None and nxt.text == "/":
        cur.next()
        num = num / _parse_denominator(cur, "denominator")
    return sign * num


def _parse_atoms_rule(cur: _Cursor, line: int) -> AtomsRule:
    var = cur.next(("variable",))
    if var.kind != "name":
        raise SpecError(var.line, var.col, f"got {var.text!r}", ("variable",))
    cur.expect(">")
    threshold = _parse_int(cur)
    modulus, residue = 1, 0
    if cur.peek() and cur.peek().text == ",":
        cur.expect(",")
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
    entries: list[StencilEntryAst] = []
    if t is not None and t.text == "0":
        cur.next()
    else:
        cur.expect("{")
        while True:
            coeff = _parse_scalar(cur)
            cur.expect("@")
            coord = _parse_coord(cur, var.text)
            entries.append(StencilEntryAst(coeff, coord))
            nxt = cur.next((",", "}"))
            if nxt.text == "}":
                break
            if nxt.text != ",":
                raise SpecError(nxt.line, nxt.col, f"got {nxt.text!r}", (",", "}"))
    cur.require_end()
    return AtomsRule(var.text, threshold, modulus, residue, tuple(entries), line)


def _parse_coord(cur: _Cursor, rule_var: str) -> tuple:
    t = cur.peek()
    if t is None:
        raise SpecError(cur.line, 1, "missing coordinate")
    if t.kind == "name" and t.text == "g":
        cur.next()
        cur.expect("(")
        aff = _parse_affine_sum(cur, {rule_var})
        cur.expect(")")
        return ("token", aff)
    if t.text == "(":
        cur.next()
        row = _parse_affine_sum(cur, {"n", rule_var})
        cur.expect(",")
        col = _parse_affine_sum(cur, {"n", rule_var})
        cur.expect(")")
        return ("pair", row, col)
    return ("seq", _parse_affine_sum(cur, {rule_var}))


def _parse_affine_sum(cur: _Cursor, vars_allowed: set, stop=frozenset({")", ",", "}"})):
    """Affine expressions: sums of NUM, VAR, NUM VAR, with optional /NUM on a
    parenthesized group. Returns (var_name | None, a, b)."""
    a, b = Q(0), Q(0)
    var_name = None
    sign = Q(1)
    first = True
    while True:
        t = cur.peek()
        if t is None or (t.text in stop and not first):
            break
        if t.text in stop and first:
            raise SpecError(t.line, t.col, "empty index form")
        first = False
        if t.text == "+":
            cur.next()
            sign = Q(1)
            continue
        if t.text == "-":
            cur.next()
            sign = Q(-1)
            continue
        if t.text == "(":
            cur.next()
            v, ia, ib = _parse_affine_sum(cur, vars_allowed, stop={")"})
            cur.expect(")")
            scale_q = Q(1)
            nxt = cur.peek()
            if nxt is not None and nxt.text == "/":
                cur.next()
                scale_q = Q(1, _parse_denominator(cur))
            if v is not None:
                var_name = var_name or v
                if v != var_name:
                    raise SpecError(t.line, t.col, "mixed variables in an index form")
            a += sign * ia * scale_q
            b += sign * ib * scale_q
            sign = Q(1)
            continue
        if t.kind == "num":
            cur.next()
            val = Q(int(t.text))
            nxt = cur.peek()
            if nxt is not None and nxt.text == "/":
                cur.next()
                val = val / _parse_denominator(cur)
                nxt = cur.peek()
            if nxt is not None and nxt.kind == "name":
                v = cur.next()
                if v.text not in vars_allowed:
                    raise SpecError(v.line, v.col, f"unknown variable {v.text!r}")
                _reject_nonaffine(cur)
                if var_name is None:
                    var_name = v.text
                elif var_name != v.text:
                    raise SpecError(v.line, v.col, "mixed variables in an index form")
                a += sign * val
            else:
                b += sign * val
            sign = Q(1)
            continue
        if t.kind == "name":
            v = cur.next()
            if v.text not in vars_allowed:
                raise SpecError(v.line, v.col, f"unknown variable {v.text!r}")
            _reject_nonaffine(cur)
            if var_name is None:
                var_name = v.text
            elif var_name != v.text:
                raise SpecError(v.line, v.col, "mixed variables in an index form")
            nxt = cur.peek()
            val = Q(1)
            if nxt is not None and nxt.text == "/":
                cur.next()
                val = Q(1, _parse_denominator(cur))
            a += sign * val
            sign = Q(1)
            continue
        raise SpecError(t.line, t.col, f"unexpected {t.text!r} in index form")
    return var_name, a, b


def _reject_nonaffine(cur: _Cursor):
    t = cur.peek()
    if t is not None and (t.kind == "name" or t.text == "*"):
        raise SpecError(t.line, t.col, "non-affine index form")


def _parse_elem_expr(cur: _Cursor) -> ElemExpr:
    t = cur.peek()
    if t is not None and t.text == "0" and cur.i == len(cur.toks) - 1:
        cur.next()
        return ElemExpr(())
    terms = []
    while True:
        coeff = _parse_scalar(cur)
        op = cur.next(("@", "*"))
        if op.text == "@":
            tgt = _parse_coord_literal(cur)
            terms.append(ElemTerm(coeff, tgt))
        elif op.text == "*":
            what = cur.next(("unit", "rowunit"))
            if what.text == "unit":
                terms.append(ElemTerm(coeff, ("unit",)))
            elif what.text == "rowunit":
                cur.expect("(")
                r = _parse_int(cur)
                cur.expect(")")
                terms.append(ElemTerm(coeff, ("rowunit", r)))
            else:
                raise SpecError(
                    what.line, what.col, f"got {what.text!r}", ("unit", "rowunit")
                )
        else:
            raise SpecError(op.line, op.col, f"got {op.text!r}", ("@", "*"))
        nxt = cur.peek()
        if nxt is None or nxt.text != "+":
            break
        cur.expect("+")
    return ElemExpr(tuple(terms))


def _parse_coord_literal(cur: _Cursor) -> tuple:
    """A literal coordinate, as the stationary form that names it."""
    t = cur.peek()
    if t is None:
        raise SpecError(cur.line, 1, "missing coordinate")
    if t.kind == "name" and t.text == "g":
        cur.next()
        cur.expect("(")
        k = _parse_int(cur)
        cur.expect(")")
        return ("coord", token_form(0, k))
    if t.text == "(":
        cur.next()
        n = _parse_int(cur)
        cur.expect(",")
        m = _parse_int(cur)
        cur.expect(")")
        return ("coord", pair_form(0, n, 0, m))
    return ("coord", seq_form(0, _parse_int(cur)))


# ---------------------------------------------------------------------------
# building engine objects


def build_spaces(spec: SpecFile) -> dict[str, SpaceDesc]:
    out = {}
    for decl in spec.spaces:
        out[decl.name] = parse_space_label(decl.kind_label)
    return out


def _build_element(expr: ElemExpr, space: SpaceDesc) -> Element:
    # a generator, so each index is checked before the next term is read
    return recompose(space, (_generator_part(term) for term in expr.terms))


def _generator_part(term: ElemTerm):
    if term.target[0] == "unit":
        return ("unit",), term.coeff
    if term.target[0] == "rowunit":
        return ("row_unit", term.target[1]), term.coeff
    return ("atom", term.target[1].at(1)), term.coeff


def _build_form(coord: tuple, codomain: SpaceDesc):
    kind = coord[0]
    if kind == "token":
        _, a, b = coord[1]
        return TokenForm(Affine(a, b))
    if kind == "pair":
        rv, ra, rb = coord[1]
        cv, ca, cb = coord[2]
        return PairForm(Affine(ra, rb), Affine(ca, cb))
    _, a, b = coord[1]
    return SeqForm(Affine(a, b))


def build_operator(decl: OperatorDecl, spaces: dict[str, SpaceDesc]) -> Operator:
    """The operator a declaration describes; every engine error raised while
    it is built becomes a SpecError that names the declaration's line."""
    if decl.domain not in spaces:
        raise SpecError(decl.line, 1, f"unknown space {decl.domain!r}")
    if decl.codomain not in spaces:
        raise SpecError(decl.line, 1, f"unknown space {decl.codomain!r}")
    dom, cod = spaces[decl.domain], spaces[decl.codomain]
    try:
        images = {}
        for idx_ast, expr in decl.atom_images:
            idx = (idx_ast[1], idx_ast[2]) if idx_ast[0] == "pair" else idx_ast[1]
            images[idx] = _build_element(expr, cod)
        rule = None
        if decl.rules:
            modulus = lcm(*(r.modulus for r in decl.rules))
            threshold = max(r.threshold for r in decl.rules)
            entries = [[] for _ in range(modulus)]
            for r in decl.rules:
                for res in range(modulus):
                    if res % r.modulus == r.residue:
                        for e in r.entries:
                            entries[res].append((_build_form(e.coord, cod), e.coeff))
            rule = stencil_rule(modulus, threshold, entries, cod)
        rows = {r: _build_element(expr, cod) for r, expr in decl.row_unit_images}
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


# ---------------------------------------------------------------------------
# canonical printing


def _print_affine(var: str | None, a: Q, b: Q) -> str:
    if a == 0:
        return qstr(b)
    v = var or "n"
    if a == 1:
        head = v
    elif a.denominator == 1:
        head = f"{qstr(a)}{v}"
    else:
        inner = v if a.numerator == 1 else f"{a.numerator}{v}"
        if b != 0:
            num = f"({inner}{'+' if b * a.denominator > 0 else '-'}{qstr(abs(b * a.denominator))})"
            return f"{num}/{a.denominator}"
        return f"{inner}/{a.denominator}"
    if b == 0:
        return head
    return f"{head}{'+' if b > 0 else '-'}{qstr(abs(b))}"


def _print_coord(coord: tuple) -> str:
    if coord[0] == "token":
        return f"g({_print_affine(*coord[1])})"
    if coord[0] == "pair":
        return f"({_print_affine(*coord[1])},{_print_affine(*coord[2])})"
    return _print_affine(*coord[1])


def _print_elem(expr: ElemExpr) -> str:
    if not expr.terms:
        return "0"
    parts = []
    for t in expr.terms:
        if t.target[0] == "unit":
            parts.append(f"{qstr(t.coeff)} * unit")
        elif t.target[0] == "rowunit":
            parts.append(f"{qstr(t.coeff)} * rowunit({t.target[1]})")
        else:
            parts.append(f"{qstr(t.coeff)} @ {t.target[1]}")
    return " + ".join(parts)


def print_spec(spec: SpecFile) -> str:
    lines = []
    for s in spec.spaces:
        lines.append(f"space {s.name} = {s.kind_label}")
    for op_ in spec.operators:
        lines.append("")
        lines.append(f"operator {op_.name} : {op_.domain} -> {op_.codomain} {{")
        for idx, expr in op_.atom_images:
            loc = f"{idx[1]},{idx[2]}" if idx[0] == "pair" else str(idx[1])
            lines.append(f"  e({loc}) -> {_print_elem(expr)}")
        for r in op_.rules:
            clause = f"atoms {r.var} > {r.threshold}"
            if r.modulus != 1:
                clause += f", {r.var} mod {r.modulus} == {r.residue}"
            if r.entries:
                body = ", ".join(
                    f"{qstr(e.coeff)} @ {_print_coord(e.coord)}" for e in r.entries
                )
                clause += f" -> {{ {body} }}"
            else:
                clause += " -> 0"
            lines.append(f"  {clause}")
        for rr, expr in op_.row_unit_images:
            lines.append(f"  rowunit({rr}) -> {_print_elem(expr)}")
        if op_.row_units_zero_from is not None:
            lines.append(f"  rowunits n > {op_.row_units_zero_from} -> 0")
        if op_.unit_image is not None:
            lines.append(f"  unit -> {_print_elem(op_.unit_image)}")
        lines.append("}")
    return "\n".join(lines) + "\n"
