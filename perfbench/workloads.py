"""Seeded workloads with known answers.

Each workload is a fixed cycle of operations built from `--seed`; the run
repeats the cycle in a closed loop.  The seed draws values, not the mix of
operations, so that a cycle costs about the same for every seed.  An operation is a call (or a short,
fixed sequence of calls) into rieszkit's public API.  `Op.call` looks every
engine function up on its module at call time (`eng` is the rieszkit
package), so the tracer's rebinding sees it.  `Op.canon` turns the result
into text outside the timed region, and `Op.check` compares that text with
the answer the generator knows, returning None when it matches and a reason
when it does not.

  spec_verdicts   -- one generated .rzk spec per structural variant plus the
                     two fixtures, every CLI command at every probe,
                     in-process through rieszkit.cli.main
  wide_lattice    -- large-support elements checked against a dict-based
                     pointwise reference, convergence deciders, and mutated
                     certificates whose known answer is "reject"
  casebook_growth -- the paper's case studies and the majorant oracle
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable

import reference as ref

PROBES = (1, 8, 32)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[str], str | None]
    # a certificate mutant: the verifier is known to accept some of them, so
    # a wrong answer counts as failed but does not clear `correct`
    known_defect: bool = False


# ---------------------------------------------------------------------------
# CLI operations


def _run_cli(eng: ModuleType, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = eng.cli.main(argv)
        except SystemExit as e:  # argparse rejects its input this way
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


def cli_canon(result) -> str:
    code, out = result
    return f"exit {code}\n{out}"


def cli_parse(text: str):
    head, _, body = text.partition("\n")
    code = int(head.split()[1])
    try:
        doc = json.loads(body)
    except ValueError:
        doc = None
    return code, doc


def _verdict(doc) -> str:
    if doc is None:
        return "<no json>"
    if "verdict" in doc:
        return doc["verdict"]
    return "error:" + str(doc.get("kind"))


def cli_op(eng: ModuleType, name: str, argv: list[str], expect, extra=None) -> Op:
    """`expect` is (exit code, verdict) or None (only 0-3 and JSON required);
    `extra(doc)` may add a check on the report body."""

    def check(text: str) -> str | None:
        code, doc = cli_parse(text)
        if code not in (0, 1, 2, 3):
            return f"exit code {code} outside 0-3"
        if doc is None:
            return "output is not a JSON report"
        if expect is not None and (code, _verdict(doc)) != tuple(expect):
            return f"got ({code}, {_verdict(doc)!r}), expected {tuple(expect)!r}"
        if extra is not None:
            return extra(doc)
        return None

    return Op(name, lambda: _run_cli(eng, argv), cli_canon, check)


# ---------------------------------------------------------------------------
# spec generation for spec_verdicts


def _q(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _elem_text(coords: dict, unit_coef: Fraction = Fraction(0)) -> str:
    terms = [f"{_q(v)} @ {k}" for k, v in sorted(coords.items()) if v != 0]
    if unit_coef != 0:
        terms.append(f"{_q(unit_coef)} * unit")
    return " + ".join(terms) if terms else "0"


def _affine_text(a: int, b: int) -> str:
    head = "n" if a == 1 else f"{a}n"
    return head if b == 0 else f"{head}+{b}" if b > 0 else f"{head}{b}"


POS_VALUES = (Fraction(1), Fraction(2), Fraction(1, 2))


def spec_shift(rng: random.Random, t: int, negative: bool, delta: str):
    """l0inf -> l0inf: explicit images below t, `atoms n > t -> {c @ n+b}`,
    unit image = partial-sum limit L plus a perturbation delta."""
    b = rng.randint(0, 2)
    c = Fraction(-1) if negative else rng.choice(POS_VALUES)
    explicit = {i: (rng.randint(1, 3), rng.choice(POS_VALUES)) for i in range(1, t + 1)}
    if negative and explicit:
        i = rng.randint(1, t)
        explicit[i] = (explicit[i][0], -explicit[i][1])
    limit: dict = {}
    for j, v in explicit.values():
        limit[j] = limit.get(j, 0) + v
    for k in range(1, t + b + 1):  # c on [t+1+b, inf) = c*unit minus c below
        limit[k] = limit.get(k, 0) - c
    unit_coords, unit_coef = dict(limit), c
    d = rng.choice((Fraction(1), Fraction(1, 2)))
    if delta == "unit":
        unit_coef += d
    elif delta != "none":
        k = rng.randint(1, 4)
        unit_coords[k] = unit_coords.get(k, 0) + (d if delta == "atom+" else -d)
    lines = ["space E = l0inf", "space F = l0inf", "", "operator T : E -> F {"]
    for i, (j, v) in sorted(explicit.items()):
        lines.append(f"  e({i}) -> {_q(v)} @ {j}")
    lines.append(f"  atoms n > {t} -> {{ {_q(c)} @ {_affine_text(1, b)} }}")
    lines.append(f"  unit -> {_elem_text(unit_coords, unit_coef)}")
    lines.append("}")
    oc = delta == "none"
    positive = c > 0 and all(v > 0 for _, v in explicit.values()) and delta != "atom-"
    unit_ref = ref.Ref(
        {k: v + unit_coef for k, v in unit_coords.items()}, unit_coef
    )
    return "\n".join(lines) + "\n", "l0inf", {
        "pair": "l0inf -> l0inf", "oc": oc, "positive": positive, "unit_ref": unit_ref,
    }


def spec_moving(rng: random.Random, negative: bool, delta: str):
    """l0inf -> ck: the moving-indicator family; partial sums are a moving
    bump a*1_{g(n+s)}, which order converges to 0."""
    s = rng.randint(0, 2)
    a = Fraction(-1) if negative else rng.choice(POS_VALUES)
    unit = {"none": "0", "unit": "1 * unit", "atom": f"1 @ g({rng.randint(1, 4)})"}[delta]
    text = (
        "space E = l0inf\nspace F = ck\n\noperator T : E -> F {\n"
        f"  e(1) -> {_q(a)} @ g({1 + s})\n"
        f"  atoms n > 1 -> {{ {_q(a)} @ g({_affine_text(1, s)}), "
        f"{_q(-a)} @ g({_affine_text(1, s - 1)}) }}\n"
        f"  unit -> {unit}\n}}\n"
    )
    return text, "l0inf", {"pair": "l0inf -> ck", "oc": delta == "none", "positive": False}


def spec_spread(rng: random.Random, lifted: bool):
    """l0inf -> ck: positive atoms spread along a progression of the line;
    the partial sums never reach the constant unit image."""
    k, b = rng.randint(1, 3), rng.randint(0, 1)
    c = rng.choice(POS_VALUES)
    u = c + 1 if lifted else c
    text = (
        "space E = l0inf\nspace F = ck\n\noperator T : E -> F {\n"
        f"  atoms n > 0 -> {{ {_q(c)} @ g({_affine_text(k, b)}) }}\n"
        f"  unit -> {_q(u)} * unit\n}}\n"
    )
    return text, "l0inf", {"pair": "l0inf -> ck", "oc": False, "positive": True,
                           "unit_ref_ck": ref.Ref({}, u)}


def spec_rowpair(rng: random.Random, shifted: bool):
    """ek -> grid: a scaled, row-shifted row-pair difference operator."""
    a = rng.choice(POS_VALUES)
    row = "n+1" if shifted else "n"
    text = (
        "space E = ek\nspace F = grid\n\noperator T : E -> F {\n"
        f"  atoms m > 0, m mod 2 == 1 -> {{ {_q(a)} @ ({row},(m+1)/2) }}\n"
        f"  atoms m > 0, m mod 2 == 0 -> {{ {_q(-a)} @ ({row},m/2) }}\n"
        "  rowunits n > 0 -> 0\n  unit -> 0\n}\n"
    )
    return text, "ek", {"pair": "ek -> grid", "positive": False}


def spec_matrix(rng: random.Random, n: int, positive_only: bool):
    """findim(n) -> findim(n): an explicit matrix."""
    vals = POS_VALUES + (Fraction(0),) + (() if positive_only else (Fraction(-1),))
    cols = [[rng.choice(vals) for _ in range(n)] for _ in range(n)]
    lines = [f"space E = findim({n})", f"space F = findim({n})", "",
             "operator T : E -> F {"]
    for j, col in enumerate(cols, 1):
        lines.append(f"  e({j}) -> {_elem_text(dict(enumerate(col, 1)))}")
    lines.append("}")
    pos_rows = [sum((max(col[i], 0) for col in cols), Fraction(0)) for i in range(n)]
    positive = all(v >= 0 for col in cols for v in col) and any(
        v != 0 for col in cols for v in col
    )
    return "\n".join(lines) + "\n", "findim", {
        "pair": f"findim({n}) -> findim({n})", "oc": True, "positive": positive,
        "pos_unit": "(" + ",".join(_q(v) for v in pos_rows) + ")",
    }


FIXTURES = {
    # fixture name -> (domain kind, known answers)
    "moving_indicator.rzk": ("l0inf", {"pair": "l0inf -> ck", "oc": True,
                                       "positive": False}),
    "row_pair_difference.rzk": ("ek", {"pair": "ek -> grid", "positive": False}),
}


def spec_variants() -> list[tuple[Callable, dict]]:
    """Every structural variant of each spec family once (which verdicts a
    spec has, how many explicit images, matrix size), so that each seed
    gives the same mix of verdicts and of work; the seed draws the values."""
    out: list[tuple[Callable, dict]] = []
    shapes = itertools.product((False, True), ("none", "unit", "atom+", "atom-"))
    for i, (negative, delta) in enumerate(shapes):
        out.append((spec_shift, {"t": i % 3, "negative": negative, "delta": delta}))
    for negative, delta in itertools.product((False, True), ("none", "unit", "atom")):
        out.append((spec_moving, {"negative": negative, "delta": delta}))
    out += [(spec_spread, {"lifted": lifted}) for lifted in (False, True)]
    out += [(spec_rowpair, {"shifted": shifted}) for shifted in (False, True)]
    for n, positive_only in itertools.product((2, 3), (False, True)):
        out.append((spec_matrix, {"n": n, "positive_only": positive_only}))
    return out


def _spec_ops(eng, label, path, dom, known, classify_verdicts) -> list[Op]:
    ops = []

    def add(cmd, expect, extra=None):
        # every probe: the known answer does not depend on it
        for probe in PROBES:
            argv = list(cmd) + ["--spec", path, "--probe", str(probe)]
            ops.append(cli_op(eng, f"{label}:{' '.join(cmd)} p{probe}", argv, expect, extra))

    add(("check", "order_bounded"), (0, "order bounded"))
    if dom == "ek":
        unsupported = (3, "error:unsupported-hypothesis")
        add(("check", "order_continuous"), unsupported)
        add(("project-oc",), unsupported)
        add(("positive-part",), (1, "positive part does not exist in the operator space"))
    else:
        oc = known["oc"]
        add(("check", "order_continuous"),
            (0, "order continuous") if oc else (1, "not order continuous"))
        add(("project-oc",), (0, "operator is its own projection" if oc
                               else "projection is proper"))
        extra = None
        if "pos_unit" in known:
            want = {"kind": "element", "value": known["pos_unit"]}
            extra = lambda doc, want=want: (  # noqa: E731
                None if doc["certificate"]["unit_image"] == want
                else f"positive part unit image {doc['certificate']['unit_image']}"
            )
        add(("positive-part",),
            (0, "positive part exists and is representable") if known["positive"]
            else None, extra)
    add(("witness-pervasive",), (0, "rank-one minorant found") if known["positive"]
        else (2, "error:input"))
    pair = known["pair"]
    add(("classify",), (0, classify_verdicts.get(pair, "<not pinned>")),
        lambda doc: None if doc["command"] == f"classify {pair}"
        else f"classified {doc['command']!r}, expected the pair {pair}")
    if dom == "l0inf":
        extra = None
        want = known.get("unit_ref") if known["positive"] else None
        kind = "l0inf"
        if known["positive"] and "unit_ref_ck" in known:
            want, kind = known["unit_ref_ck"], "ck"
        if want is not None:
            # a positive T attains sup T[0, 1] at the unit: the grid oracle
            # must return exactly the unit image
            extra = lambda doc, want=want, kind=kind: (  # noqa: E731
                None if ref.same(kind, ref.parse_render(kind, doc["oracle"]["value"]), want)
                else f"grid sup {doc['oracle']['value']} is not the unit image"
            )
        add(("oracle", "grid-sup"), (0, "computed"), extra)
    return ops


def build_spec_verdicts(eng: ModuleType, seed: int, workdir: str, root: str,
                        pins: dict) -> list[Op]:
    rng = random.Random(seed)
    classify_verdicts = pins.get("classify_verdicts", {})
    specs = []
    for name, (dom, known) in FIXTURES.items():
        specs.append((f"fixture-{name}", os.path.join(root, "fixtures", name), dom, known))
    for name, text, dom, known in generate_specs(rng):
        label = f"{name}{len(specs):02d}"
        path = os.path.join(workdir, f"{label}.rzk")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        specs.append((label, path, dom, known))
    ops = []
    for label, path, dom, known in specs:
        ops.extend(_spec_ops(eng, label, path, dom, known, classify_verdicts))
    return ops


def generate_specs(rng: random.Random) -> list[tuple]:
    """(generator name, spec text, domain kind, known answers), one per
    variant."""
    return [(gen.__name__, *gen(rng, **shape)) for gen, shape in spec_variants()]


# ---------------------------------------------------------------------------
# wide_lattice: large-support elements and sequence work

# sizes about evenly spaced on a log scale, so that operation latencies
# spread smoothly and the latency percentiles do not sit in a gap between
# two sizes
ELEMENT_SIZES = {
    "l0inf": (10, 30, 100, 300, 1000, 4000),
    "ck": (10, 30, 100, 300, 1000),
    "grid": (10, 30, 100, 300, 1000, 4000),
}
SEQUENCE_SIZES = {"l0inf": (100, 1000), "ck": (100, 300)}
# support of the static part of the decreasing families: the monotone decider
# evaluates the family at every step of its window, so this stays small
MONOTONE_STATIC = 20


def _value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))


def _keys(kind: str, size: int, offset: int = 0) -> list:
    if kind == "l0inf":
        return list(range(1 + offset, size + 1 + offset))
    if kind == "ck":
        return [f"g({k})" for k in range(1 + offset, size + 1 + offset)]
    # row-major cells of a grid about sqrt(size) wide; offsets move down rows
    width = max(1, math.isqrt(size))
    return [(i // width + 1, i % width + 1) for i in range(offset, offset + size)]


def random_ref(rng, kind, size, offset=0, default=None) -> ref.Ref:
    d = _value(rng) if default is None else Fraction(default)
    return ref.Ref({k: _value(rng) for k in _keys(kind, size, offset)}, d)


def space_of(eng: ModuleType, kind: str):
    sp = eng.spaces
    return {"l0inf": sp.tail_seq, "ck": sp.fin_dev, "grid": sp.row_block_grid}[kind]()


def token(eng: ModuleType, key: str):
    fam, k = key[:-1].split("(")
    return eng.spaces.Token(fam, int(k))


def index_of(eng: ModuleType, kind: str, key):
    return token(eng, key) if kind == "ck" else key


def to_element(eng: ModuleType, kind: str, r: ref.Ref):
    """Build the engine element for a reference value (set-up, untimed)."""
    space, el = space_of(eng, kind), eng.elements
    if kind == "l0inf":
        top = max(r.values, default=0)
        return el.element_tail(space, [r.at(i) for i in range(1, top + 1)], r.default)
    if kind == "ck":
        return el.element_findev(
            space, {token(eng, k): v for k, v in r.values.items()}, r.default
        )
    rows = {}
    for (n, m), v in r.values.items():
        rows.setdefault(n, {})[m] = v
    out = []
    for n in range(1, max(rows, default=0) + 1):
        cols = rows.get(n, {})
        out.append(([cols.get(m, r.default) for m in range(1, max(cols, default=0) + 1)],
                    r.default))
    return el.element_rowblock(space, out, r.default)


def _element_check(kind: str, want: ref.Ref):
    def check(text: str) -> str | None:
        try:
            got = ref.parse_render(kind, text)
        except ValueError as e:
            return f"unreadable result: {e}"
        return None if ref.same(kind, got, want) else "differs from the pointwise reference"
    return check


def _value_check(want: str):
    return lambda text: None if text == want else f"got {text[:80]!r}, expected {want[:80]!r}"


def element_ops(eng: ModuleType, rng: random.Random, kind: str, size: int,
                overlap: bool) -> list[Op]:
    el = eng.elements
    render = lambda x: el.render(x)  # noqa: E731
    tag = f"{kind}:n{size}"
    rx = random_ref(rng, kind, size)
    ry = random_ref(rng, kind, size, offset=size // 2)
    bump = random_ref(rng, kind, size // 2 + 1, offset=size // 4, default=0)
    ry_up = ref.add(rx, ref.absolute(bump))
    x, y, y_up = (to_element(eng, kind, r) for r in (rx, ry, ry_up))
    ops = []

    # build work: accumulate four weighted pieces of x with add/scale
    keys = sorted(rx.values, key=str)
    chunks = [keys[i::4] for i in range(4)]
    pieces = [ref.Ref({k: rx.values[k] for k in ch}, Fraction(0)) for ch in chunks]
    coeffs = [Fraction(rng.randint(1, 3), rng.choice((1, 2))) for _ in pieces]
    want = ref.Ref({}, Fraction(0))
    for c, p in zip(coeffs, pieces):
        want = ref.add(want, ref.scale(c, p))
    elems = [to_element(eng, kind, p) for p in pieces]
    space = space_of(eng, kind)

    def accumulate():
        acc = el.zero(space)
        for c, p in zip(coeffs, elems):
            acc = el.add(acc, el.scale(c, p))
        return acc

    ops.append(Op(f"accumulate:{tag}", accumulate, render, _element_check(kind, want)))
    ops.append(Op(f"abs_:{tag}", lambda: el.abs_(x), render,
                  _element_check(kind, ref.absolute(rx))))
    ops.append(Op(f"sup2:{tag}", lambda: el.sup2(x, y), render,
                  _element_check(kind, ref.sup(rx, ry))))
    ops.append(Op(f"le:{tag}", lambda: el.le(x, y_up), str,
                  _value_check(str(ref.le(kind, rx, ry_up)))))
    ops.append(Op(f"le-mixed:{tag}", lambda: el.le(x, y), str,
                  _value_check(str(ref.le(kind, rx, ry)))))

    # reads: 64 coordinates drawn from the support and one fresh point
    points = ref.probe_points(kind, rx)
    picks = [rng.choice(points) for _ in range(63)] + [points[-1]]
    idxs = [index_of(eng, kind, p) for p in picks]
    want_coords = ",".join(_q(rx.at(p)) for p in picks)
    ops.append(Op(
        f"coordinate:{tag}",
        lambda: [el.coordinate(x, i) for i in idxs],
        lambda vals: ",".join(_q(v) for v in vals),
        _value_check(want_coords),
    ))

    # disjointness of zero-tail elements, disjoint or overlapping in one key
    rz0 = ref.Ref(dict(rx.values), Fraction(0))
    far = random_ref(rng, kind, max(1, size // 4), offset=2 * size, default=0)
    if overlap:
        k = rng.choice(keys)
        far = ref.Ref({**far.values, k: Fraction(1)}, Fraction(0))
    z0, zf = to_element(eng, kind, rz0), to_element(eng, kind, far)
    ops.append(Op(f"is_disjoint:{tag}", lambda: el.is_disjoint(z0, zf), str,
                  _value_check(str(ref.disjoint(kind, rz0, far)))))
    return ops


def _cert_canon(cert) -> str:
    return f"{cert.verdict}\n{cert!r}"


def _verdict_check(want: str):
    return lambda text: None if text.split("\n", 1)[0] == want else (
        f"verdict {text.split(chr(10), 1)[0]!r}, expected {want!r}")


def _verify_canon(result) -> str:
    ok, log = result
    return f"{ok}\n" + "\n".join(log)


def _accept_check(want: bool):
    def check(text: str) -> str | None:
        got = text.split("\n", 1)[0] == "True"
        if got == want:
            return None
        return "verifier accepted a certificate it must reject" if got else (
            "verifier rejected a valid certificate")
    return check


def sequence_ops(eng: ModuleType, rng: random.Random, kind: str, size: int,
                 with_mutants: bool) -> list[Op]:
    el, sq, cv, sc, sp = eng.elements, eng.sequences, eng.convergence, eng.scalars, eng.spaces
    space = space_of(eng, kind)
    tag = f"{kind}:n{size}"
    line = sp.seq_form if kind == "l0inf" else sp.token_form
    rs = random_ref(rng, kind, size, default=0)
    S = to_element(eng, kind, rs)
    c = rng.choice((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)))
    x = sq.element_seq(space, static=S,
                       atoms=[(line(1, rng.randint(0, 3)), sc.RationalSeq.const(c))])
    j = index_of(eng, kind, rng.choice(sorted(rs.values, key=str)))
    off = el.add(S, el.atom(space, j))
    probe = 8  # fixed, so that the cost of a cycle does not depend on the seed
    unit = el.unit(space)
    march = sq.fill(line(1, 0), 1, 0, 1, 0, -1)
    b0 = sq.element_seq(space, static=unit, fills=[march])
    rz = random_ref(rng, kind, MONOTONE_STATIC, default=0)
    rz = ref.Ref({k: abs(v) + 1 for k, v in rz.values.items()}, Fraction(0))
    bz = sq.element_seq(space, static=el.add(unit, to_element(eng, kind, rz)), fills=[march])

    conv = cv.decide_order_convergence(x, S, probe)
    div = cv.decide_order_convergence(x, off, probe)
    mono_z = cv.decide_monotone_limit(bz, probe)
    ops = [
        Op(f"decide_order_convergence:{tag}",
           lambda: cv.decide_order_convergence(x, S, probe), _cert_canon,
           _verdict_check(cv.CONVERGES)),
        Op(f"decide_order_convergence-off:{tag}",
           lambda: cv.decide_order_convergence(x, off, probe), _cert_canon,
           _verdict_check(cv.DIVERGES)),
        Op(f"verify_certificate:{tag}",
           lambda: cv.verify_certificate(conv, x, S, probe), _verify_canon,
           _accept_check(True)),
        Op(f"decide_monotone_limit:{tag}",
           lambda: cv.decide_monotone_limit(b0, probe), _cert_canon,
           _verdict_check(cv.CONVERGES if kind == "l0inf" else cv.DIVERGES)),
        Op(f"decide_monotone_limit-static:{tag}",
           lambda: cv.decide_monotone_limit(bz, probe), _cert_canon,
           _verdict_check(cv.DIVERGES)),
        Op(f"verify_certificate-monotone:{tag}",
           lambda: cv.verify_certificate(mono_z, bz, None, probe), _verify_canon,
           _accept_check(True)),
    ]
    if not with_mutants:
        return ops
    # certificates that lack the evidence their verdict needs, or claim the
    # wrong verdict; the known answer for every one of them is "reject"
    replace = dataclasses.replace
    const_unit = sq.element_seq(space, ambient=sc.RationalSeq.const(1))
    # a line coordinate beyond Z: the family is 1 there only until the march
    # passes, so a minorant moved there is not below the family
    top = MONOTONE_STATIC + 1
    far = index_of(eng, kind, top if kind == "l0inf" else f"g({top})")
    mutants = {
        "empty-converges": (cv.ConvergenceCertificate(verdict=cv.CONVERGES, space=space),
                            const_unit, el.zero(space), 0),
        "drop-dominating": (replace(conv, dominating=None, escaping=()), x, S, probe),
        "drop-order-bound": (replace(conv, order_bound=None), x, S, probe),
        "flip-converges": (replace(conv, verdict=cv.DIVERGES), x, S, probe),
        "flip-diverges": (replace(div, verdict=cv.CONVERGES), x, off, probe),
        "scale-minorant": (replace(mono_z, minorant=el.scale(3, mono_z.minorant)),
                           bz, None, probe),
        "move-minorant": (replace(mono_z, minorant=el.atom(space, far)), bz, None, probe),
    }
    for mname, (cert, seq, lim, p) in mutants.items():
        ops.append(Op(
            f"mutant-{mname}:{tag}",
            lambda cert=cert, seq=seq, lim=lim, p=p: cv.verify_certificate(cert, seq, lim, p),
            _verify_canon, _accept_check(False), known_defect=True,
        ))
    return ops


def build_wide_lattice(eng: ModuleType, seed: int, workdir: str, root: str,
                       pins: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for kind, sizes in ELEMENT_SIZES.items():
        for i, size in enumerate(sizes):
            ops.extend(element_ops(eng, rng, kind, size, overlap=i % 2 == 1))
    for kind, sizes in SEQUENCE_SIZES.items():
        for size in sizes:
            ops.extend(sequence_ops(eng, rng, kind, size, with_mutants=size == sizes[0]))
    return ops


# ---------------------------------------------------------------------------
# casebook_growth


def build_casebook_growth(eng: ModuleType, seed: int, workdir: str, root: str,
                          pins: dict) -> list[Op]:
    rng = random.Random(seed)
    demo_seeds = [rng.randint(0, 10**6) for _ in range(3)]

    def demo_checks(doc):
        checks = doc["oracle"]["checks"]
        return None if set(checks.values()) == {12} else f"projection checks {checks}"

    def floors_check(level):
        def check(doc):
            mu = [Fraction(doc["oracle"]["floors"][str(n)]) for n in range(level + 1)]
            if mu[0] != 0 or any(a > b for a, b in zip(mu, mu[1:])):
                return "majorant floors are not nondecreasing from 0"
            if mu[level] < Fraction(level, 2):
                return f"majorant floor at level {level} does not grow linearly"
            return None
        return check

    # every probe for the two case studies (their verdicts must not depend on
    # it), and three projection-demo seeds; the cycle's mix is the same for
    # every workload seed
    ops = []
    for probe in PROBES:
        ops.append(cli_op(eng, f"casebook not-directed p{probe}",
                          ["casebook", "not-directed", "--probe", str(probe)],
                          (0, "not directed")))
        ops.append(cli_op(
            eng, f"casebook bounded-not-regular p{probe}",
            ["casebook", "bounded-not-regular", "--probe", str(probe)],
            (0, "order continuous, order bounded, positive part not representable")))
    for demo_seed in demo_seeds:
        ops.append(cli_op(eng, f"casebook projection-demo s{demo_seed}",
                          ["casebook", "projection-demo", "--seed", str(demo_seed)],
                          (0, "projection laws hold"), demo_checks))
    for level in (8, 12, 16):
        ops.append(cli_op(eng, f"oracle majorant-growth L{level}",
                          ["oracle", "majorant-growth", "--levels", str(level)],
                          (0, "computed"), floors_check(level)))
    ops.append(cli_op(eng, "oracle dominating-search", ["oracle", "dominating-search"],
                      (1, "none")))
    return ops


WORKLOADS = {
    "spec_verdicts": build_spec_verdicts,
    "wide_lattice": build_wide_lattice,
    "casebook_growth": build_casebook_growth,
}
