"""Command-line interface.

    rieszkit check order_bounded --spec FILE [--operator NAME]
    rieszkit check order_continuous --spec FILE
    rieszkit positive-part --spec FILE
    rieszkit project-oc --spec FILE
    rieszkit witness-pervasive --spec FILE
    rieszkit classify --domain KIND --codomain KIND
                      | --spec FILE [--domain NAME] [--codomain NAME]
    rieszkit casebook {not-directed | bounded-not-regular | projection-demo}
    rieszkit oracle {matrix-positive-part | grid-sup | majorant-growth
                     | dominating-search} [args]

Exit codes: 0 verdict produced, 1 verdict refuted/false, 2 input error,
3 unsupported hypothesis.  `--probe` must be at least 1.  A report that
cannot be written ends without a traceback: when the reader has closed the
pipe (`rieszkit ... | head`), with the verdict's own code and nothing on
standard error; on any other failed write (a full disk), with 2 and the
reason on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import PreconditionError, RieszkitError, UnsupportedHypothesisError
from .scalars import RationalSeq, qof, qstr
from .spaces import fin_dev, parse_space_label, token_form
from .elements import coordinate, describe, unit
from .operators import order_bounded_test, partial_sum_seq
from .calculus import (
    NONZERO_TAIL,
    PAIR_CONCLUSIONS,
    PERVASIVE_ROUTE,
    classify_pair,
    failing_generator,
    oc_projection,
    order_continuity_test,
    pervasive_witness,
    positive_part,
)
from .casebook import CASEBOOK, row_pair_difference_operator
from .oracles import (
    bruteforce_dominating_search,
    grid_interval_sup,
    majorant_floors,
    matrix_positive_part,
)
from .reports import Report, to_json, to_markdown
from .sequences import element_seq
from .specfile import build_all, build_spaces, parse


def _read_spec(path: str):
    """The parsed spec file; a file that cannot be read as UTF-8 text is an
    input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise PreconditionError(str(e)) from None
    except UnicodeDecodeError as e:
        raise PreconditionError(f"spec file {path!r} is not UTF-8 text: {e}") from None
    return parse(text)


def _load_operator(args):
    if not args.spec:
        raise PreconditionError("this command needs --spec FILE")
    _, ops = build_all(_read_spec(args.spec))
    if not ops:
        raise PreconditionError("the spec file declares no operator")
    name = args.operator or next(iter(ops))
    if name not in ops:
        raise PreconditionError(f"no operator named {name!r} in the spec file")
    return ops[name], name


def _cmd_check(args) -> Report:
    T, name = _load_operator(args)
    if args.what == "order_bounded":
        rep = order_bounded_test(T)
        return Report(
            command=f"check order_bounded {name}",
            verdict="order bounded" if rep.bounded else "not order bounded",
            exit_code=0 if rep.bounded else 1,
            anchors=("order-bound-partial-moduli",),
            details={"bound": rep.bound, "note": rep.note},
        )
    ok, cert = order_continuity_test(T)
    return Report(
        command=f"check order_continuous {name}",
        verdict="order continuous" if ok else "not order continuous",
        exit_code=0 if ok else 1,
        anchors=cert.anchors,
        certificate=cert,
    )


def _cmd_positive_part(args) -> Report:
    T, name = _load_operator(args)
    P, tail, in_f = positive_part(T)
    failing = failing_generator(P, tail)
    cls = classify_pair(T.domain, T.codomain)
    if in_f:
        verdict = "positive part exists and is representable"
        code = 0
    elif failing != NONZERO_TAIL:
        # a supremum leaves the codomain, so by pervasiveness T has none
        verdict = "positive part does not exist in the operator space"
        code = 1
    else:
        verdict = "candidate not representable; existence undecided"
        code = 1
    return Report(
        command=f"positive-part {name}",
        verdict=verdict,
        exit_code=code,
        anchors=tuple(dict.fromkeys(("rk-formula", "rk-property-pervasive") + cls.anchors)),
        certificate={
            "unit_image": describe(P.unit_image),
            "row_unit_images": {r: describe(img) for r, img in P.row_unit_images},
            "row_unit_tail": None if tail is None else describe(tail),
            "failing_generator": failing,
        },
        details={"in_space": in_f, "pervasiveness_route": PERVASIVE_ROUTE},
    )


def _cmd_project_oc(args) -> Report:
    T, name = _load_operator(args)
    P = oc_projection(T)
    fixed = P.unit_image == T.unit_image
    return Report(
        command=f"project-oc {name}",
        verdict="operator is its own projection" if fixed else "projection is proper",
        exit_code=0,
        anchors=("partial-sum-projection", "oc-regular-band"),
        certificate={
            "unit_image": describe(P.unit_image),
            "restricts_to_space": failing_generator(P) is None,
        },
        details={"fixed": fixed},
    )


def _cmd_witness(args) -> Report:
    T, name = _load_operator(args)
    w = pervasive_witness(T, args.probe)
    functional = {"atom_coeffs": _coeffs(w.functional.atom_images)}
    if rows := _coeffs(w.functional.row_unit_images):
        functional["row_unit_coeffs"] = rows
    functional["unit_value"] = coordinate(w.functional.unit_image, 1)
    return Report(
        command=f"witness-pervasive {name}",
        verdict="rank-one minorant found",
        exit_code=0,
        # the route taken: a coordinate composition, or T itself when it
        # vanishes on the atom span closure (no coordinate)
        anchors=("atomic-codomain-witness" if w.coordinate is not None
                 else "atom-span-codim-one-witness", "rank-one-pervasive"),
        certificate={
            "generator": w.generator,
            "coordinate": None if w.coordinate is None else str(w.coordinate),
            "functional": functional,
            "vector": w.vector,
        },
        transcript=w.transcript,
    )


def _coeffs(images) -> dict:
    """A functional's nonzero coefficients, from its table of images."""
    return {str(k): c for k, img in images if (c := coordinate(img, 1)) != 0}


def _cmd_classify(args) -> Report:
    if args.spec:
        # the named spaces, by default the first two the spec declares
        spaces = build_spaces(_read_spec(args.spec))
        declared = list(spaces)
        if not declared:
            raise PreconditionError("the spec file declares no space")
        second = declared[1] if len(declared) > 1 else declared[0]
        names = (args.domain or declared[0], args.codomain or second)
        for flag, name in zip(("--domain", "--codomain"), names):
            if name not in spaces:
                raise PreconditionError(f"{flag} {name!r} names no space of the spec file")
        E, F = (spaces[name] for name in names)
    else:
        if not (args.domain and args.codomain):
            raise PreconditionError("classify needs --domain and --codomain (or --spec)")
        E = parse_space_label(args.domain)
        F = parse_space_label(args.codomain)
    cls = classify_pair(E, F)
    conclusions = list(PAIR_CONCLUSIONS)
    if cls.riesz_space:
        conclusions.append("the regular operators form a lattice")
    if cls.codomain_order_complete:
        conclusions.append("codomain order complete: all classical conclusions")
    return Report(
        command=f"classify {E.label} -> {F.label}",
        verdict="; ".join(conclusions),
        anchors=cls.anchors,
        details={
            "domain": E.label,
            "codomain": F.label,
            "notes": list(cls.notes),
        },
    )


def _cmd_casebook(args) -> Report:
    if args.name not in CASEBOOK:
        raise PreconditionError(
            f"unknown casebook run {args.name!r}; choose from {sorted(CASEBOOK)}"
        )
    if args.name == "projection-demo":
        return CASEBOOK[args.name](seed=args.seed)
    return CASEBOOK[args.name](probe=args.probe)


def _json_array(value) -> list:
    """The items of a decoded JSON array; TypeError for any other value."""
    match value:
        case [*items]:
            return items
    raise TypeError("not a JSON array")


def _parse_matrix(text: str) -> list[list]:
    """The rows of --matrix as rationals: a JSON list of equal-length lists
    whose entries are numbers or rational strings such as "1/2"."""
    try:
        M = [[qof(v) for v in _json_array(row)] for row in _json_array(json.loads(text))]
    except (TypeError, ValueError, ArithmeticError):
        M = None
    if M is None or len({len(row) for row in M}) > 1:
        raise PreconditionError("--matrix must be a JSON list of equal-length lists of rationals")
    return M


def _cmd_oracle(args) -> Report:
    if args.name == "matrix-positive-part":
        if not args.matrix:
            raise PreconditionError("matrix-positive-part needs --matrix JSON")
        M = _parse_matrix(args.matrix)
        P = matrix_positive_part(M)
        return Report(
            command="oracle matrix-positive-part",
            verdict="computed",
            oracle={"input": [[qstr(v) for v in r] for r in M],
                    "positive_part": [[qstr(v) for v in r] for r in P]},
        )
    if args.name == "grid-sup":
        T, name = _load_operator(args)
        value = grid_interval_sup(T, unit(T.domain), args.depth)
        return Report(
            command=f"oracle grid-sup {name}",
            verdict="computed",
            oracle={"depth": args.depth, "value": value},
        )
    if args.name == "majorant-growth":
        if args.spec:
            T, _ = _load_operator(args)
        else:
            T = row_pair_difference_operator()
        mu = {str(n): v for n, v in enumerate(majorant_floors(T, args.levels))}
        return Report(
            command="oracle majorant-growth",
            verdict="computed",
            oracle={"floors": mu},
        )
    if args.name == "dominating-search":
        if args.spec:
            T, _ = _load_operator(args)
            seq = partial_sum_seq(T)
            subject = "the operator's atom-image partial sums"
        else:
            seq = element_seq(
                fin_dev(), atoms=[(token_form(1, 0), RationalSeq.const(1))]
            )
            subject = "the moving-indicator sequence"
        res = bruteforce_dominating_search(seq, args.bound)
        return Report(
            command="oracle dominating-search",
            verdict="found" if res.found else "none",
            exit_code=0 if res.found else 1,
            oracle={
                "subject": subject,
                "bound": args.bound,
                "checked": res.candidates_checked,
                "found": res.found,
                "note": res.note,
            },
        )
    raise PreconditionError(
        f"unknown oracle {args.name!r}; choose from matrix-positive-part, "
        "grid-sup, majorant-growth, dominating-search"
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", help="declarative spec file")
    common.add_argument("--operator", help="operator name inside the spec file")
    common.add_argument("--probe", type=int, default=8, help="finite spot-check depth")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--markdown", action="store_true", default=False)

    p = argparse.ArgumentParser(
        prog="rieszkit",
        description="exact symbolic calculus for regular operators",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common],
                       help="run a named check on the spec operator")
    c.add_argument("what", choices=["order_bounded", "order_continuous"])

    sub.add_parser("positive-part", parents=[common],
                   help="interval suprema on the generators")
    sub.add_parser("project-oc", parents=[common],
                   help="band projection onto the order-continuous part")
    sub.add_parser("witness-pervasive", parents=[common],
                   help="rank-one minorant below a positive operator")

    cl = sub.add_parser("classify", parents=[common],
                        help="applicable conclusions for a space pair")
    cl.add_argument("--domain")
    cl.add_argument("--codomain")

    cb = sub.add_parser("casebook", parents=[common], help="run a named case study")
    cb.add_argument("name")
    cb.add_argument("--seed", type=int, default=42)

    orc = sub.add_parser("oracle", parents=[common], help="run a brute-force reference")
    orc.add_argument("name")
    orc.add_argument("--matrix", help="JSON matrix for matrix-positive-part")
    orc.add_argument("--depth", type=int, default=4, help="grid depth for grid-sup")
    orc.add_argument("--levels", type=int, default=8, help="levels for majorant-growth")
    orc.add_argument("--bound", type=int, default=6, help="size bound for dominating-search")
    return p


_DISPATCH = {
    "check": _cmd_check,
    "positive-part": _cmd_positive_part,
    "project-oc": _cmd_project_oc,
    "witness-pervasive": _cmd_witness,
    "classify": _cmd_classify,
    "casebook": _cmd_casebook,
    "oracle": _cmd_oracle,
}


def _write(text: str, code: int) -> int:
    """Print text to standard output and return code.  A reader that closed
    the pipe needed no more: nothing goes to standard error and the code
    stands.  Any other failed write is reported on standard error and ends
    with 2.  Either way standard output is pointed at the null device, so
    the interpreter's flush at exit writes nothing and raises nothing."""
    try:
        print(text)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        pass
    except OSError as e:
        print(f"rieszkit: cannot write the report: {e}", file=sys.stderr)
        code = 2
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.probe < 1:
            raise PreconditionError(f"--probe must be at least 1, got {args.probe}")
        rep = _DISPATCH[args.command](args)
    except UnsupportedHypothesisError as e:
        return _write(json.dumps({"error": str(e), "kind": "unsupported-hypothesis"}, indent=2), 3)
    except RieszkitError as e:
        return _write(json.dumps({"error": str(e), "kind": "input"}, indent=2), 2)
    return _write(to_markdown(rep) if args.markdown else to_json(rep), rep.exit_code)


if __name__ == "__main__":
    sys.exit(main())
