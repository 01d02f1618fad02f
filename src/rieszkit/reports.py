"""Structured results and their deterministic rendering.

Reports serialize to JSON with a fixed key order and rationals rendered as
strings, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any, Tuple

from .records import record
from .scalars import Q, qstr
from .elements import Element, render
from .convergence import ConvergenceCertificate
from .sequences import ElementSeq

ENGINE_VERSION = "0.1.0"


@record
class Report:
    command: str
    verdict: str
    exit_code: int = 0
    anchors: Tuple[str, ...] = ()
    certificate: Any = None
    oracle: Any = None
    transcript: Tuple[str, ...] = ()
    details: Any = None


def ser(value) -> Any:
    """Recursively convert engine values to JSON-able structures."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, Q):
        return qstr(value)
    if isinstance(value, Element):
        return render(value)
    if isinstance(value, ElementSeq):
        return {
            "static": render(value.static),
            "atoms": [
                {"form": str(f), "coeff": c.describe()} for f, c in value.atoms
            ],
            "fills": [
                {
                    "form": str(f.form),
                    "modulus": f.modulus,
                    "residue": f.residue,
                    "from": f.kmin,
                    "lag": f.lag,
                    "value": qstr(f.value),
                }
                for f in value.fills
            ],
            "ambient": value.ambient.describe(),
            "n0": value.n0,
        }
    if isinstance(value, ConvergenceCertificate):
        return {
            "verdict": value.verdict,
            "mode": value.mode,
            "dominating": ser(value.dominating),
            "escaping": [
                {"form": str(f), "coeff": c.describe()} for f, c in value.escaping
            ],
            "escape_bound": qstr(value.escape_bound),
            "order_bound": ser(value.order_bound),
            "minorant": ser(value.minorant),
            "bad_class": value.bad_class,
            "bad_value": None if value.bad_value is None else qstr(value.bad_value),
            "n0": value.n0,
            "anchors": list(value.anchors),
            "notes": list(value.notes),
        }
    if isinstance(value, dict):
        return {str(k): ser(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ser(v) for v in value]
    if hasattr(value, "_fields"):
        return {k: ser(getattr(value, k)) for k in value._fields}
    return str(value)


def report_to_dict(rep: Report) -> dict:
    return {
        "command": rep.command,
        "verdict": rep.verdict,
        "theorem_refs": list(rep.anchors),
        "certificate": ser(rep.certificate),
        "oracle": ser(rep.oracle),
        "transcript": list(rep.transcript),
        "details": ser(rep.details),
        "engine_version": ENGINE_VERSION,
    }


def to_json(rep: Report) -> str:
    return json.dumps(report_to_dict(rep), indent=2, sort_keys=False)


def to_markdown(rep: Report) -> str:
    d = report_to_dict(rep)
    lines = [f"# {d['command']}", "", f"**Verdict:** {d['verdict']}", ""]
    if d["theorem_refs"]:
        lines.append("**Anchors:** " + ", ".join(d["theorem_refs"]))
        lines.append("")
    if d["transcript"]:
        lines.append("## Transcript")
        lines.extend(f"- {line}" for line in d["transcript"])
        lines.append("")
    for heading, key in (("Certificate", "certificate"), ("Oracle data", "oracle"),
                         ("Details", "details")):
        if d[key] is not None:
            lines += [f"## {heading}", "```json", json.dumps(d[key], indent=2), "```", ""]
    lines.append(f"engine {d['engine_version']}")
    return "\n".join(lines)
