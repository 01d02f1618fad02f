"""Span recorder that measures rieszkit's layers from outside.

`Tracer.install()` wraps every public function of every rieszkit module
(module-level functions whose name does not start with "_" and that the
module defines itself) and rebinds each name wherever it appears in a
rieszkit module namespace, including module-level dispatch tables such as
`casebook.CASEBOOK`.  Calls between modules therefore pass through the
wrappers too.  Calls through values captured at import time elsewhere
(default arguments, closures) are not seen; their time lands in the
caller's span.  `Fraction.__new__` is wrapped only to count objects.

Each call records a span (name, layer, start, end, parent, op_id).  Spans
are kept in memory, up to MAX_SPANS, and written out by `write_spans`.
Self time and call counts are aggregated for every span, kept or not: a
span's self time is its duration minus the time its child spans cover.
`uninstall()` restores every original binding.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import json
from time import perf_counter

LAYERS = (
    "scalars",
    "spaces",
    "elements",
    "sequences",
    "completion",
    "convergence",
    "operators",
    "calculus",
    "oracles",
    "casebook",
    "specfile",
    "reports",
    "cli",
)

MAX_SPANS = 100_000  # spans kept for writing out; all of them are aggregated

# (layer, function) pairs whose spans feed the derived counters
_VERIFY = ("convergence", "verify_certificate")
_EVAL = ("sequences", "eval_seq")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.op_id = -1
        self.paused = False
        self.agg: dict[tuple[str, str], list] = {}  # key -> [calls, self_s]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.top_level_s = 0.0
        self.fraction_objects = 0
        self.probed_evals = 0
        self._verify_depth = 0
        self._stack: list[list] = []  # [span_id, start, child_s]
        self._next_id = 0
        self._saved: list[tuple] = []  # (namespace, name, original)
        self._fraction_new = None

    # -- installation -----------------------------------------------------
    def _modules(self):
        pkg = self.package
        mods = {"__init__": pkg}
        for layer in LAYERS:
            mods[layer] = getattr(pkg, layer)
        return mods

    def install(self) -> None:
        mods = self._modules()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self._wrap((layer, name), obj)
        for mod in mods.values():
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if id(obj) in wrapped:
                    self._saved.append((ns, name, obj))
                    ns[name] = wrapped[id(obj)]
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            self._saved.append((obj, k, v))
                            obj[k] = wrapped[id(v)]
        self._install_fraction_counter()

    def _install_fraction_counter(self) -> None:
        frac = fractions.Fraction
        self._fraction_new = frac.__dict__["__new__"]
        orig_new = frac.__new__
        tracer = self

        def counting_new(cls, *args, **kwargs):
            if not tracer.paused:
                tracer.fraction_objects += 1
            return orig_new(cls, *args, **kwargs)

        frac.__new__ = counting_new

    def uninstall(self) -> None:
        for ns, name, orig in reversed(self._saved):
            ns[name] = orig
        self._saved.clear()
        if self._fraction_new is not None:
            fractions.Fraction.__new__ = self._fraction_new
            self._fraction_new = None

    # -- the wrapper ------------------------------------------------------
    def _wrap(self, key: tuple[str, str], fn):
        tracer = self
        stack = self._stack
        self.agg[key] = rec = [0, 0.0]
        is_verify = key == _VERIFY
        is_eval = key == _EVAL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if is_eval and tracer._verify_depth:
                tracer.probed_evals += 1
            if is_verify:
                tracer._verify_depth += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_verify:
                    tracer._verify_depth -= 1
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.top_level_s += dur
                rec[0] += 1
                rec[1] += dur - frame[2]
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (key, frame[1], end, span_id, parent, tracer.op_id)
                    )
                else:
                    tracer.spans_dropped += 1

        return traced

    # -- results ----------------------------------------------------------
    def layer_totals(self) -> dict[str, tuple[int, float]]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _), (calls, self_s) in self.agg.items():
            out[layer][0] += calls
            out[layer][1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def function(self, layer: str, name: str) -> tuple[int, float]:
        calls, self_s = self.agg.get((layer, name), (0, 0.0))
        return calls, self_s

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (layer, name), start, end, span_id, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "id": span_id,
                            "parent": parent,
                            "op_id": op_id,
                        }
                    )
                    + "\n"
                )
