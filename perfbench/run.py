"""rieszkit benchmark harness (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the harness imports rieszkit from ./src and
nothing else.  One client drives a closed loop: the workload's operations
are built from the seed during set-up, then run in a fixed cycle, each
starting only after the previous one returned, until the operations have
taken --seconds (the loop ends on a cycle boundary).  Answers are checked
against known answers outside the timed region.  Reported times are scaled
to a reference host speed (see hostspeed.py).

--trace 0 prints the end-to-end metrics; --trace 1 repeats the cycles with
every public rieszkit function wrapped (see tracer.py) and prints the
per-layer metrics, normalised per cycle, together with the size sweeps, the
majorant levels and static source figures.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--write-pins regenerates pinned.json (report digests and classify verdicts
for the default seed); do that only for an intended report change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import workloads as wl
from hostspeed import HostSpeed
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pinned.json")
DEFAULT_SEED = 1
IMPORT_SAMPLES = 15
PINNED_WORKLOADS = ("spec_verdicts", "casebook_growth")

SWEEP_OPS = ("sup2", "le", "add")
SWEEP_KINDS = ("ck", "l0inf", "grid")
SWEEP_SIZES = (10, 100, 1000, 4000)
MAJORANT_LEVELS = (8, 12, 16)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up


def import_seconds(root: str, module: str, samples: int) -> list[float]:
    """Time of `import module` measured inside fresh interpreters, scaled to
    the reference host by host-speed samples taken around each one."""
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    speed = HostSpeed()
    speed.sample_around()
    runs = []
    for _ in range(samples):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], cwd=root, capture_output=True,
            text=True, timeout=60, check=False,
        )
        t1 = perf_counter()
        if proc.returncode != 0:
            fail(f"fresh import of {module} failed: {proc.stderr.strip()[-300:]}")
        runs.append((t0, t1, float(proc.stdout.strip())))
        speed.sample_around()
    return [t * speed.scale(t0, t1) for t0, t1, t in runs]


def load_engine(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rieszkit", "__init__.py")):
        fail("no src/rieszkit here; run from the root of a rieszkit checkout")
    sys.path.insert(0, src)
    import rieszkit
    import rieszkit.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(rieszkit.__file__).startswith(src + os.sep):
        fail(f"rieszkit was imported from {rieszkit.__file__}, not from ./src")
    return rieszkit


# ---------------------------------------------------------------------------
# the closed loop


class Pass:
    """Latencies and output digests of one pass over the op cycle."""

    def __init__(self):
        self.latencies: list[float] = []  # scaled to the reference host
        self.digests: list[str] = []
        self.texts: dict[tuple[int, str], str] = {}  # first text per distinct output
        self.op_time = 0.0  # measured, not scaled
        self.cycles = 0


def closed_loop(ops, seconds: float, max_execs: int | None = None, tracer=None) -> Pass:
    """Run whole cycles of `ops` until they have taken `seconds` (or until
    `max_execs` executions).  Host-speed samples are taken between
    operations; each latency is scaled by the samples around it."""
    res = Pass()
    speed = HostSpeed()
    speed.sample()
    intervals = []
    n_ops = len(ops)
    i = 0
    while True:
        if i % n_ops == 0 and i > 0:
            res.cycles = i // n_ops
            if res.op_time >= seconds or (max_execs is not None and i >= max_execs):
                break
        k = i % n_ops
        op = ops[k]
        if tracer is not None:
            tracer.op_id = i
            tracer.paused = False
        t0 = perf_counter()
        try:
            result, err = op.call(), None
        except Exception as e:  # an uncaught engine exception fails the op
            result, err = None, e
        t1 = perf_counter()
        if tracer is not None:
            tracer.paused = True
        text = f"raised {type(err).__name__}: {err}" if err is not None else op.canon(result)
        digest = hashlib.sha256(text.encode()).hexdigest()
        intervals.append((t0, t1))
        res.op_time += t1 - t0
        res.digests.append(digest)
        res.texts.setdefault((k, digest), text)
        speed.maybe_sample()
        i += 1
    speed.sample()
    res.latencies = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in intervals]
    return res


def check_answers(ops, run: Pass, workload: str, seed: int, pins: dict):
    """Check each distinct output once; returns (op index, reason) for every
    failed execution.  For the default seed, CLI reports must also match the
    pinned bytes (the byte-identity contract)."""
    pinned = pins.get("reports", {}).get(workload, {}) if seed == DEFAULT_SEED else {}
    verdicts = {}
    for (k, digest), text in run.texts.items():
        op = ops[k]
        if text.startswith("raised "):
            reason = "uncaught exception: " + text[len("raised "):]
        else:
            try:
                reason = op.check(text)
            except Exception as e:  # a report without the fields the check reads
                reason = f"malformed answer ({type(e).__name__}: {e})"
        key = f"{k:03d} {op.name}"
        if reason is None and key in pinned and pinned[key] != digest:
            reason = "report bytes differ from the pinned default-seed bytes"
        verdicts[(k, digest)] = reason
    failed = []
    for i, digest in enumerate(run.digests):
        k = i % len(ops)
        reason = verdicts[(k, digest)]
        if reason is not None:
            failed.append((k, reason))
    return failed


# ---------------------------------------------------------------------------
# per-layer figures measured outside the traced loop


def _timed_ms(fn, budget: float = 0.05) -> float:
    """Least time of repeated calls within `budget` seconds (one call when a
    single call takes longer), scaled to the reference host."""
    speed = HostSpeed()
    speed.sample_around()
    intervals = []
    total = 0.0
    while total < budget and len(intervals) < 200:
        t0 = perf_counter()
        fn()
        t1 = perf_counter()
        intervals.append((t0, t1))
        total += t1 - t0
    speed.sample_around()
    return min((t1 - t0) * speed.scale(t0, t1) for t0, t1 in intervals) * 1000.0


def loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-6)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def size_sweep(eng, seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    el = eng.elements
    fns = {"sup2": el.sup2, "le": el.le, "add": el.add}
    for kind in SWEEP_KINDS:
        for op in SWEEP_OPS:
            times = []
            for size in SWEEP_SIZES:
                x = wl.to_element(eng, kind, wl.random_ref(rng, kind, size))
                y = wl.to_element(eng, kind, wl.random_ref(rng, kind, size, offset=size // 2))
                ms = _timed_ms(lambda: fns[op](x, y))
                out[f"elements.sweep.{op}.{kind}.n{size}_ms"] = ms
                times.append(ms)
            out[f"elements.sweep.{op}.{kind}.slope"] = loglog_slope(SWEEP_SIZES, times)
    return out


def majorant_levels(eng) -> dict:
    T = eng.casebook.row_pair_difference_operator()
    times = []
    out = {}
    for level in MAJORANT_LEVELS:
        ms = _timed_ms(lambda: eng.oracles.majorant_growth_probe(T, level), budget=0.2)
        out[f"oracles.majorant.L{level}_ms"] = ms
        times.append(ms)
    out["oracles.majorant.slope"] = loglog_slope(MAJORANT_LEVELS, times)
    return out


def source_figures(root: str) -> dict:
    loc = kinds = isinst = 0
    pkg = os.path.join(root, "src", "rieszkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                text = fh.read()
            loc += text.count("\n")
            kinds += text.count("Kind.")
            isinst += text.count("isinstance(")
    return {"src.loc": loc, "src.kind_dispatch_sites": kinds,
            "src.isinstance_dispatch_sites": isinst}


def layer_metrics(tracer, cycles: int) -> dict:
    out = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.self_s"] = self_s / cycles
        out[f"{layer}.calls"] = calls / cycles

    def calls(layer, *names):
        return sum(tracer.function(layer, n)[0] for n in names) / cycles

    def self_s(layer, *names):
        return sum(tracer.function(layer, n)[1] for n in names) / cycles

    out.update({
        "scalars.fraction_objects": tracer.fraction_objects / cycles,
        "elements.constructions": calls(
            "elements", "element_fin", "element_tail", "element_findev", "element_rowblock"),
        "elements.coordinate.calls": calls("elements", "coordinate"),
        "sequences.normalize.calls": calls("sequences", "normalize"),
        "sequences.eventual_pattern.calls": calls("sequences", "eventual_pattern"),
        "sequences.eval_seq.calls": calls("sequences", "eval_seq"),
        "convergence.decide.self_s": self_s(
            "convergence", "decide_monotone_limit", "decide_order_convergence",
            "decide_uniform_cauchy"),
        "convergence.verify_certificate.self_s": self_s("convergence", "verify_certificate"),
        "convergence.verify.probed_evals": tracer.probed_evals / cycles,
        "operators.apply_op.calls": calls("operators", "apply_op"),
        "operators.apply_op.self_s": self_s("operators", "apply_op"),
        "operators.image_sum_pattern.self_s": self_s("operators", "image_sum_pattern"),
        "completion.patterns_built": calls(
            "completion", "tail_pattern", "findev_pattern", "rowblock_pattern"),
        "specfile.parse.self_s": self_s("specfile", "parse"),
        "specfile.build_all.self_s": self_s("specfile", "build_all"),
        "reports.to_json.self_s": self_s("reports", "to_json"),
        "cli.build_parser.self_s": self_s("cli", "build_parser"),
    })
    return out


# ---------------------------------------------------------------------------
# reporting


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); needs two or more values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(doc))


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".slope"):
        return "log-log"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "reports.bytes_out":
        return "bytes"
    if name == "src.loc":
        return "lines"
    return "count"


def write_pins(ops_by_workload: dict, runs: dict) -> None:
    pins = {"default_seed": DEFAULT_SEED, "classify_verdicts": {}, "reports": {}}
    for workload, ops in ops_by_workload.items():
        digests = {}
        for (k, digest), text in sorted(runs[workload].texts.items()):
            digests[f"{k:03d} {ops[k].name}"] = digest
            if ":classify" in ops[k].name:
                _, doc = wl.cli_parse(text)
                pins["classify_verdicts"][doc["command"][len("classify "):]] = doc["verdict"]
        pins["reports"][workload] = digests
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-pins", action="store_true")
    args = p.parse_args(argv)
    if not args.write_pins and args.workload is None:
        p.error("--workload is required")
    root = os.getcwd()
    eng = load_engine(root)
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    build_dir = os.path.join(root, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build_dir)
    try:
        if args.write_pins:
            ops_by, runs = {}, {}
            for name in PINNED_WORKLOADS:
                ops_by[name] = wl.WORKLOADS[name](eng, DEFAULT_SEED, workdir, root, {})
                runs[name] = closed_loop(ops_by[name], 0.0)
            write_pins(ops_by, runs)
            print(f"wrote {PINS}")
            return 0
        return run(args, root, eng, pins, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root, eng, pins, workdir) -> int:
    setup = import_seconds(root, "rieszkit.cli", IMPORT_SAMPLES)
    ops = wl.WORKLOADS[args.workload](eng, args.seed, workdir, root, pins)
    base = closed_loop(ops, args.seconds)
    failed = check_answers(ops, base, args.workload, args.seed, pins)
    attempted = len(base.latencies)
    hard_failures = [f for f in failed if not ops[f[0]].known_defect]
    correct = not hard_failures
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} ops per cycle, "
          f"{base.cycles} cycles, one client, closed loop")
    for k, reason in sorted(set(failed)):
        print(f"  failed: {ops[k].name}: {reason}")

    if not args.trace:
        lat_ms = sorted(x * 1000.0 for x in base.latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": attempted / sum(base.latencies),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": percentile(lat_ms, 90),
            "ok_frac": (attempted - len(failed)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                 "latency_p90_ms": "ms", "ok_frac": "fraction", "peak_rss_mb": "MB"}
        p90_note = "valid" if attempted >= 100 else "NOT valid: fewer than 100 samples"
        notes = {"setup_s": f"median of {len(setup)} fresh-interpreter imports",
                 "latency_p50_ms": f"n={attempted}",
                 "latency_p90_ms": f"n={attempted}, {p90_note}",
                 "ok_frac": f"failed_frac={len(failed) / attempted:.4f} "
                            f"({len(failed)} of {attempted})"}
        for k, v in metrics.items():
            print(f"  {k} = {v:.6g} {units[k]}  {notes.get(k, '')}")
        emit(correct, attempted, len(failed), metrics, units)
        return 0

    tracer = Tracer(eng)
    tracer.install()
    try:
        traced = closed_loop(ops, args.seconds, max_execs=attempted, tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(traced.latencies)
    cycles = traced.cycles
    mismatched = sum(a != b for a, b in zip(traced.digests, base.digests[:n]))
    if mismatched:
        print(f"  traced outputs differ from untraced outputs on {mismatched} ops")
        correct = False
    metrics = layer_metrics(tracer, cycles)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(base.latencies[:n])
    metrics["trace.unattributed_s"] = (traced.op_time - tracer.top_level_s) / cycles
    bytes_out = 0
    for k, op in enumerate(ops):
        text = traced.texts.get((k, traced.digests[k]), "")
        if op.canon is wl.cli_canon:
            bytes_out += len(text.partition("\n")[2].encode())
    metrics["reports.bytes_out"] = bytes_out
    metrics["import.package_s"] = statistics.median(
        import_seconds(root, "rieszkit", IMPORT_SAMPLES))
    metrics.update(size_sweep(eng, args.seed))
    metrics.update(majorant_levels(eng))
    metrics.update(source_figures(root))
    spans_path = os.path.join(
        root, ".bench_build", f"perfbench-{args.workload}-seed{args.seed}.spans.jsonl")
    tracer.write_spans(spans_path)
    print(f"  traced {cycles} cycles ({n} ops); {len(tracer.spans)} spans written to "
          f"{os.path.relpath(spans_path, root)}, {tracer.spans_dropped} more counted only")
    units = {k: per_layer_unit(k) for k in metrics}
    for k in sorted(metrics):
        print(f"  {k} = {metrics[k]:.6g} {units[k]}")
    emit(correct, attempted, len(failed), metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
