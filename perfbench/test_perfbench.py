"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def engine():
    return run.load_engine(ROOT)


def test_same_seed_gives_identical_inputs():
    def texts(seed):
        return [text for _, text, _, _ in wl.generate_specs(random.Random(seed))]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)
    a = [wl.random_ref(random.Random(7), k, 100) for k in wl.ELEMENT_SIZES]
    b = [wl.random_ref(random.Random(7), k, 100) for k in wl.ELEMENT_SIZES]
    assert a == b


def test_same_seed_gives_identical_ops(engine, tmp_path):
    eng = engine
    names = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        ops = wl.build_spec_verdicts(eng, 3, str(d), ROOT, {})
        names.append([(op.name, op.call()[1]) for op in ops])
    assert names[0] == names[1]


def test_wrong_known_answer_is_counted(engine, tmp_path):
    eng = engine
    fixture = os.path.join(ROOT, "fixtures", "moving_indicator.rzk")
    argv = ["check", "order_continuous", "--spec", fixture]
    right = wl.cli_op(eng, "right", argv, (0, "order continuous"))
    wrong = wl.cli_op(eng, "wrong", argv, (1, "not order continuous"))
    ops = [right, wrong]
    res = run.closed_loop(ops, 0.0)
    failed = run.check_answers(ops, res, "spec_verdicts", 99, {})
    assert [ops[k].name for k, _ in failed] == ["wrong"]


def test_host_speed_scales_by_the_samples_around_an_interval():
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    speed.times = [float(t) for t in range(40)]
    # the host runs at half the reference speed from t = 20 on
    speed.samples = [REFERENCE_S] * 20 + [2 * REFERENCE_S] * 20
    assert speed.scale(5.2, 5.4) == 1.0
    assert speed.scale(30.2, 30.4) == 0.5
    # an interval at the change reads samples from both sides
    assert 0.5 < speed.scale(19.5, 19.5) < 1.0


def test_each_seed_has_the_same_spec_mix():
    def mix(seed):
        return sorted((name, dom, known["pair"], known.get("oc"), known["positive"])
                      for name, _, dom, known in wl.generate_specs(random.Random(seed)))

    assert mix(1) == mix(2)


def test_reference_reads_rendered_elements(engine):
    eng = engine
    rng = random.Random(5)
    for kind in wl.ELEMENT_SIZES:
        r = wl.random_ref(rng, kind, 30)
        x = wl.to_element(eng, kind, r)
        assert ref.same(kind, ref.parse_render(kind, eng.elements.render(x)), r)
        assert not ref.same(kind, ref.parse_render(kind, eng.elements.render(x)),
                            ref.scale(2, r) if r.values else ref.Ref({}, r.default + 1))


def test_tracer_restores_bindings_and_keeps_outputs(engine, tmp_path):
    package = engine
    from tracer import Tracer

    ops = wl.build_spec_verdicts(package, 2, str(tmp_path), ROOT, {})[:20]
    main_before = package.cli.main
    base = run.closed_loop(ops, 0.0)
    tracer = Tracer(package)
    tracer.install()
    try:
        assert package.cli.main is not main_before
        traced = run.closed_loop(ops, 0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert package.cli.main is main_before
    assert traced.digests == base.digests
    assert tracer.function("cli", "main")[0] == len(ops)
    assert tracer.fraction_objects > 0
    self_total = sum(s for _, s in tracer.layer_totals().values())
    assert self_total == pytest.approx(tracer.top_level_s, rel=1e-6)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_pass(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(doc["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "spec_verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_mutants_are_marked_and_others_are_not(engine, tmp_path):
    eng = engine
    ops = wl.build_wide_lattice(eng, 1, str(tmp_path), ROOT, {})
    assert {op.name.startswith("mutant-") for op in ops if op.known_defect} == {True}
    assert sum(op.known_defect for op in ops) == 14
