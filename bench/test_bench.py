"""Self-tests of the benchmark:  PYTHONPATH=src python3 -m pytest bench -q"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sublorentz as sl
import workloads
from tracing import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _tiny_op():
    return workloads._solve_op("solve:tiny", workloads.MINKOWSKI, 8,
                               {"restarts": 1, "max_iter": 20, "inner_iter": 10})


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_declared_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "cli-session", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = _declared(kind)
    assert set(result["metrics"]) == set(names)
    for name in names:
        assert any(line.startswith(f"{name} = ") for line in lines[:-1])


def test_gate_trips_on_corrupted_status():
    op = _tiny_op()
    rep = op.run()
    assert op.judge(rep, None) == workloads.Verdict(
        False, False, "", rep.iterations, rep.objective)
    refused = dataclasses.replace(rep, status=sl.SolveStatus.NO_ADMISSIBLE_PATH)
    assert op.judge(refused, None).wrong
    stalled = dataclasses.replace(rep, status=sl.SolveStatus.MAX_ITERATIONS)
    verdict = op.judge(stalled, None)
    assert verdict.failed and not verdict.wrong


def test_gate_trips_on_corrupted_objective():
    op = _tiny_op()
    rep = op.run()
    assert op.judge(dataclasses.replace(rep, objective=rep.objective * 1.001), None).wrong
    assert op.judge(rep, rep.objective * 1.001).wrong          # pinned value
    assert not op.judge(rep, rep.objective).failed
    carnot = workloads._carnot((3.0, 0.5, 0.2))
    kind, upper = carnot.bound()
    assert kind == "le"
    assert not carnot.judge("solved", upper, 0.0, 1, None, []).failed
    assert carnot.judge("solved", upper + 1e-6, 0.0, 1, None, []).wrong
    assert carnot.judge("solved", upper, 1e-3, 1, None, []).wrong  # residual
    hyperbolic = workloads._hyperbolic((0.3, 2.0))
    kind, lower = hyperbolic.bound()
    assert kind == "ge"
    assert hyperbolic.judge("solved", lower - 1e-3, 0.0, 1, None, []).wrong


def test_tracer_restores_every_patched_attribute():
    op = _tiny_op()
    tracer = Tracer()
    tracer.install()
    patched = list(tracer.patched)
    try:
        # one wrapper serves every namespace that bound the function
        assert sl.solver.bch_log_product is sl.groups.bch_log_product
        assert hasattr(sl.solver.bch_log_product, "__wrapped__")
        op.run()
    finally:
        tracer.uninstall()
    assert len(patched) > 50
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    summary = tracer.summarize()
    assert summary["functions"]["solver.solve_longest"]["calls"] == 1
    assert summary["functions"]["cones.project_batch"]["solve_calls"] > 0
    assert summary["layers"]["solver"] > 0.0


def test_chain_endpoint_matches_library_integration():
    rng = np.random.default_rng(5)
    controls = workloads._interior_controls(rng, 6)
    for brackets, layers in ((workloads.HEIS, (2, 1)), (workloads.ENGEL, (2, 1, 1))):
        group = sl.CarnotGroup(sl.CarnotAlgebra.from_brackets(layers, brackets))
        expected = sl.integrate(group, np.zeros(sum(layers)),
                                sl.ControlSignal(controls)).endpoint
        got = workloads.chain_endpoint(brackets, sum(layers), controls)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.generate("endpoint-chain", 7, str(tmp_path))
    b = workloads.generate("endpoint-chain", 7, str(tmp_path))
    c = workloads.generate("endpoint-chain", 8, str(tmp_path))
    assert workloads.digest(a) == workloads.digest(b) != workloads.digest(c)
