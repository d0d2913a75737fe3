"""Benchmark of the sublorentz solver and CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload is run in fresh worker
processes with BLAS/OpenMP threads pinned to one.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of one traced pass, next to
one untraced pass in its own process for the tracing overhead.  Declared
times are scaled to a reference machine speed, measured by probes that run
during each operation.  Every operation's answer is checked; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

STARTED = time.monotonic()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cli-session", "endpoint-chain", "reparam")
SETUP_SAMPLES = 5
# what the worker's probe takes at the reference machine speed; timings are
# scaled by REF_PROBE_S / (mean probe time during each operation), which
# cancels the drift of this shared machine's CPU speed (see README.md)
REF_PROBE_S = 0.001
DEADLINE_S = 170  # every worker of one run ends within this
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args, mode: str, work: str, seconds: float = 0.0) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - STARTED)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", repr(seconds), "--work", work]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          timeout=max(remaining, 1.0), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _records(*results):
    return [r for res in results for p in res["passes"] for r in p["ops"]]


def _report(records, main: dict) -> dict:
    """Shared header lines and the gate summary."""
    failed = [r for r in records if r["failed"]]
    print(f"inputs digest: {main['digest']}")
    print(f"environment: {json.dumps(main['environment'], sort_keys=True)}")
    print(f"fail_ratio = {len(failed) / len(records):.4f} ratio "
          f"({len(failed)} of {len(records)} operations)")
    for (name, wrong, reason), n in Counter(
            (r["name"], r["wrong"], r["reason"]) for r in failed).items():
        print(f"  {'WRONG' if wrong else 'failed'} x{n}: {name}: {reason}")
    return {"correct": not any(r["wrong"] for r in records),
            "attempted": len(records), "failed": len(failed)}


def _seconds(r: dict, scaled: bool) -> float:
    """An operation's wall time, raw or scaled to the reference speed."""
    return r["seconds"] * REF_PROBE_S / r["probe_s"] if scaled else r["seconds"]


def _pass_s(p: dict, scaled: bool, kind=None) -> float:
    return sum(_seconds(r, scaled) for r in p["ops"] if kind in (None, r["kind"]))


def _timings(main: dict, setups: list, scaled: bool) -> dict:
    """The end-to-end timings, from raw or from speed-scaled seconds."""
    passes = main["passes"]
    per_op = {}
    for r in _records(main):
        if r["kind"] == "solve" and not r["seeded"]:
            per_op.setdefault(r["name"], []).append(_seconds(r, scaled))
    return {"setup_s": statistics.median(
                s["setup_s"] * (REF_PROBE_S / s["setup_probe_s"] if scaled else 1.0)
                for s in setups),
            "wall_s": statistics.median(_pass_s(p, scaled) for p in passes),
            "solve_s.p50": statistics.median(statistics.median(v)
                                             for v in per_op.values()),
            "sample_s": statistics.median(_pass_s(p, scaled, "sample")
                                          for p in passes)}


def end_to_end(args, work: str) -> tuple:
    setups = [_worker(args, "setup", work) for _ in range(SETUP_SAMPLES - 1)]
    main = _worker(args, "run", work, seconds=args.seconds)
    setups.append(main)
    passes = main["passes"]
    scaled = _timings(main, setups, scaled=True)
    raw = _timings(main, setups, scaled=False)
    n_solves = len({r["name"] for r in _records(main)
                    if r["kind"] == "solve" and not r["seeded"]})
    notes = {"setup_s": f"median of {len(setups)} processes",
             "wall_s": f"median of {len(passes)} passes",
             "solve_s.p50": f"median over {n_solves} fixed-input solves of each "
                            f"one's median over {len(passes)} passes",
             "sample_s": f"median of {len(passes)} passes"}
    metrics = {name: (scaled[name], "s", f"{notes[name]}; raw {raw[name]:.6g} s")
               for name in notes}
    metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB", "worker process")
    gate = _report(_records(main), main)
    return gate, metrics


def _declared(kind: str) -> list:
    """The metrics BENCHMARK.json declares under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def per_layer(args, work: str) -> tuple:
    base = _worker(args, "run", work)
    traced = _worker(args, "trace", work)
    spans = os.path.join(work, f"spans-{args.workload}.npz")
    trace = traced["trace"]
    fn = trace["functions"]

    def get(name, field):
        return fn.get(name, {}).get(field, 0)

    projected = get("cones.project_batch", "solve_calls")
    special = {
        "solver.solve.calls": get("solver.solve_longest", "calls")
        + get("solver.solve_longest_reparametrized", "calls"),
        # the winning restart's outer iterations, summed over solves
        "solver.outer_iters": sum(r["iterations"] for r in _records(traced)
                                  if r["kind"] == "solve"),
        # line-search trials that became gradient steps, inside solve spans
        "solver.trial_accept_ratio": get("cones.grads_on_cone", "solve_calls")
        / projected if projected else 0.0,
        "trace.overhead_ratio": _pass_s(traced["passes"][0], True)
        / _pass_s(base["passes"][0], True),
    }
    metrics = {}
    for m in _declared("per_layer"):
        name = m["name"]
        span, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif field == "self_s" and span in trace["layers"]:
            value = trace["layers"][span]
        else:
            value = get(span, field)
        metrics[name] = (value, m["unit"], "")
    print(f"spans recorded: {trace['spans']} "
          f"(written to {os.path.relpath(spans, ROOT)})")
    gate = _report(_records(base, traced), traced)
    return gate, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sublorentz", "__init__.py")):
        print("error: src/sublorentz not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    work = os.path.join(BENCH_DIR, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        gate, metrics = (per_layer if args.trace else end_to_end)(args, work)
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({**gate, "metrics": {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
