"""One benchmark process.  Modes:

  setup  import sublorentz and build the workload; report the set-up time
  run    set up, then run whole passes over the workload's operations for
         about --seconds (at least one pass), with tracing off
  trace  set up, then run one pass with every layer entry point wrapped

Prints one JSON object as its last line of standard output.  Run through
``run.py``, which pins BLAS threads and sets the import path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE_ITERATIONS = 400    # about 1 ms on a 2-core Xeon
PROBE_INTERVAL_S = 0.025  # probes take about 4% of a timed pass


def _timed_setup(workload: str, seed: int, work: str):
    """(setup_s, mean probe time during set-up, raw inputs, ops).

    Neither input generation nor the probes are counted.  numpy is imported
    before the sampler starts, because the probe needs it."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (sublorentz's first import, so part of set-up)
    with SpeedSampler() as sampler:
        import sublorentz  # noqa: F401  (the import is part of set-up)
        import sublorentz.cli  # noqa: F401
        import_s = time.perf_counter() - t0 - sum(sampler.samples)
        import workloads
        raw = workloads.generate(workload, seed, work)
        first = len(sampler.samples)
        t1 = time.perf_counter()
        ops = workloads.build(workload, raw, work)
        build_s = time.perf_counter() - t1 - sum(sampler.samples[first:])
    return (import_s + build_s, statistics.mean(sampler.samples or [probe()]),
            raw, ops)


def _load_pins(workload: str) -> dict:
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    return {k.partition("/")[2]: v for k, v in pins.items()
            if k.partition("/")[0] == workload}


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work
    that does not touch sublorentz: a sample of the machine's speed."""
    import numpy as np
    t = time.perf_counter()
    a, acc = np.ones(3), 0.0
    for i in range(PROBE_ITERATIONS):
        a = np.sqrt(a * a + 1e-3)
        acc += i * 0.5
    return time.perf_counter() - t


class SpeedSampler:
    """Runs ``probe`` from an interval timer while active, so that a long
    operation is sampled all through, not only at its ends."""

    def __init__(self) -> None:
        self.samples: list = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(ops, pins: dict, sampler: SpeedSampler, tracer=None) -> dict:
    """Run every operation once; judge each outside its timed call.

    An operation's ``seconds`` excludes the probes that ran inside it, and its
    ``probe_s`` is their mean (one probe right after it when none ran)."""
    import workloads
    records = []
    for i, op in enumerate(ops):
        pin = pins.get(op.name)
        pinned = pin["objective"] if pin and pin["inputs"] == op.digest else None
        if tracer is not None:
            tracer.begin_op(i, op.name)
        first = len(sampler.samples)
        t = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a crash is a failed, wrong operation
            out, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t
        inside = sampler.samples[first:]
        if tracer is not None:
            tracer.end_op()
        verdict = (workloads.Verdict(True, True, f"raised {err}") if err
                   else op.judge(out, pinned))
        records.append({"name": op.name, "kind": op.kind, "seeded": op.seeded,
                        "seconds": dt - sum(inside),
                        "probe_s": statistics.mean(inside or [probe()]),
                        "probes": len(inside), "failed": verdict.failed,
                        "wrong": verdict.wrong, "reason": verdict.reason,
                        "iterations": verdict.iterations,
                        "objective": verdict.objective})
    return {"ops": records}


def _environment() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    threads = {k: v for k, v in os.environ.items() if "THREADS" in k}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu or platform.processor(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work", required=True,
                        help="scratch directory; trace mode writes its spans here")
    args = parser.parse_args(argv)

    setup_s, setup_probe_s, raw, ops = _timed_setup(args.workload, args.seed,
                                                    args.work)
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
    if args.mode != "setup":
        import workloads
        pins = _load_pins(args.workload)
        result["digest"] = workloads.digest(raw)
        result["environment"] = _environment()
        if args.mode == "run":
            passes = []
            start = time.perf_counter()
            with SpeedSampler() as sampler:
                while True:
                    passes.append(run_pass(ops, pins, sampler))
                    elapsed = time.perf_counter() - start
                    if elapsed * (1.0 + 1.0 / len(passes)) > args.seconds:
                        break
        else:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                with SpeedSampler() as sampler:
                    passes = [run_pass(ops, pins, sampler, tracer)]
            finally:
                tracer.uninstall()
            result["trace"] = tracer.summarize()
            tracer.save(os.path.join(args.work, f"spans-{args.workload}.npz"))
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
