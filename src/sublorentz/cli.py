"""Batch front-end: problem configs in, reports and plot data out.

Exit codes: 0 success, 1 failed checks or unsolved problems, 2 config errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import RunConfig, load_config
from .cones import find_time_covector
from .dynamics import _csv, trajectory_to_csv
from .errors import ConfigError, SubLorentzError
from .solver import SolveStatus, reachability_sample, solve_longest
from .timeform import check_growth_condition, dtau
from .verify import run_all


def _jsonable(obj):
    """obj in plain JSON values: numpy scalars and arrays as Python ones, and
    a non-finite float as None, so report.json is strict JSON."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    return obj


@dataclass
class RunReport:
    """Machine-readable result record plus its human-readable rendering."""

    subcommand: str
    status: str
    seed: int
    payload: Dict
    text: List[str] = field(default_factory=list)
    artifacts: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"subcommand": self.subcommand, "status": self.status,
                  "seed": self.seed, **self.payload}
        return json.dumps(_jsonable(record), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def summary(self) -> str:
        return "\n".join([f"[{self.subcommand}] {self.status}"] + self.text)


def emit_report(report: RunReport, out_dir: str) -> List[str]:
    """Write report.json, summary.txt and the run's CSV artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, content in [("report.json", report.to_json()),
                          ("summary.txt", report.summary() + "\n"),
                          *report.artifacts.items()]:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        written.append(path)
    return written


def _cloud_csv(points: np.ndarray, model) -> str:
    return _csv(model.coordinate_names(), points.tolist())


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _run_solve(cfg: RunConfig) -> Tuple[int, RunReport]:
    prob = cfg.instance()
    rep = solve_longest(prob, cfg.solver_options)
    ok = rep.status == SolveStatus.SOLVED
    payload = {
        "solver_status": rep.status.value,
        "objective": rep.objective,
        "endpoint_residual": rep.endpoint_residual,
        "iterations": rep.iterations,
        "endpoint_evaluations": rep.endpoint_evaluations,
        "jacobian_evaluations": rep.jacobian_evaluations,
        "segments": prob.segments,
        "history": list(rep.history),
    }
    report = RunReport("solve", "ok" if ok else rep.status.value,
                       cfg.solver_options.seed, payload,
                       text=[rep.summary()])
    if rep.trajectory is not None:
        report.artifacts["trajectory.csv"] = trajectory_to_csv(rep.trajectory)
        report.artifacts["history.csv"] = _csv(["iteration", "objective"],
                                               list(enumerate(rep.history)))
    return (0 if ok else 1), report


def _run_check_structure(cfg: RunConfig) -> Tuple[int, RunReport]:
    cfg.require("check-structure", "cone", "antinorm")
    pointed = cfg.cone.is_pointed()
    payload: Dict = {"pointed": pointed}
    text = [f"cone pointed: {pointed}"]
    ok = pointed
    if pointed:
        tc = find_time_covector(cfg.cone)
        payload["time_covector"] = tc.components.tolist()
        payload["covector_margin"] = tc.margin
        text.append(f"time covector {np.round(tc.components, 9).tolist()} "
                    f"margin {tc.margin:.6g}")
        ok = ok and tc.margin > 1e-12
    axioms = cfg.antinorm.certify(cfg.cone)
    payload["antinorm_axioms_passed"] = axioms.passed
    payload["antinorm_counterexample"] = axioms.counterexample
    text.append(axioms.summary())
    ok = ok and axioms.passed
    return (0 if ok else 1), RunReport("check-structure", "ok" if ok else "failed",
                                       cfg.seed, payload, text=text)


def _run_check_timeform(cfg: RunConfig) -> Tuple[int, RunReport]:
    cfg.require("check-timeform", "model", "timeform")
    form = cfg.timeform
    # closed <=> exact on these simply connected models
    dtau_norm = float(np.abs(dtau(form)).max())
    closed = dtau_norm == 0.0
    payload: Dict = {"dtau_norm": dtau_norm, "closed": closed}
    text = [f"max |dtau(e_i, e_j)| = {dtau_norm:.3g} -> "
            f"{'closed' if closed else 'NOT closed'}"]
    ok = closed

    if cfg.cone is not None:
        growth = check_growth_condition(form, cfg.cone)
        payload["growth_passed"] = growth.passed
        payload["growth_rho"] = growth.rho
        payload["growth_tau_scale"] = growth.tau_scale
        text.append(growth.summary())
        ok = ok and growth.passed

    payload["exact"] = closed
    if not closed:
        text.append("form is not exact on this model (no potential)")
    return (0 if ok else 1), RunReport("check-timeform", "ok" if ok else "failed",
                                       cfg.seed, payload, text=text)


def _run_reach(cfg: RunConfig) -> Tuple[int, RunReport]:
    cfg.require("reach", "model", "cone", "endpoints")
    # generators so large that the flow overflows: a sampled path leaves the
    # model, which the exit reports, so numpy's warnings about it are silenced
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            cloud = reachability_sample(cfg.model, cfg.cone, cfg.x0, cfg.samples,
                                        seed=cfg.seed)
    except ValueError as exc:   # InvalidPointError is a ValueError too
        raise ConfigError(f"a sampled path leaves the model: {exc}", field="cone")
    payload = {
        "n_samples": int(cloud.shape[0]),
        "coordinate_mins": cloud.min(axis=0).tolist(),
        "coordinate_maxes": cloud.max(axis=0).tolist(),
    }
    text = [f"sampled {cloud.shape[0]} reachable endpoints from "
            f"{np.asarray(cfg.x0).tolist()}"]
    report = RunReport("reach", "ok", cfg.seed, payload, text=text)
    report.artifacts["cloud.csv"] = _cloud_csv(cloud, cfg.model)
    return 0, report


def _run_verify(seed: int) -> Tuple[int, RunReport]:
    results = run_all(seed)
    n_pass = sum(r.passed for r in results)
    payload = {
        "checks_total": len(results),
        "checks_passed": n_pass,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
    }
    text = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
            for r in results]
    text.append(f"{n_pass}/{len(results)} invariants pass")
    ok = n_pass == len(results)
    return (0 if ok else 1), RunReport("verify", "ok" if ok else "failed",
                                       seed, payload, text=text)


def run_config(path: Optional[str], subcommand: str, seed: Optional[int] = None,
               out_dir: Optional[str] = None) -> Tuple[int, RunReport]:
    """Load, validate, dispatch; returns (exit status, report)."""
    cfg = load_config(path) if path is not None else None
    if cfg is not None and seed is not None:
        cfg.seed = seed
        cfg.solver_options = replace(cfg.solver_options, seed=seed)
    if subcommand == "verify":
        code, report = _run_verify(seed if seed is not None
                                   else (cfg.seed if cfg else 0))
    else:
        if cfg is None:
            raise ConfigError(f"{subcommand} needs --config")
        runner = {"solve": _run_solve,
                  "check-structure": _run_check_structure,
                  "check-timeform": _run_check_timeform,
                  "reach": _run_reach}[subcommand]
        code, report = runner(cfg)
    target = out_dir or (cfg.output_dir if cfg else None)
    if target:
        emit_report(report, target)
    return code, report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sublorentz",
        description="Pose, check, and solve sub-Lorentzian longest-path problems.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, needs_config in [("solve", True), ("check-structure", True),
                               ("check-timeform", True), ("reach", True),
                               ("verify", False)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="JSON problem configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        code, report = run_config(args.config, args.subcommand,
                                  seed=args.seed, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SubLorentzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return code


if __name__ == "__main__":
    sys.exit(main())
