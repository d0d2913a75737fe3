"""Workloads of the sublorentz benchmark: seeded inputs, operations, and the
correctness gate that judges every answer.

Inputs come from the workload seed through numpy alone; reference values
(analytic bounds, seeded endpoints) are computed here, not by the library
under test, so a change to the library cannot move its own yardstick.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import sublorentz as sl
import sublorentz.cli
import sublorentz.config

WORKLOADS = ("cli-session", "endpoint-chain", "reparam")

MINK = [[1.0, 0.0], [0.0, -1.0]]
MINK3 = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
HYP_FORM = [[-4.0, 0.0], [0.0, 1.0]]
HEIS = {(0, 1): {2: 1.0}}
ENGEL = {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}}
FILIFORM = {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0}}
# reachability_sample(filiform, Minkowski cone, 0, 3, seed=1, interior=True)[0]:
# a reachable step-4 endpoint the solver does not reach (ROADMAP item 4)
FILIFORM_X1 = [1.2439847012327094, 0.5869343249326706, -0.13607064018719517,
               -0.005459462676602739, 0.00510451802956775]
POLY2 = [[1.0, 1.0], [1.0, -1.0]]
POLY3 = [[1.0, 0.0], [1.0, 0.6], [1.0, -0.6]]
MIN_FAMILY = [[1.0, 0.5], [1.0, -0.5]]

DIRECT = {"restarts": 1, "max_iter": 40, "inner_iter": 35}
THREE_RESTARTS = {"restarts": 3, "max_iter": 60, "inner_iter": 40}
TOL = 1e-6


@dataclass(frozen=True)
class Verdict:
    """failed: the operation did not deliver its expected answer.
    wrong: it delivered a wrong one (a crash, a false status, a broken bound);
    a solver that stops at max_iterations has failed but is not wrong."""

    failed: bool
    wrong: bool
    reason: str = ""
    iterations: int = 0
    objective: Optional[float] = None


PASS = Verdict(False, False)


@dataclass
class Op:
    name: str
    kind: str                      # "solve" or "sample"
    seeded: bool                   # inputs depend on the workload seed
    inputs: dict                   # JSON description, digested
    run: Callable[[], object]      # the timed call
    judge: Callable[[object, Optional[float]], Verdict]

    @property
    def digest(self) -> str:
        return digest(self.inputs)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Independent reference math (numpy only)
# ---------------------------------------------------------------------------


def _table(brackets: dict, dim: int) -> np.ndarray:
    t = np.zeros((dim, dim, dim))
    for (i, j), comps in brackets.items():
        for k, c in comps.items():
            t[i, j, k] += c
            t[j, i, k] -= c
    return t


def chain_endpoint(brackets: dict, dim: int, controls: np.ndarray) -> np.ndarray:
    """Endpoint from 0 of the first-layer controls over the unit horizon, in
    exponential coordinates, by the BCH series through order 3 (exact for
    step <= 3)."""
    t = _table(brackets, dim)

    def br(a, b):
        return np.einsum("ijk,i,j->k", t, a, b)

    h = 1.0 / len(controls)
    xi = np.zeros(dim)
    for u in controls:
        b = np.zeros(dim)
        b[:len(u)] = h * u
        ab = br(xi, b)
        xi = xi + b + 0.5 * ab + (br(xi, ab) - br(b, ab)) / 12.0
    return xi


def nu_value(nu: tuple, v) -> float:
    kind, matrix = nu
    v = np.asarray(v, dtype=float)
    m = np.asarray(matrix, dtype=float)
    if kind == "lorentz":
        return float(np.sqrt(max(v @ m @ v, 0.0)))
    return float((m @ v).min())


def hyperbolic_log(x0, x1) -> np.ndarray:
    """log(x0^{-1} x1) on the affine group (x, y), (x1,y1)(x2,y2) = (x1 + y1 x2, y1 y2)."""
    wx, wy = (x1[0] - x0[0]) / x0[1], x1[1] / x0[1]
    beta = np.log(wy)
    ratio = 1.0 if abs(wy - 1.0) < 1e-12 else beta / (wy - 1.0)
    return np.array([wx * ratio, beta])


@dataclass(frozen=True)
class Case:
    """A longest-path problem as data, with its expected status and bound."""

    model: str                     # "abelian", "hyperbolic" or "carnot"
    x0: tuple
    x1: tuple
    nu: tuple                      # ("lorentz", form) or ("min", family)
    expect: str = "solved"

    def bound(self) -> Tuple[str, float]:
        """abelian: equal to nu(x1 - x0); Carnot: at most nu of the
        first-layer displacement; hyperbolic: at least the length of the
        one-parameter subgroup from x0 to x1."""
        x0, x1 = np.asarray(self.x0), np.asarray(self.x1)
        if self.model == "abelian":
            return "eq", nu_value(self.nu, x1 - x0)
        if self.model == "carnot":
            m1 = len(self.nu[1][0])
            return "le", nu_value(self.nu, (x1 - x0)[:m1])
        return "ge", nu_value(self.nu, hyperbolic_log(x0, x1))

    def judge(self, status: str, objective: float, residual: float,
              iterations: int, pin: Optional[float],
              problems: List[str]) -> Verdict:
        """Gate one solve; ``problems`` holds consistency failures found by
        the caller in the returned control or trajectory."""
        if status != self.expect:
            return Verdict(True, status != "max_iterations",
                           f"expected {self.expect}, got {status} "
                           f"(residual {residual:.3g})", iterations)
        if status != "solved":
            return Verdict(False, False, "", iterations)
        problems = list(problems)
        if not residual <= TOL:
            problems.append(f"residual {residual:.3g} > tol {TOL:g}")
        kind, ref = self.bound()
        if kind == "eq" and abs(objective - ref) > 1e-6 * max(1.0, abs(ref)):
            problems.append(f"objective {objective!r} != closed form {ref!r}")
        if kind == "le" and objective > ref + 1e-9:
            problems.append(f"objective {objective!r} > first-layer bound {ref!r}")
        if kind == "ge" and objective < ref - 1e-6:
            problems.append(f"objective {objective!r} < subgroup length {ref!r}")
        if pin is not None and abs(objective - pin) > 1e-6 * max(1.0, abs(pin)):
            problems.append(f"objective {objective!r} != pinned {pin!r}")
        return Verdict(bool(problems), bool(problems), "; ".join(problems),
                       iterations, objective)


MINKOWSKI = Case("abelian", (0.0, 0.0), (5.0, 3.0), ("lorentz", MINK))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _path_problems(case: Case, endpoint, length: float, objective: float) -> List[str]:
    out = []
    gap = np.linalg.norm(np.asarray(endpoint) - np.asarray(case.x1))
    if not gap <= 1e-5 * max(1.0, np.linalg.norm(case.x1)):
        out.append(f"trajectory ends {gap:.3g} from x1")
    if not _close(length, objective, 1e-9):
        out.append(f"control length {length!r} != objective {objective!r}")
    return out


# ---------------------------------------------------------------------------
# Library operations
# ---------------------------------------------------------------------------


def _instance(case: Case, segments: int) -> sl.ProblemInstance:
    if case.model == "abelian":
        model = sl.AbelianGroup(len(case.x0))
    elif case.model == "hyperbolic":
        model = sl.HyperbolicPlane()
    else:
        brackets = {3: HEIS, 4: ENGEL, 5: FILIFORM}[len(case.x0)]
        layers = {3: (2, 1), 4: (2, 1, 1), 5: (2, 1, 1, 1)}[len(case.x0)]
        model = sl.CarnotGroup(sl.CarnotAlgebra.from_brackets(layers, brackets))
    form = case.nu[1]
    selector = [0.0, 1.0] if case.model == "hyperbolic" else [1.0, 0.0]
    return sl.ProblemInstance(model, sl.LorentzCone(form, selector),
                              sl.LorentzSqrt(form), np.array(case.x0),
                              np.array(case.x1), segments)


def _judge_report(case: Case):
    def judge(rep, pin):
        problems = []
        if rep.status.value == "solved" and rep.control is not None:
            u = rep.control.values
            h = rep.trajectory.horizon / len(u)
            length = h * sum(nu_value(case.nu, row) for row in u)
            problems = _path_problems(case, rep.trajectory.endpoint, length,
                                      rep.objective)
        return case.judge(rep.status.value, rep.objective, rep.endpoint_residual,
                          rep.iterations, pin, problems)
    return judge


def _solve_op(name: str, case: Case, segments: int, solver: dict,
              seeded: bool = False, timeform: Optional[tuple] = None) -> Op:
    prob = _instance(case, segments)
    opts = sl.SolveOptions(tol=TOL, **solver)
    if timeform is None:
        def run():
            return sl.solve_longest(prob, opts)
    else:
        form = (sl.HyperbolicAB(*timeform[1]) if timeform[0] == "hyperbolic_ab"
                else sl.LeftInvariantForm(timeform[1], prob.model))

        def run():
            return sl.solve_longest_reparametrized(prob, form, opts)
    inputs = {"case": case.__dict__, "segments": segments, "solver": solver,
              "timeform": timeform}
    return Op(name, "solve", seeded, inputs, run, _judge_report(case))


def _first_layer_in_cone(points: np.ndarray, slope: float) -> bool:
    """Every row's first two coordinates (t, s) satisfy |s| <= slope * t."""
    t, s = points[:, 0], points[:, 1]
    return bool(np.all(np.abs(s) <= slope * t + 1e-9 * (1.0 + np.abs(t))))


def _reach_op(name: str, brackets: dict, layers: tuple, samples: int,
              seed: int) -> Op:
    model = sl.CarnotGroup(sl.CarnotAlgebra.from_brackets(layers, brackets))
    cone = sl.LorentzCone(MINK, [1.0, 0.0])
    x0 = np.zeros(sum(layers))

    def run():
        return sl.reachability_sample(model, cone, x0, samples, seed=seed)

    def judge(points, pin):
        ok = (points.shape == (samples, sum(layers)) and np.all(np.isfinite(points))
              and _first_layer_in_cone(points, 1.0))
        return PASS if ok else Verdict(True, True, "reachable cloud leaves the cone")
    inputs = {"layers": layers, "samples": samples, "seed": seed}
    return Op(name, "sample", True, inputs, run, judge)


def _desk_op(name: str, case: Case, samples: int, seed: int) -> Op:
    prob = _instance(case, 50)
    form = sl.LeftInvariantForm([1.0, 0.0, 0.0], prob.model)

    def run():
        return sl.check_hyperbolicity_desk(prob, form, n_samples=samples, seed=seed)

    def judge(report, pin):
        return PASS if report.passed else Verdict(True, True, report.summary())
    inputs = {"case": case.__dict__, "samples": samples, "seed": seed}
    return Op(name, "sample", True, inputs, run, judge)


def _interior_controls(rng: np.random.Generator, n: int) -> np.ndarray:
    """n controls strictly inside the Minkowski cone |s| < t."""
    t = rng.uniform(0.6, 1.4, n)
    return np.column_stack([t, t * rng.uniform(-0.5, 0.5, n)])


def _hyperbolic(x1, expect="solved") -> Case:
    return Case("hyperbolic", (0.0, 1.0), tuple(x1), ("lorentz", HYP_FORM), expect)


def _carnot(x1) -> Case:
    return Case("carnot", (0.0,) * len(x1), tuple(float(v) for v in x1),
                ("lorentz", MINK))


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> np.ndarray:
    """The numeric rows of a CSV artifact (empty cells read as NaN)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) if c else np.nan for c in r] for r in rows])


def _cli_op(name: str, kind: str, sub: str, config: dict, work: str,
            case: Optional[Case] = None,
            cloud_check: Optional[Callable[[np.ndarray], bool]] = None) -> Op:
    """One ``sublorentz <sub> --config ... --out ...`` call, run in-process."""
    cfg_path = os.path.join(work, "configs", f"{name}.json")
    out_dir = os.path.join(work, "out", name)
    argv = [sub, "--config", cfg_path, "--out", out_dir]
    sl.config.load_config(cfg_path)  # validates; config building is set-up

    def run():
        # looked up at call time, so a traced pass sees the wrapped entry point
        return sl.cli.main(argv)

    def judge(code, pin):
        report_path = os.path.join(out_dir, "report.json")
        if not os.path.exists(report_path):
            return Verdict(True, True, f"exit {code} without a report")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(report_path)  # the next pass must write its own
        if case is not None:
            status = report["solver_status"]
            problems = []
            if (code == 0) != (status == "solved"):
                problems.append(f"exit code {code} with status {status}")
            if status == "solved":
                traj = _read_csv(os.path.join(out_dir, "trajectory.csv"))
                problems += _path_problems(case, traj[-1, 1:-1], traj[-1, -1],
                                           report["objective"])
            return case.judge(status, report["objective"],
                              report["endpoint_residual"], report["iterations"],
                              pin, problems)
        if code != 0 or report["status"] != "ok":
            return Verdict(True, True, f"exit {code}, status {report['status']}")
        if cloud_check is not None:
            cloud = _read_csv(os.path.join(out_dir, "cloud.csv"))
            if len(cloud) != config["samples"] or not np.all(np.isfinite(cloud)) \
                    or not cloud_check(cloud):
                return Verdict(True, True, "reachable cloud fails its analytic bound")
        return PASS
    return Op(name, kind, kind == "sample", {"argv": argv[:1], "config": config},
              run, judge)


def _cli_configs(seed: int) -> Dict[str, Tuple[str, str, dict]]:
    """name -> (kind, subcommand, config)."""
    heis_endpoints = {"x0": [0.0, 0.0, 0.0], "x1": [3.0, 0.5, 0.2]}
    lorentz3 = {"kind": "lorentz", "form": MINK3, "nappe_selector": [1.0, 0.0, 0.0]}
    poly3 = {"kind": "polyhedral", "generators": POLY3}
    heis = {"kind": "carnot", "builtin": "heisenberg"}
    sampled = {"seed": seed}
    return {
        "solve:minkowski11": ("solve", "solve", {
            "version": 1, "preset": "minkowski11", "solver": THREE_RESTARTS}),
        "solve:heisenberg-sl": ("solve", "solve", {
            "version": 1, "preset": "heisenberg-sl", "endpoints": heis_endpoints,
            "solver": THREE_RESTARTS}),
        "solve:minkowski-area-r2": ("solve", "solve", {
            "version": 1, "model": {"kind": "carnot", "builtin": "minkowski_area",
                                    "r": 2},
            "cone": lorentz3, "antinorm": {"kind": "lorentz_sqrt", "form": MINK3},
            "endpoints": {"x0": [0.0] * 5, "x1": [3.0, 0.5, -0.4, 0.2, 0.1]},
            "segments": 40, "solver": THREE_RESTARTS}),
        "solve:heisenberg-polyhedral": ("solve", "solve", {
            "version": 1, "model": heis,
            "cone": {"kind": "polyhedral", "generators": POLY2},
            "antinorm": {"kind": "min_of_linear", "family": MIN_FAMILY},
            "endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [2.0, 0.5, 0.1]},
            "solver": THREE_RESTARTS}),
        "reach:heisenberg-sl": ("sample", "reach", {
            "version": 1, "preset": "heisenberg-sl", "samples": 2000, **sampled}),
        "reach:hyperbolic": ("sample", "reach", {
            "version": 1, "preset": "hyperbolic", "samples": 2000, **sampled}),
        "reach:polyhedral3": ("sample", "reach", {
            "version": 1, "model": heis, "cone": poly3,
            "endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [1.0, 0.0, 0.0]},
            "samples": 1000, **sampled}),
        "check-structure:polyhedral3": ("sample", "check-structure", {
            "version": 1, "cone": poly3,
            "antinorm": {"kind": "min_of_linear", "family": MIN_FAMILY},
            "samples": 10000, **sampled}),
        "check-structure:lorentz3": ("sample", "check-structure", {
            "version": 1, "cone": lorentz3,
            "antinorm": {"kind": "lorentz_sqrt", "form": MINK3},
            "samples": 10000, **sampled}),
        "check-timeform:heisenberg-sl": ("sample", "check-timeform", {
            "version": 1, "preset": "heisenberg-sl", **sampled}),
        "check-timeform:hyperbolic": ("sample", "check-timeform", {
            "version": 1, "preset": "hyperbolic", **sampled}),
    }


CLI_CASES = {
    "solve:minkowski11": MINKOWSKI,
    "solve:heisenberg-sl": _carnot((3.0, 0.5, 0.2)),
    "solve:minkowski-area-r2": Case("carnot", (0.0,) * 5, (3.0, 0.5, -0.4, 0.2, 0.1),
                                    ("lorentz", MINK3)),
    "solve:heisenberg-polyhedral": Case("carnot", (0.0,) * 3, (2.0, 0.5, 0.1),
                                        ("min", MIN_FAMILY)),
}

CLOUD_CHECKS = {
    "reach:heisenberg-sl": lambda p: _first_layer_in_cone(p, 1.0),
    # from (0, 1) the preset cone reaches exactly |x| <= (y - 1) / 2
    "reach:hyperbolic": lambda p: bool(np.all(
        np.abs(p[:, 0]) <= (p[:, 1] - 1.0) / 2.0 + 1e-9 * (1.0 + p[:, 1]))),
    "reach:polyhedral3": lambda p: _first_layer_in_cone(p, 0.6),
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, work: str) -> dict:
    """Draw the workload's inputs from the seed (untimed input generation)."""
    rng = np.random.default_rng(seed % 2 ** 63)
    sub_seed = int(rng.integers(0, 2 ** 31))
    if workload == "cli-session":
        configs = _cli_configs(sub_seed)
        os.makedirs(os.path.join(work, "configs"), exist_ok=True)
        for name, (_, _, cfg) in configs.items():
            with open(os.path.join(work, "configs", f"{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(cfg, fh)
        return {"configs": configs}
    if workload == "endpoint-chain":
        controls = _interior_controls(rng, 4)
        return {"engel_controls": controls.tolist(),
                "engel_x1": chain_endpoint(ENGEL, 4, controls).tolist(),
                "sample_seed": sub_seed}
    if workload == "reparam":
        controls = _interior_controls(rng, 4)
        return {"heis_controls": controls.tolist(),
                "heis_x1": chain_endpoint(HEIS, 3, controls).tolist(),
                "sample_seed": sub_seed}
    raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")


def build(workload: str, raw: dict, work: str) -> List[Op]:
    """Construct the models, cones, antinorms and problem instances (set-up)."""
    if workload == "cli-session":
        return [_cli_op(name, kind, sub, cfg, work, CLI_CASES.get(name),
                        CLOUD_CHECKS.get(name))
                for name, (kind, sub, cfg) in raw["configs"].items()]
    if workload == "endpoint-chain":
        return [
            _solve_op("solve:hyperbolic-50", _hyperbolic((0.3, 2.0)), 50, DIRECT),
            _solve_op("solve:hyperbolic-200", _hyperbolic((0.3, 2.0)), 200, DIRECT),
            _solve_op("solve:hyperbolic-spacelike",
                      _hyperbolic((3.0, 2.0), "no_admissible_path"), 50, DIRECT),
            _solve_op("solve:engel-12", _carnot(raw["engel_x1"]), 12, DIRECT,
                      seeded=True),
            _solve_op("solve:filiform-12", _carnot(FILIFORM_X1), 12, DIRECT),
            _reach_op("reach:engel", ENGEL, (2, 1, 1), 1500, raw["sample_seed"]),
            _reach_op("reach:filiform", FILIFORM, (2, 1, 1, 1), 1500,
                      raw["sample_seed"] + 1),
        ]
    if workload == "reparam":
        heis = _carnot((3.0, 0.5, 0.2))
        return [
            _solve_op("solve:minkowski", MINKOWSKI, 50, THREE_RESTARTS,
                      timeform=("left_invariant", [1.0, 0.0])),
            _solve_op("solve:heisenberg", heis, 50, THREE_RESTARTS,
                      timeform=("left_invariant", [1.0, 0.0, 0.0])),
            _solve_op("solve:heisenberg-seeded", _carnot(raw["heis_x1"]), 16,
                      THREE_RESTARTS, seeded=True,
                      timeform=("left_invariant", [1.0, 0.0, 0.0])),
            _solve_op("solve:hyperbolic", _hyperbolic((0.3, 2.0)), 50, THREE_RESTARTS,
                      timeform=("hyperbolic_ab", [0.0, 1.0])),
            _desk_op("desk:heisenberg", heis, 2000, raw["sample_seed"]),
        ]
    raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
