"""Desk-scale invariant suite: every module's core identities, runnable as
one batch.  Each check is independent, seeded, and returns pass/fail with a
one-line detail; the pytest suite runs the same identities at full sample
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .cones import (
    LorentzCone,
    LorentzSqrt,
    MinOfLinear,
    PolyhedralCone,
    check_antinorm_axioms,
    find_time_covector,
)
from .dynamics import ControlSignal, integrate, integrate_rk4_step2, oriented_area
from .groups import (
    AbelianGroup,
    CarnotAlgebra,
    CarnotGroup,
    EuclideanMetric,
    HyperbolicPlane,
    bch_log_product,
    heisenberg_algebra,
    minkowski_area_algebra,
)
from .solver import (
    ProblemInstance,
    SolveOptions,
    SolveStatus,
    abelian_closed_form,
    abelianized_upper_bound,
    check_hyperbolicity_desk,
    reachability_sample,
    solve_longest,
)
from .timeform import (
    HyperbolicAB,
    LeftInvariantForm,
    exterior_derivative_fd,
    potential,
    section_sup_norm,
    tau_duration,
    UnitTimeSection,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


_MINK = [[1.0, 0.0], [0.0, -1.0]]


def _euclid_candidate():
    class _EuclideanNormCandidate:
        def values_on_cone(self, V):
            return np.linalg.norm(V, axis=1)

    return _EuclideanNormCandidate()


def _check_antinorm_axioms(seed: int) -> CheckResult:
    cone = LorentzCone(_MINK, [1, 0])
    good = check_antinorm_axioms(LorentzSqrt(_MINK), cone, 2000, seed)
    family = check_antinorm_axioms(MinOfLinear([[1, 1], [1, -1]]), cone, 2000, seed)
    bad = check_antinorm_axioms(_euclid_candidate(), cone, 500, seed)
    ok = good.passed and family.passed and not bad.passed
    return CheckResult("antinorm axioms (valid pass, euclidean rejected)", ok,
                       f"valid={good.passed} family={family.passed} "
                       f"euclidean_rejected={not bad.passed}")


def _check_homogeneity(seed: int) -> CheckResult:
    cone = LorentzCone(_MINK, [1, 0])
    nu = LorentzSqrt(_MINK)
    rng = np.random.default_rng(seed)
    v = cone.sample(1000, rng)
    lam = 10.0 ** rng.uniform(-1, 1, 1000)
    err = np.abs(nu.values_on_cone(lam[:, None] * v) - lam * nu.values_on_cone(v))
    worst = float((err / np.maximum(1.0, lam * nu.values_on_cone(v))).max())
    return CheckResult("antinorm positive homogeneity", worst <= 1e-9,
                       f"max relative error {worst:.2e}")


def _check_reverse_triangle(seed: int) -> CheckResult:
    cone = LorentzCone(_MINK, [1, 0])
    nu = LorentzSqrt(_MINK)
    rng = np.random.default_rng(seed)
    a, b = cone.sample(1000, rng), cone.sample(1000, rng)
    gap = nu.values_on_cone(a + b) - nu.values_on_cone(a) - nu.values_on_cone(b)
    worst = float(gap.min())
    return CheckResult("reverse triangle inequality", worst >= -1e-9,
                       f"min superadditivity gap {worst:.2e}")


def _check_membership_oracle(seed: int) -> CheckResult:
    cone = LorentzCone(_MINK, [1, 0])
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(1000, 2)) * 3.0
    mine = cone.contains(v)
    direct = (v[:, 0] ** 2 - v[:, 1] ** 2 >= -1e-9 * (v ** 2).sum(1)) & (v[:, 0] >= 0)
    agree = int((mine == direct).sum())
    return CheckResult("membership vs direct sign test", agree == len(v),
                       f"{agree}/{len(v)} agree")


def _check_covector_margins(seed: int) -> CheckResult:
    cones = [LorentzCone(_MINK, [1, 0]),
             PolyhedralCone([[1, 0], [1, 1]]),
             PolyhedralCone([[0.5, 1], [-0.5, 1]]),
             LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0, 1])]
    margins = [find_time_covector(c).margin for c in cones]
    ok = all(m > 1e-12 for m in margins)
    return CheckResult("time covector margins positive", ok,
                       "margins " + ", ".join(f"{m:.3g}" for m in margins))


def _test_algebras() -> list:
    fil = CarnotAlgebra.from_brackets(
        (2, 1, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0}})
    return [heisenberg_algebra(), minkowski_area_algebra(2), fil]


def _check_bch_associativity(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alg in _test_algebras():
        for _ in range(200):
            a, b, c = rng.normal(size=(3, alg.dim))
            lhs = bch_log_product(alg, bch_log_product(alg, a, b), c)
            rhs = bch_log_product(alg, a, bch_log_product(alg, b, c))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CheckResult("BCH associativity", worst <= 1e-10,
                       f"max deviation {worst:.2e}")


def _check_step2_half_bracket(seed: int) -> CheckResult:
    alg = heisenberg_algebra()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        a, b = rng.normal(size=(2, alg.dim))
        lhs = bch_log_product(alg, a, b) - (a + b)
        worst = max(worst, float(np.abs(lhs - 0.5 * alg.bracket(a, b)).max()))
    return CheckResult("step-2 product is a + b + [a,b]/2", worst <= 1e-14,
                       f"max deviation {worst:.2e}")


def _check_exp_step_flow(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    models = [AbelianGroup(3), HyperbolicPlane(), CarnotGroup(heisenberg_algebra())]
    worst = 0.0
    for model in models:
        for _ in range(50):
            u = rng.normal(size=model.point_dim)
            p = model.exp_step(model.identity(), rng.normal(size=model.point_dim), 1.0)
            h = float(rng.uniform(0.1, 0.7))
            twice = model.exp_step(model.exp_step(p, u, h), u, h)
            once = model.exp_step(p, u, 2 * h)
            worst = max(worst, float(np.abs(twice - once).max()))
    return CheckResult("exp_step one-parameter property", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def _check_first_layer_additivity(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alg in _test_algebras():
        m1 = alg.layer_dims[0]
        for _ in range(100):
            a, b = rng.normal(size=(2, alg.dim))
            z = bch_log_product(alg, a, b)
            worst = max(worst, float(np.abs(z[:m1] - a[:m1] - b[:m1]).max()))
    return CheckResult("first layer of BCH is additive", worst <= 1e-14,
                       f"max deviation {worst:.2e}")


def _check_closedness_dichotomy(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    worst_closed = 0.0
    worst_err = 0.0
    for _ in range(20):
        p = np.array([rng.uniform(-2, 2), rng.uniform(0.5, 3.0)])
        d_open = exterior_derivative_fd(HyperbolicAB(1, 0), p, [1, 0], [0, 1], 1e-3)
        worst_err = max(worst_err, abs(d_open - 1.0 / p[1] ** 2))
        d_closed = exterior_derivative_fd(HyperbolicAB(0, 1), p, [1, 0], [0, 1], 1e-3)
        worst_closed = max(worst_closed, abs(d_closed))
    ok = worst_err <= 1e-4 and worst_closed <= 1e-8
    return CheckResult("hyperbolic closedness dichotomy", ok,
                       f"a=1 err {worst_err:.2e}, a=0 |dtau| {worst_closed:.2e}")


def _check_fd_convergence(seed: int) -> CheckResult:
    p = np.array([0.3, 1.4])
    exact = 1.0 / p[1] ** 2
    errs = [abs(exterior_derivative_fd(HyperbolicAB(1, 0), p, [1, 0], [0, 1], h) - exact)
            for h in (1e-2, 5e-3, 2.5e-3)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.0 < r1 < 5.0 and 3.0 < r2 < 5.0
    return CheckResult("finite-difference O(h^2) convergence", ok,
                       f"error ratios {r1:.2f}, {r2:.2f} (expect 4)")


def _check_path_independence(seed: int) -> CheckResult:
    model = CarnotGroup(heisenberg_algebra())
    cone = LorentzCone(_MINK, [1, 0])
    form = LeftInvariantForm([1, 0, 0], model)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        u = ControlSignal(cone.sample(int(rng.integers(1, 9)), rng))
        traj = integrate(model, model.identity(), u)
        worst = max(worst, abs(tau_duration(traj, form) - potential(form, traj.endpoint)))
    return CheckResult("path independence of the tau integral", worst <= 1e-8,
                       f"max |integral - potential| {worst:.2e}")


def _check_section_sup(seed: int) -> CheckResult:
    model = AbelianGroup(2)
    form = LeftInvariantForm([1, 0], model)
    sup_l = section_sup_norm(UnitTimeSection(LorentzCone(_MINK, [1, 0]), form,
                                             np.zeros(2)), EuclideanMetric())
    sup_p = section_sup_norm(UnitTimeSection(PolyhedralCone([[1, 0], [1, 1]]), form,
                                             np.zeros(2)), EuclideanMetric())
    ok = abs(sup_l - np.sqrt(2)) <= 1e-9 and abs(sup_p - np.sqrt(2)) <= 1e-12
    return CheckResult("unit-time section sup norms", ok,
                       f"lorentz {sup_l:.6f}, polyhedral {sup_p:.6f} (expect sqrt 2)")


def _check_stokes(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in (1, 2):
        model = CarnotGroup(minkowski_area_algebra(r))
        cone = LorentzCone(np.diag([1.0] + [-1.0] * r), [1.0] + [0.0] * r)
        for _ in range(100):
            u = ControlSignal(cone.sample(int(rng.integers(1, 7)), rng))
            traj = integrate(model, model.identity(), u)
            for i in range(1, r + 1):
                worst = max(worst, abs(traj.endpoint[r + i] - oriented_area(traj, i)))
    return CheckResult("oriented-area identity", worst <= 1e-8,
                       f"max |y_i - area_i| {worst:.2e}")


def _check_velocity_inclusion(seed: int) -> CheckResult:
    model = CarnotGroup(heisenberg_algebra())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        u = ControlSignal(rng.normal(size=(n, 2)))
        traj = integrate(model, model.identity(), u)
        worst = max(worst, float(np.abs(
            traj.endpoint[:2] - u.values.mean(axis=0)).max()))
    return CheckResult("first-layer displacement equals control average",
                       worst <= 1e-12, f"max deviation {worst:.2e}")


def _check_rk4_crosscheck(seed: int) -> CheckResult:
    model = CarnotGroup(minkowski_area_algebra(2))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        u = ControlSignal(rng.normal(size=(int(rng.integers(1, 65)), 3)))
        exact = integrate(model, model.identity(), u).endpoint
        rk = integrate_rk4_step2(model, model.identity(), u)
        worst = max(worst, float(np.abs(exact - rk).max()))
    return CheckResult("exact steps vs RK4 on the printed system", worst <= 1e-8,
                       f"max endpoint deviation {worst:.2e}")


def _check_refinement(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for model in (AbelianGroup(2), CarnotGroup(heisenberg_algebra()),
                  HyperbolicPlane()):
        m = 2
        for _ in range(20):
            u = ControlSignal(rng.normal(size=(int(rng.integers(1, 9)), m)))
            a = integrate(model, model.identity(), u).endpoint
            b = integrate(model, model.identity(), u.split_segments()).endpoint
            worst = max(worst, float(np.abs(a - b).max()))
    return CheckResult("refinement leaves endpoints unchanged", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def _check_hyperbolic_certificate(seed: int) -> CheckResult:
    """Reachable points pass HyperbolicPlane.admits_path (100 per cone)."""
    model = HyperbolicPlane()
    x0 = np.array([0.7, 1.3])
    refused = 0
    for form, selector in (([[-4.0, 0.0], [0.0, 1.0]], [0, 1]), (_MINK, [1, 0]),
                           ([[-1.0, 0.5], [0.5, 2.0]], [0, 1])):
        cone = LorentzCone(form, selector)
        for x1 in reachability_sample(model, cone, x0, 100, seed=seed):
            refused += not model.admits_path(cone, x0, x1)
    return CheckResult("hyperbolic reachable points pass the certificate",
                       refused == 0, f"{refused}/300 refused")


def _light_opts() -> SolveOptions:
    return SolveOptions(restarts=2, max_iter=40, inner_iter=30)


def _check_abelian_oracle(seed: int) -> CheckResult:
    model = AbelianGroup(2)
    cone = LorentzCone(_MINK, [1, 0])
    nu = LorentzSqrt(_MINK)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        x1 = cone.sample(1, rng, relative_interior=True)[0] + np.array([1.0, 0.0])
        prob = ProblemInstance(model, cone, nu, np.zeros(2), x1, segments=50)
        rep = solve_longest(prob, _light_opts())
        oracle = abelian_closed_form(model, nu, cone, np.zeros(2), x1)
        worst = max(worst, abs(rep.objective - oracle) / max(abs(oracle), 1e-12))
    return CheckResult("abelian solves match the closed form", worst <= 1e-3,
                       f"max relative gap {worst:.2e}")


def _check_bound_dominance(seed: int) -> CheckResult:
    model = CarnotGroup(heisenberg_algebra())
    cone = LorentzCone(_MINK, [1, 0])
    nu = LorentzSqrt(_MINK)
    ends = reachability_sample(model, cone, model.identity(), 5, seed=seed)
    worst = -np.inf
    feasible = True
    for e in ends:
        prob = ProblemInstance(model, cone, nu, model.identity(), e, segments=30)
        rep = solve_longest(prob, _light_opts())
        feasible &= rep.status == SolveStatus.SOLVED
        worst = max(worst, rep.objective - abelianized_upper_bound(prob))
    return CheckResult("solver respects the first-layer bound",
                       feasible and worst <= 1e-9,
                       f"max objective - bound = {worst:.2e}, all solved {feasible}")


def _check_hyperbolicity(seed: int) -> CheckResult:
    model = AbelianGroup(2)
    cone = LorentzCone(_MINK, [1, 0])
    nu = LorentzSqrt(_MINK)
    prob = ProblemInstance(model, cone, nu, np.zeros(2), [5.0, 3.0], segments=10)
    form = LeftInvariantForm([1, 0], model)
    rep = check_hyperbolicity_desk(prob, form, n_samples=100, seed=seed)
    radius_ok = abs(rep.radius - 5 * np.sqrt(2)) <= 0.01 * 5 * np.sqrt(2)
    return CheckResult("hyperbolicity desk evidence", rep.passed and radius_ok,
                       rep.summary())


ALL_CHECKS: List[Callable[[int], CheckResult]] = [
    _check_antinorm_axioms,
    _check_homogeneity,
    _check_reverse_triangle,
    _check_membership_oracle,
    _check_covector_margins,
    _check_bch_associativity,
    _check_step2_half_bracket,
    _check_exp_step_flow,
    _check_first_layer_additivity,
    _check_closedness_dichotomy,
    _check_fd_convergence,
    _check_path_independence,
    _check_section_sup,
    _check_stokes,
    _check_velocity_inclusion,
    _check_rk4_crosscheck,
    _check_refinement,
    _check_hyperbolic_certificate,
    _check_abelian_oracle,
    _check_bound_dominance,
    _check_hyperbolicity,
]


def run_all(seed: int = 0) -> List[CheckResult]:
    return [check(seed) for check in ALL_CHECKS]
