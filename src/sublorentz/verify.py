"""The invariant suite: every module's core identities, each written once.

Each ``_check_*`` is the only implementation of its identity and holds its
one bound.  It takes a seed or a ``numpy`` Generator (checks that sample
through a library call need an integer seed; deterministic checks ignore
it), plus its sizes, whose defaults are the desk-scale counts.  ``run_all``
runs all 22 at desk scale, which is what ``sublorentz verify`` reports; the
test suite calls the same checks at full sample counts.
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
    _nnls_rows,
    check_antinorm_axioms,
    find_time_covector,
)
from .dynamics import ControlSignal, integrate, integrate_rk4_step2, oriented_area
from .groups import (
    AbelianGroup,
    CarnotAlgebra,
    CarnotGroup,
    HyperbolicPlane,
    bch_log_product,
    heisenberg_algebra,
    minkowski_area_algebra,
)
from .solver import (
    ProblemInstance,
    SolveOptions,
    SolveStatus,
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
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


_MINK = [[1.0, 0.0], [0.0, -1.0]]
_MINK_CONE = LorentzCone(_MINK, [1, 0])
_LIGHT = SolveOptions(restarts=2, max_iter=40, inner_iter=30)


class EuclideanNormCandidate:
    """Deliberately invalid: norms are subadditive, antinorms superadditive."""

    def values_on_cone(self, V):
        return np.linalg.norm(V, axis=1)


def _check_antinorm_axioms(seed: int, samples: int = 2000, antinorms=None
                           ) -> CheckResult:
    """Each antinorm (the square root and a min-of-linear family by default)
    passes every axiom and is not identically zero; the Euclidean norm is
    rejected on 500 pairs of the same seed."""
    if antinorms is None:
        antinorms = [LorentzSqrt(_MINK), MinOfLinear([[1, 1], [1, -1]])]
    valid = [check_antinorm_axioms(nu, _MINK_CONE, samples, seed) for nu in antinorms]
    bad = check_antinorm_axioms(EuclideanNormCandidate(), _MINK_CONE, 500, seed)
    holds = [rep.passed and not rep.identically_zero for rep in valid]
    return CheckResult("antinorm axioms (valid pass, euclidean rejected)",
                       all(holds) and not bad.passed,
                       f"valid={holds} euclidean_rejected={not bad.passed}")


def _check_homogeneity(seed, samples: int = 1000) -> CheckResult:
    nu = LorentzSqrt(_MINK)
    rng = np.random.default_rng(seed)
    v = _MINK_CONE.sample(samples, rng)
    lam = 10.0 ** rng.uniform(-1, 1, samples)
    err = np.abs(nu.values_on_cone(lam[:, None] * v) - lam * nu.values_on_cone(v))
    worst = float((err / np.maximum(1.0, lam * nu.values_on_cone(v))).max())
    return CheckResult("antinorm positive homogeneity", worst <= 1e-9,
                       f"max relative error {worst:.2e}")


def _check_reverse_triangle(seed, samples: int = 1000) -> CheckResult:
    nu = LorentzSqrt(_MINK)
    rng = np.random.default_rng(seed)
    a, b = _MINK_CONE.sample(samples, rng), _MINK_CONE.sample(samples, rng)
    gap = nu.values_on_cone(a + b) - nu.values_on_cone(a) - nu.values_on_cone(b)
    worst = float(gap.min())
    return CheckResult("reverse triangle inequality", worst >= -1e-9,
                       f"min superadditivity gap {worst:.2e}")


def _check_membership_oracle(seed, samples: int = 1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(samples, 2)) * 3.0
    mine = _MINK_CONE.contains(v)
    direct = (v[:, 0] ** 2 - v[:, 1] ** 2 >= -1e-9 * (v ** 2).sum(1)) & (v[:, 0] >= 0)
    agree = int((mine == direct).sum())
    return CheckResult("membership vs direct sign test", agree == len(v),
                       f"{agree}/{len(v)} agree")


def _check_covector_margins(seed) -> CheckResult:
    """Four fixed pointed cones and one random 3-d polyhedral cone."""
    rng = np.random.default_rng(seed)
    cones = [_MINK_CONE,
             LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0, 1]),
             PolyhedralCone([[0.5, 1.0], [-0.5, 1.0]]),
             PolyhedralCone(rng.normal(size=(3, 3)) + np.array([4.0, 0, 0])),
             PolyhedralCone([[1, 0], [1, 1]])]
    margins = [find_time_covector(c).margin for c in cones]
    ok = all(m > 1e-12 for m in margins)
    return CheckResult("time covector margins positive", ok,
                       "margins " + ", ".join(f"{m:.3g}" for m in margins))


def _polyhedral_cases(rng: np.random.Generator) -> dict:
    """Random polyhedral cones with fewer, as many and more generators than
    their dimension, one with duplicate and parallel generators, one holding
    a line, and a narrow one of three generators 1e-3 from one axis."""
    g = rng.normal(size=(3, 3))
    q = np.linalg.qr(g.T)[0]
    return {"k<d": PolyhedralCone(rng.normal(size=(2, 4))),
            "k=d": PolyhedralCone(g),
            "k>d": PolyhedralCone(rng.normal(size=(7, 3)) + [2.0, 0.0, 0.0]),
            "duplicate": PolyhedralCone([g[0], g[1], g[0], 3.0 * g[1], g[2]]),
            "line": PolyhedralCone([g[0], -g[0], g[1], 0.5 * g[1]]),
            "narrow": PolyhedralCone(q[:, 0] + 1e-3 * np.array(
                [q[:, 1], q[:, 2], -q[:, 1] - q[:, 2]]))}


def _projection_rows(cone: PolyhedralCone, rng: np.random.Generator,
                     samples: int) -> np.ndarray:
    """Rows in the cone, on its faces (every generator, and sums of random
    subsets), in its polar cone, and anywhere, at magnitudes 0.1 to 10."""
    k = len(cone.generators)
    lam = rng.exponential(1.0, size=(2 * samples, k))
    lam[samples:] *= rng.random((samples, k)) < 0.5
    anywhere = rng.normal(size=(20 * samples, cone.dim))
    polar = anywhere[np.all(anywhere @ cone.generators.T <= 0.0, axis=1)][:samples]
    V = np.vstack([cone.generators, lam @ cone.generators, polar,
                   anywhere[:samples], np.zeros((1, cone.dim))])
    return V * 10.0 ** rng.uniform(-1.0, 1.0, size=(len(V), 1))


def _check_polyhedral_projection(seed, samples: int = 50) -> CheckResult:
    """Moreau's conditions for p = P_C v = x @ U on the cones of
    _polyhedral_cases (U the unit generators): x >= 0, v - p in the polar
    cone (U (v - p) <= 1e-12 |v|) and |<p, v - p>| <= 1e-12 |v|^2; and
    project_batch returns that p."""
    rng = np.random.default_rng(seed)
    worst, exact = 0.0, True
    for cone in _polyhedral_cases(rng).values():
        V = _projection_rows(cone, rng, samples)
        x = _nnls_rows(cone._unit, V)
        p = x @ cone._unit
        exact &= bool(np.all(x >= 0.0)) and np.array_equal(cone.project_batch(V), p)
        r = V - p
        nv = np.linalg.norm(V, axis=1)
        scale = np.where(nv > 0.0, nv, 1.0)
        worst = max(worst, float(((r @ cone._unit.T).max(axis=1) / scale).max()),
                    float((np.abs(np.einsum("ij,ij->i", p, r)) / scale ** 2).max()))
    return CheckResult("polyhedral projection meets Moreau's conditions",
                       exact and worst <= 1e-12,
                       f"max relative violation {worst:.2e}, x >= 0 and "
                       f"project_batch returns x @ U: {exact}")


def _test_algebras() -> list:
    fil = CarnotAlgebra.from_brackets(
        (2, 1, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0}})
    return [heisenberg_algebra(), minkowski_area_algebra(2), fil]


def _check_bch_associativity(seed, samples: int = 200, algebras=None
                             ) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alg in algebras or _test_algebras():
        for _ in range(samples):
            a, b, c = rng.normal(size=(3, alg.dim))
            lhs = bch_log_product(alg, bch_log_product(alg, a, b), c)
            rhs = bch_log_product(alg, a, bch_log_product(alg, b, c))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CheckResult("BCH associativity", worst <= 1e-10,
                       f"max deviation {worst:.2e}")


def _check_step2_half_bracket(seed, samples: int = 200, algebra=None
                              ) -> CheckResult:
    alg = algebra or heisenberg_algebra()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        a, b = rng.normal(size=(2, alg.dim))
        lhs = bch_log_product(alg, a, b) - (a + b)
        worst = max(worst, float(np.abs(lhs - 0.5 * alg.bracket(a, b)).max()))
    return CheckResult("step-2 product is a + b + [a,b]/2", worst <= 1e-14,
                       f"max deviation {worst:.2e}")


def _check_exp_step_flow(seed, samples: int = 50) -> CheckResult:
    """exp_step over h twice equals exp_step over 2h, from a random point
    exp(xi) of each model."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for model in (AbelianGroup(2), HyperbolicPlane(), CarnotGroup(heisenberg_algebra())):
        for _ in range(samples):
            u = rng.normal(size=model.point_dim)
            p = model.exp_step(model.identity(), rng.normal(size=model.point_dim), 1.0)
            h = float(rng.uniform(0.05, 0.8))
            twice = model.exp_step(model.exp_step(p, u, h), u, h)
            worst = max(worst, float(np.abs(twice - model.exp_step(p, u, 2 * h)).max()))
    return CheckResult("exp_step one-parameter property", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def _check_first_layer_additivity(seed, samples: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alg in _test_algebras():
        m1 = alg.layer_dims[0]
        for _ in range(samples):
            a, b = rng.normal(size=(2, alg.dim))
            z = bch_log_product(alg, a, b)
            worst = max(worst, float(np.abs(z[:m1] - a[:m1] - b[:m1]).max()))
    return CheckResult("first layer of BCH is additive", worst <= 1e-14,
                       f"max deviation {worst:.2e}")


def _check_closedness_dichotomy(seed, samples: int = 20) -> CheckResult:
    """At random points, d(a dx/y) matches a / y^2 and d(b dy/y) vanishes."""
    rng = np.random.default_rng(seed)
    worst_closed = 0.0
    worst_err = 0.0
    for _ in range(samples):
        p = np.array([rng.uniform(-2, 2), rng.uniform(0.5, 3.0)])
        d_open = exterior_derivative_fd(HyperbolicAB(1, 0), p, [1, 0], [0, 1], 1e-3)
        worst_err = max(worst_err, abs(d_open - 1.0 / p[1] ** 2))
        d_closed = exterior_derivative_fd(HyperbolicAB(0, 1), p, [1, 0], [0, 1], 1e-3)
        worst_closed = max(worst_closed, abs(d_closed))
    ok = worst_err <= 1e-4 and worst_closed <= 1e-8
    return CheckResult("hyperbolic closedness dichotomy", ok,
                       f"a=1 err {worst_err:.2e}, a=0 |dtau| {worst_closed:.2e}")


def _check_fd_convergence(seed, point=(0.3, 1.4), steps=(1e-2, 5e-3, 2.5e-3)
                          ) -> CheckResult:
    """Halving the stencil quarters the error of d(dx/y) at ``point``."""
    p = np.array(point)
    exact = 1.0 / p[1] ** 2
    errs = [abs(exterior_derivative_fd(HyperbolicAB(1, 0), p, [1, 0], [0, 1], h) - exact)
            for h in steps]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = abs(r1 - 4.0) <= 0.8 and abs(r2 - 4.0) <= 0.8
    return CheckResult("finite-difference O(h^2) convergence", ok,
                       f"error ratios {r1:.2f}, {r2:.2f} (expect 4)")


def _check_path_independence(seed, samples: int = 50) -> CheckResult:
    model = CarnotGroup(heisenberg_algebra())
    form = LeftInvariantForm([1, 0, 0], model)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        u = ControlSignal(_MINK_CONE.sample(int(rng.integers(1, 9)), rng))
        traj = integrate(model, model.identity(), u)
        worst = max(worst, abs(tau_duration(traj, form) - potential(form, traj.endpoint)))
    return CheckResult("path independence of the tau integral", worst <= 1e-8,
                       f"max |integral - potential| {worst:.2e}")


#: cone -> bound on |sup - sqrt 2|: sampled light rays, exact vertices
_SECTION_CONES = {"lorentz": (_MINK_CONE, 1e-9),
                  "polyhedral": (PolyhedralCone([[1, 0], [1, 1]]), 1e-14)}


def _check_section_sup(seed, cones=("lorentz", "polyhedral")) -> CheckResult:
    form = LeftInvariantForm([1, 0], AbelianGroup(2))
    sups = {kind: section_sup_norm(_SECTION_CONES[kind][0], form,
                                   form.model.natural_metric())
            for kind in cones}
    ok = all(abs(sup - np.sqrt(2)) <= _SECTION_CONES[kind][1]
             for kind, sup in sups.items())
    return CheckResult("unit-time section sup norms", ok,
                       ", ".join(f"{k} {s:.6f}" for k, s in sups.items())
                       + " (expect sqrt 2)")


def _check_stokes(seed, samples: int = 100, ranks=(1, 2)) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in ranks:
        model = CarnotGroup(minkowski_area_algebra(r))
        cone = LorentzCone(np.diag([1.0] + [-1.0] * r), [1.0] + [0.0] * r)
        for _ in range(samples):
            u = ControlSignal(cone.sample(int(rng.integers(1, 7)), rng))
            traj = integrate(model, model.identity(), u)
            for i in range(1, r + 1):
                worst = max(worst, abs(traj.endpoint[r + i] - oriented_area(traj, i)))
    return CheckResult("oriented-area identity", worst <= 1e-8,
                       f"max |y_i - area_i| {worst:.2e}")


def _check_velocity_inclusion(seed, samples: int = 100) -> CheckResult:
    model = CarnotGroup(heisenberg_algebra())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 9))
        u = ControlSignal(rng.normal(size=(n, 2)))
        traj = integrate(model, model.identity(), u)
        worst = max(worst, float(np.abs(
            traj.endpoint[:2] - u.values.mean(axis=0)).max()))
    return CheckResult("first-layer displacement equals control average",
                       worst <= 1e-12, f"max deviation {worst:.2e}")


def _check_rk4_crosscheck(seed, r: int = 2, segments=(1, 8, 64)) -> CheckResult:
    """Exact steps against RK4 on the step-2 system of minkowski_area(r), one
    random control per segment count."""
    model = CarnotGroup(minkowski_area_algebra(r))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in segments:
        u = ControlSignal(rng.normal(size=(n, r + 1)))
        exact = integrate(model, model.identity(), u).endpoint
        rk = integrate_rk4_step2(model, model.identity(), u)
        worst = max(worst, float(np.abs(exact - rk).max()))
    return CheckResult("exact steps vs RK4 on the printed system", worst <= 1e-8,
                       f"max endpoint deviation {worst:.2e}")


def _check_refinement(seed, samples: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for model in (AbelianGroup(2), CarnotGroup(heisenberg_algebra()),
                  HyperbolicPlane()):
        for _ in range(samples):
            u = ControlSignal(rng.normal(size=(int(rng.integers(1, 9)), 2)))
            a = integrate(model, model.identity(), u).endpoint
            b = integrate(model, model.identity(), u.split_segments()).endpoint
            worst = max(worst, float(np.abs(a - b).max()))
    return CheckResult("refinement leaves endpoints unchanged", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def _check_hyperbolic_certificate(seed: int, samples: int = 100) -> CheckResult:
    """Reachable points pass HyperbolicPlane.admits_path, for three cones."""
    model = HyperbolicPlane()
    x0 = np.array([0.7, 1.3])
    refused = []
    for form, selector in (([[-4.0, 0.0], [0.0, 1.0]], [0, 1]), (_MINK, [1, 0]),
                           ([[-1.0, 0.5], [0.5, 2.0]], [0, 1])):
        cone = LorentzCone(form, selector)
        refused += [x1 for x1 in reachability_sample(model, cone, x0, samples, seed=seed)
                    if not model.admits_path(cone, x0, x1)]
    return CheckResult("hyperbolic reachable points pass the certificate",
                       not refused, f"{len(refused)}/{3 * samples} refused"
                       + (f", first {refused[0].tolist()}" if refused else ""))


def _check_abelian_oracle(seed, samples: int = 3, opts: SolveOptions = _LIGHT
                          ) -> CheckResult:
    """Solves to interior endpoints of R^{1,1}, 50 segments, against the
    closed form."""
    model = AbelianGroup(2)
    cone = _MINK_CONE
    nu = LorentzSqrt(_MINK)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x1 = cone.sample(1, rng, relative_interior=True)[0] + np.array([0.5, 0.0])
        prob = ProblemInstance(model, cone, nu, np.zeros(2), x1, segments=50)
        rep = solve_longest(prob, opts)
        oracle = abelianized_upper_bound(prob)
        worst = max(worst, abs(rep.objective - oracle) / max(abs(oracle), 1e-12))
    return CheckResult("abelian solves match the closed form", worst <= 1e-3,
                       f"max relative gap {worst:.2e}")


def _check_bound_dominance(seed: int, samples: int = 5, opts: SolveOptions = _LIGHT
                           ) -> CheckResult:
    """Heisenberg solves to reachable endpoints, 30 segments: each is SOLVED
    and none exceeds the first-layer Jensen bound."""
    model = CarnotGroup(heisenberg_algebra())
    cone = _MINK_CONE
    nu = LorentzSqrt(_MINK)
    worst = -np.inf
    feasible = True
    for e in reachability_sample(model, cone, model.identity(), samples, seed=seed):
        prob = ProblemInstance(model, cone, nu, model.identity(), e, segments=30)
        rep = solve_longest(prob, opts)
        feasible &= rep.status == SolveStatus.SOLVED
        worst = max(worst, rep.objective - abelianized_upper_bound(prob))
    return CheckResult("solver respects the first-layer bound",
                       feasible and worst <= 1e-9,
                       f"max objective - bound = {worst:.2e}, all solved {feasible}")


def _check_hyperbolicity(seed: int, samples: int = 100) -> CheckResult:
    """Desk evidence on R^{1,1} toward (5, 3): no violation, the diamond radius
    5 sqrt 2, and no in-band path longer than it."""
    model = AbelianGroup(2)
    prob = ProblemInstance(model, _MINK_CONE, LorentzSqrt(_MINK), np.zeros(2),
                           [5.0, 3.0], segments=10)
    rep = check_hyperbolicity_desk(prob, LeftInvariantForm([1, 0], model),
                                   n_samples=samples, seed=seed)
    radius = 5 * np.sqrt(2)
    ok = (rep.passed and abs(rep.radius - radius) <= 1e-9 * radius
          and rep.max_inband_arclength <= rep.radius * (1 + 1e-9))
    return CheckResult("hyperbolicity desk evidence", ok, rep.summary())


ALL_CHECKS: List[Callable[[int], CheckResult]] = [
    _check_antinorm_axioms,
    _check_homogeneity,
    _check_reverse_triangle,
    _check_membership_oracle,
    _check_covector_margins,
    _check_polyhedral_projection,
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
    """Every check at its desk-scale sizes."""
    return [check(seed) for check in ALL_CHECKS]
