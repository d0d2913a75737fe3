"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity so a run of `pytest tests/test_acceptance.py -v -s`
reads as a checklist.
"""

import time

import numpy as np
import pytest

from sublorentz import (
    AbelianGroup,
    CarnotGroup,
    ControlSignal,
    LeftInvariantForm,
    LorentzCone,
    LorentzSqrt,
    NotPointedError,
    PolyhedralCone,
    ProblemInstance,
    SolveOptions,
    SolveStatus,
    UnboundedSectionError,
    abelianized_upper_bound,
    check_antinorm_axioms,
    check_hyperbolicity_desk,
    find_time_covector,
    heisenberg_algebra,
    reachability_sample,
    section_sup_norm,
    sl_length,
    solve_longest,
    solve_longest_reparametrized,
)
from sublorentz.verify import (
    EuclideanNormCandidate,
    _check_antinorm_axioms,
    _check_bound_dominance,
    _check_closedness_dichotomy,
    _check_fd_convergence,
    _check_hyperbolicity,
    _check_path_independence,
    _check_stokes,
    _is_path_of,
)

MINK = [[1.0, 0.0], [0.0, -1.0]]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def mink_setup():
    return AbelianGroup(2), LorentzCone(MINK, [1, 0]), LorentzSqrt(MINK)


@pytest.fixture(scope="module")
def heis_setup():
    return (CarnotGroup(heisenberg_algebra()), LorentzCone(MINK, [1, 0]),
            LorentzSqrt(MINK))


def test_criterion_1_minkowski_oracle(mink_setup):
    model, cone, nu = mink_setup
    prob = ProblemInstance(model, cone, nu, np.zeros(2), [5.0, 3.0], segments=50)
    t0 = time.time()
    rep = solve_longest(prob)
    elapsed = time.time() - t0
    oracle = abelianized_upper_bound(prob)
    rel = abs(rep.objective - oracle) / oracle
    # the answer is a path: in the cone, of length the objective, ending at x1
    path = rep.control is not None and _is_path_of(rep, cone, nu, prob.x1,
                                                   SolveOptions().tol)
    ok = rep.status == SolveStatus.SOLVED and rel <= 1e-3 and path and elapsed < 5.0

    # twin paradox: two-segment admissible detours never beat the straight line
    rng = np.random.default_rng(1)
    target = np.array([5.0, 3.0])
    worst = -np.inf
    found = 0
    while found < 500:
        mid = cone.sample(1, rng)[0]
        rest = target - mid
        if not cone.contains(rest):
            continue
        found += 1
        split = sl_length(nu, cone, ControlSignal([2 * mid, 2 * rest]))
        worst = max(worst, split - oracle)
    ok = ok and worst <= 1e-9
    report(1, ok, f"objective {rep.objective:.6f} vs oracle {oracle} "
                  f"(rel {rel:.2e}), a path {path}, {elapsed:.2f}s, "
                  f"max two-segment excess {worst:.2e}")


def test_criterion_2_antinorm_axiom_suite(mink_setup):
    _, cone, _ = mink_setup
    # the square root and the min-of-linear family, with no violation
    axioms = _check_antinorm_axioms(42, 10_000)
    rep_bad = check_antinorm_axioms(EuclideanNormCandidate(), cone,
                                    sample_count=10_000, seed=42)
    ce = rep_bad.counterexample
    concrete = (ce is not None and ce["axiom"] == "superadditivity"
                and np.linalg.norm(np.array(ce["xi"]) + np.array(ce["zeta"]))
                < np.linalg.norm(ce["xi"]) + np.linalg.norm(ce["zeta"]) - 1e-9)
    ok = axioms.passed and not rep_bad.passed and concrete
    report(2, ok, f"0 violations in 2x10^4 pairs; euclidean candidate rejected "
                  f"with pair {np.round(ce['xi'], 3).tolist()}, "
                  f"{np.round(ce['zeta'], 3).tolist()}")


def test_criterion_3_closedness_dichotomy():
    dichotomy = _check_closedness_dichotomy(np.random.default_rng(3), 20)
    # observed O(h^2): halving h quarters the error
    rate = _check_fd_convergence(None, (0.3, 0.9), (2e-2, 1e-2, 5e-3))
    report(3, dichotomy.passed and rate.passed,
           f"{dichotomy.detail}; refinement {rate.detail}")


def test_criterion_4_potential_identity():
    t0 = time.time()
    res = _check_path_independence(np.random.default_rng(4), 100)
    elapsed = time.time() - t0
    report(4, res.passed and elapsed < 2.0,
           f"{res.detail} over 100 controls in {elapsed:.2f}s")


@pytest.mark.parametrize("r", [1, 2])
def test_criterion_5_stokes_identity(r):
    res = _check_stokes(np.random.default_rng(5), 200, (r,))
    report(5, res.passed, f"r={r}: {res.detail} over 200 controls")


def test_criterion_6_jensen_bound_dominance(heis_setup):
    model, cone, nu = heis_setup
    opts = SolveOptions(restarts=2, max_iter=50, inner_iter=35)
    dominance = _check_bound_dominance(6, 50, opts)

    # first-layer-exponential endpoints attain the bound, and the constant
    # control certifies it before any iteration
    rng = np.random.default_rng(66)
    worst_rel = 0.0
    certified = True
    for v in cone.sample(10, rng, relative_interior=True):
        x1 = np.array([v[0], v[1], 0.0])
        prob = ProblemInstance(model, cone, nu, model.identity(), x1, segments=30)
        rep = solve_longest(prob, opts)
        bound = abelianized_upper_bound(prob)
        worst_rel = max(worst_rel, abs(rep.objective - bound) / bound)
        certified &= (rep.iterations, rep.endpoint_evaluations,
                      rep.jacobian_evaluations) == (0, 1, 0)
    report(6, dominance.passed and worst_rel <= 1e-3 and certified,
           f"{dominance.detail} over 50 endpoints; exp(g1) endpoints "
           f"within {worst_rel:.2e} of bound, answered at iteration 0 {certified}")


def test_criterion_7_section_compactness(mink_setup):
    _, mink_cone, _ = mink_setup
    plane = AbelianGroup(2)
    cones = {
        "minkowski": mink_cone,
        "hyperbolic": LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0, 1]),
        "polyhedral": PolyhedralCone([[1.0, 0.0], [1.0, 1.0]]),
        "wedge": PolyhedralCone([[0.5, 1.0], [-0.5, 1.0]]),
    }
    sups = {}
    for name, cone in cones.items():
        tc = find_time_covector(cone)
        form = LeftInvariantForm(tc.components, plane)
        sups[name] = section_sup_norm(cone, form)
    finite = all(np.isfinite(s) for s in sups.values())

    # polyhedral values against explicit vertex enumeration
    exact = True
    for name in ("polyhedral", "wedge"):
        cone = cones[name]
        tau = find_time_covector(cone).components
        vertices = [g / (tau @ g) for g in cone.generators]
        oracle = max(np.linalg.norm(v) for v in vertices)
        exact = exact and sups[name] == pytest.approx(oracle, abs=1e-14)

    unpointed = False
    try:
        find_time_covector(PolyhedralCone([[1, 0], [-1, 0], [0, 1]]))
    except NotPointedError:
        unpointed = True
    tangent = False
    try:
        section_sup_norm(cones["polyhedral"], LeftInvariantForm([0.0, 1.0], plane))
    except UnboundedSectionError:
        tangent = True
    ok = finite and exact and unpointed and tangent
    report(7, ok, f"sup norms {({k: round(v, 6) for k, v in sups.items()})}; "
                  f"unpointed -> NotPointed, tangent tau -> Unbounded")


def test_criterion_8_gradient_check(heis_setup):
    model, cone, _ = heis_setup
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        x0 = rng.normal(size=3) * 0.5
        x1 = x0 + np.array([rng.uniform(1, 3), rng.normal(), rng.normal() * 0.3])
        g = model.multiply(model.inverse(x0), x1)
        n_seg = int(rng.integers(4, 10))
        u = cone.sample(n_seg, rng, relative_interior=True)
        rho, J, _ = model.endpoint_map(g, u, 1.0)
        h = 1e-6
        for k in range(n_seg):
            for j in range(2):
                d = np.zeros_like(u)
                d[k, j] = h
                rp, _, _ = model.endpoint_map(g, u + d, 1.0)
                rm, _, _ = model.endpoint_map(g, u - d, 1.0)
                fd = (rp - rm) / (2 * h)
                scale = max(1.0, float(np.abs(fd).max()))
                worst = max(worst, float(np.abs(J[k][:, j] - fd).max()) / scale)
    ok = worst <= 1e-5
    report(8, ok, f"max relative gradient deviation {worst:.2e} "
                  f"over 20 instances")


def test_criterion_9_no_closed_paths_and_diamond(heis_setup):
    # R^{1,1}: no violation, and the diamond radius 5 sqrt 2
    diamond = _check_hyperbolicity(9, 5000)
    model_h, cone, nu = heis_setup
    prob_h = ProblemInstance(model_h, cone, nu, np.zeros(3), [3.0, 0.0, 0.0],
                             segments=10)
    rep_h = check_hyperbolicity_desk(prob_h, LeftInvariantForm([1, 0, 0], model_h),
                                     n_samples=5000, seed=9)
    report(9, diamond.passed and rep_h.passed,
           f"0 potential-monotonicity violations over 10^4 paths; {diamond.detail}")


def test_criterion_10_reparametrization_equivalence(mink_setup, heis_setup):
    model_m, cone, nu = mink_setup
    model_h, _, _ = heis_setup
    opts = SolveOptions(restarts=3, max_iter=60, inner_iter=40)
    rng = np.random.default_rng(10)
    worst = 0.0
    cases = []
    for _ in range(5):
        x1 = cone.sample(1, rng, relative_interior=True)[0] + np.array([0.5, 0])
        cases.append((model_m, LeftInvariantForm([1, 0], model_m),
                      np.zeros(2), x1, 50))
    for e in reachability_sample(model_h, cone, np.zeros(3), 5, seed=10,
                                 interior=True):
        cases.append((model_h, LeftInvariantForm([1, 0, 0], model_h),
                      np.zeros(3), e, 40))
    for model, form, x0, x1, n in cases:
        prob = ProblemInstance(model, cone, nu, x0, x1, segments=n)
        rt = solve_longest(prob, opts)
        rs = solve_longest_reparametrized(prob, form, opts)
        assert rt.status == SolveStatus.SOLVED
        assert rs.status == SolveStatus.SOLVED
        rel = abs(rs.objective - rt.objective) / max(abs(rt.objective), 1e-12)
        worst = max(worst, rel)
    ok = worst <= 1e-3
    report(10, ok, f"max relative objective gap {worst:.2e} over 10 instances")
