import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from sublorentz import (
    AbelianGroup,
    CarnotAlgebra,
    CarnotGroup,
    HyperbolicAB,
    HyperbolicPlane,
    InvalidPointError,
    LeftInvariantForm,
    LorentzCone,
    LorentzSqrt,
    MinOfLinear,
    NEG_INF,
    NegativeAntinormError,
    NotExactError,
    PolyhedralCone,
    ProblemInstance,
    SolveOptions,
    SolveStatus,
    WrongModelError,
    abelianized_upper_bound,
    admissibility_check,
    antinorm_eval,
    check_hyperbolicity_desk,
    heisenberg_algebra,
    minkowski_area_algebra,
    parse_structure_constants,
    potential,
    reachability_sample,
    solve_longest,
    solve_longest_reparametrized,
)
from sublorentz import ControlSignal, HyperbolicityReport, integrate, section_sup_norm
from sublorentz import solver
from sublorentz.solver import _unit_tau_retract
from sublorentz.timeform import _control_covector
from sublorentz.verify import (
    _admits,
    _check_abelian_oracle,
    _check_bound_dominance,
    _check_heisenberg_certificate,
    _check_hyperbolic_certificate,
    _check_hyperbolicity,
    _is_path_of,
    _tilted_lorentz_cones,
)

MINK = [[1.0, 0.0], [0.0, -1.0]]


def make_prob(model, cone, nu, x0, x1, n=40):
    return ProblemInstance(model, cone, nu, x0, x1, segments=n)


def _iterated(prob, opts, horizon=1.0, tau_c=None):
    """The report of the restarts alone: the solve as it runs where no
    certificate decides the problem."""
    runs = solver._run_restarts(
        prob, solver._starting_controls(prob, horizon, opts, tau_c), horizon, opts, tau_c)
    return solver._report_from_runs(prob, runs, horizon, opts)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def test_instance_requires_pointed_cone(plane, mink_nu):
    line = PolyhedralCone([[1, 0], [-1, 0], [0, 1]])
    with pytest.raises(ValueError, match="pointed"):
        make_prob(plane, line, mink_nu, np.zeros(2), [1.0, 0.0])


def test_instance_rejects_antinorm_negative_on_cone(plane, mink_cone):
    with pytest.raises(NegativeAntinormError, match="^antinorm"):
        make_prob(plane, mink_cone, MinOfLinear([[0.0, 1.0]]), [0, 0], [5, 3])
    # the check is scale-free: a tiny positive multiple is refused too
    with pytest.raises(NegativeAntinormError, match="^antinorm"):
        make_prob(plane, mink_cone, MinOfLinear([[0.0, 1e-13]]), [0, 0], [5, 3])
    # zero on the light cone is allowed
    make_prob(plane, mink_cone, MinOfLinear([[1.0, 1.0], [1.0, -1.0]]), [0, 0], [5, 3])


def test_instance_dim_checks(heis, mink_cone, mink_nu):
    with pytest.raises(ValueError):
        ProblemInstance(heis, LorentzCone(np.diag([1.0, -1, -1]), [1, 0, 0]),
                        mink_nu, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="segment"):
        ProblemInstance(heis, mink_cone, mink_nu, np.zeros(3),
                        [1.0, 0, 0], segments=0)


def test_instance_refuses_a_displacement_that_underflows_off_the_plane():
    # x0^-1 x1 = (0, 1e-400) rounds to y = 0, where the endpoint engine has
    # no residual: the solve raised InvalidPointError from the forced average
    with pytest.raises(ValueError, match=r"^x0\^-1 x1 = \[0.0, 0.0\] leaves the float"):
        make_prob(HyperbolicPlane(), LorentzCone(HYP_FORM, [0.0, -1.0]),
                  LorentzSqrt(HYP_FORM), [0.0, 1e200], [0.0, 1e-200])


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_minkowski_solve_matches_oracle(plane, mink_cone, mink_nu, light_opts):
    prob = make_prob(plane, mink_cone, mink_nu, np.zeros(2), [5.0, 3.0], n=50)
    rep = solve_longest(prob, light_opts)
    assert rep.status == SolveStatus.SOLVED
    assert rep.objective == pytest.approx(4.0, rel=1e-3)
    assert rep.endpoint_residual <= light_opts.tol
    assert admissibility_check(mink_cone, rep.control).ok
    assert rep.trajectory is not None
    assert np.allclose(rep.trajectory.endpoint, [5.0, 3.0], atol=1e-5)


def test_minkowski_spacelike_no_admissible_path(plane, mink_cone, mink_nu):
    rep = solve_longest(make_prob(plane, mink_cone, mink_nu,
                                  np.zeros(2), [5.0, 7.0]))
    assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH
    assert rep.objective == NEG_INF
    assert rep.control is None


@pytest.mark.parametrize("x1", [[1e-200, 5e-200], [-1e-200, 0.0]])
def test_tiny_spacelike_displacement_is_refused(plane, mink_cone, mink_nu, x1):
    # the zero-average shortcut measured |v| with np.linalg.norm, which
    # underflows to 0, and called these endpoints "solved" with objective 0
    rep = solve_longest(make_prob(plane, mink_cone, mink_nu, np.zeros(2), x1))
    assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH


@pytest.mark.parametrize("scale", [1e300, 1e307])
def test_huge_timelike_displacement_is_answered_by_its_constant_control(
        plane, mink_cone, mink_nu, scale):
    # the Lorentz projection's spacelike norm overflowed, so the constant
    # control projected to NaN and the solve raised
    x1 = scale * np.array([1.0, 0.3])
    rep = solve_longest(make_prob(plane, mink_cone, mink_nu, np.zeros(2), x1, n=4),
                        SolveOptions(restarts=1, max_iter=2, inner_iter=2))
    assert rep.status == SolveStatus.SOLVED and rep.iterations == 0
    assert rep.objective == pytest.approx(scale * np.sqrt(0.91), rel=1e-12)


def test_endpoint_whose_squared_norm_underflows_has_its_length(plane, mink_cone,
                                                               mink_nu):
    # nu of the constant control underflowed: "solved: objective 0"
    prob = make_prob(plane, mink_cone, mink_nu, np.zeros(2), [5e-200, 1e-200], n=4)
    rep = solve_longest(prob)
    assert rep.status == SolveStatus.SOLVED
    assert rep.objective == 4.898979485566356e-200


def test_a_start_that_overflows_fails_its_restart_not_the_solve(heis):
    # random starts toward (1e308, 0, 0) overflow to inf; their projection
    # raised ValueError out of the solve
    prob = make_prob(heis, PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]),
                     MinOfLinear([[1.0, 0.5], [1.0, -0.5]]), np.zeros(3),
                     [1e308, 0.0, 0.0], n=50)
    opts = SolveOptions(restarts=8, max_iter=2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert solve_longest(prob, opts).status == SolveStatus.MAX_ITERATIONS
        rep = solve_longest_reparametrized(prob, LeftInvariantForm([1.0, 0.0, 0.0], heis),
                                           opts)
    assert rep.status == SolveStatus.MAX_ITERATIONS


def test_controls_whose_sum_overflows_are_not_polished(plane, mink_cone, mink_nu):
    # the shift to the forced average was -inf, and the cone test raised
    prob = make_prob(plane, mink_cone, mink_nu, np.zeros(2), [1e308, 0.0], n=4)
    u = np.full((4, 2), [1e308, 0.0])
    # under the floating-point policy of the solve that calls it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        assert solver._polish_average(prob, u, 1.0) is u


def test_problem_holds_its_forced_average(plane, heis, mink_cone, mink_nu):
    # the first layer of log(x0^-1 x1) on Carnot groups; on the hyperbolic
    # plane log(x0^-1 x1) only when x0^-1 x1 - e spans an extreme ray
    prob = make_prob(heis, mink_cone, mink_nu, [1.0, 0.0, 0.5], [4.0, 1.0, 0.2])
    assert np.array_equal(prob.average, heis.forced_average(prob.g, mink_cone))
    assert np.array_equal(make_prob(plane, mink_cone, mink_nu, [1.0, 1.0],
                                    [4.0, 2.0]).average, [3.0, 1.0])
    hyp, form = HyperbolicPlane(), [[-4.0, 0.0], [0.0, 1.0]]
    cone, nu = LorentzCone(form, [0.0, 1.0]), LorentzSqrt(form)
    assert make_prob(hyp, cone, nu, [0.0, 1.0], [0.3, 2.0]).average is None
    assert np.array_equal(make_prob(hyp, cone, nu, [0.0, 1.0], [0.5, 2.0]).average,
                          hyp.log([0.5, 2.0]))


@pytest.mark.parametrize("case", ["heisenberg", "hyperbolic"])
def test_far_endpoints_solve_without_warnings(heis, case):
    # the step-2 chain at the end of a restart and the hyperbolic forced
    # average warned outside the solver's local np.errstate blocks
    if case == "heisenberg":
        prob = make_prob(heis, PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]),
                         MinOfLinear([[1.0, 0.5], [1.0, -0.5]]), [-1e308, 0.0, 0.0],
                         [2.0, 0.5, 0.1], n=4)
        form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    else:
        cone = [[-4.0, 0.0], [0.0, 1.0]]
        prob = make_prob(HyperbolicPlane(), LorentzCone(cone, [0.0, 1.0]),
                         LorentzSqrt(cone), [0.0, 1e-300], [0.3, 2.0], n=4)
        form = HyperbolicAB(0.0, 1.0)
    opts = SolveOptions(restarts=1, max_iter=2, inner_iter=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_longest(prob, opts).status == SolveStatus.MAX_ITERATIONS
        assert solve_longest_reparametrized(prob, form, opts).status == \
            SolveStatus.MAX_ITERATIONS


def _caller_state_case(name):
    heis = CarnotGroup(heisenberg_algebra())
    mink = (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK))
    short = SolveOptions(restarts=1, max_iter=2, inner_iter=2)
    if name == "tiny-reachable":
        return make_prob(heis, *mink, np.zeros(3), [1e-160, 0.0, 0.0], n=20), None, None
    if name == "tiny-refused":
        return make_prob(heis, *mink, np.zeros(3), [1e-200, 1e-201, 1e-300], n=20), None, None
    if name == "hyperbolic-preset":
        return _hyperbolic_prob([0.3, 2.0], n=50), None, None
    if name == "hyperbolic-far":
        return _hyperbolic_prob([0.3, 2.0], n=4, x0=(0.0, 1e-300)), None, short
    prob = make_prob(heis, *mink, np.zeros(3), [3.0, 0.5, 0.2], n=16)
    return prob, LeftInvariantForm([1.0, 0.0, 0.0], heis), SolveOptions(
        restarts=3, max_iter=60, inner_iter=40)


@pytest.mark.parametrize("case", ["tiny-reachable", "tiny-refused", "hyperbolic-preset",
                                  "hyperbolic-far", "unit-tau"])
def test_a_solve_does_not_read_the_callers_numpy_state(case):
    # the tiny endpoints' products underflow: under="raise" made the
    # Heisenberg certificate raise FloatingPointError
    prob, form, opts = _caller_state_case(case)
    reports = []
    for state in ({}, {"under": "raise"}, {"all": "raise"}):
        with np.errstate(**state):
            reports.append(solve_longest(prob, opts) if form is None
                           else solve_longest_reparametrized(prob, form, opts))
    assert _same_report(reports[0], reports[1]) and _same_report(reports[0], reports[2])


def test_heisenberg_first_layer_target_attains_bound(heis, mink_cone, mink_nu,
                                                     light_opts):
    prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), [3.0, 0.0, 0.0], n=50)
    rep = solve_longest(prob, light_opts)
    assert rep.status == SolveStatus.SOLVED
    assert rep.objective == pytest.approx(3.0, rel=1e-3)
    assert abelianized_upper_bound(prob) == pytest.approx(3.0)


def test_heisenberg_spacelike_first_layer(heis, mink_cone, mink_nu):
    rep = solve_longest(make_prob(heis, mink_cone, mink_nu,
                                  np.zeros(3), [1.0, 2.0, 0.1]))
    assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH


def test_solved_reports_are_feasible(heis, mink_cone, mink_nu, light_opts):
    ends = reachability_sample(heis, mink_cone, np.zeros(3), 5, seed=11,
                               interior=True)
    for e in ends:
        prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), e)
        rep = solve_longest(prob, light_opts)
        assert rep.status == SolveStatus.SOLVED
        assert rep.endpoint_residual <= light_opts.tol
        assert admissibility_check(mink_cone, rep.control).ok
        # jensen dominance against the first-layer bound
        assert rep.objective <= abelianized_upper_bound(prob) + 1e-9


def test_bound_dominance_holds_even_unsolved(heis, mink_cone, mink_nu):
    # boundary-hugging endpoints may not converge under a tiny budget, but
    # the first-layer polish keeps the Jensen bound valid for every report
    ends = reachability_sample(heis, mink_cone, np.zeros(3), 6, seed=11)
    tiny = SolveOptions(restarts=1, max_iter=8, inner_iter=15)
    for e in ends:
        prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), e)
        rep = solve_longest(prob, tiny)
        assert rep.objective <= abelianized_upper_bound(prob) + 1e-9


def test_best_so_far_history_monotone(heis, mink_cone, mink_nu, light_opts):
    ends = reachability_sample(heis, mink_cone, np.zeros(3), 3, seed=2)
    for e in ends:
        rep = solve_longest(make_prob(heis, mink_cone, mink_nu, np.zeros(3), e),
                            light_opts)
        best = np.maximum.accumulate(rep.history)
        assert np.all(np.diff(best) >= -1e-12)


def test_hyperbolic_solve(light_opts):
    hyp = HyperbolicPlane()
    cone = LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    nu = LorentzSqrt([[-4.0, 0.0], [0.0, 1.0]])
    prob = make_prob(hyp, cone, nu, [0.0, 1.0], [0.3, 2.0], n=40)
    rep = solve_longest(prob, light_opts)
    assert rep.status == SolveStatus.SOLVED
    # constant-control lower bound: log(x1) = (alpha, beta) is admissible
    alpha, beta = hyp.log([0.3, 2.0])
    assert rep.objective >= np.sqrt(beta ** 2 - 4 * alpha ** 2) - 1e-6


def test_hyperbolic_spacelike_no_admissible_path(light_opts):
    hyp = HyperbolicPlane()
    cone = LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    nu = LorentzSqrt([[-4.0, 0.0], [0.0, 1.0]])
    prob = make_prob(hyp, cone, nu, [0.0, 1.0], [3.0, 2.0])
    for rep in (solve_longest(prob, light_opts),
                solve_longest_reparametrized(prob, HyperbolicAB(0.0, 1.0),
                                             light_opts)):
        assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH
        assert rep.iterations == 0 and rep.objective == NEG_INF


def test_hyperbolic_certificate_admits_reachable_points():
    res = _check_hyperbolic_certificate(0, 1000)
    assert res.passed, res.detail


# ---------------------------------------------------------------------------
# oracles and bounds
# ---------------------------------------------------------------------------


def _abelian_closed_form(plane, cone, nu, x0, x1):
    """nu(x1 - x0): on R^n the first-layer bound is the exact distance."""
    return abelianized_upper_bound(make_prob(plane, cone, nu, x0, x1))


def test_abelian_closed_form_examples(plane, mink_cone, mink_nu):
    assert _abelian_closed_form(plane, mink_cone, mink_nu,
                                np.zeros(2), [5.0, 3.0]) == pytest.approx(4.0)
    assert _abelian_closed_form(plane, mink_cone, mink_nu,
                                np.zeros(2), [1.0, 1.0]) == pytest.approx(0.0)
    assert _abelian_closed_form(plane, mink_cone, mink_nu,
                                np.zeros(2), [1.0, 2.0]) == NEG_INF
    # (-x0) + x1 is x1 - x0 bit for bit
    x0, x1 = np.array([0.1, 0.7]), np.array([5.3, 2.9])
    assert _abelian_closed_form(plane, mink_cone, mink_nu, x0, x1) \
        == mink_nu.values_on_cone(x1 - x0)


def test_first_layer_bound_rejects_the_hyperbolic_plane():
    hyp_form = [[-4.0, 0.0], [0.0, 1.0]]
    prob = make_prob(HyperbolicPlane(), LorentzCone(hyp_form, [0.0, 1.0]),
                     LorentzSqrt(hyp_form), [0.0, 1.0], [0.3, 2.0])
    with pytest.raises(WrongModelError, match="forces no control average"):
        abelianized_upper_bound(prob)


def test_closed_form_dominates_two_segment_paths(plane, mink_cone, mink_nu, rng):
    # brute force: no split path beats the straight one
    target = np.array([5.0, 3.0])
    oracle = _abelian_closed_form(plane, mink_cone, mink_nu, np.zeros(2), target)
    found = 0
    while found < 200:
        mid = mink_cone.sample(1, rng)[0]
        rest = target - mid
        if not mink_cone.contains(rest):
            continue
        found += 1
        split = mink_nu.values_on_cone(mid) + mink_nu.values_on_cone(rest)
        assert split <= oracle + 1e-9


def test_abelianized_upper_bound_examples(heis, mink_cone, mink_nu):
    for c in (0.0, 7.0):
        prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), [5.0, 3.0, c])
        assert abelianized_upper_bound(prob) == pytest.approx(4.0)
    spacelike = make_prob(heis, mink_cone, mink_nu, np.zeros(3), [1.0, 2.0, 0.0])
    assert abelianized_upper_bound(spacelike) == NEG_INF


def test_oracle_agreement_random_endpoints(light_opts, rng):
    res = _check_abelian_oracle(rng, 20, light_opts)
    assert res.passed, res.detail


# ---------------------------------------------------------------------------
# first-layer certificates
# ---------------------------------------------------------------------------


MINK3 = np.diag([1.0, -1.0, -1.0])


def _exp_endpoint_case(name):
    """A problem whose endpoint is x0 exp(v) for v inside the cone, with an
    exact time form."""
    heis = CarnotGroup(heisenberg_algebra())
    mink = (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK))
    mink3 = (LorentzCone(MINK3, [1.0, 0.0, 0.0]), LorentzSqrt(MINK3))
    if name == "abelian-2":
        model, (cone, nu), x0, v = AbelianGroup(2), mink, [0.1, 0.7], [5.0, 3.0]
    elif name == "abelian-3":
        model, (cone, nu), x0, v = AbelianGroup(3), mink3, [1.0, 0.0, -2.0], [3.0, 1.0, -0.5]
    elif name == "heisenberg":
        model, (cone, nu), x0, v = heis, mink, [0.5, -0.2, 0.3], [3.0, 0.5, 0.0]
    elif name == "heisenberg-polyhedral":
        model, x0, v = heis, np.zeros(3), [2.0, 0.5, 0.0]
        cone, nu = PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]), MinOfLinear([[1.0, 0.5],
                                                                           [1.0, -0.5]])
    elif name == "engel":
        model, (cone, nu), x0, v = CarnotGroup(ENGEL), mink, np.zeros(4), [2.0, 0.5, 0.0, 0.0]
    elif name == "filiform":
        model, (cone, nu), x0 = CarnotGroup(FILIFORM), mink, np.zeros(5)
        v = [2.0, 0.5, 0.0, 0.0, 0.0]
    else:
        model, (cone, nu) = CarnotGroup(minkowski_area_algebra(2)), mink3
        x0, v = [0.2, 0.0, 0.1, -0.3, 0.4], [3.0, 0.5, -0.4, 0.0, 0.0]
    tau0 = np.eye(model.point_dim)[0]
    return (make_prob(model, cone, nu, x0, model.multiply(x0, v), n=30),
            LeftInvariantForm(tau0, model))


@pytest.mark.parametrize("name", ["abelian-2", "abelian-3", "heisenberg",
                                  "heisenberg-polyhedral", "engel", "filiform",
                                  "minkowski-area"])
def test_constant_control_certifies_the_first_layer_bound(name):
    prob, form = _exp_endpoint_case(name)
    bound = abelianized_upper_bound(prob)
    opts = SolveOptions()
    for rep in (solve_longest(prob, opts), solve_longest_reparametrized(prob, form, opts)):
        assert rep.status == SolveStatus.SOLVED
        assert (rep.iterations, rep.endpoint_evaluations, rep.jacobian_evaluations) == \
            (0, 1, 0)
        assert rep.history == [] and rep.objective == bound > 0.0
        assert rep.endpoint_residual <= opts.tol
        u = rep.control.values
        assert np.array_equal(u, np.broadcast_to(u[0], u.shape))
        assert np.linalg.norm(rep.trajectory.endpoint - prob.x1) <= opts.tol
    # on the unit-tau slice, over the horizon tau(v)
    tau_c = _control_covector(prob.model, form)
    assert u[0] @ tau_c == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("cone, nu, x1", [
    (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK), [1.0, 1.0, 0.1]),
    (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK), [2.0, -2.0, -0.3]),
    (PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]), MinOfLinear([[1.0, 0.5], [1.0, -0.5]]),
     [1.0, 1.0, 0.1]),
    (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK), [0.0, 0.0, 0.5]),
    # minkowski_area(2), whose 3-d cone has a circle of light rays
    (LorentzCone(MINK3, [1.0, 0.0, 0.0]), LorentzSqrt(MINK3), [1.0, 0.6, 0.8, 0.1, 0.0]),
], ids=["light-ray", "other-light-ray", "polyhedral-generator", "apex", "light-ray-3d"])
def test_average_on_an_extreme_ray_with_area_is_refused_at_once(cone, nu, x1):
    model = CarnotGroup(heisenberg_algebra() if len(x1) == 3 else minkowski_area_algebra(2))
    prob = make_prob(model, cone, nu, np.zeros(len(x1)), x1, n=30)
    form = LeftInvariantForm(np.eye(len(x1))[0], model)
    for rep in (solve_longest(prob), solve_longest_reparametrized(prob, form)):
        assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH
        assert rep.iterations == 0 and rep.objective == NEG_INF
        assert rep.endpoint_evaluations <= 1 and rep.jacobian_evaluations == 0
    # on Heisenberg its reachable set refuses the endpoint before any
    # evaluation; on minkowski_area(2) the extreme-ray certificate does, and
    # its one evaluation is counted (the unit-tau solve refuses the apex
    # before it, since there tau(v) = 0).  The certificate decides every case.
    assert solve_longest(prob).endpoint_evaluations == (0 if len(x1) == 3 else 1)
    refusal = solver._certified(prob, 1.0, SolveOptions())
    assert refusal.status == SolveStatus.NO_ADMISSIBLE_PATH
    assert refusal.endpoint_evaluations == 1


def test_filiform_average_on_a_light_ray_is_refused_after_one_evaluation(mink_cone,
                                                                       mink_nu):
    # every control with the average (1, 1) runs along that light ray and
    # ends at exp((1, 1)), which has no area
    prob = make_prob(CarnotGroup(FILIFORM), mink_cone, mink_nu, np.zeros(5),
                     [1.0, 1.0, 0.5, 0.0, 0.0], n=12)
    rep = solve_longest(prob)
    assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH and rep.iterations == 0
    assert (rep.endpoint_evaluations, rep.jacobian_evaluations) == (1, 0)


def test_average_on_a_redundant_generator_is_not_refused(heis):
    # (1, 0) is a generator, but not an extreme one: controls along (1, 1)
    # and (1, -1) reach the area 0.1 (x^2 - y^2 = 1 >= 4|z|)
    prob = make_prob(heis, PolyhedralCone([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]]),
                     MinOfLinear([[1.0, 0.5], [1.0, -0.5]]), np.zeros(3),
                     [1.0, 0.0, 0.1], n=12)
    rep = solve_longest(prob, SolveOptions(restarts=1, max_iter=2, inner_iter=5))
    assert rep.status != SolveStatus.NO_ADMISSIBLE_PATH and rep.iterations > 0


def test_average_near_a_light_ray_far_out_is_not_refused(heis, mink_cone, mink_nu):
    # v = (1e4, 1e4 - 5e-9) lies within 1e-12 of a light ray relative to
    # |v|^2, yet x^2 - y^2 = 1e-4 >= 4|z| = 8e-5: the endpoint is reachable
    prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3),
                     [1e4, 1e4 - 5e-9, 2e-5], n=12)
    assert mink_cone.on_extreme_ray(heis.forced_average(prob.g, mink_cone))
    rep = solve_longest(prob, SolveOptions(restarts=1, max_iter=2, inner_iter=5))
    assert rep.status != SolveStatus.NO_ADMISSIBLE_PATH and rep.iterations > 0


@pytest.mark.parametrize("model", [AbelianGroup(2), CarnotGroup(heisenberg_algebra())],
                         ids=["abelian", "heisenberg"])
def test_average_just_outside_the_cone_is_answered_by_a_control_inside(model):
    # admits_path lets v = (1, 1 + 5e-10) leave the cone by 1e-9 relative;
    # the certificate's control is its projection, so it stays admissible
    cone, nu = PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]), MinOfLinear([[1.0, -1.0],
                                                                       [1.0, 1.0]])
    x1 = np.zeros(model.point_dim)
    x1[:2] = [1.0, 1.0 + 5e-10]
    prob = make_prob(model, cone, nu, np.zeros(model.point_dim), x1, n=8)
    rep = solve_longest(prob)
    assert rep.status == SolveStatus.SOLVED and rep.iterations == 0
    assert np.all(cone.contains(rep.control.values, 1e-15))
    assert rep.objective >= 0.0 and rep.endpoint_residual <= SolveOptions().tol


def test_abelian_average_just_outside_far_out_decides_nothing(mink_cone, mink_nu):
    # v = (1e4, 1e4 (1 + 5e-10)) passes admits_path, its projection misses
    # the endpoint by more than tol, and it spans no extreme ray: R^2 has no
    # reachable-set paths to try, so the certificates leave the solve alone
    prob = make_prob(AbelianGroup(2), mink_cone, mink_nu, np.zeros(2),
                     [1e4, 1e4 * (1.0 + 5e-10)], n=8)
    assert prob.model.admits_path(prob.cone, prob.x0, prob.x1, prob.g)
    assert solver._certified(prob, 1.0, SolveOptions()) is None
    assert solve_longest(prob, SolveOptions(restarts=1, max_iter=1, inner_iter=2)
                         ).iterations > 0


class _FailingPass(CarnotGroup):
    def endpoint_residual(self, g, u, horizon):
        raise FloatingPointError("non-finite point")


def test_a_certificate_whose_pass_raises_decides_nothing(mink_cone, mink_nu):
    prob = make_prob(_FailingPass(heisenberg_algebra()), mink_cone, mink_nu,
                     np.zeros(3), [1.0, 1.0, 0.1], n=8)
    assert solver._certified(prob, 1.0, SolveOptions()) is None


# ---------------------------------------------------------------------------
# the Heisenberg reachable set
# ---------------------------------------------------------------------------


#: a tilted sector of the plane, and an antinorm that vanishes on its edges
SECTOR = PolyhedralCone([[1.0, 0.0], [1.0, 1.0]])
SECTOR_NU = MinOfLinear([[0.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("cone", [LorentzCone(MINK, [1.0, 0.0]),
                                  PolyhedralCone([[1.0, 0.3], [0.4, 1.0], [1.0, 0.8]])],
                         ids=["minkowski", "tilted-polyhedral"])
def test_reachable_endpoints_pass_the_staircase_bound(heis, cone):
    x0 = np.array([0.5, -0.3, 0.7])
    cloud = reachability_sample(heis, cone, x0, 3000, seed=1)
    assert all(_admits(heis, cone, x0, x1) for x1 in cloud)


@pytest.mark.parametrize("cone", [LorentzCone(MINK, [1.0, 0.0]),
                                  PolyhedralCone([[1.0, 0.3], [0.4, 1.0]])],
                         ids=["minkowski", "tilted-polyhedral"])
def test_staircase_endpoints_far_out_are_not_refused(heis, cone):
    # |d| up to 1e4, from the identity and from a far x0: about half of the
    # staircases' own endpoints pass the computed bound by rounding, and
    # areas 1e-12 inside the bound are reachable too
    g1, g2 = heis.embed_control(cone.edge_rays)
    rng = np.random.default_rng(3)
    over = 0
    for x0 in (np.zeros(3), np.array([3e3, -1e3, 5e5])):
        for a, b in 10.0 ** rng.uniform(0.0, 4.0, (50, 2)):
            for x1 in (heis.multiply(heis.multiply(x0, a * g1), b * g2),
                       heis.multiply(heis.multiply(x0, b * g2), a * g1)):
                assert _admits(heis, cone, x0, x1)
                g = heis.multiply(heis.inverse(x0), x1)
                d, _, z, half, _ = heis.staircase(cone, x0, x1, g)
                over += abs(z) > half
                inside = heis.multiply(x0, [*d, np.sign(z) * half * (1.0 - 1e-12)])
                assert _admits(heis, cone, x0, inside)
    assert over > 0


@pytest.mark.parametrize("x1", [[1.0, 0.0, 0.3], [2.0, 1.0, 1.0], [2.0, 1.0, -1.0]])
def test_areas_beyond_the_staircases_are_refused_at_once(heis, mink_cone, mink_nu, x1):
    prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), x1, n=30)
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    for rep in (solve_longest(prob), solve_longest_reparametrized(prob, form)):
        assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH
        assert (rep.iterations, rep.endpoint_evaluations, rep.jacobian_evaluations) == \
            (0, 0, 0)


def _answered_at_once(rep, prob, tol=1e-6):
    return (rep.status == SolveStatus.SOLVED and rep.iterations == 0
            and (rep.endpoint_evaluations, rep.jacobian_evaluations) == (1, 0)
            and _is_path_of(rep, prob.cone, prob.nu, prob.x1, tol))


@pytest.mark.parametrize("cone, nu, x1, n", [
    (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK), [2.0, 1.0, 0.75], 30),
    (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK), [3.0, 0.0, 2.25], 30),
    (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK), [3.0, 0.0, -2.25], 2),
    # 2 (1, 0) then (1, 1), and the other order
    (SECTOR, SECTOR_NU, [3.0, 1.0, 1.0], 7),
    (SECTOR, SECTOR_NU, [3.0, 1.0, -1.0], 7),
], ids=["minkowski", "minkowski-x-axis", "minkowski-two-segments", "sector",
        "sector-reversed"])
def test_staircase_corners_are_answered_at_once(heis, cone, nu, x1, n):
    # the staircase is the only admissible path, and its length is 0
    prob = make_prob(heis, cone, nu, np.zeros(3), x1, n=n)
    rep = solve_longest(prob)
    assert _answered_at_once(rep, prob) and rep.objective == 0.0
    # its rows run along one edge ray, then the other
    assert len(np.unique(rep.control.values, axis=0)) == 2


@pytest.mark.parametrize("cone, nu, x1", [
    (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK), [2.0, 1.0, 0.75 - 5e-7]),
    (SECTOR, SECTOR_NU, [3.0, 1.0, 1.0 - 5e-7]),
], ids=["minkowski", "sector"])
def test_area_just_inside_the_edge_takes_no_staircase(heis, cone, nu, x1):
    # the staircase misses such an endpoint by less than tol, but longer
    # paths reach it (about 3 sqrt(5e-7) on the Minkowski cone), so it is
    # no answer; nor is the sector's three-piece path, whose staircases
    # bound |z| by 0.5 there
    prob = make_prob(heis, cone, nu, np.zeros(3), x1, n=30)
    assert solver._certified(prob, 1.0, SolveOptions()) is None
    assert solve_longest(prob, SolveOptions(restarts=1, max_iter=1, inner_iter=2)
                         ).iterations > 0


def test_polyhedral_jensen_bound_is_answered_by_three_pieces(heis):
    # the bench's heisenberg-polyhedral problem: nu = (1, -0.5) . v on the
    # sector between (1, 1) and (1, 0), whose staircases reach |z| <= 0.375
    prob = make_prob(heis, PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]),
                     MinOfLinear([[1.0, 0.5], [1.0, -0.5]]), np.zeros(3),
                     [2.0, 0.5, 0.1], n=50)
    rep = solve_longest(prob, SolveOptions(restarts=3, max_iter=60, inner_iter=40))
    assert _answered_at_once(rep, prob)
    assert rep.objective == pytest.approx(1.75, rel=0.0, abs=1e-12)
    assert rep.objective == pytest.approx(abelianized_upper_bound(prob), abs=1e-12)
    assert len(np.unique(rep.control.values, axis=0)) == 3
    # three pieces need three segments: two cannot hold them
    short = make_prob(heis, prob.cone, prob.nu, prob.x0, prob.x1, n=2)
    assert solve_longest(short, SolveOptions(restarts=1, max_iter=1, inner_iter=2)
                         ).iterations > 0


def _certificate_case(name):
    """(model, cone, nu, x1, segments) of a problem a certificate answers
    from the identity: the constant control to exp(v), the staircase corner
    exp(1.5 g1) exp(0.8 g2) along the cone's edge rays g1, g2, or the
    three-piece path."""
    heis = CarnotGroup(heisenberg_algebra())
    mink = (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK))
    if name == "heisenberg-constant":
        return heis, *mink, [3.0, 0.5, 0.0], 30
    if name == "area-constant":
        return (CarnotGroup(minkowski_area_algebra(2)), LorentzCone(MINK3, [1.0, 0.0, 0.0]),
                LorentzSqrt(MINK3), [3.0, 0.5, -0.4, 0.0, 0.0], 40)
    if name == "minkowski-corner":
        return heis, *mink, heis.multiply([1.5, 1.5, 0.0], [0.8, -0.8, 0.0]), 20
    if name == "sector-corner":
        return (heis, PolyhedralCone([[1.0, 0.3], [0.4, 1.0]]),
                MinOfLinear([[1.0, 0.0], [0.0, 1.0]]),
                heis.multiply([1.5, 0.45, 0.0], [0.32, 0.8, 0.0]), 20)
    return (heis, PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]),
            MinOfLinear([[1.0, 0.5], [1.0, -0.5]]), [2.0, 0.5, 0.1], 50)


CERTIFICATE_CASES = ["heisenberg-constant", "area-constant", "minkowski-corner",
                     "sector-corner", "three-pieces"]


def _certificate_answer(model, cone, nu, x0, x1, n):
    prob = make_prob(model, cone, nu, x0, x1, n=n)
    rep = solve_longest(prob)
    assert rep.status == SolveStatus.SOLVED and rep.iterations == 0
    return rep


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_a_dilation_scales_the_certified_answer(case):
    # delta_lambda multiplies the first layer by lambda and the second by
    # lambda^2, and every length by lambda: by a power of 2, to the bit
    model, cone, nu, x1, n = _certificate_case(case)
    x0 = np.zeros(model.point_dim)
    base = _certificate_answer(model, cone, nu, x0, x1, n)
    second = np.arange(model.point_dim) >= model.control_dim
    for lam in (0.5, 2.0, 4.0):
        rep = _certificate_answer(model, cone, nu, x0, np.where(second, lam ** 2, lam) * x1, n)
        assert rep.objective == lam * base.objective


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_a_left_translation_keeps_the_certified_answer(case):
    # (k x0)^-1 (k x1) is x1 up to rounding
    model, cone, nu, x1, n = _certificate_case(case)
    base = _certificate_answer(model, cone, nu, np.zeros(model.point_dim), x1, n)
    for k in np.random.default_rng(5).uniform(-3.0, 3.0, (3, model.point_dim)):
        rep = _certificate_answer(model, cone, nu, k, model.multiply(k, x1), n)
        assert rep.objective == pytest.approx(base.objective, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("case", ["heisenberg-constant", "minkowski-corner"])
def test_the_reflection_keeps_the_certified_answer(case):
    # (x, y, z) -> (x, -y, -z) maps the Minkowski cone and its antinorm to
    # themselves, and Heisenberg to itself
    model, cone, nu, x1, n = _certificate_case(case)
    x0 = np.zeros(3)
    base = _certificate_answer(model, cone, nu, x0, x1, n)
    rep = _certificate_answer(model, cone, nu, x0, np.array([1.0, -1.0, -1.0]) * x1, n)
    assert rep.objective == pytest.approx(base.objective, rel=1e-12, abs=1e-14)


def test_unit_tau_solve_takes_no_staircase(heis, mink_cone, mink_nu):
    # equal unit-tau segments cannot in general split along two rays
    prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), [2.0, 1.0, 0.75], n=4)
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    rep = solve_longest_reparametrized(prob, form, SolveOptions(restarts=1, max_iter=1,
                                                                inner_iter=2))
    assert rep.iterations > 0


@pytest.mark.parametrize("case", ["hyperbolic", "engel", "filiform"])
def test_only_the_heisenberg_group_offers_reachable_set_paths(case):
    # the cone and antinorm whose three-piece path answers a Heisenberg
    # problem (above) get none on the other models
    model, g = _endpoint_case(case)
    cone = PolyhedralCone([[1.0, 1.0], [1.0, -1.0]])
    nu = MinOfLinear([[1.0, 0.5], [1.0, -0.5]])
    for c in (cone, LorentzCone(MINK, [1.0, 0.0])):
        assert model.reachable_set_paths(c, nu, model.identity(), g, g, 1.0, 50) == []


def test_hyperbolic_light_ray_endpoint_is_answered_at_once():
    prob = make_prob(HyperbolicPlane(), LorentzCone(HYP_FORM, [0.0, 1.0]),
                     LorentzSqrt(HYP_FORM), [0.0, 1.0], [0.5, 2.0], n=30)
    for rep in (solve_longest(prob),
                solve_longest_reparametrized(prob, HyperbolicAB(0.0, 1.0))):
        assert _answered_at_once(rep, prob) and rep.objective == 0.0
    # the average is forced only along an extreme ray, where the first-layer
    # bound is the answer
    assert prob.model.forced_average(np.array([0.3, 2.0]), prob.cone) is None
    assert abelianized_upper_bound(prob) == 0.0


def test_heisenberg_certificate_check_passes():
    res = _check_heisenberg_certificate(0, samples=200)
    assert res.passed, res.detail


# ---------------------------------------------------------------------------
# endpoint gradients
# ---------------------------------------------------------------------------


ENDPOINT_CASES = ["abelian", "heisenberg", "minkowski-area", "hyperbolic",
                  "hyperbolic-flat", "hyperbolic-mixed", "engel", "filiform",
                  "carnot-step1", "step3-multiterm"]


def _endpoint_case(case):
    """A model with the target g = x0^-1 x1 for the endpoint-map tests."""
    if case == "abelian":
        return AbelianGroup(2), np.array([5.0, 3.0])
    if case == "heisenberg":
        return CarnotGroup(heisenberg_algebra()), np.array([2.0, 0.5, 0.3])
    if case == "minkowski-area":
        # step 2 with a 3-dim first layer
        return (CarnotGroup(minkowski_area_algebra(2)),
                np.array([2.0, 0.5, -0.4, 0.3, 0.1]))
    if case == "engel":
        return (CarnotGroup(CarnotAlgebra.from_brackets(
            (2, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}})),
            np.array([2.0, 0.5, 0.3, 0.1]))
    if case == "filiform":
        return (CarnotGroup(CarnotAlgebra.from_brackets(
            (2, 1, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0}})),
            np.array([2.0, 0.5, 0.3, 0.1, 0.05]))
    if case == "carnot-step1":
        return CarnotGroup(parse_structure_constants("layers: 2\n")), np.array([2.0, 0.5])
    if case == "step3-multiterm":
        # several bracket terms per component, so the order of their sum shows
        return (CarnotGroup(CarnotAlgebra.from_brackets(
            (2, 1, 2), {(0, 1): {2: 0.3}, (0, 2): {3: 1.7, 4: -2.5}, (1, 2): {4: 0.9}})),
            np.array([2.0, 0.5, 0.3, 0.1, -0.2]))
    if case == "hyperbolic":
        return HyperbolicPlane(), np.array([0.3, 2.0])
    return HyperbolicPlane(), np.array([1.0, 1.0])


def _set_slopes(case, u):
    """Put the hyperbolic segments of controls u (..., N, 2) on the flow's
    branches: every one on its series branch (|h beta| < 1e-3) for
    ``hyperbolic-flat``, every other one for ``hyperbolic-mixed``, whose
    others have |beta| >= 0.5, far off it."""
    if case == "hyperbolic-flat":
        u[..., 1] *= 1e-6   # nearly horizontal segments: h beta ~ 1e-7
    elif case == "hyperbolic-mixed":
        u[..., ::2, 1] *= 1e-6
        u[..., 1::2, 1] += np.copysign(0.5, u[..., 1::2, 1])


@pytest.mark.parametrize("case", ENDPOINT_CASES)
def test_endpoint_jacobian_matches_fd(case, rng):
    model, g = _endpoint_case(case)
    m = model.control_dim
    u = rng.normal(size=(7, m)) * 0.4
    u[:, 0] += 1.2
    _set_slopes(case, u)
    rho, J, _ = model.endpoint_map(g, u, 1.0)
    h = 1e-6
    for k in range(u.shape[0]):
        for j in range(m):
            d = np.zeros_like(u)
            d[k, j] = h
            rp, _, _ = model.endpoint_map(g, u + d, 1.0)
            rm, _, _ = model.endpoint_map(g, u - d, 1.0)
            fd = (rp - rm) / (2 * h)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(J[k][:, j] - fd).max() <= 1e-5 * scale


@pytest.mark.parametrize("case", ENDPOINT_CASES)
def test_endpoint_residual_matches_endpoint_map(case, rng):
    model, g = _endpoint_case(case)
    for n_seg in (1, 2, 9, 40):
        u = rng.normal(size=(n_seg, model.control_dim)) * 0.5
        u[:, 0] += 1.2
        _set_slopes(case, u)
        rho, endpoint = model.endpoint_residual(g, u, 1.3)
        rho_full, _, endpoint_full = model.endpoint_map(g, u, 1.3)
        assert np.array_equal(rho, rho_full)
        assert np.array_equal(endpoint, endpoint_full)


@pytest.mark.parametrize("case", ENDPOINT_CASES)
def test_endpoint_residual_takes_a_stack(case, rng):
    model, g = _endpoint_case(case)
    for n_seg in (1, 2, 9, 40):
        U = rng.normal(size=(5, n_seg, model.control_dim)) * 0.5
        U[..., 0] += 1.2
        _set_slopes(case, U)
        targets = [g]
        if isinstance(model, HyperbolicPlane):
            # the first control ends within 1e-10 of this target, so its
            # offset takes the series branch of log and the others do not
            near = model.endpoint_residual(g, U[0], 1.3)[1] + [3e-11, 2e-11]
            assert abs(model._offset(near - [3e-11, 2e-11], near)[1] - 1.0) < 1e-8
            targets.append(near)
        for target in targets:
            rho, endpoint, chain = model.endpoint_pass(target, U, 1.3)
            assert np.array_equal(model.endpoint_residual(target, U, 1.3)[0], rho)
            for i, u in enumerate(U):
                rho_i, J_i, endpoint_i = model.endpoint_map(target, u, 1.3)
                assert np.array_equal(rho[i], rho_i)
                assert np.array_equal(endpoint[i], endpoint_i)
                # the Jacobian stage fed from the stacked pass
                assert np.array_equal(
                    model.endpoint_jacobian(target, u, 1.3, chain[i]), J_i)


def test_stacked_residual_raises_what_its_bad_row_raises():
    # h beta = 800 overflows the flow's exponential in the third control
    model, g = HyperbolicPlane(), np.array([0.3, 2.0])
    U = np.array([[[1.0, 0.5], [0.2, 1.0]], [[0.0, 1.0], [0.1, 2.0]],
                  [[0.0, 1600.0], [200.0, 1600.0]], [[0.0, 1600.0], [0.0, -1.0]]])
    # h beta = 700 keeps each exponential finite, but y overflows to inf
    # while x stays 0: the offset is finite with y = 0
    flat_overflow = U.copy()
    flat_overflow[2] = [[0.0, 1400.0], [0.0, 1400.0]]
    # and here x overflows to inf while y stays e^2: only x is not finite
    x_overflow = U.copy()
    x_overflow[2] = [[1e308, 2.0], [1e308, 2.0]]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for stack, invalid_point in ((U, False), (flat_overflow, True),
                                     (x_overflow, False)):
            with pytest.raises(ValueError) as alone:
                model.endpoint_residual(g, stack[2], 1.0)
            with pytest.raises(ValueError) as stacked:
                model.endpoint_residual(g, stack, 1.0)
            assert isinstance(alone.value, InvalidPointError) == invalid_point
            assert type(stacked.value) is type(alone.value)
            assert str(stacked.value) == str(alone.value)
        rho, _ = model.endpoint_residual(g, U[:2], 1.0)
    assert np.all(np.isfinite(rho))


def test_endpoint_residual_rejects_overflow_like_endpoint_map():
    # h beta = 800 overflows the flow's exponential on both paths
    model, g = HyperbolicPlane(), np.array([0.3, 2.0])
    u = np.array([[0.0, 1600.0], [200.0, 1600.0]])   # h = 0.5

    def rejected(evaluate):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rho = evaluate(g, u, 1.0)[0]
        except ValueError:
            return True
        return not np.all(np.isfinite(rho))

    assert rejected(model.endpoint_residual)
    assert rejected(model.endpoint_map)


def test_line_search_keeps_its_iterates(mink_cone, mink_nu):
    # pinned outcomes of two small solves: a change to how trials are
    # evaluated must leave every accept/reject decision as it was.  The
    # extremal certificate answers the hyperbolic solve itself, so its
    # restarts run as the solve would run them without it
    opts = SolveOptions(restarts=1, max_iter=20, inner_iter=20)
    hyp_form = [[-4.0, 0.0], [0.0, 1.0]]
    hyp = make_prob(HyperbolicPlane(), LorentzCone(hyp_form, [0.0, 1.0]),
                    LorentzSqrt(hyp_form), [0.0, 1.0], [0.3, 2.0], n=50)
    engel = CarnotGroup(CarnotAlgebra.from_brackets(
        (2, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}}))
    eng = make_prob(engel, mink_cone, mink_nu, np.zeros(4),
                    [2.0, 0.5, 0.3, 0.1], n=12)
    for prob, solve, iterations, objective, counts in [
            (hyp, _iterated, 18, 0.5584005536812238, (1094, 233)),
            (eng, solve_longest, 20, 1.6299322281862527, (1117, 420))]:
        rep = solve(prob, opts)
        assert rep.status == SolveStatus.SOLVED
        assert rep.iterations == iterations
        assert rep.objective == pytest.approx(objective, rel=1e-12, abs=0.0)
        # the counts follow the search's trials in order, however batched
        assert (rep.endpoint_evaluations, rep.jacobian_evaluations) == counts


def test_polyhedral_solve_keeps_its_iterates(heis):
    # the pinned restarts on the bench's heisenberg-polyhedral problem: a
    # change to how a polyhedral projection is computed must leave every
    # projection, and so every iterate, as it was.  The reachable-set
    # certificate answers the solve itself, so the restarts run as the solve
    # would run them without it
    prob = make_prob(heis, PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]),
                     MinOfLinear([[1.0, 0.5], [1.0, -0.5]]), np.zeros(3),
                     [2.0, 0.5, 0.1], n=50)
    rep = _iterated(prob, SolveOptions(restarts=3, max_iter=60, inner_iter=40))
    assert rep.status == SolveStatus.SOLVED
    assert rep.iterations == 4
    assert rep.objective == pytest.approx(1.7500000000000002, rel=1e-12, abs=0.0)
    assert (rep.endpoint_evaluations, rep.jacobian_evaluations) == (1239, 432)
    assert rep.endpoint_residual == pytest.approx(8.585387817349533e-10, rel=1e-9)


def test_heisenberg_solve_keeps_its_iterates(heis, mink_cone, mink_nu):
    # the pinned outcome of the bench's heisenberg-sl solve: its three
    # restarts run in lockstep and must take the steps each takes alone
    prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), [3.0, 0.5, 0.2], n=50)
    rep = solve_longest(prob, SolveOptions(restarts=3, max_iter=60, inner_iter=40))
    assert rep.status == SolveStatus.SOLVED
    assert rep.iterations == 17
    assert rep.objective == pytest.approx(2.948732626365034, rel=1e-12, abs=0.0)
    assert (rep.endpoint_evaluations, rep.jacobian_evaluations) == (4386, 980)
    assert rep.endpoint_residual == pytest.approx(3.868605297219219e-09, rel=1e-9)


# Lockstep cases: (model, cone, antinorm, x0, x1, exact time form)
HYP_FORM = [[-4.0, 0.0], [0.0, 1.0]]
ENGEL = CarnotAlgebra.from_brackets((2, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}})
FILIFORM = CarnotAlgebra.from_brackets(
    (2, 1, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0}})


def _lockstep_case(name):
    heis = CarnotGroup(heisenberg_algebra())
    mink = (LorentzCone(MINK, [1.0, 0.0]), LorentzSqrt(MINK))
    if name == "abelian":
        plane = AbelianGroup(2)
        return (plane, *mink, np.zeros(2), [5.0, 3.0],
                LeftInvariantForm([1.0, 0.0], plane))
    if name == "heisenberg":
        return (heis, *mink, np.zeros(3), [3.0, 0.5, 0.2],
                LeftInvariantForm([1.0, 0.0, 0.0], heis))
    if name == "polyhedral":
        return (heis, PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]),
                MinOfLinear([[1.0, 0.5], [1.0, -0.5]]), np.zeros(3), [2.0, 0.5, 0.1],
                LeftInvariantForm([1.0, 0.0, 0.0], heis))
    if name == "engel":
        engel = CarnotGroup(ENGEL)
        return (engel, *mink, np.zeros(4), [2.0, 0.5, 0.3, 0.1],
                LeftInvariantForm([1.0, 0.0, 0.0, 0.0], engel))
    return (HyperbolicPlane(), LorentzCone(HYP_FORM, [0.0, 1.0]), LorentzSqrt(HYP_FORM),
            [0.0, 1.0], [0.3, 2.0], HyperbolicAB(0.0, 1.0))


def _runs_in_lockstep_and_alone(monkeypatch, solve):
    """Each restart's run in the solve's lockstep, and the same restart
    driven alone through the same driver."""
    drive = solver._run_restarts
    seen = []

    def spy(prob, starts, *rest):
        runs = drive(prob, starts, *rest)
        seen.append((runs, [drive(prob, [u0], *rest)[0] for u0 in starts]))
        return runs
    monkeypatch.setattr(solver, "_run_restarts", spy)
    solve()
    (runs, alone), = seen
    return runs, alone


def _assert_same_runs(runs, alone):
    assert len(runs) == len(alone) == 3
    for a, b in zip(runs, alone):
        assert a.u.tobytes() == b.u.tobytes()
        assert (a.objective, a.residual, a.outer_iters, a.history) == \
            (b.objective, b.residual, b.outer_iters, b.history)
        assert (a.endpoint_evaluations, a.jacobian_evaluations) == \
            (b.endpoint_evaluations, b.jacobian_evaluations)


LOCKSTEP_OPTS = SolveOptions(restarts=3, max_iter=4, inner_iter=8)


@pytest.mark.parametrize("segments", [12, 1])
@pytest.mark.parametrize("name", ["abelian", "heisenberg", "polyhedral", "engel",
                                  "hyperbolic"])
def test_restarts_in_lockstep_run_as_alone(monkeypatch, name, segments):
    model, cone, nu, x0, x1, form = _lockstep_case(name)
    prob = make_prob(model, cone, nu, x0, x1, n=segments)
    solves = [lambda: solve_longest(prob, LOCKSTEP_OPTS),
              lambda: solve_longest_reparametrized(prob, form, LOCKSTEP_OPTS)]
    if name in ("abelian", "polyhedral", "hyperbolic"):
        # on R^n the bound-attained certificate answers both solves before
        # any restart runs, on the polyhedral case the reachable-set
        # certificate and on the hyperbolic plane the extremal certificate
        # answer the direct solve, so `_run_restarts` is called as the solves
        # call it
        s1 = potential(form, prob.g)
        tau_c = _control_covector(model, form)
        solves = [
            lambda: solver._run_restarts(
                prob, solver._starting_controls(prob, 1.0, LOCKSTEP_OPTS), 1.0,
                LOCKSTEP_OPTS),
            lambda: solver._run_restarts(
                prob, solver._starting_controls(prob, s1, LOCKSTEP_OPTS, tau_c),
                s1, LOCKSTEP_OPTS, tau_c)]
    for solve in solves:
        _assert_same_runs(*_runs_in_lockstep_and_alone(monkeypatch, solve))


class _FragilePlane(HyperbolicPlane):
    """The hyperbolic plane, but a pass over a control row longer than 3
    raises: some restarts below try such trials, and no iterate is one."""

    def __init__(self):
        self.raised = []

    def endpoint_pass(self, g, u, horizon):
        if np.linalg.norm(u, axis=-1).max() > 3.0:
            self.raised.append(u.shape[:-2])
            raise ValueError("a control row is longer than 3")
        return super().endpoint_pass(g, u, horizon)


@pytest.mark.parametrize("segments", [12, 1])
def test_restarts_in_lockstep_run_as_alone_when_a_round_raises(monkeypatch, segments):
    model = _FragilePlane()
    prob = make_prob(model, LorentzCone(HYP_FORM, [0.0, 1.0]), LorentzSqrt(HYP_FORM),
                     [0.0, 1.0], [0.3, 2.0], n=segments)
    # the extremal certificate answers the solve, so the restarts run as the
    # solve would run them without it
    runs, alone = _runs_in_lockstep_and_alone(
        monkeypatch, lambda: _iterated(prob, LOCKSTEP_OPTS))
    _assert_same_runs(runs, alone)
    # lone trials raised, and so did stacks of several trials where trials
    # are stacked
    assert (1,) in model.raised
    if segments > 1:
        assert any(len(shape) == 1 and shape[0] > 1 for shape in model.raised)


@pytest.mark.parametrize("segments", [12, 1])
def test_trial_pass_rejects_only_the_trial_that_raises(segments):
    # a stack with one raising trial: every other trial gets the bits it
    # gets alone, and the raising one a NaN residual
    model = _FragilePlane()
    prob = make_prob(model, LorentzCone(HYP_FORM, [0.0, 1.0]), LorentzSqrt(HYP_FORM),
                     [0.0, 1.0], [0.3, 2.0], n=segments)
    u = np.tile([0.1, 1.0], (segments, 1))
    grad = np.column_stack([np.linspace(-0.2, 0.2, segments), np.ones(segments)])
    # the step 50 takes rows of length about 51: that trial raises
    steps = np.array([0.5, 0.1, 50.0, 0.01])
    other = (u, -0.5 * grad, np.array([0.2, 0.05]))
    replies = solver._trial_pass(prob, 1.0, prob.cone.project_batch,
                                 [(u, grad, steps), other])
    assert [len(r[1]) for r in replies] == [4, 2]
    # one-segment trials are never stacked
    assert model.raised == ([(6,), (1,)] if segments > 1 else [(1,)])
    for request, reply in zip([(u, grad, steps), other], replies):
        for i, step in enumerate(request[2]):
            trial, rho, chain, values = (part[i] for part in reply)
            if step == 50.0:
                assert np.all(np.isnan(rho))
                continue
            (alone,) = solver._trial_pass(prob, 1.0, prob.cone.project_batch,
                                          [(request[0], request[1], request[2][i:i + 1])])
            for got, want in zip((trial, rho, chain, values), alone):
                assert got.tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# solving at the identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, x0", [("heisenberg", [1.0, -2.0, 0.5]),
                                      ("engel", [0.5, -1.0, 0.3, 0.2]),
                                      ("hyperbolic", [0.7, 2.5])])
def test_a_translated_problem_gets_the_identity_problems_answer(name, x0):
    # interior endpoints: no certificate decides them on Carnot groups, so
    # both solves iterate; on the hyperbolic plane the extremal certificate
    # answers them, so its restarts run as the solve would run them without it
    model, cone, nu, _, g, form = _lockstep_case(name)
    x0 = np.array(x0)
    x1 = model.multiply(x0, g)
    translated = make_prob(model, cone, nu, x0, x1, n=20)
    at_identity = make_prob(model, cone, nu, model.identity(),
                            model.multiply(model.inverse(x0), x1), n=20)
    opts = SolveOptions(restarts=2, max_iter=20)
    solves = [_iterated if name == "hyperbolic" else solve_longest]
    if name == "heisenberg":
        solves.append(lambda prob, opts: solve_longest_reparametrized(prob, form, opts))
    for solve in solves:
        a, b = solve(translated, opts), solve(at_identity, opts)
        assert a.iterations > 0
        assert (a.status, a.objective, a.endpoint_residual, a.iterations) == \
            (b.status, b.objective, b.endpoint_residual, b.iterations)
        assert (a.endpoint_evaluations, a.jacobian_evaluations) == \
            (b.endpoint_evaluations, b.jacobian_evaluations)
        assert a.control.values.tobytes() == b.control.values.tobytes()


def test_a_translated_hyperbolic_problem_gets_the_identity_problems_extremal():
    # the extremal certificate answers both problems alike, from the same
    # bits of g
    model, cone, nu, _, g, _ = _lockstep_case("hyperbolic")
    x0 = np.array([0.7, 2.5])
    x1 = model.multiply(x0, g)
    a, b = (solve_longest(make_prob(model, cone, nu, start, end, n=20))
            for start, end in ((x0, x1), (model.identity(),
                                           model.multiply(model.inverse(x0), x1))))
    assert a.status == SolveStatus.SOLVED and a.iterations == 0
    assert (a.status, a.objective, a.endpoint_residual, a.iterations) == \
        (b.status, b.objective, b.endpoint_residual, b.iterations)
    assert (a.endpoint_evaluations, a.jacobian_evaluations) == \
        (b.endpoint_evaluations, b.jacobian_evaluations)
    assert a.control.values.tobytes() == b.control.values.tobytes()


# ---------------------------------------------------------------------------
# the hyperbolic plane answered by its normal extremal
# ---------------------------------------------------------------------------


def _hyperbolic_prob(x1, n=50, form=HYP_FORM, x0=(0.0, 1.0), nu=None, selector=(0.0, 1.0)):
    return make_prob(HyperbolicPlane(), LorentzCone(form, list(selector)),
                     nu or LorentzSqrt(form), list(x0), list(x1), n=n)


def _answered_by_the_extremal(rep, prob):
    """SOLVED at iteration 0 after a Newton iteration (Jacobians were
    built), exactly feasible, and no shorter than the constant control at
    log g."""
    v = prob.model.log(prob.g)
    return (rep.status == SolveStatus.SOLVED and rep.iterations == 0
            and rep.jacobian_evaluations > 0 and rep.endpoint_residual <= 1e-12
            and rep.objective >= prob.nu.values_on_cone(v) * (1.0 - 1e-12))


@pytest.mark.parametrize("n, constant_speed", [(50, 0.558400625382), (200, 0.558402117127)])
def test_hyperbolic_preset_problem_is_answered_by_its_extremal(n, constant_speed):
    # the line-search pin above ends at 0.5584005536812238 after 18
    # iterations and 1,094 evaluations; the extremal agrees with the
    # constant-speed discrete optimum (scipy SLSQP) to 1e-10
    prob = _hyperbolic_prob([0.3, 2.0], n=n)
    rep = solve_longest(prob)
    assert _answered_by_the_extremal(rep, prob)
    assert rep.objective == pytest.approx(constant_speed, rel=0.0, abs=1e-10)
    assert rep.endpoint_evaluations <= 10 and rep.jacobian_evaluations <= 5
    assert admissibility_check(prob.cone, rep.control).ok
    assert np.allclose(rep.trajectory.endpoint, [0.3, 2.0], rtol=0.0, atol=1e-13)


def test_interior_hyperbolic_endpoints_are_all_answered_by_the_extremal():
    cone = LorentzCone(HYP_FORM, [0.0, 1.0])
    cloud = reachability_sample(HyperbolicPlane(), cone, (0.0, 1.0), 200, seed=3,
                                interior=True)
    for x1 in cloud:
        prob = _hyperbolic_prob(x1)
        assert _answered_by_the_extremal(solve_longest(prob), prob), x1


def _constant_speed_optimum(prob):
    """scipy SLSQP on the constant-speed problem of the preset form: the
    largest s with rho(s w) = 0, w_k = (sinh r_k / 2, cosh r_k) of unit
    antinorm, from the constant control at log g."""
    model, g, n = prob.model, prob.g, prob.segments

    def split(z):
        return z[0], np.column_stack([0.5 * np.sinh(z[1:]), np.cosh(z[1:])])

    def rho(z):
        s, w = split(z)
        return model.endpoint_residual(g, s * w, 1.0)[0]

    def jac(z):
        s, w = split(z)
        J = model.endpoint_map(g, s * w, 1.0)[1]
        dw = np.column_stack([0.5 * np.cosh(z[1:]), np.sinh(z[1:])])
        return np.column_stack([np.einsum("kab,kb->a", J, w),
                                s * np.einsum("kab,kb->ak", J, dw)])

    vx, vy = model.log(g)
    speed = np.sqrt(vy * vy - 4.0 * vx * vx)
    z0 = np.concatenate([[speed], np.full(n, np.arcsinh(2.0 * vx / speed))])
    res = minimize(lambda z: -z[0], z0, jac=lambda z: -np.eye(len(z))[0], method="SLSQP",
                   constraints={"type": "eq", "fun": rho, "jac": jac},
                   options={"ftol": 1e-15, "maxiter": 300})
    assert np.linalg.norm(rho(res.x)) <= 1e-12
    return res.x[0]


@pytest.mark.parametrize("x1", [[0.3, 2.0], [0.796, 5.0962], [-0.2, 1.7], [0.05, 1.2]])
def test_hyperbolic_extremal_matches_the_constant_speed_oracle(x1):
    prob = _hyperbolic_prob(x1)
    rep = solve_longest(prob)
    assert _answered_by_the_extremal(rep, prob)
    assert rep.objective == pytest.approx(_constant_speed_optimum(prob), rel=0.0, abs=1e-8)


def test_a_tilted_form_gets_its_diagonal_images_answer():
    # Psi(x, y) = (p x + q (y - 1), y) is an automorphism with dPsi_e = N =
    # [[p, q], [0, 1]]: it carries the preset problem to x1' = Psi(x1) with
    # the form N^-T A N^-1, whose A_xy is not 0
    p, q = 1.7, 0.4
    N = np.array([[p, q], [0.0, 1.0]])
    Ninv = np.linalg.inv(N)
    tilted = Ninv.T @ np.array(HYP_FORM) @ Ninv
    assert tilted[0, 1] != 0.0
    base = _hyperbolic_prob([0.3, 2.0])
    image = _hyperbolic_prob([p * 0.3 + q * (2.0 - 1.0), 2.0], form=tilted,
                             selector=N @ [0.0, 1.0])
    a, b = solve_longest(base), solve_longest(image)
    assert _answered_by_the_extremal(a, base) and _answered_by_the_extremal(b, image)
    assert b.objective == pytest.approx(a.objective, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [3.0, 0.25])
def test_a_positive_multiple_of_the_cone_form_is_answered(k):
    prob = _hyperbolic_prob([0.3, 2.0], nu=LorentzSqrt(k * np.array(HYP_FORM)))
    rep = solve_longest(prob)
    assert _answered_by_the_extremal(rep, prob)
    assert rep.objective == pytest.approx(np.sqrt(k) * 0.558400625382, rel=1e-10)


def _same_report(a, b):
    return ((a.status, a.objective, a.endpoint_residual, a.iterations, a.history)
            == (b.status, b.objective, b.endpoint_residual, b.iterations, b.history)
            and (a.endpoint_evaluations, a.jacobian_evaluations)
            == (b.endpoint_evaluations, b.jacobian_evaluations)
            and (a.control is b.control is None
                 or a.control.values.tobytes() == b.control.values.tobytes()))


@pytest.mark.parametrize("case", ["min_of_linear", "past_nappe", "x0_is_x1"])
def test_problems_the_extremal_declines_iterate_as_before(case):
    # the restarts alone give the solve's report bit for bit: the certificate
    # left no trace
    prob = {
        "min_of_linear": lambda: _hyperbolic_prob([0.3, 2.0], n=12,
                                                  nu=MinOfLinear([[0.0, 1.0]])),
        "past_nappe": lambda: _hyperbolic_prob([0.1, 0.5], n=12, selector=(0.0, -1.0)),
        "x0_is_x1": lambda: _hyperbolic_prob([0.3, 2.0], n=12, x0=(0.3, 2.0)),
    }[case]()
    opts = SolveOptions(restarts=2, max_iter=5, inner_iter=10)
    assert solver._extremal_answer(prob, 1.0, opts) is None
    rep = solve_longest(prob, opts)
    assert rep.iterations > 0 and _same_report(rep, _iterated(prob, opts))


def test_the_reparametrized_hyperbolic_solve_iterates_as_before():
    prob = _hyperbolic_prob([0.3, 2.0], n=12)
    form = HyperbolicAB(0.0, 1.0)
    opts = SolveOptions(restarts=2, max_iter=5, inner_iter=10)
    rep = solve_longest_reparametrized(prob, form, opts)
    s1, tau_c = potential(form, prob.g), _control_covector(prob.model, form)
    assert rep.iterations > 0
    assert _same_report(rep, _iterated(prob, opts, s1, tau_c))


def test_the_extremal_floor_is_nu_of_log_g():
    model, cone = HyperbolicPlane(), LorentzCone(HYP_FORM, [0.0, 1.0])
    nu = LorentzSqrt(HYP_FORM)
    for g in ([0.3, 2.0], [-0.4, 1.9], [1e-9, 1.0 + 1e-8], [40.0, 100.0]):
        g = np.array(g)
        floor = model.normal_extremals(cone, nu, g, 1.0, 12).floor
        assert floor == antinorm_eval(nu, cone, model.log(g)) > 0.0
    # log g = log(y) / (y - 1) (g - e) leaves the cone where g - e does: no
    # family there, and nu(log g) is -inf
    for g in ([3.0, 2.0], [0.1, 0.5]):
        g = np.array(g)
        assert antinorm_eval(nu, cone, model.log(g)) == NEG_INF
        assert model.normal_extremals(cone, nu, g, 1.0, 12) is None


def test_the_extremal_answers_by_its_familys_floor(monkeypatch):
    prob = _hyperbolic_prob([0.3, 2.0], n=12)
    opts = SolveOptions()
    family = prob.model.normal_extremals(prob.cone, prob.nu, prob.g, 1.0, 12)
    rep = solver._extremal_answer(prob, 1.0, opts)
    assert family.floor < rep.objective
    monkeypatch.setattr(prob.model, "normal_extremals", lambda *args: family)
    for floor, answers in ((NEG_INF, True), (rep.objective * (1.0 + 1e-11), False)):
        family.floor = floor
        again = solver._extremal_answer(prob, 1.0, opts)
        assert (again is not None) == answers
        assert not answers or _same_report(again, rep)


class _PatchedFamily:
    """A hyperbolic extremal family with its start or controls replaced."""

    def __init__(self, family, start=None, controls=None):
        self.floor = family.floor
        self.start = family.start if start is None else start
        self.controls = controls or family.controls


@pytest.mark.parametrize("case", ["leaves_domain", "bad_start", "huge", "one_step"])
def test_the_extremals_newton_declines_iterate_as_before(monkeypatch, case):
    prob = _hyperbolic_prob([0.3, 2.0], n=12)
    opts = SolveOptions(restarts=2, max_iter=5, inner_iter=10)
    family = prob.model.normal_extremals(prob.cone, prob.nu, prob.g, 1.0, 12)
    start, controls = family.start, family.controls
    if case == "leaves_domain":
        family = _PatchedFamily(family, controls=lambda theta: (
            controls(theta) if np.array_equal(theta, start) else None))
    elif case == "bad_start":
        family = _PatchedFamily(family, start=np.array([0.0, start[1]]))
    elif case == "huge":
        family = _PatchedFamily(family, controls=lambda theta: tuple(
            1e300 * c for c in controls(theta)))
    else:
        monkeypatch.setattr(solver, "NEWTON_STEPS", 1)
    monkeypatch.setattr(prob.model, "normal_extremals", lambda *args: family)
    # as inside a solve: the huge family overflows
    with np.errstate(all="ignore"):
        assert solver._extremal_answer(prob, 1.0, opts) is None
    assert _same_report(solve_longest(prob, opts), _iterated(prob, opts))


@pytest.mark.parametrize("form, nu_form", [
    # A_xx > 0: the future nappe's interior direction still has y > 0
    ([[0.5, 1.0], [1.0, 0.5]], [[0.5, 1.0], [1.0, 0.5]]),
    # an antinorm form that is a negative multiple, or no multiple, of A
    (HYP_FORM, [[4.0, 0.0], [0.0, -1.0]]),
    (HYP_FORM, [[-4.0, 0.0], [0.0, 2.0]]),
])
def test_the_extremal_family_needs_a_cone_form_with_negative_xx_and_its_multiple(
        form, nu_form):
    cone = LorentzCone(form, [1.0, 1.0] if form[0][0] > 0 else [0.0, 1.0])
    assert cone.interior_direction()[1] > 0.0
    assert HyperbolicPlane().normal_extremals(cone, LorentzSqrt(nu_form),
                                              np.array([0.3, 2.0]), 1.0, 10) is None


HYPERBOLIC_TRANSLATIONS = [[0.7, 2.5], [-1.3, 0.4], [5.0, 11.0]]


@pytest.mark.parametrize("k", HYPERBOLIC_TRANSLATIONS)
def test_left_translation_keeps_the_hyperbolic_answer(k):
    # (k x0)^-1 (k x1) is x0^-1 x1 up to rounding: the extremal answers to
    # 1e-12, where the line search held only 7.5e-7
    model = HyperbolicPlane()
    x0, x1 = np.array([0.0, 1.0]), np.array([0.3, 2.0])
    base = solve_longest(_hyperbolic_prob(x1, x0=x0))
    moved = _hyperbolic_prob(model.multiply(k, x1), x0=model.multiply(k, x0))
    rep = solve_longest(moved)
    assert _answered_by_the_extremal(rep, moved)
    assert rep.objective == pytest.approx(base.objective, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("axis", [0, 1])
def test_a_one_ulp_shift_of_x1_keeps_the_hyperbolic_answer(axis):
    x1 = np.array([0.3, 2.0])
    shifted = x1.copy()
    shifted[axis] = np.nextafter(shifted[axis], np.inf)
    base = solve_longest(_hyperbolic_prob(x1))
    prob = _hyperbolic_prob(shifted)
    rep = solve_longest(prob)
    assert _answered_by_the_extremal(rep, prob)
    assert rep.objective == pytest.approx(base.objective, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [50, 200])
def test_far_hyperbolic_endpoints_are_answered_by_the_extremal(n):
    # log g = (103.7, 691.5) from (0, 1e-300): the residual's Jacobian
    # squared endpoint heights beyond 1e154, and Newton stalled
    prob = _hyperbolic_prob([0.3, 2.0], n=n, x0=(0.0, 1e-300))
    family = prob.model.normal_extremals(prob.cone, prob.nu, prob.g, 1.0, n)
    rep = solve_longest(prob, SolveOptions(restarts=1, max_iter=3, inner_iter=3))
    assert rep.status == SolveStatus.SOLVED and rep.iterations == 0
    assert rep.jacobian_evaluations > 0
    assert rep.endpoint_residual <= solver.EXTREMAL_TOL * np.linalg.norm(
        prob.model.log(prob.g))
    assert rep.objective >= family.floor


# ---------------------------------------------------------------------------
# reachability sampling
# ---------------------------------------------------------------------------


def test_reachability_abelian_stays_in_shifted_cone(plane, mink_cone):
    x0 = np.array([1.0, -2.0])
    cloud = reachability_sample(plane, mink_cone, x0, 200, seed=4)
    for p in cloud:
        assert mink_cone.contains(p - x0, tol=1e-7)


def test_reachability_carnot_first_layer_in_cone(heis, mink_cone):
    cloud = reachability_sample(heis, mink_cone, np.zeros(3), 200, seed=4)
    for p in cloud:
        assert mink_cone.contains(p[:2], tol=1e-7)


def test_reachability_potential_increases(heis, mink_cone):
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    x0 = np.array([0.5, 0.2, 0.0])
    cloud = reachability_sample(heis, mink_cone, x0, 200, seed=9)
    t0 = potential(form, x0)
    assert all(potential(form, p) >= t0 - 1e-12 for p in cloud)


def test_reachability_deterministic(heis, mink_cone):
    a = reachability_sample(heis, mink_cone, np.zeros(3), 50, seed=123)
    b = reachability_sample(heis, mink_cone, np.zeros(3), 50, seed=123)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# desk-scale hyperbolicity diagnostics
# ---------------------------------------------------------------------------


def test_lightlike_endpoint_respects_the_first_layer_bound(heis, mink_cone, mink_nu):
    # the endpoint on which `sublorentz verify --seed 18` failed
    e = reachability_sample(heis, mink_cone, heis.identity(), 5, seed=18)[3]
    prob = make_prob(heis, mink_cone, mink_nu, heis.identity(), e, n=30)
    rep = solve_longest(prob, SolveOptions(restarts=2, max_iter=40, inner_iter=30))
    assert rep.status == SolveStatus.SOLVED
    assert rep.objective - abelianized_upper_bound(prob) <= 1e-9


def test_first_layer_bound_check_passes_on_the_seed_18_endpoints():
    # verify's check on the endpoint set of `sublorentz verify --seed 18`,
    # which holds lightlike exp(v) endpoints
    res = _check_bound_dominance(18)
    assert res.passed, res.detail


def test_minkowski_diamond_radius():
    res = _check_hyperbolicity(0, 300)
    assert res.passed, res.detail


def test_heisenberg_potential_band(heis, mink_cone, mink_nu):
    # potential T = xi_0, so the in-band cloud has first coordinate <= gap
    prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), [3.0, 0.0, 0.0])
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    rep = check_hyperbolicity_desk(prob, form, n_samples=300, seed=1)
    assert rep.passed
    assert rep.potential_gap == pytest.approx(3.0)
    cloud = reachability_sample(heis, mink_cone, np.zeros(3), 300, seed=1)
    in_band = cloud[cloud[:, 0] <= 3.0]
    assert np.all(in_band[:, 0] <= rep.potential_gap + 1e-12)


def _reach_cones():
    """name -> cone: diagonal and tilted Lorentz cones, on which a one-row
    and a many-row product round differently, and polyhedral ones."""
    tilted = _tilted_lorentz_cones((2, 3, 5))
    return {"minkowski": LorentzCone(MINK, [1.0, 0.0]),
            "hyperbolic-preset": LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0.0, 1.0]),
            "tilted-2": tilted[2], "tilted-3": tilted[3], "tilted-5": tilted[5],
            "poly3": PolyhedralCone([[1.0, 0.0], [1.0, 0.6], [1.0, -0.6]]),
            "one-generator": PolyhedralCone([[1.0, 0.3]]),
            "random-poly": PolyhedralCone(np.random.default_rng(5).normal(size=(5, 3))
                                          + [3.0, 0.0, 0.0])}


REACH_CONES = _reach_cones()


@pytest.mark.parametrize("interior", [False, True], ids=["closed", "interior"])
@pytest.mark.parametrize("name", list(REACH_CONES))
def test_reach_matches_the_per_path_loop(name, interior):
    # each path drawn and integrated alone; up to more than two batches
    cone = REACH_CONES[name]
    model = CarnotGroup(heisenberg_algebra()) if cone.dim == 2 else AbelianGroup(cone.dim)
    x0 = np.linspace(0.5, -0.5, model.point_dim)
    for seed, n_samples in ((3, 1), (0, 255), (1, 256), (2, 257), (4, 600)):
        rng = np.random.default_rng(seed)
        controls = [cone.sample(int(rng.integers(1, 9)), rng, relative_interior=interior)
                    for _ in range(n_samples)]
        ends = [integrate(model, x0, ControlSignal(u)).points[-1] for u in controls]
        counts, U = cone.sample_paths(n_samples, np.random.default_rng(seed),
                                      relative_interior=interior)
        assert np.array_equal(counts, [len(u) for u in controls])
        assert np.array_equal(U, np.concatenate(controls))
        cloud = reachability_sample(model, cone, x0, n_samples, seed=seed,
                                    interior=interior)
        assert np.array_equal(cloud, ends)


def _desk_reference_paths(prob, form, n_samples, seed):
    """The desk check's paths one at a time: integrate each, then the
    potential and the arc length at each of its points, and its length."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        controls = prob.cone.sample(int(rng.integers(1, 9)), rng)
        traj = integrate(prob.model, prob.x0, ControlSignal(controls),
                         nu=prob.nu, cone=prob.cone)
        pots = np.array([potential(form, p) for p in traj.points])
        speeds = np.linalg.norm(controls, axis=1)
        arcs = np.concatenate([[0.0], np.cumsum(np.diff(traj.times) * speeds)])
        yield pots, arcs, traj.z[-1]


def _desk_reference(prob, form, n_samples, seed):
    """check_hyperbolicity_desk one path at a time."""
    t1 = potential(form, prob.x1)
    gap = t1 - potential(form, prob.x0)
    radius = section_sup_norm(prob.cone, form) * max(gap, 0.0)
    mono_bad = stalled = radius_bad = 0
    max_arc = 0.0
    for pots, arcs, length in _desk_reference_paths(prob, form, n_samples, seed):
        scale = 1.0 + np.abs(pots).max()
        mono_bad += bool(np.any(np.diff(pots) < -1e-9 * scale))
        stalled += bool(length > 1e-9 and pots[-1] - pots[0] <= 1e-12 * scale)
        in_band = pots <= t1 + 1e-9 * scale
        if np.any(in_band):
            arc_in = float(arcs[in_band].max())
            max_arc = max(max_arc, arc_in)
            radius_bad += arc_in > radius * (1.0 + 1e-9) + 1e-12
    return HyperbolicityReport(
        passed=(mono_bad == 0 and stalled == 0 and radius_bad == 0),
        n_paths=n_samples, radius=radius, potential_gap=gap,
        max_inband_arclength=max_arc, monotonicity_violations=mono_bad,
        stalled_positive_length_paths=stalled, radius_violations=radius_bad)


@pytest.mark.parametrize("kind", ["heisenberg", "hyperbolic", "tilted"])
def test_desk_check_matches_the_per_path_loop(kind, heis, mink_cone, mink_nu):
    if kind == "heisenberg":
        prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), [3.0, 0.5, 0.2])
        form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    elif kind == "tilted":
        # off-diagonal W^-1: its one-row and many-row products round apart
        cone = REACH_CONES["tilted-2"]
        x1 = np.append(3.0 * cone.interior_direction(), 0.2)
        prob = make_prob(heis, cone, LorentzSqrt(cone.form), np.zeros(3), x1)
        form = LeftInvariantForm(np.append(cone.time_covector(), 0.0), heis)
    else:
        hyp_form = [[-4.0, 0.0], [0.0, 1.0]]
        prob = make_prob(HyperbolicPlane(), LorentzCone(hyp_form, [0.0, 1.0]),
                         LorentzSqrt(hyp_form), [0.0, 1.0], [0.3, 2.0])
        form = HyperbolicAB(0.0, 1.0)
    # the longest in-band arc over the first n paths, up to more than one batch
    for seed, n_samples in ((0, 1), (0, 2), (0, 5), (0, 12), (0, 300), (1, 300)):
        rep = check_hyperbolicity_desk(prob, form, n_samples=n_samples, seed=seed)
        assert repr(rep) == repr(_desk_reference(prob, form, n_samples, seed))
        # and path by path: the potentials and arc lengths at every point,
        # padded with the endpoint
        batches = list(solver._desk_paths(prob, form, n_samples, seed))
        pots, arcs = (np.concatenate(b) for b in list(zip(*batches))[:2])
        paths = _desk_reference_paths(prob, form, n_samples, seed)
        for i, (ref_pots, ref_arcs, _) in enumerate(paths):
            n = len(ref_pots)
            for got, ref in ((pots[i], ref_pots), (arcs[i], ref_arcs)):
                assert np.array_equal(got[:n], ref)
                assert np.all(got[n:] == ref[-1])


def test_desk_summary_names_each_kind_of_failure():
    def report(stalled, radius_bad):
        return HyperbolicityReport(
            passed=not (stalled or radius_bad), n_paths=10, radius=4.5,
            potential_gap=1.5, max_inband_arclength=4.25, monotonicity_violations=0,
            stalled_positive_length_paths=stalled, radius_violations=radius_bad)
    head = ("over 10 paths: radius 4.5, max in-band arc length 4.25, "
            "0 monotonicity violation(s)")
    assert report(0, 0).summary() == "hyperbolicity evidence consistent " + head
    assert report(2, 0).summary() == ("hyperbolicity evidence INCONSISTENT " + head
                                      + ", 2 stalled positive-length path(s)")
    assert report(0, 3).summary() == ("hyperbolicity evidence INCONSISTENT " + head
                                      + ", 3 radius violation(s)")
    assert report(2, 3).summary().endswith(
        ", 2 stalled positive-length path(s), 3 radius violation(s)")


@pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [0.0, 3.0, 0.0], [3.0, -3.0, 0.0]],
                         ids=["identity", "0,3,0", "3,-3,0"])
def test_heisenberg_desk_radius_does_not_depend_on_x0(x0, heis, mink_cone, mink_nu):
    # the slice and the arcs are both measured in the invariant metric that
    # is Euclidean at the identity, so
    # the radius is sqrt 2 (the unit slice's sup norm) times the gap 3
    x0 = np.array(x0)
    prob = make_prob(heis, mink_cone, mink_nu, x0, x0 + [3.0, 0.5, 0.2])
    rep = check_hyperbolicity_desk(prob, LeftInvariantForm([1.0, 0.0, 0.0], heis),
                                   n_samples=300, seed=0)
    assert rep.passed
    assert rep.radius == 4.242640687119286


def test_hyperbolic_desk_radius_does_not_depend_on_x0():
    hyp = HyperbolicPlane()
    hyp_form = [[-4.0, 0.0], [0.0, 1.0]]
    cone, nu = LorentzCone(hyp_form, [0.0, 1.0]), LorentzSqrt(hyp_form)
    radii = []
    for x0 in ([0.0, 1.0], [3.0, 0.25]):
        prob = make_prob(hyp, cone, nu, x0, hyp.multiply(x0, [0.3, 2.0]))
        rep = check_hyperbolicity_desk(prob, HyperbolicAB(0.0, 1.0), n_samples=300)
        assert rep.passed
        radii.append(rep.radius)
    assert radii[0] == pytest.approx(radii[1], rel=1e-12)


def test_hyperbolicity_requires_exact_form(plane, mink_cone, mink_nu, heis):
    from sublorentz import HyperbolicAB
    hyp = HyperbolicPlane()
    cone = LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    prob = make_prob(hyp, cone, LorentzSqrt([[-4.0, 0.0], [0.0, 1.0]]),
                     [0.0, 1.0], [0.3, 2.0])
    with pytest.raises(NotExactError):
        check_hyperbolicity_desk(prob, HyperbolicAB(1.0, 1.0), n_samples=10)


# ---------------------------------------------------------------------------
# reparametrized solves
# ---------------------------------------------------------------------------


def test_unit_tau_retraction_matches_row_loop(heis, mink_cone, rng):
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    U = rng.normal(size=(40, 2)) * 2.0
    U[0] = [-1.0, 0.0]  # projects to the apex, where tau is 0
    # reference: the per-row loop, tau evaluated on the embedded control
    expected = mink_cone.project_batch(U)
    fallbacks = 0
    for i, row in enumerate(expected):
        t = form.value_at_identity(heis.embed_control(row))
        if t <= 1e-12:
            fallbacks += 1
            row = mink_cone.interior_direction()
            t = form.value_at_identity(heis.embed_control(row))
        expected[i] = row / t
    got = _unit_tau_retract(mink_cone, _control_covector(heis, form), U)
    assert fallbacks >= 1
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_reparametrized_solve_matches_minkowski(plane, mink_cone, mink_nu,
                                                light_opts):
    prob = make_prob(plane, mink_cone, mink_nu, np.zeros(2), [5.0, 3.0], n=50)
    form = LeftInvariantForm([1.0, 0.0], plane)
    rt = solve_longest(prob, light_opts)
    rs = solve_longest_reparametrized(prob, form, light_opts)
    assert rs.status == SolveStatus.SOLVED
    assert rs.objective == pytest.approx(rt.objective, rel=1e-3)
    assert rs.trajectory.horizon == pytest.approx(5.0)  # s1 = T(x1)


@pytest.mark.parametrize("name, x0, x1", [
    ("abelian", [1e6, 1e6], [1e6, 1e6 + 5.0]),
    ("heisenberg", [1e6, 1e6, 1e6], [1e6, 1e6 + 3.0, 1e6 + 2.0]),
    # x1 is within 1e-12 of x0, but x0^-1 x1 = (1e-7, 1) is spacelike
    ("hyperbolic", [0.0, 1e-6], [1e-13, 1e-6]),
    # far out, where x0^-1 x0 is exactly e
    ("hyperbolic", [1e6, 1e-3], [1e6 + 1e-3, 1e-3]),
], ids=["minkowski", "heisenberg", "hyperbolic", "hyperbolic-far"])
def test_reparametrized_shortcut_takes_only_x0_equal_x1(name, x0, x1):
    # a spacelike step of a few units at 1e6 passed allclose's default rtol
    # as x0 = x1, and came back SOLVED with objective 0; so did a spacelike
    # x0^-1 x1 between points within 1e-12 of each other
    model, cone, nu, _, _, form = _lockstep_case(name)
    for end, status in ((x1, SolveStatus.NO_ADMISSIBLE_PATH), (x0, SolveStatus.SOLVED)):
        prob = make_prob(model, cone, nu, np.array(x0), np.array(end), n=30)
        direct, unit_tau = solve_longest(prob), solve_longest_reparametrized(prob, form)
        assert direct.status == unit_tau.status == status
        if status == SolveStatus.NO_ADMISSIBLE_PATH:
            assert direct.objective == unit_tau.objective == NEG_INF
            continue
        assert unit_tau.objective == 0.0
        # the hyperbolic plane forces no average at e: the direct solve
        # iterates, to a length of rounding size
        assert direct.objective == (pytest.approx(0.0, abs=1e-12) if name == "hyperbolic"
                                    else 0.0)


def test_reparametrized_solve_heisenberg(heis, mink_cone, mink_nu, light_opts):
    ends = reachability_sample(heis, mink_cone, np.zeros(3), 2, seed=21,
                               interior=True)
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    for e in ends:
        prob = make_prob(heis, mink_cone, mink_nu, np.zeros(3), e)
        rt = solve_longest(prob, light_opts)
        rs = solve_longest_reparametrized(prob, form, light_opts)
        assert rs.status == SolveStatus.SOLVED
        assert rs.objective == pytest.approx(rt.objective, rel=1e-3)


def test_reparametrized_solve_rejects_negative_gap(plane, mink_cone, mink_nu,
                                                   light_opts):
    prob = make_prob(plane, mink_cone, mink_nu, [5.0, 3.0], np.zeros(2))
    form = LeftInvariantForm([1.0, 0.0], plane)
    rep = solve_longest_reparametrized(prob, form, light_opts)
    assert rep.status == SolveStatus.NO_ADMISSIBLE_PATH
    assert (rep.objective, rep.endpoint_residual) == (NEG_INF, np.inf)
    rest = make_prob(plane, mink_cone, mink_nu, np.zeros(2), np.zeros(2))
    rep = solve_longest_reparametrized(rest, form, light_opts)
    assert (rep.status, rep.objective, rep.endpoint_residual) == \
        (SolveStatus.SOLVED, 0.0, 0.0)


@pytest.mark.parametrize("x1", [[1e300, 3e299, 0.0], [1e200, 1e199, 0.0]])
def test_far_reachable_endpoints_have_no_nan_bound(heis, mink_cone, mink_nu, x1):
    # |x1| |x0| was inf * 0 = NaN, so the constant control's own endpoint was
    # refused as unreachable; the bound and its slack are +inf now
    with np.errstate(all="raise"):
        _, _, _, half, slack = heis.staircase(mink_cone, np.zeros(3), x1, np.array(x1))
        assert half == np.inf and slack == np.inf
        assert _admits(heis, mink_cone, np.zeros(3), x1)
    # the endpoint pass overflows at this scale: the solve ends unsolved,
    # without a trajectory, and raises nothing
    for nu, cone in ((mink_nu, mink_cone),
                     (MinOfLinear([[1.0, 0.5], [1.0, -0.5]]),
                      PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]))):
        with np.errstate(all="ignore"):
            rep = solve_longest(make_prob(heis, cone, nu, np.zeros(3), x1, n=4),
                                SolveOptions(restarts=3, max_iter=3, inner_iter=3))
        assert rep.status == SolveStatus.MAX_ITERATIONS and rep.trajectory is None


def test_staircase_slack_keeps_its_bits_in_range(heis, mink_cone):
    x0, x1 = np.array([0.5, -0.3, 0.7]), np.array([3.0, 0.5, 0.2])
    slack = heis.staircase(mink_cone, x0, x1, heis.multiply(heis.inverse(x0), x1))[4]
    d = x1[:2] - x0[:2]
    assert slack == 8e-12 * float(d @ d + 0.7 + 0.2
                                  + np.linalg.norm(x0[:2]) * np.linalg.norm(x1[:2]))


def test_residual_factor_reads_its_cache_once(heis):
    # a thread that swaps the cached pair between two reads must not hand
    # this call the other x1's factor
    x1, other = np.array([3.0, 0.5, 0.2]), np.array([1.0, 2.0, 0.0])
    fresh = -np.eye(3) + 0.5 * heis.algebra.ad(x1)

    class Swapped(CarnotGroup):
        reads = 0

        @property
        def _drho_dxi(self):
            self.reads += 1
            # the first read finds x1's pair, every later one another x1's
            return ((x1.tobytes(), fresh) if self.reads == 1
                    else (other.tobytes(), np.full((3, 3), np.nan)))

        @_drho_dxi.setter
        def _drho_dxi(self, pair):
            pass

    model = Swapped(heisenberg_algebra())
    assert np.array_equal(model._residual_factor(x1), fresh)
    assert model.reads == 1
