import numpy as np
import pytest

from sublorentz import (
    AbelianGroup,
    CarnotAlgebra,
    CarnotGroup,
    ControlSignal,
    DimensionMismatchError,
    HyperbolicAB,
    HyperbolicPlane,
    InvalidPointError,
    LeftInvariantForm,
    LorentzCone,
    LorentzSqrt,
    NotExactError,
    PolyhedralCone,
    ProblemInstance,
    StalledParameterError,
    UnboundedSectionError,
    check_antinorm_axioms,
    check_growth_condition,
    check_hyperbolicity_desk,
    dtau,
    exterior_derivative_fd,
    find_time_covector,
    heisenberg_algebra,
    integrate,
    is_exact,
    minkowski_area_algebra,
    potential,
    reparametrize,
    section_sup_norm,
    tau_duration,
)
from sublorentz.verify import (
    _check_closedness_dichotomy,
    _check_fd_convergence,
    _check_path_independence,
    _check_section_sup,
    _polyhedral_cases,
    _tilted_lorentz_cones,
)
from test_groups import flow_velocity

MINK = [[1.0, 0.0], [0.0, -1.0]]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_hyperbolic_ab_evaluation():
    form = HyperbolicAB(0.0, 1.0)
    assert form.value([3.0, 2.0], [5.0, 4.0]) == pytest.approx(2.0)


def test_left_invariant_unit_on_translated_basis(heis, rng):
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    e0 = np.array([1.0, 0.0, 0.0])
    for _ in range(20):
        p = rng.normal(size=3)
        v = flow_velocity(heis, p, e0)
        assert form.value(p, v) == pytest.approx(1.0, abs=1e-12)


def test_kernel_vector_evaluates_to_zero(plane):
    form = LeftInvariantForm([1.0, 0.0], plane)
    assert form.value([0.0, 0.0], [0.0, 7.0]) == 0.0


def test_hyperbolic_ab_matches_left_invariant_spread(rng):
    hyp = HyperbolicPlane()
    ab = HyperbolicAB(0.7, -0.2)
    spread = LeftInvariantForm([0.7, -0.2], hyp)
    for _ in range(50):
        p = np.array([rng.normal(), np.exp(rng.normal())])
        v = rng.normal(size=2)
        assert ab.value(p, v) == pytest.approx(spread.value(p, v), abs=1e-12)


def test_left_invariance_across_points(heis, rng):
    form = LeftInvariantForm([0.4, -0.8, 0.3], heis)
    u = rng.normal(size=3)
    ref = form.value_at_identity(u)
    for _ in range(30):
        p = rng.normal(size=3)
        v = flow_velocity(heis, p, u)
        assert form.value(p, v) == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------


def test_dtau_open_form_at_identity():
    d = exterior_derivative_fd(HyperbolicAB(1.0, 0.0), [0, 1], [1, 0], [0, 1], 1e-3)
    assert d == pytest.approx(1.0, abs=1e-5)


def test_dtau_closed_form_vanishes():
    d = exterior_derivative_fd(HyperbolicAB(0.0, 1.0), [0.4, 1.7], [1, 0], [0, 1], 1e-3)
    assert abs(d) <= 1e-8


def test_dtau_abelian_constant_form(plane):
    form = LeftInvariantForm([2.0, -1.0], plane)
    d = exterior_derivative_fd(form, [0.3, 0.7], [1, 0], [0, 1], 1e-3)
    assert abs(d) <= 1e-12


def test_dtau_sampled_matches_a_over_y_squared(rng):
    res = _check_closedness_dichotomy(rng, 20)
    assert res.passed, res.detail


def test_dtau_quadratic_convergence():
    res = _check_fd_convergence(None, (0.2, 0.8), (2e-2, 1e-2, 5e-3))
    assert res.passed, res.detail


def test_dtau_stencil_domain_guard():
    with pytest.raises(InvalidPointError):
        exterior_derivative_fd(HyperbolicAB(1.0, 0.0), [0.0, 5e-4],
                               [1, 0], [0, 1], 1e-3)


def test_dtau_detects_nonclosed_carnot_covector(heis):
    # covector with weight on [g, g]: at the identity dtau(v, w) = -tau0([v, w])
    form = LeftInvariantForm([0.0, 0.0, 1.0], heis)
    d = exterior_derivative_fd(form, np.zeros(3), [1, 0, 0], [0, 1, 0], 1e-4)
    assert d == pytest.approx(-1.0, abs=1e-6)


def bracket_model(name):
    if name == "abelian":
        return AbelianGroup(3)
    if name == "hyperbolic":
        return HyperbolicPlane()
    if name == "heisenberg":
        return CarnotGroup(heisenberg_algebra())
    if name == "minkowski-area":
        return CarnotGroup(minkowski_area_algebra(2))
    if name == "engel":
        return CarnotGroup(CarnotAlgebra.from_brackets(
            (2, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}}))
    return CarnotGroup(CarnotAlgebra.from_brackets(
        (2, 1, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0}}))


@pytest.mark.parametrize("name", ["abelian", "hyperbolic", "heisenberg",
                                  "minkowski-area", "engel", "filiform"])
def test_exact_dtau_matches_finite_differences(name, rng):
    # d tau_p(e_i, e_j) is the identity 2-form on the pulled-back basis; the
    # stencil's O(h^2) error grows like b h^2 / y^4 on the hyperbolic plane,
    # so the points keep y >= 1/e
    model = bracket_model(name)
    basis = np.eye(model.point_dim)
    for _ in range(20):
        p = model.exp_step(model.identity(), rng.uniform(-1, 1, model.point_dim), 1.0)
        form = LeftInvariantForm(rng.uniform(-1, 1, model.point_dim), model)
        L = model.pullback(p, basis)
        fd = [[exterior_derivative_fd(form, p, e_i, e_j, 1e-4) for e_j in basis]
              for e_i in basis]
        assert np.allclose(fd, L @ dtau(form) @ L.T, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.0, 1.0), (-0.7, 2.5)])
def test_hyperbolic_dtau_is_a_exactly(a, b):
    assert np.array_equal(dtau(HyperbolicAB(a, b)), [[0.0, a], [-a, 0.0]])


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


def test_potential_carnot_example(heis):
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    assert potential(form, [2.0, 3.0, 7.0]) == pytest.approx(2.0)
    assert potential(form, heis.identity()) == 0.0


def test_potential_hyperbolic_against_line_integral():
    form = HyperbolicAB(0.0, 1.0)
    target = np.array([5.0, np.exp(2.0)])
    # quadrature oracle: integrate tau along the straight chart segment
    n = 20_000
    t = (np.arange(n) + 0.5) / n
    start = np.array([0.0, 1.0])
    pts = start[None, :] + t[:, None] * (target - start)[None, :]
    vel = target - start
    integral = np.sum((0.0 * vel[0] + 1.0 * vel[1]) / pts[:, 1]) / n
    assert potential(form, target) == pytest.approx(2.0, abs=1e-12)
    assert integral == pytest.approx(potential(form, target), abs=1e-6)


def test_potential_not_exact_cases(heis):
    with pytest.raises(NotExactError):
        potential(HyperbolicAB(1.0, 1.0), [0.0, 2.0])
    with pytest.raises(NotExactError):
        potential(LeftInvariantForm([1.0, 0.0, 0.5], heis), np.zeros(3))
    assert not is_exact(HyperbolicAB(2.0, 1.0))
    assert is_exact(HyperbolicAB(0.0, 3.0))


def test_path_independence_bulk(rng):
    res = _check_path_independence(rng, 100)
    assert res.passed, res.detail


# ---------------------------------------------------------------------------
# growth condition
# ---------------------------------------------------------------------------


def test_growth_lorentz_example(mink_cone, plane):
    form = LeftInvariantForm([2.0, 0.0], plane)
    rep = check_growth_condition(form, mink_cone)
    assert rep.passed
    # oracle: dense 1-d maximization over the unit-time slice arc
    t = np.linspace(-1, 1, 100_001)
    rho_oracle = np.sqrt(1 + t ** 2).max() / 2.0
    assert rep.rho == pytest.approx(rho_oracle, rel=1e-6)
    assert rep.rho == pytest.approx(np.sqrt(2) / 2)
    assert rep.tau_scale == pytest.approx(rep.rho * 1.05)


def test_growth_polyhedral_example(plane):
    cone = PolyhedralCone([[0.5, 1.0], [-0.5, 1.0]])
    form = LeftInvariantForm([0.0, 1.0], plane)
    rep = check_growth_condition(form, cone)
    assert rep.passed
    assert rep.rho == pytest.approx(np.sqrt(5) / 2)
    # scaling tau by 1.2 brings the ratio under one
    assert rep.rho / 1.2 < 1.0
    assert rep.tau_scale >= rep.rho


def test_growth_fails_when_cone_touches_kernel(plane):
    cone = PolyhedralCone([[1.0, 0.0], [1.0, 1.0]])
    form = LeftInvariantForm([0.0, 1.0], plane)
    rep = check_growth_condition(form, cone)
    assert not rep.passed
    assert rep.offending_direction is not None
    assert form.value_at_identity(rep.offending_direction) <= 1e-9


def test_growth_reports_the_first_offending_direction(plane):
    # tau = (0, 1) vanishes on (1, 0) and is negative on (1, -1)
    cone = PolyhedralCone([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
    rep = check_growth_condition(LeftInvariantForm([0.0, 1.0], plane), cone)
    assert not rep.passed
    assert np.array_equal(rep.offending_direction, [1.0, 0.0])
    # only the last generator offends
    rep = check_growth_condition(LeftInvariantForm([1.0, 1.0], plane), cone)
    assert not rep.passed
    assert np.allclose(rep.offending_direction, np.array([1.0, -1.0]) / np.sqrt(2))


@pytest.mark.parametrize("dim", [3, 5, 8])
def test_growth_ratio_is_one_over_the_margin(dim):
    # rho = sup |xi| / tau(xi) = 1 / (margin |tau|), and the unit-time
    # slice's sup norm is the same number
    cone = _tilted_lorentz_cones((3, 5, 8))[dim]
    tc = find_time_covector(cone)
    model = AbelianGroup(dim)
    form = LeftInvariantForm(tc.components, model)
    rep = check_growth_condition(form, cone)
    assert rep.passed
    assert abs(tc.margin * np.linalg.norm(tc.components) * rep.rho - 1.0) <= 1e-12
    assert section_sup_norm(cone, form) == rep.rho


def test_growth_ratio_is_the_inverse_margin_to_rounding():
    # margin and rho are read off the same least value of tau on the unit
    # extreme rays, so margin |tau| rho is 1 but for three roundings
    cones = list(_tilted_lorentz_cones((3, 5, 8, 16, 32)).values())
    for seed in range(5):
        cones += [c for c in _polyhedral_cases(np.random.default_rng(seed)).values()
                  if c.is_pointed()]
    assert len(cones) == 30
    for cone in cones:
        tc = find_time_covector(cone)
        form = LeftInvariantForm(tc.components, AbelianGroup(cone.dim))
        rho = check_growth_condition(form, cone).rho
        dual = tc.margin * np.linalg.norm(tc.components) * rho
        assert abs(dual - 1.0) <= 2 * np.finfo(float).eps


def test_growth_scale_certifies_the_tilted_8d_cone():
    # 2048 sampled rays read rho = 6.63 here, and "scale tau by 6.96" fell
    # short of the true 7.2518
    cone = _tilted_lorentz_cones((3, 5, 8))[8]
    model = AbelianGroup(8)
    form = LeftInvariantForm(cone.time_covector(), model)
    rep = check_growth_condition(form, cone)
    assert rep.passed and rep.rho >= 7.2518
    xi = cone.sample(100_000, np.random.default_rng(0))
    assert np.all(np.linalg.norm(xi, axis=1) <= rep.tau_scale * form.value_at_identity(xi))


def test_growth_refuses_a_cone_outside_the_control_space(heis):
    cone = LorentzCone(np.diag([1.0, -1.0, -1.0]), [1.0, 0.0, 0.0])
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    for check in (check_growth_condition, lambda f, c: section_sup_norm(c, f)):
        with pytest.raises(DimensionMismatchError, match="^cone dim 3 does not match "
                                                         "the control space dim 2$"):
            check(form, cone)


def test_growth_on_hyperbolic_preset_cone():
    cone = LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
    form = HyperbolicAB(0.0, 1.0)
    rep = check_growth_condition(form, cone)
    assert rep.passed
    assert rep.rho == pytest.approx(np.sqrt(5) / 2, rel=1e-6)


# ---------------------------------------------------------------------------
# reparametrization
# ---------------------------------------------------------------------------


def test_reparametrize_minkowski_straight_line(plane, mink_cone, mink_nu):
    u = ControlSignal([[2.0, 1.0]])
    traj = integrate(plane, np.zeros(2), u, nu=mink_nu, cone=mink_cone)
    form = LeftInvariantForm([1.0, 0.0], plane)
    rep = reparametrize(traj, form)
    assert rep.times[-1] == pytest.approx(2.0)       # s(t) = 2t
    vel = (rep.points[1] - rep.points[0]) / (rep.times[1] - rep.times[0])
    assert np.allclose(vel, [1.0, 0.5])
    assert rep.z is not None and rep.z[-1] == pytest.approx(traj.z[-1])


def test_reparametrize_lightlike_segment_unchanged(plane):
    u = ControlSignal([[1.0, 1.0]])
    traj = integrate(plane, np.zeros(2), u)
    rep = reparametrize(traj, LeftInvariantForm([1.0, 0.0], plane))
    assert np.allclose(rep.times, traj.times)
    assert np.allclose(rep.points, traj.points)


def test_reparametrize_carnot_final_parameter_is_potential(heis, mink_cone, rng):
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    for _ in range(20):
        u = ControlSignal(mink_cone.sample(int(rng.integers(1, 6)), rng))
        traj = integrate(heis, heis.identity(), u)
        rep = reparametrize(traj, form)
        assert rep.times[-1] == pytest.approx(potential(form, traj.endpoint),
                                              abs=1e-10)
        assert np.all(np.diff(rep.times) > 0)


def test_reparametrize_unit_speed_midpoints(heis, mink_cone, rng):
    form = LeftInvariantForm([1.0, 0.0, 0.0], heis)
    u = ControlSignal(mink_cone.sample(5, rng, relative_interior=True))
    traj = integrate(heis, heis.identity(), u)
    rep = reparametrize(traj, form)
    # chord velocities in s have unit first-layer tau component:
    # first layer is linear per segment, so the chord is exact there
    for k in range(len(rep.times) - 1):
        ds = rep.times[k + 1] - rep.times[k]
        chord = (rep.points[k + 1] - rep.points[k]) / ds
        assert form.tau0 @ chord == pytest.approx(1.0, abs=1e-6)


def test_reparametrize_stalls_on_zero_control(plane):
    u = ControlSignal([[1.0, 0.0], [0.0, 0.0]])
    traj = integrate(plane, np.zeros(2), u)
    with pytest.raises(StalledParameterError):
        reparametrize(traj, LeftInvariantForm([1.0, 0.0], plane))


def test_tau_duration_chord_fallback(plane):
    from sublorentz.dynamics import Trajectory
    pts = np.array([[0.0, 0.0], [2.0, 1.0]])
    traj = Trajectory(model=plane, times=np.array([0.0, 1.0]), points=pts)
    form = LeftInvariantForm([1.0, 0.0], plane)
    assert tau_duration(traj, form) == pytest.approx(2.0)


def test_tau_duration_hyperbolic_ab_midpoint_rule():
    hyp = HyperbolicPlane()
    u = ControlSignal([[0.2, 0.9], [0.1, 0.4]])
    traj = integrate(hyp, [0.0, 1.0], u)
    form = HyperbolicAB(0.0, 1.0)
    # left-invariant integrand is constant per segment: 0.5*(0.9 + 0.4)
    assert tau_duration(traj, form) == pytest.approx(0.65, abs=1e-9)
    assert tau_duration(traj, form) == pytest.approx(
        potential(form, traj.endpoint), abs=1e-9)


# ---------------------------------------------------------------------------
# unit-time sections
# ---------------------------------------------------------------------------


def test_section_sup_norm_lorentz(mink_cone, plane):
    res = _check_section_sup(None, ("lorentz",))
    assert res.passed, res.detail
    form = LeftInvariantForm([1.0, 0.0], plane)
    sup = section_sup_norm(mink_cone, form)
    # oracle: maximize sqrt(1 + t^2) over |t| <= 1
    t = np.linspace(-1, 1, 100_001)
    assert sup == pytest.approx(np.sqrt(1 + t ** 2).max(), rel=1e-9)


def test_section_sup_norm_polyhedral_vertices():
    # vertices g / tau(g) = (1,0) and (1,1): the norm maximum is exact
    res = _check_section_sup(None, ("polyhedral",))
    assert res.passed, res.detail


def test_growth_and_sup_norm_on_linear_image_of_polyhedral(plane):
    gens = np.array([[1.0, 0.2], [1.0, 1.0], [1.0, 0.5]])
    M = np.array([[3.0, 0.4], [0.5, 1.0]])
    cone = PolyhedralCone(gens).image(M)
    tau = np.array([1.0, 0.3])
    form = LeftInvariantForm(tau, plane)
    # exact vertex oracle: the slice's extreme points are Mg / tau(Mg)
    oracle = max(np.linalg.norm(M @ g / (tau @ (M @ g))) for g in gens)
    rep = check_growth_condition(form, cone)
    assert rep.passed and rep.rho == pytest.approx(oracle, rel=1e-12)
    sup = section_sup_norm(cone, form)
    assert sup == pytest.approx(oracle, rel=1e-12)


def test_section_sup_norm_unbounded(plane):
    cone = PolyhedralCone([[1.0, 0.0], [1.0, 1.0]])
    form = LeftInvariantForm([0.0, 1.0], plane)   # tau vanishes on (1, 0)
    with pytest.raises(UnboundedSectionError):
        section_sup_norm(cone, form)


def test_section_sup_norm_unbounded_names_the_first_offending_ray(plane):
    cone = PolyhedralCone([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
    form = LeftInvariantForm([0.0, 1.0], plane)
    with pytest.raises(UnboundedSectionError, match=r"direction \[1\.0, 0\.0\];"):
        section_sup_norm(cone, form)


# ---------------------------------------------------------------------------
# sample counts
# ---------------------------------------------------------------------------


MINK3 = np.diag([1.0, -1.0, -1.0])


@pytest.mark.parametrize("kind, count, name", [
    ("axioms", 0, "sample_count"), ("desk", -5, "n_samples")],
    ids=["axioms", "desk"])
def test_diagnostics_refuse_empty_samples(kind, count, name):
    model = AbelianGroup(3)
    cone, nu = LorentzCone(MINK3, [1.0, 0.0, 0.0]), LorentzSqrt(MINK3)
    prob = ProblemInstance(model, cone, nu, np.zeros(3), [5.0, 3.0, 0.0], segments=10)
    calls = {
        "axioms": lambda: check_antinorm_axioms(nu, cone, sample_count=count),
        "desk": lambda: check_hyperbolicity_desk(
            prob, LeftInvariantForm([1.0, 0.0, 0.0], model), n_samples=count),
    }
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {count}$"):
        calls[kind]()
