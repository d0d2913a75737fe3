import numpy as np
import pytest

from sublorentz import (
    AbelianGroup,
    CarnotAlgebra,
    CarnotGroup,
    ControlSignal,
    DimensionMismatchError,
    HyperbolicPlane,
    InvalidPointError,
    LorentzCone,
    LorentzSqrt,
    MinOfLinear,
    NEG_INF,
    PolyhedralCone,
    WrongModelError,
    admissibility_check,
    heisenberg_algebra,
    integrate,
    integrate_rk4_step2,
    minkowski_area_algebra,
    oriented_area,
    sl_length,
    trajectory_to_csv,
)
from sublorentz.dynamics import Trajectory, _area_rank, _csv
from sublorentz.verify import (
    _check_refinement,
    _check_rk4_crosscheck,
    _check_stokes,
    _check_velocity_inclusion,
)


def test_control_signal_validation():
    u = ControlSignal([[1.0, 2.0], [3.0, 4.0]])
    assert u.segments == 2 and u.dim == 2
    with pytest.raises(ValueError):
        ControlSignal(np.array([[np.inf, 0.0]]))
    doubled = u.split_segments()
    assert doubled.segments == 4
    assert np.allclose(doubled.values[:2], u.values[0])


def test_trajectory_invariants(plane):
    with pytest.raises(ValueError, match="increase"):
        Trajectory(model=plane, times=np.array([0.0, 0.0, 1.0]),
                   points=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="non-decreasing"):
        Trajectory(model=plane, times=np.array([0.0, 1.0]),
                   points=np.zeros((2, 2)), z=np.array([1.0, 0.0]))


def test_integrate_constant_control_is_one_parameter_subgroup(heis):
    u = ControlSignal(np.tile([[1.0, 2.0]], (8, 1)))
    traj = integrate(heis, heis.identity(), u)
    # single exponential: endpoint exp(u) has no second-layer part
    assert np.allclose(traj.endpoint, [1.0, 2.0, 0.0], atol=1e-14)


def test_integrate_l_path_second_layer(heis):
    # right then up: y' = (x0 u1 - x1 u0)/2 integrates to 1/8
    u = ControlSignal([[1.0, 0.0], [0.0, 1.0]])
    traj = integrate(heis, heis.identity(), u)
    assert np.allclose(traj.endpoint, [0.5, 0.5, 0.125], atol=1e-15)


def test_integrate_abelian_sum(plane, rng):
    u = ControlSignal(rng.normal(size=(10, 2)))
    traj = integrate(plane, np.zeros(2), u)
    assert np.allclose(traj.endpoint, u.values.mean(axis=0))


def test_integrate_dimension_mismatch(heis):
    with pytest.raises(ValueError):
        integrate(heis, heis.identity(), ControlSignal([[1.0, 0.0, 0.0, 0.0]]))


def test_integrate_tracks_accumulated_objective(plane, mink_cone, mink_nu):
    u = ControlSignal([[5.0, 3.0], [5.0, 3.0]])
    traj = integrate(plane, np.zeros(2), u, nu=mink_nu, cone=mink_cone)
    assert np.allclose(traj.z, [0.0, 2.0, 4.0])


def test_sl_length_examples(mink_cone, mink_nu):
    assert sl_length(mink_nu, mink_cone, ControlSignal([[5.0, 3.0]])) == \
        pytest.approx(4.0)
    twin = ControlSignal([[1.0, 0.6], [1.0, -0.6]])
    assert sl_length(mink_nu, mink_cone, twin) == pytest.approx(0.8)
    # same displacement as the straight path of length 1: moving costs time
    assert sl_length(mink_nu, mink_cone, twin) < 1.0
    off = ControlSignal([[1.0, 0.0], [0.3, 2.0]])
    assert sl_length(mink_nu, mink_cone, off) == NEG_INF


def test_admissibility_check(mink_cone):
    good = ControlSignal([[2.0, 1.0], [1.0, 1.0]])
    assert admissibility_check(mink_cone, good).ok
    bad = ControlSignal([[2.0, 1.0], [0.5, 2.0]])
    rep = admissibility_check(mink_cone, bad)
    assert not rep.ok
    assert rep.violations[0][0] == 1
    assert "outside" in rep.summary()


# Each case: a cone, an antinorm on it, controls mixing in-cone rows
# (interior, boundary, zero) with off-cone ones, and the expected per-row
# rates nu(u_k) (-inf off the cone).
MIXED_CASES = {
    "polyhedral": (
        PolyhedralCone([[1.0, 0.0], [1.0, 1.0]]),
        MinOfLinear([[1.0, -1.0], [0.0, 1.0]]),
        [[2.0, 1.0], [1.0, 0.0], [0.5, 2.0], [0.0, 0.0], [-1.0, 0.0]],
        [1.0, 0.0, NEG_INF, 0.0, NEG_INF]),
    "linear-image": (
        # image of the Minkowski future cone under M = [[2, 0.5], [0, 1]];
        # the paired antinorm is sqrt of the form pulled back by M^-1
        LorentzCone([[1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]).image(
            [[2.0, 0.5], [0.0, 1.0]]),
        LorentzSqrt([[0.25, -0.125], [-0.125, -0.9375]]),
        [[2.0, 0.0], [3.0, 1.0], [2.5, 1.0], [3.0, 2.0], [-2.0, 0.0], [0.0, 0.0]],
        [1.0, 0.75, 0.0, NEG_INF, NEG_INF, 0.0]),
}


@pytest.mark.parametrize("case", sorted(MIXED_CASES))
def test_mixed_rows_accumulated_objective(case, plane):
    cone, nu, rows, rates = MIXED_CASES[case]
    h = 1.0 / len(rows)
    traj = integrate(plane, np.zeros(2), ControlSignal(rows), nu=nu, cone=cone)
    expected = np.concatenate([[0.0], np.cumsum(h * np.array(rates))])
    assert traj.z == pytest.approx(expected, rel=1e-12, abs=1e-7)


@pytest.mark.parametrize("case", sorted(MIXED_CASES))
def test_mixed_rows_length_and_admissibility(case):
    cone, nu, rows, rates = MIXED_CASES[case]
    assert sl_length(nu, cone, ControlSignal(rows)) == NEG_INF
    inside = [r for r, rate in zip(rows, rates) if rate != NEG_INF]
    expected = sum(rate for rate in rates if rate != NEG_INF) / len(inside)
    assert sl_length(nu, cone, ControlSignal(inside)) == pytest.approx(
        expected, rel=1e-12, abs=1e-7)
    rep = admissibility_check(cone, ControlSignal(rows))
    assert not rep.ok
    assert rep.violations == [(k, rows[k]) for k, rate in enumerate(rates)
                              if rate == NEG_INF]
    assert admissibility_check(cone, ControlSignal(inside)).ok


def test_oriented_area_l_path(heis):
    u = ControlSignal([[1.0, 0.0], [0.0, 1.0]])
    traj = integrate(heis, heis.identity(), u)
    # shoelace over the triangle (0,0), (1/2,0), (1/2,1/2)
    assert oriented_area(traj, 1) == pytest.approx(0.125, abs=1e-15)
    assert traj.endpoint[2] == pytest.approx(oriented_area(traj, 1), abs=1e-15)


def test_oriented_area_straight_path_vanishes(heis):
    u = ControlSignal(np.tile([[2.0, 1.0]], (6, 1)))
    traj = integrate(heis, heis.identity(), u)
    assert oriented_area(traj, 1) == pytest.approx(0.0, abs=1e-14)


def test_oriented_area_reversed_l_path(heis):
    u = ControlSignal([[0.0, 1.0], [1.0, 0.0]])
    traj = integrate(heis, heis.identity(), u)
    assert oriented_area(traj, 1) == pytest.approx(-0.125, abs=1e-15)


def test_oriented_area_wrong_model(plane):
    traj = integrate(plane, np.zeros(2), ControlSignal([[1.0, 0.0]]))
    with pytest.raises(WrongModelError):
        oriented_area(traj, 1)
    fil = CarnotGroup(heisenberg_algebra())
    traj2 = integrate(fil, fil.identity(), ControlSignal([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="spatial index"):
        oriented_area(traj2, 2)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_area_rank_reads_the_area_tracking_structure_constants(r):
    assert _area_rank(CarnotGroup(minkowski_area_algebra(r))) == r


@pytest.mark.parametrize("model", [
    AbelianGroup(3), AbelianGroup(5),
    CarnotGroup(CarnotAlgebra.from_brackets((2, 1, 1), {(0, 1): {2: 1.0},
                                                        (0, 2): {3: 1.0}})),
    CarnotGroup(CarnotAlgebra.from_brackets((2, 1), {(0, 1): {2: 2.0}}))],
    ids=["abelian-3", "abelian-5", "engel", "heisenberg-scaled"])
def test_area_rank_refuses_other_brackets(model):
    # the zero tables have point dim 2 r + 1: only the table comparison stops them
    with pytest.raises(WrongModelError):
        _area_rank(model)


def test_area_rank_builds_no_algebra(monkeypatch):
    # the reference table is written out, so no call validates an algebra
    model = CarnotGroup(minkowski_area_algebra(2))
    u = ControlSignal([[1.0, 0.2, -0.3], [1.5, -0.4, 0.1], [0.8, 0.3, 0.2]])
    traj = integrate(model, model.identity(), u)
    # point dim 3 = 2 r + 1: only the table comparison refuses it
    flat = integrate(AbelianGroup(3), np.zeros(3), ControlSignal([[1.0, 0.0, 0.0]]))
    areas = [oriented_area(traj, i) for i in (1, 2)]
    endpoint = integrate_rk4_step2(model, model.identity(), u)

    def refuse(self):
        raise AssertionError("an algebra was validated")
    monkeypatch.setattr(CarnotAlgebra, "_validate", refuse)
    assert [oriented_area(traj, i) for i in (1, 2)] == areas
    assert np.array_equal(integrate_rk4_step2(model, model.identity(), u), endpoint)
    with pytest.raises(WrongModelError):
        oriented_area(flat, 1)


@pytest.mark.parametrize("r", [1, 2])
def test_stokes_identity_bulk(r, rng):
    res = _check_stokes(rng, 200, (r,))
    assert res.passed, res.detail


def test_velocity_inclusion_first_layer_exact(rng):
    res = _check_velocity_inclusion(rng, 100)
    assert res.passed, res.detail


def test_rk4_crosscheck(rng):
    res = _check_rk4_crosscheck(rng, 1, (1, 8, 64))
    assert res.passed, res.detail


@pytest.mark.parametrize("r", [1, 2])
def test_rk4_takes_point_dimension_controls(r, rng):
    # the oracle kept only the first layer of such a control, so on r = 1
    # the rows [[1, .5, .7], [.8, -.2, 0]] gave y = -0.075, not 0.275
    model = CarnotGroup(minkowski_area_algebra(r))
    rows = np.vstack([[1.0, 0.5] + [0.1] * (r - 1) + [0.7] + [-0.3] * (r - 1),
                      rng.uniform(-0.5, 0.5, (3, 2 * r + 1))])
    x0 = rng.uniform(-1.0, 1.0, 2 * r + 1)
    u = ControlSignal(rows)
    exact = integrate(model, x0, u).points[-1]
    assert np.allclose(integrate_rk4_step2(model, x0, u), exact, rtol=0.0, atol=1e-8)
    with pytest.raises(DimensionMismatchError):
        integrate_rk4_step2(model, x0, ControlSignal(np.ones((2, 2 * r + 2))))


def test_rk4_rejects_non_step2_model(plane):
    with pytest.raises(WrongModelError):
        integrate_rk4_step2(plane, np.zeros(2), ControlSignal([[1.0, 0.0]]))


def test_refinement_consistency(rng):
    res = _check_refinement(rng, 30)
    assert res.passed, res.detail


def test_trajectory_csv_format(heis, mink_cone, mink_nu):
    u = ControlSignal([[2.0, 1.0], [2.0, -1.0]])
    traj = integrate(heis, heis.identity(), u, nu=mink_nu, cone=mink_cone)
    csv = trajectory_to_csv(traj)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x0,x1,x2,z"
    assert len(lines) == 4  # header + N + 1 nodes
    assert csv == trajectory_to_csv(traj)  # deterministic
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[-1]) == 0.0


def test_csv_bytes_of_trajectories_and_histories():
    # 17 significant digits, as "%.17g" writes them: signed zeros, subnormals,
    # huge values and NaN included
    points = [[-0.0, 5e-324], [1e300, np.nan], [0.5, 1.0 / 3.0]]
    traj = Trajectory(AbelianGroup(2), [0.0, 5e-324, 1e300], points)
    assert trajectory_to_csv(traj) == (
        "t,x0,x1,z\n"
        "0,-0,4.9406564584124654e-324,\n"
        "4.9406564584124654e-324,1.0000000000000001e+300,nan,\n"
        "1.0000000000000001e+300,0.5,0.33333333333333331,\n")
    traj = Trajectory(AbelianGroup(2), [0.0, 5e-324, 1e300], points,
                      z=[-0.0, np.nan, 1e300])
    assert trajectory_to_csv(traj) == (
        "t,x0,x1,z\n"
        "0,-0,4.9406564584124654e-324,-0\n"
        "4.9406564584124654e-324,1.0000000000000001e+300,nan,nan\n"
        "1.0000000000000001e+300,0.5,0.33333333333333331,1.0000000000000001e+300\n")
    history = [0.1, -0.0, 5e-324, 1e300, np.nan]
    assert _csv(["iteration", "objective"], list(enumerate(history))) == (
        "iteration,objective\n0,0.10000000000000001\n1,-0\n"
        "2,4.9406564584124654e-324\n3,1.0000000000000001e+300\n4,nan\n")


def test_trajectory_csv_hyperbolic_header():
    hyp = HyperbolicPlane()
    traj = integrate(hyp, [0.0, 1.0], ControlSignal([[0.1, 0.2]]))
    assert trajectory_to_csv(traj).startswith("t,x,y,z\n")
    # z column empty when no length structure was attached
    assert trajectory_to_csv(traj).strip().split("\n")[1].endswith(",")


def test_integrate_keeps_its_errors_on_extreme_flows():
    # h beta = 800: e^800 overflows the flow off the plane, e^-800 underflows
    # it onto y = 0; the points are checked after the whole pass
    hyp = HyperbolicPlane()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            integrate(hyp, [0.0, 1.0], ControlSignal([[0.0, 1600.0], [1.0, 1600.0]]))
        with pytest.raises(InvalidPointError):
            integrate(hyp, [0.0, 1.0], ControlSignal([[0.0, -1600.0], [1.0, -1600.0]]))
