import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

from sublorentz import (
    DimensionMismatchError,
    LinearImageCone,
    LorentzCone,
    LorentzSqrt,
    MinOfLinear,
    NEG_INF,
    NotPointedError,
    PolyhedralCone,
    ZeroAntinorm,
    antinorm_eval,
    check_antinorm_axioms,
    find_time_covector,
)
from sublorentz.verify import (
    EuclideanNormCandidate,
    _check_antinorm_axioms,
    _check_covector_margins,
    _check_homogeneity,
    _check_membership_oracle,
    _check_polyhedral_projection,
    _check_reverse_triangle,
    _polyhedral_cases,
    _projection_rows,
)

MINK = [[1.0, 0.0], [0.0, -1.0]]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_lorentz_membership_examples(mink_cone):
    assert mink_cone.contains([2.0, 1.0])
    assert not mink_cone.contains([1.0, 2.0])
    assert mink_cone.contains([1.0, 1.0])  # lightlike boundary
    assert not mink_cone.contains([-2.0, 1.0])  # past nappe
    assert mink_cone.contains([0.0, 0.0])


def test_polyhedral_membership():
    cone = PolyhedralCone([[1.0, 0.0], [1.0, 1.0]])
    assert cone.contains([2.0, 1.0])
    assert cone.contains([1.0, 0.0])
    assert not cone.contains([0.0, 1.0])
    assert not cone.contains([-1.0, 0.0])


def test_membership_agrees_with_direct_sign_test(rng):
    res = _check_membership_oracle(rng, 1000)
    assert res.passed, res.detail


def test_polyhedral_membership_agrees_with_sector_oracle(rng):
    # 2-d pointed cone: membership is an angular-sector test
    g1, g2 = np.array([1.0, -0.3]), np.array([0.6, 1.1])
    cone = PolyhedralCone([g1, g2])
    a1, a2 = np.arctan2(g1[1], g1[0]), np.arctan2(g2[1], g2[0])
    lo, hi = min(a1, a2), max(a1, a2)
    v = rng.normal(size=(1000, 2)) * 2.0
    ang = np.arctan2(v[:, 1], v[:, 0])
    oracle = (ang >= lo - 1e-12) & (ang <= hi + 1e-12)
    mine = np.array([cone.contains(x) for x in v])
    # exclude vectors within a hair of the boundary where the band differs
    clear = np.abs(ang - lo) > 1e-6
    clear &= np.abs(ang - hi) > 1e-6
    assert np.array_equal(mine[clear], oracle[clear])


def test_constructed_members_are_members(rng):
    G = rng.normal(size=(4, 3))
    cone = PolyhedralCone(G)
    lam = rng.exponential(1.0, size=(200, 4))
    for v in lam @ G:
        assert cone.contains(v)


def test_membership_dimension_mismatch(mink_cone):
    with pytest.raises(ValueError):
        mink_cone.contains([1.0, 0.0, 0.0])


ROW_CONES = {
    "polyhedral": PolyhedralCone([[1.0, 0.0], [1.0, 1.0]]),
    "lorentz": LorentzCone(MINK, [1.0, 0.0]),
    "lorentz-3d": LorentzCone(np.diag([1.0, -1.0, -1.0]), [1.0, 0.0, 0.0]),
    "image-of-polyhedral": LinearImageCone(PolyhedralCone([[1.0, 0.2], [1.0, 1.0]]),
                                           [[3.0, 0.4], [0.5, 1.0]]),
    "image-of-lorentz": LinearImageCone(LorentzCone(MINK, [1.0, 0.0]),
                                        [[2.0, 0.5], [0.0, 1.0]]),
}


@pytest.mark.parametrize("kind", sorted(ROW_CONES))
def test_contains_rows_match_the_row_loop(kind, rng):
    cone = ROW_CONES[kind]
    rays = cone.extreme_directions(8, rng)
    V = np.vstack([rays, 3.0 * rays, -rays, np.zeros(cone.dim),
                   cone.sample(50, rng), rng.normal(size=(50, cone.dim))])
    rows = cone.contains(V)
    assert rows.dtype == bool and rows.shape == (len(V),)
    assert np.array_equal(rows, [cone.contains(v) for v in V])
    assert rows[:2 * len(rays)].all() and rows[3 * len(rays)]   # rays and zero
    assert not rows[2 * len(rays):3 * len(rays)].any()           # their negatives
    single = cone.contains(V[0])
    assert np.ndim(single) == 0 and single
    if kind.endswith("polyhedral"):
        base = cone if kind == "polyhedral" else cone.base
        W = V if kind == "polyhedral" else V @ np.linalg.inv(cone.map).T
        oracle = _nnls_loop(base, W)[1] <= 1e-9 * np.linalg.norm(W, axis=1)
        assert np.array_equal(rows, oracle)


@pytest.mark.parametrize("kind", sorted(ROW_CONES))
def test_contains_keeps_its_errors(kind):
    cone = ROW_CONES[kind]
    with pytest.raises(DimensionMismatchError):
        cone.contains(np.ones(cone.dim + 1))
    with pytest.raises(DimensionMismatchError):
        cone.contains(np.ones((2, cone.dim + 1)))
    with pytest.raises(DimensionMismatchError):
        cone.contains(np.ones((2, 2, cone.dim)))
    with pytest.raises(ValueError, match="non-finite"):
        cone.contains(np.full(cone.dim, np.nan))


def _nnls_loop(cone, V):
    """The projections and residuals of scipy's nnls, one row at a time on
    the cone's generators as given."""
    G = cone.generators.T
    fits = [nnls(G, v) for v in V]
    return (np.array([G @ x for x, _ in fits]).reshape(V.shape),
            np.array([r for _, r in fits]))


NNLS_CONES = _polyhedral_cases(np.random.default_rng(7))


@pytest.mark.parametrize("kind", sorted(NNLS_CONES))
def test_polyhedral_projection_matches_the_nnls_row_loop(kind, rng):
    cone = NNLS_CONES[kind]
    V = _projection_rows(cone, rng, 200)
    ref, ref_residual = _nnls_loop(cone, V)
    P = cone.project_batch(V)
    scale = np.maximum(1.0, np.linalg.norm(V, axis=1))
    assert P.shape == V.shape
    assert np.all(np.abs(P - ref).max(axis=1) <= 1e-12 * scale)
    assert np.all(np.abs(np.linalg.norm(V - P, axis=1) - ref_residual) <= 1e-12 * scale)
    assert np.array_equal(cone.contains(V),
                          ref_residual <= 1e-9 * np.linalg.norm(V, axis=1))
    if cone.is_pointed():
        assert (ref == 0.0).all(axis=1).sum() > 20     # rows in the polar cone


def test_nearly_parallel_generators_are_refused_not_fatal(rng):
    # the Gram system cannot resolve a generator 1e-9 from another; it is
    # refused, and the projection stays within that angle of the oracle's
    cone = PolyhedralCone([[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0], [0.0, 0.3, 1.0]])
    V = rng.normal(size=(500, 3))
    scale = np.maximum(1.0, np.linalg.norm(V, axis=1))
    error = np.abs(cone.project_batch(V) - _nnls_loop(cone, V)[0]).max(axis=1)
    assert np.all(error <= 1e-8 * scale)


def test_polyhedral_projection_meets_moreau_conditions():
    res = _check_polyhedral_projection(3, 2000)
    assert res.passed, res.detail


@pytest.mark.parametrize("generators", [[[1.0, 0.0], [1.0, 1.0]], [[0.0, 0.0]]],
                         ids=["sector", "trivial"])
def test_polyhedral_project_batch_of_no_rows(generators, mink_cone):
    empty = np.zeros((0, 2))
    assert PolyhedralCone(generators).project_batch(empty).shape == (0, 2)
    assert mink_cone.project_batch(empty).shape == (0, 2)


@pytest.mark.parametrize("generators", [[[1.0, 0.0], [1.0, 1.0]], [[0.0, 0.0]]],
                         ids=["sector", "trivial"])
def test_polyhedral_project_batch_refuses_a_non_finite_row(generators):
    # a stack with a bad row raises what that row raises alone
    cone = PolyhedralCone(generators)
    for V in ([[1.0, np.nan]], [[1.0, 2.0], [1.0, np.nan]]):
        with pytest.raises(ValueError, match="non-finite"):
            cone.project_batch(np.array(V))


def test_scipy_optimize_loads_only_for_the_polyhedral_lps():
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import sublorentz, sublorentz.cli
        from sublorentz import (CarnotGroup, LorentzCone, LorentzSqrt, PolyhedralCone,
                                ProblemInstance, SolveOptions, heisenberg_algebra,
                                solve_longest)
        mink = [[1.0, 0.0], [0.0, -1.0]]
        prob = ProblemInstance(CarnotGroup(heisenberg_algebra()),
                               LorentzCone(mink, [1.0, 0.0]), LorentzSqrt(mink),
                               np.zeros(3), [3.0, 0.5, 0.2], segments=10)
        solve_longest(prob, SolveOptions(restarts=1, max_iter=5, inner_iter=5))
        assert "scipy.optimize" not in sys.modules, "loaded by a Lorentz solve"
        PolyhedralCone([[1.0, 0.0], [1.0, 1.0]]).is_pointed()
        assert "scipy.optimize" in sys.modules, "not loaded by is_pointed"
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# pointedness and time covectors
# ---------------------------------------------------------------------------


def test_is_pointed_examples(mink_cone):
    assert mink_cone.is_pointed()
    assert not PolyhedralCone([[1, 0], [-1, 0], [0, 1]]).is_pointed()
    assert PolyhedralCone([[1, 0]]).is_pointed()


def test_halfspace_cone_not_pointed():
    assert not PolyhedralCone([[1, 0], [-1, 1], [-1, -1]]).is_pointed()


def test_find_time_covector_lorentz(mink_cone):
    tc = find_time_covector(mink_cone)
    assert np.allclose(tc.components, [1.0, 0.0])
    assert tc.margin > 0


def test_find_time_covector_polyhedral_by_direct_evaluation():
    gens = np.array([[1.0, 0.0], [1.0, 1.0]])
    tc = find_time_covector(PolyhedralCone(gens))
    for g in gens:
        assert tc(g) / np.linalg.norm(tc.components) > 1e-12
    assert tc.margin > 1e-12


def test_find_time_covector_unpointed_raises():
    with pytest.raises(NotPointedError):
        find_time_covector(PolyhedralCone([[1, 0], [-1, 0], [0, 1]]))


def test_covector_margin_positive_on_pointed_cones(rng):
    res = _check_covector_margins(rng)
    assert res.passed, res.detail


def test_linear_image_cone(mink_cone):
    M = np.array([[2.0, 1.0], [0.0, 1.0]])
    image = LinearImageCone(mink_cone, M)
    assert image.is_pointed()
    for v in (M @ np.array([2.0, 1.0]), M @ np.array([1.0, -1.0])):
        assert image.contains(v)
    assert not image.contains(M @ np.array([1.0, 2.0]))
    tc = find_time_covector(image)
    for d in image.sample(100, np.random.default_rng(0)):
        if np.linalg.norm(d) > 1e-9:
            assert tc(d) > 0


def test_linear_image_margin_over_image_generators():
    gens = np.array([[1.0, 0.2], [1.0, 1.0]])
    M = np.array([[3.0, 0.4], [0.5, 1.0]])
    tc = find_time_covector(LinearImageCone(PolyhedralCone(gens), M))
    image = gens @ M.T
    unit = image / np.linalg.norm(image, axis=1, keepdims=True)
    direct = (unit @ tc.components).min() / np.linalg.norm(tc.components)
    assert tc.margin == pytest.approx(direct, rel=1e-12)
    assert tc.margin == pytest.approx(0.40178465, abs=1e-8)


@pytest.mark.parametrize("base", [PolyhedralCone([[1.0, 0.2], [1.0, 1.0]]),
                                  LorentzCone(MINK, [1, 0])])
def test_linear_image_project_batch_matches_row_reference(base, rng):
    M = np.array([[3.0, 0.4], [0.5, 1.0]])
    image = LinearImageCone(base, M)
    V = rng.normal(size=(200, 2)) * 3.0
    ref = np.array([M @ base.project_batch((np.linalg.inv(M) @ v)[None])[0]
                    for v in V])
    assert np.allclose(image.project_batch(V), ref, rtol=1e-12, atol=0.0)


def test_extreme_directions_are_unit_cone_members(rng):
    cones = [LorentzCone(MINK, [1, 0]),
             LorentzCone(np.diag([1.0, -1.0, -1.0]), [1, 0, 0]),
             PolyhedralCone([[2.0, 0.0], [1.0, 1.0], [0.0, 0.0]]),
             LinearImageCone(LorentzCone(MINK, [1, 0]), [[2.0, 1.0], [0.0, 1.0]])]
    for cone in cones:
        dirs = cone.extreme_directions(64, rng)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert all(cone.contains(d) for d in dirs)


# ---------------------------------------------------------------------------
# antinorm evaluation
# ---------------------------------------------------------------------------


def test_lorentz_sqrt_examples(mink_cone, mink_nu):
    assert antinorm_eval(mink_nu, mink_cone, [5.0, 3.0]) == pytest.approx(4.0)
    assert antinorm_eval(mink_nu, mink_cone, [1.0, 1.0]) == pytest.approx(0.0)
    assert antinorm_eval(mink_nu, mink_cone, [1.0, 2.0]) == NEG_INF


def test_zero_antinorm(mink_cone):
    nu = ZeroAntinorm()
    assert antinorm_eval(nu, mink_cone, [2.0, 1.0]) == 0.0
    assert antinorm_eval(nu, mink_cone, [1.0, 2.0]) == NEG_INF


def test_antinorm_eval_rows(mink_cone, mink_nu):
    V = np.array([[5.0, 3.0], [1.0, 1.0], [1.0, 2.0], [0.0, 0.0], [-2.0, 1.0]])
    for nu in (mink_nu, MinOfLinear([[1.0, 1.0], [1.0, -1.0]]), ZeroAntinorm()):
        rows = antinorm_eval(nu, mink_cone, V)
        assert rows.shape == (len(V),)
        assert np.array_equal(rows[[2, 4]], [NEG_INF, NEG_INF])
        assert np.array_equal(rows[:4:3], nu.values_on_cone(V)[:4:3])
        assert np.ndim(antinorm_eval(nu, mink_cone, V[0])) == 0
    assert ZeroAntinorm().values_on_cone(V).shape == (len(V),)
    assert ZeroAntinorm().values_on_cone(V[0]).shape == ()


def test_zero_antinorm_grads_are_zero(mink_cone, rng):
    V = mink_cone.sample(20, rng)
    grads = ZeroAntinorm().grads_on_cone(V)
    assert grads.shape == V.shape and np.all(grads == 0.0)


def test_min_of_linear_values(mink_cone):
    nu = MinOfLinear([[1.0, 1.0], [1.0, -1.0]])
    assert antinorm_eval(nu, mink_cone, [3.0, 1.0]) == pytest.approx(2.0)
    assert antinorm_eval(nu, mink_cone, [1.0, 1.0]) == pytest.approx(0.0)
    assert antinorm_eval(nu, mink_cone, [0.0, 1.0]) == NEG_INF


def test_homogeneity_example(mink_cone, mink_nu):
    assert antinorm_eval(mink_nu, mink_cone, [10.0, 6.0]) == pytest.approx(
        2.0 * antinorm_eval(mink_nu, mink_cone, [5.0, 3.0]))


def test_homogeneity_property_bulk(rng):
    res = _check_homogeneity(rng, 10_000)
    assert res.passed, res.detail


def test_reverse_triangle_bulk(rng):
    res = _check_reverse_triangle(rng, 10_000)
    assert res.passed, res.detail


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99),
       st.floats(0.1, 10), st.floats(0.1, 10))
def test_reverse_triangle_hypothesis(s1, s2, m1, m2):
    nu = LorentzSqrt(MINK)
    a = m1 * np.array([1.0, s1])
    b = m2 * np.array([1.0, s2])
    assert nu.values_on_cone(a + b) >= nu.values_on_cone(a) + nu.values_on_cone(b) - 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.99, 0.99), st.floats(0.01, 100), st.floats(0.01, 50))
def test_homogeneity_hypothesis(slope, mag, lam):
    nu = LorentzSqrt(MINK)
    v = mag * np.array([1.0, slope])
    assert nu.values_on_cone(lam * v) == pytest.approx(lam * nu.values_on_cone(v),
                                                       rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def test_axioms_pass_for_lorentz_sqrt(mink_nu):
    res = _check_antinorm_axioms(7, 2000, [mink_nu])
    assert res.passed, res.detail


def test_axioms_pass_for_min_of_linear():
    res = _check_antinorm_axioms(7, 2000, [MinOfLinear([[1, 1], [1, -1]])])
    assert res.passed, res.detail


def test_axioms_identically_zero_flag(mink_cone):
    rep = check_antinorm_axioms(ZeroAntinorm(), mink_cone, sample_count=500, seed=0)
    assert rep.passed
    assert rep.identically_zero


def test_superadditivity_example_pair(mink_cone, mink_nu):
    a, b = np.array([2.0, 1.0]), np.array([2.0, -1.0])
    lhs = mink_nu.values_on_cone(a + b)
    rhs = mink_nu.values_on_cone(a) + mink_nu.values_on_cone(b)
    assert lhs == pytest.approx(4.0)
    assert rhs == pytest.approx(2 * np.sqrt(3.0))
    assert lhs >= rhs


def test_euclidean_candidate_rejected_with_counterexample(mink_cone):
    rep = check_antinorm_axioms(EuclideanNormCandidate(), mink_cone,
                                sample_count=500, seed=3)
    assert not rep.passed
    assert rep.superadditivity_failures > 0
    ce = rep.counterexample
    assert ce["axiom"] == "superadditivity"
    # the reported pair really violates superadditivity
    a, b = np.array(ce["xi"]), np.array(ce["zeta"])
    assert np.linalg.norm(a + b) < np.linalg.norm(a) + np.linalg.norm(b) - 1e-9


def test_bad_min_of_linear_family_caught():
    # family negative on part of the cone: nonnegativity must fail
    cone = PolyhedralCone([[1.0, 0.0], [1.0, 1.0]])
    rep = check_antinorm_axioms(MinOfLinear([[0.0, 1.0], [1.0, -2.0]]), cone,
                                sample_count=2000, seed=1)
    assert not rep.passed
    assert rep.nonnegativity_failures > 0 or rep.positivity_failures > 0


def test_axiom_report_summary_strings(mink_cone, mink_nu):
    good = check_antinorm_axioms(mink_nu, mink_cone, sample_count=100, seed=0)
    assert "hold" in good.summary()
    bad = check_antinorm_axioms(EuclideanNormCandidate(), mink_cone,
                                sample_count=100, seed=0)
    assert "FAILED" in bad.summary()
