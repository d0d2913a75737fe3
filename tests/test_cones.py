import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog, minimize, nnls

from sublorentz import (
    DimensionMismatchError,
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
from sublorentz.cones import _unit_rows
from sublorentz.groups import MAX_DIM
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
    _tilted_lorentz_cones,
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


def test_lorentz_signature_cut_is_relative():
    # A and c A are accepted or refused together, so an image, whose form is
    # rescaled, keeps the verdict of the cone it came from
    for c in (1e-200, 1.0, 1e200):
        LorentzCone(c * np.diag([1e11, -1.0]), [1.0, 0.0]).image(np.eye(2))
        with pytest.raises(ValueError, match="signature"):
            LorentzCone(c * np.diag([1e12, -1.0]), [1.0, 0.0])


@pytest.mark.parametrize("scale", [1e200, 1e-20])
def test_nappe_selector_of_any_scale_selects_one_nappe(scale):
    # a selector of 1e200 used to overflow the band of the nappe test and
    # admit the past nappe; one of 1e-20 used to be refused as vanishing
    cone = LorentzCone(MINK, [scale, 0.0])
    assert cone.contains([1.0, 0.0]) and cone.contains([2.0, 1.0])
    assert not cone.contains([-1.0, 0.0]) and not cone.contains([-2.0, 1.0])


def test_form_of_1e300_keeps_its_values_in_range():
    # v^T A v used to be inf - inf = nan for moderate vectors, which every
    # test then refused
    with np.errstate(all="raise"):
        cone = LorentzCone(np.diag([1e300, -1e300]), [1.0, 0.0])
        assert cone.contains([2e5, 1e5])
        assert np.array_equal(cone.contains([[2e5, 1e5], [1e5, 2e5], [-2e5, 1e5]]),
                              [True, False, False])
        assert cone.on_extreme_ray([1e5, 1e5]) and not cone.on_extreme_ray([2e5, 1e5])


def test_zero_nappe_selector_is_refused():
    with pytest.raises(ValueError, match="vanishes"):
        LorentzCone(MINK, [0.0, 0.0])


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
    "image-of-polyhedral": PolyhedralCone([[1.0, 0.2], [1.0, 1.0]]).image(
        [[3.0, 0.4], [0.5, 1.0]]),
    "image-of-lorentz": LorentzCone(MINK, [1.0, 0.0]).image([[2.0, 0.5], [0.0, 1.0]]),
}


def _boundary_rays(cone, rng, n=8):
    """Unit boundary rays: the unit generators of a polyhedral cone, n light
    rays W^-1 (1, phi) with random unit phi of a Lorentz cone."""
    if isinstance(cone, PolyhedralCone):
        return cone._unit
    phi = rng.standard_normal((n, cone.dim - 1))
    V = np.hstack([np.ones((n, 1)), phi / np.linalg.norm(phi, axis=1, keepdims=True)])
    V = V @ cone._Winv.T
    return V / np.linalg.norm(V, axis=1, keepdims=True)


@pytest.mark.parametrize("kind", sorted(ROW_CONES))
def test_contains_rows_match_the_row_loop(kind, rng):
    cone = ROW_CONES[kind]
    rays = _boundary_rays(cone, rng)
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
        oracle = _nnls_loop(cone, V)[1] <= 1e-9 * np.linalg.norm(V, axis=1)
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


@pytest.mark.parametrize("generators, unit, projection", [
    ([[1e300, 0.0], [0.0, -1e300]], [[1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]),
    ([[1e-200, 0.0], [0.0, 1e-200]], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.5]),
    ([[1e-170, 1e-170], [1e-170, -1e-170]],
     np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), [1.0, 0.5])],
    ids=["overflow", "underflow", "subnormal"])
def test_extreme_generators_keep_their_directions(generators, unit, projection):
    # a squared norm outside the normal range once gave zero or dropped rows
    cone = PolyhedralCone(generators)
    np.testing.assert_allclose(cone._unit, unit, rtol=1e-15, atol=0.0)
    assert cone.is_pointed()
    np.testing.assert_allclose(cone.project_batch([[1.0, 0.5]]), [projection],
                               rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("generators", [[[1.0, 1.0], [1.0, -1.0]],
                                        [[1.0, 0.0], [1.0, 0.6], [1.0, -0.6]],
                                        [[3.0, 4.0, 0.0], [1e-150, 0.0, 1e-150]]])
def test_unit_generators_are_the_plain_normalization(generators):
    # rows whose squared norm stays in range are divided by np.linalg.norm
    G = np.array(generators)
    assert np.array_equal(PolyhedralCone(G)._unit,
                          G / np.linalg.norm(G, axis=1, keepdims=True))


PROJECT_CONES = {"sector": ROW_CONES["polyhedral"],
                 "trivial": PolyhedralCone([[0.0, 0.0]]),
                 "lorentz": ROW_CONES["lorentz"],
                 "image-of-lorentz": ROW_CONES["image-of-lorentz"]}


@pytest.mark.parametrize("kind", sorted(PROJECT_CONES))
def test_polyhedral_project_batch_of_no_rows(kind):
    cone = PROJECT_CONES[kind]
    assert cone.project_batch(np.zeros((0, 2))).shape == (0, 2)
    # a single vector is answered as a vector, the projection of its row
    v = np.array([0.3, 2.0])
    assert np.array_equal(cone.project_batch(v), cone.project_batch(v[None])[0])


@pytest.mark.parametrize("kind", sorted(PROJECT_CONES))
def test_polyhedral_project_batch_refuses_a_non_finite_row(kind):
    # a stack with a bad row raises what that row raises alone
    cone = PROJECT_CONES[kind]
    for V in ([1.0, np.nan], [[1.0, np.nan]], [[1.0, 2.0], [1.0, np.nan]]):
        with pytest.raises(ValueError, match="non-finite"):
            cone.project_batch(np.array(V))


def test_cli_and_polyhedral_cones_run_without_scipy(tmp_path):
    config = tmp_path / "polyhedral.json"
    config.write_text(json.dumps({
        "version": 1, "model": {"kind": "carnot", "builtin": "heisenberg"},
        "cone": {"kind": "polyhedral", "generators": [[1.0, 1.0], [1.0, -1.0]]},
        "antinorm": {"kind": "min_of_linear", "family": [[1.0, 0.5], [1.0, -0.5]]},
        "endpoints": {"x0": [0.0, 0.0, 0.0], "x1": [2.0, 0.5, 0.1]},
        "samples": 200, "segments": 10,
        "solver": {"restarts": 1, "max_iter": 30}}))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None       # any scipy import now fails
        from sublorentz import PolyhedralCone, find_time_covector
        from sublorentz.cli import main
        for subcommand in ("check-structure", "solve"):
            assert main([subcommand, "--config", {str(config)!r}]) == 0, subcommand
        cone = PolyhedralCone([[1.0, 0.2], [1.0, 1.0]]).image([[3.0, 0.4], [0.5, 1.0]])
        assert find_time_covector(cone).margin > 0.0
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


def _lp_is_pointed(cone):
    # not pointed <=> some convex combination of unit generators is 0:
    # minimize t s.t. |G^T nu|_inf <= t, sum nu = 1, nu >= 0
    U = cone._unit
    k, d = U.shape
    c = np.zeros(k + 1)
    c[-1] = 1.0
    A_ub = np.block([[U.T, -np.ones((d, 1))], [-U.T, -np.ones((d, 1))]])
    A_eq = np.zeros((1, k + 1))
    A_eq[0, :k] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(2 * d), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1), method="highs")
    assert res.success, res.message
    return res.fun > 1e-9


def _lp_time_covector(cone):
    # maximize m s.t. U tau >= m, |tau|_inf <= 1
    U = cone._unit
    k, d = U.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([-U, np.ones((k, 1))]), b_ub=np.zeros(k),
                  bounds=[(-1, 1)] * d + [(0, None)], method="highs")
    assert res.success, res.message
    return res.x[:d]


def _margin(cone, tau):
    return (cone._unit @ tau).min() / np.linalg.norm(tau)


def _assert_matches_the_lp_oracle(cone):
    # the same pointedness, and a margin no smaller than the LP covector's
    pointed = _lp_is_pointed(cone)
    assert cone.is_pointed() == pointed
    if pointed:
        margin = _margin(cone, cone.time_covector())
        assert margin > 0.0 and margin >= _margin(cone, _lp_time_covector(cone)) - 1e-9
    else:
        with pytest.raises(NotPointedError):
            cone.time_covector()


# pointed, but 0 is 5e-9 from the convex hull of the unit generators
FLAT_CONES = {"flat-2d": PolyhedralCone([[1.0, 0.0], [-1.0, 1e-8]]),
              "flat-3d": PolyhedralCone([[1.0, 0.0, 0.0], [-1.0, 1e-8, 0.0],
                                         [0.0, 0.5, 1.0], [0.0, 0.5, -1.0]])}


@pytest.mark.parametrize("kind", sorted({**NNLS_CONES, **FLAT_CONES}))
def test_pointedness_and_time_covector_match_the_lp_oracle(kind):
    _assert_matches_the_lp_oracle({**NNLS_CONES, **FLAT_CONES}[kind])


def test_random_cones_match_the_lp_oracle():
    rng = np.random.default_rng(13)
    pointed = 0
    for _ in range(200):
        cone = PolyhedralCone(rng.normal(size=(rng.integers(1, 9), rng.integers(2, 6))))
        _assert_matches_the_lp_oracle(cone)
        pointed += cone.is_pointed()
    assert 20 < pointed < 180          # both answers are exercised


@pytest.mark.parametrize("generator", [[2.0, 1.0], [0.0, -3.0, 4.0]])
def test_single_generator_has_margin_one(generator):
    tc = find_time_covector(PolyhedralCone([generator]))
    assert tc.margin == pytest.approx(1.0, abs=1e-15)


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


# ---------------------------------------------------------------------------
# ray minima
# ---------------------------------------------------------------------------


def _light_sphere_minimum(cone, c, starts=12, seed=0):
    """min c . v / |v| over the light rays v = W^-1 (1, phi / |phi|) of a
    Lorentz cone: BFGS with the exact gradient, from several random starts.
    Each run ends at a ray, so the result bounds the minimum from above."""
    Winv = cone._Winv

    def f(phi):
        n = np.linalg.norm(phi)
        v = Winv @ np.concatenate([[1.0], phi / n])
        nv = np.linalg.norm(v)
        h = Winv[:, 1:].T @ (c / nv - (c @ v) * v / nv ** 3)
        return c @ v / nv, (h - (phi @ h) * phi / n ** 2) / n

    rng = np.random.default_rng(seed)
    return min(minimize(f, rng.standard_normal(cone.dim - 1), jac=True,
                        method="BFGS", options={"gtol": 1e-13}).fun
               for _ in range(starts))


@pytest.mark.parametrize("dim", [3, 5, 8, 16, MAX_DIM])
def test_lorentz_ray_minimum_matches_the_multistart_oracle(dim):
    cone = _tilted_lorentz_cones((3, 5, 8, 16, MAX_DIM))[dim]
    phi = np.random.default_rng(dim).standard_normal(dim - 1)
    # the time covector, and one tilted toward a random light ray
    tilted = cone._W.T @ np.concatenate([[1.0], 0.5 * phi / np.linalg.norm(phi)])
    for c in (cone.time_covector(), tilted):
        least, ray = cone.ray_minimum(c)
        assert ray is None
        # the oracle's value is a ray's: the minimum is a lower bound of it
        oracle = _light_sphere_minimum(cone, c)
        assert least == pytest.approx(oracle, rel=1e-10) and least <= oracle


def test_lorentz_ray_minimum_names_an_offending_light_ray():
    cone = _tilted_lorentz_cones((3, 5))[5]
    # (1, 1, 0, 0, 0) in the diagonal coordinates vanishes on one light ray,
    # and (1, 2, 0, 0, 0) is negative on some
    for ct, sign in (([1.0, 1.0, 0, 0, 0], 0.0), ([1.0, 2.0, 0, 0, 0], -1.0)):
        c = cone._W.T @ np.array(ct)
        least, ray = cone.ray_minimum(c)
        assert np.sign(round(least, 12)) == sign
        assert ray is not None and np.linalg.norm(ray) == pytest.approx(1.0)
        assert cone.contains(ray) and c @ ray == pytest.approx(least, abs=1e-15)
    # a negative multiple of the time covector is negative everywhere
    least, ray = cone.ray_minimum(-cone.time_covector())
    assert least < 0.0 and cone.contains(ray)


def test_two_dim_ray_minimum_takes_both_light_rays(mink_cone):
    assert mink_cone.ray_minimum([1.0, 0.0]) == (pytest.approx(np.sqrt(0.5)), None)
    least, ray = mink_cone.ray_minimum([1.0, 1.0])
    assert least == 0.0 and np.allclose(ray, np.array([1.0, -1.0]) / np.sqrt(2))


def test_polyhedral_ray_minimum_names_the_first_offending_generator():
    cone = PolyhedralCone([[2.0, 2.0], [3.0, 0.0], [1.0, -1.0], [0.0, 0.0]])
    least, ray = cone.ray_minimum([0.0, 1.0])
    assert least == pytest.approx(-np.sqrt(0.5)) and np.array_equal(ray, [1.0, 0.0])
    assert cone.ray_minimum([1.0, 0.0]) == (pytest.approx(np.sqrt(0.5)), None)
    with pytest.raises(DimensionMismatchError):
        cone.ray_minimum([1.0, 0.0, 0.0])


@pytest.mark.parametrize("scale", [1e308, 1e-200])
@pytest.mark.parametrize("kind", ["polyhedral", "lorentz-2", "lorentz-3"])
def test_ray_minimum_of_a_covector_out_of_range_scales_with_it(kind, scale):
    # |c|^2 overflows (or underflows): the least value and the ray are those
    # of c / max|c|, scaled back; the offend threshold 1e-12 |c| read inf
    # (or 0, and a 3-d light cone's least value 0) before
    cone = {"polyhedral": PolyhedralCone([[1.0, 0.5], [1.0, -0.5], [2.0, 0.1]]),
            "lorentz-2": LorentzCone(MINK, [1.0, 0.0]),
            "lorentz-3": LorentzCone(np.diag([1.0, -1.0, -1.0]), [1.0, 0.0, 0.0])}[kind]
    c = np.append([1.2, 0.3], [0.2] * (cone.dim - 2))
    least, ray = cone.ray_minimum(c)
    big_least, big_ray = cone.ray_minimum(scale * c)
    assert ray is None and big_ray is None
    assert big_least == pytest.approx(scale * least, rel=1e-14)
    least, ray = cone.ray_minimum(-scale * c)
    assert least < 0.0 and ray is not None


def test_edge_rays_of_planar_sectors(mink_cone):
    assert np.allclose(mink_cone.edge_rays, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
    # the extreme generators farthest apart, past a redundant and a repeated one
    cone = PolyhedralCone([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [1.0, 2.0]])
    assert np.allclose(cone.edge_rays, _unit_rows(np.array([[1.0, 0.0], [1.0, 2.0]])))
    # a ray, and cones off the plane, have none
    for other in (PolyhedralCone([[1.0, 1.0], [2.0, 2.0]]),
                  PolyhedralCone(np.eye(3)),
                  LorentzCone(np.diag([1.0, -1.0, -1.0]), [1.0, 0.0, 0.0])):
        assert other.edge_rays is None


def test_light_rays_are_extreme(mink_cone):
    assert mink_cone.on_extreme_ray([1.0, 1.0]) and mink_cone.on_extreme_ray([3.0, -3.0])
    # the apex, the axis, the other nappe and a vector inside by 1e-8 relative
    for v in ([0.0, 0.0], [1.0, 0.0], [-1.0, -1.0], [1.0, 1.0 - 1e-8]):
        assert not mink_cone.on_extreme_ray(v)
    # every light ray of a 3-d cone
    cone = LorentzCone(np.diag([1.0, -1.0, -1.0]), [1.0, 0.0, 0.0])
    theta = np.linspace(0.0, 2 * np.pi, 7)
    assert all(cone.on_extreme_ray([1.0, np.cos(t), np.sin(t)]) for t in theta)
    assert not cone.on_extreme_ray([1.0, 0.6, 0.8 * (1.0 - 1e-8)])


def test_only_extreme_generators_span_extreme_rays():
    cone = PolyhedralCone([[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]])
    assert cone.on_extreme_ray([2.0, 2.0]) and cone.on_extreme_ray([0.5, -0.5])
    # (1, 0) is a generator, but the other two generate it
    assert not cone.on_extreme_ray([1.0, 0.0])
    assert not cone.on_extreme_ray([1.0, 1.0 - 1e-8])
    assert not cone.on_extreme_ray([0.0, 0.0])
    # a repeated generator is still extreme, and a lone one spans the cone
    assert PolyhedralCone([[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]]).on_extreme_ray([1.0, 1.0])
    assert PolyhedralCone([[1.0, 2.0]]).on_extreme_ray([1e300, 2e300])


@pytest.mark.parametrize("dim", [3, 5, 8])
def test_lorentz_time_covector_maximizes_the_exact_margin(dim):
    # the reflections of A's spacelike eigenvectors keep the cone and the
    # Euclidean norm, and the best unit covector is unique, so it lies on the
    # timelike eigenvector: no perturbation of W[0] does better
    cone = _tilted_lorentz_cones((3, 5, 8))[dim]
    best = find_time_covector(cone).margin
    rng = np.random.default_rng(dim)
    tau = cone.time_covector() / np.linalg.norm(cone.time_covector())
    for _ in range(100):
        c = tau + 10.0 ** rng.uniform(-6.0, -1.0) * rng.standard_normal(dim)
        assert cone.ray_minimum(c)[0] / np.linalg.norm(c) <= best + 1e-15


def test_two_dim_lorentz_time_covector_is_the_bisector(rng):
    for _ in range(20):
        cone = LorentzCone(MINK, [1.0, 0.0]).image(np.eye(2) + 0.4 * rng.normal(size=(2, 2)))
        (a, b), (c, d) = _unit_rows(np.array([[1.0, 1.0], [1.0, -1.0]]) @ cone._Winv.T)
        half = 0.5 * abs(np.arctan2(a * d - b * c, a * c + b * d))
        assert find_time_covector(cone).margin == pytest.approx(np.cos(half), abs=1e-15)


def test_linear_image_cone(mink_cone):
    M = np.array([[2.0, 1.0], [0.0, 1.0]])
    image = mink_cone.image(M)
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
    tc = find_time_covector(PolyhedralCone(gens).image(M))
    image = gens @ M.T
    unit = image / np.linalg.norm(image, axis=1, keepdims=True)
    direct = (unit @ tc.components).min() / np.linalg.norm(tc.components)
    assert tc.margin == pytest.approx(direct, rel=1e-12)
    # the least-distance covector bisects the image sector: its margin is
    # the cosine of half the sector's opening angle
    oracle = np.cos(0.5 * np.arccos(unit[0] @ unit[1]))
    assert oracle == pytest.approx(0.9953948, abs=1e-7)
    assert tc.margin == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("base", [PolyhedralCone([[1.0, 0.2], [1.0, 1.0]]),
                                  LorentzCone(MINK, [1, 0])])
def test_linear_image_project_batch_matches_row_reference(base, rng):
    M = np.array([[3.0, 0.4], [0.5, 1.0]])
    image = base.image(M)
    V = rng.normal(size=(200, 2)) * 3.0
    if isinstance(base, PolyhedralCone):
        # the Euclidean projection onto the mapped generators
        direct = PolyhedralCone(base.generators @ M.T)
        assert np.array_equal(image.project_batch(V), direct.project_batch(V))
        return
    # the 2-d Lorentz projection is boost-invariant: mapping in and out of
    # the base gives the same rows
    ref = np.array([M @ base.project_batch((np.linalg.inv(M) @ v)[None])[0]
                    for v in V])
    assert np.allclose(image.project_batch(V), ref, rtol=1e-12, atol=0.0)


def test_lorentz_image_3d_projection_lands_in_the_cone(rng):
    M = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    cone = LorentzCone(np.diag([1.0, -1.0, -1.0]), [1.0, 0.0, 0.0]).image(M)
    assert isinstance(cone, LorentzCone)
    V = rng.normal(size=(300, 3)) * 3.0
    P = cone.project_batch(V)
    assert cone.contains(P).all()
    scale = np.linalg.norm(V, axis=1, keepdims=True)
    assert np.all(np.abs(cone.project_batch(P) - P) <= 1e-12 * scale)
    members = cone.sample(300, rng)
    scale = np.linalg.norm(members, axis=1, keepdims=True)
    assert np.all(np.abs(cone.project_batch(members) - members) <= 1e-12 * scale)


def test_lorentz_image_under_a_large_scaling_is_the_same_cone(mink_cone, rng):
    # the pulled-back form is 1e-14 A, scaled back to entries of at most 1
    image = mink_cone.image(1e7 * np.eye(2))
    V = rng.normal(size=(200, 2))
    assert np.array_equal(image.contains(V), mink_cone.contains(V))


def test_image_under_a_small_scaling_is_the_same_cone(rng):
    # det(1e-5 I) = 1e-15, yet the map is perfectly conditioned
    base = LorentzCone(np.diag([1.0, -1.0, -1.0]), [1.0, 0.0, 0.0])
    image = base.image(1e-5 * np.eye(3))
    V = rng.normal(size=(200, 3))
    assert np.array_equal(image.contains(V), base.contains(V))


def test_image_under_an_ill_conditioned_map_is_refused():
    # det 1e-6, cond 2e18: the image generators (1e6, 1) and (2e6, 2) are
    # parallel, so the cone would collapse onto a ray
    M = np.array([[1e6, 1e6], [1.0, 1.0 + 1e-12]])
    for c in (1.0, 1e-6, 1e6):
        with pytest.raises(ValueError, match="map must be invertible"):
            PolyhedralCone([[1.0, 0.0], [1.0, 1.0]]).image(c * M)
        # a well-conditioned map passes at every scale
        PolyhedralCone([[1.0, 0.0], [1.0, 1.0]]).image(c * np.eye(2) + c * 0.1)
    with pytest.raises(ValueError, match="map must be finite"):
        LorentzCone(MINK, [1.0, 0.0]).image([[np.inf, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# antinorm evaluation
# ---------------------------------------------------------------------------


def test_lorentz_sqrt_examples(mink_cone, mink_nu):
    assert antinorm_eval(mink_nu, mink_cone, [5.0, 3.0]) == pytest.approx(4.0)
    assert antinorm_eval(mink_nu, mink_cone, [1.0, 1.0]) == pytest.approx(0.0)
    assert antinorm_eval(mink_nu, mink_cone, [1.0, 2.0]) == NEG_INF


@pytest.mark.parametrize("form", [[[1.0], [-1.0]], [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                                  [1.0, -1.0]], ids=["column", "wide", "vector"])
def test_lorentz_sqrt_refuses_a_non_square_form(form):
    with pytest.raises(ValueError, match="form must be a square matrix"):
        LorentzSqrt(form)


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


def test_min_of_linear_band_is_finite_for_huge_rows():
    # the band's row norm used to overflow to inf, which made every covector
    # active, and warned
    nu = MinOfLinear([[1.0, -0.5], [1.0, 0.5]])
    v = np.array([1.0, 0.3])
    with np.errstate(all="raise"):
        for scale in (1.0, 1e200):
            assert np.array_equal(nu.grads_on_cone((scale * v)[None]), [[1.0, -0.5]])
        assert nu.values_on_cone(1e200 * v) == 1e200 * 0.85
        assert np.array_equal(nu.values_on_cone(np.array([1e200 * v, v])),
                              [1e200 * 0.85, 0.85])


#: vectors whose norm overflows or underflows; their tests are scale invariant
FAR_ROWS = [[-1e300, 3.0], [1e300, 1e299], [1e-200, 2e-200]]
FAR_CONES = {"polyhedral": PolyhedralCone([[1.0, 1.0], [1.0, -1.0]]),
             "lorentz": LorentzCone(np.diag([1.0, -1.0]), [1.0, 0.0])}


@pytest.mark.parametrize("kind", sorted(FAR_CONES))
@pytest.mark.parametrize("row", FAR_ROWS)
def test_membership_of_far_rows_is_measured_at_scale(kind, row):
    # the tolerance scaled by np.linalg.norm(v), which overflows to inf
    # (every row passed) or underflows to 0 (rows of the cone failed)
    cone, v = FAR_CONES[kind], np.array(row)
    verdict = cone.contains(v / np.abs(v).max())
    with np.errstate(over="ignore"):
        copies = [s * v for s in (1.0, 1e150, 1e-150)
                  if np.all(np.isfinite(s * v)) and np.all(s * v != 0.0)]
        assert len(copies) == 2
        assert [cone.contains(w) for w in copies] == [verdict] * 2
        assert np.array_equal(cone.contains(np.array(copies)), [verdict] * 2)
        mixed = cone.contains(np.array([copies[0], [1.0, 0.3], [0.0, 0.0]]))
    assert np.array_equal(mixed, [verdict, True, True])


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e300])
def test_lorentz_extreme_ray_is_measured_at_scale(scale):
    cone = FAR_CONES["lorentz"]
    with np.errstate(over="ignore"):
        assert cone.on_extreme_ray(scale * np.array([1.0, 1.0]))
        assert not cone.on_extreme_ray(scale * np.array([1.0, 0.5]))
        assert not cone.on_extreme_ray(scale * np.array([-1.0, 1.0]))


def test_lorentz_projection_of_huge_rows_is_finite(mink_cone):
    # the spacelike part's norm overflowed, and the rows projected to NaN
    V = np.array([[1e300, 3e299], [1e300, -2e300], [3.0, 1.0]])
    P = mink_cone.project_batch(V)
    assert np.array_equal(P[0], V[0])
    assert np.allclose(P[1] / 1e300, [1.5, -1.5], rtol=1e-15, atol=0.0)
    assert np.array_equal(P[2], mink_cone.project_batch(V[2:])[0])


def test_polyhedral_projection_of_huge_rows_keeps_their_scale():
    # a row whose norm overflowed projected to 0; it is now fit scaled and
    # multiplied back, and a row of normal size keeps its bits
    cone = PolyhedralCone([[1.0, 1.0], [1.0, -1.0]])
    V = np.array([[1e300, 0.0], [1e308, 0.0], [-1e300, 5e299], [3.0, 1.0]])
    P = cone.project_batch(V)
    for row, scale in ((0, 1e300), (1, 1e308)):
        np.testing.assert_allclose(P[row] / scale, cone.project_batch([1.0, 0.0]),
                                   rtol=1e-15, atol=0.0)
    assert P[0, 0] == 1e300 and 0.0 < P[0, 1] < 1e284
    assert np.array_equal(P[2], [0.0, 0.0])    # in the polar cone
    assert np.array_equal(P[3], cone.project_batch(V[3]))


def test_lorentz_sqrt_of_a_form_of_1e308_is_finite():
    # 0.5 * (A + A.T) overflowed to inf - inf = NaN
    nu = LorentzSqrt([[1e308, 0.0], [0.0, -1e308]])
    assert np.all(np.isfinite(nu.form))
    assert nu.values_on_cone(np.array([3.0, 0.0])) == pytest.approx(3e154, rel=1e-15)
    assert np.array_equal(LorentzSqrt(MINK).form, MINK)


def test_lorentz_cone_of_a_form_of_1e308_is_the_scaled_cone():
    # 0.5 * (A + A.T) overflowed to inf - inf = NaN, and the form was
    # refused with "eigenvalues [nan nan]"
    cone = LorentzCone([[1e308, 0.0], [0.0, -1e308]], [1.0, 0.0])
    assert np.all(np.isfinite(cone.form))
    V = np.array([[3.0, 1.0], [1.0, 3.0], [-3.0, 1.0], [1.0, 1.0]])
    assert cone.contains(V).tolist() == LorentzCone(MINK, [1.0, 0.0]).contains(V).tolist()
    assert np.array_equal(LorentzCone(MINK, [1.0, 0.0]).form, MINK)


def test_lorentz_sqrt_is_finite_for_huge_rows(mink_nu):
    # v^T A v overflows; the row is measured scaled, the others keep their bits
    V = np.array([[2e200, 1e200], [5.0, 3.0], [1e300, -1e300]])
    vals = mink_nu.values_on_cone(V)
    assert vals[0] == pytest.approx(np.sqrt(3.0) * 1e200, rel=1e-15)
    assert vals[1] == 4.0 and vals[2] == 0.0
    assert mink_nu.values_on_cone(V[0]) == vals[0]
    assert np.allclose(mink_nu.grads_on_cone(V[:1]), np.array([[2.0, -1.0]]) / np.sqrt(3.0))


def test_lorentz_sqrt_of_rows_whose_squared_norm_underflows(mink_nu):
    # v^T A v underflowed, and the row's value was 0; the row is measured
    # scaled, and rows of normal size, lightlike ones included, keep their bits
    v = np.array([5e-200, 1e-200])
    assert mink_nu.values_on_cone(v) == 4.898979485566356e-200
    V = np.array([v, [5.0, 1.0], [3.0, -3.0], [0.0, 0.0]])
    vals = mink_nu.values_on_cone(V)
    assert vals[0] == mink_nu.values_on_cone(v)
    assert np.array_equal(vals[1:], np.sqrt(np.einsum("ij,jk,ik->i", V[1:], MINK, V[1:])))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_values_fail_the_sampled_axioms(mink_cone, bad):
    # every comparison with NaN is False, so NaN rows passed every axiom
    class Stub:
        def values_on_cone(self, V):
            vals = LorentzSqrt(MINK).values_on_cone(V)
            return np.where(np.arange(len(vals)) % 3 == 0, bad, vals)

    rep = check_antinorm_axioms(Stub(), mink_cone, sample_count=300, seed=0)
    assert not rep.passed
    assert rep.superadditivity_failures > 0 and rep.nonnegativity_failures > 0
    assert "FAILED" in rep.summary()


# ---------------------------------------------------------------------------
# exact antinorm certificates
# ---------------------------------------------------------------------------


MINK3 = np.diag([1.0, -1.0, -1.0])


def _confirmed(nu, cone, cert):
    """The certificate's counterexample fails its axiom by evaluation, with
    its points in the cone."""
    ce = cert.counterexample
    if ce["axiom"] == "nonnegativity":
        return antinorm_eval(nu, cone, np.array(ce["xi"])) < 0.0
    xi, zeta = np.array(ce["xi"]), np.array(ce["zeta"])
    va, vb, vsum = antinorm_eval(nu, cone, np.array([xi, zeta, xi + zeta]))
    return ce["axiom"] == "superadditivity" and min(va, vb) >= 0.0 and vsum < va + vb


def _structures():
    """Every antinorm and cone that the tests, verify and the benchmark
    check the axioms of, the presets' included, and forms that break each
    condition of ``LorentzSqrt.certify``."""
    tilted = _tilted_lorentz_cones((3, 5))
    gens = [[1.0, 0.2], [1.0, 1.0]]
    return {
        "minkowski": (LorentzSqrt(MINK), LorentzCone(MINK, [1.0, 0.0])),
        "min-of-linear on minkowski": (MinOfLinear([[1, 1], [1, -1]]),
                                       LorentzCone(MINK, [1.0, 0.0])),
        "zero on minkowski": (ZeroAntinorm(), LorentzCone(MINK, [1.0, 0.0])),
        "negative family": (MinOfLinear([[0.0, 1.0], [1.0, -2.0]]),
                            PolyhedralCone([[1.0, 0.0], [1.0, 1.0]])),
        "minkowski3": (LorentzSqrt(MINK3), LorentzCone(MINK3, [1.0, 0.0, 0.0])),
        "bench polyhedral3": (MinOfLinear([[1.0, 0.5], [1.0, -0.5]]),
                              PolyhedralCone([[1.0, 0.0], [1.0, 0.6], [1.0, -0.6]])),
        "bench polyhedral2": (MinOfLinear([[1.0, 0.5], [1.0, -0.5]]),
                              PolyhedralCone([[1.0, 1.0], [1.0, -1.0]])),
        "hyperbolic preset": (LorentzSqrt([[-4.0, 0.0], [0.0, 1.0]]),
                              LorentzCone([[-4.0, 0.0], [0.0, 1.0]], [0.0, 1.0])),
        "linear image": (MinOfLinear([[1.0, 0.0]]),
                         PolyhedralCone(gens).image([[3.0, 0.4], [0.5, 1.0]])),
        "not pointed": (ZeroAntinorm(),
                        PolyhedralCone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])),
        "tilted 3": (LorentzSqrt(tilted[3].form), tilted[3]),
        "tilted 5": (LorentzSqrt(tilted[5].form), tilted[5]),
        "minkowski on tilted 5": (LorentzSqrt(np.diag([1.0, -1, -1, -1, -1])), tilted[5]),
        "minkowski on a square": (LorentzSqrt(MINK3), PolyhedralCone(
            [[1.0, 0.5, 0.5], [1.0, -0.5, 0.5], [1.0, -0.5, -0.5], [1.0, 0.5, -0.5]])),
        "minkowski on a wide square": (LorentzSqrt(MINK3), PolyhedralCone(
            [[1.0, 0.9, 0.9], [1.0, -0.9, 0.9], [1.0, -0.9, -0.9], [1.0, 0.9, -0.9]])),
        "rank one": (LorentzSqrt([[1.0, 1.0], [1.0, 1.0]]), LorentzCone(MINK, [1.0, 0.0])),
        "y squared": (LorentzSqrt([[0.0, 0.0], [0.0, 1.0]]), LorentzCone(MINK, [1.0, 0.0])),
        "past-facing form": (LorentzSqrt(-np.eye(3)), LorentzCone(MINK3, [1.0, 0.0, 0.0])),
        "two positive eigenvalues": (LorentzSqrt(np.diag([1.0, 0.5, -1.0])),
                                     LorentzCone(np.diag([1.0, -4.0, -4.0]), [1.0, 0, 0])),
        "too narrow a form": (LorentzSqrt(np.diag([1.0, -4.0, -4.0])),
                              LorentzCone(MINK3, [1.0, 0.0, 0.0])),
    }


@pytest.mark.parametrize("name", list(_structures()))
def test_certificate_agrees_with_the_sampled_oracle(name):
    nu, cone = _structures()[name]
    cert = nu.certify(cone)
    oracle = check_antinorm_axioms(nu, cone, sample_count=5000, seed=1)
    assert cert.passed == oracle.passed
    assert not cert.passed or cert.identically_zero == oracle.identically_zero
    assert cert.passed or _confirmed(nu, cone, cert)


def test_certificate_refuses_the_form_the_sampled_oracle_passes():
    # B = diag(1, 1e-8, -1) has two positive eigenvalues: at (1, 0, 0) the
    # direction e_1 raises q, and (1, +-0.4, 0) break superadditivity by
    # 1.6e-9, which 10,000 sampled pairs never meet
    nu = LorentzSqrt(np.diag([1.0, 1e-8, -1.0]))
    cone = LorentzCone(np.diag([1.0, -4.0, -4.0]), [1.0, 0.0, 0.0])
    assert check_antinorm_axioms(nu, cone).passed
    cert = nu.certify(cone)
    assert not cert.passed and _confirmed(nu, cone, cert)
    assert cert.summary().startswith("antinorm axioms FAILED (superadditivity)")


def test_certificate_draws_no_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(LorentzCone, "sample", refuse)
    monkeypatch.setattr(PolyhedralCone, "sample", refuse)
    for nu, cone in _structures().values():
        nu.certify(cone)


def test_identically_zero_certificates():
    mink3 = LorentzCone(MINK3, [1.0, 0.0, 0.0])
    for nu in (ZeroAntinorm(), LorentzSqrt(np.diag([-1.0, 1.0, 1.0])),
               MinOfLinear([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])):
        cert = nu.certify(mink3)
        assert cert.passed and cert.identically_zero
        assert cert.summary() == "antinorm axioms hold (exact certificate) (identically zero)"
    cert = LorentzSqrt(MINK3).certify(mink3)
    assert cert.passed and not cert.identically_zero


def test_kaplan_finds_a_timelike_point_that_no_generator_or_pair_has():
    # three generators just outside the light cone, 120 degrees apart: each
    # is spacelike for q = x^2 - y^2 - z^2, and so is every point between
    # two of them, but their sum (3, 0, 0) is timelike, and the cone holds
    # spacelike and timelike points: q takes both signs on it
    phi = np.array([0.0, 2.0, 4.0]) * np.pi / 3
    gens = np.column_stack([np.ones(3), 1.05 * np.cos(phi), 1.05 * np.sin(phi)])
    cone, nu = PolyhedralCone(gens), LorentzSqrt(MINK3)
    q = np.einsum("ij,jk,ik->i", gens, MINK3, gens)
    assert np.all(q < 0.0)
    witness = cone.form_witness(-MINK3)
    assert witness is not None and witness @ MINK3 @ witness > 0.0
    assert cone.contains(witness)
    cert = nu.certify(cone)
    assert not cert.passed and _confirmed(nu, cone, cert)
    # with -q, every generator and pair already shows q < 0 nowhere above
    hexagon = PolyhedralCone(np.column_stack([np.ones(6), np.cos(np.arange(6) * np.pi / 3),
                                              np.sin(np.arange(6) * np.pi / 3)]))
    assert LorentzSqrt(-MINK3).certify(hexagon).identically_zero


def test_polyhedral_pairs_decide_one_nappe():
    # each generator is timelike for q, but they lie in opposite nappes
    cone = PolyhedralCone([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.1]])
    assert cone.nappe_pair(MINK3) is not None
    cert = LorentzSqrt(MINK3).certify(cone)
    assert not cert.passed and _confirmed(LorentzSqrt(MINK3), cone, cert)


def _section_minimum(cone, F, starts=12, seed=0):
    """min F(v) / |v|^2 over v = W^-1 (1, y), |y| <= 1, of a Lorentz cone,
    with y = z / sqrt(1 + |z|^2): BFGS from several random starts, an upper
    bound of the minimum."""
    Winv = cone._Winv

    def f(z):
        v = Winv @ np.concatenate([[1.0], z / np.sqrt(1.0 + z @ z)])
        return v @ F @ v / (v @ v)

    rng = np.random.default_rng(seed)
    return min(minimize(f, rng.standard_normal(cone.dim - 1), method="BFGS").fun
               for _ in range(starts))


@pytest.mark.parametrize("dim", [3, 5])
def test_s_lemma_matches_the_scipy_oracle(dim):
    # the S-lemma's verdict on F >= 0 over the nappe, and its witness
    cone = _tilted_lorentz_cones((3, 5))[dim]
    rng = np.random.default_rng(dim)
    shift = rng.standard_normal((dim, dim))
    for F in (cone.form + 0.05 * (shift + shift.T), cone.form + 0.3 * (shift + shift.T)):
        oracle = _section_minimum(cone, F)
        witness = cone.form_witness(F)
        if witness is None:
            assert oracle >= -1e-9
        else:
            assert oracle < 0.0 and witness @ F @ witness < 0.0 and cone.contains(witness)
    # the cone's own form is 0 on its light rays and nowhere negative
    assert cone.form_witness(cone.form) is None and _section_minimum(cone, cone.form) > -1e-9
    assert cone.form_witness(-cone.form) is not None


def test_min_of_linear_certificate_names_the_least_ray():
    # (0, 1) vanishes on (1, 0) and is negative on (1, -1): the first ray
    # that offends is not the one that shows the failure
    cone = PolyhedralCone([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
    nu = MinOfLinear([[0.0, 1.0]])
    assert cone.ray_minimum([0.0, 1.0])[1].tolist() == [1.0, 0.0]
    least, ray = cone.ray_minimum([0.0, 1.0], least_ray=True)
    assert np.allclose(ray, np.array([1.0, -1.0]) / np.sqrt(2))
    cert = nu.certify(cone)
    assert cert.counterexample["axiom"] == "nonnegativity" and _confirmed(nu, cone, cert)
    assert cert.summary().startswith("antinorm axioms FAILED (nonnegativity)")


@pytest.mark.parametrize("scale", [1e-200, 1e300])
def test_certificates_are_scale_free(scale):
    with np.errstate(all="raise"):
        cone = LorentzCone(MINK3, [1.0, 0.0, 0.0])
        assert LorentzSqrt(scale * MINK3).certify(cone).passed
        poly = PolyhedralCone(scale * np.array([[1.0, 0.5], [1.0, -0.5]]))
        assert LorentzSqrt(scale * np.array(MINK)).certify(poly).passed
        assert MinOfLinear([[scale, 0.5 * scale]]).certify(poly).passed
        assert not LorentzSqrt(scale * np.diag([1.0, 0.5, -1.0])).certify(cone).passed
