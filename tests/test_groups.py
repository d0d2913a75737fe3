import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sublorentz import (
    AbelianGroup,
    DimensionMismatchError,
    CarnotAlgebra,
    CarnotGroup,
    HyperbolicPlane,
    InvalidPointError,
    LeftInvariantQuadratic,
    UnsupportedStepError,
    bch_log_product,
    format_structure_constants,
    heisenberg_algebra,
    minkowski_area_algebra,
    parse_structure_constants,
)
from sublorentz import ControlSignal, integrate
from sublorentz.groups import (
    _hyperbolic_flow,
    _hyperbolic_log_jacobian,
    bch_jacobians,
    left_translation_jacobian,
)
from sublorentz.verify import (
    _check_bch_associativity,
    _check_exp_step_flow,
    _check_first_layer_additivity,
    _check_step2_half_bracket,
    _test_algebras,
)
from test_solver import ENDPOINT_CASES, _endpoint_case, _set_slopes

ALGEBRAS = _test_algebras()
FILIFORM4 = ALGEBRAS[2]


# ---------------------------------------------------------------------------
# Carnot algebra construction
# ---------------------------------------------------------------------------


def test_heisenberg_layers():
    alg = heisenberg_algebra()
    assert alg.layer_dims == (2, 1)
    assert alg.step == 2
    assert np.allclose(alg.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])


def test_grading_violation_rejected():
    # [e0, e1] landing back in layer 1 breaks the grading
    with pytest.raises(ValueError, match="grading"):
        CarnotAlgebra.from_brackets((2, 1), {(0, 1): {0: 1.0}})


def test_jacobi_violation_rejected():
    # step-3 table with [e0,e1]=e2, [e0,e2]=e3, [e1,e2]=e3: Jacobi forces
    # the cyclic sum [e0,[e1,e2]] + [e1,[e2,e0]] + [e2,[e0,e1]] = -e4... != 0
    with pytest.raises(ValueError, match="Jacobi"):
        CarnotAlgebra.from_brackets(
            (2, 1, 1, 1), {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0},
                           (1, 2): {3: 1.0}})


def test_non_generating_first_layer_rejected():
    # second layer never reached from the first
    with pytest.raises(ValueError, match="span"):
        CarnotAlgebra((2, 1), np.zeros((3, 3, 3)))


def test_structure_constants_round_trip():
    alg = minkowski_area_algebra(2)
    text = format_structure_constants(alg)
    again = parse_structure_constants(text)
    assert again.layer_dims == alg.layer_dims
    assert np.allclose(again.table, alg.table)


def test_structure_file_parse_errors():
    with pytest.raises(ValueError, match="header"):
        parse_structure_constants("0 1 2 1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_structure_constants("layers: 2 1\n0 1 2 1.0\n0 1 2 1.0\n")
    with pytest.raises(ValueError, match="mirror"):
        parse_structure_constants("layers: 2 1\n0 1 2 1.0\n1 0 2 1.0\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_structure_constants("layers: 2 1\n0 1 7 1.0\n")


def test_structure_file_comments_and_mirror():
    alg = parse_structure_constants(
        "# heisenberg\nlayers: 2 1\n0 1 2 1.0  # the only bracket\n")
    assert np.allclose(alg.table, heisenberg_algebra().table)


# ---------------------------------------------------------------------------
# BCH product
# ---------------------------------------------------------------------------


def test_bch_heisenberg_half_term():
    alg = heisenberg_algebra()
    z = bch_log_product(alg, [1, 0, 0], [0, 1, 0])
    assert np.allclose(z, [1.0, 1.0, 0.5])


def test_bch_commuting_elements():
    alg = heisenberg_algebra()
    a, b = np.array([1.0, 0, 2.0]), np.array([2.0, 0, 5.0])  # parallel e0 parts
    assert np.allclose(bch_log_product(alg, a, b), a + b)


def test_bch_inverse():
    alg = FILIFORM4
    a = np.array([0.3, -1.2, 0.7, 0.1, -2.0])
    assert np.allclose(bch_log_product(alg, a, -a), 0.0, atol=1e-14)


def test_bch_step_cap():
    fil5 = CarnotAlgebra.from_brackets(
        (2, 1, 1, 1, 1),
        {(0, 1): {2: 1.0}, (0, 2): {3: 1.0}, (0, 3): {4: 1.0}, (0, 4): {5: 1.0}})
    with pytest.raises(UnsupportedStepError):
        bch_log_product(fil5, np.zeros(6), np.zeros(6))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: str(a.layer_dims))
def test_bch_associativity_bulk(alg, rng):
    res = _check_bch_associativity(rng, 1000, [alg])
    assert res.passed, res.detail


def test_step2_bch_is_half_bracket(rng):
    res = _check_step2_half_bracket(rng, 500, minkowski_area_algebra(3))
    assert res.passed, res.detail


def test_first_layer_of_bch_is_additive(rng):
    res = _check_first_layer_additivity(rng, 300)
    assert res.passed, res.detail


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.floats(-3, 3))
def test_bch_one_parameter_subgroup_hypothesis(coords, t):
    alg = heisenberg_algebra()
    a = np.array(coords)
    # exp(a) exp(t a) = exp((1 + t) a): brackets of parallel vectors vanish
    assert np.allclose(bch_log_product(alg, a, t * a), (1 + t) * a, atol=1e-12)


def test_bch_jacobians_match_finite_differences(rng):
    for alg in ALGEBRAS:
        a, b = rng.normal(size=(2, alg.dim))
        Da, Db = bch_jacobians(alg, a, b)
        eps = 1e-6
        for i in range(alg.dim):
            d = np.zeros(alg.dim)
            d[i] = eps
            col_a = (bch_log_product(alg, a + d, b)
                     - bch_log_product(alg, a - d, b)) / (2 * eps)
            col_b = (bch_log_product(alg, a, b + d)
                     - bch_log_product(alg, a, b - d)) / (2 * eps)
            assert np.abs(Da[:, i] - col_a).max() <= 1e-8
            assert np.abs(Db[:, i] - col_b).max() <= 1e-8


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------


def test_hyperbolic_identity_and_product():
    hyp = HyperbolicPlane()
    assert np.allclose(hyp.multiply([0, 1], [0.7, 2.2]), [0.7, 2.2])
    assert np.allclose(hyp.multiply([1, 2], [3, 4]), [7, 8])


def test_hyperbolic_inverse():
    hyp = HyperbolicPlane()
    assert np.allclose(hyp.inverse([1, 2]), [-0.5, 0.5])
    p = np.array([0.3, 1.7])
    assert np.allclose(hyp.multiply(p, hyp.inverse(p)), [0, 1], atol=1e-12)


def test_hyperbolic_invalid_point():
    hyp = HyperbolicPlane()
    with pytest.raises(InvalidPointError):
        hyp.multiply([0, -1], [0, 1])


def test_log_on_a_stack_matches_the_row_loop(heis):
    hyp = HyperbolicPlane()
    # y within 1e-8 of 1 takes the series branch, the other rows do not
    P = np.array([[0.3, 2.0], [-1.0, 1.0 + 3e-9], [0.5, 1.0 - 4e-12], [2.0, 0.25],
                  [0.7, 1.0]])
    for model, points in ((hyp, P), (heis, np.arange(12.0).reshape(4, 3))):
        logs = model.log(points)
        assert np.array_equal(logs, [model.log(p) for p in points])
        assert np.array_equal(model.log(points.reshape(-1, 1, model.point_dim)),
                              logs.reshape(-1, 1, model.point_dim))
    bad = P.copy()
    bad[2, 1] = -1.0
    bad[3, 1] = 0.0
    with pytest.raises(InvalidPointError, match="y = -1.0"):
        hyp.log(bad)
    with pytest.raises(DimensionMismatchError):
        hyp.log(np.ones((3, 3)))


def test_abelian_and_carnot_inverse(heis, rng):
    assert np.allclose(AbelianGroup(3).inverse([1, 2, 3]), [-1, -2, -3])
    p = rng.normal(size=3)
    assert np.allclose(heis.multiply(p, heis.inverse(p)), 0.0, atol=1e-12)


@pytest.mark.parametrize("model", [AbelianGroup(3), HyperbolicPlane(),
                                   CarnotGroup(heisenberg_algebra())],
                         ids=["abelian", "hyperbolic", "carnot"])
def test_associativity_random_triples(model, rng):
    for _ in range(50):
        if isinstance(model, HyperbolicPlane):
            pts = np.column_stack([rng.normal(size=3),
                                   np.exp(rng.normal(size=3))])
        else:
            pts = rng.normal(size=(3, model.point_dim))
        p, q, r = pts
        lhs = model.multiply(model.multiply(p, q), r)
        rhs = model.multiply(p, model.multiply(q, r))
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_exp_step_hyperbolic_examples():
    hyp = HyperbolicPlane()
    assert np.allclose(hyp.exp_step([0, 1], [0, 1], np.log(2.0)), [0, 2])
    assert np.allclose(hyp.exp_step([0, 1], [1, 0], 1.0), [1, 1])


def test_exp_step_abelian_example():
    assert np.allclose(AbelianGroup(2).exp_step([0, 0], [5, 3], 1.0), [5, 3])


def test_exp_step_composition(rng):
    res = _check_exp_step_flow(rng, 30)
    assert res.passed, res.detail


def test_hyperbolic_exp_keeps_its_digits_near_flat_controls():
    hyp = HyperbolicPlane()

    def exp(u, t):
        return hyp.exp_step(hyp.identity(), u, t)

    # exp(t (alpha, beta))_x = alpha t (1 + t beta / 2 + ...)
    assert exp([1.0, 1e-13], 0.5)[0] == pytest.approx(0.5 + 1.25e-14, rel=0, abs=2e-16)
    for beta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0):
        z = 0.7 * beta
        series = 2.0 * 0.7 * (1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0)
        assert exp([2.0, beta], 0.7)[0] == pytest.approx(series, rel=1e-15)
        assert exp([2.0, -beta], 0.7)[0] == pytest.approx(
            2.0 * 0.7 * (1.0 - z / 2.0 + z * z / 6.0 - z ** 3 / 24.0), rel=1e-15)


def test_hyperbolic_exp_matches_numerical_flow(rng):
    # midpoint integration of the left-invariant flow p' = dL_p(u)
    hyp = HyperbolicPlane()
    for _ in range(10):
        u = rng.normal(size=2)
        p = np.array([0.0, 1.0])
        n, h = 10_000, 1e-4
        for _ in range(n):
            k1 = p[1] * u
            mid = p + 0.5 * h * k1
            p = p + h * mid[1] * u
        exact = hyp.exp_step([0, 1], u, n * h)
        assert np.abs(p - exact).max() <= 1e-6


# ---------------------------------------------------------------------------
# metrics and projections
# ---------------------------------------------------------------------------


def test_lobachevsky_norm_examples():
    # the natural metric of the hyperbolic plane is (dx^2 + dy^2) / y^2
    hyp = HyperbolicPlane()
    metric = hyp.natural_metric()
    assert metric.norm(hyp, [0, 2], [2, 0]) == pytest.approx(1.0)
    assert metric.norm(hyp, [0, 1], [1, 0]) == pytest.approx(1.0)


def test_norm_scaling(rng):
    hyp = HyperbolicPlane()
    metric = hyp.natural_metric()
    for _ in range(100):
        v = rng.normal(size=2)
        lam = rng.uniform(0.1, 10)
        p = np.array([rng.normal(), np.exp(rng.normal())])
        assert metric.norm(hyp, p, lam * v) == pytest.approx(
            lam * metric.norm(hyp, p, v))


def test_left_invariant_quadratic_is_left_invariant(heis, rng):
    metric = LeftInvariantQuadratic(np.diag([1.0, 2.0, 3.0]))
    u = rng.normal(size=3)
    ref = metric.norm(heis, heis.identity(), u)
    for _ in range(20):
        p = rng.normal(size=3)
        v = heis.left_translate(p, u)
        assert metric.norm(heis, p, v) == pytest.approx(ref, abs=1e-12)


def test_left_invariant_quadratic_rejects_indefinite():
    with pytest.raises(ValueError):
        LeftInvariantQuadratic([[1.0, 0.0], [0.0, -1.0]])


def test_euclidean_norm(plane):
    # the natural metric of R^n is the Euclidean one, at every point
    assert plane.natural_metric().norm(plane, [0, 0], [3, 4]) == 5.0
    assert plane.natural_metric().norm(plane, [7, -2], [3, 4]) == 5.0


ROW_MODELS = {
    "abelian": AbelianGroup(3),
    "hyperbolic": HyperbolicPlane(),
    "heisenberg": CarnotGroup(heisenberg_algebra()),
    "filiform": CarnotGroup(FILIFORM4),
}


@pytest.mark.parametrize("kind", ["abelian", "hyperbolic", "heisenberg"])
def test_natural_metric_at_the_identity_is_the_euclidean_norm(kind, rng):
    # every diagnostic measures at the identity, where the invariant metric
    # must give np.linalg.norm bit for bit
    model = ROW_MODELS[kind]
    V = rng.normal(size=(5000, model.point_dim)) * 10.0 ** rng.uniform(-5, 5, (5000, 1))
    norms = model.natural_metric().norm(model, model.identity(), V)
    assert np.array_equal(norms, np.linalg.norm(V, axis=-1))


def _rows_and_point(model, rng):
    """A base point and tangent rows: random ones, the basis, and zero last."""
    n = model.point_dim
    p = model.exp_step(model.identity(), rng.normal(size=n), 1.0)
    return p, np.vstack([rng.normal(size=(20, n)), np.eye(n), np.zeros(n)])


@pytest.mark.parametrize("kind", sorted(ROW_MODELS))
def test_tangent_maps_on_rows_match_the_row_loop(kind, rng):
    model = ROW_MODELS[kind]
    p, V = _rows_and_point(model, rng)
    for fn in (model.left_translate, model.pullback):
        rows = fn(p, V)
        assert rows.shape == V.shape
        np.testing.assert_allclose(rows, [fn(p, v) for v in V], rtol=1e-14, atol=0.0)
        assert np.all(rows[-1] == 0.0)
        assert fn(p, V[0]).shape == (model.point_dim,)
    np.testing.assert_allclose(model.pullback(p, model.left_translate(p, V)), V,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(ROW_MODELS))
def test_tangent_maps_keep_their_errors(kind):
    model = ROW_MODELS[kind]
    p = model.identity()
    for fn in (model.left_translate, model.pullback):
        with pytest.raises(DimensionMismatchError):
            fn(p, np.ones(model.point_dim + 1))
        with pytest.raises(DimensionMismatchError):
            fn(p, np.ones((2, 2, model.point_dim)))
        with pytest.raises(ValueError, match="non-finite"):
            fn(p, np.full(model.point_dim, np.inf))
        with pytest.raises(DimensionMismatchError):
            fn(np.ones((2, model.point_dim)), np.ones(model.point_dim))


@pytest.mark.parametrize("kind, metric", [
    ("abelian", LeftInvariantQuadratic(np.eye(3))),
    ("heisenberg", LeftInvariantQuadratic(np.eye(3))),
    ("hyperbolic", LeftInvariantQuadratic(np.eye(2))),
    ("hyperbolic", LeftInvariantQuadratic([[2.0, 0.3], [0.3, 1.0]])),
    ("heisenberg", LeftInvariantQuadratic(np.diag([1.0, 2.0, 3.0]))),
    ("filiform", LeftInvariantQuadratic(np.eye(5)))])
def test_norm_on_rows_matches_the_row_loop(kind, metric, rng):
    model = ROW_MODELS[kind]
    p, V = _rows_and_point(model, rng)
    rows = metric.norm(model, p, V)
    assert rows.shape == (len(V),) and rows[-1] == 0.0
    np.testing.assert_allclose(rows, [metric.norm(model, p, v) for v in V],
                               rtol=1e-14, atol=0.0)
    assert np.ndim(metric.norm(model, p, V[0])) == 0
    with pytest.raises(DimensionMismatchError):
        metric.norm(model, p, np.ones(model.point_dim + 1))


def test_left_translation_jacobian_matches_flow(rng):
    # chart velocity of t -> exp(xi) exp(t u) at t = 0
    for alg in ALGEBRAS:
        xi, u = rng.normal(size=(2, alg.dim))
        F = left_translation_jacobian(alg, xi)
        eps = 1e-6
        fd = (bch_log_product(alg, xi, eps * u)
              - bch_log_product(alg, xi, -eps * u)) / (2 * eps)
        assert np.abs(F @ u - fd).max() <= 1e-8


# ---------------------------------------------------------------------------
# the segment chain
# ---------------------------------------------------------------------------


def _walk(model, x0, u, h):
    """The points of u, one segment at a time: by the BCH series on a Carnot
    group, by exp_step elsewhere."""
    points = [model.validate_point(x0)]
    for uk in u:
        if isinstance(model, CarnotGroup):
            step = h * model.embed_control(uk)
            points.append(bch_log_product(model.algebra, points[-1], step))
        else:
            points.append(model.exp_step(points[-1], uk, h))
    return np.array(points)


def _walk_jacobian(model, points, x1, u, h):
    """d rho / d u_k one segment at a time: each segment's Jacobians (by the
    BCH series on a Carnot group, by the flow's derivatives on the
    hyperbolic plane), chained by a reverse sweep of single products."""
    if isinstance(model, CarnotGroup):
        alg = model.algebra
        S = -bch_jacobians(alg, -points[-1], x1)[0]

        def segment(k):
            Da, Db = bch_jacobians(alg, points[k], h * model.embed_control(u[k]))
            return Da, Db @ (h * np.eye(model.point_dim, model.control_dim))
    else:
        ex, ey = points[-1]
        offset = np.array([(x1[0] - ex) / ey, x1[1] / ey])
        S = _hyperbolic_log_jacobian(offset) @ np.array(
            [[-1.0 / ey, -(x1[0] - ex) / ey ** 2], [0.0, -x1[1] / ey ** 2]])

        def segment(k):
            X, Y, dXa, dXb, dYb = (v[0] for v in _hyperbolic_flow(u[k, :1], u[k, 1:], h))
            return (np.array([[1.0, X], [0.0, Y]]),
                    points[k, 1] * np.array([[dXa, dXb], [0.0, dYb]]))
    J = np.empty((len(u), model.point_dim, model.control_dim))
    for k in range(len(u) - 1, -1, -1):
        Dp, Du = segment(k)
        J[k] = S @ Du
        S = S @ Dp
    return J


#: their endpoint maps take closed forms (sums, step-2 areas), not the chain
CLOSED_FORMS = ("abelian", "heisenberg", "minkowski-area")


@pytest.mark.parametrize("case, full", [(c, False) for c in ENDPOINT_CASES]
                         + [("engel", True), ("step3-multiterm", True)])
def test_chain_matches_the_segment_walk(case, full, rng):
    model, x0, x1 = _endpoint_case(case)
    for n_seg in (1, 2, 9, 40):
        # ``full``: Carnot controls in the point dimension, not the first layer
        m = model.point_dim if full else model.control_dim
        u = rng.normal(size=(n_seg, m)) * 0.5
        u[:, 0] += 1.2
        _set_slopes(case, u)
        h = 1.3 / n_seg
        walk = _walk(model, x0, u, h)
        assert np.array_equal(integrate(model, x0, ControlSignal(u), 1.3).points, walk)
        batch = np.stack([u, 0.5 * u, u[::-1]])
        assert np.array_equal(model.points(x0, batch, h),
                              [model.points(x0, v, h) for v in batch])
        if case in CLOSED_FORMS:
            continue
        rho_walk = model._residual(walk[-1], x1)
        rho, endpoint = model.endpoint_residual(x0, x1, u, 1.3)
        rho_full, J, endpoint_full = model.endpoint_map(x0, x1, u, 1.3)
        for r, e in ((rho, endpoint), (rho_full, endpoint_full)):
            assert np.array_equal(e, walk[-1])
            assert np.array_equal(r, rho_walk)
        assert np.array_equal(J, _walk_jacobian(model, walk, x1, u, h))
