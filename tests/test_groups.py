import math

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
    PolyhedralCone,
    UnsupportedStepError,
    bch_log_product,
    format_structure_constants,
    heisenberg_algebra,
    minkowski_area_algebra,
    parse_structure_constants,
    reachability_sample,
)
from sublorentz import ControlSignal, integrate
from sublorentz.groups import (
    MAX_DIM,
    _hyperbolic_flow,
    _hyperbolic_step,
    _residual_jacobian,
    bch_jacobians,
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


@pytest.mark.parametrize("n", [1, 2, 5])
def test_abelian_group_is_the_step_1_carnot_group(n, rng):
    # R^n is the Carnot group over the zero algebra, with its engine
    model = AbelianGroup(n)
    carnot = CarnotGroup(CarnotAlgebra((n,), np.zeros((n,) * 3)))
    assert isinstance(model, CarnotGroup) and model.algebra.layer_dims == (n,)
    assert model.control_dim == model.point_dim == n
    x0, g = rng.normal(size=(2, n))
    u = rng.normal(size=(9, n))
    assert _identical(model.points(x0, u, 0.1), carnot.points(x0, u, 0.1))
    passes = model.endpoint_pass(g, u, 0.9), carnot.endpoint_pass(g, u, 0.9)
    for ours, theirs in zip(*passes):
        assert _identical(ours, theirs)
    assert _identical(model.endpoint_jacobian(g, u, 0.9, passes[0][2]),
                      carnot.endpoint_jacobian(g, u, 0.9, passes[1][2]))
    # the residual is read off the last of the points integrate writes from
    # the identity
    rho, endpoint = passes[0][:2]
    assert _identical(endpoint, model.points(model.identity(), u, 0.1)[-1])
    assert np.array_equal(rho, g - endpoint)


def test_abelian_group_keeps_the_algebra_cap():
    assert AbelianGroup(MAX_DIM).point_dim == MAX_DIM
    with pytest.raises(ValueError, match=f"exceeds the cap MAX_DIM = {MAX_DIM}"):
        AbelianGroup(MAX_DIM + 1)
    with pytest.raises(ValueError, match="dim must be positive"):
        AbelianGroup(0)


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
# tangent maps
# ---------------------------------------------------------------------------


def flow_velocity(model, p, V):
    """The chart velocity at t = 0 of t -> p exp(t v), the left-translate of
    v to p, for a tangent v or each row of a stack V.  On the hyperbolic
    plane the group law gives (y v_x, y v_y); elsewhere it is the central
    difference of p exp(v) and p exp(-v), exact up to rounding because
    through step 4 the BCH series of p exp(t v) has degree 2 in t."""
    V = np.asarray(V, dtype=float)
    if isinstance(model, HyperbolicPlane):
        return p[1] * V
    forward, backward = (model.points(p, V[..., None, :], h)[..., -1, :]
                         for h in (1.0, -1.0))
    return (forward - backward) / 2.0


ROW_MODELS = {
    "abelian": AbelianGroup(3),
    "hyperbolic": HyperbolicPlane(),
    "heisenberg": CarnotGroup(heisenberg_algebra()),
    "filiform": CarnotGroup(FILIFORM4),
}


def _rows_and_point(model, rng):
    """A base point and tangent rows: random ones, the basis, and zero last."""
    n = model.point_dim
    p = model.exp_step(model.identity(), rng.normal(size=n), 1.0)
    return p, np.vstack([rng.normal(size=(20, n)), np.eye(n), np.zeros(n)])


@pytest.mark.parametrize("kind", sorted(ROW_MODELS))
def test_tangent_maps_on_rows_match_the_row_loop(kind, rng):
    model = ROW_MODELS[kind]
    p, V = _rows_and_point(model, rng)
    rows = model.pullback(p, V)
    assert rows.shape == V.shape
    np.testing.assert_allclose(rows, [model.pullback(p, v) for v in V],
                               rtol=1e-14, atol=0.0)
    assert np.all(rows[-1] == 0.0)
    assert model.pullback(p, V[0]).shape == (model.point_dim,)
    np.testing.assert_allclose(model.pullback(p, flow_velocity(model, p, V)), V,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(ROW_MODELS))
def test_tangent_maps_keep_their_errors(kind):
    model = ROW_MODELS[kind]
    p, fn = model.identity(), model.pullback
    with pytest.raises(DimensionMismatchError):
        fn(p, np.ones(model.point_dim + 1))
    with pytest.raises(DimensionMismatchError):
        fn(p, np.ones((2, 2, model.point_dim)))
    with pytest.raises(ValueError, match="non-finite"):
        fn(p, np.full(model.point_dim, np.inf))
    with pytest.raises(DimensionMismatchError):
        fn(np.ones((2, model.point_dim)), np.ones(model.point_dim))


def test_left_translation_jacobian_matches_flow(rng):
    # chart velocity of t -> exp(xi) exp(t u) at t = 0: D_b bch at (xi, 0),
    # the matrix CarnotGroup.pullback solves with
    for alg in ALGEBRAS:
        xi, u = rng.normal(size=(2, alg.dim))
        F = bch_jacobians(alg, xi, np.zeros(alg.dim))[1]
        eps = 1e-6
        fd = (bch_log_product(alg, xi, eps * u)
              - bch_log_product(alg, xi, -eps * u)) / (2 * eps)
        assert np.abs(F @ u - fd).max() <= 1e-8
        assert np.allclose(CarnotGroup(alg).pullback(xi, F @ u), u, rtol=0, atol=1e-10)


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


def _log_jacobian_reference(w):
    """d log / d point at w = (x, y) on the hyperbolic plane, from numpy
    scalars: the expression the endpoint Jacobian's scalar tail replaced."""
    x, y = w
    t = y - 1.0
    if abs(t) < 1e-5:
        ratio = 1.0 - t / 2.0 + t * t / 3.0 - t ** 3 / 4.0
        dratio = -0.5 + 2.0 * t / 3.0 - 0.75 * t * t
    else:
        ratio = np.log(y) / t
        dratio = ((t / y) - np.log(y)) / (t * t)
    return np.array([[ratio, x * dratio], [0.0, 1.0 / y]])


def _residual_jacobian_reference(endpoint, g):
    ex, ey = endpoint
    offset = np.array([(g[0] - ex) / ey, g[1] / ey])
    return _log_jacobian_reference(offset) @ np.array(
        [[-1.0 / ey, -(g[0] - ex) / ey ** 2], [0.0, -g[1] / ey ** 2]])


@pytest.mark.parametrize("near", [True, False], ids=["series", "direct"])
def test_residual_jacobian_keeps_the_bits_of_the_array_expression(near):
    # both branches of the log's Jacobian: |y - 1| < 1e-5 takes the series
    rng = np.random.default_rng(7)
    for _ in range(3000):
        g = np.array([rng.uniform(-3.0, 3.0), rng.uniform(0.01, 3.0)])
        ex = rng.uniform(-3.0, 3.0)
        ey = g[1] * (1.0 + (rng.uniform(-9e-6, 9e-6) if near else rng.uniform(-0.9, 3.0)))
        w_y = g[1] / ey
        assert (abs(w_y - 1.0) < 1e-5) == near
        got = _residual_jacobian(ex, ey, float(g[0]), float(g[1]))
        assert got.tobytes() == _residual_jacobian_reference(np.array([ex, ey]), g).tobytes()


@pytest.mark.parametrize("height", [0.0, 1e200])
def test_residual_jacobian_of_a_degenerate_endpoint_follows_numpy(height):
    # a zero endpoint height divides by 0, and a huge one overflows its
    # square: Python's floats raise there, so the model takes numpy's
    # scalars, whose inf and NaN the array expression made
    model, g = HyperbolicPlane(), np.array([0.3, 2.0])
    u = np.tile([0.1, 1.0], (4, 1))
    chain = model.endpoint_pass(g, u, 1.0)[2]
    chain[-1, 1] = height
    with np.errstate(all="ignore"):
        got = model._chain_jacobians(chain, u, 0.25, g)[2]
        want = _residual_jacobian_reference(chain[-1, :2], g)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.all(np.isfinite(got)) == (height != 0.0)


def _walk_jacobian(model, points, g, u, h):
    """d rho / d u_k one segment at a time: each segment's Jacobians (by the
    BCH series on a Carnot group, by the flow's derivatives on the
    hyperbolic plane), chained by a reverse sweep of single products."""
    if isinstance(model, CarnotGroup):
        alg = model.algebra
        S = -bch_jacobians(alg, -points[-1], g)[0]

        def segment(k):
            Da, Db = bch_jacobians(alg, points[k], h * model.embed_control(u[k]))
            return Da, Db @ (h * np.eye(model.point_dim, model.control_dim))
    else:
        S = _residual_jacobian_reference(points[-1], g)

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


def _fused_flow(alpha, beta, t):
    """X, Y, dX/dalpha, dX/dbeta and dY/dbeta of exp(t (alpha, beta)) in one
    evaluation: the reference the forward pass and the Jacobian stage must
    match bit for bit."""
    z = t * beta
    Y = np.exp(z)
    series = abs(z) < 1e-3
    b = np.where(series, 1.0, beta)
    em1 = Y - 1.0
    X, dXa = (alpha / b) * em1, em1 / b
    dXb = alpha * (t * Y * b - em1) / (b * b)
    if series.any():
        E = dE = 0.0
        for k in range(4, -1, -1):
            E = E * z + 1.0 / math.factorial(k + 1)
            dE = dE * z + (k + 1) / math.factorial(k + 2)
        X = np.where(series, alpha * t * E, X)
        dXa = np.where(series, t * E, dXa)
        dXb = np.where(series, alpha * t * t * dE, dXb)
    return X, Y, dXa, dXb, t * Y


def _identical(a, b):
    """Equal arrays, signs of zero included."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("case", ["hyperbolic", "hyperbolic-flat", "hyperbolic-mixed"])
def test_forward_flow_matches_the_full_flow(case, rng):
    model, g = _endpoint_case(case)
    for K in (1, 3, 16):
        U = rng.normal(size=(K, 40, 2)) * 0.5
        U[..., 0] += 1.2
        U[..., ::7, 0] = -0.0   # zero X, whose sign the flow must keep
        _set_slopes(case, U)
        h = 1.3 / U.shape[-2]
        alpha, beta = U[..., 0], U[..., 1]
        reference = _fused_flow(alpha, beta, h)
        X, Y = _hyperbolic_step(alpha, beta, h)[:2]
        # the full flow alone, and as the Jacobian stage calls it, with the
        # forward pass's exponentials
        for values in ((X, Y), _hyperbolic_flow(alpha, beta, h),
                       _hyperbolic_flow(alpha, beta, h, Y)):
            assert all(_identical(v, r) for v, r in zip(values, reference))
        chain = model.endpoint_pass(g, U, 1.3)[2]
        assert _identical(model.points(model.identity(), U, h), chain[..., :2])


#: their endpoint maps take closed forms (step-2 areas), not the chain
CLOSED_FORMS = ("heisenberg", "minkowski-area")


@pytest.mark.parametrize("case, full", [(c, False) for c in ENDPOINT_CASES]
                         + [("engel", True), ("step3-multiterm", True)])
def test_chain_matches_the_segment_walk(case, full, rng):
    model, g = _endpoint_case(case)
    x0 = model.identity()
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
        rho_walk = model._residual(walk[-1], g)
        rho, endpoint = model.endpoint_residual(g, u, 1.3)
        rho_full, J, endpoint_full = model.endpoint_map(g, u, 1.3)
        for r, e in ((rho, endpoint), (rho_full, endpoint_full)):
            assert np.array_equal(e, walk[-1])
            assert np.array_equal(r, rho_walk)
        assert np.array_equal(J, _walk_jacobian(model, walk, g, u, h))


# ---------------------------------------------------------------------------
# The graded layer pass against the full structure table
# ---------------------------------------------------------------------------


def _full_table_terms(alg, a, b, degree):
    """The BCH terms through ``degree``, with every bracket summed over the
    whole n x n x n table."""
    terms = [b]
    if degree >= 2:
        ab = alg.bracket(a, b)
        terms.append(0.5 * ab)
        if degree >= 3:
            aab = alg.bracket(a, ab)
            terms.append((aab - alg.bracket(b, ab)) / 12.0)
            if degree >= 4:
                terms.append(-(alg.bracket(b, aab) / 24.0))
    return terms


def _full_table_points(model, x0, u, h):
    """CarnotGroup.points as it was before the layer blocks: at layer l,
    every term through degree l over the full table, of the points whose
    layers >= l are still those of x0 (row 0) or 0."""
    alg = model.algebra
    u = model._controls(u)
    steps = h * model.embed_control(u.reshape(-1, u.shape[-1])).reshape(
        u.shape[:-1] + (model.point_dim,))
    batch, n_seg = steps.shape[:-2], steps.shape[-2]
    P = np.zeros(batch + (n_seg + 1, model.point_dim))
    P[..., 0, :] = model.validate_point(x0)
    lo = 0
    for layer, width in enumerate(alg.layer_dims, start=1):
        hi = lo + width
        terms = _full_table_terms(alg, P[..., :-1, :], steps, layer)
        seq = np.empty(batch + (n_seg * len(terms) + 1, width))
        seq[..., 0, :] = P[..., 0, lo:hi]
        for t, term in enumerate(terms):
            seq[..., 1 + t::len(terms), :] = term[..., lo:hi]
        P[..., lo:hi] = seq.cumsum(axis=-2)[..., ::len(terms), :]
        lo = hi
    P[..., 1:, :model.control_dim] += 0.0
    return P


POINT_ALGEBRAS = {
    "heisenberg": heisenberg_algebra(),
    "minkowski-area-2": minkowski_area_algebra(2),
    "minkowski-area-3": minkowski_area_algebra(3),
    "minkowski-area-4": minkowski_area_algebra(4),
    "engel": _endpoint_case("engel")[0].algebra,
    "filiform": FILIFORM4,
    "step3-multiterm": _endpoint_case("step3-multiterm")[0].algebra,
    "step1": _endpoint_case("carnot-step1")[0].algebra,
}


def _same_bits(a, b):
    """Equal arrays, NaN where NaN, signs of zero (and of NaN) included."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _signed_zero_controls(rng, shape, scale):
    """Normal controls times scale, a third of their entries exactly +0 or -0."""
    u = rng.normal(size=shape) * scale
    zero = rng.random(shape) < 0.3
    u[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, 0.0, -0.0)
    return u


@pytest.mark.parametrize("name", list(POINT_ALGEBRAS))
def test_points_match_the_full_table_pass(name, rng):
    model = CarnotGroup(POINT_ALGEBRAS[name])
    n = model.point_dim
    with np.errstate(over="ignore", invalid="ignore"):
        for full in (False, True):
            m = n if full else model.control_dim
            for stack in ((), (1,), (2,), (5,)):
                for n_seg in (1, 2, 9, 40):
                    # finite, and overflowing flows: the NaN and inf of their
                    # non-finite rows stay where they were
                    for scale in (1.0, 1e80, 1e160, 1e300):
                        x0 = _signed_zero_controls(rng, (n,), 1.0)
                        u = _signed_zero_controls(rng, stack + (n_seg, m), scale)
                        h = 1.3 / n_seg
                        got = model.points(x0, u, h)
                        ref = _full_table_points(model, x0, u, h)
                        if full and scale > 1.0 and model.algebra.step == 4:
                            # see test_points_find_layer_3_from_the_true_layer_3
                            bad = ~np.isfinite(ref).all(axis=-1)
                            assert np.array_equal(~np.isfinite(got).all(axis=-1), bad)
                            assert _same_bits(got[~bad], ref[~bad])
                        else:
                            assert _same_bits(got, ref), (full, stack, n_seg, scale)


def test_points_find_layer_3_from_the_true_layer_3():
    # At step 4 the full-table pass formed [a, b] on every layer while it
    # found layer 3, reading the points' layer 3 as 0 (as x0's on row 0);
    # where that layer-4 part overflowed, 0 * inf made layer 3 NaN.  The
    # graded pass never forms it: here exp(x0) exp(h u) keeps layer 3 of x0.
    model = CarnotGroup(FILIFORM4)
    x0 = np.array([0.0, 0.0, 0.0, 1e10, 0.0])
    u = np.array([[1e300, 0.0], [1.0, 0.5]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = model.points(x0, u, 0.5)
        ref = _full_table_points(model, x0, u, 0.5)
    assert got[1, 3] == 1e10 and np.isnan(ref[1, 3])
    assert np.isnan(got[1, 4]) and np.isnan(ref[1, 4])
    assert _same_bits(got[:, :3], ref[:, :3])


@pytest.mark.parametrize("name", ["heisenberg", "engel", "filiform"])
def test_overflow_errors_keep_their_text(name, monkeypatch):
    # flows of polyhedral generators up to 1e300 from the identity: integrate
    # and reach raise what they raised with the full-table pass, bad point
    # included, and return the same points where they do not raise
    model = CarnotGroup(POINT_ALGEBRAS[name])
    x0 = model.identity()
    ops = []
    for g in (1e80, 1e160, 1e300):
        cone = PolyhedralCone([[g, 0.5 * g], [g, -0.5 * g]])
        rng = np.random.default_rng(int(math.log10(g)))
        for n_seg in (1, 2, 9, 40):
            u = ControlSignal(cone.sample(n_seg, rng))
            for horizon in (1.0, 7.0):
                ops.append(lambda u=u, horizon=horizon:
                           integrate(model, x0, u, horizon).points)
        for seed in (0, 1):
            ops.append(lambda cone=cone, seed=seed:
                       reachability_sample(model, cone, x0, 300, seed=seed))

    def outcomes():
        out = []
        for op in ops:
            try:
                out.append(op())
            except ValueError as err:
                out.append(err)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        graded = outcomes()
        monkeypatch.setattr(CarnotGroup, "points", _full_table_points)
        full = outcomes()
    assert any(isinstance(r, ValueError) for r in full)
    assert any(not isinstance(r, ValueError) for r in full)
    for got, ref in zip(graded, full):
        if isinstance(ref, ValueError):
            assert type(got) is type(ref) and str(got) == str(ref)
            assert "non-finite" in str(ref)
        else:
            assert _same_bits(got, ref)
