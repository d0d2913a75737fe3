"""Computable group models: abelian R^n, the hyperbolic plane R x R_+, and
Carnot groups in exponential coordinates.

Carnot group elements are stored as Lie-algebra vectors (log coordinates);
products go through the Baker-Campbell-Hausdorff series, which terminates
at the nilpotency step and is hardcoded through step 4.

Points are 1-d vectors; ``log`` and ``validate_points`` also take stacks
of them.  Tangent and control arguments may also be a stack of row vectors,
shape (n, d), answered row by row.  The points of a piecewise-constant
control come from one vectorized pass over all its segments
(``GroupModel.points``), which every segment walk shares, and a stack of
controls goes through the endpoint residual in one pass.

The one reference metric, ``LeftInvariantQuadratic``, is a form at the
identity spread by left translations: its norm pulls a chart tangent back
to the identity through the model's ``pullback``.  Every model's
``natural_metric`` is the identity form there.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from .cones import Cone, as_vector, as_vectors
from .errors import DimensionMismatchError, InvalidPointError, UnsupportedStepError

MAX_STEP = 4
#: largest point dimension of a Carnot algebra: its Jacobi check builds n^4
#: arrays, 8 MB each at n = 32
MAX_DIM = 32


def _capped_dim(layer_dims) -> int:
    """The total dimension of ``layer_dims``, refused above MAX_DIM before
    any table of that size is built."""
    n = sum(layer_dims)
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the cap MAX_DIM = {MAX_DIM}")
    return n


# ---------------------------------------------------------------------------
# Carnot algebras
# ---------------------------------------------------------------------------


class CarnotAlgebra:
    """Stratified nilpotent Lie algebra g = g_1 + ... + g_s with g_1 generating.

    ``table[i, j, k]`` is the e_k-component of [e_i, e_j] in a basis ordered
    layer by layer.  Antisymmetry, grading, the Jacobi identity, and the
    generating property of g_1 are validated eagerly.
    """

    def __init__(self, layer_dims: Tuple[int, ...], table: np.ndarray) -> None:
        layer_dims = tuple(int(d) for d in layer_dims)
        if len(layer_dims) == 0 or any(d < 1 for d in layer_dims):
            raise ValueError("layer dims must be positive (top layer nonzero)")
        n = _capped_dim(layer_dims)
        table = np.asarray(table, dtype=float)
        if table.shape != (n, n, n):
            raise ValueError(f"structure table must be {(n, n, n)}, got {table.shape}")
        self.layer_dims = layer_dims
        self.step = len(layer_dims)
        self.dim = n
        self.table = table
        self.layer_of = np.concatenate(
            [np.full(d, ell + 1) for ell, d in enumerate(layer_dims)])
        self._validate()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_brackets(cls, layer_dims, brackets: Dict[Tuple[int, int], Dict[int, float]]
                      ) -> "CarnotAlgebra":
        """Build from sparse entries {(i, j): {k: coeff}} meaning
        [e_i, e_j] = sum_k coeff * e_k; the (j, i) mirror is filled in."""
        n = _capped_dim(layer_dims)
        table = np.zeros((n, n, n))
        for (i, j), comps in brackets.items():
            for k, c in comps.items():
                table[i, j, k] += c
                table[j, i, k] -= c
        return cls(tuple(layer_dims), table)

    def _validate(self) -> None:
        t = self.table
        if not np.allclose(t, -np.transpose(t, (1, 0, 2)), atol=1e-12):
            raise ValueError("structure table is not antisymmetric")
        lo = self.layer_of
        for i in range(self.dim):
            for j in range(self.dim):
                nz = np.nonzero(np.abs(t[i, j]) > 1e-15)[0]
                if len(nz) and np.any(lo[nz] != lo[i] + lo[j]):
                    raise ValueError(
                        f"grading violated: [e_{i}, e_{j}] leaves layer {lo[i] + lo[j]}")
        # Jacobi on basis triples: [ei,[ej,ek]] + cyclic = 0
        jac = (np.einsum("jkm,iml->ijkl", t, t)
               + np.einsum("kim,jml->ijkl", t, t)
               + np.einsum("ijm,kml->ijkl", t, t))
        worst = np.max(np.abs(jac))
        if worst > 1e-12:
            raise ValueError(f"Jacobi identity fails on basis triples (max {worst:.3g})")
        # g_1 must generate: [g_1, g_i] spans g_{i+1}
        start = np.concatenate([[0], np.cumsum(self.layer_dims)])
        for ell in range(1, self.step):
            rows = []
            for i in range(self.layer_dims[0]):
                for j in range(start[ell - 1], start[ell]):
                    rows.append(t[i, j, start[ell]:start[ell + 1]])
            rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10)
            if rank < self.layer_dims[ell]:
                raise ValueError(f"[g_1, g_{ell}] does not span g_{ell + 1}")

    # -- algebra operations ----------------------------------------------------

    def bracket(self, a, b) -> np.ndarray:
        """[a, b] of vectors or of stacks of row vectors (broadcast).  The
        dense sum adds its terms over i, then j, for every row of a stack as
        for a single vector, so batched chains keep the arithmetic of
        bch_log_product."""
        return np.einsum("ijk,...i,...j->...k", self.table, a, b)

    def ad(self, a) -> np.ndarray:
        """Matrix of ad_a = [a, .], one per row of a stack."""
        return np.einsum("ijk,...i->...kj", self.table, a)


def _check_step(algebra: CarnotAlgebra) -> None:
    if algebra.step > MAX_STEP:
        raise UnsupportedStepError(f"BCH truncation covers step <= {MAX_STEP}, "
                                   f"algebra has step {algebra.step}")


# BCH series through total order 4; exact on algebras of step <= 4.
def _bch_terms(algebra: CarnotAlgebra, a: np.ndarray, b: np.ndarray,
               degree: int) -> list:
    """The terms of log(exp(a) exp(b)) after a, through ``degree``, in the
    order they are added: b, [a, b]/2, ([a, [a, b]] - [b, [a, b]])/12 and
    -[b, [a, [a, b]]]/24.  A term of degree n lies in the layers >= n."""
    terms = [b]
    if degree >= 2:
        ab = algebra.bracket(a, b)
        terms.append(0.5 * ab)
        if degree >= 3:
            aab = algebra.bracket(a, ab)
            terms.append((aab - algebra.bracket(b, ab)) / 12.0)
            if degree >= 4:
                terms.append(-(algebra.bracket(b, aab) / 24.0))
    return terms


def bch_log_product(algebra: CarnotAlgebra, a, b) -> np.ndarray:
    """log(exp(a) exp(b)) for g-vectors a, b, or row by row for stacks."""
    _check_step(algebra)
    a = as_vectors(a, algebra.dim)
    b = as_vectors(b, algebra.dim)
    z = a
    # at step 1 the half bracket is +0, and still turns a sum of -0 into +0
    for term in _bch_terms(algebra, a, b, max(algebra.step, 2)):
        z = z + term
    return z


def bch_jacobians(algebra: CarnotAlgebra, a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Matrices (D_a bch, D_b bch) at (a, b), one pair per row for stacks;
    exact for step <= 4.

    Derived term by term from the order-4 series; the ad-nilpotency of the
    grading makes every product below finite.
    """
    _check_step(algebra)
    a = as_vectors(a, algebra.dim)
    b = as_vectors(b, algebra.dim)
    I = np.eye(algebra.dim)
    A = algebra.ad(a)
    B = algebra.ad(b)
    ab = algebra.bracket(a, b)
    Da = I - 0.5 * B
    Db = I + 0.5 * A
    if algebra.step >= 3:
        ad_ab = algebra.ad(ab)
        Da = Da + (-ad_ab - A @ B + B @ B) / 12.0
        Db = Db + (A @ A + ad_ab - B @ A) / 12.0
        if algebra.step >= 4:
            aab = algebra.bracket(a, ab)
            Da = Da + (B @ ad_ab + B @ A @ B) / 24.0
            Db = Db + (algebra.ad(aab) - B @ A @ A) / 24.0
    return Da, Db


def left_translation_jacobian(algebra: CarnotAlgebra, xi) -> np.ndarray:
    """Chart matrix of d(L_p) at the identity, p = exp(xi): the chart velocity
    of t -> p exp(t u) at t = 0 is this matrix applied to u."""
    _check_step(algebra)
    xi = as_vector(xi, algebra.dim)
    A = algebra.ad(xi)
    return np.eye(algebra.dim) + 0.5 * A + (A @ A) / 12.0


# ---------------------------------------------------------------------------
# Group models
# ---------------------------------------------------------------------------


class GroupModel:
    """Base class: a group with identity, product, inverse, exponential flow
    and a global chart (points are coordinate vectors).

    Everything left-invariant is decided at the identity, so a model also
    supplies the maps between identity tangents and chart tangents, the
    chart indices of the derived algebra [g, g], and the endpoint map of
    piecewise-constant controls, alone or with its Jacobian.
    """

    point_dim: int
    control_dim: int
    #: chart indices spanning [g, g]; a left-invariant form is exact exactly
    #: when its covector vanishes there
    derived_coords: slice

    def identity(self) -> np.ndarray:
        raise NotImplementedError

    def validate_point(self, p) -> np.ndarray:
        return as_vector(p, self.point_dim, "point")

    def validate_points(self, points) -> np.ndarray:
        """Check a point, or a stack of points (..., point_dim) row after
        row: the first invalid row raises what validate_point raises for it."""
        points = np.asarray(points, dtype=float)
        if points.ndim <= 1:
            return self.validate_point(points)
        if points.shape[-1] != self.point_dim:
            raise DimensionMismatchError(f"points have dim {points.shape[-1]}, "
                                         f"expected {self.point_dim}")
        rows = points.reshape(-1, self.point_dim)
        inside = self._inside(rows)
        if not np.all(inside):
            self.validate_point(rows[np.argmin(inside)])
        return points

    def _inside(self, rows: np.ndarray) -> np.ndarray:
        """Which rows of a (n, point_dim) stack validate_point accepts."""
        return np.all(np.isfinite(rows), axis=1)

    def multiply(self, p, q) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, p) -> np.ndarray:
        raise NotImplementedError

    def exp_step(self, p, u, h: float) -> np.ndarray:
        """p . exp(h u), u a tangent vector at the identity."""
        u = as_vector(u, name="control")
        return self.validate_point(self.points(p, u[None], h)[-1])

    def points(self, x0, u, h: float) -> np.ndarray:
        """The points p_0 = x0, p_{k+1} = p_k exp(h u_k) of the
        piecewise-constant control u (N, m), as an (N + 1, point_dim) array;
        leading batch axes of u carry over.  The points are not validated:
        a flow that overflows gives non-finite points."""
        raise NotImplementedError

    def _controls(self, u) -> np.ndarray:
        """u as a float array (..., N, m), m the control or the point dim."""
        u = np.asarray(u, dtype=float)
        if u.ndim < 2 or u.shape[-1] not in (self.control_dim, self.point_dim):
            raise DimensionMismatchError(
                f"controls must be (..., N, {self.control_dim} or {self.point_dim}), "
                f"got shape {u.shape}")
        return u

    def log(self, p) -> np.ndarray:
        """Inverse of exp at the identity (group logarithm in the chart), of
        a point or of each row of a stack of points."""
        raise NotImplementedError

    def embed_control(self, u) -> np.ndarray:
        """Lift control-space vectors to full identity tangent vectors."""
        return as_vectors(u, self.point_dim, "control")

    def left_translate(self, p, u) -> np.ndarray:
        """Chart components at p of the left-translates of identity tangents u."""
        raise NotImplementedError

    def pullback(self, p, v) -> np.ndarray:
        """Identity tangents whose left-translates at p have chart components v."""
        raise NotImplementedError

    def forced_average(self, x0, x1) -> Optional[np.ndarray]:
        """Control average forced by the endpoints, or None when the model
        pins none down."""
        return None

    def admits_path(self, cone: Cone, x0, x1) -> bool:
        """False when a certificate rules out every cone-admissible path from
        x0 to x1: here, a forced control average outside the cone."""
        target = self.forced_average(x0, x1)
        return (target is None or np.linalg.norm(target) == 0.0
                or cone.contains(target, 1e-9))

    def coordinate_names(self) -> list:
        return [f"x{i}" for i in range(self.point_dim)]

    def natural_metric(self) -> LeftInvariantQuadratic:
        """The invariant reference metric of the diagnostics: the identity
        form at the identity, spread by left translations."""
        return LeftInvariantQuadratic(np.eye(self.point_dim))

    def endpoint_residual(self, x0, x1, u: np.ndarray, horizon: float
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual rho = log(endpoint^{-1} x1) and the endpoint of the
        piecewise-constant control u (N, m), or of each control of a stack
        (K, N, m): the forward pass of endpoint_map, without its Jacobian."""
        return self.endpoint_pass(x0, x1, u, horizon)[:2]

    def endpoint_pass(self, x0, x1, u: np.ndarray, horizon: float
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The forward pass of a control or of a stack of controls: (rho,
        endpoint, chain), where ``chain`` holds what endpoint_jacobian takes
        from the pass, indexed by the stack's leading axes: here the points;
        the hyperbolic plane adds its flow's exponentials, and step-2 Carnot
        groups keep first layers only.  A stack with a bad row raises what
        that row raises alone."""
        points = self.points(x0, u, horizon / u.shape[-2])
        return self._residual(points[..., -1, :], x1), points[..., -1, :], points

    def endpoint_jacobian(self, x0, x1, u: np.ndarray, horizon: float,
                          chain: np.ndarray) -> np.ndarray:
        """d rho / d u_k of one control, (N, res_dim, control_dim), from the
        chain of its forward pass.  The reverse sweep stacks the suffix
        products S_k = S_{k+1} Dp_k, right to left from the residual's
        Jacobian S_N, one dgemm each on rows of the stacks, and J_k =
        S_{k+1} Du_k is one batched matmul."""
        n_seg = u.shape[0]
        Dp, Du, S_end = self._chain_jacobians(chain, u, horizon / n_seg, x1)
        S = np.empty((n_seg + 1,) + S_end.shape)
        S[n_seg] = S_end
        # np.dot of 2-D float64 rows is the dgemm that matmul calls, without
        # the ufunc dispatch and the per-step views
        Sv, Dv = list(S), list(Dp)
        for k in range(n_seg - 1, -1, -1):
            np.dot(Sv[k + 1], Dv[k], out=Sv[k])
        return S[1:] @ Du

    def endpoint_map(self, x0, x1, u: np.ndarray, horizon: float
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual rho = log(endpoint^{-1} x1) plus d rho / d u_k, analytically.

        Returns (rho, J, endpoint) with J of shape (N, res_dim, control_dim):
        the forward pass, then its Jacobian stage.
        """
        rho, endpoint, chain = self.endpoint_pass(x0, x1, u, horizon)
        return rho, self.endpoint_jacobian(x0, x1, u, horizon, chain), endpoint

    def _chain_jacobians(self, chain: np.ndarray, u: np.ndarray, h: float, x1
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """From the chain of one control's forward pass: the Jacobians of
        p_k exp(h u_k) in p_k and in u_k, stacked over the segments,
        (N, point_dim, point_dim) and (N, point_dim, control_dim); then the
        Jacobian of log(endpoint^{-1} x1) in the endpoint."""
        raise NotImplementedError

    def _residual(self, endpoint: np.ndarray, x1) -> np.ndarray:
        """log(endpoint^{-1} x1), row by row for a stack of endpoints."""
        raise NotImplementedError


class AbelianGroup(GroupModel):
    """R^n under addition."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.point_dim = self.dim
        self.control_dim = self.dim
        self.derived_coords = slice(self.dim, None)

    def __repr__(self) -> str:
        return f"AbelianGroup(dim={self.dim})"

    def identity(self):
        return np.zeros(self.dim)

    def multiply(self, p, q):
        return self.validate_point(p) + self.validate_point(q)

    def inverse(self, p):
        return -self.validate_point(p)

    def points(self, x0, u, h):
        x0 = self.validate_point(x0)
        u = self._controls(u)
        seq = np.empty(u.shape[:-2] + (u.shape[-2] + 1, self.dim))
        seq[..., 0, :] = x0
        seq[..., 1:, :] = h * u
        return seq.cumsum(axis=-2)

    def log(self, p):
        return self.validate_points(p)

    def left_translate(self, p, u):
        self.validate_point(p)
        return as_vectors(u, self.dim, "tangent vector").copy()

    def pullback(self, p, v):
        self.validate_point(p)
        return as_vectors(v, self.dim, "tangent vector").copy()

    def forced_average(self, x0, x1):
        return self.log(self.multiply(self.inverse(x0), x1))

    def endpoint_pass(self, x0, x1, u, horizon):
        """The endpoint is a sum; the chain is the endpoint alone."""
        endpoint = x0 + (horizon / u.shape[-2]) * u.sum(axis=-2)
        return x1 - endpoint, endpoint, endpoint

    def endpoint_jacobian(self, x0, x1, u, horizon, chain):
        n_seg, m = u.shape
        return np.broadcast_to(-(horizon / n_seg) * np.eye(m), (n_seg, m, m)).copy()


#: Taylor coefficients of E(z) = (e^z - 1)/z and of E'(z), highest order
#: first (Horner order); the first dropped terms are below 2e-18 for |z| < 1e-3
_SERIES = tuple((1.0 / math.factorial(k + 1), (k + 1) / math.factorial(k + 2))
                for k in range(4, -1, -1))


def _hyperbolic_flow(alpha: np.ndarray, beta: np.ndarray, t: float,
                     Y: Optional[np.ndarray] = None) -> Tuple[np.ndarray, ...]:
    """exp(t (alpha, beta)) = (X, Y) with X = alpha t E(t beta), Y = e^{t beta}
    and E(z) = (e^z - 1)/z, plus dX/dalpha, dX/dbeta and dY/dbeta, elementwise.

    A ``Y`` computed earlier from the same ``beta`` and ``t`` (a forward
    pass's) is taken as given, so the Jacobian stage calls no exponential.
    The direct quotients cancel as z -> 0, with relative errors near
    eps/|z| (X) and 2 eps/z^2 (dX/dbeta); |z| < 1e-3 takes the series
    instead, so those errors stay below 3e-13 and 5e-10.  The series is
    evaluated only when some element takes it.
    """
    z = t * beta
    if Y is None:
        Y = np.exp(z)
    series = abs(z) < 1e-3
    b = np.where(series, 1.0, beta)  # the direct branch is not used there
    em1 = Y - 1.0
    X, dXa = (alpha / b) * em1, em1 / b
    dXb = alpha * (t * Y * b - em1) / (b * b)
    if series.any():
        E = dE = 0.0
        for c, d in _SERIES:
            E = E * z + c
            dE = dE * z + d
        X = np.where(series, alpha * t * E, X)
        dXa = np.where(series, t * E, dXa)
        dXb = np.where(series, alpha * t * t * dE, dXb)
    return X, Y, dXa, dXb, t * Y


def _hyperbolic_log_jacobian(w: np.ndarray) -> np.ndarray:
    """d log / d point at w = (x, y) on the hyperbolic plane."""
    x, y = w
    t = y - 1.0
    if abs(t) < 1e-5:
        ratio = 1.0 - t / 2.0 + t * t / 3.0 - t ** 3 / 4.0
        dratio = -0.5 + 2.0 * t / 3.0 - 0.75 * t * t
    else:
        ratio = np.log(y) / t
        dratio = ((t / y) - np.log(y)) / (t * t)
    return np.array([[ratio, x * dratio], [0.0, 1.0 / y]])


class HyperbolicPlane(GroupModel):
    """The semidirect product R x R_+ with (x1,y1).(x2,y2) = (x1+y1x2, y1y2),
    a model of the Lobachevsky plane; points (x, y) require y > 0."""

    point_dim = 2
    control_dim = 2
    derived_coords = slice(0, 1)

    def __repr__(self) -> str:
        return "HyperbolicPlane()"

    def identity(self):
        return np.array([0.0, 1.0])

    def validate_point(self, p):
        p = as_vector(p, 2, "point")
        if p[1] <= 0.0:
            raise InvalidPointError(f"hyperbolic point needs y > 0, got y = {p[1]}")
        return p

    def _inside(self, rows):
        # extreme h beta overflow or underflow a flow off the plane
        return super()._inside(rows) & (rows[:, 1] > 0.0)

    def multiply(self, p, q):
        p = self.validate_point(p)
        q = self.validate_point(q)
        return np.array([p[0] + p[1] * q[0], p[1] * q[1]])

    def inverse(self, p):
        p = self.validate_point(p)
        return np.array([-p[0] / p[1], 1.0 / p[1]])

    def log(self, p):
        p = self.validate_points(p)
        y = p[..., 1]
        w = y - 1.0
        near = np.abs(w) < 1e-8
        out = np.empty(p.shape)
        out[..., 1] = beta = np.log(y)
        # log(1+w)/w = 1 - w/2 + w^2/3 - ... near w = 0
        out[..., 0] = p[..., 0] * np.where(near, 1.0 - w / 2.0 + w * w / 3.0,
                                           beta / np.where(near, 1.0, w))
        return out

    def left_translate(self, p, u):
        return self.validate_point(p)[1] * as_vectors(u, 2, "tangent vector")

    def pullback(self, p, v):
        y = self.validate_point(p)[1]
        return as_vectors(v, 2, "tangent vector") / y

    def admits_path(self, cone, x0, x1):
        """exp(t c) = e + ((e^{t beta} - 1)/beta) c and (e + a)(e + b) =
        e + a + (1 + a_y) b, so every point reachable from x0 lies in
        x0 ((e + cone) with y > 0)."""
        w = self.multiply(self.inverse(x0), x1)
        return cone.contains(w - self.identity(), 1e-9)

    def coordinate_names(self):
        return ["x", "y"]

    def points(self, x0, u, h):
        return np.stack(self._walk(x0, u, h)[:2], axis=-1)

    def _walk(self, x0, u, h):
        """x_k, y_k and the factors (y_0, Y_0, ..., Y_{N-1}) of y_k's
        cumprod: y_{k+1} = y_k Y_k and x_{k+1} = x_k + y_k X_k, in segment
        order, each of shape (..., N + 1)."""
        x0 = self.validate_point(x0)
        u = self._controls(u)
        X, Y = _hyperbolic_flow(u[..., 0], u[..., 1], h)[:2]
        start = np.ones(u.shape[:-2] + (1,))
        factors = np.concatenate([x0[1] * start, Y], axis=-1)
        y = factors.cumprod(axis=-1)
        x = np.concatenate([x0[0] * start, y[..., :-1] * X], axis=-1).cumsum(axis=-1)
        return x, y, factors

    def endpoint_pass(self, x0, x1, u, horizon):
        """The chain holds (x_k, y_k, f_k) per point, (..., N + 1, 3), where
        f_{k+1} = Y_k = e^{h beta_k} is the flow's exponential, which the
        Jacobian stage reuses (f_0 = y_0)."""
        chain = np.stack(self._walk(x0, u, horizon / u.shape[-2]), axis=-1)
        endpoint = chain[..., -1, :2]
        return self._residual(endpoint, x1), endpoint, chain

    def _chain_jacobians(self, chain, u, h, x1):
        X, Y, dXa, dXb, dYb = _hyperbolic_flow(u[:, 0], u[:, 1], h, chain[1:, 2])
        zero, one = np.zeros_like(X), np.ones_like(X)
        ex, ey = endpoint = chain[-1, :2]
        dw_dE = np.array([[-1.0 / ey, -(x1[0] - ex) / ey ** 2],
                          [0.0, -x1[1] / ey ** 2]])
        return (np.stack([one, X, zero, Y], axis=-1).reshape(-1, 2, 2),
                chain[:-1, 1, None, None]
                * np.stack([dXa, dXb, zero, dYb], axis=-1).reshape(-1, 2, 2),
                _hyperbolic_log_jacobian(self._offset(endpoint, x1)) @ dw_dE)

    @staticmethod
    def _offset(endpoint, x1) -> np.ndarray:
        """endpoint^{-1} x1, row by row for a stack of endpoints."""
        out = np.empty(np.shape(endpoint))
        out[..., 0] = (x1[0] - endpoint[..., 0]) / endpoint[..., 1]
        out[..., 1] = x1[1] / endpoint[..., 1]
        return out

    def _residual(self, endpoint, x1):
        return self.log(self._offset(endpoint, x1))


class CarnotGroup(GroupModel):
    """Carnot group in exponential coordinates over a stratified algebra."""

    def __init__(self, algebra: CarnotAlgebra) -> None:
        self.algebra = algebra
        self.point_dim = algebra.dim
        self.control_dim = algebra.layer_dims[0]
        self.derived_coords = slice(self.control_dim, None)
        self._first_layer = np.eye(self.point_dim, self.control_dim)

    def __repr__(self) -> str:
        return f"CarnotGroup(layers={self.algebra.layer_dims})"

    def identity(self):
        return np.zeros(self.point_dim)

    def multiply(self, p, q):
        return bch_log_product(self.algebra,
                               self.validate_point(p), self.validate_point(q))

    def inverse(self, p):
        return -self.validate_point(p)

    def log(self, p):
        return self.validate_points(p)

    def embed_control(self, u):
        """First-layer controls gain zero components on [g, g]."""
        u = as_vectors(u, name="control")
        if u.shape[-1] != self.control_dim:
            return as_vectors(u, self.point_dim, "control")
        out = np.zeros(u.shape[:-1] + (self.point_dim,))
        out[..., :self.control_dim] = u
        return out

    def left_translate(self, p, u):
        p = self.validate_point(p)
        u = as_vectors(u, self.point_dim, "tangent vector")
        return u @ left_translation_jacobian(self.algebra, p).T

    def pullback(self, p, v):
        p = self.validate_point(p)
        v = as_vectors(v, self.point_dim, "tangent vector")
        return np.linalg.solve(left_translation_jacobian(self.algebra, p), v.T).T

    def forced_average(self, x0, x1):
        return self.log(self.multiply(self.inverse(x0), x1))[:self.control_dim]

    def endpoint_pass(self, x0, x1, u, horizon):
        if self.algebra.step != 2:
            return super().endpoint_pass(x0, x1, u, horizon)
        return self._area_chain(x0, x1, u, horizon)

    def endpoint_jacobian(self, x0, x1, u, horizon, chain):
        """Step 2 in closed form from the first layers P_k of the pass's
        points; other steps sweep the exact BCH Jacobians of the chain's
        segments."""
        alg = self.algebra
        if alg.step != 2:
            return super().endpoint_jacobian(x0, x1, u, horizon, chain)
        n_seg = u.shape[0]
        h = horizon / n_seg
        n = alg.dim
        m1 = alg.layer_dims[0]
        T12 = alg.table[:m1, :m1, m1:]
        csum = np.cumsum(u, axis=0)
        after = (csum[-1][None, :] - csum) * h  # sum h u_l, l > k
        # d xiE / d u_k: first layer h I; second layer (h/2) [P_k - after_k, .]
        W = chain - after
        DxiE = np.zeros((n_seg, n, m1))
        DxiE[:, :m1, :] = h * np.eye(m1)
        DxiE[:, m1:, :] = 0.5 * h * np.einsum("ijk,ti->tkj", T12, W)
        drho_dxi = -np.eye(n) + 0.5 * alg.ad(np.asarray(x1, dtype=float))
        return np.einsum("ab,tbc->tac", drho_dxi, DxiE)

    def _area_chain(self, x0, x1, u, horizon):
        """Step 2 in closed form, for a control or a stack of them: rho, the
        endpoint and the first layers P_k of the points before each segment,
        which the Jacobian reuses."""
        alg = self.algebra
        h = horizon / u.shape[-2]
        m1 = alg.layer_dims[0]
        xi0 = np.asarray(x0, dtype=float)
        eta = np.asarray(x1, dtype=float)
        csum = np.cumsum(u, axis=-2)
        before = np.concatenate([np.zeros(csum.shape[:-2] + (1, m1)), csum[..., :-1, :]],
                                axis=-2) * h  # sum h u_j, j < k
        P = xi0[:m1] + before
        first = xi0[:m1] + h * csum[..., -1, :]
        # bracket of first-layer vectors, landing in the second layer
        T12 = alg.table[:m1, :m1, m1:]
        second = xi0[m1:] + 0.5 * h * np.einsum("ijk,...ti,...tj->...k", T12, P, u)
        xiE = np.concatenate([first, second], axis=-1)
        # rho = bch(-xiE, eta) at step 2
        rho = eta - xiE - 0.5 * alg.bracket(xiE, eta)
        return rho, xiE, P

    def points(self, x0, u, h):
        """Layer by layer: layer j of a BCH term depends only on the layers
        < j of its arguments, so once those are known for every point, the
        terms give layer j of all points by one cumsum.  Its input lists
        each segment's terms in the order bch_log_product adds them, so every
        point keeps that association."""
        alg = self.algebra
        _check_step(alg)
        u = self._controls(u)
        steps = h * self.embed_control(u.reshape(-1, u.shape[-1])).reshape(
            u.shape[:-1] + (self.point_dim,))
        batch, n_seg = steps.shape[:-2], steps.shape[-2]
        P = np.zeros(batch + (n_seg + 1, self.point_dim))
        P[..., 0, :] = self.validate_point(x0)
        lo = 0
        for layer, width in enumerate(alg.layer_dims, start=1):
            hi = lo + width
            terms = _bch_terms(alg, P[..., :-1, :], steps, layer)
            seq = np.empty(batch + (n_seg * len(terms) + 1, width))
            seq[..., 0, :] = P[..., 0, lo:hi]
            for t, term in enumerate(terms):
                seq[..., 1 + t::len(terms), :] = term[..., lo:hi]
            P[..., lo:hi] = seq.cumsum(axis=-2)[..., ::len(terms), :]
            lo = hi
        # the series also adds [a, b]/2 = +0 on the first layer, which turns
        # a sum of -0 into +0
        P[..., 1:, :self.control_dim] += 0.0
        return P

    def _chain_jacobians(self, points, u, h, x1):
        # the segment pairs (p_k, h u_k) and the residual pair (-p_N, x1) in
        # one call
        Da, Db = bch_jacobians(
            self.algebra, np.concatenate([points[:-1], -points[-1:]]),
            np.concatenate([h * self.embed_control(u),
                            np.asarray(x1, dtype=float)[None]]))
        return Da[:-1], Db[:-1] @ (h * self._first_layer), -Da[-1]

    def _residual(self, endpoint, x1):
        return bch_log_product(self.algebra, -endpoint, np.asarray(x1, dtype=float))


# ---------------------------------------------------------------------------
# The invariant reference metric
# ---------------------------------------------------------------------------


class LeftInvariantQuadratic:
    """Left-invariant metric from a positive-definite form at the identity."""

    def __init__(self, form) -> None:
        Q = np.asarray(form, dtype=float)
        if np.any(np.linalg.eigvalsh(0.5 * (Q + Q.T)) <= 0):
            raise ValueError("form at identity must be positive definite")
        self.form = 0.5 * (Q + Q.T)

    def __repr__(self):
        return f"LeftInvariantQuadratic(dim={self.form.shape[0]})"

    def norm(self, model: GroupModel, p, v):
        """Norm of the chart tangent vector v at the point p (of each row of
        a stack v): the form applied to its pullback to the identity."""
        w = model.pullback(p, v)
        return np.sqrt(np.einsum("...i,ij,...j->...", w, self.form, w))


# ---------------------------------------------------------------------------
# Stock algebras and the structure-constant file format
# ---------------------------------------------------------------------------


def minkowski_area_algebra(r: int) -> CarnotAlgebra:
    """Step-2 algebra with first layer R^{1+r} (time e_0, space e_1..e_r) and
    second layer spanned by y_1..y_r with [a, b]_i = a_0 b_i - b_0 a_i; the
    second-layer coordinates integrate oriented areas in the (e_0, e_i) planes.
    """
    if r < 1:
        raise ValueError("need at least one spatial coordinate")
    brackets = {(0, i): {r + i: 1.0} for i in range(1, r + 1)}
    return CarnotAlgebra.from_brackets((r + 1, r), brackets)


def heisenberg_algebra() -> CarnotAlgebra:
    """The 3-dimensional Heisenberg algebra: [e_0, e_1] = y."""
    return minkowski_area_algebra(1)


def parse_structure_constants(text: str) -> CarnotAlgebra:
    """Parse the textual structure-constant format.

    First non-comment line: ``layers: d1 d2 ... ds``.  Each following line
    ``i j k coeff`` declares the e_k-component of [e_i, e_j] (0-based basis
    indices); the antisymmetric mirror is implied and giving both orders
    with inconsistent coefficients is an error.
    """
    layer_dims: Optional[Tuple[int, ...]] = None
    entries: Dict[Tuple[int, int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if layer_dims is None:
            if not line.startswith("layers:"):
                raise ValueError(f"line {lineno}: expected 'layers: d1 d2 ...' header")
            layer_dims = tuple(int(tok) for tok in line[len("layers:"):].split())
            if not layer_dims:
                raise ValueError(f"line {lineno}: empty layer list")
            _capped_dim(layer_dims)
            continue
        toks = line.split()
        if len(toks) != 4:
            raise ValueError(f"line {lineno}: expected 'i j k coeff', got {line!r}")
        i, j, k = (int(t) for t in toks[:3])
        coeff = float(toks[3])
        n = sum(layer_dims)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"line {lineno}: basis index out of range (dim {n})")
        if (i, j, k) in entries:
            raise ValueError(f"line {lineno}: duplicate entry for [e_{i}, e_{j}] -> e_{k}")
        if (j, i, k) in entries and entries[(j, i, k)] != -coeff:
            raise ValueError(f"line {lineno}: conflicts with mirror entry [e_{j}, e_{i}]")
        entries[(i, j, k)] = coeff
    if layer_dims is None:
        raise ValueError("missing 'layers:' header")
    n = sum(layer_dims)
    table = np.zeros((n, n, n))
    for (i, j, k), coeff in entries.items():
        table[i, j, k] = coeff
        if (j, i, k) not in entries:
            table[j, i, k] = -coeff
    return CarnotAlgebra(layer_dims, table)


def load_structure_constants(path) -> CarnotAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure_constants(fh.read())


def format_structure_constants(algebra: CarnotAlgebra) -> str:
    lines = ["layers: " + " ".join(str(d) for d in algebra.layer_dims)]
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c = algebra.table[i, j, k]
                if c != 0.0:
                    lines.append(f"{i} {j} {k} {c:.17g}")
    return "\n".join(lines) + "\n"
