"""Computable group models: the hyperbolic plane R x R_+, and Carnot groups
in exponential coordinates, abelian R^n among them as the Carnot group of
step 1 (``AbelianGroup``), with no engine of its own.

Carnot group elements are stored as Lie-algebra vectors (log coordinates);
products go through the Baker-Campbell-Hausdorff series, which terminates
at the nilpotency step and is hardcoded through step 4.

Points are 1-d vectors; ``log`` and ``validate_points`` also take stacks
of them.  Tangent and control arguments may also be a stack of row vectors,
shape (n, d), answered row by row.  The points of a piecewise-constant
control come from one vectorized pass over all its segments
(``GroupModel.points``), which every segment walk shares, and a stack of
controls goes through the endpoint residual in one pass.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from .cones import RAY_TOL, Cone, antinorm_eval, as_vector, as_vectors
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
    generating property of g_1 are validated eagerly.  ``blocks[l - 1]`` is
    layer l's block ``table[:lo, :lo, lo:hi]`` (layer l spans lo:hi): the
    brackets of the layers below l that land in layer l.  The grading makes
    every other entry of the table's layer-l columns 0.
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
        start = np.concatenate([[0], np.cumsum(layer_dims)])
        self.blocks = tuple(np.ascontiguousarray(table[:lo, :lo, lo:hi])
                            for lo, hi in zip(start[:-1], start[1:]))

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
        target = lo[:, None] + lo[None, :]
        off_grade = (np.abs(t) > 1e-15) & (lo[None, None, :] != target[:, :, None])
        if off_grade.any():
            i, j = np.argwhere(off_grade)[0, :2]
            raise ValueError(f"grading violated: [e_{i}, e_{j}] leaves layer {target[i, j]}")
        # Jacobi on basis triples: [ei,[ej,ek]] + cyclic = 0, each term a
        # transpose of tt[a, b, c, l] = sum_m t[a, b, m] t[c, m, l]
        tt = np.tensordot(t, t, axes=([2], [1]))
        jac = tt.transpose(2, 0, 1, 3) + tt.transpose(1, 2, 0, 3) + tt
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
def _bch_terms(b: np.ndarray, brackets) -> list:
    """The terms of log(exp(a) exp(b)) after a, in the order they are added:
    b, [a, b]/2, ([a, [a, b]] - [b, [a, b]])/12 and -[b, [a, [a, b]]]/24,
    from b and the brackets ([a, b], [a, [a, b]], [b, [a, b]],
    [b, [a, [a, b]]]) or a prefix of them: [a, b] gives the terms through
    degree 2, the next two through degree 3 and all four through degree 4."""
    terms = [b]
    if len(brackets) >= 1:
        terms.append(0.5 * brackets[0])
    if len(brackets) >= 3:
        terms.append((brackets[1] - brackets[2]) / 12.0)
    if len(brackets) >= 4:
        terms.append(-(brackets[3] / 24.0))
    return terms


def _zero_or_nan(x: np.ndarray) -> np.ndarray:
    """Per row of x, +-0 where every entry is finite and NaN where one is not:
    what a zero entry of the structure table makes of that row's entries."""
    return (0.0 * x).sum(-1, keepdims=True)


def bch_log_product(algebra: CarnotAlgebra, a, b) -> np.ndarray:
    """log(exp(a) exp(b)) for g-vectors a, b, or row by row for stacks."""
    _check_step(algebra)
    a = as_vectors(a, algebra.dim)
    b = as_vectors(b, algebra.dim)
    # at step 1 the half bracket is +0, and still turns a sum of -0 into +0
    brackets = [algebra.bracket(a, b)]
    if algebra.step >= 3:
        brackets += [algebra.bracket(a, brackets[0]), algebra.bracket(b, brackets[0])]
        if algebra.step >= 4:
            brackets.append(algebra.bracket(b, brackets[1]))
    z = a
    for term in _bch_terms(b, brackets):
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


# ---------------------------------------------------------------------------
# Group models
# ---------------------------------------------------------------------------


class GroupModel:
    """Base class: a group with identity, product, inverse, exponential flow
    and a global chart (points are coordinate vectors).

    Everything left-invariant is decided at the identity, so a model also
    supplies its Lie bracket there, the maps between identity tangents and
    chart tangents, and the endpoint map of piecewise-constant controls from
    the identity to g = x0^-1 x1, alone or with its Jacobian: left
    invariance makes it the problem from x0 to x1.
    """

    point_dim: int
    control_dim: int
    #: ``structure_constants[i, j, k]`` is the e_k-component of [e_i, e_j] in
    #: the chart basis at the identity
    structure_constants: np.ndarray
    #: r when the structure constants are those of minkowski_area(r), the
    #: step-2 group whose second layer integrates oriented areas, else None
    area_rank: Optional[int] = None

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

    def pullback(self, p, v) -> np.ndarray:
        """Identity tangents whose left-translates at p have chart components v."""
        raise NotImplementedError

    def forced_average(self, g, cone: Cone) -> Optional[np.ndarray]:
        """Control average forced on a path admissible for the cone from the
        identity to g = x0^-1 x1, or None when the model pins none down."""
        return None

    def admits_path(self, cone: Cone, x0, x1, g) -> bool:
        """False when a certificate rules out every cone-admissible path from
        x0 to x1, given g = x0^-1 x1 as the problem formed it: here, a
        forced control average outside the cone.  x0 and x1 matter only to
        a closed-form reachable set's rounding slack
        (``CarnotGroup.staircase``)."""
        target = self.forced_average(g, cone)
        return target is None or cone.contains(target, 1e-9)

    def reachable_set_paths(self, cone: Cone, nu, x0, x1, g, horizon: float,
                            segments: int) -> list:
        """The controls, of ``segments`` segments over ``horizon``, that a
        closed-form reachable set offers as answers from x0 to x1 (g =
        x0^-1 x1) for the cone and ``nu``, each the answer when its residual
        is within tol; here none."""
        return []

    def normal_extremals(self, cone: Cone, nu, g, horizon: float, segments: int):
        """The model's normal extremals from the identity, in closed form for
        the cone and the antinorm ``nu``, as a family of chord controls of
        ``segments`` segments over ``horizon``; None when the model has none
        for them.  The family has ``start``, the parameters theta that a
        search for the one whose path ends at g begins with;
        ``controls(theta)``: the control (N, m) and its derivative in theta
        (N, m, p), or None outside the family's domain; and ``floor``, the
        least length that a chord control ending at g must have to answer.
        The solver searches (``solver._extremal_answer``) and checks what it
        finds against the cone, tol and ``floor``."""
        return None

    def coordinate_names(self) -> list:
        return [f"x{i}" for i in range(self.point_dim)]

    def endpoint_residual(self, g, u: np.ndarray, horizon: float
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual rho = log(endpoint^{-1} g) and the endpoint of the
        piecewise-constant control u (N, m) from the identity, or of each
        control of a stack (K, N, m): the forward pass of endpoint_map,
        without its Jacobian."""
        return self.endpoint_pass(g, u, horizon)[:2]

    def endpoint_pass(self, g, u: np.ndarray, horizon: float
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The forward pass from the identity of a control or of a stack of
        controls: (rho, endpoint, chain), where ``chain`` holds what
        endpoint_jacobian takes from the pass, indexed by the stack's
        leading axes: the points, except on step-2 Carnot groups, which keep
        first layers only.  A stack with a bad row raises what that row
        raises alone."""
        points = self.points(self.identity(), u, horizon / u.shape[-2])
        return self._residual(points[..., -1, :], g), points[..., -1, :], points

    def endpoint_jacobian(self, g, u: np.ndarray, horizon: float,
                          chain: np.ndarray) -> np.ndarray:
        """d rho / d u_k of one control, (N, res_dim, control_dim), from the
        chain of its forward pass from the identity.  The reverse sweep
        stacks the suffix products S_k = S_{k+1} Dp_k, right to left from
        the residual's Jacobian S_N, one dgemm each on rows of the stacks,
        and J_k = S_{k+1} Du_k is one batched matmul."""
        n_seg = u.shape[0]
        Dp, Du, S_end = self._chain_jacobians(chain, u, horizon / n_seg, g)
        S = np.empty((n_seg + 1,) + S_end.shape)
        S[n_seg] = S_end
        # np.dot of 2-D float64 rows is the dgemm that matmul calls, without
        # the ufunc dispatch and the per-step views
        Sv, Dv = list(S), list(Dp)
        for k in range(n_seg - 1, -1, -1):
            np.dot(Sv[k + 1], Dv[k], out=Sv[k])
        return S[1:] @ Du

    def endpoint_map(self, g, u: np.ndarray, horizon: float
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual rho = log(endpoint^{-1} g) plus d rho / d u_k,
        analytically, for the control u from the identity.

        Returns (rho, J, endpoint) with J of shape (N, res_dim, control_dim):
        the forward pass, then its Jacobian stage.
        """
        rho, endpoint, chain = self.endpoint_pass(g, u, horizon)
        return rho, self.endpoint_jacobian(g, u, horizon, chain), endpoint

    def _chain_jacobians(self, chain: np.ndarray, u: np.ndarray, h: float, g
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """From the chain of one control's forward pass: the Jacobians of
        p_k exp(h u_k) in p_k and in u_k, stacked over the segments,
        (N, point_dim, point_dim) and (N, point_dim, control_dim); then the
        Jacobian of log(endpoint^{-1} g) in the endpoint."""
        raise NotImplementedError

    def _residual(self, endpoint: np.ndarray, g) -> np.ndarray:
        """log(endpoint^{-1} g), row by row for a stack of endpoints."""
        raise NotImplementedError


#: Taylor coefficients of E(z) = (e^z - 1)/z and of E'(z), highest order
#: first (Horner order); the first dropped terms are below 2e-18 for |z| < 1e-3
_E_TAYLOR = tuple(1.0 / math.factorial(k + 1) for k in range(4, -1, -1))
_DE_TAYLOR = tuple((k + 1) / math.factorial(k + 2) for k in range(4, -1, -1))


def _horner(coeffs: tuple, z: np.ndarray) -> np.ndarray:
    out = 0.0
    for c in coeffs:
        out = out * z + c
    return out


def _hyperbolic_step(alpha: np.ndarray, beta: np.ndarray, t: float) -> tuple:
    """exp(t (alpha, beta)) = (X, Y) with X = alpha t E(t beta), Y = e^{t beta}
    and E(z) = (e^z - 1)/z, elementwise: all a forward pass evaluates.

    Returns X, Y and the terms _hyperbolic_flow's derivatives reuse: z = t
    beta, the mask |z| < 1e-3 of the elements that take the series, the
    direct quotient's divisor b (beta, 1 where the series is taken), e^z - 1
    and E(z) on the series, None when no element takes it.  The direct
    quotient cancels as z -> 0, with relative error near eps/|z|; the
    series keeps it below 3e-13.
    """
    z = t * beta
    Y = np.exp(z)
    em1 = Y - 1.0
    series = abs(z) < 1e-3
    b, E = beta, None
    if series.any():
        b, E = np.where(series, 1.0, beta), _horner(_E_TAYLOR, z)
    X = (alpha / b) * em1
    if E is not None:
        X = np.where(series, alpha * t * E, X)
    return X, Y, (z, series, b, em1, E)


def _hyperbolic_flow(alpha: np.ndarray, beta: np.ndarray, t: float
                     ) -> Tuple[np.ndarray, ...]:
    """X and Y of _hyperbolic_step, plus dX/dalpha, dX/dbeta and dY/dbeta,
    elementwise: what the Jacobian stage evaluates.  The quotient of dX/dbeta
    cancels as z -> 0 with relative error near 2 eps/z^2; the series keeps
    it below 5e-10."""
    X, Y, (z, series, b, em1, E) = _hyperbolic_step(alpha, beta, t)
    dXa = em1 / b
    dXb = alpha * (t * Y * b - em1) / (b * b)
    if E is not None:
        dXa = np.where(series, t * E, dXa)
        dXb = np.where(series, alpha * t * t * _horner(_DE_TAYLOR, z), dXb)
    return X, Y, dXa, dXb, t * Y


def _residual_jacobian(ex, ey, g0, g1) -> np.ndarray:
    """d log(E^-1 g) / d E at the endpoint E = (ex, ey) of the hyperbolic
    plane, g = (g0, g1): the log's Jacobian at w = E^-1 g, times dw / dE.
    The factors are formed from numpy scalars and multiplied by np.dot, the
    dgemm the array expression called.  Where ey^2 overflows, -(g0 - ex) /
    ey^2 and -g1 / ey^2 are formed as -x / ey and -y / ey, (x, y) = w."""
    x, y = (g0 - ex) / ey, g1 / ey
    t = y - 1.0
    if abs(t) < 1e-5:
        ratio = 1.0 - t / 2.0 + t * t / 3.0 - t ** 3 / 4.0
        dratio = -0.5 + 2.0 * t / 3.0 - 0.75 * t * t
    else:
        log_y = np.log(y)
        ratio = log_y / t
        dratio = ((t / y) - log_y) / (t * t)
    ey2 = ey ** 2
    dx, dy = (-(g0 - ex) / ey2, -g1 / ey2) if math.isfinite(ey2) else (-x / ey, -y / ey)
    return np.dot(np.array([[ratio, x * dratio], [0.0, 1.0 / y]]),
                  np.array([[-1.0 / ey, dx], [0.0, dy]]))


class _HyperbolicExtremals:
    """The chord controls of the hyperbolic plane's normal extremals
    (``HyperbolicPlane.normal_extremals``), theta = (c, zeta): segment k
    runs between tau_k = tanh(zeta) e^{c (t_k - T)} and tau_{k+1}, t_k = k
    h, and its control in the normal form's chart is (-2 d artanh(tau), c h
    - d log1p(-tau^2)) / h, d the change over the segment, mapped back by
    M.  Every zeta keeps |tau| < 1, so the domain is c > 0.  ``floor`` is
    nu(log g), -inf where log g leaves the cone: a normal extremal of the
    other sign ends at g too, shorter than the constant control at log g."""

    def __init__(self, M: np.ndarray, start: np.ndarray, floor: float,
                 horizon: float, segments: int) -> None:
        self._M = M
        self.start = start
        self.floor = floor
        self._h = horizon / segments
        # t_k - T
        self._t = self._h * np.arange(segments + 1) - horizon

    def controls(self, theta):
        c, zeta = theta
        if not (c > 0.0 and np.isfinite(zeta)):
            return None
        e = np.exp(c * self._t)
        tau = np.tanh(zeta) * e
        # tau is monotone in t: |tau| < 1 holds everywhere when it holds at
        # the end, where tanh(zeta) may have rounded to +-1
        if not abs(tau[-1]) < 1.0:
            return None
        h = self._h
        # d tau / d (c, zeta), and d artanh(tau) = d tau / (1 - tau^2)
        dtau = np.stack([self._t * tau, e / np.cosh(zeta) ** 2], axis=-1)
        dart = dtau / ((1.0 - tau) * (1.0 + tau))[:, None]
        u = np.empty((len(tau) - 1, 2))
        du = np.empty((len(tau) - 1, 2, 2))
        u[:, 0] = -2.0 * np.diff(np.arctanh(tau)) / h
        u[:, 1] = c - np.diff(np.log1p(-tau * tau)) / h
        # d log1p(-tau^2) = -2 tau d artanh(tau)
        du[:, 0] = -2.0 * np.diff(dart, axis=0) / h
        du[:, 1] = np.diff(2.0 * tau[:, None] * dart, axis=0) / h
        du[:, 1, 0] += 1.0
        return u @ self._M.T, self._M @ du


class HyperbolicPlane(GroupModel):
    """The semidirect product R x R_+ with (x1,y1).(x2,y2) = (x1+y1x2, y1y2),
    a model of the Lobachevsky plane; points (x, y) require y > 0."""

    point_dim = 2
    control_dim = 2
    #: the left-invariant fields are y d/dx and y d/dy, and
    #: [y d/dx, y d/dy] = -y d/dx: [e_x, e_y] = -e_x
    structure_constants = np.array([[[0.0, 0.0], [-1.0, 0.0]],
                                    [[1.0, 0.0], [0.0, 0.0]]])
    structure_constants.flags.writeable = False

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
        p = np.asarray(p, dtype=float)
        # one check of the whole stack; a bad point raises what validate_points
        # raises for it
        if p.shape[-1:] != (2,) or not (p[..., 1].min(initial=np.inf) > 0.0
                                        and np.isfinite(p).all()):
            p = self.validate_points(p)
        y = p[..., 1]
        w = y - 1.0
        out = np.empty(p.shape)
        out[..., 1] = beta = np.log(y)
        near = np.abs(w) < 1e-8
        if near.any():
            # log(1+w)/w = 1 - w/2 + w^2/3 - ... near w = 0
            ratio = np.where(near, 1.0 - w / 2.0 + w * w / 3.0,
                             beta / np.where(near, 1.0, w))
        else:
            ratio = beta / w
        out[..., 0] = p[..., 0] * ratio
        return out

    def pullback(self, p, v):
        y = self.validate_point(p)[1]
        return as_vectors(v, 2, "tangent vector") / y

    def admits_path(self, cone, x0, x1, g):
        """exp(t c) = e + ((e^{t beta} - 1)/beta) c and (e + a)(e + b) =
        e + a + (1 + a_y) b, so every point reachable from x0 lies in
        x0 ((e + cone) with y > 0): g - e must lie in the cone."""
        return cone.contains(g - self.identity(), 1e-9)

    def normal_extremals(self, cone, nu, g, horizon, segments):
        """The normal extremals of a Lorentz cone of form A with A_xx < 0,
        future nappe (interior direction with y > 0) and antinorm
        sqrt(v^T k A v), k > 0; None for any other cone or antinorm, for
        g = e, and where no start below lies in the family's domain.

        - Normal form.  Phi(x, y) = (p x + q (y - 1), y) is an automorphism,
          since [p e_x, e_y + q e_x] = -p e_x.  With M = dPhi_e = [[p, q],
          [0, 1]], q = -A_xy / A_xx and p = sqrt(-det A) / |A_xx|, M^T A M
          = kappa diag(-1, 1), kappa = det A / A_xx > 0: in the chart of
          Phi^-1 the cone is |v_x| <= v_y and the antinorm is a multiple of
          sqrt(v_y^2 - v_x^2).  A control u' there is u = M u' here.
        - Extremals.  The costate flows by psi' = c ad*_w psi, and the unit
          control w, proportional to A^-1 psi, maximizes the Hamiltonian.
          In the normal form w(t) = (-sinh phi, cosh phi) with tanh(phi(t)
          / 2) = a e^{c t}: the control is c w, of speed c > 0, and |a|
          e^{c T} < 1 over the horizon T.  a = 0 is the vertical subgroup.
          The family takes a = tanh(zeta) e^{-c T}, so that every real zeta
          meets the bound, and Newton's iteration moves freely in it.
        - Chords.  Segment k's control is the mean of c w over it: with
          tau_k = a e^{c t_k} and h = T / N, c w_k has the components
          -2 (artanh tau_{k+1} - artanh tau_k) / h and
          c - (log1p(-tau_{k+1}^2) - log1p(-tau_k^2)) / h.
        - Start.  c = nu'(log g) / T and a = tanh(phi_g / 2) e^{-c T / 2},
          phi_g the direction of log g, both in the normal form (nu' the
          unit antinorm there): the extremal whose direction at mid-time is
          log g's.  Where log g leaves the cone, g - e stands for it
          (``admits_path`` puts g - e in the cone).  a halves until |a|
          e^{c T} < 1."""
        A, B = getattr(cone, "form", None), getattr(nu, "form", None)
        if A is None or np.shape(B) != (2, 2) or not cone.interior_direction()[1] > 0.0:
            return None
        # each form over its largest entry: B is a positive multiple of A iff
        # they agree then
        A, B = A / np.abs(A).max(), B / np.abs(B).max()
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if not (A[0, 0] < 0.0 and det < 0.0 and np.abs(B - A).max() <= 1e-12) \
                or np.array_equal(g, self.identity()):
            return None
        p, q = math.sqrt(-det) / -A[0, 0], -A[0, 1] / A[0, 0]
        log_g = self.log(g)
        for v in (log_g, g - self.identity()):
            x, y = (v[0] - q * v[1]) / p, v[1]
            if y > abs(x):
                break
        else:
            return None
        c = math.sqrt((y - x) * (y + x)) / horizon
        if not 0.5 * c * horizon < 700.0:   # e^{c T / 2} leaves the float range
            return None
        # a e^{c T} = tanh(zeta), from tanh(phi / 2) for tanh(phi) = s
        s = -x / y
        end = s / (1.0 + math.sqrt((1.0 - s) * (1.0 + s))) * math.exp(0.5 * c * horizon)
        while abs(end) >= 1.0:
            end *= 0.5
        return _HyperbolicExtremals(np.array([[p, q], [0.0, 1.0]]),
                                    np.array([c, math.atanh(end)]),
                                    float(antinorm_eval(nu, cone, log_g)),
                                    horizon, segments)

    def forced_average(self, g, cone):
        """log(g) when g - e spans an extreme ray of the cone: every segment
        of an admissible path then moves along that ray (admits_path), so
        the path runs on one one-parameter subgroup, and its control average
        is log(g)."""
        return self.log(g) if cone.on_extreme_ray(g - self.identity()) else None

    def coordinate_names(self):
        return ["x", "y"]

    def points(self, x0, u, h):
        """y_{k+1} = y_k e^{h beta_k} as one cumprod, and x_{k+1} = x_k + y_k
        X_k as one cumsum, in segment order."""
        x0 = self.validate_point(x0)
        u = self._controls(u)
        X, Y = _hyperbolic_step(u[..., 0], u[..., 1], h)[:2]
        P = np.empty(u.shape[:-2] + (u.shape[-2] + 1, 2))
        x, y = P[..., 0], P[..., 1]
        y[..., 0] = x0[1]
        y[..., 1:] = Y
        np.multiply.accumulate(y, axis=-1, out=y)
        x[..., 0] = x0[0]
        np.multiply(y[..., :-1], X, out=x[..., 1:])
        np.add.accumulate(x, axis=-1, out=x)
        return P

    def _chain_jacobians(self, chain, u, h, g):
        X, Y, dXa, dXb, dYb = _hyperbolic_flow(u[:, 0], u[:, 1], h)
        # [[1, X], [0, Y]] and y_k [[dXa, dXb], [0, dYb]], filled in place
        Dp, Du = np.zeros((2, u.shape[0], 2, 2))
        Dp[:, 0, 0] = 1.0
        Dp[:, 0, 1], Dp[:, 1, 1] = X, Y
        Du[:, 0, 0], Du[:, 0, 1], Du[:, 1, 1] = dXa, dXb, dYb
        Du *= chain[:-1, 1, None, None]
        return Dp, Du, _residual_jacobian(*chain[-1], *g)

    @staticmethod
    def _offset(endpoint, g) -> np.ndarray:
        """endpoint^{-1} g, row by row for a stack of endpoints."""
        out = np.empty(np.shape(endpoint))
        out[..., 0] = (g[0] - endpoint[..., 0]) / endpoint[..., 1]
        out[..., 1] = g[1] / endpoint[..., 1]
        return out

    def _residual(self, endpoint, g):
        return self.log(self._offset(endpoint, g))


def _product(a: float, b: float) -> float:
    """a b for a, b >= 0, +inf where it overflows, and 0 where either is 0,
    though the other be +inf."""
    with np.errstate(over="ignore"):
        return a * b if a and b else 0.0


def _linear_sector(family: np.ndarray, edges: np.ndarray, d: np.ndarray
                   ) -> Optional[np.ndarray]:
    """The edge rays (2, 2) of the part of the cone between ``edges`` where
    the covector of the family least at d is least, or None when that part
    is a ray.  Along v(t) = (1 - t) g1 + t g2, t in [0, 1], each condition
    (c_i - c_j) . v(t) <= 0 is alpha + t beta <= 0."""
    g1, g2 = edges
    diff = family[np.argmin(family @ d)] - family
    alpha, beta = diff @ g1, diff @ (g2 - g1)
    neg, pos = beta < 0.0, beta > 0.0
    lo = (-alpha[neg] / beta[neg]).max(initial=0.0)
    hi = (-alpha[pos] / beta[pos]).min(initial=1.0)
    if not lo < hi:
        return None
    return np.array([(1.0 - lo) * g1 + lo * g2, (1.0 - hi) * g1 + hi * g2])


def _three_piece(edges: np.ndarray, ab: np.ndarray, z: float, n_seg: int,
                 horizon: float, staircase: bool = False) -> Optional[np.ndarray]:
    """The control of n_seg segments that moves by s a r1, then b r2, then
    (1 - s) a r1, for edge rays (r1, r2): its displacement is a r1 + b r2,
    and its area (2 s - 1) A, A = a b det(r1, r2) / 2, is affine in s.  s
    solves for the area z, clamped to [0, 1], or, for the staircase, is
    rounded to 0 or 1.  Each piece takes at least one segment and the rest
    in proportion to its length; None when there are more pieces than
    segments."""
    (a, b), (r1, r2) = ab, edges
    area = 0.5 * a * b * np.linalg.det(edges)
    s = min(max(0.5 + 0.5 * z / area, 0.0), 1.0) if area else 1.0
    if staircase:
        s = float(s >= 0.5)
    legs = np.array([s * a * r1, b * r2, (1.0 - s) * a * r1])
    legs = legs[np.any(legs != 0.0, axis=1)]
    if not 1 <= len(legs) <= n_seg:
        return None
    lengths = np.linalg.norm(legs, axis=1)
    counts = 1 + np.floor((n_seg - len(legs)) * lengths / lengths.sum()).astype(int)
    counts[np.argmax(lengths)] += n_seg - counts.sum()
    return np.repeat(legs / (counts[:, None] * (horizon / n_seg)), counts, axis=0)


class CarnotGroup(GroupModel):
    """Carnot group in exponential coordinates over a stratified algebra."""

    def __init__(self, algebra: CarnotAlgebra) -> None:
        self.algebra = algebra
        self.point_dim = algebra.dim
        self.control_dim = algebra.layer_dims[0]
        self.structure_constants = algebra.table
        self._first_layer = np.eye(self.point_dim, self.control_dim)
        # the step-2 residual's Jacobian in the endpoint, with the g it is for
        self._drho_dxi = (None, None)

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

    def pullback(self, p, v):
        p = self.validate_point(p)
        v = as_vectors(v, self.point_dim, "tangent vector")
        return np.linalg.solve(bch_jacobians(self.algebra, p, self.identity())[1], v.T).T

    def forced_average(self, g, cone):
        return self.log(g)[:self.control_dim]

    @cached_property
    def area_rank(self) -> Optional[int]:
        """The reference table, [e_0, e_i] = y_i, is written out directly:
        building the algebra would validate it, n^4 work for a table known
        to be valid."""
        r, odd = divmod(self.point_dim - 1, 2)
        if r < 1 or odd:
            return None
        table = np.zeros((self.point_dim,) * 3)
        space = np.arange(1, r + 1)
        table[0, space, r + space] = 1.0
        table[space, 0, r + space] = -1.0
        return r if np.allclose(self.structure_constants, table, atol=1e-12) else None

    def admits_path(self, cone, x0, x1, g):
        """On the Heisenberg group (area rank 1) with a cone of two edge rays
        g1, g2, a path's area z lies between those of the staircases
        exp(a g1) exp(b g2) and exp(b g2) exp(a g1), where a g1 + b g2 is its
        displacement d (Grochowski, J. Dyn. Control Syst., 2006): |z| <=
        a b |det(g1, g2)| / 2.  The endpoint must also meet that bound, to
        within the rounding slack; a d with a, b >= 0 lies in the cone."""
        stairs = self.staircase(cone, x0, x1, g)
        if stairs is None:
            return super().admits_path(cone, x0, x1, g)
        d, ab, z, half, slack = stairs
        inside = np.all(ab >= 0.0) or not np.any(d) or cone.contains(d, 1e-9)
        return bool(inside and abs(z) <= half + slack)

    def staircase(self, cone, x0, x1, g):
        """(d, (a, b), z, half, slack) on the Heisenberg group with a cone of
        two edge rays (``Cone.edge_rays``), else None: the displacement d =
        a g1 + b g2 of g = x0^-1 x1 (its own log), its area z, the largest
        area half = a b |det(g1, g2)| / 2 that a path of displacement d
        reaches, with a and b taken as 0 where they are negative, and
        ``_area_slack`` of x0 and x1."""
        edges = cone.edge_rays if self.area_rank == 1 else None
        if edges is None:
            return None
        ab = np.linalg.solve(edges.T, g[:2])
        a, b = np.maximum(ab, 0.0)
        return (g[:2], ab, g[2], 0.5 * _product(_product(a, b), abs(np.linalg.det(edges))),
                self._area_slack(x0, x1))

    def reachable_set_paths(self, cone, nu, x0, x1, g, horizon, segments):
        """On the Heisenberg group with a cone of two edge rays
        (``staircase``), the paths that answer an endpoint inside its
        reachable set for a min-of-linear antinorm, or on its edge.

        - Where nu = min_i c_i . v is least on the piece c_i at d, every path
          whose velocities stay in the sector where c_i is least has length
          c_i . d = nu(d), the Jensen bound.  A three-piece path in that sector
          (``_three_piece``) reaches every area its staircases bound.
        - The staircase along the cone's edge rays g1 and g2 reaches the
          largest or the least area that the displacement d = a g1 + b g2
          allows.  There it is the only admissible path up to speed, and its
          length nu(a g1) + nu(b g2) is the answer; it is built only when the
          area lies on that edge to within the rounding slack, since inside
          the set, however near the edge, longer paths exist."""
        stairs = self.staircase(cone, x0, x1, g)
        if stairs is None:
            return []
        d, ab, z, half, slack = stairs
        if not np.isfinite(half + slack):   # areas beyond the float range
            return []
        edges, paths = cone.edge_rays, []
        family = getattr(nu, "family", None)
        sector = None if family is None else _linear_sector(family, edges, d)
        if sector is not None:
            paths.append(_three_piece(sector, np.maximum(np.linalg.solve(sector.T, d), 0.0),
                                      z, segments, horizon))
        if abs(z) >= half - slack:
            paths.append(_three_piece(edges, np.maximum(ab, 0.0), z, segments, horizon,
                                      staircase=True))
        return [u for u in paths if u is not None]

    def _area_slack(self, x0, x1) -> float:
        """How far a reachable endpoint's area may pass the staircase bound
        by rounding: 8 RAY_TOL, a few thousand ulp, of the sizes of the terms
        it is formed from, |d|^2 for the bound and the path's brackets, and
        |z0|, |z1| and |p0| |p1| (p the first layers) for log(x0^-1 x1).
        +inf where these overflow, never NaN."""
        x0, x1 = self.validate_point(x0), self.validate_point(x1)
        d = x1[:2] - x0[:2]
        with np.errstate(over="ignore"):
            return 8.0 * RAY_TOL * float(d @ d + abs(x0[2]) + abs(x1[2]) + _product(
                np.linalg.norm(x0[:2]), np.linalg.norm(x1[:2])))

    def endpoint_pass(self, g, u, horizon):
        if self.algebra.step != 2:
            return super().endpoint_pass(g, u, horizon)
        return self._area_chain(g, u, horizon)

    def endpoint_jacobian(self, g, u, horizon, chain):
        """Step 2 in closed form from the first layers P_k of the pass's
        points; other steps sweep the exact BCH Jacobians of the chain's
        segments."""
        alg = self.algebra
        if alg.step != 2:
            return super().endpoint_jacobian(g, u, horizon, chain)
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
        DxiE[:, :m1, :] = h * self._first_layer[:m1]
        DxiE[:, m1:, :] = 0.5 * h * np.einsum("ijk,ti->tkj", T12, W)
        return np.einsum("ab,tbc->tac", self._residual_factor(g), DxiE)

    def _residual_factor(self, g) -> np.ndarray:
        """d rho / d xiE = -I + ad(g)/2 at step 2, built once for each g in
        turn: a solve asks for it at every accepted trial."""
        g = np.asarray(g, dtype=float)
        key = g.tobytes()
        # one read of the cached pair: a thread may swap it between two
        cached = self._drho_dxi
        if cached[0] != key:
            cached = (key, -np.eye(self.point_dim) + 0.5 * self.algebra.ad(g))
            self._drho_dxi = cached
        return cached[1]

    def _area_chain(self, g, u, horizon):
        """Step 2 in closed form from the identity, for a control or a stack
        of them: rho, the endpoint and the first layers P_k of the points
        before each segment, which the Jacobian reuses."""
        alg = self.algebra
        h = horizon / u.shape[-2]
        m1 = alg.layer_dims[0]
        g = np.asarray(g, dtype=float)
        csum = np.cumsum(u, axis=-2)
        P = np.concatenate([np.zeros(csum.shape[:-2] + (1, m1)), csum[..., :-1, :]],
                           axis=-2) * h  # sum h u_j, j < k
        first = h * csum[..., -1, :]
        # bracket of first-layer vectors, landing in the second layer
        T12 = alg.table[:m1, :m1, m1:]
        second = 0.5 * h * np.einsum("ijk,...ti,...tj->...k", T12, P, u)
        xiE = np.concatenate([first, second], axis=-1)
        # rho = bch(-xiE, g) at step 2
        rho = g - xiE - 0.5 * alg.bracket(xiE, g)
        return rho, xiE, P

    def points(self, x0, u, h):
        """Layer by layer: layer j of a BCH term depends only on the layers
        < j of its arguments, so once those are known for every point, the
        terms give layer j of all points by one cumsum.  Its input lists
        each segment's terms in the order bch_log_product adds them, so every
        point keeps that association.

        A layer's brackets come from one einsum over the algebra's layer-j
        block (``CarnotAlgebra.blocks``) and the lower layers of the points,
        the steps, and the [a, b] and [a, [a, b]] kept from the layers
        before.  The entries of the full table that the block leaves out
        are 0 and add only +-0 to a finite sum.  Where one of them met an
        inf of a full row, the full table's bracket was NaN; _zero_or_nan
        puts that NaN back, so an overflowing flow raises the same error.
        (At step 4 the full table also formed layer 4 of [a, b] from a
        zeroed layer 3 while it found layer 3, and made layer 3 NaN where
        that overflowed; here layer 3 keeps its true value.)"""
        alg = self.algebra
        _check_step(alg)
        u = self._controls(u)
        batch, n_seg = u.shape[:-2], u.shape[-2]
        # the points and, in row k, segment k's step b = h u_k and the layers
        # found so far of [a, b] and [a, [a, b]], a = p_k (as far as the
        # step needs them)
        S = np.zeros((max(alg.step, 2),) + batch + (n_seg + 1, self.point_dim))
        P, steps = S[0], S[1, ..., :-1, :]
        P[..., 0, :] = self.validate_point(x0)
        np.multiply(h, self.embed_control(u.reshape(-1, u.shape[-1])).reshape(
            steps.shape), out=steps)
        lo = 0
        for layer, width in enumerate(alg.layer_dims, start=1):
            hi = lo + width
            brackets = ()
            if layer >= 2:
                # [x, y] for x in (a, b) and y in (b, [a, b], [a, [a, b]]),
                # as far as a term of degree <= layer needs them
                X = S[..., :-1, :lo]
                B = np.einsum("ijk,...i,...j->...k", alg.blocks[layer - 1],
                              X[:min(layer - 1, 2), None], X[None, 1:layer])
                if u.shape[-1] != self.control_dim:
                    B += _zero_or_nan(steps[..., lo:])
                if layer >= 3 and not np.isfinite(B).all():
                    B[:, 1] += _zero_or_nan(B[0, 0])
                    if layer >= 4:
                        B[1, 2] += _zero_or_nan(B[0, 1])
                brackets = [B[0, 0]]
                if layer >= 3:
                    brackets += [B[0, 1], B[1, 1]]
                if layer >= 4:
                    brackets.append(B[1, 2])
                if layer < alg.step:
                    S[2:layer + 1, ..., :-1, lo:hi] = B[0]
            terms = _bch_terms(steps[..., lo:hi], brackets)
            seq = np.empty(batch + (n_seg * len(terms) + 1, width))
            seq[..., 0, :] = P[..., 0, lo:hi]
            for t, term in enumerate(terms):
                seq[..., 1 + t::len(terms), :] = term
            P[..., lo:hi] = seq.cumsum(axis=-2)[..., ::len(terms), :]
            lo = hi
        # the series also adds [a, b]/2 = +0 on the first layer, which turns
        # a sum of -0 into +0
        P[..., 1:, :self.control_dim] += 0.0
        return P

    def _chain_jacobians(self, points, u, h, g):
        # the segment pairs (p_k, h u_k) and the residual pair (-p_N, g) in
        # one call
        Da, Db = bch_jacobians(
            self.algebra, np.concatenate([points[:-1], -points[-1:]]),
            np.concatenate([h * self.embed_control(u),
                            np.asarray(g, dtype=float)[None]]))
        return Da[:-1], Db[:-1] @ (h * self._first_layer), -Da[-1]

    def _residual(self, endpoint, g):
        return bch_log_product(self.algebra, -endpoint, np.asarray(g, dtype=float))


class AbelianGroup(CarnotGroup):
    """R^n under addition: the Carnot group of step 1, over the zero algebra
    with the one layer R^n, so its points, endpoint map and Jacobian are
    CarnotGroup's."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        super().__init__(CarnotAlgebra.from_brackets((self.dim,), {}))

    def __repr__(self) -> str:
        return f"AbelianGroup(dim={self.dim})"


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
