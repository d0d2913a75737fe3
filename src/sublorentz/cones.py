"""Closed convex cones, antinorms on them, and strictly positive time covectors.

Three cone representations are supported: finitely generated (polyhedral),
one nappe of a quadratic cone of signature (1, r) (Lorentz), and an
invertible linear image of another cone.  An antinorm is a positively
homogeneous, superadditive functional that is nonnegative on its cone and
-inf off it; -inf is represented by the IEEE float('-inf'), for which
arithmetic is total.

Every method whose argument is a vector also takes a stack of row vectors,
shape (n, d), and then answers row by row.  A polyhedral cone projects a
whole stack at once with ``_nnls_rows``, Lawson and Hanson's active-set
nonnegative least squares run on every row together; scipy's ``linprog`` is
imported only by the two polyhedral LPs, pointedness and the time covector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, NotPointedError

NEG_INF = float("-inf")

#: default relative membership tolerance (the paper-exact sets need a band)
DEFAULT_TOL = 1e-9

_EPS = np.finfo(float).eps


def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-d, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries: {v}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"{name} has dim {v.shape[0]}, expected {dim}")
    return v


def as_vectors(x, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Validate and convert a vector (d,) or a stack of row vectors (n, d)."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2):
        raise DimensionMismatchError(f"{name} must be 1-d or a stack of rows, "
                                     f"got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries: {v}")
    if dim is not None and v.shape[-1] != dim:
        raise DimensionMismatchError(f"{name} has dim {v.shape[-1]}, expected {dim}")
    return v


def _positive_count(value: int, name: str) -> None:
    """Refuse a sample count below 1: an empty sample proves nothing."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i @ b_i for each pair of rows (broadcast), a scalar for two vectors:
    the stacked matmul runs the dot of a single pair, where einsum or a
    matrix-vector product may fuse multiply-adds and round differently."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------


class Cone:
    """Base class: a closed convex cone in R^dim with apex at the origin."""

    dim: int

    def contains(self, v, tol: float = DEFAULT_TOL):
        """Whether v lies within relative tolerance tol of the cone: a bool
        for a vector, a bool array for a stack of rows."""
        raise NotImplementedError

    def is_pointed(self) -> bool:
        """Whether cone ∩ (-cone) = {0}."""
        raise NotImplementedError

    def project_batch(self, V: np.ndarray) -> np.ndarray:
        """Row-wise projection onto the cone (Euclidean, or Euclidean in the
        cone's natural diagonalizing coordinates for quadratic cones)."""
        raise NotImplementedError

    def interior_direction(self) -> np.ndarray:
        """A unit vector in the relative interior (requires pointedness)."""
        raise NotImplementedError

    def extreme_directions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Unit extreme directions: every polyhedral ray, n sampled quadratic ones."""
        raise NotImplementedError

    def time_covector(self) -> np.ndarray:
        """A covector > 0 on the cone minus 0; NotPointedError when none exists."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator,
               boundary_fraction: float = 0.25,
               relative_interior: bool = False) -> np.ndarray:
        """Draw n cone points, (n, dim). Deterministic given the rng state."""
        raise NotImplementedError


def _nnls_rows(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Coefficients x >= 0 minimizing |x @ U - v| for each row v of V, (n, k),
    for unit generators U, (k, d).

    Lawson and Hanson's active-set iteration (Solving Least Squares Problems,
    1974, ch. 23), run on all rows together.  Each row keeps its own passive
    set, and each step is one batched solve of the Gram system U U^T masked
    to those sets; a row drops out when no generator outside its set has a
    gradient above rounding, or when the set spans R^d.  A generator enters
    only with a positive coefficient and at a squared distance of at least
    1e-10 from the span of the set (its gradient over its coefficient), so
    one within about 1e-5 rad of that span is refused and the projection
    can miss by that angle times |v|.  One refining solve on the final sets
    restores the digits the Gram system loses.  RuntimeError when a row
    needs more than 3k solves, the limit scipy's nnls keeps.
    """
    n, d = V.shape
    k = len(U)
    eye = np.eye(k)
    # the 10 k ulp on the diagonal keeps every masked system nonsingular
    gram = U @ U.T + 10 * k * _EPS * eye
    X = np.zeros((n, k))
    P = np.zeros((n, k), dtype=bool)
    # the live rows: their index, data and iterate x, last solve s, passive
    # set p, generators refused since x last moved, and the generator that
    # entered at the last solve (-1 for none) with its gradient
    idx, v, uv, vnorm = np.arange(n), V, V @ U.T, np.linalg.norm(V, axis=1)
    x, s = X.copy(), X.copy()
    p, refused = P.copy(), P.copy()
    entered, gain = np.full(n, -1), np.zeros(n)
    solves = 0
    while idx.size:
        rows = np.arange(idx.size)
        # refuse the generator that entered at the last solve if its
        # coefficient is <= 0 or it lies too near the set's span; x stays,
        # and the next pass offers the row's next best generator
        new = np.flatnonzero(entered >= 0)
        j = entered[new]
        bad = (s[new, j] <= 0.0) | (gain[new] < 1e-10 * s[new, j])
        new, j = new[bad], j[bad]
        hold = np.zeros(idx.size, dtype=bool)
        hold[new] = True
        refused &= hold[:, None]
        refused[new, j] = True
        p[new, j] = False
        s[new] = x[new]
        # a solve with a nonpositive coefficient moves x toward it only as
        # far as x stays >= 0, and the generator reaching 0 leaves the set
        neg = p & (s <= 0.0)
        feasible = ~neg.any(axis=1)
        if feasible.all():
            x = s
        else:
            gap = x - s
            ratio = np.where(neg, x / np.where(gap > 0.0, gap, 1.0), 2.0)
            i = ratio.argmin(axis=1)
            step = x + ratio[rows, i][:, None] * (s - x)
            step[rows, i] = 0.0
            x = np.where(feasible[:, None], s, step)
            p &= x > 0.0
        w = (v - x @ U) @ U.T
        w[p | refused | ~feasible[:, None]] = -np.inf
        j = w.argmax(axis=1)
        gain = w[rows, j]
        tol = 10 * max(d, k) * _EPS * (vnorm + x.sum(axis=1))
        grow = (gain > tol) & (p.sum(axis=1) < d)
        p[rows[grow], j[grow]] = True
        entered = np.where(grow, j, -1)
        done = feasible & ~grow
        if done.any():
            X[idx[done]], P[idx[done]] = x[done], p[done]
            keep = ~done
            idx, v, uv, vnorm, x, p, refused, entered, gain = (
                a[keep] for a in (idx, v, uv, vnorm, x, p, refused, entered, gain))
            if not idx.size:
                break
        if solves == 3 * k:
            raise RuntimeError("Maximum number of iterations reached.")
        solves += 1
        M = np.where(p[:, :, None] & p[:, None, :], gram, eye)
        s = np.linalg.solve(M, np.where(p, uv, 0.0)[..., None])[..., 0]
    M = np.where(P[:, :, None] & P[:, None, :], gram, eye)
    r = np.where(P, (V - X @ U) @ U.T, 0.0)
    return np.maximum(X + np.linalg.solve(M, r[..., None])[..., 0], 0.0)


class PolyhedralCone(Cone):
    """Cone generated by nonnegative combinations of a finite generator set."""

    def __init__(self, generators: Sequence) -> None:
        G = np.atleast_2d(np.asarray(generators, dtype=float))
        if G.ndim != 2 or G.shape[0] == 0:
            raise ValueError("need a nonempty generator list")
        if not np.all(np.isfinite(G)):
            raise ValueError("generators must be finite")
        self.generators = G            # rows are generators
        self.dim = G.shape[1]
        norms = np.linalg.norm(G, axis=1)
        self._nonzero = G[norms > 0]
        self._unit = (self._nonzero / np.linalg.norm(self._nonzero, axis=1, keepdims=True)
                      if len(self._nonzero) else np.zeros((0, self.dim)))

    def __repr__(self) -> str:
        return f"PolyhedralCone({self.generators.tolist()})"

    def contains(self, v, tol: float = DEFAULT_TOL):
        V = as_vectors(v, self.dim)
        nv = np.linalg.norm(V, axis=-1)
        if len(self._nonzero) == 0:
            return nv == 0.0
        # distance to the cone: nonnegative least squares on the coefficients
        # (0 for the zero vector)
        rows = V.reshape(-1, self.dim)
        residual = np.linalg.norm(rows - _nnls_rows(self._unit, rows) @ self._unit,
                                  axis=1)
        return residual.reshape(nv.shape) <= tol * nv

    def is_pointed(self) -> bool:
        # not pointed <=> some convex combination of unit generators is 0:
        # minimize t s.t. |G^T nu|_inf <= t, sum nu = 1, nu >= 0
        from scipy.optimize import linprog
        U = self._unit
        if len(U) == 0:
            return True
        k, d = U.shape
        c = np.zeros(k + 1)
        c[-1] = 1.0
        A_ub = np.block([[U.T, -np.ones((d, 1))], [-U.T, -np.ones((d, 1))]])
        b_ub = np.zeros(2 * d)
        A_eq = np.zeros((1, k + 1))
        A_eq[0, :k] = 1.0
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                      bounds=[(0, None)] * k + [(0, None)], method="highs")
        if not res.success:
            raise RuntimeError(f"pointedness LP failed: {res.message}")
        return res.fun > 1e-9

    def project_batch(self, V):
        V = as_vectors(V, self.dim)
        if len(self._unit) == 0:
            return np.zeros(V.shape)
        rows = V.reshape(-1, self.dim)
        return (_nnls_rows(self._unit, rows) @ self._unit).reshape(V.shape)

    def interior_direction(self) -> np.ndarray:
        if len(self._unit) == 0:
            raise ValueError("trivial cone has no interior direction")
        d = self._unit.sum(axis=0)
        n = np.linalg.norm(d)
        if n < 1e-12:
            raise NotPointedError("generator average vanishes; cone not pointed")
        return d / n

    def extreme_directions(self, n, rng):
        return self._unit.copy()

    def time_covector(self):
        """Interior point of the polar cone: maximize the minimum margin over
        the unit generators (LP)."""
        from scipy.optimize import linprog
        U = self._unit
        if len(U) == 0:
            raise NotPointedError("trivial cone: polar interior is empty only for lines; "
                                  "no generators to separate")
        k, d = U.shape
        # maximize m s.t. U tau >= m, |tau|_inf <= 1
        c = np.zeros(d + 1)
        c[-1] = -1.0
        A_ub = np.hstack([-U, np.ones((k, 1))])
        res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k),
                      bounds=[(-1, 1)] * d + [(0, None)], method="highs")
        if not res.success:
            raise RuntimeError(f"time covector LP failed: {res.message}")
        if -res.fun <= 1e-9:
            raise NotPointedError("cone contains a line; polar cone has empty interior")
        return res.x[:d]

    def sample(self, n, rng, boundary_fraction=0.25, relative_interior=False):
        k = len(self._nonzero)
        if k == 0:
            return np.zeros((n, self.dim))
        lam = rng.exponential(1.0, size=(n, k))
        if relative_interior:
            lam += 0.05
        else:
            on_boundary = rng.random(n) < boundary_fraction
            if k > 1:
                mask = rng.random((n, k)) < 0.5
                mask[np.arange(n), rng.integers(0, k, n)] = False  # keep one
                lam[on_boundary] = np.where(mask[on_boundary], 0.0, lam[on_boundary])
        scale = 10.0 ** rng.uniform(-1.0, 1.0, size=(n, 1))
        return (lam * scale) @ self._nonzero


class LorentzCone(Cone):
    """One nappe of {v : v^T A v >= 0} for a symmetric form A of signature (1, r).

    The nappe is the connected component on which ``nappe_selector`` is
    positive; the selector must be strictly positive on the whole nappe
    minus the origin.
    """

    def __init__(self, form, nappe_selector) -> None:
        A = np.asarray(form, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("form must be a square matrix")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("form must be symmetric")
        self.form = 0.5 * (A + A.T)
        self.dim = A.shape[0]
        self.nappe_selector = as_vector(nappe_selector, self.dim, "nappe_selector")

        w, U = np.linalg.eigh(self.form)
        if np.sum(w > 1e-12) != 1 or np.sum(w < -1e-12) != self.dim - 1:
            raise ValueError(f"form must have signature (1, {self.dim - 1}), eigenvalues {w}")
        i0 = int(np.argmax(w))
        axis = U[:, i0]
        s = float(self.nappe_selector @ axis)
        if abs(s) < 1e-12:
            raise ValueError("nappe_selector vanishes on the timelike axis")
        axis = axis if s > 0 else -axis
        # diagonalizing coordinates b = W v with cone {b0 >= |b_1..r|}
        rest = [i for i in range(self.dim) if i != i0]
        W = np.empty((self.dim, self.dim))
        W[0] = np.sqrt(w[i0]) * axis
        for row, i in enumerate(rest, start=1):
            W[row] = np.sqrt(-w[i]) * U[:, i]
        self._W = W
        self._Winv = np.linalg.inv(W)
        self._axis = self._Winv[:, 0] / np.linalg.norm(self._Winv[:, 0])
        self._form_scale = float(np.max(np.abs(w)))
        self._selector_norm = float(np.linalg.norm(self.nappe_selector))
        cb = self._Winv.T @ self.nappe_selector
        if cb[0] <= np.linalg.norm(cb[1:]) * (1 + 1e-12):
            raise ValueError("nappe_selector is not strictly positive on the nappe")

    def __repr__(self) -> str:
        return f"LorentzCone(dim={self.dim})"

    def contains(self, v, tol: float = DEFAULT_TOL):
        V = as_vectors(v, self.dim)
        nv = np.linalg.norm(V, axis=-1)
        q = np.einsum("...i,ij,...j->...", V, self.form, V)
        sel = V @ self.nappe_selector
        return ((q >= -tol * self._form_scale * nv * nv)
                & (sel >= -tol * self._selector_norm * nv))

    def is_pointed(self) -> bool:
        # a single nappe of a signature-(1, r) cone never contains a line
        return True

    def project_batch(self, V: np.ndarray) -> np.ndarray:
        B = V @ self._W.T
        t, X = B[:, 0], B[:, 1:]
        nx = np.linalg.norm(X, axis=1)
        out = B.copy()
        zero = t <= -nx
        out[zero] = 0.0
        mid = (~zero) & (t < nx)
        a = 0.5 * (t[mid] + nx[mid])
        out[mid, 0] = a
        out[mid, 1:] = (a / nx[mid])[:, None] * X[mid]
        return out @ self._Winv.T

    def interior_direction(self) -> np.ndarray:
        return self._axis.copy()

    def time_covector(self):
        return self._W[0].copy()

    def extreme_directions(self, n, rng):
        """Lightlike unit vectors: both boundary rays when dim = 2, else n sampled."""
        r = self.dim - 1
        if r == 1:
            dirs = np.array([[1.0, 1.0], [1.0, -1.0]])
        else:
            phi = rng.standard_normal((n, r))
            phi /= np.linalg.norm(phi, axis=1, keepdims=True)
            dirs = np.hstack([np.ones((n, 1)), phi])
        V = dirs @ self._Winv.T
        return V / np.linalg.norm(V, axis=1, keepdims=True)

    def sample(self, n, rng, boundary_fraction=0.25, relative_interior=False):
        r = self.dim - 1
        phi = rng.standard_normal((n, r))
        norms = np.linalg.norm(phi, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        phi /= norms
        rho = rng.random(n)
        if relative_interior:
            rho *= 0.95
        else:
            rho[rng.random(n) < boundary_fraction] = 1.0
        mag = 10.0 ** rng.uniform(-1.0, 1.0, n)
        b = np.hstack([mag[:, None], (mag * rho)[:, None] * phi])
        return b @ self._Winv.T


class LinearImageCone(Cone):
    """Image of a base cone under an invertible linear map."""

    def __init__(self, base: Cone, map_matrix) -> None:
        M = np.asarray(map_matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != base.dim:
            raise ValueError("map must be square and match the base cone dim")
        if abs(np.linalg.det(M)) < 1e-12:
            raise ValueError("map must be invertible")
        self.base = base
        self.map = M
        self._Minv = np.linalg.inv(M)
        self.dim = base.dim

    def __repr__(self) -> str:
        return f"LinearImageCone(base={self.base!r})"

    def contains(self, v, tol: float = DEFAULT_TOL):
        return self.base.contains(as_vectors(v, self.dim) @ self._Minv.T, tol)

    def is_pointed(self) -> bool:
        return self.base.is_pointed()

    def project_batch(self, V):
        return self.base.project_batch(V @ self._Minv.T) @ self.map.T

    def interior_direction(self) -> np.ndarray:
        d = self.map @ self.base.interior_direction()
        return d / np.linalg.norm(d)

    def extreme_directions(self, n, rng):
        dirs = self.base.extreme_directions(n, rng) @ self.map.T
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def time_covector(self):
        return self._Minv.T @ self.base.time_covector()

    def sample(self, n, rng, boundary_fraction=0.25, relative_interior=False):
        return self.base.sample(n, rng, boundary_fraction, relative_interior) @ self.map.T


# ---------------------------------------------------------------------------
# Time covectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeCovector:
    """A covector strictly positive on the cone minus the origin.

    ``margin`` is min tau(g)/|tau| over the cone's unit extreme directions g
    (exact for polyhedral cones and their images, sampled for quadratic ones).
    """

    components: np.ndarray
    margin: float

    def __call__(self, v) -> float:
        return float(self.components @ np.asarray(v, dtype=float))


def _probe_directions(cone: Cone) -> np.ndarray:
    """The fixed sample of extreme directions that cone-wide checks run on."""
    return cone.extreme_directions(512, np.random.default_rng(0))


def find_time_covector(cone: Cone) -> TimeCovector:
    """The cone's time covector tau, with its margin taken over the cone's
    extreme directions.  Raises NotPointedError when no such covector exists.
    """
    tau = cone.time_covector()
    dirs = _probe_directions(cone)
    return TimeCovector(tau, float((dirs @ tau).min() / np.linalg.norm(tau)))


# ---------------------------------------------------------------------------
# Antinorms
# ---------------------------------------------------------------------------


class Antinorm:
    """Length functional on a cone: homogeneous, superadditive, >= 0 there."""

    def values_on_cone(self, V: np.ndarray) -> np.ndarray:
        """Value of a vector, or of each row of a stack, assuming it lies in
        the paired cone."""
        raise NotImplementedError

    def grads_on_cone(self, V: np.ndarray) -> np.ndarray:
        """Row-wise (super)gradients at relative-interior points."""
        raise NotImplementedError


class LorentzSqrt(Antinorm):
    """nu(v) = sqrt(v^T A v) for a signature-(1, r) form A, the relativistic
    proper-time density."""

    def __init__(self, form) -> None:
        A = np.asarray(form, dtype=float)
        self.form = 0.5 * (A + A.T)
        self.dim = A.shape[0]

    def values_on_cone(self, V):
        # einsum, not the BLAS dot: it may use FMA, breaking the exact
        # cancellation on the light cone
        q = np.einsum("...i,ij,...j->...", V, self.form, V)
        return np.sqrt(np.maximum(q, 0.0))

    def grads_on_cone(self, V):
        vals = self.values_on_cone(V)
        out = np.zeros_like(V)
        ok = vals > 0.0
        out[ok] = (V[ok] @ self.form) / vals[ok, None]
        return out


class MinOfLinear(Antinorm):
    """nu(v) = min_i c_i(v) over a finite covector family (concave, polyhedral)."""

    def __init__(self, family) -> None:
        C = np.atleast_2d(np.asarray(family, dtype=float))
        if C.shape[0] == 0:
            raise ValueError("need a nonempty covector family")
        self.family = C
        self.dim = C.shape[1]
        self._scale = float(np.max(np.abs(C))) or 1.0

    def values_on_cone(self, V):
        vals = (V @ self.family.T).min(axis=-1)
        # boundary rounding can push an exactly-zero minimum slightly negative
        band = 1e-12 * self._scale * (1.0 + np.linalg.norm(V, axis=-1))
        return np.where((vals < 0.0) & (vals >= -band), 0.0, vals)[()]

    def grads_on_cone(self, V):
        vals = V @ self.family.T
        band = 1e-12 * self._scale * (1.0 + np.linalg.norm(V, axis=1))
        active = vals <= vals.min(axis=1, keepdims=True) + band[:, None]
        weights = active / active.sum(axis=1, keepdims=True)
        return weights @ self.family


class ZeroAntinorm(Antinorm):
    """Identically zero on the cone (still -inf off it)."""

    def values_on_cone(self, V):
        return np.zeros(np.shape(V)[:-1])

    def grads_on_cone(self, V):
        return np.zeros(np.shape(V))


def antinorm_eval(nu: Antinorm, cone: Cone, v, tol: float = DEFAULT_TOL):
    """nu(v) on the cone, float('-inf') off it; row by row for a stack."""
    V = as_vectors(v, cone.dim)
    # [()] unwraps the 0-d result of a single vector into a scalar
    return np.where(cone.contains(V, tol), nu.values_on_cone(V), NEG_INF)[()]


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


@dataclass
class AxiomCheckReport:
    """Sampled verification of the antinorm axioms on a cone."""

    passed: bool
    samples: int
    homogeneity_failures: int = 0
    superadditivity_failures: int = 0
    nonnegativity_failures: int = 0
    positivity_failures: int = 0
    identically_zero: bool = False
    counterexample: Optional[dict] = field(default=None, repr=False)

    def summary(self) -> str:
        if self.passed:
            return (f"antinorm axioms hold on {self.samples} sampled pairs"
                    + (" (identically zero)" if self.identically_zero else ""))
        kinds = [(self.homogeneity_failures, "homogeneity"),
                 (self.superadditivity_failures, "superadditivity"),
                 (self.nonnegativity_failures, "nonnegativity"),
                 (self.positivity_failures, "interior positivity")]
        worst = ", ".join(f"{n} {k}" for n, k in kinds if n)
        lines = [f"antinorm axioms FAILED ({worst})"]
        if self.counterexample:
            lines.append(f"  first counterexample: {self.counterexample}")
        return "\n".join(lines)


def check_antinorm_axioms(nu, cone: Cone, sample_count: int = 10_000,
                          seed: int = 0) -> AxiomCheckReport:
    """Sample-level check of homogeneity, superadditivity, nonnegativity on
    the cone, and strict positivity on its relative interior (the latter only
    when nu is not identically zero there).

    Upper semicontinuity is not decidable from samples and is not checked.
    Failures are report content, never exceptions.

    Pairs are drawn from the closed cone without the sampler's exact-boundary
    atom: square-root antinorms are conditioned like sqrt(eps) right on the
    light cone, where no evaluation can resolve the axioms to 1e-9.
    """
    _positive_count(sample_count, "sample_count")
    rng = np.random.default_rng(seed)
    a = cone.sample(sample_count, rng, boundary_fraction=0.0)
    b = cone.sample(sample_count, rng, boundary_fraction=0.0)
    lam = 10.0 ** rng.uniform(-1.0, 1.0, sample_count)

    va, vb = nu.values_on_cone(a), nu.values_on_cone(b)
    vsum = nu.values_on_cone(a + b)
    vlam = nu.values_on_cone(lam[:, None] * a)

    rep = AxiomCheckReport(passed=True, samples=sample_count)

    def fail(kind, payload):
        rep.passed = False
        if rep.counterexample is None:
            rep.counterexample = {"axiom": kind, **payload}

    hom_err = np.abs(vlam - lam * va)
    hom_bad = hom_err > 1e-9 * np.maximum(1.0, np.abs(lam * va))
    rep.homogeneity_failures = int(hom_bad.sum())
    if rep.homogeneity_failures:
        i = int(np.argmax(hom_bad))
        fail("homogeneity", {"xi": a[i].tolist(), "lambda": float(lam[i]),
                             "nu(lambda xi)": float(vlam[i]),
                             "lambda nu(xi)": float(lam[i] * va[i])})

    sup_bad = vsum < va + vb - 1e-9
    rep.superadditivity_failures = int(sup_bad.sum())
    if rep.superadditivity_failures:
        i = int(np.argmax(sup_bad))
        fail("superadditivity", {"xi": a[i].tolist(), "zeta": b[i].tolist(),
                                 "nu(xi+zeta)": float(vsum[i]),
                                 "nu(xi)+nu(zeta)": float(va[i] + vb[i])})

    scale = 1.0 + np.linalg.norm(a, axis=1)
    neg_bad = va < -1e-12 * scale
    rep.nonnegativity_failures = int(neg_bad.sum())
    if rep.nonnegativity_failures:
        i = int(np.argmax(neg_bad))
        fail("nonnegativity", {"xi": a[i].tolist(), "nu(xi)": float(va[i])})

    # nu > 0 on the relative interior unless identically zero on the cone
    rep.identically_zero = bool(np.all(np.abs(va) <= 1e-12 * scale))
    if not rep.identically_zero:
        ri = cone.sample(min(sample_count, 1000), rng, relative_interior=True)
        vri = nu.values_on_cone(ri)
        pos_bad = vri <= 0.0
        rep.positivity_failures = int(pos_bad.sum())
        if rep.positivity_failures:
            i = int(np.argmax(pos_bad))
            fail("interior positivity", {"xi": ri[i].tolist(), "nu(xi)": float(vri[i])})

    return rep
