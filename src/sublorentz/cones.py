"""Closed convex cones, antinorms on them, and strictly positive time covectors.

Two cone representations are supported: finitely generated (polyhedral)
and one nappe of a quadratic cone of signature (1, r) (Lorentz).  The
image of a cone under an invertible linear map, ``cone.image(M)``, is a
cone of the same representation: the mapped generators, or the nappe of
the pulled-back form.  An antinorm is a positively
homogeneous, superadditive functional that is nonnegative on its cone and
-inf off it; -inf is represented by the IEEE float('-inf'), for which
arithmetic is total.

Every method whose argument is a vector also takes a stack of row vectors,
shape (n, d), and then answers row by row.  A polyhedral cone projects a
whole stack at once with ``_nnls_rows``, Lawson and Hanson's active-set
nonnegative least squares run on every row together; the same kernel
decides pointedness and gives the time covector (``_least_distance``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, NotPointedError

NEG_INF = float("-inf")

#: default relative membership tolerance (the paper-exact sets need a band)
DEFAULT_TOL = 1e-9

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

#: how near, relative, a vector must lie to an extreme ray to count as on it:
#: a few thousand ulp, the level of rounding.  Much looser would be wrong: a
#: vector inside the cone by a relative delta is the average of controls that
#: are not parallel, whose brackets reach second-layer endpoints of order
#: delta |v|^2.  On the Heisenberg group with the Minkowski cone the
#: reachable set is x^2 - y^2 >= 4|z| (Grochowski, J. Dyn. Control Syst.,
#: 2006), so v = (100, 100 (1 - 1e-8)) reaches areas up to 5e-5, far above
#: a solve's tol, which a tolerance of 1e-8 would refuse.  Even at 1e-12 the
#: reachable spread grows as |v|^2, so the solver refuses only a residual
#: beyond tol by more than that spread (``solver._ray_slack``)
RAY_TOL = 1e-12

#: the share of sampled points put on the cone's boundary by default
BOUNDARY_FRACTION = 0.25

#: how far below 0, relative, a quadratic form's value on the cone's unit
#: vectors must lie to count as negative (``Cone.form_witness``); the same
#: cut counts an eigenvalue as positive, as LorentzCone's signature does
FORM_TOL = 1e-12


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


def _row_products(R: np.ndarray, M: np.ndarray, alone: np.ndarray) -> np.ndarray:
    """R @ M, bit for bit as if each block of rows were multiplied alone:
    numpy sends a one-row product to gemv and a longer one to gemm, which
    round differently, so the rows marked alone go through the stacked
    one-row product (as in ``_row_dots``) and the rest through one gemm."""
    out = np.empty((len(R), M.shape[1]))
    out[alone] = np.matmul(R[alone][:, None, :], M)[:, 0]
    out[~alone] = R[~alone] @ M
    return out


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

    def ray_minimum(self, c, least_ray: bool = False) -> Tuple[float, Optional[np.ndarray]]:
        """The least value of the covector c on the unit extreme rays, exact,
        and a unit ray on which c <= 1e-12 |c|, None when c exceeds that:
        the first such ray, or with ``least_ray`` the first on which c is
        least (a Lorentz cone of dim >= 3 names one ray either way).
        A covector whose squared norm leaves the float range is divided by
        its largest entry (``_scaled_rows``) and its least value multiplied
        back, so a covector of 1e308 is measured as one of 1."""
        c, s = _scaled_rows(as_vector(c, self.dim, "covector")[None])
        least, ray = self._ray_minimum(c[0], least_ray)
        return float(s[0] * least), ray

    def _ray_minimum(self, c: np.ndarray, least_ray: bool
                     ) -> Tuple[float, Optional[np.ndarray]]:
        """``ray_minimum`` of a checked covector with a squared norm in range."""
        raise NotImplementedError

    def span_rows(self) -> np.ndarray:
        """Rows (k, dim) whose span is the cone's linear span."""
        raise NotImplementedError

    def relative_interior_point(self) -> np.ndarray:
        """A point of the relative interior (0 when the cone is a subspace)."""
        raise NotImplementedError

    def form_witness(self, F) -> Optional[np.ndarray]:
        """A unit point v of the cone with v^T F v < 0, or None when
        v^T F v >= -FORM_TOL |v|^2 on the cone, F scaled to entries of at
        most 1: an exact decision, up to that tolerance."""
        raise NotImplementedError

    def nappe_pair(self, B) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Two unit points x, y of the cone with x^T B y < 0, or None when
        x^T B y >= -FORM_TOL on every pair, B scaled to entries of at most
        1: the cone lies in one nappe of {v^T B v >= 0}.  Exact for a form
        with one positive eigenvalue."""
        raise NotImplementedError

    def time_covector(self) -> np.ndarray:
        """A covector > 0 on the cone minus 0; NotPointedError when none exists."""
        raise NotImplementedError

    def on_extreme_ray(self, v) -> bool:
        """Whether the vector v is nonzero and spans an extreme ray of the
        cone, to within ``RAY_TOL`` relative.  A face's sums stay on it, so
        controls with such an average are all parallel to it."""
        raise NotImplementedError

    #: the two unit extreme rays, as rows (2, 2), of a cone in the plane
    #: that is the sector between them; None for any other cone
    edge_rays: Optional[np.ndarray] = None

    def sample(self, n: int, rng: np.random.Generator,
               boundary_fraction: float = BOUNDARY_FRACTION,
               relative_interior: bool = False) -> np.ndarray:
        """Draw n cone points, (n, dim). Deterministic given the rng state."""
        return self._rows(self._draws(n, rng, relative_interior), np.full(n, n == 1),
                          relative_interior, boundary_fraction)

    def sample_paths(self, n_paths: int, rng: np.random.Generator,
                     relative_interior: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """The controls of n_paths random paths: their segment counts, each
        ``int(rng.integers(1, 9))``, and their rows stacked path after path,
        (counts.sum(), dim), bit for bit what a loop of
        ``sample(count, rng, relative_interior=...)`` calls would give.  The
        draws keep the seed's order, path by path; the arithmetic runs once
        on the whole batch."""
        counts, draws = [], []
        for _ in range(n_paths):
            counts.append(int(rng.integers(1, 9)))
            draws.append(self._draws(counts[-1], rng, relative_interior))
        counts = np.array(counts)
        fields = [np.concatenate(f) for f in zip(*draws)]
        return counts, self._rows(fields, np.repeat(counts == 1, counts), relative_interior,
                                  BOUNDARY_FRACTION)

    def _draws(self, n: int, rng: np.random.Generator, relative_interior: bool) -> tuple:
        """The rng calls of ``sample(n, ...)``, in its order: a tuple of
        arrays of n rows each, which stack row-wise across draws."""
        raise NotImplementedError

    def _rows(self, draws, alone: np.ndarray, relative_interior: bool,
              boundary_fraction: float) -> np.ndarray:
        """The cone points, (len(alone), dim), of stacked ``_draws`` output;
        alone marks the rows drawn by a draw of one row (``_row_products``)."""
        raise NotImplementedError

    def image(self, map_matrix) -> "Cone":
        """{M v : v in cone} for an invertible M, a cone of the same class."""
        raise NotImplementedError


def _least_of(rays: np.ndarray, c: np.ndarray, least_ray: bool
              ) -> Tuple[float, Optional[np.ndarray]]:
    """min c . r over the unit rays r (+inf over none), and the first ray
    with c . r <= 1e-12 |c|, or the first on which c . r is least."""
    vals = rays @ c
    bad = np.flatnonzero(vals <= 1e-12 * np.linalg.norm(c))
    if not bad.size:
        return float(vals.min(initial=np.inf)), None
    return float(vals.min()), rays[np.argmin(vals) if least_ray else bad[0]].copy()


def _s_lemma(F: np.ndarray, A: np.ndarray, hi: float, best: float):
    """The maximum over lam in [0, hi] of g(lam), the least eigenvalue of
    F - lam A, given best = g(0) or a lower bound of it.  g is concave, with
    slope -v^T A v at its least eigenvector v, so bisection on the slope's
    sign finds its maximum.  Each g(lam) kept is eigh's value less 4 ulp of
    the matrix's norm, about ten times eigh's rounding, so the result is a
    lower bound in floating point.  Returns it, and the least eigenvectors
    at the last lam on either side of the maximum: one with v^T A v < 0,
    and one with v^T A v >= 0 (None for a side never visited)."""
    lo, outside, inside = 0.0, None, None
    while lo < 0.5 * (lo + hi) < hi:
        lam = 0.5 * (lo + hi)
        w, V = np.linalg.eigh(F - lam * A)
        best = max(best, w[0] - 4.0 * _EPS * np.abs(w).max())
        if V[:, 0] @ A @ V[:, 0] < 0.0:
            lo, outside = lam, V[:, 0]
        else:
            hi, inside = lam, V[:, 0]
    return best, outside, inside


def _scaled_form(F) -> np.ndarray:
    """The symmetric form F divided by its largest entry (a zero form kept)."""
    F = np.asarray(F, dtype=float)
    return F / (np.abs(F).max() or 1.0)


def _invertible_map(map_matrix, dim: int) -> np.ndarray:
    """M as a float array; ValueError unless it is square, of size dim, and
    invertible: its smallest singular value above 1e-12 times its largest,
    a test that M and c M pass or fail together."""
    M = np.asarray(map_matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != dim:
        raise ValueError("map must be square and match the base cone dim")
    if not np.isfinite(M).all():
        raise ValueError("map must be finite")
    sigma = np.linalg.svd(M, compute_uv=False)
    if not sigma[-1] > 1e-12 * sigma[0]:
        raise ValueError("map must be invertible")
    return M


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


def _least_distance(U: np.ndarray):
    """min |tau| s.t. U tau >= 1 for unit generators U, (k, d), as one
    nonnegative least squares: the rows (u_i, 1)/sqrt(2) fitted to e_{d+1}
    (Lawson and Hanson, 1974, ch. 23).  Returns the residual's first d
    entries r[:d], whose length is about the distance from 0 to the convex
    hull of U (0 exactly when the cone holds a line), and the mask of the
    generators with a positive coefficient.  Otherwise tau, the direction
    maximizing min u_i . tau / |tau|, is along r[:d], and is the least-norm
    solution of u_i . tau = 1 on the masked generators."""
    k, d = U.shape
    rows = np.hstack([U, np.ones((k, 1))]) / np.sqrt(2.0)
    x = _nnls_rows(rows, np.eye(d + 1)[d:])[0]
    return x @ rows[:, :d], x > 0.0


def _scaled_rows(G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """G with each nonzero row whose squared norm leaves the normal float
    range (overflows, or falls below the least normal number) divided by its
    largest magnitude, and the divisors, 1 for every other row: the scaled
    rows' ``np.linalg.norm`` neither overflows nor underflows."""
    with np.errstate(over="ignore", under="ignore"):
        sq = (G * G).sum(axis=1)
    odd = ~((sq >= _TINY) & (sq < np.inf)) & np.any(G != 0.0, axis=1)
    big = np.ones(len(G))
    big[odd] = np.abs(G[odd]).max(axis=1)
    return G / big[:, None], big


def _row_norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of a vector or of each row of a stack, finite for
    finite rows: a row whose plain norm overflows is measured scaled
    (``_scaled_rows``), and every other row keeps the plain norm's bits."""
    V = np.asarray(V)
    # the sum of squares norm() takes along an axis, without its wrapper
    with np.errstate(over="ignore"):
        n = np.asarray(np.sqrt(np.add.reduce(V * V, axis=-1)))
    if n.max(initial=0.0) == np.inf:
        big = np.isinf(n)
        scaled, s = _scaled_rows(V[big])
        n[big] = s * np.linalg.norm(scaled, axis=1)
    return n


#: the least norm whose square is a normal float; a smaller one loses digits
_TINY_NORM = float(np.sqrt(_TINY))


def _at_scale(V: np.ndarray, nv=None):
    """A vector or stack of rows V and its norms nv (by default the bits of
    ``np.linalg.norm(V, axis=-1)``, without its wrapper), rescaled by
    ``_scaled_rows`` when some nonzero row's norm overflows or falls below
    ``_TINY_NORM``, so a cone's tests, which are scale invariant, hold for
    rows of 1e300 or 1e-200. When every norm is in range, or below it only
    for zero rows, V and nv come back as they are, for the cost of two
    reductions (and a look at the rows of small norm)."""
    if nv is None:
        with np.errstate(over="ignore"):   # an inf norm is rescaled below
            nv = np.sqrt(np.add.reduce(V * V, axis=-1))
    if np.maximum.reduce(nv, axis=None, initial=0.0) < np.inf and (
            np.minimum.reduce(nv, axis=None, initial=np.inf) >= _TINY_NORM
            or not np.any(V[nv < _TINY_NORM])):
        return V, nv
    rows = _scaled_rows(V.reshape(-1, V.shape[-1]))[0]
    n = np.sqrt(np.add.reduce(rows * rows, axis=1))
    return rows.reshape(V.shape), n.reshape(np.shape(nv))[()]


def _unit_rows(G: np.ndarray) -> np.ndarray:
    """The rows of G, none of them zero, scaled to unit length, so
    generators of 1e300 or 1e-200 keep their directions; a row of normal
    range is divided by its ``np.linalg.norm``, as it always was."""
    G = _scaled_rows(G)[0]
    return G / np.linalg.norm(G, axis=1, keepdims=True)


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
        self._nonzero = G[np.any(G != 0.0, axis=1)]
        self._unit = _unit_rows(self._nonzero)

    def __repr__(self) -> str:
        return f"PolyhedralCone({self.generators.tolist()})"

    def contains(self, v, tol: float = DEFAULT_TOL):
        V, nv = _at_scale(as_vectors(v, self.dim))
        if len(self._nonzero) == 0:
            return nv == 0.0
        # distance to the cone: nonnegative least squares on the coefficients
        # (0 for the zero vector)
        rows = V.reshape(-1, self.dim)
        residual = np.linalg.norm(rows - _nnls_rows(self._unit, rows) @ self._unit, axis=1)
        return residual.reshape(nv.shape) <= tol * nv

    def is_pointed(self) -> bool:
        # not pointed <=> 0 is a convex combination of the unit generators
        U = self._unit
        return len(U) == 0 or bool(np.linalg.norm(_least_distance(U)[0]) >= 1e-9)

    def project_batch(self, V):
        V = as_vectors(V, self.dim)
        if len(self._unit) == 0:
            return np.zeros(V.shape)
        # rows out of the normal range are fit scaled (``_scaled_rows``) and
        # scaled back; the others divide and multiply by 1
        rows, s = _scaled_rows(V.reshape(-1, self.dim))
        return ((_nnls_rows(self._unit, rows) @ self._unit) * s[:, None]).reshape(V.shape)

    def interior_direction(self) -> np.ndarray:
        if len(self._unit) == 0:
            raise ValueError("trivial cone has no interior direction")
        d = self._unit.sum(axis=0)
        n = np.linalg.norm(d)
        if n < 1e-12:
            raise NotPointedError("generator average vanishes; cone not pointed")
        return d / n

    def _ray_minimum(self, c, least_ray):
        """Over the unit generators."""
        return _least_of(self._unit, c, least_ray)

    def span_rows(self):
        return self._unit

    def relative_interior_point(self):
        """The sum of the unit generators, each with a positive weight."""
        return self._unit.sum(axis=0)

    def form_witness(self, F):
        """With M = U F U^T on the unit generators U, F >= 0 on the cone iff
        M is copositive, which holds when no entry of M is negative.  If one
        is, Kaplan's test decides it (Linear Algebra Appl. 313, 2000): M is
        copositive iff no principal submatrix has an eigenvector > 0 with a
        negative eigenvalue, and such a vector x gives the witness x @ U.
        The submatrices are taken by size, one batched eigh per size, up to
        2^k of them when no smaller one yields a witness."""
        U = self._unit
        M = U @ _scaled_form(F) @ U.T
        if not np.any(M < -FORM_TOL):
            return None
        for size in range(1, len(U) + 1):
            sets = np.array(list(combinations(range(len(U)), size)))
            w, V = np.linalg.eigh(M[sets[:, :, None], sets[:, None, :]])
            V = V * np.where(V.sum(axis=1, keepdims=True) < 0.0, -1.0, 1.0)
            hit = (w < -FORM_TOL) & np.all(V > 0.0, axis=1)
            if hit.any():
                s, j = np.argwhere(hit)[0]
                return _unit_rows((V[s, :, j] @ U[sets[s]])[None])[0]
        return None

    def nappe_pair(self, B):
        """The pair of unit generators on which B is least: x^T B y >= 0 on
        all of the cone iff it holds on every pair of generators, the pairs
        of one generator with itself included, for any form B."""
        U = self._unit
        M = U @ _scaled_form(B) @ U.T
        if not M.size:
            return None
        i, j = np.unravel_index(np.argmin(M), M.shape)
        return None if M[i, j] >= -FORM_TOL else (U[i], U[j])

    def time_covector(self):
        """The least-distance covector: the unit tau maximizing the minimum
        margin u_i . tau over the unit generators."""
        U = self._unit
        if len(U) == 0:
            raise NotPointedError("trivial cone: no generators to separate")
        r, active = _least_distance(U)
        if np.linalg.norm(r) < 1e-9:
            raise NotPointedError("cone contains a line; polar cone has empty interior")
        # the same tau, solved on the active generators: r[:d] is short
        # near a flat cone, and its rounding would tilt r / |r|
        tau = np.linalg.lstsq(U[active], np.ones(active.sum()), rcond=None)[0]
        return tau / np.linalg.norm(tau)

    def on_extreme_ray(self, v):
        """On the ray of a unit generator that is extreme (``_extreme``)."""
        v = as_vector(v, self.dim)
        if not np.any(v):
            return False
        unit = _unit_rows(v[None])[0]
        return bool(np.any(np.linalg.norm(self._extreme - unit, axis=1) <= RAY_TOL))

    @cached_property
    def _extreme(self) -> np.ndarray:
        """The unit generators farther than 1e-4 from the cone of the
        generators not parallel to them.  That margin lies above the 1e-5
        rad by which ``_nnls_rows`` may miss a cone's point, so a redundant
        generator is never taken for extreme; an extreme one taken for
        redundant only gives no certificate."""
        U = self._unit
        keep = np.ones(len(U), dtype=bool)
        for j, g in enumerate(U):
            others = U[np.linalg.norm(U - g, axis=1) > RAY_TOL]
            if len(others):
                fit = _nnls_rows(others, g[None])[0] @ others
                keep[j] = np.linalg.norm(g - fit) > 1e-4
        return U[keep]

    @cached_property
    def edge_rays(self) -> Optional[np.ndarray]:
        """The two extreme generators farthest apart, when every extreme
        generator lies on one of their rays and they span the plane."""
        E = self._extreme
        if self.dim != 2 or len(E) < 2:
            return None
        i, j = np.unravel_index(np.argmin(E @ E.T), (len(E), len(E)))
        pair = E[[i, j]]
        apart = np.linalg.norm(E[:, None] - pair[None], axis=2).min(axis=1)
        if np.any(apart > RAY_TOL) or not abs(np.linalg.det(pair)) > RAY_TOL:
            return None
        pair.flags.writeable = False
        return pair

    def _draws(self, n, rng, relative_interior):
        """Exponential weights on the generators; off the relative interior,
        a boundary coin and, for k > 1, a coin per generator and the one kept;
        then the log10 scale."""
        k = len(self._nonzero)
        if k == 0:
            return ()
        draws = [rng.exponential(1.0, size=(n, k))]
        if not relative_interior:
            draws.append(rng.random(n))
            if k > 1:
                draws += [rng.random((n, k)), rng.integers(0, k, n)]
        return (*draws, rng.uniform(-1.0, 1.0, size=(n, 1)))

    def _rows(self, draws, alone, relative_interior, boundary_fraction):
        if len(self._nonzero) == 0:
            return np.zeros((len(alone), self.dim))
        lam, *coins, exponent = draws
        if relative_interior:
            lam = lam + 0.05
        elif len(coins) > 1:
            on_boundary = coins[0] < boundary_fraction
            mask = coins[1] < 0.5
            mask[np.arange(len(lam)), coins[2]] = False  # keep one
            lam[on_boundary] = np.where(mask[on_boundary], 0.0, lam[on_boundary])
        return _row_products(lam * 10.0 ** exponent, self._nonzero, alone)

    def image(self, map_matrix):
        return PolyhedralCone(self.generators @ _invertible_map(map_matrix, self.dim).T)


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
        # halved before the sum, which overflows for entries of 1e308
        self.form = 0.5 * A + 0.5 * A.T
        self.dim = A.shape[0]
        # a unit selector, so its tests hold at any scale (a zero one stays
        # zero and is refused below)
        s = as_vector(nappe_selector, self.dim, "nappe_selector")
        self.nappe_selector = _unit_rows(s[None])[0] if s.any() else s

        w, U = np.linalg.eigh(self.form)
        scale = float(np.max(np.abs(w)))
        # the signature cut is relative to max|eig|: A and c A agree
        rel = w / (scale or 1.0)
        if np.sum(rel > 1e-12) != 1 or np.sum(rel < -1e-12) != self.dim - 1:
            raise ValueError(f"form must have signature (1, {self.dim - 1}), eigenvalues {w}")
        # the form over max|eig|, whose values v^T A v stay in range for a
        # form of 1e300; a power-of-two scale changes no bit of a test
        self._unit_form = self.form / scale
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
        cb = self._Winv.T @ self.nappe_selector
        if cb[0] <= np.linalg.norm(cb[1:]) * (1 + 1e-12):
            raise ValueError("nappe_selector is not strictly positive on the nappe")

    def __repr__(self) -> str:
        return f"LorentzCone(dim={self.dim})"

    def contains(self, v, tol: float = DEFAULT_TOL):
        V, nv = _at_scale(as_vectors(v, self.dim))
        q = np.einsum("...i,ij,...j->...", V, self._unit_form, V)
        sel = V @ self.nappe_selector
        return (q >= -tol * nv * nv) & (sel >= -tol * nv)

    def is_pointed(self) -> bool:
        # a single nappe of a signature-(1, r) cone never contains a line
        return True

    def project_batch(self, V: np.ndarray) -> np.ndarray:
        V = as_vectors(V, self.dim)
        B = V.reshape(-1, self.dim) @ self._W.T
        t, X = B[:, 0], B[:, 1:]
        nx = _row_norms(X)
        out = B.copy()
        zero = t <= -nx
        out[zero] = 0.0
        mid = (~zero) & (t < nx)
        a = 0.5 * (t[mid] + nx[mid])
        out[mid, 0] = a
        out[mid, 1:] = (a / nx[mid])[:, None] * X[mid]
        return (out @ self._Winv.T).reshape(V.shape)

    def interior_direction(self) -> np.ndarray:
        return self._axis.copy()

    def time_covector(self):
        """W[0], along A's timelike eigenvector, the covector of greatest
        margin: reflecting a spacelike eigenvector's coordinate keeps the cone
        and the Euclidean norm, so it keeps the margin, and the best unit
        covector is unique (the margin is concave, and the mean of two best
        ones would do better), so every reflection fixes it."""
        return self._W[0].copy()

    def on_extreme_ray(self, v):
        """Every nonzero ray of the nappe's boundary is extreme, where
        |v^T A v| / max|eig A| is at most RAY_TOL |v|^2; in dim 1 the cone
        is one ray."""
        v = as_vector(v, self.dim)
        with np.errstate(over="ignore"):   # _at_scale rescales an inf norm
            v, nv = _at_scale(v, np.linalg.norm(v))
        q = np.einsum("i,ij,j->", v, self._unit_form, v)
        light = self.dim == 1 or abs(q) <= RAY_TOL * nv * nv
        return bool(nv > 0.0 and v @ self.nappe_selector > 0.0 and light)

    @cached_property
    def edge_rays(self) -> Optional[np.ndarray]:
        """The two light rays when dim = 2."""
        if self.dim != 2:
            return None
        pair = _unit_rows(np.array([[1.0, 1.0], [1.0, -1.0]]) @ self._Winv.T)
        pair.flags.writeable = False
        return pair

    def _ray_minimum(self, c, least_ray):
        """The two light rays when dim = 2.  Otherwise c~ = W^-T c, and c
        offends on the light ray W^-1 (1, -c~_r / |c~_r|), where it is least
        per unit b0 = (W v)_0, if it is at most 1e-12 |c| there.  If not,
        min (c . v)^2 over unit v with v^T A v >= 0 is the maximum over
        lam >= 0 of g(lam), the least eigenvalue of c c^T - lam A, exactly
        for dim >= 3 (Polyak's S-lemma, J. Optim. Theory Appl. 99, 1998),
        bisected by ``_s_lemma``: g is negative past |c|^2 / |W[0]|^2.  The
        ray's value caps the result where the square loses digits."""
        if self.dim == 2:
            return _least_of(self.edge_rays, c, least_ray)
        ct = self._Winv.T @ c
        ray = self._Winv @ np.concatenate([[1.0], -ct[1:] / (np.linalg.norm(ct[1:]) or 1)])
        ray /= np.linalg.norm(ray)
        if c @ ray <= 1e-12 * np.linalg.norm(c):
            return float(c @ ray), ray
        best = _s_lemma(np.outer(c, c), self.form, (c @ c) / (self._W[0] @ self._W[0]),
                        0.0)[0]
        return min(float(np.sqrt(best)), float(c @ ray)), None

    def span_rows(self):
        return np.eye(self.dim)

    def relative_interior_point(self):
        return self._axis

    def form_witness(self, F):
        """By the S-lemma, F >= 0 on the nappe (equivalently on both nappes,
        {v^T A v >= 0}) iff F - lam A is positive semidefinite for some
        lam >= 0 (Pólik and Terlaky, SIAM Review 49, 2007): the maximum of
        the concave g(lam) = least eigenvalue of F - lam A, bisected as in
        ``_ray_minimum``, is >= -FORM_TOL.  Past lam = 2 |F| / a, with a the
        form's timelike eigenvalue, g falls, since at the timelike unit
        eigenvector F - lam A is below |F| - lam a.  Otherwise the witness
        is the least of the vectors at which the bisection ended, each put
        on the nappe: the least eigenvector at lam = 0, the last ones on
        each side of the maximum, and their combination that the form A
        takes to 0, which lies in the least eigenspace at the maximum when
        that space holds both; there F is g(lam*) < 0."""
        F = _scaled_form(F)
        A = self._unit_form
        # the multiplier at which F and lam A agree on the timelike axis
        # proves most forms nonnegative without a bisection
        t = self._axis
        if np.linalg.eigvalsh(F - max(t @ F @ t / (t @ A @ t), 0.0) * A)[0] >= -FORM_TOL:
            return None
        w, V = np.linalg.eigh(F)
        best = w[0] - 4.0 * _EPS * np.abs(w).max()
        if best >= -FORM_TOL:
            return None
        outside = inside = None
        if V[:, 0] @ A @ V[:, 0] < 0.0:
            # g rises at 0, so its maximum lies beyond
            hi = 2.0 * np.sqrt(np.sum(F * F)) / np.linalg.eigvalsh(A)[-1]
            best, outside, inside = _s_lemma(F, A, hi, best)
            if best >= -FORM_TOL:
                return None
        points = [V[:, 0]] + [v for v in (outside, inside) if v is not None]
        if outside is not None and inside is not None:
            # the two combinations a outside + b inside that A takes to 0:
            # its 2x2 restriction has a negative and a nonnegative diagonal
            G = np.array([outside, inside]) @ A @ np.array([outside, inside]).T
            root = np.sqrt(max(G[0, 1] ** 2 - G[0, 0] * G[1, 1], 0.0))
            points += [(sign * root - G[0, 1]) * outside + G[0, 0] * inside
                       for sign in (1.0, -1.0)]
        P = np.array(points)
        P = self.project_batch(P * np.where(P @ self.nappe_selector < 0.0, -1.0, 1.0)[:, None])
        P = _unit_rows(P[np.linalg.norm(P, axis=1) > 0.0])
        values = np.einsum("ij,jk,ik->i", P, F, P)
        if not len(P) or values.min() >= 0.0:
            return None
        return P[np.argmin(values)]

    def nappe_pair(self, B):
        """(v, v) for the ``form_witness`` v of B, where B is negative
        somewhere on the nappe.  Otherwise the nappe lies in {v^T B v >= 0},
        the two nappes of the form B, and in one of them iff B's positive
        eigenvector e, or -e, is >= 0 on it: iff e lies in the dual nappe.
        If not, the pair is the light rays on which e and -e are least."""
        v = self.form_witness(B)
        if v is not None:
            return v, v
        e = np.linalg.eigh(B)[1][:, -1]
        # e or -e is >= 0 on the nappe iff it lies in the dual nappe
        et = self._Winv.T @ e
        if abs(et[0]) >= np.linalg.norm(et[1:]) - FORM_TOL * np.linalg.norm(et):
            return None
        return (self.ray_minimum(e, least_ray=True)[1],
                self.ray_minimum(-e, least_ray=True)[1])

    def _draws(self, n, rng, relative_interior):
        """A normal direction in the spacelike coordinates, a radius, off the
        relative interior a boundary coin, then the log10 magnitude."""
        draws = [rng.standard_normal((n, self.dim - 1)), rng.random(n)]
        if not relative_interior:
            draws.append(rng.random(n))
        return (*draws, rng.uniform(-1.0, 1.0, n))

    def _rows(self, draws, alone, relative_interior, boundary_fraction):
        """The points W^-1 (m, m rho phi / |phi|) of magnitude m = 10^u."""
        phi, rho, *coin, exponent = draws
        norms = np.linalg.norm(phi, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        if relative_interior:
            rho = rho * 0.95
        else:
            rho = np.where(coin[0] < boundary_fraction, 1.0, rho)
        mag = 10.0 ** exponent
        b = np.hstack([mag[:, None], (mag * rho)[:, None] * (phi / norms)])
        return _row_products(b, self._Winv.T, alone)

    def image(self, map_matrix):
        """The nappe of M^-T A M^-1 selected by M^-T s, the form scaled to
        entries of at most 1, so a map of extreme scale keeps its values in
        range."""
        Minv = np.linalg.inv(_invertible_map(map_matrix, self.dim))
        F = Minv.T @ self.form @ Minv
        return LorentzCone(F / np.max(np.abs(F)), Minv.T @ self.nappe_selector)


# ---------------------------------------------------------------------------
# Time covectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeCovector:
    """A covector strictly positive on the cone minus the origin.

    ``margin`` is min tau(g)/|tau| over the cone's unit extreme rays g,
    exactly (``Cone.ray_minimum``).
    """

    components: np.ndarray
    margin: float

    def __call__(self, v) -> float:
        return float(self.components @ np.asarray(v, dtype=float))


def find_time_covector(cone: Cone) -> TimeCovector:
    """The cone's time covector tau, with its exact margin over the unit
    extreme rays.  Raises NotPointedError when no such covector exists."""
    tau = cone.time_covector()
    return TimeCovector(tau, cone.ray_minimum(tau)[0] / np.linalg.norm(tau))


# ---------------------------------------------------------------------------
# Antinorms
# ---------------------------------------------------------------------------


@dataclass
class AntinormCertificate:
    """The exact verdict on the antinorm axioms on a cone.  On failure the
    counterexample names the axiom, its points and the antinorm's values
    there, which evaluation confirms: a pair xi, zeta with nu(xi + zeta) <
    nu(xi) + nu(zeta), or a point xi with nu(xi) < 0."""

    passed: bool
    identically_zero: bool = False
    counterexample: Optional[dict] = None

    def summary(self) -> str:
        if self.passed:
            return ("antinorm axioms hold (exact certificate)"
                    + (" (identically zero)" if self.identically_zero else ""))
        return (f"antinorm axioms FAILED ({self.counterexample['axiom']})\n"
                f"  counterexample: {self.counterexample}")


class Antinorm:
    """Length functional on a cone: homogeneous, superadditive, >= 0 there."""

    def values_on_cone(self, V: np.ndarray) -> np.ndarray:
        """Value of a vector, or of each row of a stack, assuming it lies in
        the paired cone."""
        raise NotImplementedError

    def grads_on_cone(self, V: np.ndarray) -> np.ndarray:
        """Row-wise (super)gradients at relative-interior points."""
        raise NotImplementedError

    def certify(self, cone: Cone) -> AntinormCertificate:
        """Decide the axioms on the cone exactly, at the identity's algebra:
        no sample is drawn."""
        raise NotImplementedError



class LorentzSqrt(Antinorm):
    """nu(v) = sqrt(v^T A v) for a signature-(1, r) form A, the relativistic
    proper-time density."""

    def __init__(self, form) -> None:
        A = np.asarray(form, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("form must be a square matrix")
        # halved before the sum, which overflows for entries of 1e308
        self.form = 0.5 * A + 0.5 * A.T
        self.dim = A.shape[0]
        # |v^T A v| <= dim max|A| |v|^2: a row whose squared norm falls below
        # the least normal float has |q| below this cut
        self._cut = 2.0 * self.dim * _TINY * np.abs(self.form).max(initial=1.0)

    def values_on_cone(self, V):
        # einsum, not the BLAS dot: it may use FMA, breaking the exact
        # cancellation on the light cone
        q = np.einsum("...i,ij,...j->...", V, self.form, V)
        vals = np.asarray(np.sqrt(np.maximum(q, 0.0)))
        # a nonzero row whose q leaves the float range, or whose squared norm
        # falls below the least normal float (the test of ``_scaled_rows``),
        # is measured at entries of at most 1 and scaled back; every other
        # row keeps its bits.  Only a call with some |q| below the cut or not
        # finite looks for such rows
        aq = np.abs(q)
        if not (aq.min(initial=np.inf) >= self._cut and aq.max(initial=0.0) < np.inf):
            odd = ~(np.isfinite(q) & (np.einsum("...i,...i->...", V, V) >= _TINY))
            odd &= np.any(V != 0.0, axis=-1)
            rows = V[odd]
            big = np.abs(rows).max(axis=1)
            W = rows / big[:, None]
            q = np.einsum("...i,ij,...j->...", W, self.form, W)
            vals[odd] = big * np.sqrt(np.maximum(q, 0.0))
        return vals[()]

    def grads_on_cone(self, V):
        vals = self.values_on_cone(V)
        out = np.zeros_like(V)
        ok = vals > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            P = V[ok] @ self.form
        out[ok] = P / vals[ok, None]
        # a row whose product with the form leaves the float range takes the
        # gradient, homogeneous of degree 0, at its entries scaled to at most
        # 1, as values_on_cone scales them; every other row keeps its bits.
        # Only a call with such a product looks for them
        if not np.isfinite(P).all():
            odd = np.flatnonzero(ok)[~np.all(np.isfinite(P), axis=-1)]
            W = V[odd] / np.abs(V[odd]).max(axis=1)[:, None]
            out[odd] = (W @ self.form) / self.values_on_cone(W)[:, None]
        return out

    def certify(self, cone):
        """nu = sqrt(max(q, 0)), q(v) = v^T B v, is 0 on all of the cone C
        iff q <= 0 there (``Cone.form_witness`` of -B).  Otherwise, with u a
        point of C where q > 0, it is an antinorm iff
        - B has one positive eigenvalue on the span of C, counted on the
          span's rows (Sylvester's law of inertia); and
        - x^T B y >= 0 for all x, y in C (``Cone.nappe_pair``): on unit
          generators g_i^T B g_j >= 0, i = j included, and on a Lorentz cone
          max_{lam >= 0} lambda_min(B - lam A) >= 0 with B's positive
          eigenvector of one sign on C.
        Then C lies in one nappe of q, where the reverse Cauchy-Schwarz
        inequality x^T B y >= nu(x) nu(y) gives superadditivity (O'Neill,
        Semi-Riemannian Geometry, 1983), and q > 0 on the relative
        interior.  Each failure is a superadditivity pair (``_spacelike_pair``,
        ``_refuted``)."""
        _check_antinorm_dim(self, cone)
        B = _scaled_form(self.form)
        p = cone.relative_interior_point()
        u = p if p @ B @ p > FORM_TOL * (p @ p) else cone.form_witness(-B)
        if u is None:
            return AntinormCertificate(True, identically_zero=True)
        R = cone.span_rows()
        w = np.linalg.eigvalsh(R @ B @ R.T)
        if np.sum(w > FORM_TOL * np.abs(w).max()) > 1:
            xi, zeta = _spacelike_pair(cone, B, u, p)
        else:
            pair = cone.nappe_pair(B)
            if pair is None:
                return AntinormCertificate(True)
            xi, zeta = _refuted(B, u, *pair)
        va, vb, vsum = self.values_on_cone(np.array([xi, zeta, xi + zeta]))
        return AntinormCertificate(False, counterexample={
            "axiom": "superadditivity", "xi": xi.tolist(), "zeta": zeta.tolist(),
            "nu(xi+zeta)": float(vsum), "nu(xi)+nu(zeta)": float(va + vb)})


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
        band = 1e-12 * self._scale * (1.0 + _row_norms(V))
        return np.where((vals < 0.0) & (vals >= -band), 0.0, vals)[()]

    def grads_on_cone(self, V):
        vals = V @ self.family.T
        band = 1e-12 * self._scale * (1.0 + _row_norms(V))
        active = vals <= vals.min(axis=1, keepdims=True) + band[:, None]
        weights = active / active.sum(axis=1, keepdims=True)
        return weights @ self.family

    def certify(self, cone):
        """A minimum of covectors is concave and homogeneous; it is >= 0 on
        the cone iff every c_i is >= 0 on the unit extreme rays
        (``ray_minimum``), up to the band in which ``values_on_cone`` rounds
        to 0, and then it is > 0 on the relative interior unless some c_i,
        and so nu, is 0 on all of the cone."""
        _check_antinorm_dim(self, cone)
        zero, band = False, 2e-12 * self._scale
        for c in self.family:
            least, ray = cone.ray_minimum(c, least_ray=True)
            if ray is not None:
                value = float(self.values_on_cone(ray))
                if value < 0.0:
                    return AntinormCertificate(False, counterexample={
                        "axiom": "nonnegativity", "xi": ray.tolist(), "nu(xi)": value})
            zero = zero or (least <= band and cone.ray_minimum(-c)[0] >= -band)
        return AntinormCertificate(True, identically_zero=zero)


class ZeroAntinorm(Antinorm):
    """Identically zero on the cone (still -inf off it)."""

    def values_on_cone(self, V):
        return np.zeros(np.shape(V)[:-1])

    def grads_on_cone(self, V):
        return np.zeros(np.shape(V))

    def certify(self, cone):
        return AntinormCertificate(True, identically_zero=True)


def _spacelike_pair(cone: Cone, B: np.ndarray, u: np.ndarray, p: np.ndarray):
    """Where B has two positive eigenvalues on the span of the cone, at a
    relative-interior v with q(v) > 0 the form q(w) - (w^T B v)^2 / q(v)
    is still positive on some w of the span; w made B-orthogonal to v has
    q(v +- t w) = q(v) + t^2 q(w) > q(v), so xi = v + t w and zeta = v - t
    w, both in the cone for t small, fail superadditivity at xi + zeta = 2v.
    v is u moved into the relative interior toward p."""
    step = np.linalg.norm(u) / (np.linalg.norm(p) or 1.0)
    for _ in range(60):
        v = u + 1e-3 * step * p
        if v @ B @ v > 0.5 * (u @ B @ u):
            break
        step *= 0.5
    Bv, qv = B @ v, v @ B @ v
    R = cone.span_rows()
    w = R.T @ np.linalg.eigh(R @ B @ R.T - np.outer(R @ Bv, R @ Bv) / qv)[1][:, -1]
    w -= (w @ Bv / qv) * v
    t = np.linalg.norm(v) / np.linalg.norm(w)
    for _ in range(60):
        if np.all(cone.contains(np.array([v + t * w, v - t * w]))):
            break
        t *= 0.5
    return v + t * w, v - t * w


def _refuted(B: np.ndarray, u: np.ndarray, x: np.ndarray, y: np.ndarray):
    """A superadditivity pair for q(v) = v^T B v from cone points x, y with
    x^T B y < 0 and a cone point u with q(u) > 0:
    - when q < 0 at z, the least of x, y and x + s y with s the least point
      of q(x + s y) (or, where q(y) <= 0, far enough to make it negative),
      xi = u and zeta = 2 r z with r the positive root of q(u + r z): then
      nu(xi + zeta) = 0 < nu(u);
    - otherwise q(x), q(y) > 0, and xi = x with zeta = y scaled to q(zeta)
      = q(x) has q(xi + zeta) < 2 q(x): nu(xi + zeta) < sqrt(2) nu(x)."""
    def q(v):
        return v @ B @ v

    b = x @ B @ y
    s = -b / q(y) if q(y) > 0.0 else 1.0 + 2.0 * abs(q(x)) / -b
    z = min([x, y, x + s * y], key=lambda v: q(v) / (v @ v) if v.any() else np.inf)
    if q(z) < -FORM_TOL * (z @ z):
        b = u @ B @ z
        return u, 2.0 * (b + np.sqrt(b * b - q(u) * q(z))) / -q(z) * z
    return x, np.sqrt(q(x) / q(y)) * y if q(x) > 0.0 and q(y) > 0.0 else y


def _check_antinorm_dim(nu: Antinorm, cone: Cone) -> None:
    """DimensionMismatchError unless nu acts on the cone's space (a
    ZeroAntinorm has no dim and acts on any)."""
    nu_dim = getattr(nu, "dim", None)
    if nu_dim is not None and nu_dim != cone.dim:
        raise DimensionMismatchError(f"antinorm dim {nu_dim} does not match "
                                     f"the cone dim {cone.dim}")


def _check_cone_dim(cone: Cone, model) -> None:
    """DimensionMismatchError unless the cone lives in the model's control
    space."""
    if cone.dim != model.control_dim:
        raise DimensionMismatchError(f"cone dim {cone.dim} does not match the "
                                     f"control space dim {model.control_dim}")


def antinorm_eval(nu: Antinorm, cone: Cone, v):
    """nu(v) within DEFAULT_TOL of the cone, -inf off it; row by row for a stack."""
    V = as_vectors(v, cone.dim)
    # [()] unwraps the 0-d result of a single vector into a scalar
    return np.where(cone.contains(V), nu.values_on_cone(V), NEG_INF)[()]


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
    Failures are report content, never exceptions.  A value that is not
    finite fails every axiom it enters (a comparison with NaN is False, so
    without that rule NaN would pass).

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

    finite_a = np.isfinite(va)
    with np.errstate(invalid="ignore"):   # inf - inf, a failure below
        hom_err = np.abs(vlam - lam * va)
    hom_bad = hom_err > 1e-9 * np.maximum(1.0, np.abs(lam * va))
    hom_bad |= ~(finite_a & np.isfinite(vlam))
    rep.homogeneity_failures = int(hom_bad.sum())
    if rep.homogeneity_failures:
        i = int(np.argmax(hom_bad))
        fail("homogeneity", {"xi": a[i].tolist(), "lambda": float(lam[i]),
                             "nu(lambda xi)": float(vlam[i]),
                             "lambda nu(xi)": float(lam[i] * va[i])})

    sup_bad = (vsum < va + vb - 1e-9) | ~(finite_a & np.isfinite(vb) & np.isfinite(vsum))
    rep.superadditivity_failures = int(sup_bad.sum())
    if rep.superadditivity_failures:
        i = int(np.argmax(sup_bad))
        fail("superadditivity", {"xi": a[i].tolist(), "zeta": b[i].tolist(),
                                 "nu(xi+zeta)": float(vsum[i]),
                                 "nu(xi)+nu(zeta)": float(va[i] + vb[i])})

    # the rows' lengths, finite for samples of 1e300
    scaled, big = _scaled_rows(a)
    scale = 1.0 + big * np.linalg.norm(scaled, axis=1)
    neg_bad = (va < -1e-12 * scale) | ~finite_a
    rep.nonnegativity_failures = int(neg_bad.sum())
    if rep.nonnegativity_failures:
        i = int(np.argmax(neg_bad))
        fail("nonnegativity", {"xi": a[i].tolist(), "nu(xi)": float(va[i])})

    # nu > 0 on the relative interior unless identically zero on the cone
    rep.identically_zero = bool(np.all(np.abs(va) <= 1e-12 * scale))
    if not rep.identically_zero:
        ri = cone.sample(min(sample_count, 1000), rng, relative_interior=True)
        vri = nu.values_on_cone(ri)
        pos_bad = (vri <= 0.0) | ~np.isfinite(vri)
        rep.positivity_failures = int(pos_bad.sum())
        if rep.positivity_failures:
            i = int(np.argmax(pos_bad))
            fail("interior positivity", {"xi": ri[i].tolist(), "nu(xi)": float(vri[i])})

    return rep
