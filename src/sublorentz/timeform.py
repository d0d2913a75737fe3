"""Causal time forms: evaluation, closedness and exactness checks, the
potential, the growth condition, the unit-time section's norm bound, and
the unit-time reparametrization.

All shipped forms are left-invariant, so everything is decided at the
identity: the spread of tau0 is closed exactly when tau0 vanishes on
[g, g], which the model's structure constants decide, and the models are
simply connected, so a closed form always has a potential.  The growth
ratio, which is also the unit-time section's norm bound, is computed there
too, exactly, from the covector on the cone's unit extreme rays.  Left
translation carries the identity's Euclidean norm to a complete invariant
metric, so one bound holds at every point; any other invariant metric is
equivalent to it up to a constant factor and gives the same verdict.  The
hyperbolic family (a dx + b dy)/y is the spread of (a, b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import Cone, _check_cone_dim, _row_dots, as_vector, as_vectors
from .dynamics import Trajectory
from .errors import NotExactError, StalledParameterError, UnboundedSectionError
from .groups import GroupModel, HyperbolicPlane

#: headroom used when suggesting a rescaling of tau for the growth condition
GROWTH_EPS = 0.05

#: tau rates below this stall the new parameter
STALL_TOL = 1e-10


class TimeForm:
    """A 1-form splitting the causal cone field into past and future."""

    model: GroupModel

    def value(self, p, v):
        """tau_p(v) for a chart tangent vector v at p (for each row of a
        stack v)."""
        raise NotImplementedError

    def value_at_identity(self, u):
        raise NotImplementedError


class LeftInvariantForm(TimeForm):
    """Spread of a covector at the identity by left translations."""

    def __init__(self, tau0, model: GroupModel) -> None:
        self.tau0 = as_vector(tau0, model.point_dim, "tau0")
        self.model = model

    def __repr__(self) -> str:
        return f"LeftInvariantForm(tau0={self.tau0.tolist()}, model={self.model!r})"

    def value(self, p, v):
        return self.model.pullback(p, v) @ self.tau0

    def value_at_identity(self, u):
        return as_vectors(u, self.model.point_dim) @ self.tau0


def HyperbolicAB(a: float, b: float) -> LeftInvariantForm:
    """The family (a dx + b dy)/y on the hyperbolic plane: the left-invariant
    spread of the covector (a, b)."""
    return LeftInvariantForm([a, b], HyperbolicPlane())


def exterior_derivative_fd(form: TimeForm, p, v, w, h: float = 1e-3) -> float:
    """Central finite-difference d(tau)_p(v, w) on constant chart fields.

    Commuting coordinate fields make d(tau)(v, w) = d_v tau(w) - d_w tau(v);
    the approximation error is O(h^2).
    """
    p = form.model.validate_point(p)
    v = as_vector(v, form.model.point_dim)
    w = as_vector(w, form.model.point_dim)
    for q in (p + h * v, p - h * v, p + h * w, p - h * w):
        form.model.validate_point(q)
    d_v = (form.value(p + h * v, w) - form.value(p - h * v, w)) / (2.0 * h)
    d_w = (form.value(p + h * w, v) - form.value(p - h * w, v)) / (2.0 * h)
    return d_v - d_w


def dtau(form: LeftInvariantForm) -> np.ndarray:
    """The exterior derivative of the spread at the identity on basis pairs,
    exactly: d tau(e_i, e_j) = -tau0([e_i, e_j]) for left-invariant fields."""
    return -(form.model.structure_constants @ form.tau0)


def potential(form: LeftInvariantForm, p):
    """The function T with dT = tau, normalized to T(identity) = 0: the
    covector applied to the group logarithm.  A float for a point, an array
    for a stack of points (..., point_dim), each entry the float of its row.

    Raises NotExactError when d tau is not zero, that is when the covector
    does not vanish on [g, g] (on the hyperbolic plane: a != 0).
    """
    if not is_exact(form):
        raise NotExactError("covector does not vanish on [g, g]; the "
                            "left-invariant spread is not closed")
    T = _row_dots(form.model.log(p), form.tau0)
    return float(T) if T.ndim == 0 else T


def is_exact(form: LeftInvariantForm) -> bool:
    """Closed, hence exact on these simply connected models: d tau = 0."""
    return not np.any(dtau(form))


def _control_covector(model: GroupModel, form: TimeForm) -> np.ndarray:
    """tau at the identity as a covector on the model's control space."""
    return form.value_at_identity(model.embed_control(np.eye(model.control_dim)))


# ---------------------------------------------------------------------------
# Growth condition diagnostics
# ---------------------------------------------------------------------------


@dataclass
class GrowthReport:
    """Supremum rho of |xi| / tau(xi) over identity cone directions xi, exact:
    one over tau's least value on the cone's unit extreme rays.

    In the invariant setting a finite ratio rho certifies the sublinear
    growth condition globally once tau is multiplied by rho * (1 + eps).
    """

    passed: bool
    rho: float
    tau_scale: float
    offending_direction: Optional[np.ndarray] = None

    def summary(self) -> str:
        if not self.passed:
            return (f"growth condition FAILS: tau vanishes on cone direction "
                    f"{self.offending_direction}")
        return (f"growth ratio rho = {self.rho:.6g}; "
                f"scale tau by {self.tau_scale:.6g} for a unit bound")


def check_growth_condition(form: TimeForm, cone: Cone) -> GrowthReport:
    """Check tau > 0 on the cone minus the origin and bound |xi| / tau(xi),
    at the identity; left invariance transports the bound to every point.
    The ratio is largest on an extreme ray, so with tau_c the covector on
    the controls, rho is one over tau_c's least value on the unit extreme
    rays (``Cone.ray_minimum``).
    """
    _check_cone_dim(cone, form.model)
    least, ray = cone.ray_minimum(_control_covector(form.model, form))
    if ray is not None:
        return GrowthReport(passed=False, rho=np.inf, tau_scale=np.inf,
                            offending_direction=ray)
    rho = 1.0 / least
    return GrowthReport(passed=True, rho=rho, tau_scale=rho * (1.0 + GROWTH_EPS))


# ---------------------------------------------------------------------------
# The unit-time section
# ---------------------------------------------------------------------------


def section_sup_norm(cone: Cone, form: TimeForm) -> float:
    """Supremum of the Euclidean norm over the unit-time slice
    {xi in cone : tau(xi) = 1} at the identity.  Left invariance makes it
    the supremum of the invariant norm at every point.

    That supremum is the growth ratio rho of ``check_growth_condition``.
    Raises UnboundedSectionError when tau fails to be positive on some ray.
    """
    rep = check_growth_condition(form, cone)
    if not rep.passed:
        raise UnboundedSectionError(
            f"tau is not positive on the extreme direction "
            f"{rep.offending_direction.tolist()}; the unit-time slice is unbounded")
    return rep.rho


# ---------------------------------------------------------------------------
# Reparametrization by accumulated tau-time
# ---------------------------------------------------------------------------


def _segment_tau_rates(traj: Trajectory, form: TimeForm) -> np.ndarray:
    """Average tau(velocity) per segment.

    With the generating control available the rate is exact: tau is
    left-invariant, so tau(velocity) = tau_identity(u_k) throughout the
    segment.  Control-free trajectories fall back to chord differences at
    chart midpoints.
    """
    if traj.control is not None:
        return form.value_at_identity(traj.model.embed_control(traj.control.values))
    n = len(traj.times) - 1
    h = np.diff(traj.times)
    rates = np.empty(n)
    for k in range(n):
        mid = 0.5 * (traj.points[k] + traj.points[k + 1])
        vel = (traj.points[k + 1] - traj.points[k]) / h[k]
        rates[k] = form.value(mid, vel)
    return rates


def reparametrize(traj: Trajectory, form: TimeForm) -> Trajectory:
    """Re-grid the path by s(t) = integral of tau(velocity).

    The result runs over [0, s1] with unit tau-speed; raises
    StalledParameterError when tau(velocity) < 1e-10 on a segment.
    """
    rates = _segment_tau_rates(traj, form)
    if np.any(rates < STALL_TOL):
        k = int(np.argmin(rates))
        raise StalledParameterError(
            f"tau(velocity) = {rates[k]:.3g} on segment {k}; "
            "the new parameter stalls")
    h = np.diff(traj.times)
    s = np.concatenate([[0.0], np.cumsum(h * rates)])
    return Trajectory(model=traj.model, times=s, points=traj.points.copy(),
                      z=None if traj.z is None else traj.z.copy(), control=None)


def tau_duration(traj: Trajectory, form: TimeForm) -> float:
    """Total tau-time of the path: the integral of tau along it."""
    h = np.diff(traj.times)
    return float(np.sum(h * _segment_tau_rates(traj, form)))
