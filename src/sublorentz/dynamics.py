"""Admissible paths: piecewise-constant controls, exact group integration,
the sub-Lorentzian length functional, and the oriented-area identity on the
step-2 spacetime group.

Integration composes exact exponential steps, so endpoints are exact for
piecewise-constant left-invariant dynamics on every supported model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .cones import Antinorm, Cone, antinorm_eval
from .errors import DimensionMismatchError, WrongModelError
from .groups import GroupModel


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Piecewise-constant control: row k applies on the k-th uniform segment."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] < 1:
            raise ValueError("need at least one segment")
        if not np.all(np.isfinite(v)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def segments(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def split_segments(self) -> "ControlSignal":
        """Halve every segment (same path, doubled grid)."""
        return ControlSignal(np.repeat(self.values, 2, axis=0))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid path: times[k] strictly increasing from 0, points[k] on the model.

    ``z`` is the accumulated-objective track of the auxiliary formulation
    (z' = nu(velocity)); present only when the integrator was given a length
    structure.  ``control`` is kept when the path came from a uniform-grid
    control.
    """

    model: GroupModel
    times: np.ndarray
    points: np.ndarray
    z: Optional[np.ndarray] = None
    control: Optional[ControlSignal] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", pts)
        if t.ndim != 1 or pts.shape[0] != t.shape[0]:
            raise ValueError("times and points must have matching lengths")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must increase strictly from 0")
        if self.z is not None:
            z = np.asarray(self.z, dtype=float)
            object.__setattr__(self, "z", z)
            if z.shape != t.shape:
                raise ValueError("z must have one value per grid node")
            finite = np.isfinite(z)
            if np.all(finite) and np.any(np.diff(z) < -1e-12):
                raise ValueError("accumulated objective must be non-decreasing")

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def integrate(model: GroupModel, x0, u: ControlSignal, horizon: float = 1.0,
              nu: Optional[Antinorm] = None, cone: Optional[Cone] = None) -> Trajectory:
    """Integrate x' = (left-translate of u_k) from x0 over [0, horizon].

    Each segment is one exact exponential step x_{k+1} = x_k exp(h u_k),
    all of them in one ``model.points`` pass; the first point off the
    model's domain (a flow that overflows) raises what ``validate_point``
    raises for it.  Carnot controls may be given in the first layer only.
    """
    x0 = model.validate_point(x0)
    if u.dim not in (model.control_dim, model.point_dim):
        raise DimensionMismatchError(f"control dim {u.dim} does not match model "
                                     f"({model.control_dim} or {model.point_dim})")
    n = u.segments
    h = horizon / n
    pts = model.validate_points(model.points(x0, u.values, h))
    times = np.linspace(0.0, horizon, n + 1)
    z = None
    if nu is not None and cone is not None:
        rates = antinorm_eval(nu, cone, u.values)
        z = np.concatenate([[0.0], np.cumsum(h * rates)])
    return Trajectory(model=model, times=times, points=pts, z=z, control=u)


def sl_length(nu: Antinorm, cone: Cone, u: ControlSignal, horizon: float = 1.0) -> float:
    """Sub-Lorentzian length of the control path: sum of h * nu(u_k), summed
    in segment order like the z track of ``integrate``.

    float('-inf') when any segment leaves the cone (inadmissible path).
    """
    h = horizon / u.segments
    return float(np.cumsum(h * antinorm_eval(nu, cone, u.values))[-1])


@dataclass
class AdmissibilityReport:
    ok: bool
    violations: list  # (segment index, control row) pairs

    def summary(self) -> str:
        if self.ok:
            return "all segments inside the cone"
        idx = [i for i, _ in self.violations]
        return f"{len(idx)} segment(s) outside the cone: {idx[:10]}"


def admissibility_check(cone: Cone, u: ControlSignal) -> AdmissibilityReport:
    """Per-segment cone membership at relative tolerance 1e-9."""
    outside = np.flatnonzero(~cone.contains(u.values, 1e-9))
    bad = [(int(k), u.values[k].tolist()) for k in outside]
    return AdmissibilityReport(ok=not bad, violations=bad)


# ---------------------------------------------------------------------------
# The step-2 spacetime group: printed coordinates and oriented areas
# ---------------------------------------------------------------------------


def _area_rank(model: GroupModel) -> int:
    """Spatial rank r when model is the step-2 area-tracking group, that is
    when its structure constants are those of minkowski_area(r)
    (``GroupModel.area_rank``), else raise."""
    if model.area_rank is None:
        raise WrongModelError("oriented areas live on the step-2 area-tracking group")
    return model.area_rank


def oriented_area(traj: Trajectory, i: int) -> float:
    """Signed area between the (x_0, x_i) projection of the path and the chord
    closing it back to its start, by the shoelace formula over grid vertices.

    Exact for piecewise-constant controls: first-layer coordinates are
    piecewise linear in t.
    """
    r = _area_rank(traj.model)
    if not 1 <= i <= r:
        raise ValueError(f"spatial index must be in 1..{r}")
    poly = traj.points[:, [0, i]]
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return float(0.5 * np.sum(x * yn - xn * y))


def integrate_rk4_step2(model: GroupModel, x0, u: ControlSignal) -> np.ndarray:
    """Independent endpoint oracle: classical RK4, 16 steps per segment over
    the unit horizon, on the printed coordinate system x_i' = u_i, y_i' =
    w_i + (x_0 u_i - x_i u_0)/2 of the step-2 group, for controls (u, w) of
    the point dimension or u of the control dimension (w = 0)."""
    r = _area_rank(model)
    x0 = model.validate_point(x0)

    def rhs(state, uk):
        x = state[:r + 1]
        dx = uk[:r + 1]
        dy = 0.5 * (x[0] * uk[1:r + 1] - x[1:] * uk[0]) + uk[r + 1:]
        return np.concatenate([dx, dy])

    state, substeps = x0.copy(), 16
    h = 1.0 / u.segments / substeps
    for uk in model.embed_control(u.values):
        for _ in range(substeps):
            k1 = rhs(state, uk)
            k2 = rhs(state + 0.5 * h * k1, uk)
            k3 = rhs(state + 0.5 * h * k2, uk)
            k4 = rhs(state + h * k3, uk)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _csv(names: List[str], rows: Sequence[Sequence[float]]) -> str:
    """CSV text under the header ``names``, one line per row of numbers
    written by one "%.17g" %-format per row (the bytes f"{c:.17g}" gives
    each entry, much faster); cells missing at a row's end are empty."""
    lines = [",".join(names)]
    if len(rows):
        width = len(rows[0])
        row = ",".join(["%.17g"] * width) + "," * (len(names) - width)
        lines += [row % tuple(r) for r in rows]
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    """Deterministic CSV: one row per grid node, 17 significant digits; the
    z cells are empty when the trajectory has no z track."""
    names = ["t"] + traj.model.coordinate_names() + ["z"]
    columns = [traj.times[:, None], traj.points]
    if traj.z is not None:
        columns.append(traj.z[:, None])
    return _csv(names, np.hstack(columns).tolist())
