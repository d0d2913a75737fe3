"""Longest-path optimization by direct transcription.

The length functional sum_k h nu(u_k) is maximized over cone-valued
piecewise-constant controls subject to the endpoint constraint, enforced by
an augmented Lagrangian on the group-log residual.  Inner updates are
projected (sub)gradient ascent with exact cone projection; restarts combine
the abelianized constant control with seeded random admissible controls.

Each line search evaluates its step-halving trials in stacked chunks, one
endpoint pass per chunk, and builds the accepted trial's Jacobian from that
pass.  It accepts the trial, and reaches the iterate, that a search trying
one step at a time would, bit for bit.

The problem is non-convex on non-abelian groups; the solver certifies
feasibility and delivers bound-consistent local maximizers, not global
optimality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

import numpy as np

from .cones import (NEG_INF, Antinorm, Cone, _positive_count, _probe_directions,
                    _row_dots, antinorm_eval)
from .dynamics import ControlSignal, Trajectory, integrate
from .errors import DimensionMismatchError, NegativeAntinormError, WrongModelError
from .groups import GroupModel
from .groups import bch_log_product  # noqa: F401 (the bench tracer test asserts it)
from .timeform import TimeForm, potential, section_sup_norm


#: initial augmented-Lagrangian penalty weight
PENALTY0 = 10.0

#: how many line-search trials each stacked pass evaluates, in order, before
#: the last chunk takes the rest of the 40: most searches accept their first
#: trial, and a search that fails runs all 40
TRIAL_CHUNKS = (1, 2, 4, 8, 16)

#: the step factors of one line search, halving after each rejected trial
HALVINGS = 0.5 ** np.arange(40)


class SolveStatus(Enum):
    SOLVED = "solved"
    NO_ADMISSIBLE_PATH = "no_admissible_path"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 500
    restarts: int = 8
    seed: int = 0
    inner_iter: int = 60


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Fixed-endpoint longest-path problem on the unit time horizon."""

    model: GroupModel
    cone: Cone
    nu: Antinorm
    x0: np.ndarray
    x1: np.ndarray
    segments: int = 50

    def __post_init__(self):
        object.__setattr__(self, "x0", self.model.validate_point(self.x0))
        object.__setattr__(self, "x1", self.model.validate_point(self.x1))
        if self.segments < 1:
            raise ValueError("need at least one segment")
        if self.cone.dim != self.control_dim:
            raise ValueError(f"cone dim {self.cone.dim} does not match the "
                             f"control space dim {self.control_dim}")
        if not self.cone.is_pointed():
            raise ValueError("cone must be pointed")
        nu_dim = getattr(self.nu, "dim", None)  # ZeroAntinorm has no dim
        if nu_dim is not None and nu_dim != self.cone.dim:
            raise DimensionMismatchError(f"antinorm dim {nu_dim} does not match "
                                         f"the cone dim {self.cone.dim}")
        # nonnegativity on the extreme rays and the interior axis
        D = np.vstack([_probe_directions(self.cone), self.cone.interior_direction()])
        vals = np.asarray(self.nu.values_on_cone(D), dtype=float)
        bad = vals < -1e-12 * np.abs(vals).max()
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NegativeAntinormError(f"antinorm is negative on the cone: "
                                        f"nu({D[i].tolist()}) = {vals[i]:.6g}")

    @property
    def control_dim(self) -> int:
        return self.model.control_dim


@dataclass
class SolveReport:
    status: SolveStatus
    objective: float
    control: Optional[ControlSignal]
    trajectory: Optional[Trajectory]
    endpoint_residual: float
    iterations: int
    history: List[float] = field(default_factory=list)
    #: endpoint passes over all restarts, as the line search examines its
    #: trials in order: every residual evaluation up to an accepted trial
    #: (the full passes included) and the full passes that also built the
    #: Jacobian.  A trial stacked past the accepted one is not counted, so
    #: the counts describe the search, not how its trials were batched.
    endpoint_evaluations: int = 0
    jacobian_evaluations: int = 0

    def summary(self) -> str:
        return (f"{self.status.value}: objective {self.objective:.9g}, "
                f"residual {self.endpoint_residual:.3g}, "
                f"{self.iterations} outer iteration(s)")


def _displacement_log(model: GroupModel, x0, x1) -> np.ndarray:
    """log(x0^{-1} x1) in chart coordinates."""
    return model.log(model.multiply(model.inverse(x0), x1))


# ---------------------------------------------------------------------------
# The augmented-Lagrangian core
# ---------------------------------------------------------------------------


@dataclass
class _RunResult:
    u: np.ndarray
    objective: float
    residual: float
    outer_iters: int
    history: List[float]
    endpoint_evaluations: int
    jacobian_evaluations: int


def _objective(nu: Antinorm, u: np.ndarray, h: float) -> float:
    return float(h * nu.values_on_cone(u).sum())


def _polish_average(model: GroupModel, cone: Cone, x0, x1,
                    u: np.ndarray, horizon: float) -> np.ndarray:
    """Shift all segments by a constant so the control average exactly matches
    the displacement the endpoints force (abelian and Carnot first layer).

    Keeps the superadditivity bound sharp in reports; reverted when the shift
    would push a segment out of the cone.
    """
    target = model.forced_average(x0, x1)
    if target is None:
        return u
    h = horizon / u.shape[0]
    shift = (target - h * u.sum(axis=0)) / horizon
    if np.linalg.norm(shift) == 0.0:
        return u
    shifted = u + shift
    if np.all(cone.contains(shifted, 1e-9)):
        return shifted
    return u


def _augmented_lagrangian_run(model: GroupModel, cone: Cone, nu: Antinorm,
                              x0, x1, u0: np.ndarray, horizon: float,
                              opts: SolveOptions,
                              retraction=None,
                              gradient_projector: Optional[np.ndarray] = None
                              ) -> _RunResult:
    n_seg = u0.shape[0]
    h = horizon / n_seg
    project = retraction if retraction is not None else cone.project_batch
    axis = cone.interior_direction()

    u = project(u0.copy())
    lam = None
    mu = PENALTY0
    prev_res = np.inf
    history: List[float] = []
    alpha = 1.0

    counts = {"endpoint": 0, "jacobian": 0}
    # a stack of one-segment trials projects by gemm where a single trial
    # projects by gemv, which may round differently
    n_trials = len(HALVINGS)
    ends = np.cumsum(TRIAL_CHUNKS).tolist() if n_seg > 1 else list(range(1, n_trials))
    chunks = list(zip([0] + ends, ends + [n_trials]))

    def residual(uu):
        counts["endpoint"] += 1
        return model.endpoint_residual(x0, x1, uu, horizon)[0]

    def penalties(rho):
        # 0.5 * mu * rho @ rho, plus lam @ rho, for rho or for each row
        pen = _row_dots((0.5 * mu) * rho, rho)
        return pen if lam is None else _row_dots(lam, rho) + pen

    def jacobian(uu, chain):
        # wild iterates can overflow the exponential maps; such points are
        # rejected, never fatal
        counts["endpoint"] += 1
        counts["jacobian"] += 1
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                J = model.endpoint_jacobian(x0, x1, uu, horizon, chain)
        except (ValueError, FloatingPointError):
            return None
        return J if np.all(np.isfinite(J)) else None

    def full_phi(uu):
        # one endpoint and one Jacobian evaluation, counted even when the
        # pass raises
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                rho, _, chain = model.endpoint_pass(x0, x1, uu, horizon)
        except (ValueError, FloatingPointError):
            counts["endpoint"] += 1
            counts["jacobian"] += 1
            return -np.inf, None, None
        J = jacobian(uu, chain)
        if J is None or not np.all(np.isfinite(rho)):
            return -np.inf, None, None
        return _objective(nu, uu, h) - penalties(rho), rho, J

    def scan(u, grad, steps, ref):
        """The first of the trials project(u + step * grad) whose phi beats
        ref, as (trial, phi, rho, J), or None.  The trials share one stacked
        pass, and the accepted one's Jacobian is built from it; a stack that
        raises, in its projection or its pass, is scanned again one trial at
        a time."""
        m = u.shape[1]
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                trials = project((u + steps[:, None, None] * grad).reshape(-1, m))
                trials = trials.reshape(len(steps), n_seg, m)
                rho, _, chain = model.endpoint_pass(x0, x1, trials, horizon)
                phi = h * nu.values_on_cone(trials).sum(axis=-1) - penalties(rho)
        except (ValueError, FloatingPointError):
            if len(steps) == 1:
                counts["endpoint"] += 1
                return None
            for i in range(len(steps)):
                found = scan(u, grad, steps[i:i + 1], ref)
                if found is not None:
                    return found
            return None
        finite = np.all(np.isfinite(rho), axis=-1)
        for i in range(len(steps)):
            counts["endpoint"] += 1
            if finite[i] and phi[i] > ref + 1e-14:
                J = jacobian(trials[i], chain[i])
                if J is not None:
                    return trials[i], phi[i], rho[i], J
        return None

    def gradient(uu, rho, J, eps):
        # supergradient of the length term, nudged off the cone boundary,
        # minus the augmented-Lagrangian pull toward the endpoint
        scale = np.maximum(np.linalg.norm(uu, axis=1, keepdims=True), 0.1)
        grad_nu = h * nu.grads_on_cone(uu + eps * scale * axis)
        mult = (mu * rho) if lam is None else (lam + mu * rho)
        g = grad_nu - np.einsum("tab,a->tb", J, mult)
        if gradient_projector is not None:
            # constrained runs ascend in the feasible slice's tangent space,
            # keeping the step compatible with the retraction
            g = g @ gradient_projector.T
        return g

    outer = 0
    for outer in range(1, opts.max_iter + 1):
        eps = 0.1 / outer
        alpha = max(alpha, 1e-2)
        phi, rho, J = full_phi(u)
        if rho is None:
            break
        # projected ascent with spectral (Barzilai-Borwein) steps and a
        # short nonmonotone line search; the best iterate is kept
        best = (phi, u, rho, J)
        u_prev = g_prev = None
        phi_recent = [phi]
        for _ in range(opts.inner_iter):
            grad = gradient(u, rho, J, eps)
            if np.linalg.norm(grad) < 1e-14:
                break
            if g_prev is not None:
                s = (u - u_prev).ravel()
                y = (grad - g_prev).ravel()
                sy = s @ y
                if sy < -1e-18:
                    alpha = min(max((s @ s) / (-sy), 1e-10), 1e4)
            # the step halves after each rejected trial: 40 trials at most,
            # none below 1e-16 (alpha >= 1e-10)
            steps = alpha * HALVINGS
            steps = steps[steps >= 1e-16]
            ref = min(phi_recent[-5:])
            found = None
            for lo, hi in chunks:
                if found is not None or lo >= len(steps):
                    break
                found = scan(u, grad, steps[lo:hi], ref)
            if found is None:
                break
            u_prev, g_prev = u, grad
            u, phi, rho, J = found
            phi_recent.append(phi)
            if phi > best[0]:
                best = (phi, u, rho, J)
        phi, u, rho, J = best
        res = float(np.linalg.norm(rho))
        history.append(_objective(nu, u, h))
        if res <= opts.tol:
            polished = _polish_average(model, cone, x0, x1, u, horizon)
            rho_p = residual(polished)
            if np.linalg.norm(rho_p) <= opts.tol:
                u = polished
                res = float(np.linalg.norm(rho_p))
            # converged when the objective stalls between outer iterations
            if len(history) >= 2 and abs(history[-1] - history[-2]) <= \
                    1e-9 * max(1.0, abs(history[-1])):
                break
        lam = mu * rho if lam is None else lam + mu * rho
        if res > 0.25 * prev_res:
            mu = min(mu * 2.0, 1e12)
        prev_res = res

    u = _polish_average(model, cone, x0, x1, u, horizon)
    rho = residual(u)
    return _RunResult(u=u, objective=_objective(nu, u, h),
                      residual=float(np.linalg.norm(rho)),
                      outer_iters=outer, history=history,
                      endpoint_evaluations=counts["endpoint"],
                      jacobian_evaluations=counts["jacobian"])


def _starting_controls(prob: ProblemInstance, horizon: float,
                       opts: SolveOptions,
                       unit_tau: Optional[TimeForm] = None) -> List[np.ndarray]:
    """Abelianized constant control first, then seeded random admissible ones."""
    rng = np.random.default_rng(opts.seed)
    n_seg, m = prob.segments, prob.control_dim
    starts: List[np.ndarray] = []
    target = prob.model.forced_average(prob.x0, prob.x1)
    if target is None:
        target = _displacement_log(prob.model, prob.x0, prob.x1)
    base = np.tile(target / horizon, (n_seg, 1))
    starts.append(base)
    while len(starts) < max(1, opts.restarts):
        jitter = prob.cone.sample(n_seg, rng)
        mix = rng.uniform(0.2, 0.8)
        cand = mix * base + (1 - mix) * jitter * (
            np.linalg.norm(target) / max(np.linalg.norm(jitter, axis=1).mean(), 1e-9))
        starts.append(cand)
    if unit_tau is not None:
        tau_c = _control_covector(prob.model, unit_tau)
        starts = [_unit_tau_retract(prob.cone, tau_c, s) for s in starts]
    return starts


def _control_covector(model: GroupModel, form: TimeForm) -> np.ndarray:
    """tau at the identity as a covector on the control space."""
    return form.value_at_identity(model.embed_control(np.eye(model.control_dim)))


def _unit_tau_retract(cone: Cone, tau_c: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Project the rows of U onto the cone and scale each to unit tau; rows
    where tau <= 1e-12 fall back to the cone's interior direction."""
    out = cone.project_batch(U)
    t = out @ tau_c
    low = t <= 1e-12
    if np.any(low):
        out[low] = cone.interior_direction()
        t[low] = out[low] @ tau_c
    return out / t[:, None]


def _report_from_runs(prob: ProblemInstance, runs: List[_RunResult],
                      horizon: float, opts: SolveOptions) -> SolveReport:
    feasible = [r for r in runs if r.residual <= opts.tol]
    pool = feasible if feasible else runs
    # highest objective, then lowest residual, then lowest restart index
    best_idx = min(range(len(pool)),
                   key=lambda i: (-pool[i].objective, pool[i].residual, i))
    best = pool[best_idx]
    control = ControlSignal(best.u)
    traj = integrate(prob.model, prob.x0, control, horizon=horizon,
                     nu=prob.nu, cone=prob.cone)
    status = SolveStatus.SOLVED if feasible else SolveStatus.MAX_ITERATIONS
    return SolveReport(status=status, objective=best.objective, control=control,
                       trajectory=traj, endpoint_residual=best.residual,
                       iterations=best.outer_iters, history=best.history,
                       endpoint_evaluations=sum(r.endpoint_evaluations for r in runs),
                       jacobian_evaluations=sum(r.jacobian_evaluations for r in runs))


def _no_admissible_path() -> SolveReport:
    return SolveReport(status=SolveStatus.NO_ADMISSIBLE_PATH, objective=NEG_INF,
                       control=None, trajectory=None,
                       endpoint_residual=np.inf, iterations=0)


def solve_longest(prob: ProblemInstance, opts: Optional[SolveOptions] = None
                  ) -> SolveReport:
    """Maximize the sub-Lorentzian length between the fixed endpoints.

    Returns NO_ADMISSIBLE_PATH with objective -inf when the model's
    certificate (GroupModel.admits_path) rules every admissible path out;
    MAX_ITERATIONS when no restart reaches the endpoint tolerance.
    """
    opts = opts or SolveOptions()
    if not prob.model.admits_path(prob.cone, prob.x0, prob.x1):
        return _no_admissible_path()
    runs = [_augmented_lagrangian_run(prob.model, prob.cone, prob.nu,
                                      prob.x0, prob.x1, u0, 1.0, opts)
            for u0 in _starting_controls(prob, 1.0, opts)]
    return _report_from_runs(prob, runs, 1.0, opts)


def solve_longest_reparametrized(prob: ProblemInstance, form: TimeForm,
                                 opts: Optional[SolveOptions] = None
                                 ) -> SolveReport:
    """Solve the fixed-horizon unit-tau-speed formulation of the same problem.

    The horizon s1 = T(x1) - T(x0) is forced by the potential of the exact
    form; controls are retracted onto the unit-time slice of the cone.
    Objectives agree with solve_longest up to discretization.
    """
    opts = opts or SolveOptions()
    s1 = potential(form, prob.x1) - potential(form, prob.x0)
    if s1 <= 1e-12 and np.allclose(prob.x0, prob.x1, atol=1e-12):
        return SolveReport(status=SolveStatus.SOLVED, objective=0.0, control=None,
                           trajectory=None, endpoint_residual=0.0, iterations=0)
    if s1 <= 1e-12 or not prob.model.admits_path(prob.cone, prob.x0, prob.x1):
        return _no_admissible_path()

    # tau in control coordinates; ascent happens in its kernel
    tau_c = _control_covector(prob.model, form)
    projector = np.eye(prob.control_dim) - np.outer(tau_c, tau_c) / (tau_c @ tau_c)

    runs = [_augmented_lagrangian_run(prob.model, prob.cone, prob.nu,
                                      prob.x0, prob.x1, u0, s1, opts,
                                      retraction=lambda U: _unit_tau_retract(
                                          prob.cone, tau_c, U),
                                      gradient_projector=projector)
            for u0 in _starting_controls(prob, s1, opts, unit_tau=form)]
    return _report_from_runs(prob, runs, s1, opts)


# ---------------------------------------------------------------------------
# Oracles and bounds
# ---------------------------------------------------------------------------


def abelianized_upper_bound(prob: ProblemInstance) -> float:
    """nu of the control average the endpoints force: by Jensen (nu is
    superadditive and 1-homogeneous) an upper bound on every admissible
    path's length, -inf when the average leaves the cone (no admissible path
    at all).  On R^n the straight segment attains it, so it is exact there.

    Raises WrongModelError on a model whose endpoints force no average, the
    hyperbolic plane.
    """
    target = prob.model.forced_average(prob.x0, prob.x1)
    if target is None:
        raise WrongModelError(f"{prob.model!r} forces no control average; "
                              "the first-layer bound needs one")
    return antinorm_eval(prob.nu, prob.cone, target)


#: paths drawn and integrated together; bounds the memory of a large sample
_REACH_BATCH = 256


def _path_points(model: GroupModel, x0, controls: List[np.ndarray]) -> np.ndarray:
    """The points of unit-horizon controls of 1 to 8 segments, (n, 9,
    point_dim), each padded with its endpoint.  The controls that share a
    segment count go through one ``model.points`` pass, and validate_points
    meets the paths' points in the order listed."""
    counts = np.array([len(u) for u in controls])
    chains = np.empty((len(controls), 9, model.point_dim))
    for n_seg in np.unique(counts):
        rows = np.flatnonzero(counts == n_seg)
        pts = model.points(x0, np.stack([controls[i] for i in rows]), 1.0 / n_seg)
        chains[rows, :n_seg + 1] = pts
        chains[rows, n_seg + 1:] = pts[:, -1:]
    return model.validate_points(chains)


def reachability_sample(model: GroupModel, cone: Cone, x0, n_samples: int,
                        seed: int = 0, interior: bool = False) -> np.ndarray:
    """Endpoints of random admissible piecewise-constant controls from x0.

    Segment counts are uniform on 1..8 and magnitudes log-uniform;
    deterministic given the seed.  ``interior`` restricts the controls to the
    cone's relative interior (endpoints stay away from the causal boundary).
    Samples are drawn and integrated in batches.
    """
    rng = np.random.default_rng(seed)
    x0 = model.validate_point(x0)
    cloud = np.empty((n_samples, model.point_dim))
    for start in range(0, n_samples, _REACH_BATCH):
        controls = [cone.sample(int(rng.integers(1, 9)), rng, relative_interior=interior)
                    for _ in range(min(_REACH_BATCH, n_samples - start))]
        cloud[start:start + len(controls)] = _path_points(model, x0, controls)[:, -1]
    return cloud


# ---------------------------------------------------------------------------
# Desk-scale global-hyperbolicity diagnostics
# ---------------------------------------------------------------------------


@dataclass
class HyperbolicityReport:
    """Sampled evidence for the compact-diamond and no-closed-path conditions."""

    passed: bool
    n_paths: int
    radius: float
    potential_gap: float
    max_inband_arclength: float
    monotonicity_violations: int
    stalled_positive_length_paths: int
    radius_violations: int

    def summary(self) -> str:
        verdict = "consistent" if self.passed else "INCONSISTENT"
        return (f"hyperbolicity evidence {verdict} over {self.n_paths} paths: "
                f"radius {self.radius:.6g}, max in-band arc length "
                f"{self.max_inband_arclength:.6g}, "
                f"{self.monotonicity_violations} monotonicity violation(s)")


def check_hyperbolicity_desk(prob: ProblemInstance, form: TimeForm,
                             n_samples: int = 200, seed: int = 0
                             ) -> HyperbolicityReport:
    """Sample admissible paths from x0 and check the exact-form consequences:
    the potential increases strictly along positive-length paths, and paths
    inside the potential band of the endpoints stay within the arc-length
    radius (unit-slice sup norm) * (potential gap).

    Raises NotExactError when the form has no potential.
    """
    _positive_count(n_samples, "n_samples")
    t0 = potential(form, prob.x0)
    t1 = potential(form, prob.x1)
    gap = t1 - t0
    metric = prob.model.natural_metric()
    sup_u = section_sup_norm(prob.cone, form, metric, samples=2048, seed=seed)
    radius = sup_u * max(gap, 0.0)

    rng = np.random.default_rng(seed)
    # integrate's grid steps np.diff(np.linspace(0, 1, n + 1)), zero-padded
    widths = np.zeros((9, 8))
    for n in range(1, 9):
        widths[n, :n] = np.diff(np.linspace(0.0, 1.0, n + 1))
    ident = prob.model.identity()
    mono_bad = 0
    stalled = 0
    radius_bad = 0
    max_arc = 0.0
    for start in range(0, n_samples, _REACH_BATCH):
        # each path's segment count and controls in the order drawn, then
        # the batch's paths checked together
        controls = [prob.cone.sample(int(rng.integers(1, 9)), rng)
                    for _ in range(min(_REACH_BATCH, n_samples - start))]
        n_seg = np.array([len(u) for u in controls])
        pots = potential(form, _path_points(prob.model, prob.x0, controls))
        scale = 1.0 + np.abs(pots).max(axis=1)
        mono_bad += int(np.count_nonzero(
            np.any(np.diff(pots, axis=1) < -1e-9 * scale[:, None], axis=1)))
        # rates and speeds of the segments that exist, zero on the padding
        real = np.arange(8) < n_seg[:, None]
        U = np.concatenate(controls)
        rates = np.zeros(real.shape)
        rates[real] = antinorm_eval(prob.nu, prob.cone, U)
        length = np.cumsum((1.0 / n_seg)[:, None] * rates, axis=1)[:, -1]
        stalled += int(np.count_nonzero(
            (length > 1e-9) & (pots[:, -1] - pots[:, 0] <= 1e-12 * scale)))
        speeds = np.zeros(real.shape)
        speeds[real] = metric.norm(prob.model, ident, prob.model.embed_control(U))
        arcs = np.zeros(pots.shape)
        arcs[:, 1:] = np.cumsum(widths[n_seg] * speeds, axis=1)
        in_band = pots <= t1 + 1e-9 * scale[:, None]
        arc_in = np.where(in_band, arcs, -np.inf).max(axis=1)[in_band.any(axis=1)]
        if len(arc_in):
            max_arc = max(max_arc, float(arc_in.max()))
            radius_bad += int(np.count_nonzero(arc_in > radius * (1.0 + 1e-9) + 1e-12))
    return HyperbolicityReport(
        passed=(mono_bad == 0 and stalled == 0 and radius_bad == 0),
        n_paths=n_samples, radius=radius, potential_gap=gap,
        max_inband_arclength=max_arc, monotonicity_violations=mono_bad,
        stalled_positive_length_paths=stalled, radius_violations=radius_bad)
