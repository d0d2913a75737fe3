"""Longest-path optimization by direct transcription.

The length functional sum_k h nu(u_k) is maximized over cone-valued
piecewise-constant controls subject to the endpoint constraint, enforced by
an augmented Lagrangian on the group-log residual.  Inner updates are
projected (sub)gradient ascent with exact cone projection; restarts combine
the abelianized constant control with seeded random admissible controls.

Certificates come first (``_certified``).  On R^n and Carnot groups the
endpoints force the first-layer control average v, and by Jensen (nu is
superadditive and 1-homogeneous) nu(v) bounds every admissible length.  When
the constant control at v (projected onto the cone, as every iterate is)
meets the endpoint within tol it attains that bound, and the solve returns
it after one endpoint evaluation.  When it does not, and v is the apex or
spans an extreme ray of the cone, every control with that average is
parallel to v and ends at exp(v), so no admissible path exists; the
refusal waits for a residual beyond what the ray tolerance lets a reachable
endpoint miss by.  On the Heisenberg group with a planar cone the reachable
set is known in closed form (``CarnotGroup.admits_path``): an endpoint
outside it is refused before any evaluation, and one on its edge, or one
inside it where a min-of-linear antinorm is linear on a sector that reaches
it, is answered by a staircase or a three-piece path after one endpoint
evaluation (``_reachable_set_paths``).  The hyperbolic plane forces an
average, and so takes the constant control, when x0^-1 x1 - e spans an
extreme ray.  Elsewhere on it, with a Lorentz cone of form A (A_xx < 0)
and the antinorm sqrt(v^T k A v), the longest paths are normal extremals
(Pontryagin), known in closed form (``HyperbolicPlane.normal_extremals``):
a damped Newton iteration on the endpoint residual finds the two
parameters of the one through x0^-1 x1, and its chord control answers
once its residual is at rounding level and its length beats the constant
control's (``_extremal_answer``), after a few endpoint passes.  A solve
that no certificate decides runs as it would without them, bit for bit.

Each line search evaluates its step-halving trials in stacked chunks, and
the restarts run in lockstep (``_run_restarts``): in each round, the pending
chunks of every restart are stacked, and ``_trial_pass`` evaluates the stack
in one projection, one endpoint pass and one antinorm evaluation.  Two kinds
of trial go alone instead: one-segment trials, and the trials of a stack
that raised.  A trial that raises alone is rejected.  Each restart keeps its
own decisions, Jacobians (built from the accepted trial's pass), gradients
and evaluation counts, so every restart accepts the trials, reaches the
iterates and counts the evaluations that a search trying one step at a time
would, bit for bit.

A solve decides its fixed facts once: ``ProblemInstance`` forms x0^-1 x1
and the forced average, and ``_solve`` sets one floating-point policy.

The problem is non-convex on non-abelian groups; the solver certifies
feasibility and delivers bound-consistent local maximizers, not global
optimality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

import numpy as np

from .cones import (NEG_INF, RAY_TOL, Antinorm, Cone, _check_cone_dim,
                    _positive_count, _row_dots, _row_norms, antinorm_eval)
from .dynamics import ControlSignal, Trajectory, integrate
from .errors import NegativeAntinormError, WrongModelError
from .groups import GroupModel
from .groups import bch_log_product  # noqa: F401 (the bench tracer test asserts it)
from .timeform import TimeForm, _control_covector, potential, section_sup_norm


#: initial augmented-Lagrangian penalty weight
PENALTY0 = 10.0

#: how many line-search trials each stacked pass evaluates, in order, before
#: the last chunk takes the rest of the 40: most searches accept their first
#: trial, and a search that fails runs all 40
TRIAL_CHUNKS = (1, 2, 4, 8, 16)

#: the step factors of one line search, halving after each rejected trial
HALVINGS = 0.5 ** np.arange(40)

#: the extremal certificate's Newton iteration: at most NEWTON_STEPS steps,
#: each halved at most NEWTON_HALVINGS times until |rho| falls
NEWTON_STEPS = 30
NEWTON_HALVINGS = 30

#: the |rho| that the extremal certificate's iteration must reach, relative
#: to max(1, |log g|): rounding level, where Newton has converged
EXTREMAL_TOL = 1e-13


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
    """Fixed-endpoint longest-path problem on the unit time horizon.  By
    left invariance it is the problem from the identity to ``g`` = x0^-1 x1,
    which the solver solves.  ``average`` is the control average that the
    endpoints force on every admissible path (``GroupModel.forced_average``),
    or None when the model forces none."""

    model: GroupModel
    cone: Cone
    nu: Antinorm
    x0: np.ndarray
    x1: np.ndarray
    segments: int = 50
    g: np.ndarray = field(init=False, repr=False)
    average: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x0", self.model.validate_point(self.x0))
        object.__setattr__(self, "x1", self.model.validate_point(self.x1))
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.model.multiply(self.model.inverse(self.x0), self.x1)
        # non-finite, or off the hyperbolic plane by underflow
        if not self.model._inside(g[None])[0]:
            raise ValueError(f"x0^-1 x1 = {g.tolist()} leaves the float range")
        object.__setattr__(self, "g", g)
        if self.segments < 1:
            raise ValueError("need at least one segment")
        _check_cone_dim(self.cone, self.model)
        if not self.cone.is_pointed():
            raise ValueError("cone must be pointed")
        # the exact certificate checks the antinorm's dim and decides its
        # nonnegativity (``Antinorm.certify``)
        cert = self.nu.certify(self.cone)
        if not cert.passed and cert.counterexample["axiom"] == "nonnegativity":
            raise NegativeAntinormError(
                f"antinorm is negative on the cone: it is "
                f"{cert.counterexample['nu(xi)']:.6g} on the ray "
                f"{cert.counterexample['xi']}")
        object.__setattr__(self, "average", self.model.forced_average(self.g, self.cone))

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
    #: the counts describe the search, not how its trials were batched.  A
    #: certified answer counts its endpoint passes and Jacobians as made.
    endpoint_evaluations: int = 0
    jacobian_evaluations: int = 0

    def summary(self) -> str:
        return (f"{self.status.value}: objective {self.objective:.9g}, "
                f"residual {self.endpoint_residual:.3g}, "
                f"{self.iterations} outer iteration(s)")


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


def _polish_average(prob: ProblemInstance, u: np.ndarray, horizon: float
                    ) -> np.ndarray:
    """Shift all segments by a constant so the control average exactly matches
    the displacement the endpoints force (abelian and Carnot first layer).

    Keeps the superadditivity bound sharp in reports; reverted when the shift
    would push a segment out of the cone.
    """
    target = prob.average
    if target is None:
        return u
    h = horizon / u.shape[0]
    shift = (target - h * u.sum(axis=0)) / horizon
    # controls whose sum overflows are left as they are
    if not np.all(np.isfinite(shift)) or np.linalg.norm(shift) == 0.0:
        return u
    shifted = u + shift
    if np.all(prob.cone.contains(shifted, 1e-9)):
        return shifted
    return u


def _augmented_lagrangian_run(prob: ProblemInstance, u0: np.ndarray, horizon: float,
                              opts: SolveOptions, project,
                              gradient_projector: Optional[np.ndarray] = None):
    """One restart, as a generator that returns its _RunResult.  It yields
    each chunk of line-search trials as a request (u, grad, steps) and is
    sent the chunk's evaluation (``_trial_pass``).  One-segment trials and
    the trials of a stack that raised are evaluated alone, and a trial that
    raises alone comes back with a NaN residual, so it is rejected."""
    model, cone, nu, g = prob.model, prob.cone, prob.nu, prob.g
    h = horizon / u0.shape[0]
    axis = cone.interior_direction()

    try:
        u = project(u0.copy())
    except (ValueError, FloatingPointError):
        # a random start that overflowed: the restart fails, as a raising
        # trial is rejected
        return _RunResult(u=u0, objective=NEG_INF, residual=np.inf, outer_iters=0,
                          history=[], endpoint_evaluations=0, jacobian_evaluations=0)
    lam = None
    mu = PENALTY0
    prev_res = np.inf
    history: List[float] = []
    alpha = 1.0

    counts = {"endpoint": 0, "jacobian": 0}
    ends = np.cumsum(TRIAL_CHUNKS).tolist()
    chunks = list(zip([0] + ends, ends + [len(HALVINGS)]))

    def residual(uu):
        counts["endpoint"] += 1
        return model.endpoint_residual(g, uu, horizon)[0]

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
            J = model.endpoint_jacobian(g, uu, horizon, chain)
        except (ValueError, FloatingPointError):
            return None
        return J if np.all(np.isfinite(J)) else None

    def full_phi(uu):
        # one endpoint and one Jacobian evaluation, counted even when the
        # pass raises
        try:
            rho, _, chain = model.endpoint_pass(g, uu, horizon)
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
        ref, as (trial, phi, rho, J), or None.  The trials are requested
        together, and the accepted one's Jacobian is built from its pass."""
        trials, rho, chain, values = yield u, grad, steps
        phi = h * values.sum(axis=-1) - penalties(rho)
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
                found = yield from scan(u, grad, steps[lo:hi], ref)
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
            polished = _polish_average(prob, u, horizon)
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

    u = _polish_average(prob, u, horizon)
    rho = residual(u)
    return _RunResult(u=u, objective=_objective(nu, u, h),
                      residual=float(np.linalg.norm(rho)),
                      outer_iters=outer, history=history,
                      endpoint_evaluations=counts["endpoint"],
                      jacobian_evaluations=counts["jacobian"])


def _evaluated(prob: ProblemInstance, horizon: float, project, stack: np.ndarray):
    """(trials, rho, chain, nu values) of the trials project(stack), stack
    (k, segments, m), in one projection, one endpoint pass and one antinorm
    evaluation; None when that raises."""
    try:
        trials = project(stack.reshape(-1, stack.shape[-1])).reshape(stack.shape)
        rho, _, chain = prob.model.endpoint_pass(prob.g, trials, horizon)
        return trials, rho, chain, prob.nu.values_on_cone(trials)
    except (ValueError, FloatingPointError):
        return None


def _trial_pass(prob: ProblemInstance, horizon: float, project, requests):
    """The trials project(u + step * grad) of every request (u, grad, steps),
    stacked: per request, its slice (trials, rho, chain, nu values) of the
    stack.  The stack is evaluated at once (``_evaluated``), except in two
    cases, where each trial goes alone: one-segment trials, because a stack
    of them projects by a matrix-matrix product where a lone one projects by
    a matrix-vector product, which may round differently; and the trials of
    a stack that raised.  A trial that raises alone gets a NaN residual, so
    the line search rejects it.  Stacked rows are evaluated independently of
    each other, so every trial gets the bits it gets alone.  A lone request,
    as every round of a one-restart solve is, skips the concatenation and
    the slicing."""
    stacks = [u + steps[:, None, None] * grad for u, grad, steps in requests]
    stack = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    whole = _evaluated(prob, horizon, project, stack) if prob.segments > 1 else None
    if whole is None:
        parts = [_evaluated(prob, horizon, project, trial[None]) or
                 (trial[None], np.full((1, prob.model.point_dim), np.nan), [None],
                  np.full((1, prob.segments), np.nan))
                 for trial in stack]
        trials, rho, chain, values = zip(*parts)
        whole = (np.concatenate(trials), np.concatenate(rho),
                 [c for cs in chain for c in cs], np.concatenate(values))
    if len(requests) == 1:
        return [whole]
    trials, rho, chain, values = whole
    ends = np.cumsum([len(steps) for _, _, steps in requests]).tolist()
    return [(trials[lo:hi], rho[lo:hi], chain[lo:hi], values[lo:hi])
            for lo, hi in zip([0] + ends, ends)]


def _run_restarts(prob: ProblemInstance, starts: List[np.ndarray], horizon: float,
                  opts: SolveOptions, tau_c: Optional[np.ndarray] = None
                  ) -> List[_RunResult]:
    """One augmented-Lagrangian run per start, advanced in lockstep: each
    round answers the pending request of every live run with one
    ``_trial_pass``, which stacks them all.  One-segment trials and the
    trials of a stack that raised go alone, and a trial that raises alone
    is rejected, so each run gets the bits it would get alone.  With tau_c,
    the runs keep to the unit-tau slice: they retract onto it and ascend in
    its tangent space."""
    project, projector = prob.cone.project_batch, None
    if tau_c is not None:
        def project(U):
            return _unit_tau_retract(prob.cone, tau_c, U)
        projector = np.eye(prob.control_dim) - np.outer(tau_c, tau_c) / (tau_c @ tau_c)
    runs = [_augmented_lagrangian_run(prob, u0, horizon, opts, project, projector)
            for u0 in starts]
    results: List[Optional[_RunResult]] = [None] * len(runs)
    pending = {}

    def advance(i, reply):
        try:
            pending[i] = runs[i].send(reply)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        order, requests = list(pending), list(pending.values())
        pending.clear()
        for i, reply in zip(order, _trial_pass(prob, horizon, project, requests)):
            advance(i, reply)
    return results


def _starting_controls(prob: ProblemInstance, horizon: float,
                       opts: SolveOptions,
                       tau_c: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """Abelianized constant control first, then seeded random admissible
    ones, retracted onto the unit-tau slice when tau_c is given."""
    rng = np.random.default_rng(opts.seed)
    n_seg, m = prob.segments, prob.control_dim
    starts: List[np.ndarray] = []
    target = prob.model.log(prob.g) if prob.average is None else prob.average
    base = np.tile(target / horizon, (n_seg, 1))
    starts.append(base)
    size = np.linalg.norm(target)
    if size == np.inf:
        size = _row_norms(target)
    while len(starts) < max(1, opts.restarts):
        jitter = prob.cone.sample(n_seg, rng)
        mix = rng.uniform(0.2, 0.8)
        # a start that overflows fails its run (``_augmented_lagrangian_run``)
        cand = mix * base + (1 - mix) * jitter * (
            size / max(np.linalg.norm(jitter, axis=1).mean(), 1e-9))
        starts.append(cand)
    if tau_c is not None:
        for i, s in enumerate(starts):
            try:
                starts[i] = _unit_tau_retract(prob.cone, tau_c, s)
            except ValueError:   # kept as drawn: its run fails on the same retraction
                pass
    return starts


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
    try:
        traj = integrate(prob.model, prob.x0, control, horizon=horizon,
                         nu=prob.nu, cone=prob.cone)
    except ValueError:   # points that leave the float range, or the domain by underflow
        traj = None
    status = SolveStatus.SOLVED if feasible else SolveStatus.MAX_ITERATIONS
    return SolveReport(status=status, objective=best.objective, control=control,
                       trajectory=traj, endpoint_residual=best.residual,
                       iterations=best.outer_iters, history=best.history,
                       endpoint_evaluations=sum(r.endpoint_evaluations for r in runs),
                       jacobian_evaluations=sum(r.jacobian_evaluations for r in runs))


def _no_admissible_path(endpoint_evaluations: int = 0) -> SolveReport:
    return SolveReport(status=SolveStatus.NO_ADMISSIBLE_PATH, objective=NEG_INF,
                       control=None, trajectory=None,
                       endpoint_residual=np.inf, iterations=0,
                       endpoint_evaluations=endpoint_evaluations)


def _certified(prob: ProblemInstance, horizon: float, opts: SolveOptions,
               tau_c: Optional[np.ndarray] = None) -> Optional[SolveReport]:
    """The answer of the certificates, or None when none decides the
    problem.  The first need the control average v that the endpoints
    force, which the hyperbolic plane has only when x0^-1 x1 - e spans an
    extreme ray of the cone.

    The constant control at w, v projected onto the cone as every iterate
    is (w / horizon, or w / tau(w) on the unit-tau slice when tau_c is
    given), attains the Jensen bound nu(w): when its one residual is within
    tol, it is the answer.  Otherwise, when v is the apex or spans an
    extreme ray and the residual exceeds tol by more than ``_ray_slack``,
    no admissible path exists: every control with that average is parallel
    to v, and so ends at exp(v).  Otherwise, without tau_c, on the
    Heisenberg group with a cone of two edge rays, the paths of
    ``_reachable_set_paths`` come next, each answering when its one
    residual is within tol; and last the model's normal extremal through
    x0^-1 x1 (``_extremal_answer``).  A check that decides nothing, or
    whose endpoint pass raises, leaves no trace in the solve's report."""
    v = prob.average
    if v is not None:
        # admits_path lets v leave the cone by 1e-9 relative; its control may not
        w = prob.cone.project_batch(v[None])[0]
        u = np.tile(w / (horizon if tau_c is None else tau_c @ w), (prob.segments, 1))
        res = _residual_norm(prob, u, horizon)
        if res is None:
            return None
        if res <= opts.tol:
            return _answer(prob, u, res, float(antinorm_eval(prob.nu, prob.cone, w)),
                           horizon, opts)
        if (not np.any(v) or prob.cone.on_extreme_ray(v)) and \
                res > opts.tol + _ray_slack(prob.model, v):
            return _no_admissible_path(endpoint_evaluations=1)
    if tau_c is not None:
        return None
    for u in _reachable_set_paths(prob, horizon):
        res = _residual_norm(prob, u, horizon)
        if res is not None and res <= opts.tol:
            h = horizon / prob.segments
            return _answer(prob, u, res, _objective(prob.nu, u, h), horizon, opts)
    return _extremal_answer(prob, horizon, opts)


def _extremal_answer(prob: ProblemInstance, horizon: float, opts: SolveOptions
                     ) -> Optional[SolveReport]:
    """The chord control of the model's normal extremal that ends at g =
    x0^-1 x1 (``GroupModel.normal_extremals``), or None.  A damped Newton
    iteration solves rho(theta) = 0 for the family's p parameters (2 on the
    hyperbolic plane), with the p x p Jacobian of the endpoint Jacobian
    chained with d u / d theta, and halves each step until |rho| falls.
    The control answers, SOLVED at iteration 0 with every endpoint pass and
    Jacobian of the iteration counted, when |rho| reaches ``EXTREMAL_TOL``
    and tol, every segment lies in the cone, and its length is at least
    nu(log g) wherever the constant control at log g is admissible: a
    normal extremal of the other sign ends at g too, shorter."""
    family = prob.model.normal_extremals(prob.cone, prob.nu, prob.g, horizon,
                                         prob.segments)
    if family is None:
        return None
    model, g = prob.model, prob.g
    counts = {"endpoint": 0, "jacobian": 0}

    def at(theta):
        # (theta, u, du / dtheta, |rho|, rho, chain), or None off the
        # family's domain or where the pass fails
        controls = family.controls(theta)
        if controls is None:
            return None
        counts["endpoint"] += 1
        try:
            rho, _, chain = model.endpoint_pass(g, controls[0], horizon)
        except (ValueError, FloatingPointError):
            return None
        res = float(np.linalg.norm(rho))
        return (theta, *controls, res, rho, chain) if np.isfinite(res) else None

    log_g = model.log(g)
    target = min(EXTREMAL_TOL * max(1.0, float(np.linalg.norm(log_g))), opts.tol)
    point = at(family.start)
    for _ in range(NEWTON_STEPS):
        if point is None or point[3] <= target:
            break
        theta, u, du, res, rho, chain = point
        counts["jacobian"] += 1
        try:
            J = np.einsum("kab,kbp->ap", model.endpoint_jacobian(g, u, horizon, chain), du)
            step = np.linalg.solve(J, -rho)
        except (ValueError, FloatingPointError):   # LinAlgError among them
            return None
        for t in HALVINGS[:NEWTON_HALVINGS]:
            trial = at(theta + t * step)
            if trial is not None and trial[3] < res:
                point = trial
                break
        else:
            return None
    if point is None or not point[3] <= target:
        return None
    _, u, _, res, _, _ = point
    objective = _objective(prob.nu, u, horizon / prob.segments)
    # -inf where log g leaves the cone
    bound = float(antinorm_eval(prob.nu, prob.cone, log_g))
    if not (np.all(prob.cone.contains(u, 0.0)) and objective >= bound * (1.0 - 1e-12)):
        return None
    return _answer(prob, u, res, objective, horizon, opts, counts["endpoint"],
                   counts["jacobian"])


def _residual_norm(prob: ProblemInstance, u: np.ndarray, horizon: float
                   ) -> Optional[float]:
    """|rho| of the control u, one endpoint evaluation; None when the pass
    raises."""
    try:
        rho = prob.model.endpoint_residual(prob.g, u, horizon)[0]
    except (ValueError, FloatingPointError):
        return None
    return float(np.linalg.norm(rho))


def _answer(prob: ProblemInstance, u: np.ndarray, res: float, objective: float,
            horizon: float, opts: SolveOptions, endpoint_evaluations: int = 1,
            jacobian_evaluations: int = 0) -> SolveReport:
    """The report of a certified control, by default after its one endpoint
    evaluation."""
    run = _RunResult(u=u, objective=objective, residual=res, outer_iters=0,
                     history=[], endpoint_evaluations=endpoint_evaluations,
                     jacobian_evaluations=jacobian_evaluations)
    return _report_from_runs(prob, [run], horizon, opts)


def _reachable_set_paths(prob: ProblemInstance, horizon: float) -> List[np.ndarray]:
    """Controls that answer a Heisenberg problem inside its reachable set
    (``CarnotGroup.staircase``) for a min-of-linear antinorm, or on its
    edge, when their residual is within tol.

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
    stairs = prob.model.staircase(prob.cone, prob.x0, prob.x1)
    if stairs is None:
        return []
    d, ab, z, half, slack = stairs
    if not np.isfinite(half + slack):   # areas beyond the float range
        return []
    edges, paths = prob.cone.edge_rays, []
    family = getattr(prob.nu, "family", None)
    sector = None if family is None else _linear_sector(family, edges, d)
    if sector is not None:
        paths.append(_three_piece(sector, np.maximum(np.linalg.solve(sector.T, d), 0.0),
                                  z, prob.segments, horizon))
    if abs(z) >= half - slack:
        paths.append(_three_piece(edges, np.maximum(ab, 0.0), z, prob.segments,
                                  horizon, staircase=True))
    return [u for u in paths if u is not None]


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


def _ray_slack(model: GroupModel, v: np.ndarray) -> float:
    """How far a reachable endpoint may lie from exp(v) when v is only
    within RAY_TOL of an extreme ray, plus the constant control's rounding.
    Controls with such an average spread by about RAY_TOL |v| across the
    ray, and bracket that spread into layer s by about c^(s-1) |v|^s
    RAY_TOL (c the largest structure constant, s up to the step, which is
    at most point_dim - control_dim + 1).  The pass rounds each layer by
    about segments * eps of its size, below that under 4,000 segments.  A
    factor 8 covers the constants."""
    c = float(np.max(np.abs(model.structure_constants)))
    r = float(np.linalg.norm(v))
    steps = np.arange(model.point_dim - model.control_dim + 1)
    return float(8.0 * RAY_TOL * r * np.sum((c * r) ** steps))


def solve_longest(prob: ProblemInstance, opts: Optional[SolveOptions] = None
                  ) -> SolveReport:
    """Maximize the sub-Lorentzian length between the fixed endpoints.

    Returns NO_ADMISSIBLE_PATH with objective -inf when the model's
    certificate (GroupModel.admits_path: on the Heisenberg group with a
    planar cone, an area beyond the staircases') or the extreme-ray
    certificate rules every admissible path out; after one endpoint
    evaluation, the constant control when it attains the first-layer bound,
    and on the Heisenberg group the staircase on the reachable set's edge or
    the three-piece path that attains a min-of-linear antinorm's Jensen
    bound; on the hyperbolic plane with a Lorentz cone and its own
    LorentzSqrt form, the chord control of the normal extremal through
    x0^-1 x1, found by a Newton iteration of a few endpoint passes
    (``_certified``); each of these at iteration 0.  Otherwise the restarts
    iterate, and it returns MAX_ITERATIONS when none reaches the endpoint
    tolerance.
    """
    return _solve(prob, 1.0, opts or SolveOptions())


def solve_longest_reparametrized(prob: ProblemInstance, form: TimeForm,
                                 opts: Optional[SolveOptions] = None
                                 ) -> SolveReport:
    """Solve the fixed-horizon unit-tau-speed formulation of the same problem.

    The horizon s1 = T(x1) - T(x0) = T(x0^-1 x1) is forced by the
    potential of the exact left-invariant form; controls are retracted onto
    the unit-time slice of the cone.
    Objectives agree with solve_longest up to discretization.  The same
    refusals come first, and the constant control v / tau(v).  The
    Heisenberg staircase and three-piece answers do not: equal unit-tau
    segments cannot in general switch rays where those paths do, so such
    problems iterate.
    """
    s1 = potential(form, prob.g)
    if s1 <= 1e-12:
        # only x0^-1 x1 = e is reached in zero time
        if np.allclose(prob.g, prob.model.identity(), rtol=0.0, atol=1e-12):
            return SolveReport(status=SolveStatus.SOLVED, objective=0.0, control=None,
                               trajectory=None, endpoint_residual=0.0, iterations=0)
        return _no_admissible_path()
    # tau in control coordinates; ascent happens in its kernel
    return _solve(prob, s1, opts or SolveOptions(), _control_covector(prob.model, form))


def _solve(prob: ProblemInstance, horizon: float, opts: SolveOptions,
           tau_c: Optional[np.ndarray] = None) -> SolveReport:
    """The model's refusal, the certificates, then the restarts, on the
    horizon given; with tau_c, on the unit-tau slice.  numpy's overflow,
    invalid and divide warnings are noise here: every non-finite value is
    handled where it arises (``isfinite``, a caught error, a NaN trial)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not prob.model.admits_path(prob.cone, prob.x0, prob.x1, prob.g):
            return _no_admissible_path()
        certified = _certified(prob, horizon, opts, tau_c)
        if certified is not None:
            return certified
        runs = _run_restarts(prob, _starting_controls(prob, horizon, opts, tau_c),
                             horizon, opts, tau_c)
        return _report_from_runs(prob, runs, horizon, opts)


# ---------------------------------------------------------------------------
# Oracles and bounds
# ---------------------------------------------------------------------------


def abelianized_upper_bound(prob: ProblemInstance) -> float:
    """nu of the control average the endpoints force: by Jensen (nu is
    superadditive and 1-homogeneous) an upper bound on every admissible
    path's length, -inf when the average leaves the cone (no admissible path
    at all).  On R^n the straight segment attains it, so it is exact there.

    Raises WrongModelError on a model whose endpoints force no average: the
    hyperbolic plane, unless x0^-1 x1 - e spans an extreme ray of the cone.
    """
    target = prob.average
    if target is None:
        raise WrongModelError(f"{prob.model!r} forces no control average; "
                              "the first-layer bound needs one")
    return antinorm_eval(prob.nu, prob.cone, target)


#: paths drawn and integrated together; bounds the memory of a large sample
_REACH_BATCH = 256


def _path_points(model: GroupModel, x0, counts: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The points of unit-horizon controls of 1 to 8 segments, (n, 9,
    point_dim), each padded with its endpoint; path i has counts[i] segments,
    stacked in U after those of the paths before it (``Cone.sample_paths``).
    The controls that share a segment count go through one ``model.points``
    pass, and validate_points meets the paths' points in the order listed."""
    chains = np.empty((len(counts), 9, model.point_dim))
    first = np.cumsum(counts) - counts
    for n_seg in np.unique(counts):
        rows = np.flatnonzero(counts == n_seg)
        pts = model.points(x0, U[first[rows, None] + np.arange(n_seg)], 1.0 / n_seg)
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
        counts, U = cone.sample_paths(min(_REACH_BATCH, n_samples - start), rng,
                                      relative_interior=interior)
        cloud[start:start + len(counts)] = _path_points(model, x0, counts, U)[:, -1]
    return cloud


# ---------------------------------------------------------------------------
# Desk-scale global-hyperbolicity diagnostics
# ---------------------------------------------------------------------------


@dataclass
class HyperbolicityReport:
    """Sampled evidence for the compact-diamond and no-closed-path conditions.
    Arc lengths are in the invariant metric that is Euclidean at the
    identity: a segment adds its duration times its control's norm."""

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
        text = (f"hyperbolicity evidence {verdict} over {self.n_paths} paths: "
                f"radius {self.radius:.6g}, max in-band arc length "
                f"{self.max_inband_arclength:.6g}, "
                f"{self.monotonicity_violations} monotonicity violation(s)")
        if self.stalled_positive_length_paths:
            text += f", {self.stalled_positive_length_paths} stalled positive-length path(s)"
        if self.radius_violations:
            text += f", {self.radius_violations} radius violation(s)"
        return text


def _desk_paths(prob: ProblemInstance, form: TimeForm, n_samples: int, seed: int):
    """The desk check's sampled paths from x0, a batch at a time: for each
    path, the potentials and arc lengths at its points, padded with its
    endpoint as ``_path_points`` pads them (n, 9), and its length (n,)."""
    rng = np.random.default_rng(seed)
    # integrate's grid steps np.diff(np.linspace(0, 1, n + 1)), zero-padded
    widths = np.zeros((9, 8))
    for n in range(1, 9):
        widths[n, :n] = np.diff(np.linspace(0.0, 1.0, n + 1))
    for start in range(0, n_samples, _REACH_BATCH):
        # each path's segment count and controls in the order drawn, then
        # the batch's paths integrated together
        n_seg, U = prob.cone.sample_paths(min(_REACH_BATCH, n_samples - start), rng)
        pots = potential(form, _path_points(prob.model, prob.x0, n_seg, U))
        # rates and speeds of the segments that exist, zero on the padding
        real = np.arange(8) < n_seg[:, None]
        rates = np.zeros(real.shape)
        rates[real] = antinorm_eval(prob.nu, prob.cone, U)
        length = np.cumsum((1.0 / n_seg)[:, None] * rates, axis=1)[:, -1]
        speeds = np.zeros(real.shape)
        speeds[real] = np.linalg.norm(U, axis=1)
        arcs = np.zeros(pots.shape)
        arcs[:, 1:] = np.cumsum(widths[n_seg] * speeds, axis=1)
        yield pots, arcs, length


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
    radius = section_sup_norm(prob.cone, form) * max(gap, 0.0)

    mono_bad = 0
    stalled = 0
    radius_bad = 0
    max_arc = 0.0
    for pots, arcs, length in _desk_paths(prob, form, n_samples, seed):
        scale = 1.0 + np.abs(pots).max(axis=1)
        mono_bad += int(np.count_nonzero(
            np.any(np.diff(pots, axis=1) < -1e-9 * scale[:, None], axis=1)))
        stalled += int(np.count_nonzero(
            (length > 1e-9) & (pots[:, -1] - pots[:, 0] <= 1e-12 * scale)))
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
