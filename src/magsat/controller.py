"""Receding-horizon nonlinear MPC for the magnetorquer dipole command.

At each sampling instant the controller predicts the attitude state over p
zero-order-hold intervals of length Ts, scores the quadratic tracking cost

    J = sum_{k=1..p} (x_k - x_ref)' Q (x_k - x_ref) * Ts
      + sum_{k=0..p-1} u_k' R u_k * Ts

(a left-Riemann discretization of the continuous cost, with the plain
componentwise quaternion difference - no double-cover correction), and
minimizes it over the dipole sequence subject to the per-axis box
|m_i| <= u_max.

The cost is a sum of squares and is defined once, as J = r'r of the
residual

    r = [sqrt(Ts Q) (x_k - x_ref) for k=1..p ; sqrt(Ts R) u_k for k=0..p-1];

the solver and `total_cost` both evaluate it that way. The optimizer is
box-constrained Gauss-Newton with Levenberg-Marquardt damping. The residual
Jacobian comes from forward sensitivities: `dynamics.sensitivity` turns a
rollout's tape into the state Jacobian dx/du, whose rows the state weights
scale. The gradient is 2 J'r and the Gauss-Newton Hessian 2 J'J. Each step
minimizes the damped quadratic model exactly over the box with a primal
active-set method, and is accepted by an Armijo test on the true cost. Each
solve starts from the cheaper of the all-zero sequence and the warm start,
so the returned sequence is never worse than either of them.

A solve stops for one of four reasons. "converged" and "settled" are
Levenberg-Marquardt termination tests (J. J. More, LNM 630, 1978), both in
cost units, so they hold at any scale of the weights: the first-order test
u_max * |g_P| < 1e-8 * (1 + |J|), with g_P the gradient less the components
the box holds, and the relative-reduction test, an accepted step whose
actual and predicted decreases are both at most 1e-10 * J. "iteration_cap"
and "no_step" (no damped step passes the Armijo test) flag the result
degraded.

Each evaluation is one rollout, as one zero-order-hold sequence through the
plant's integrator `dynamics.integrate`, and it keeps its tape (the recorded
RK4 stages) and its residual. The Jacobian at an accepted point - the
winning start or an accepted trial - is built from that point's own tape, so
no accepted point is rolled out twice. A rejected trial that more damping
leaves on the same box corner is evaluated again.

Everything here is deterministic: identical inputs produce identical
outputs, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import AttitudeState, DipoleCommand, InertiaTensor, integrate, sensitivity
from .orbit import FieldSample

# Prediction substeps per sampling interval. The plant integrates at the
# scenario's `substeps` (default 20). Measured against a 20-substep
# prediction along the benchmark trajectories, the 5-substep horizon cost
# differs by at most 2.0e-10 relative on detumble (Ts 2 s) and 1.1e-6 on the
# attitude slew (Ts 30 s), at a quarter of the per-solve work.
PREDICTION_SUBSTEPS = 5
MAX_ITERATIONS = 50
CONVERGENCE_RTOL = 1e-8
# relative-reduction stopping test: an accepted step that lowered the cost,
# and that the undamped model predicted to lower it, by at most FTOL * J
FTOL = 1e-10
ARMIJO_C1 = 1e-4
# Levenberg-Marquardt damping: the step's model Hessian is H + lam * diag(H).
# Every solve starts lam here; it then follows Nielsen's update.
_DAMPING0 = 1e-3


@dataclass(frozen=True)
class MpcConfig:
    """Weights, horizon and bound of one MPC problem.

    q_diag: 7 nonnegative state weights (quaternion then angular velocity),
    r_diag: 3 positive control weights, horizon: prediction steps, ts:
    sampling time in s, u_max: per-axis dipole bound in A*m^2, x_ref:
    reference state with a unit quaternion.
    """

    q_diag: np.ndarray
    r_diag: np.ndarray
    horizon: int
    ts: float
    u_max: float
    x_ref: AttitudeState

    def __post_init__(self):
        q = np.asarray(self.q_diag, dtype=float)
        r = np.asarray(self.r_diag, dtype=float)
        if q.shape != (7,):
            raise ValueError(f"q_diag must have shape (7,), got {q.shape}")
        if r.shape != (3,):
            raise ValueError(f"r_diag must have shape (3,), got {r.shape}")
        if not np.all(np.isfinite(q)) or np.any(q < 0.0):
            raise ValueError("q_diag entries must be finite and >= 0")
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            raise ValueError("r_diag entries must be finite and > 0")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon}")
        if not (math.isfinite(self.ts) and self.ts > 0.0):
            raise ValueError(f"sampling time must be positive, got {self.ts}")
        if not (math.isfinite(self.u_max) and self.u_max > 0.0):
            raise ValueError(f"u_max must be positive, got {self.u_max}")
        norm = float(np.linalg.norm(self.x_ref.q))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"reference quaternion norm {norm} is not unit within 1e-9")
        object.__setattr__(self, "q_diag", q)
        object.__setattr__(self, "r_diag", r)
        object.__setattr__(self, "horizon", int(self.horizon))


@dataclass(frozen=True)
class ControlSequence:
    """A dipole command per horizon step, shape (p, 3), zero-order hold."""

    dipoles: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dipoles, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3 or d.shape[0] < 1:
            raise ValueError(f"control sequence must have shape (p, 3), got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("control sequence has non-finite entries")
        object.__setattr__(self, "dipoles", d)

    def __len__(self) -> int:
        return self.dipoles.shape[0]


@dataclass(frozen=True)
class PredictedTrajectory:
    """p+1 predicted states (index 0 is the current state) and their times."""

    states: tuple[AttitudeState, ...]
    times: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one receding-horizon solve.

    `stop_reason` is one of four values: "converged" (the first-order test
    held), "settled" (the relative-reduction test held), "iteration_cap"
    (MAX_ITERATIONS accepted steps) or "no_step" (no damped step passed the
    Armijo test before the step stopped moving u or the damping overflowed,
    as when the box pins every direction). `degraded` is true for the last
    two: the solve stopped without passing either termination test. The
    result is still the last accepted point and still satisfies the
    zero/warm-start dominance contract.
    """

    command: DipoleCommand
    sequence: ControlSequence
    cost: float
    stop_reason: str
    iterations: int
    zero_cost: float
    warm_cost: Optional[float]

    @property
    def degraded(self) -> bool:
        return self.stop_reason not in ("converged", "settled")


def shift_warm_start(seq: ControlSequence) -> ControlSequence:
    """Shift a solution one step, repeating the last entry (closed-loop warm start)."""
    d = seq.dipoles
    return ControlSequence(np.vstack([d[1:], d[-1:]]))


def _residual(ends, u: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """Residual r of the horizon cost J = r'r, shape (10p,).

    `ends` holds the interval-end states x_1..x_p and u the controls
    u_0..u_{p-1}, shape (p, 3) or flat. The solver and `total_cost` both
    build the cost here, so they agree bit for bit.
    """
    q_rows = (np.asarray(ends) - cfg.x_ref.as_array()) * np.sqrt(cfg.ts * cfg.q_diag)
    r_rows = np.reshape(u, (-1, 3)) * np.sqrt(cfg.ts * cfg.r_diag)
    return np.concatenate([q_rows.reshape(-1), r_rows.reshape(-1)])


class _Problem:
    """One horizon problem bound once: start state, field schedule, inertia, weights.

    `evaluate` rolls a control sequence out once and returns its cost with a
    record of the rollout and its residual; `linearize` builds the residual's
    Jacobian from such a record, so the derivatives at an evaluated point
    need no second rollout.
    """

    def __init__(
        self,
        x0: AttitudeState,
        t0: float,
        field_at: Callable[[float], FieldSample],
        cfg: MpcConfig,
        inertia: InertiaTensor,
        substeps: int,
    ):
        self.x0 = x0.as_array()
        self.t0 = t0
        self.cfg = cfg
        # orbital-frame field at the p interval start times (zero-order hold)
        self.b = np.array([field_at(t0 + k * cfg.ts).b for k in range(cfg.horizon)])
        self.inertia = inertia.as_tuple()
        self.substeps = substeps
        # row scales of the residual's Jacobian, as `_residual` applies them
        self.q_scale = np.sqrt(cfg.ts * cfg.q_diag)
        self.r_jac = np.diag(np.tile(np.sqrt(cfg.ts * cfg.r_diag), cfg.horizon))

    def rollout(self, u: np.ndarray):
        """`dynamics.integrate` over the horizon, control u_k held over interval k.

        u has shape (p, 3) or (3p,). Returns the p+1 interval-end states
        (index 0 is the start state) and the tape.
        """
        return integrate(
            self.x0, np.reshape(u, (-1, 3)), self.b, self.inertia, self.cfg.ts, self.substeps,
            self.t0,
        )

    def evaluate(self, u: np.ndarray):
        """Cost r'r of a control sequence and the record `(u, tape, r)` of its rollout."""
        states, tape = self.rollout(u)
        r = _residual(states[1:], u, self.cfg)
        return float(r @ r), (u, tape, r)

    def linearize(self, record):
        """Residual r (J = r'r) of an evaluated point, from its record, and its Jacobian dr/du."""
        u, tape, r = record
        sens = sensitivity(tape, np.reshape(u, (-1, 3)), self.b, self.inertia, self.cfg.ts)
        n = self.r_jac.shape[0]
        q_rows = (sens.reshape(-1, 7, n) * self.q_scale[:, None]).reshape(-1, n)
        return r, np.vstack([q_rows, self.r_jac])


def predict(
    x0: AttitudeState,
    seq: ControlSequence,
    field_at: Callable[[float], FieldSample],
    t0: float,
    cfg: MpcConfig,
    inertia: InertiaTensor,
    substeps: int = PREDICTION_SUBSTEPS,
) -> PredictedTrajectory:
    """Predicted trajectory under a control sequence (zero-order hold per step).

    The horizon is one p-interval `dynamics.integrate` call, the plant's own
    integrator, with the orbital-frame field held from each interval's start.
    A blow-up raises the plant's divergence error, carrying the end time of
    the substep whose state went non-finite.
    """
    if len(seq) != cfg.horizon:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {cfg.horizon}")
    states, _ = _Problem(x0, t0, field_at, cfg, inertia, substeps).rollout(seq.dipoles)
    out = tuple(AttitudeState(q=s[0:4], omega=s[4:7]) for s in states)
    times = np.array([t0 + k * cfg.ts for k in range(cfg.horizon + 1)])
    return PredictedTrajectory(states=out, times=times)


def total_cost(traj: PredictedTrajectory, seq: ControlSequence, cfg: MpcConfig) -> float:
    """Discrete tracking cost r'r of a predicted trajectory and its control sequence.

    Built from the same residual as the solver's cost, so the two are bitwise
    comparable.
    """
    p = cfg.horizon
    if len(seq) != p:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {p}")
    if len(traj.states) != p + 1:
        raise ValueError(f"trajectory has {len(traj.states)} states, expected {p + 1}")
    r = _residual([s.as_array() for s in traj.states[1:]], seq.dipoles, cfg)
    return float(r @ r)


def gradient(
    x0: AttitudeState,
    seq: ControlSequence,
    t0: float,
    field_at: Callable[[float], FieldSample],
    cfg: MpcConfig,
    inertia: InertiaTensor,
    substeps: int = PREDICTION_SUBSTEPS,
) -> np.ndarray:
    """Exact gradient 2 J'r of the cost w.r.t. the 3p control components, shape (p, 3)."""
    if len(seq) != cfg.horizon:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {cfg.horizon}")
    prob = _Problem(x0, t0, field_at, cfg, inertia, substeps)
    r, jac = prob.linearize(prob.evaluate(seq.dipoles)[1])
    return (2.0 * (jac.T @ r)).reshape(cfg.horizon, 3)


def _converged(u: np.ndarray, grad: np.ndarray, cost: float, u_max: float) -> bool:
    """First-order test u_max * |g_P| < CONVERGENCE_RTOL * (1 + |J|), both sides in cost units.

    g_P is the gradient with the components zeroed where u sits on a bound
    and the gradient pushes it outward.
    """
    held = ((u >= u_max) & (grad < 0.0)) | ((u <= -u_max) & (grad > 0.0))
    g_p = np.where(held, 0.0, grad)
    return u_max * float(np.linalg.norm(g_p)) < CONVERGENCE_RTOL * (1.0 + abs(cost))


def _box_qp(g: np.ndarray, hess: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Minimize g'd + d'Hd/2 over lo <= d <= hi exactly (H positive definite, lo <= 0 <= hi).

    Primal active-set method from d = 0, holding the components that already
    sit on the bound the gradient pushes them against: minimize over the
    free components with the others held at their bounds; if a bound blocks
    the way, step to it and hold it; otherwise release the held bound whose
    multiplier has the wrong sign by the most, or stop when none has.
    Returns d and the side each component is held at (+1 upper, -1 lower,
    0 free).
    """
    d = np.zeros(g.size)
    side = np.where((hi == 0.0) & (g < 0.0), 1, 0) - np.where((lo == 0.0) & (g > 0.0), 1, 0)
    # finite in exact arithmetic; the cap only stops a rounding-driven cycle,
    # and every iterate is feasible and lowers the model
    for _ in range(4 * g.size + 4):
        free = side == 0
        target = d.copy()
        if free.any():
            rhs = g[free] + hess[np.ix_(free, ~free)] @ d[~free]
            target[free] = -np.linalg.solve(hess[np.ix_(free, free)], rhs)
        step = target - d
        with np.errstate(all="ignore"):
            room = np.where(
                step > 0.0, (hi - d) / step, np.where(step < 0.0, (lo - d) / step, np.inf)
            )
        i = int(np.argmin(room))
        if room[i] < 1.0:
            d = d + room[i] * step
            side[i] = 1 if step[i] > 0.0 else -1
            d[i] = hi[i] if side[i] > 0 else lo[i]
            continue
        d = target
        # > 0: a wrong-signed multiplier, the model descends off that bound
        wrong = side * (g + hess @ d)
        i = int(np.argmax(wrong))
        if wrong[i] <= 0.0:
            break
        side[i] = 0
    return d, side


def solve(
    x0: AttitudeState,
    t0: float,
    field_at: Callable[[float], FieldSample],
    cfg: MpcConfig,
    inertia: InertiaTensor,
    warm: Optional[ControlSequence] = None,
    substeps: int = PREDICTION_SUBSTEPS,
) -> SolveResult:
    """Minimize the horizon cost over the box-constrained dipole sequence.

    The cost is r'r of the residual (see the module docstring). The solve
    starts from the all-zero sequence or, when it costs strictly less, the
    warm start, so the returned cost never exceeds the zero or warm-start
    cost. Damped Gauss-Newton runs from there, one linearization per
    iteration: it solves the box-constrained quadratic model with
    Levenberg-Marquardt damping and accepts the step by an Armijo test on
    the true cost, raising the damping on each rejection and adjusting it by
    the gain ratio on acceptance. It stops "converged" when u_max times the
    norm of the gradient less its box-held components drops below
    CONVERGENCE_RTOL * (1 + |J|); "settled" when an accepted step's actual
    and predicted (undamped model) decreases are both at most FTOL * J, the
    point returned without a Jacobian; "iteration_cap" after MAX_ITERATIONS
    accepted steps; and "no_step" when, before a step passes, the step no
    longer moves u or lam * diag(H) overflows. The last two are degraded
    (see `SolveResult.stop_reason`). Every accepted step lowers the cost, so
    the last iterate is returned. Each evaluation of a start or a trial is
    one rollout; the Jacobian at the winning start and at each accepted
    trial comes from that rollout's tape.
    """
    p, u_max = cfg.horizon, cfg.u_max
    prob = _Problem(x0, t0, field_at, cfg, inertia, substeps)
    evaluate, linearize = prob.evaluate, prob.linearize

    if warm is not None:
        if len(warm) != p:
            raise ValueError(f"warm start length {len(warm)} does not match horizon {p}")
        w = warm.dipoles.reshape(3 * p).astype(float)
        if np.max(np.abs(w)) > u_max:
            raise ValueError("warm start violates the dipole bound")
    u = np.zeros(3 * p)
    zero_cost, record = evaluate(u)
    cost, warm_cost = zero_cost, None
    if warm is not None:
        warm_cost, warm_record = evaluate(w)
        if warm_cost < cost:  # the zero sequence wins ties
            u, cost, record = w, warm_cost, warm_record

    lam, nu = _DAMPING0, 2.0
    iterations, stop_reason = 0, None
    while True:
        r, jac = linearize(record)
        grad = 2.0 * (jac.T @ r)
        if _converged(u, grad, cost, u_max):
            stop_reason = "converged"
            break
        if iterations >= MAX_ITERATIONS:
            stop_reason = "iteration_cap"
            break
        iterations += 1
        hess = 2.0 * (jac.T @ jac)
        diag = np.diag(hess)
        # raise the damping until a step passes the Armijo test, or until the
        # step no longer moves u or lam * diag(H) (all >= 0) overflows
        while True:
            if not math.isfinite(lam * float(diag.max())):
                stop_reason = "no_step"
                break
            d, side = _box_qp(grad, hess + np.diag(lam * diag), -u_max - u, u_max - u)
            u_new = np.clip(u + d, -u_max, u_max)
            u_new[side > 0], u_new[side < 0] = u_max, -u_max
            d = u_new - u
            if not np.any(d):
                stop_reason = "no_step"
                break
            gd = float(grad @ d)
            new_cost, record = evaluate(u_new)
            if new_cost <= cost + ARMIJO_C1 * gd:
                break
            lam, nu = lam * nu, 2.0 * nu
        if stop_reason is not None:
            break
        # Nielsen's update from the gain ratio against the undamped model
        predicted = -(gd + 0.5 * float(d @ hess @ d))
        rho = (cost - new_cost) / predicted if predicted > 0.0 else 0.0
        lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        settled = cost - new_cost <= FTOL * cost and predicted <= FTOL * cost
        u, cost = u_new, new_cost
        if settled:
            stop_reason = "settled"
            break

    seq = ControlSequence(u.reshape(p, 3).copy())
    return SolveResult(
        command=DipoleCommand(seq.dipoles[0].copy()),
        sequence=seq,
        cost=cost,
        stop_reason=stop_reason,
        iterations=iterations,
        zero_cost=zero_cost,
        warm_cost=warm_cost,
    )
