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
active-set method, and is accepted by an Armijo test on the true cost.
`_box_qp` owns the box: it starts its active set from the components of u
exactly on +-u_max and returns the next iterate inside it. After an accepted
step those are the last QP's final set, and on the warm start the last
sample's final set shifted by one interval. Each solve starts from the
cheaper of the all-zero sequence and the warm start, so the returned
sequence is never worse than either of them.

A solve stops for one of four reasons (`SolveResult.stop_reason`), the first
two Levenberg-Marquardt termination tests in cost units (J. J. More, LNM
630, 1978), so they hold at any scale of the weights. "converged": the
first-order test u_max * |g_P| < CONVERGENCE_RTOL * (1 + |J|), g_P the
gradient less the held components. "settled": an accepted step whose actual
and predicted (undamped model) decreases are both at most FTOL * J; the
point is returned without a Jacobian. "iteration_cap": MAX_ITERATIONS
accepted steps. "no_step": no damped step passed the Armijo test before the
step stopped moving u or lam * diag(H) overflowed. (When the box holds
every direction, g_P = 0 and the solve stops "converged" before it tries a
step.) The last two flag the result degraded. Every accepted step lowers
the cost, so the last accepted point is returned.

Each evaluation is one rollout, as one zero-order-hold sequence through the
plant's integrator `dynamics.integrate`, and it keeps its tape (one flat
record per RK4 step: its four stage states, the new state and the
pre-renormalization norm) and its residual, because any evaluated point may
be linearized. The Jacobian at an accepted point - the winning start or an
accepted trial - is built from that point's own tape, so no accepted point
is rolled out twice. A rejected trial that more damping leaves on the same
box corner is evaluated again. `predict` is the same rollout without a
tape, since it is never linearized; it returns the state array itself.

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
# scenario's `substeps` (default 20). Against a 20-substep prediction, the
# 3-substep horizon cost differs by at most 2.2e-9 relative on detumble
# (Ts 2 s) and 2.3e-5 on the attitude slew (Ts 30 s): the worst over 120
# evenly spaced states of each full preset run, with 3 uniform in-box random
# dipole sequences per state. With the quantizer on, every applied dipole of
# both presets and of the benchmark configs is the same as with 5 substeps;
# 2 substeps flag more solves degraded.
PREDICTION_SUBSTEPS = 3
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
        if not 1 <= self.horizon < math.inf or int(self.horizon) != self.horizon:
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
        # the cost residual's row scales sqrt(Ts Q) and sqrt(Ts R), built once
        object.__setattr__(self, "_row_scales", (np.sqrt(self.ts * q), np.sqrt(self.ts * r)))


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
class SolveResult:
    """Outcome of one receding-horizon solve.

    `stop_reason` is one of the four stop reasons in the module docstring.
    `degraded` is true for "iteration_cap" and "no_step": the solve stopped
    without passing either termination test. The result is still the last
    accepted point and still satisfies the zero/warm-start dominance
    contract.
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
    q_scale, r_scale = cfg._row_scales
    q_rows = (np.asarray(ends) - cfg.x_ref.as_array()) * q_scale
    r_rows = np.reshape(u, (-1, 3)) * r_scale
    return np.concatenate([q_rows.reshape(-1), r_rows.reshape(-1)])


class _Problem:
    """One horizon problem bound once: start state, field schedule, inertia, weights.

    `rollout` is the horizon's one `dynamics.integrate` call; `predict` makes
    it untaped. `evaluate` makes it taped and returns the cost with a record
    of the rollout and its residual; `linearize` builds the residual's
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
        self.q_scale, r_scale = cfg._row_scales
        self.r_jac = np.diag(np.tile(r_scale, cfg.horizon))

    def rollout(self, u: np.ndarray, tape: list | None = None) -> np.ndarray:
        """The p+1 interval-end states under u, shape (p+1, 7) with x0 first.

        u has shape (p, 3) or (3p,), u_k held over interval k. A given tape
        gets one record per RK4 step (see `dynamics.integrate`).
        """
        return integrate(
            self.x0, np.reshape(u, (-1, 3)), self.b, self.inertia, self.cfg.ts, self.substeps,
            self.t0, tape,
        )

    def evaluate(self, u: np.ndarray):
        """Cost r'r of a control sequence and the record `(u, tape, r)` of its rollout.

        The rollout is taped, since `linearize` needs the tape.
        """
        tape = []
        r = _residual(self.rollout(u, tape)[1:], u, self.cfg)
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
) -> np.ndarray:
    """Predicted interval-end states under a control sequence (zero-order hold per step).

    Returns the (p+1, 7) array of states (q1..q4, wx..wz) at t0 + k Ts,
    x0 first: one untaped `_Problem.rollout`, the plant's own integrator,
    with the orbital-frame field held from each interval's start. A blow-up
    raises the plant's divergence error, carrying the end time of the
    substep whose state went non-finite.
    """
    if len(seq) != cfg.horizon:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {cfg.horizon}")
    return _Problem(x0, t0, field_at, cfg, inertia, substeps).rollout(seq.dipoles)


def total_cost(states: np.ndarray, seq: ControlSequence, cfg: MpcConfig) -> float:
    """Discrete tracking cost r'r of predicted states and their control sequence.

    `states` is `predict`'s (p+1, 7) array, x0 first. The cost is built from
    the same residual as the solver's, so the two are bitwise comparable.
    """
    p = cfg.horizon
    if len(seq) != p:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {p}")
    if len(states) != p + 1:
        raise ValueError(f"trajectory has {len(states)} states, expected {p + 1}")
    r = _residual(states[1:], seq.dipoles, cfg)
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


def _box_qp(g: np.ndarray, hess: np.ndarray, u: np.ndarray, u_max: float):
    """Next iterate v = u + d, d minimizing g'd + d'Hd/2 exactly over the box |v| <= u_max.

    H is positive definite and u lies in the box. Primal active-set method
    on v from v = u, holding every component of u that is exactly on a bound
    (+1 upper, -1 lower, 0 free): minimize over the free components with the
    others held; if a bound blocks the way, step to it and hold that
    component at exactly +-u_max; otherwise free every held component whose
    multiplier has the wrong sign, or stop when none has. Freeing several at
    once still ends: the step over a freed set moves at least one freed
    component inward and lowers the model, so the model falls from one
    subspace minimizer to the next and no set repeats. A held component sits
    exactly on its bound, so the iterate depends only on the final set, and
    the start set only decides how many passes reach it. The clip only
    guards a free component's rounding past the box.
    """
    v = u.copy()
    side = np.where(u >= u_max, 1, np.where(u <= -u_max, -1, 0))
    # finite in exact arithmetic; the cap only stops a rounding-driven cycle
    for _ in range(4 * g.size + 4):
        f = np.flatnonzero(side == 0)
        target = v.copy()
        if f.size:
            held = np.flatnonzero(side)
            # both blocks must stay C-ordered: hess[f][:, held] is F-ordered,
            # its product takes another BLAS path and rounds differently,
            # and the iterates, and so the pinned CSV digests, then move
            rhs = g[f] + hess[f[:, None], held] @ (v - u)[held]
            target[f] = u[f] - np.linalg.solve(hess[f[:, None], f], rhs)
        step = target - v
        # the ratios to the bounds divide by zero where a component does not
        # move, and overflow where it barely moves (a huge damping)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            room = np.where(
                step > 0.0, (u_max - v) / step, np.where(step < 0.0, (-u_max - v) / step, np.inf)
            )
        i = int(np.argmin(room))
        if room[i] < 1.0:
            v = v + room[i] * step
            side[i] = 1 if step[i] > 0.0 else -1
            v[i] = side[i] * u_max
            continue
        v = target
        # > 0: a wrong-signed multiplier, the model descends off that bound
        wrong = side * (g + hess @ (v - u)) > 0.0
        if not wrong.any():
            break
        side[wrong] = 0
    return np.clip(v, -u_max, u_max)


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
    the gain ratio on acceptance. It stops for one of the four reasons in
    the module docstring. Each evaluation of a start or a trial is one
    rollout; the Jacobian at the winning start and at each accepted trial
    comes from that rollout's tape.
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
        # g_P of the first-order test is grad less the held set, the
        # components on a bound that the gradient pushes outward
        held = ((u >= u_max) & (grad < 0.0)) | ((u <= -u_max) & (grad > 0.0))
        g_p = np.where(held, 0.0, grad)
        if u_max * float(np.linalg.norm(g_p)) < CONVERGENCE_RTOL * (1.0 + abs(cost)):
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
            u_new = _box_qp(grad, hess + np.diag(lam * diag), u, u_max)
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
