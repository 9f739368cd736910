"""Receding-horizon nonlinear MPC for the magnetorquer dipole command.

At each sampling instant the controller predicts the attitude state over p
zero-order-hold intervals of length Ts, scores the quadratic tracking cost

    J = sum_{k=1..p} (x_k - x_ref)' Q (x_k - x_ref) * Ts
      + sum_{k=0..p-1} u_k' R u_k * Ts

(a left-Riemann discretization of the continuous cost, with the plain
componentwise quaternion difference - no double-cover correction), and
minimizes it over the dipole sequence subject to the per-axis box
|m_i| <= u_max.

The optimizer is projected gradient descent with spectral (Barzilai-Borwein)
step lengths and a backtracking Armijo line search. The all-zero sequence
and the warm start are always evaluated as candidates, and the returned
sequence is never worse than either of them. Gradients are exact derivatives
of the discrete prediction, computed in reverse mode: an adjoint 7-vector is
pulled backward through the same RK4 stages (and the quaternion
renormalization) that generated the trajectory.

Everything here is deterministic: identical inputs produce identical
outputs, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import (
    AttitudeState,
    DipoleCommand,
    InertiaTensor,
    _rk4_stages,
    body_field,
)
from .errors import IntegrationDivergedError
from .orbit import FieldSample

# Prediction substeps per sampling interval. The plant integrates at the
# scenario's `substeps` (default 20). Measured against a 20-substep
# prediction along the benchmark trajectories, the 5-substep horizon cost
# differs by at most 2.0e-10 relative on detumble (Ts 2 s) and 1.1e-6 on the
# attitude slew (Ts 30 s), at a quarter of the per-solve work.
PREDICTION_SUBSTEPS = 5
MAX_ITERATIONS = 200
CONVERGENCE_RTOL = 1e-8
ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
# Futility guard: with the tiny control weights used here the cost surface
# has near-flat directions (condition number ~1e7), and the projected
# gradient can plateau a few times above the convergence tolerance while
# accepted steps improve the cost only at the 1e-11 relative level. Stop
# once that many consecutive iterations gain less than STALL_RTOL relative;
# the result still carries the degraded flag since the tolerance was not met.
STALL_RTOL = 1e-10
STALL_ITERATIONS = 10


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

    `degraded` is set when the optimizer stopped without certifying the
    projected-gradient tolerance (iteration cap or a stalled line search);
    the result is still the best candidate found and still satisfies the
    zero/warm-start dominance contract.
    """

    command: DipoleCommand
    sequence: ControlSequence
    cost: float
    degraded: bool
    iterations: int
    zero_cost: float
    warm_cost: Optional[float]


def shift_warm_start(seq: ControlSequence) -> ControlSequence:
    """Shift a solution one step, repeating the last entry (closed-loop warm start)."""
    d = seq.dipoles
    return ControlSequence(np.vstack([d[1:], d[-1:]]))


def _stage_vjp(x: tuple, m: tuple, b: tuple, inertia: tuple, v: tuple):
    """Vector-Jacobian products of the right-hand side at one RK4 stage.

    Given the adjoint vector v, returns (df/dx)^T v and (df/du)^T v in scalar
    math. The quaternion feeds back into the torque through the body-frame
    field, so the quaternion rows pick up field-derivative terms whenever the
    dipole command is nonzero.
    """
    q1, q2, q3, q4, wx, wy, wz = x
    mx, my, mz = m
    bx, by, bz = b
    ix, iy, iz = inertia
    vq1, vq2, vq3, vq4, vw1, vw2, vw3 = v
    f1, f2, f3 = body_field((q1, q2, q3, q4), b)
    # quaternion partials of the body-frame field (d f_i / d q_j, aliased rows)
    dva = 2.0 * (q1 * bx + q2 * by + q3 * bz)    # df1/dq1 = df2/dq2 = df3/dq3
    dv12 = 2.0 * (-q2 * bx + q1 * by - q4 * bz)
    dv13 = 2.0 * (-q3 * bx + q4 * by + q1 * bz)  # also df2/dq4
    dv14 = 2.0 * (q4 * bx + q3 * by - q2 * bz)   # also df3/dq2
    dv21 = 2.0 * (q2 * bx - q1 * by + q4 * bz)   # also df3/dq4
    dv23 = 2.0 * (-q4 * bx - q3 * by + q2 * bz)
    dv31 = 2.0 * (q3 * bx - q4 * by - q1 * bz)
    # inertia-scaled angular-velocity adjoint and its cross products
    sx = vw1 / ix
    sy = vw2 / iy
    sz = vw3 / iz
    e1 = sy * mz - sz * my   # (s x m), contracts the torque's field dependence
    e2 = sz * mx - sx * mz
    e3 = sx * my - sy * mx
    gx = (iy - iz) / ix
    gy = (iz - ix) / iy
    gz = (ix - iy) / iz
    xbar = (
        0.5 * (-wz * vq2 + wy * vq3 - wx * vq4) + dva * e1 + dv21 * e2 + dv31 * e3,
        0.5 * (wz * vq1 - wx * vq3 - wy * vq4) + dv12 * e1 + dva * e2 + dv14 * e3,
        0.5 * (-wy * vq1 + wx * vq2 - wz * vq4) + dv13 * e1 + dv23 * e2 + dva * e3,
        0.5 * (wx * vq1 + wy * vq2 + wz * vq3) + dv14 * e1 + dv13 * e2 + dv21 * e3,
        0.5 * (q4 * vq1 + q3 * vq2 - q2 * vq3 - q1 * vq4) + gy * wz * vw2 + gz * wy * vw3,
        0.5 * (-q3 * vq1 + q4 * vq2 + q1 * vq3 - q2 * vq4) + gx * wz * vw1 + gz * wx * vw3,
        0.5 * (q2 * vq1 - q1 * vq2 + q4 * vq3 - q3 * vq4) + gx * wy * vw1 + gy * wx * vw2,
    )
    ubar = (f2 * sz - f3 * sy, f3 * sx - f1 * sz, f1 * sy - f2 * sx)
    return xbar, ubar


def _substep_vjp(record, m: tuple, b: tuple, inertia: tuple, h: float, lam: tuple):
    """Pull the adjoint vector backward through one recorded RK4 substep.

    `record` is the forward pass's `_rk4_stages` result: the renormalized new
    state, the four stage states and the pre-renormalization quaternion norm.
    Returns the adjoint at the substep start and the control-gradient
    contribution.
    """
    x_new, (s1, s2, s3, s4), norm = record
    # chain rule through q <- q/|q| ((I - n n^T)/|q| is symmetric)
    n1, n2, n3, n4 = x_new[0], x_new[1], x_new[2], x_new[3]
    dot = n1 * lam[0] + n2 * lam[1] + n3 * lam[2] + n4 * lam[3]
    lr = (
        (lam[0] - n1 * dot) / norm,
        (lam[1] - n2 * dot) / norm,
        (lam[2] - n3 * dot) / norm,
        (lam[3] - n4 * dot) / norm,
        lam[4], lam[5], lam[6],
    )
    h2 = 0.5 * h
    h3 = h / 3.0
    h6 = h / 6.0
    # y = x + (h/6)(k1 + 2 k2 + 2 k3 + k4), stages unwound in reverse
    kb4 = (h6 * lr[0], h6 * lr[1], h6 * lr[2], h6 * lr[3], h6 * lr[4], h6 * lr[5], h6 * lr[6])
    s4b, u4 = _stage_vjp(s4, m, b, inertia, kb4)
    kb3 = tuple(h3 * lr[i] + h * s4b[i] for i in range(7))
    s3b, u3 = _stage_vjp(s3, m, b, inertia, kb3)
    kb2 = tuple(h3 * lr[i] + h2 * s3b[i] for i in range(7))
    s2b, u2 = _stage_vjp(s2, m, b, inertia, kb2)
    kb1 = tuple(h6 * lr[i] + h2 * s2b[i] for i in range(7))
    s1b, u1 = _stage_vjp(s1, m, b, inertia, kb1)
    lam_out = tuple(lr[i] + s1b[i] + s2b[i] + s3b[i] + s4b[i] for i in range(7))
    ubar = (
        u1[0] + u2[0] + u3[0] + u4[0],
        u1[1] + u2[1] + u3[1] + u4[1],
        u1[2] + u2[2] + u3[2] + u4[2],
    )
    return lam_out, ubar


def _controls(u: np.ndarray) -> list[tuple]:
    """Control sequence (p, 3) or flat (3p,) as one float tuple per interval."""
    return [tuple(row) for row in np.reshape(u, (-1, 3)).tolist()]


def _weights(cfg: MpcConfig) -> tuple:
    """Reference state and the Q and R diagonals as float tuples."""
    return (
        tuple(cfg.x_ref.as_array().tolist()),
        tuple(float(v) for v in cfg.q_diag),
        tuple(float(v) for v in cfg.r_diag),
    )


def _horizon_cost(ends, controls, ts: float, weights: tuple) -> float:
    """Discrete tracking cost of the interval-end states x_1..x_p and controls u_0..u_{p-1}.

    Summed per interval, state term of x_{k+1} then control term of u_k; the
    solver and `total_cost` both go through here, so they agree bit for bit.
    """
    xref, q_diag, r_diag = weights
    cost = 0.0
    for x, m in zip(ends, controls):
        s = 0.0
        for i in range(7):
            e = x[i] - xref[i]
            s += q_diag[i] * e * e
        cost += ts * s
        s = 0.0
        for i in range(3):
            s += r_diag[i] * m[i] * m[i]
        cost += ts * s
    return cost


class _Problem:
    """One horizon problem bound once: start state, field schedule, inertia, weights."""

    def __init__(
        self,
        x0: AttitudeState,
        t0: float,
        field_at: Callable[[float], FieldSample],
        cfg: MpcConfig,
        inertia: InertiaTensor,
        substeps: int,
    ):
        self.x0 = tuple(x0.as_array().tolist())
        self.t0 = t0
        self.ts = cfg.ts
        # orbital-frame field at the p interval start times (zero-order hold)
        self.b_list = [
            tuple(field_at(t0 + k * cfg.ts).b.tolist()) for k in range(cfg.horizon)
        ]
        self.inertia = inertia.as_tuple()
        self.substeps = substeps
        self.h = cfg.ts / substeps
        self.weights = _weights(cfg)

    def rollout(self, controls: list[tuple], record: bool = False):
        """Predict over the horizon with each control held for one interval.

        Returns the p+1 interval-end states (index 0 is the start state) and,
        when `record` is set, the tape: per interval, the `_rk4_stages` result
        of every substep (None otherwise; keeping it costs ~8% on cost-only
        evaluations).
        """
        inertia, h = self.inertia, self.h
        x = self.x0
        states = [x]
        tape = [] if record else None
        for k, (mk, b) in enumerate(zip(controls, self.b_list)):
            if record:
                records = []
                for _ in range(self.substeps):
                    rec = _rk4_stages(x, mk, b, inertia, h)
                    records.append(rec)
                    x = rec[0]
                tape.append(records)
            else:
                for _ in range(self.substeps):
                    x = _rk4_stages(x, mk, b, inertia, h)[0]
            if not all(math.isfinite(v) for v in x):
                t_fail = self.t0 + (k + 1) * self.ts
                raise IntegrationDivergedError(
                    f"prediction became non-finite at t={t_fail}", t=t_fail
                )
            states.append(x)
        return states, tape

    def cost(self, u: np.ndarray) -> float:
        controls = _controls(u)
        states, _ = self.rollout(controls)
        return _horizon_cost(states[1:], controls, self.ts, self.weights)

    def cost_grad(self, u: np.ndarray):
        """Cost and its exact gradient w.r.t. the 3p control components (flat).

        The gradient is the derivative of the discretized cost: one adjoint
        vector is swept backward through the rollout's tape.
        """
        controls = _controls(u)
        states, tape = self.rollout(controls, record=True)
        cost = _horizon_cost(states[1:], controls, self.ts, self.weights)
        xref, q_diag, r_diag = self.weights
        two_ts = 2.0 * self.ts
        grad = np.zeros(3 * len(controls))
        lam = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for k in range(len(controls) - 1, -1, -1):
            mk, b, xe = controls[k], self.b_list[k], states[k + 1]
            lam = tuple(
                lam[i] + two_ts * q_diag[i] * (xe[i] - xref[i]) for i in range(7)
            )
            gx = gy = gz = 0.0
            for rec in reversed(tape[k]):
                lam, ubar = _substep_vjp(rec, mk, b, self.inertia, self.h, lam)
                gx += ubar[0]
                gy += ubar[1]
                gz += ubar[2]
            col = 3 * k
            grad[col] = gx + two_ts * r_diag[0] * mk[0]
            grad[col + 1] = gy + two_ts * r_diag[1] * mk[1]
            grad[col + 2] = gz + two_ts * r_diag[2] * mk[2]
        return cost, grad


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

    Each horizon interval is the same RK4 composition the plant integrator
    uses, with the orbital-frame field held from the interval start.
    """
    if len(seq) != cfg.horizon:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {cfg.horizon}")
    prob = _Problem(x0, t0, field_at, cfg, inertia, substeps)
    states, _ = prob.rollout(_controls(seq.dipoles))
    out = tuple(
        AttitudeState(q=np.array(s[0:4]), omega=np.array(s[4:7])) for s in states
    )
    times = np.array([t0 + k * cfg.ts for k in range(cfg.horizon + 1)])
    return PredictedTrajectory(states=out, times=times)


def total_cost(traj: PredictedTrajectory, seq: ControlSequence, cfg: MpcConfig) -> float:
    """Discrete tracking cost of a predicted trajectory and its control sequence.

    Summed by the same helper as the solver's cost, so the two are bitwise
    comparable.
    """
    p = cfg.horizon
    if len(seq) != p:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {p}")
    if len(traj.states) != p + 1:
        raise ValueError(f"trajectory has {len(traj.states)} states, expected {p + 1}")
    ends = [tuple(s.as_array().tolist()) for s in traj.states[1:]]
    return _horizon_cost(ends, _controls(seq.dipoles), cfg.ts, _weights(cfg))


def gradient(
    x0: AttitudeState,
    seq: ControlSequence,
    t0: float,
    field_at: Callable[[float], FieldSample],
    cfg: MpcConfig,
    inertia: InertiaTensor,
    substeps: int = PREDICTION_SUBSTEPS,
) -> np.ndarray:
    """Exact gradient of the cost w.r.t. the 3p control components, shape (p, 3)."""
    if len(seq) != cfg.horizon:
        raise ValueError(f"sequence length {len(seq)} does not match horizon {cfg.horizon}")
    _, grad = _Problem(x0, t0, field_at, cfg, inertia, substeps).cost_grad(seq.dipoles)
    return grad.reshape(cfg.horizon, 3)


def _converged(u: np.ndarray, grad: np.ndarray, cost: float, u_max: float) -> bool:
    """Stopping test: projected-gradient norm below CONVERGENCE_RTOL * (1 + |J|)."""
    step = np.clip(u - grad, -u_max, u_max)
    return float(np.linalg.norm(u - step)) < CONVERGENCE_RTOL * (1.0 + abs(cost))


def _heuristic_candidates(x0: AttitudeState, b0: tuple, cfg: MpcConfig) -> list[np.ndarray]:
    """Deterministic extra starting candidates for the descent.

    Constant-over-horizon dipoles from two classic magnetic-control shapes:
    rate damping perpendicular to the field (a b-cross law) and steering the
    quaternion error about the field direction. A few fixed gains each; the
    projected-gradient descent then refines whichever candidate scores best.
    """
    p = cfg.horizon
    u_max = cfg.u_max
    v = np.array(body_field(tuple(x0.q.tolist()), b0))
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return []
    bhat = v / norm
    out = []
    damp = -np.cross(x0.omega, bhat)
    for gain in (1e3, 1e5):
        m = np.clip(gain * damp, -u_max, u_max)
        out.append(np.tile(m, p))
    steer = np.cross((x0.q - cfg.x_ref.q)[0:3], bhat)
    for gain in (0.5, 5.0):
        m = np.clip(gain * steer, -u_max, u_max)
        out.append(np.tile(m, p))
    return out


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

    One scan scores the start candidates in order: the all-zero sequence, the
    warm start (when given) and a few deterministic magnetic-control
    heuristics. The cheapest wins, the earliest on ties, so the returned cost
    never exceeds the zero or warm-start cost. Projected gradient descent
    with Barzilai-Borwein steps and Armijo backtracking runs from it until
    the projected-gradient norm drops below 1e-8 * (1 + |J|); stopping on
    the MAX_ITERATIONS cap, a stall or a failed line search sets the
    degraded flag instead.
    """
    p, u_max = cfg.horizon, cfg.u_max
    prob = _Problem(x0, t0, field_at, cfg, inertia, substeps)
    cost_of, cost_grad_of = prob.cost, prob.cost_grad

    starts = [np.zeros(3 * p)]
    if warm is not None:
        if len(warm) != p:
            raise ValueError(f"warm start length {len(warm)} does not match horizon {p}")
        w = warm.dipoles.reshape(3 * p).astype(float)
        if np.max(np.abs(w)) > u_max:
            raise ValueError("warm start violates the dipole bound")
        starts.append(w)
    starts += _heuristic_candidates(x0, prob.b_list[0], cfg)
    costs = [cost_of(start) for start in starts]
    best_cost = min(costs)
    best_u = starts[costs.index(best_cost)]

    u = best_u.copy()
    cost, grad = cost_grad_of(u)
    converged = _converged(u, grad, cost, u_max)
    gmax = float(np.max(np.abs(grad)))
    alpha = u_max / gmax if gmax > 0.0 else 1.0
    iterations = stall_count = 0

    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            u_new = np.clip(u - alpha * grad, -u_max, u_max)
            d = u_new - u
            if not np.any(d):
                break  # every direction pinned by the box
            gd = float(grad @ d)
            new_cost = cost_of(u_new)
            if new_cost <= cost + ARMIJO_C1 * gd:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        prev_u, prev_grad, prev_cost = u, grad, cost
        u = u_new
        cost, grad = cost_grad_of(u)
        if cost < best_cost:
            best_u, best_cost = u.copy(), cost
        converged = _converged(u, grad, cost, u_max)
        if converged:
            break
        if prev_cost - cost <= STALL_RTOL * (1.0 + abs(cost)):
            stall_count += 1
            if stall_count >= STALL_ITERATIONS:
                break
        else:
            stall_count = 0
        s = u - prev_u
        y = grad - prev_grad
        sty = float(s @ y)
        alpha = float(s @ s) / sty if sty > 0.0 else alpha * 2.0
        alpha = min(max(alpha, 1e-30), 1e30)

    seq = ControlSequence(best_u.reshape(p, 3).copy())
    return SolveResult(
        command=DipoleCommand(seq.dipoles[0].copy()),
        sequence=seq,
        cost=best_cost,
        degraded=not converged,
        iterations=iterations,
        zero_cost=costs[0],
        warm_cost=costs[1] if warm is not None else None,
    )
