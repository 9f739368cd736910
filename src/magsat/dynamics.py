"""Rigid-body attitude kinematics and dynamics under magnetorquer torque.

State: scalar-last unit quaternion (q1, q2, q3, q4) for the orbital-to-body
rotation plus the body angular velocity (rad/s). The kinematics are

    qdot = M(q) * omega,      M(q) = (1/2) [[ q4, -q3,  q2],
                                            [ q3,  q4, -q1],
                                            [-q2,  q1,  q4],
                                            [-q1, -q2, -q3]]

and the rotational dynamics are Euler's equations with the gyroscopic term
and the magnetic torque m x B (B in body frame):

    wx_dot = ((Iy - Iz) wy wz + tau_x) / Ix      (and cyclic permutations)

The angular velocity is treated as relative to the orbital frame whose field
the environment model provides; the orbital angular rate itself is neglected
in the kinematics (it is far below the rates of interest here).

Integration is fixed-step classical RK4 over a zero-order-hold sequence:
interval k holds its dipole and its orbital-frame field sample, and the
field is rotated into the body frame at every internal stage with that
stage's quaternion. The quaternion is renormalized after every step.

`_deriv` is the only right-hand side and `body_field` the only
orbital-to-body rotation; both work on plain float tuples. `integrate` is the
only rollout of such a sequence: the plant (`propagate`) is a one-interval
call and the MPC prediction a p-interval one, so they agree bit for bit at
equal substep counts and fail at the same substep. `sensitivity` turns its
tape into the Jacobian of every interval-end state w.r.t. every dipole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationDivergedError
from .orbit import FieldSample


@dataclass(frozen=True)
class AttitudeState:
    """Unit quaternion (scalar-last) plus body angular velocity in rad/s."""

    q: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        w = np.asarray(self.omega, dtype=float)
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        if w.shape != (3,):
            raise ValueError(f"angular velocity must have shape (3,), got {w.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(w))):
            raise ValueError("attitude state has non-finite components")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "omega", w)

    def as_array(self) -> np.ndarray:
        """Pack into the 7-component vector (q1..q4, wx..wz)."""
        return np.concatenate([self.q, self.omega])


@dataclass(frozen=True)
class InertiaTensor:
    """Principal moments of inertia, kg*m^2, diagonal in the body frame."""

    ix: float
    iy: float
    iz: float

    def __post_init__(self):
        vals = (self.ix, self.iy, self.iz)
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError(f"moments of inertia must be positive, got {vals}")
        ix, iy, iz = vals
        if ix + iy < iz or iy + iz < ix or iz + ix < iy:
            raise ValueError(f"moments of inertia violate the triangle inequality: {vals}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ix, self.iy, self.iz)


@dataclass(frozen=True)
class DipoleCommand:
    """Commanded magnetic dipole moment per body axis, A*m^2."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3,):
            raise ValueError(f"dipole command must have shape (3,), got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("dipole command has non-finite components")
        object.__setattr__(self, "m", m)


def propagate(
    state: AttitudeState,
    m: DipoleCommand,
    field_at: Callable[[float], FieldSample],
    t0: float,
    duration: float,
    substeps: int,
    inertia: InertiaTensor,
) -> AttitudeState:
    """Integrate over [t0, t0 + duration] in `substeps` RK4 steps: a one-interval `integrate`.

    The orbital-frame field is sampled once at t0 and held over the whole
    window (one controller interval in closed loop); each internal stage
    still rotates it with the current quaternion. `substeps=1` is a single
    RK4 step. A non-finite state raises IntegrationDivergedError carrying the
    end time of the substep that produced it.
    """
    states, _ = integrate(
        state.as_array(), m.m[None], field_at(t0).b[None], inertia.as_tuple(),
        duration, substeps, t0,
    )
    return AttitudeState(q=states[-1, 0:4], omega=states[-1, 4:7])


def integrate(
    x: np.ndarray, m: np.ndarray, b: np.ndarray, inertia: tuple, ts: float, substeps: int, t0: float
):
    """RK4 over a zero-order-hold sequence of p intervals of length ts from x at time t0.

    Interval k holds the dipole m[k] and the orbital-frame field b[k] (m and
    b have shape (p, 3)) over [t0 + k ts, t0 + (k+1) ts], in `substeps` steps
    of ts / substeps. Returns the p+1 interval-end states, shape (p+1, 7) with
    x first, and the tape: per interval, the `_rk4_stages` record of each
    step. Finiteness is checked once per interval, on its end state, since a
    non-finite component stays non-finite through every later step; then
    IntegrationDivergedError carries the end time of the first non-finite step.
    A ts that is not finite and positive, or substeps < 1, raises ValueError.
    """
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValueError(f"interval length must be finite and positive, got {ts}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    h = ts / substeps
    x = tuple(x.tolist())
    states, tape = [x], []
    for k, (mk, bk) in enumerate(zip(m.tolist(), b.tolist())):
        records = []
        for _ in range(substeps):
            rec = _rk4_stages(x, mk, bk, inertia, h)
            records.append(rec)
            x = rec[0]
        if not all(map(math.isfinite, x)):
            j = next(j for j, (y, _, _) in enumerate(records) if not all(map(math.isfinite, y)))
            t = t0 + k * ts + (j + 1) * h
            raise IntegrationDivergedError(f"state became non-finite at t={t}", t=t)
        states.append(x)
        tape.append(records)
    return np.array(states), tape


def body_field(q: tuple, b: tuple) -> tuple:
    """Rotate an orbital-frame vector into body axes with quaternion q.

    v_body = R(q) v_orbital with R the direction cosine matrix of the
    orbital-to-body quaternion; the only implementation of that rotation.
    """
    q1, q2, q3, q4 = q
    bx, by, bz = b
    xx = q1 * q1
    yy = q2 * q2
    zz = q3 * q3
    ww = q4 * q4
    return (
        (xx - yy - zz + ww) * bx
        + 2.0 * ((q1 * q2 + q3 * q4) * by + (q1 * q3 - q2 * q4) * bz),
        2.0 * ((q1 * q2 - q3 * q4) * bx + (q2 * q3 + q1 * q4) * bz)
        + (-xx + yy - zz + ww) * by,
        2.0 * ((q1 * q3 + q2 * q4) * bx + (q2 * q3 - q1 * q4) * by)
        + (-xx - yy + zz + ww) * bz,
    )


def _deriv(x: tuple, m: tuple, b: tuple, inertia: tuple) -> tuple:
    """Right-hand side of the coupled system; b is the orbital-frame field."""
    q1, q2, q3, q4, wx, wy, wz = x
    mx, my, mz = m
    ix, iy, iz = inertia
    v1, v2, v3 = body_field((q1, q2, q3, q4), b)
    t1 = my * v3 - mz * v2
    t2 = mz * v1 - mx * v3
    t3 = mx * v2 - my * v1
    return (
        0.5 * (q4 * wx - q3 * wy + q2 * wz),
        0.5 * (q3 * wx + q4 * wy - q1 * wz),
        0.5 * (-q2 * wx + q1 * wy + q4 * wz),
        0.5 * (-q1 * wx - q2 * wy - q3 * wz),
        ((iy - iz) * wy * wz + t1) / ix,
        ((iz - ix) * wz * wx + t2) / iy,
        ((ix - iy) * wx * wy + t3) / iz,
    )


def _rk4_stages(x: tuple, m: tuple, b: tuple, inertia: tuple, h: float):
    """RK4 step returning the new state plus the data a sensitivity pass needs.

    Returns (x_new, stage_states, pre-renormalization quaternion norm) where
    stage_states are the four points the right-hand side was evaluated at.
    """
    h2 = 0.5 * h
    k1 = _deriv(x, m, b, inertia)
    xa = (
        x[0] + h2 * k1[0], x[1] + h2 * k1[1], x[2] + h2 * k1[2], x[3] + h2 * k1[3],
        x[4] + h2 * k1[4], x[5] + h2 * k1[5], x[6] + h2 * k1[6],
    )
    k2 = _deriv(xa, m, b, inertia)
    xb = (
        x[0] + h2 * k2[0], x[1] + h2 * k2[1], x[2] + h2 * k2[2], x[3] + h2 * k2[3],
        x[4] + h2 * k2[4], x[5] + h2 * k2[5], x[6] + h2 * k2[6],
    )
    k3 = _deriv(xb, m, b, inertia)
    xc = (
        x[0] + h * k3[0], x[1] + h * k3[1], x[2] + h * k3[2], x[3] + h * k3[3],
        x[4] + h * k3[4], x[5] + h * k3[5], x[6] + h * k3[6],
    )
    k4 = _deriv(xc, m, b, inertia)
    h6 = h / 6.0
    q1 = x[0] + h6 * (k1[0] + k4[0] + 2.0 * (k2[0] + k3[0]))
    q2 = x[1] + h6 * (k1[1] + k4[1] + 2.0 * (k2[1] + k3[1]))
    q3 = x[2] + h6 * (k1[2] + k4[2] + 2.0 * (k2[2] + k3[2]))
    q4 = x[3] + h6 * (k1[3] + k4[3] + 2.0 * (k2[3] + k3[3]))
    w1 = x[4] + h6 * (k1[4] + k4[4] + 2.0 * (k2[4] + k3[4]))
    w2 = x[5] + h6 * (k1[5] + k4[5] + 2.0 * (k2[5] + k3[5]))
    w3 = x[6] + h6 * (k1[6] + k4[6] + 2.0 * (k2[6] + k3[6]))
    norm = math.sqrt(q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4)
    x_new = (q1 / norm, q2 / norm, q3 / norm, q4 / norm, w1, w2, w3)
    return x_new, (x, xa, xb, xc), norm


def sensitivity(tape, m: np.ndarray, b: np.ndarray, inertia: tuple, ts: float) -> np.ndarray:
    """d(x_1..x_p)/d(m_0..m_{p-1}) of an `integrate` rollout, shape (7p, 3p), from its tape.

    m and b are the rollout's dipoles and orbital-frame fields, shape (p, 3).
    The right-hand side's Jacobians [df/dx | df/dm] at every recorded stage
    are built in one vectorized pass, composed into each step's Jacobian,
    passed through the renormalization q <- q/|q| (Jacobian (I - n n')/|q|)
    and chained into each interval's (7, 10) map of (start state, dipole).
    Those are chained over the intervals into the block lower-triangular
    sensitivity of every interval-end state to every dipole.
    """
    p, substeps = len(tape), len(tape[0])
    h = ts / substeps
    recs = [rec for records in tape for rec in records]
    xs = np.array([rec[1] for rec in recs]).reshape(p, substeps, 4, 7)
    q1, q2, q3, q4, wx, wy, wz = (xs[..., i] for i in range(7))
    mx, my, mz = (m[:, None, None, i] for i in range(3))
    bx, by, bz = (b[:, None, None, i] for i in range(3))
    ix, iy, iz = inertia
    v1, v2, v3 = body_field((q1, q2, q3, q4), (bx, by, bz))
    # quaternion partials of the body-frame field, dv[i][j] = d v_i / d q_j
    dva = 2.0 * (q1 * bx + q2 * by + q3 * bz)
    dv12 = 2.0 * (-q2 * bx + q1 * by - q4 * bz)
    dv13 = 2.0 * (-q3 * bx + q4 * by + q1 * bz)
    dv14 = 2.0 * (q4 * bx + q3 * by - q2 * bz)
    dv21 = 2.0 * (q2 * bx - q1 * by + q4 * bz)
    dv23 = 2.0 * (-q4 * bx - q3 * by + q2 * bz)
    dv31 = 2.0 * (q3 * bx - q4 * by - q1 * bz)
    dv = ((dva, dv12, dv13, dv14), (dv21, dva, dv23, dv13), (dv31, dv14, dva, dv21))
    jac = np.zeros(np.shape(q1) + (7, 10))
    # kinematics: qdot = M(q) omega, whose entries are state components times +-1/2
    half, neg = 0.5 * xs, -0.5 * xs
    hq1, hq2, hq3, hq4, hwx, hwy, hwz = (half[..., i] for i in range(7))
    nq1, nq2, nq3, _, nwx, nwy, nwz = (neg[..., i] for i in range(7))
    jac[..., 0, 1], jac[..., 0, 2], jac[..., 0, 3] = hwz, nwy, hwx
    jac[..., 1, 0], jac[..., 1, 2], jac[..., 1, 3] = nwz, hwx, hwy
    jac[..., 2, 0], jac[..., 2, 1], jac[..., 2, 3] = hwy, nwx, hwz
    jac[..., 3, 0], jac[..., 3, 1], jac[..., 3, 2] = nwx, nwy, nwz
    jac[..., 0, 4], jac[..., 0, 5], jac[..., 0, 6] = hq4, nq3, hq2
    jac[..., 1, 4], jac[..., 1, 5], jac[..., 1, 6] = hq3, hq4, nq1
    jac[..., 2, 4], jac[..., 2, 5], jac[..., 2, 6] = nq2, hq1, hq4
    jac[..., 3, 4], jac[..., 3, 5], jac[..., 3, 6] = nq1, nq2, nq3
    # Euler's equations: the torque m x v through the attitude, the
    # gyroscopic term through the rates, and the dipole itself
    for j in range(4):
        jac[..., 4, j] = (my * dv[2][j] - mz * dv[1][j]) / ix
        jac[..., 5, j] = (mz * dv[0][j] - mx * dv[2][j]) / iy
        jac[..., 6, j] = (mx * dv[1][j] - my * dv[0][j]) / iz
    gx, gy, gz = (iy - iz) / ix, (iz - ix) / iy, (ix - iy) / iz
    jac[..., 4, 5], jac[..., 4, 6] = gx * wz, gx * wy
    jac[..., 5, 4], jac[..., 5, 6] = gy * wz, gy * wx
    jac[..., 6, 4], jac[..., 6, 5] = gz * wy, gz * wx
    jac[..., 4, 8], jac[..., 4, 9] = v3 / ix, -v2 / ix
    jac[..., 5, 7], jac[..., 5, 9] = -v3 / iy, v1 / iy
    jac[..., 6, 7], jac[..., 6, 8] = v2 / iz, -v1 / iz
    # the RK4 tableau on the stage Jacobians, then the renormalization
    a = jac[..., :7]
    k1 = jac[:, :, 0]
    k2 = jac[:, :, 1] + (0.5 * h) * (a[:, :, 1] @ k1)
    k3 = jac[:, :, 2] + (0.5 * h) * (a[:, :, 2] @ k2)
    k4 = jac[:, :, 3] + h * (a[:, :, 3] @ k3)
    phi = (h / 6.0) * (k1 + k4 + 2.0 * (k2 + k3))
    phi[..., :7] += np.eye(7)
    n = np.array([rec[0][0:4] for rec in recs]).reshape(p, substeps, 4)
    norm = np.array([rec[2] for rec in recs]).reshape(p, substeps, 1, 1)
    rows = phi[..., :4, :]
    phi[..., :4, :] = (rows - n[..., :, None] * (n[..., None, :] @ rows)) / norm
    interval = phi[:, 0].copy()
    for j in range(1, substeps):
        interval = phi[:, j, :, :7] @ interval
        interval[..., 7:] += phi[:, j, :, 7:]
    sens = np.zeros((p, 7, 3 * p))
    sens[0, :, 0:3] = interval[0, :, 7:]
    for k in range(1, p):
        sens[k, :, : 3 * k] = interval[k, :, :7] @ sens[k - 1, :, : 3 * k]
        sens[k, :, 3 * k : 3 * k + 3] = interval[k, :, 7:]
    return sens.reshape(7 * p, 3 * p)
