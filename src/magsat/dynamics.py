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

`_rhs` is the only right-hand side and holds the only orbital-to-body
rotation: it binds one held interval's dipole, field and inertia
differences once and returns the derivative as a function of the seven state
scalars. `_rk4_interval` runs every RK4 step of one held interval in one
call, with each stage value a local float. `integrate` is the only rollout
of such a sequence: the plant (`propagate`) is a one-interval call and the
MPC prediction a p-interval one, so they agree bit for bit at equal substep
counts and fail at the same substep. A caller that will build a Jacobian
passes a tape, and `integrate` appends one flat record of 36 floats per RK4
step to it; `sensitivity` turns the tape into the Jacobian of every
interval-end state w.r.t. every dipole. Only the solver's rollouts keep a
tape: the plant and the prediction keep none, so an 800-substep plant
interval holds no more than one step's stages at a time. The right-hand
side's Jacobian at every stage comes from a few constant coefficient
tensors, read off `_rhs` at import, so it is not written twice.
"""

from __future__ import annotations

import itertools
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
    states = integrate(
        state.as_array(), m.m[None], field_at(t0).b[None], inertia.as_tuple(),
        duration, substeps, t0,
    )
    return AttitudeState(q=states[-1, 0:4], omega=states[-1, 4:7])


def integrate(
    x: np.ndarray, m: np.ndarray, b: np.ndarray, inertia: tuple, ts: float, substeps: int,
    t0: float, tape: list | None = None,
) -> np.ndarray:
    """RK4 over a zero-order-hold sequence of p intervals of length ts from x at time t0.

    Interval k holds the dipole m[k] and the orbital-frame field b[k] (m and
    b have shape (p, 3)) over [t0 + k ts, t0 + (k+1) ts], in `substeps` steps
    of ts / substeps, all of them in one `_rk4_interval` call that binds the
    interval's right-hand side once. Returns the p+1 interval-end states,
    shape (p+1, 7) with x first. A caller that will build a Jacobian
    (`sensitivity`) passes a list as `tape`, and every step appends its flat
    record (x, xa, xb, xc, new state, norm; 36 floats) to it, in order,
    p * substeps of them; the next step starts from each record's new state.
    Without a tape each step's stages are dropped as soon as the next step
    starts.
    Finiteness is checked once per interval, on its end state, since a
    non-finite component stays non-finite through every later step; a
    non-finite interval is then stepped again from its start state to locate
    its first non-finite step, and IntegrationDivergedError carries that
    step's end time.
    A ts that is not finite and positive raises ValueError, and so does a
    substep count that is not an integer (a bool or a float, even a whole
    one; numpy integers are accepted) or is below 1.
    """
    if not (math.isfinite(ts) and ts > 0.0):
        raise ValueError(f"interval length must be finite and positive, got {ts}")
    if isinstance(substeps, bool) or not isinstance(substeps, (int, np.integer)):
        raise ValueError(f"substeps must be an integer, got {substeps!r}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    substeps = int(substeps)
    h = ts / substeps
    x = tuple(x.tolist())
    states = [x]
    for k, (mk, bk) in enumerate(zip(m.tolist(), b.tolist())):
        x = _rk4_interval(x, mk, bk, inertia, h, substeps, tape)
        if not all(map(math.isfinite, x)):
            x = states[-1]
            for j in range(substeps):
                x = _rk4_interval(x, mk, bk, inertia, h, 1, None)
                if not all(map(math.isfinite, x)):
                    break
            t = t0 + k * ts + (j + 1) * h
            raise IntegrationDivergedError(f"state became non-finite at t={t}", t=t)
        states.append(x)
    return np.array(states)


def _rhs(m: tuple, b: tuple, inertia: tuple) -> Callable[..., tuple]:
    """The right-hand side f(q1, q2, q3, q4, wx, wy, wz) of one held interval.

    Binds the interval's dipole m, its orbital-frame field b and the
    inertia differences once. f rotates b into body axes with the direction
    cosine matrix of the orbital-to-body quaternion (q1..q4), v = R(q) b,
    and returns the 7 derivatives; the only implementation of either.
    """
    mx, my, mz = m
    bx, by, bz = b
    ix, iy, iz = inertia
    gx, gy, gz = iy - iz, iz - ix, ix - iy

    def f(q1, q2, q3, q4, wx, wy, wz):
        xx = q1 * q1
        yy = q2 * q2
        zz = q3 * q3
        ww = q4 * q4
        q12 = q1 * q2
        q34 = q3 * q4
        q13 = q1 * q3
        q24 = q2 * q4
        q23 = q2 * q3
        q14 = q1 * q4
        v1 = (xx - yy - zz + ww) * bx + 2.0 * ((q12 + q34) * by + (q13 - q24) * bz)
        v2 = 2.0 * ((q12 - q34) * bx + (q23 + q14) * bz) + (-xx + yy - zz + ww) * by
        v3 = 2.0 * ((q13 + q24) * bx + (q23 - q14) * by) + (-xx - yy + zz + ww) * bz
        return (
            0.5 * (q4 * wx - q3 * wy + q2 * wz),
            0.5 * (q3 * wx + q4 * wy - q1 * wz),
            0.5 * (-q2 * wx + q1 * wy + q4 * wz),
            0.5 * (-q1 * wx - q2 * wy - q3 * wz),
            (gx * wy * wz + (my * v3 - mz * v2)) / ix,
            (gy * wz * wx + (mz * v1 - mx * v3)) / iy,
            (gz * wx * wy + (mx * v2 - my * v1)) / iz,
        )

    return f


def _rk4_interval(x: tuple, m: tuple, b: tuple, inertia: tuple, h: float, substeps: int,
                  tape: list | None) -> tuple:
    """`substeps` RK4 steps of length h from x under one held dipole m and field b.

    Returns the end state. Each step evaluates the interval's right-hand side
    at x and at the stage states xa, xb and xc, renormalizes the new
    quaternion and, given a tape, appends the step's record (x, xa, xb, xc,
    new state, pre-renormalization norm; 36 floats). Every value is a local
    scalar: x0..x6 is the state, r, s, t and u are the slopes k1..k4 and n
    the new state.
    """
    f = _rhs(m, b, inertia)
    sqrt = math.sqrt
    h2 = 0.5 * h
    h6 = h / 6.0
    x0, x1, x2, x3, x4, x5, x6 = x
    for _ in range(substeps):
        r0, r1, r2, r3, r4, r5, r6 = f(x0, x1, x2, x3, x4, x5, x6)
        xa0 = x0 + h2 * r0
        xa1 = x1 + h2 * r1
        xa2 = x2 + h2 * r2
        xa3 = x3 + h2 * r3
        xa4 = x4 + h2 * r4
        xa5 = x5 + h2 * r5
        xa6 = x6 + h2 * r6
        s0, s1, s2, s3, s4, s5, s6 = f(xa0, xa1, xa2, xa3, xa4, xa5, xa6)
        xb0 = x0 + h2 * s0
        xb1 = x1 + h2 * s1
        xb2 = x2 + h2 * s2
        xb3 = x3 + h2 * s3
        xb4 = x4 + h2 * s4
        xb5 = x5 + h2 * s5
        xb6 = x6 + h2 * s6
        t0, t1, t2, t3, t4, t5, t6 = f(xb0, xb1, xb2, xb3, xb4, xb5, xb6)
        xc0 = x0 + h * t0
        xc1 = x1 + h * t1
        xc2 = x2 + h * t2
        xc3 = x3 + h * t3
        xc4 = x4 + h * t4
        xc5 = x5 + h * t5
        xc6 = x6 + h * t6
        u0, u1, u2, u3, u4, u5, u6 = f(xc0, xc1, xc2, xc3, xc4, xc5, xc6)
        n0 = x0 + h6 * (r0 + u0 + 2.0 * (s0 + t0))
        n1 = x1 + h6 * (r1 + u1 + 2.0 * (s1 + t1))
        n2 = x2 + h6 * (r2 + u2 + 2.0 * (s2 + t2))
        n3 = x3 + h6 * (r3 + u3 + 2.0 * (s3 + t3))
        norm = sqrt(n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3)
        n0 = n0 / norm
        n1 = n1 / norm
        n2 = n2 / norm
        n3 = n3 / norm
        n4 = x4 + h6 * (r4 + u4 + 2.0 * (s4 + t4))
        n5 = x5 + h6 * (r5 + u5 + 2.0 * (s5 + t5))
        n6 = x6 + h6 * (r6 + u6 + 2.0 * (s6 + t6))
        if tape is not None:
            tape.append((x0, x1, x2, x3, x4, x5, x6, xa0, xa1, xa2, xa3, xa4, xa5, xa6,
                         xb0, xb1, xb2, xb3, xb4, xb5, xb6, xc0, xc1, xc2, xc3, xc4, xc5, xc6,
                         n0, n1, n2, n3, n4, n5, n6, norm))
        x0, x1, x2, x3, x4, x5, x6 = n0, n1, n2, n3, n4, n5, n6
    return x0, x1, x2, x3, x4, x5, x6


# Constant coefficient tensors of the stage Jacobian [df/dx | df/dm]. a @ _CROSS
# is the cross-product matrix of a, flattened: a x w = (a @ _CROSS).reshape(3, 3) @ w.
# The gyroscopic entry d(w_i dot)/d(w_j) is g_i w_l, with g_x = (Iy - Iz)/Ix
# and cyclic, where i, j, l are distinct: where _GYRO[l, i, j] is 1. _KIN and
# _DVDQ are read off `_rhs` with a unit imaginary step, exact for terms of
# degree at most two in the stepped input: the kinematic rows are x @ _KIN,
# and dv/dq = q @ (b @ _DVDQ) for the body-frame field v = R(q) b. At unit
# inertia and zero rate the torque rows are m x v, so m = e_x gives
# (0, -v3, v2) and m = e_z gives (-v2, v1, 0), exactly.
_CROSS = np.cross(np.eye(3)[:, None], np.eye(3)).transpose(0, 2, 1).reshape(3, 9)
_GYRO = np.abs(_CROSS).reshape(3, 3, 3)
_UNIT = np.eye(7)
_KIN = np.zeros((7, 7, 10))
_KIN[..., :7] = np.imag([[_rhs((0, 0, 0), (0, 0, 0), (1, 1, 1))(*(_UNIT[l] + 1j * _UNIT[j]))
                          for j in range(7)] for l in range(7)]).transpose(0, 2, 1)
_TORQUE = np.imag([[[[_rhs(e, d, (1, 1, 1))(*(_UNIT[a, :4] + 1j * _UNIT[j, :4]), 0, 0, 0)[4:]
                      for j in range(4)] for a in range(4)] for d in _UNIT[:3, :3]]
                   for e in _UNIT[(0, 2), :3]])
_DVDQ = np.stack([_TORQUE[1, ..., 1], _TORQUE[0, ..., 2], -_TORQUE[0, ..., 1]], axis=-1)
_DVDQ = _DVDQ.transpose(0, 1, 3, 2).reshape(3, 48)


def _stage_jacobians(xs: np.ndarray, m: np.ndarray, b: np.ndarray, inertia: tuple) -> np.ndarray:
    """[df/dx | df/dm] of `_rhs` at the stage states xs, shape (p, n, 7) -> (p, n, 7, 10).

    xs[k] holds stages of interval k, which holds the dipole m[k] and the
    orbital-frame field b[k]. The kinematic rows and the gyroscopic entries
    are linear in the state; the torque rows are I^-1 [m]x dv/dq and the
    dipole columns -I^-1 [v]x, with v = (1/2) (dv/dq) q since v is
    homogeneous of degree two in q.
    """
    ix, iy, iz = inertia
    inv = np.array(((1.0 / ix,), (1.0 / iy,), (1.0 / iz,)))
    kin = _KIN.copy()
    kin[4:, 4:, 4:7] = _GYRO * [[(iy - iz) / ix], [(iz - ix) / iy], [(ix - iy) / iz]]
    shape = xs.shape[:2]
    jac = (xs @ kin.reshape(7, 70)).reshape(shape + (7, 10))
    q = xs[..., :4]
    dvdq = (q @ (b @ _DVDQ).reshape(-1, 4, 12)).reshape(shape + (3, 4))
    jac[..., 4:, :4] = (inv * (m @ _CROSS).reshape(-1, 1, 3, 3)) @ dvdq
    v = 0.5 * (dvdq @ q[..., None])[..., 0]
    jac[..., 4:, 7:] = -inv * (v @ _CROSS).reshape(shape + (3, 3))
    return jac


def sensitivity(tape, m: np.ndarray, b: np.ndarray, inertia: tuple, ts: float) -> np.ndarray:
    """d(x_1..x_p)/d(m_0..m_{p-1}) of an `integrate` rollout, shape (7p, 3p), from its tape.

    m and b are the rollout's dipoles and orbital-frame fields, shape (p, 3).
    The tape becomes one (p, substeps, 36) array in a single pass. The
    right-hand side's Jacobians [df/dx | df/dm] at every recorded stage come
    from constant coefficient tensors (`_stage_jacobians`), in a fixed handful
    of array operations. They are composed into each step's Jacobian, passed
    through the renormalization q <- q/|q| (Jacobian (I - n n')/|q|)
    and chained into each interval's (7, 10) map of (start state, dipole).
    Those are chained over the intervals into the block lower-triangular
    sensitivity of every interval-end state to every dipole.
    """
    p = len(m)
    substeps = len(tape) // p
    h = ts / substeps
    recs = np.fromiter(itertools.chain.from_iterable(tape), float, 36 * len(tape))
    recs = recs.reshape(p, substeps, 36)
    xs = recs[..., :28].reshape(p, 4 * substeps, 7)
    jac = _stage_jacobians(xs, m, b, inertia).reshape(p, substeps, 4, 7, 10)
    # the RK4 tableau on the stage Jacobians, then the renormalization
    a = jac[..., :7]
    k1 = jac[:, :, 0]
    k2 = jac[:, :, 1] + (0.5 * h) * (a[:, :, 1] @ k1)
    k3 = jac[:, :, 2] + (0.5 * h) * (a[:, :, 2] @ k2)
    k4 = jac[:, :, 3] + h * (a[:, :, 3] @ k3)
    phi = (h / 6.0) * (k1 + k4 + 2.0 * (k2 + k3))
    phi[..., :7] += np.eye(7)
    n, norm = recs[..., 28:32], recs[..., 35, None, None]
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
