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

`_body_field` is the reference orbital-to-body rotation v = R(q) b, and
`_rhs` the reference right-hand side: a plain function of the state, the
dipole, the orbital-frame field and the inertia that calls `_body_field`.
`_rk4_rollout` runs every RK4 step of a whole rollout in one call, with each
stage value a local float, and evaluates each slope in place with `_rhs`'s
arithmetic written out in the same order, so no call is made per stage; the
tests hold all three to one step-by-step oracle bit for bit. `integrate` is
the only rollout of such a sequence: the plant (`propagate`) is a
one-interval call and the MPC prediction a p-interval one, so they agree bit
for bit at equal substep counts and fail at the same substep. A caller that
will build a Jacobian passes a tape, and `integrate` appends one flat record
of 36 floats per RK4 step to it; `sensitivity` turns the tape into the
Jacobian of every interval-end state w.r.t. every dipole. Only the solver's
rollouts keep a tape: the plant and the prediction keep none, so an
800-substep plant interval holds no more than one step's stages at a time.
The right-hand side's Jacobian at every stage comes from a few constant
coefficient tensors, read off `_rhs` and `_body_field` at import, so it is
not written twice.
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
    of ts / substeps. All p * substeps steps run in one `_rk4_rollout` call.
    Returns the p+1 interval-end states, shape (p+1, 7) with x first. A
    caller that will build a Jacobian (`sensitivity`) passes a list as
    `tape`, and every step appends its flat record (x, xa, xb, xc, new state,
    norm; 36 floats) to it, in order, p * substeps of them; the next step
    starts from each record's new state. Without a tape each step's stages
    are dropped as soon as the next step starts.
    Finiteness is checked once per rollout, on the last state, since a
    non-finite component stays non-finite through every later step. If that
    state is not finite, the first interval whose end state is not finite is
    stepped again from its start state in one kernel call, as `substeps`
    one-step intervals, which keeps every step's end state; the first
    non-finite one's end time goes into IntegrationDivergedError.
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
    m, b = m.tolist(), b.tolist()
    states = _rk4_rollout(tuple(x.tolist()), m, b, inertia, h, substeps, tape)
    if not all(map(math.isfinite, states[-1])):
        k = next(k for k, x in enumerate(states) if not all(map(math.isfinite, x))) - 1
        steps = _rk4_rollout(states[k], m[k:k + 1] * substeps, b[k:k + 1] * substeps, inertia,
                             h, 1, None)
        j = next(j for j, x in enumerate(steps) if not all(map(math.isfinite, x)))
        t = t0 + k * ts + j * h
        raise IntegrationDivergedError(f"state became non-finite at t={t}", t=t)
    return np.array(states)


def _body_field(q, b) -> tuple:
    """The orbital-frame field b in body axes, v = R(q) b.

    R(q) is the direction cosine matrix of the orbital-to-body quaternion
    (q1..q4, scalar-last), written out for any q, unit or not. It is the
    reference rotation: `_rhs` calls it, `_DVDQ` is read off it and
    `_rk4_rollout` writes this arithmetic out in place, in the same order.
    """
    q1, q2, q3, q4 = q
    bx, by, bz = b
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
    return (
        (xx - yy - zz + ww) * bx + 2.0 * ((q12 + q34) * by + (q13 - q24) * bz),
        2.0 * ((q12 - q34) * bx + (q23 + q14) * bz) + (-xx + yy - zz + ww) * by,
        2.0 * ((q13 + q24) * bx + (q23 - q14) * by) + (-xx - yy + zz + ww) * bz,
    )


def _rhs(x, m, b, inertia) -> tuple:
    """The 7 derivatives of the state x = (q1..q4, wx, wy, wz) under dipole m in field b.

    b is the orbital-frame field, rotated into body axes by `_body_field`.
    It is the reference right-hand side: `_KIN` is read off it and
    `_rk4_rollout` writes this arithmetic out in place, in the same order.
    """
    q1, q2, q3, q4, wx, wy, wz = x
    mx, my, mz = m
    ix, iy, iz = inertia
    v1, v2, v3 = _body_field((q1, q2, q3, q4), b)
    return (
        0.5 * (q4 * wx - q3 * wy + q2 * wz),
        0.5 * (q3 * wx + q4 * wy - q1 * wz),
        0.5 * (-q2 * wx + q1 * wy + q4 * wz),
        0.5 * (-q1 * wx - q2 * wy - q3 * wz),
        ((iy - iz) * wy * wz + (my * v3 - mz * v2)) / ix,
        ((iz - ix) * wz * wx + (mz * v1 - mx * v3)) / iy,
        ((ix - iy) * wx * wy + (mx * v2 - my * v1)) / iz,
    )


def _rk4_rollout(x: tuple, m: list, b: list, inertia: tuple, h: float, substeps: int,
                 tape: list | None) -> list:
    """`substeps` RK4 steps of length h per held interval (m[k], b[k]) from x.

    Returns the interval-end states, x first. Each step evaluates the
    right-hand side at x and at the stage states xa, xb and xc, renormalizes
    the new quaternion and, given a tape, appends the step's record (x, xa,
    xb, xc, new state, pre-renormalization norm; 36 floats). Every value is a
    local scalar: x0..x6 is the state, r, s, t and u are the slopes k1..k4
    and n the new state. Each slope is `_rhs`'s arithmetic written out in
    place, in the same order, so no call or tuple is made per stage.
    """
    ix, iy, iz = inertia
    gx, gy, gz = iy - iz, iz - ix, ix - iy
    sqrt = math.sqrt
    h2 = 0.5 * h
    h6 = h / 6.0
    x0, x1, x2, x3, x4, x5, x6 = x
    states = [x]
    for (mx, my, mz), (bx, by, bz) in zip(m, b):
        for _ in range(substeps):
            # r = f(x), `_rhs`'s body
            xx = x0 * x0
            yy = x1 * x1
            zz = x2 * x2
            ww = x3 * x3
            q12 = x0 * x1
            q34 = x2 * x3
            q13 = x0 * x2
            q24 = x1 * x3
            q23 = x1 * x2
            q14 = x0 * x3
            v1 = (xx - yy - zz + ww) * bx + 2.0 * ((q12 + q34) * by + (q13 - q24) * bz)
            v2 = 2.0 * ((q12 - q34) * bx + (q23 + q14) * bz) + (-xx + yy - zz + ww) * by
            v3 = 2.0 * ((q13 + q24) * bx + (q23 - q14) * by) + (-xx - yy + zz + ww) * bz
            r0 = 0.5 * (x3 * x4 - x2 * x5 + x1 * x6)
            r1 = 0.5 * (x2 * x4 + x3 * x5 - x0 * x6)
            r2 = 0.5 * (-x1 * x4 + x0 * x5 + x3 * x6)
            r3 = 0.5 * (-x0 * x4 - x1 * x5 - x2 * x6)
            r4 = (gx * x5 * x6 + (my * v3 - mz * v2)) / ix
            r5 = (gy * x6 * x4 + (mz * v1 - mx * v3)) / iy
            r6 = (gz * x4 * x5 + (mx * v2 - my * v1)) / iz
            xa0 = x0 + h2 * r0
            xa1 = x1 + h2 * r1
            xa2 = x2 + h2 * r2
            xa3 = x3 + h2 * r3
            xa4 = x4 + h2 * r4
            xa5 = x5 + h2 * r5
            xa6 = x6 + h2 * r6
            # s = f(xa)
            xx = xa0 * xa0
            yy = xa1 * xa1
            zz = xa2 * xa2
            ww = xa3 * xa3
            q12 = xa0 * xa1
            q34 = xa2 * xa3
            q13 = xa0 * xa2
            q24 = xa1 * xa3
            q23 = xa1 * xa2
            q14 = xa0 * xa3
            v1 = (xx - yy - zz + ww) * bx + 2.0 * ((q12 + q34) * by + (q13 - q24) * bz)
            v2 = 2.0 * ((q12 - q34) * bx + (q23 + q14) * bz) + (-xx + yy - zz + ww) * by
            v3 = 2.0 * ((q13 + q24) * bx + (q23 - q14) * by) + (-xx - yy + zz + ww) * bz
            s0 = 0.5 * (xa3 * xa4 - xa2 * xa5 + xa1 * xa6)
            s1 = 0.5 * (xa2 * xa4 + xa3 * xa5 - xa0 * xa6)
            s2 = 0.5 * (-xa1 * xa4 + xa0 * xa5 + xa3 * xa6)
            s3 = 0.5 * (-xa0 * xa4 - xa1 * xa5 - xa2 * xa6)
            s4 = (gx * xa5 * xa6 + (my * v3 - mz * v2)) / ix
            s5 = (gy * xa6 * xa4 + (mz * v1 - mx * v3)) / iy
            s6 = (gz * xa4 * xa5 + (mx * v2 - my * v1)) / iz
            xb0 = x0 + h2 * s0
            xb1 = x1 + h2 * s1
            xb2 = x2 + h2 * s2
            xb3 = x3 + h2 * s3
            xb4 = x4 + h2 * s4
            xb5 = x5 + h2 * s5
            xb6 = x6 + h2 * s6
            # t = f(xb)
            xx = xb0 * xb0
            yy = xb1 * xb1
            zz = xb2 * xb2
            ww = xb3 * xb3
            q12 = xb0 * xb1
            q34 = xb2 * xb3
            q13 = xb0 * xb2
            q24 = xb1 * xb3
            q23 = xb1 * xb2
            q14 = xb0 * xb3
            v1 = (xx - yy - zz + ww) * bx + 2.0 * ((q12 + q34) * by + (q13 - q24) * bz)
            v2 = 2.0 * ((q12 - q34) * bx + (q23 + q14) * bz) + (-xx + yy - zz + ww) * by
            v3 = 2.0 * ((q13 + q24) * bx + (q23 - q14) * by) + (-xx - yy + zz + ww) * bz
            t0 = 0.5 * (xb3 * xb4 - xb2 * xb5 + xb1 * xb6)
            t1 = 0.5 * (xb2 * xb4 + xb3 * xb5 - xb0 * xb6)
            t2 = 0.5 * (-xb1 * xb4 + xb0 * xb5 + xb3 * xb6)
            t3 = 0.5 * (-xb0 * xb4 - xb1 * xb5 - xb2 * xb6)
            t4 = (gx * xb5 * xb6 + (my * v3 - mz * v2)) / ix
            t5 = (gy * xb6 * xb4 + (mz * v1 - mx * v3)) / iy
            t6 = (gz * xb4 * xb5 + (mx * v2 - my * v1)) / iz
            xc0 = x0 + h * t0
            xc1 = x1 + h * t1
            xc2 = x2 + h * t2
            xc3 = x3 + h * t3
            xc4 = x4 + h * t4
            xc5 = x5 + h * t5
            xc6 = x6 + h * t6
            # u = f(xc)
            xx = xc0 * xc0
            yy = xc1 * xc1
            zz = xc2 * xc2
            ww = xc3 * xc3
            q12 = xc0 * xc1
            q34 = xc2 * xc3
            q13 = xc0 * xc2
            q24 = xc1 * xc3
            q23 = xc1 * xc2
            q14 = xc0 * xc3
            v1 = (xx - yy - zz + ww) * bx + 2.0 * ((q12 + q34) * by + (q13 - q24) * bz)
            v2 = 2.0 * ((q12 - q34) * bx + (q23 + q14) * bz) + (-xx + yy - zz + ww) * by
            v3 = 2.0 * ((q13 + q24) * bx + (q23 - q14) * by) + (-xx - yy + zz + ww) * bz
            u0 = 0.5 * (xc3 * xc4 - xc2 * xc5 + xc1 * xc6)
            u1 = 0.5 * (xc2 * xc4 + xc3 * xc5 - xc0 * xc6)
            u2 = 0.5 * (-xc1 * xc4 + xc0 * xc5 + xc3 * xc6)
            u3 = 0.5 * (-xc0 * xc4 - xc1 * xc5 - xc2 * xc6)
            u4 = (gx * xc5 * xc6 + (my * v3 - mz * v2)) / ix
            u5 = (gy * xc6 * xc4 + (mz * v1 - mx * v3)) / iy
            u6 = (gz * xc4 * xc5 + (mx * v2 - my * v1)) / iz
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
                             xb0, xb1, xb2, xb3, xb4, xb5, xb6, xc0, xc1, xc2, xc3, xc4, xc5,
                             xc6, n0, n1, n2, n3, n4, n5, n6, norm))
            x0, x1, x2, x3, x4, x5, x6 = n0, n1, n2, n3, n4, n5, n6
        states.append((x0, x1, x2, x3, x4, x5, x6))
    return states


# Constant coefficient tensors of the stage Jacobian [df/dx | df/dm]. a @ _CROSS
# is the cross-product matrix of a, flattened: a x w = (a @ _CROSS).reshape(3, 3) @ w.
# The gyroscopic entry d(w_i dot)/d(w_j) is g_i w_l, with g_x = (Iy - Iz)/Ix
# and cyclic, where i, j, l are distinct: where _GYRO[l, i, j] is 1. _KIN is
# read off `_rhs` and _DVDQ off `_body_field` with a unit imaginary step,
# exact for terms of degree at most two in the stepped input: the kinematic
# rows are x @ _KIN, and dv/dq = q @ (b @ _DVDQ) for v = R(q) b.
_CROSS = np.cross(np.eye(3)[:, None], np.eye(3)).transpose(0, 2, 1).reshape(3, 9)
_GYRO = np.abs(_CROSS).reshape(3, 3, 3)
_UNIT = np.eye(7)
_KIN = np.zeros((7, 7, 10))
_KIN[..., :7] = np.imag([[_rhs(_UNIT[l] + 1j * _UNIT[j], (0, 0, 0), (0, 0, 0), (1, 1, 1))
                          for j in range(7)] for l in range(7)]).transpose(0, 2, 1)
_DVDQ = np.imag([[[_body_field(_UNIT[a, :4] + 1j * _UNIT[j, :4], d) for j in range(4)]
                  for a in range(4)] for d in _UNIT[:3, :3]])
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
