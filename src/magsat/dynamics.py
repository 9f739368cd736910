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
stage value a local float, and evaluates each slope in place, so no call is
made per stage. It computes `_rhs`'s values, bit for bit, with `_rhs`'s
power-of-two factors folded into the step sizes and the field; the tests
hold all three to one step-by-step oracle bit for bit. `_rk4.c` is
`_rk4_rollout` in C, every float operation in its order: `_rk4` builds it
at import, checks it against `_rk4_rollout` and loads it with ctypes, and
`integrate` runs `_rk4.rollout`, the compiled kernel where it loaded and
`_rk4_rollout` where it did not, with the same states and tape either way.
`integrate` is the only rollout of such a sequence: the plant (`propagate`)
is a one-interval call, and the MPC prediction and each of the solver's
evaluations, the all-zero start's included, a p-interval one, so they agree
bit for bit at equal substep counts and fail at the same substep. A
caller that will build a Jacobian passes a tape, and `integrate` appends one
packed record of 33 doubles per RK4 step to it; `sensitivity` turns the tape
into the Jacobian of every interval-end state w.r.t. every dipole, in
`_rk4.c` where it loaded, else in its numpy reference in `_rk4`: ordered
sums either way, so its bytes do not depend on BLAS.
Only the solver's rollouts keep a tape: the plant and the prediction keep
none, so an 800-substep plant interval holds no more than one step's stages
at a time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _rk4
from .errors import IntegrationDivergedError, _finite, _step_count, store_finite
from .orbit import FieldSample


@dataclass(frozen=True)
class AttitudeState:
    """Unit quaternion (scalar-last) plus body angular velocity in rad/s."""

    q: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        store_finite(self, "q", (4,))
        store_finite(self, "omega", (3,))

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
        if not all(_finite(v) and v > 0.0 for v in vals):
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
        store_finite(self, "m", (3,))


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
    of ts / substeps. All p * substeps steps run in one kernel call,
    `_rk4.rollout`: the compiled `_rk4.c` where it loaded, else `_rk4_rollout`.
    Returns the p+1 interval-end states, shape (p+1, 7) with x first. A
    caller that will build a Jacobian (`sensitivity`) passes a list as
    `tape`, and every step appends its record (x, xa, xb, xc, the new
    renormalized quaternion, norm), packed as 33 doubles in one `bytes`, to
    it, in order, p * substeps of them; each record's x is the state the
    step before it ended at. The record holds only what `sensitivity`
    reads. Without a tape each step's stages are dropped as soon as the next
    step starts.
    Finiteness is checked once per rollout, on the last state, since a
    non-finite component stays non-finite through every later step; a
    quaternion whose norm before renormalization is zero becomes NaN, so it
    is a divergence too. If the last state is not finite, the first
    interval whose end state is not finite is
    stepped again from its start state in one kernel call, as `substeps`
    one-step intervals, which keeps every step's end state; the first
    non-finite one's end time goes into IntegrationDivergedError.
    A ts that is not finite and positive raises ValueError, and so does a
    substep count that is not an integer (a bool or a float, even a whole
    one; numpy integers are accepted) or is below 1.
    """
    substeps = _step_count(ts, substeps)
    h = ts / substeps
    m, b = m.tolist(), b.tolist()
    states = _rk4.rollout(tuple(x.tolist()), m, b, inertia, h, substeps, tape)
    if not all(map(math.isfinite, states[-1])):
        k = next(k for k, x in enumerate(states) if not all(map(math.isfinite, x))) - 1
        steps = _rk4.rollout(states[k], m[k:k + 1] * substeps, b[k:k + 1] * substeps, inertia,
                             h, 1, None)
        j = next(j for j, x in enumerate(steps) if not all(map(math.isfinite, x)))
        t = t0 + k * ts + j * h
        raise IntegrationDivergedError(f"state became non-finite at t={t}", t=t)
    return np.array(states)


def _body_field(q, b) -> tuple:
    """The orbital-frame field b in body axes, v = R(q) b.

    R(q) is the direction cosine matrix of the orbital-to-body quaternion
    (q1..q4, scalar-last), written out for any q, unit or not. It is the
    reference rotation: `_rhs` calls it and `_rk4_rollout` computes its
    values in place, bit for bit.
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
    It is the reference right-hand side: `_rk4_rollout` computes its values
    in place, bit for bit, and the tests hold the stage Jacobians of
    `sensitivity` to its complex-step derivatives.
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


# one tape record: the 33 doubles of one RK4 step, in `_rk4_rollout`'s order
_pack = struct.Struct("33d").pack


def _rk4_rollout(x: tuple, m: list, b: list, inertia: tuple, h: float, substeps: int,
                 tape: list | None) -> list:
    """`substeps` RK4 steps of length h per held interval (m[k], b[k]) from x.

    Returns the interval-end states, x first. Each step evaluates the
    right-hand side at x and at the stage states xa, xb and xc, renormalizes
    the new quaternion and, given a tape, appends the step's record (x, xa,
    xb, xc, new quaternion, pre-renormalization norm) to it, packed as 33
    doubles. Every value is a local scalar: x0..x6 is the state, r, s, t and
    u are the slopes k1..k4 and n the new state. Each slope is written out in
    place, so no call or tuple is made per stage, and gives `_rhs`'s values,
    bit for bit. `_rhs`'s factors 0.5 and 2.0 are folded into the step sizes
    and the field, and a power of two moved between two factors leaves their
    product's rounding as it was: the kinematic r0..r3 (and s, t, u) hold
    twice the slope and are stepped by h4 = h2 / 2 and h12 = h6 / 2, and
    bx2, by2, bz2 are the field doubled once per interval. `yy - xx`,
    `x0 * x5 - x1 * x4` and `zz - (xx + yy)` round as `-xx + yy`,
    `-x1 * x4 + x0 * x5` and `-xx - yy + zz` do, signed zeros included (the
    last since a square is never -0.0). The fourth kinematic row keeps
    `_rhs`'s order: negating the sum would flip the sign of an exact zero.
    The folds could differ from `_rhs` only where a field product or a
    kinematic slope is subnormal or within a factor 2 of overflow.
    It is the reference that `_rk4.c` is checked against at import, and
    the kernel `integrate` runs where no build of that file loaded.
    """
    ix, iy, iz = inertia
    gx, gy, gz = iy - iz, iz - ix, ix - iy
    sqrt = math.sqrt
    pack = _pack
    h2 = 0.5 * h
    h4 = 0.5 * h2
    h6 = h / 6.0
    h12 = 0.5 * h6
    x0, x1, x2, x3, x4, x5, x6 = x
    states = [x]
    for (mx, my, mz), (bx, by, bz) in zip(m, b):
        bx2, by2, bz2 = 2.0 * bx, 2.0 * by, 2.0 * bz
        for _ in range(substeps):
            # r = f(x), `_rhs`'s values
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
            v1 = (xx - yy - zz + ww) * bx + ((q12 + q34) * by2 + (q13 - q24) * bz2)
            v2 = (q12 - q34) * bx2 + (q23 + q14) * bz2 + (yy - xx - zz + ww) * by
            v3 = (q13 + q24) * bx2 + (q23 - q14) * by2 + (zz - (xx + yy) + ww) * bz
            r0 = x3 * x4 - x2 * x5 + x1 * x6
            r1 = x2 * x4 + x3 * x5 - x0 * x6
            r2 = x0 * x5 - x1 * x4 + x3 * x6
            r3 = -x0 * x4 - x1 * x5 - x2 * x6
            r4 = (gx * x5 * x6 + (my * v3 - mz * v2)) / ix
            r5 = (gy * x6 * x4 + (mz * v1 - mx * v3)) / iy
            r6 = (gz * x4 * x5 + (mx * v2 - my * v1)) / iz
            xa0 = x0 + h4 * r0
            xa1 = x1 + h4 * r1
            xa2 = x2 + h4 * r2
            xa3 = x3 + h4 * r3
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
            v1 = (xx - yy - zz + ww) * bx + ((q12 + q34) * by2 + (q13 - q24) * bz2)
            v2 = (q12 - q34) * bx2 + (q23 + q14) * bz2 + (yy - xx - zz + ww) * by
            v3 = (q13 + q24) * bx2 + (q23 - q14) * by2 + (zz - (xx + yy) + ww) * bz
            s0 = xa3 * xa4 - xa2 * xa5 + xa1 * xa6
            s1 = xa2 * xa4 + xa3 * xa5 - xa0 * xa6
            s2 = xa0 * xa5 - xa1 * xa4 + xa3 * xa6
            s3 = -xa0 * xa4 - xa1 * xa5 - xa2 * xa6
            s4 = (gx * xa5 * xa6 + (my * v3 - mz * v2)) / ix
            s5 = (gy * xa6 * xa4 + (mz * v1 - mx * v3)) / iy
            s6 = (gz * xa4 * xa5 + (mx * v2 - my * v1)) / iz
            xb0 = x0 + h4 * s0
            xb1 = x1 + h4 * s1
            xb2 = x2 + h4 * s2
            xb3 = x3 + h4 * s3
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
            v1 = (xx - yy - zz + ww) * bx + ((q12 + q34) * by2 + (q13 - q24) * bz2)
            v2 = (q12 - q34) * bx2 + (q23 + q14) * bz2 + (yy - xx - zz + ww) * by
            v3 = (q13 + q24) * bx2 + (q23 - q14) * by2 + (zz - (xx + yy) + ww) * bz
            t0 = xb3 * xb4 - xb2 * xb5 + xb1 * xb6
            t1 = xb2 * xb4 + xb3 * xb5 - xb0 * xb6
            t2 = xb0 * xb5 - xb1 * xb4 + xb3 * xb6
            t3 = -xb0 * xb4 - xb1 * xb5 - xb2 * xb6
            t4 = (gx * xb5 * xb6 + (my * v3 - mz * v2)) / ix
            t5 = (gy * xb6 * xb4 + (mz * v1 - mx * v3)) / iy
            t6 = (gz * xb4 * xb5 + (mx * v2 - my * v1)) / iz
            xc0 = x0 + h2 * t0
            xc1 = x1 + h2 * t1
            xc2 = x2 + h2 * t2
            xc3 = x3 + h2 * t3
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
            v1 = (xx - yy - zz + ww) * bx + ((q12 + q34) * by2 + (q13 - q24) * bz2)
            v2 = (q12 - q34) * bx2 + (q23 + q14) * bz2 + (yy - xx - zz + ww) * by
            v3 = (q13 + q24) * bx2 + (q23 - q14) * by2 + (zz - (xx + yy) + ww) * bz
            u0 = xc3 * xc4 - xc2 * xc5 + xc1 * xc6
            u1 = xc2 * xc4 + xc3 * xc5 - xc0 * xc6
            u2 = xc0 * xc5 - xc1 * xc4 + xc3 * xc6
            u3 = -xc0 * xc4 - xc1 * xc5 - xc2 * xc6
            u4 = (gx * xc5 * xc6 + (my * v3 - mz * v2)) / ix
            u5 = (gy * xc6 * xc4 + (mz * v1 - mx * v3)) / iy
            u6 = (gz * xc4 * xc5 + (mx * v2 - my * v1)) / iz
            n0 = x0 + h12 * (r0 + u0 + 2.0 * (s0 + t0))
            n1 = x1 + h12 * (r1 + u1 + 2.0 * (s1 + t1))
            n2 = x2 + h12 * (r2 + u2 + 2.0 * (s2 + t2))
            n3 = x3 + h12 * (r3 + u3 + 2.0 * (s3 + t3))
            # a zero norm gives a NaN quaternion, which `integrate` reports
            norm = sqrt(n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3) or math.nan
            n0 = n0 / norm
            n1 = n1 / norm
            n2 = n2 / norm
            n3 = n3 / norm
            n4 = x4 + h6 * (r4 + u4 + 2.0 * (s4 + t4))
            n5 = x5 + h6 * (r5 + u5 + 2.0 * (s5 + t5))
            n6 = x6 + h6 * (r6 + u6 + 2.0 * (s6 + t6))
            if tape is not None:
                tape.append(pack(x0, x1, x2, x3, x4, x5, x6, xa0, xa1, xa2, xa3, xa4, xa5, xa6,
                                 xb0, xb1, xb2, xb3, xb4, xb5, xb6, xc0, xc1, xc2, xc3, xc4, xc5,
                                 xc6, n0, n1, n2, n3, norm))
            x0, x1, x2, x3, x4, x5, x6 = n0, n1, n2, n3, n4, n5, n6
        states.append((x0, x1, x2, x3, x4, x5, x6))
    return states


_rk4.load(_rk4_rollout)


def sensitivity(tape, m: np.ndarray, b: np.ndarray, ts: float, inertia: tuple) -> np.ndarray:
    """d(x_1..x_p)/d(m_0..m_{p-1}) of an `integrate` rollout, shape (7p, 3p), from its tape.

    m and b are the rollout's dipoles and orbital-frame fields, float arrays
    of shape (p, 3), and inertia its (ix, iy, iz). It runs `_rk4.sensitivity`:
    `_rk4.c`'s Jacobian where the build loaded, else its numpy reference
    `_rk4.reference_sensitivity`, with the same bytes either way. Each
    stage's [df/dx | df/dm] is written out entry by entry; the RK4 tableau,
    the renormalization q <- q/|q| and the chain over the steps and the
    intervals make every matrix product an ordered sum, with no BLAS call.
    """
    return _rk4.sensitivity(tape, m, b, ts, inertia)
