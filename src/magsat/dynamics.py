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

Integration is fixed-step classical RK4. The orbital-frame field is held
constant over an integration window (zero-order hold) and rotated into the
body frame at every internal stage with that stage's quaternion. The
quaternion is renormalized after every step.

`_deriv` is the only right-hand side and `body_field` the only
orbital-to-body rotation; both work on plain float tuples. The plant
(`propagate`) and the MPC prediction step with the same `_rk4_stages`, so
they agree bit for bit at equal substep counts.
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
    """Integrate over [t0, t0 + duration] in `substeps` RK4 steps.

    The orbital-frame field is sampled once at t0 and held over the whole
    window (one controller interval in closed loop); each internal stage
    still rotates it with the current quaternion. `substeps=1` is a single
    RK4 step. A non-finite state raises IntegrationDivergedError carrying the
    end time of the substep that produced it.
    """
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    b = tuple(field_at(t0).b.tolist())
    mt = tuple(m.m.tolist())
    it = inertia.as_tuple()
    h = duration / substeps
    x = tuple(state.as_array().tolist())
    for j in range(substeps):
        x = _rk4_stages(x, mt, b, it, h)[0]
        if not all(math.isfinite(v) for v in x):
            raise IntegrationDivergedError(
                f"state became non-finite at t={t0 + (j + 1) * h}", t=t0 + (j + 1) * h
            )
    return AttitudeState(q=np.array(x[0:4]), omega=np.array(x[4:7]))


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
