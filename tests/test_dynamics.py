import math
import tracemalloc

import numpy as np
import pytest

import magsat as ms
from magsat import (
    AttitudeState,
    DipoleCommand,
    FieldSample,
    InertiaTensor,
    IntegrationDivergedError,
)
from magsat.dynamics import _DVDQ, _KIN, _body_field, _rhs, _stage_jacobians, integrate

IDENTITY = (0.0, 0.0, 0.0, 1.0)
UNIT_INERTIA = (1.0, 1.0, 1.0)
ZERO = (0.0, 0.0, 0.0)


def constant_field(b):
    b = np.asarray(b, dtype=float)

    def field_at(t):
        return FieldSample(b.copy())

    return field_at


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def floats(v) -> tuple:
    return tuple(np.asarray(v, dtype=float).tolist())


def quaternion_rate(q, w) -> np.ndarray:
    """Rows 0-3 of the right-hand side: the kinematics M(q) * omega."""
    return np.array(_rhs(floats(q) + floats(w), ZERO, ZERO, UNIT_INERTIA)[0:4])


def angular_acceleration(w, inertia: InertiaTensor) -> np.ndarray:
    """Rows 4-6 of the right-hand side with zero dipole: torque-free Euler equations."""
    x = IDENTITY + floats(w)
    return np.array(_rhs(x, ZERO, (3e-5, -1e-5, 2e-5), inertia.as_tuple())[4:7])


def torque(m, b) -> np.ndarray:
    """m x B from the right-hand side: identity attitude, zero rate, unit inertia."""
    return np.array(_rhs(IDENTITY + ZERO, floats(m), floats(b), UNIT_INERTIA)[4:7])


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """Direction cosine matrix of the orbital-to-body quaternion (scalar-last).

    Independent numpy oracle for `_body_field`: v_body = R(q) @ v_orbital.
    """
    q = np.asarray(q, dtype=float)
    q1, q2, q3, q4 = q / np.linalg.norm(q)
    return np.array(
        [
            [
                q1 * q1 - q2 * q2 - q3 * q3 + q4 * q4,
                2.0 * (q1 * q2 + q3 * q4),
                2.0 * (q1 * q3 - q2 * q4),
            ],
            [
                2.0 * (q1 * q2 - q3 * q4),
                -q1 * q1 + q2 * q2 - q3 * q3 + q4 * q4,
                2.0 * (q2 * q3 + q1 * q4),
            ],
            [
                2.0 * (q1 * q3 + q2 * q4),
                2.0 * (q2 * q3 - q1 * q4),
                -q1 * q1 - q2 * q2 + q3 * q3 + q4 * q4,
            ],
        ]
    )


def kinetic_energy(state: AttitudeState, inertia: InertiaTensor) -> float:
    wx, wy, wz = state.omega
    return 0.5 * (inertia.ix * wx**2 + inertia.iy * wy**2 + inertia.iz * wz**2)


# --- types -------------------------------------------------------------------

def test_attitude_state_rejects_non_finite():
    with pytest.raises(ValueError):
        AttitudeState(q=np.array([np.nan, 0, 0, 1]), omega=np.zeros(3))
    with pytest.raises(ValueError):
        AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([np.inf, 0, 0]))


def test_attitude_state_shape_checks():
    with pytest.raises(ValueError):
        AttitudeState(q=np.zeros(3), omega=np.zeros(3))
    with pytest.raises(ValueError):
        AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(4))


def test_inertia_rejects_non_positive():
    with pytest.raises(ValueError):
        InertiaTensor(0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        InertiaTensor(0.1, -0.1, 0.1)


def test_inertia_rejects_triangle_violation():
    with pytest.raises(ValueError):
        InertiaTensor(0.01, 0.01, 0.1)


def test_table_inertia_is_valid(table_inertia):
    assert table_inertia.as_tuple() == (0.020, 0.030, 0.040)


def test_dipole_command_validation():
    with pytest.raises(ValueError):
        DipoleCommand(np.array([np.nan, 0, 0]))
    with pytest.raises(ValueError):
        DipoleCommand(np.zeros(4))


# --- quaternion kinematics (rows 0-3 of the right-hand side) -----------------

def test_quat_kinematics_zero_rate():
    assert np.array_equal(quaternion_rate(IDENTITY, np.zeros(3)), np.zeros(4))


def test_quat_kinematics_identity_quaternion_half_rate():
    np.testing.assert_allclose(quaternion_rate(IDENTITY, [0.2, 0, 0]), [0.1, 0, 0, 0], atol=1e-16)


def test_quat_kinematics_orthogonal_to_quaternion():
    rng = np.random.default_rng(42)
    for _ in range(200):
        q = random_unit_quaternion(rng)
        w = rng.normal(size=3)
        qdot = quaternion_rate(q, w)
        assert abs(float(np.dot(q, qdot))) < 1e-12


# --- magnetic torque (right-hand side at identity, zero rate, unit inertia) ---

def test_magnetic_torque_parallel_vectors_vanish():
    for c in (1.0, -3.5, 1e-4):
        assert np.array_equal(torque([0.1, 0.0, 0.0], [c * 0.1, 0.0, 0.0]), np.zeros(3))


def test_magnetic_torque_unit_cross_product():
    np.testing.assert_array_equal(torque([1.0, 0.0, 0.0], [0.0, 1e-5, 0.0]), [0.0, 0.0, 1e-5])


def test_magnetic_torque_hand_expansion():
    # componentwise cross product evaluated by hand:
    #   (m_y*B_z - m_z*B_y, m_z*B_x - m_x*B_z, m_x*B_y - m_y*B_x)
    m = np.array([0.1, -0.05, 0.02])
    b = np.array([1e-5, 2e-5, -3e-5])
    tau = torque(m, b)
    np.testing.assert_allclose(tau, [1.1e-6, 3.2e-6, 2.5e-6], rtol=1e-12)
    scale = np.linalg.norm(tau) * np.linalg.norm(b)
    assert abs(float(np.dot(tau, b))) <= 1e-15 * scale
    assert abs(float(np.dot(tau, m))) <= 1e-15 * np.linalg.norm(tau) * np.linalg.norm(m)


def test_magnetic_torque_perpendicularity_random():
    # round-off scale is |m||B|^2: near-parallel pairs have |tau| << |m||B|,
    # so normalizing by |tau||B| would amplify pure floating-point noise
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = rng.normal(size=3) * 0.1
        b = rng.normal(size=3) * 1e-5
        tau = torque(m, b)
        scale = float(np.linalg.norm(m)) * float(np.linalg.norm(b)) ** 2
        assert abs(float(np.dot(tau, b))) <= 1e-15 * scale


# --- Euler dynamics (rows 4-6 of the right-hand side, zero dipole) -------------

def test_euler_dynamics_equilibrium(table_inertia):
    assert np.array_equal(angular_acceleration(np.zeros(3), table_inertia), np.zeros(3))


def test_euler_dynamics_spherical_inertia_no_gyroscopic():
    inertia = InertiaTensor(0.05, 0.05, 0.05)
    rng = np.random.default_rng(3)
    for _ in range(20):
        out = angular_acceleration(rng.normal(size=3), inertia)
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)


def test_euler_dynamics_table_inertia_case(table_inertia):
    # substitute (Ix, Iy, Iz) = (0.020, 0.030, 0.040), w = (1, 1, 0), tau = 0:
    # wz_dot = (Ix - Iy) * wx * wy / Iz = (0.020 - 0.030) / 0.040 = -0.25
    out = angular_acceleration([1.0, 1.0, 0.0], table_inertia)
    np.testing.assert_allclose(out, [0.0, 0.0, -0.25], rtol=1e-14)


# --- integrator: one RK4 step is propagate(..., substeps=1, ...) ----------------

def test_step_fixed_point(table_inertia):
    field_at = constant_field([2e-5, -1e-5, 3e-5])
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    out = ms.propagate(state, DipoleCommand(np.zeros(3)), field_at, 0.0, 0.1, 1, table_inertia)
    np.testing.assert_allclose(out.q, state.q, atol=1e-15)
    np.testing.assert_allclose(out.omega, state.omega, atol=1e-15)


def test_step_torque_free_spherical_spin_conserves_rate():
    inertia = InertiaTensor(0.05, 0.05, 0.05)
    field_at = constant_field([2e-5, 0.0, -1e-5])
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([0.1, 0, 0]))
    m = DipoleCommand(np.zeros(3))
    w0 = np.linalg.norm(state.omega)
    for k in range(1000):
        state = ms.propagate(state, m, field_at, k * 0.1, 0.1, 1, inertia)
    assert abs(np.linalg.norm(state.omega) - w0) < 1e-10


def test_step_torque_free_axisymmetric_precession_conserves_rate():
    # axisymmetric body: the transverse rate precesses but |omega| is constant
    inertia = InertiaTensor(0.03, 0.03, 0.05)
    field_at = constant_field([2e-5, 0.0, -1e-5])
    state = AttitudeState(
        q=np.array([0, 0, 0, 1.0]), omega=np.array([0.08, -0.05, 0.12])
    )
    m = DipoleCommand(np.zeros(3))
    w0 = np.linalg.norm(state.omega)
    wz0 = state.omega[2]
    for k in range(2000):
        state = ms.propagate(state, m, field_at, k * 0.1, 0.1, 1, inertia)
    assert abs(np.linalg.norm(state.omega) - w0) < 1e-10
    assert abs(state.omega[2] - wz0) < 1e-12
    # it did precess
    assert abs(state.omega[0] - 0.08) > 1e-3


def test_step_quaternion_renormalized(table_inertia):
    rng = np.random.default_rng(11)
    field_at = constant_field([3e-5, 1e-5, -2e-5])
    state = AttitudeState(q=random_unit_quaternion(rng), omega=rng.normal(size=3) * 0.1)
    m = DipoleCommand(rng.uniform(-0.1, 0.1, size=3))
    for k in range(100):
        state = ms.propagate(state, m, field_at, k * 0.5, 0.5, 1, table_inertia)
        assert abs(np.linalg.norm(state.q) - 1.0) < 1e-12


def test_step_norm_drift_long_run(table_inertia):
    field_at = constant_field([3e-5, 1e-5, -2e-5])
    state = AttitudeState(
        q=np.array([0.5, -0.5, 0.5, 0.5]), omega=np.array([0.05, -0.07, 0.03])
    )
    m = DipoleCommand(np.array([0.1, -0.1, 0.1]))
    for k in range(2000):
        state = ms.propagate(state, m, field_at, k * 0.1, 0.1, 1, table_inertia)
    assert abs(np.linalg.norm(state.q) - 1.0) < 1e-12


def test_step_rejects_nonpositive_dt(table_inertia):
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    with pytest.raises(ValueError):
        ms.propagate(state, DipoleCommand(np.zeros(3)), constant_field([0, 0, 1e-5]),
                     0.0, 0.0, 1, table_inertia)


def test_step_blowup_carries_time(table_inertia):
    # a 1e160 rad/s rate overflows the gyroscopic term within one step
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([1e160, 1e160, 0]))
    with pytest.raises(IntegrationDivergedError) as err:
        ms.propagate(state, DipoleCommand(np.zeros(3)), constant_field([0, 0, 1e-5]),
                     12.5, 0.5, 1, table_inertia)
    # the error carries the end time of the substep that went non-finite
    assert err.value.t == 13.0


@pytest.mark.parametrize("via, rate, t_fail", [
    pytest.param("propagate", 1e10, 13.0, id="propagate"),
    pytest.param("predict", 1e10, 13.0, id="predict"),
    pytest.param("propagate", 10.0, 14.5, id="propagate-interval-1"),
    pytest.param("predict", 10.0, 14.5, id="predict-interval-1"),
    pytest.param("rollout", 1e10, 13.0, id="rollout"),
    pytest.param("rollout", 10.0, 14.5, id="rollout-interval-1"),
    pytest.param("rollout-3", 10.0, 14.5, id="rollout-3-intervals-interval-1"),
    pytest.param("propagate", 12.0, 14.0, id="propagate-last-substep"),
    pytest.param("rollout", 12.0, 14.0, id="rollout-last-substep"),
    pytest.param("rollout-3", 9.1, 16.0, id="rollout-3-intervals-last-substep-of-interval-1"),
])
def test_blowup_within_interval_carries_substep_time(via, rate, t_fail, table_inertia):
    # at 1e10 rad/s substep 1 of 4 stays finite (rates near 1e100) and
    # substep 2 overflows, so the failure time is 12 + 2 * 0.5, not the
    # interval end 14. At 10 rad/s the 5th substep is the first non-finite
    # one: interval 1, substep 1, so 12 + 1 * 2 + 1 * 0.5. The plant (two
    # chained intervals), the prediction (p = 2) and a taped rollout, as the
    # solver makes, report it alike. A 3-interval rollout checks finiteness
    # only on its last state, where intervals 1 and 2 both end non-finite: it
    # must find the first of them, interval 1, and not the last. At 12 rad/s
    # the 4th substep, the last of interval 0, is the first non-finite one
    # (t = 14), and at 9.1 rad/s the 8th, the last of interval 1 (t = 16), so
    # an off-by-one at the interval's end fails
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([rate, rate, 0]))
    field_at = constant_field([0, 0, 1e-5])
    with pytest.raises(IntegrationDivergedError) as err:
        if via == "propagate":
            for t0 in (12.0, 14.0):
                state = ms.propagate(state, DipoleCommand(np.zeros(3)), field_at, t0, 2.0, 4,
                                     table_inertia)
        elif via.startswith("rollout"):
            p = 3 if via == "rollout-3" else 2
            integrate(state.as_array(), np.zeros((p, 3)), np.array([[0, 0, 1e-5]] * p),
                      table_inertia.as_tuple(), 2.0, 4, 12.0, tape=[])
        else:
            cfg = ms.MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=2, ts=2.0,
                               u_max=0.1, x_ref=AttitudeState(q=IDENTITY, omega=ZERO))
            ms.predict(state, ms.ControlSequence(np.zeros((2, 3))), field_at, 12.0, cfg,
                       table_inertia, substeps=4)
    assert err.value.t == t_fail
    assert str(err.value) == f"state became non-finite at t={t_fail}"


def test_taped_and_untaped_rollouts_agree(table_inertia):
    # the tape only records the steps: the states are bitwise the same with
    # and without one, and it holds one 36-float record per RK4 step
    rng = np.random.default_rng(17)
    x0 = np.concatenate([random_unit_quaternion(rng), rng.normal(size=3) * 0.05])
    m = rng.uniform(-0.1, 0.1, size=(3, 3))
    b = rng.uniform(-3e-5, 3e-5, size=(3, 3))
    args = (x0, m, b, table_inertia.as_tuple(), 10.0, 7, 0.0)
    tape = []
    taped = integrate(*args, tape=tape)
    np.testing.assert_array_equal(taped, integrate(*args))
    assert len(tape) == 3 * 7
    assert all(len(rec) == 36 for rec in tape)
    np.testing.assert_array_equal(tape[-1][28:35], taped[-1])


def test_plant_keeps_no_tape(table_inertia):
    # an untaped interval holds one step's stages at a time, so its peak
    # memory does not grow with the substep count (a kept tape of 8000
    # 36-float records would take several MiB)
    state = AttitudeState(q=np.array([0.5, -0.5, 0.5, 0.5]), omega=np.array([0.05, -0.07, 0.03]))
    m = DipoleCommand(np.array([0.1, -0.1, 0.1]))
    field_at = constant_field([3e-5, 1e-5, -2e-5])
    tracemalloc.start()
    try:
        ms.propagate(state, m, field_at, 0.0, 10.0, 8000, table_inertia)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_propagate_matches_repeated_steps(table_inertia):
    field_at = constant_field([2.5e-5, -1.5e-5, 0.5e-5])
    rng = np.random.default_rng(5)
    state = AttitudeState(q=random_unit_quaternion(rng), omega=rng.normal(size=3) * 0.05)
    m = DipoleCommand(np.array([0.08, -0.02, 0.05]))
    via_propagate = ms.propagate(state, m, field_at, 0.0, 2.0, 4, table_inertia)
    via_steps = state
    for k in range(4):
        via_steps = ms.propagate(via_steps, m, field_at, k * 0.5, 0.5, 1, table_inertia)
    np.testing.assert_array_equal(via_propagate.q, via_steps.q)
    np.testing.assert_array_equal(via_propagate.omega, via_steps.omega)


def test_propagate_validates_arguments(table_inertia):
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    m = DipoleCommand(np.zeros(3))
    for duration in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="interval length must be finite and positive"):
            ms.propagate(state, m, constant_field([0, 0, 1e-5]), 0.0, duration, 4,
                         table_inertia)
    with pytest.raises(ValueError, match="substeps must be >= 1"):
        ms.propagate(state, m, constant_field([0, 0, 1e-5]), 0.0, 1.0, 0, table_inertia)
    # a float (even a whole one) or a bool is not a substep count
    for substeps in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="substeps must be an integer"):
            ms.propagate(state, m, constant_field([0, 0, 1e-5]), 0.0, 1.0, substeps,
                         table_inertia)
    # a numpy integer is one, and steps exactly as the int does
    spin = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([0.1, -0.2, 0.3]))
    via_int = ms.propagate(spin, m, constant_field([0, 0, 1e-5]), 0.0, 1.0, 3, table_inertia)
    via_numpy = ms.propagate(spin, m, constant_field([0, 0, 1e-5]), 0.0, 1.0, np.int64(3),
                             table_inertia)
    np.testing.assert_array_equal(via_numpy.as_array(), via_int.as_array())


def _smoke_trajectory_end(dt, steps, inertia):
    field_at = constant_field([3e-5, -1e-5, 2e-5])
    state = AttitudeState(
        q=np.array([0, 0, 0, 1.0]), omega=np.array([0.3, -0.2, 0.25])
    )
    m = DipoleCommand(np.array([0.1, 0.1, -0.1]))
    for k in range(steps):
        state = ms.propagate(state, m, field_at, k * dt, dt, 1, inertia)
    return state.as_array()


def test_step_fourth_order_convergence(table_inertia):
    # halving dt should shrink the end-state change by ~16x (4th order)
    dt = 0.5
    x1 = _smoke_trajectory_end(dt, 100, table_inertia)
    x2 = _smoke_trajectory_end(dt / 2, 200, table_inertia)
    x4 = _smoke_trajectory_end(dt / 4, 400, table_inertia)
    err_coarse = np.linalg.norm(x1 - x2)
    err_fine = np.linalg.norm(x2 - x4)
    assert err_fine > 0
    assert err_coarse / err_fine >= 15.0


def test_work_energy_consistency(table_inertia):
    # kinetic-energy change per step equals the integral of tau . omega; the
    # residual shrinks ~16x per step halving (Richardson check against a
    # fine-step work quadrature)
    b = np.array([3e-5, -1e-5, 2e-5])
    field_at = constant_field(b)
    m = DipoleCommand(np.array([0.1, -0.08, 0.06]))
    x0 = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([0.25, -0.15, 0.2]))
    dt = 1.0

    def work_and_energy(n_sub):
        # trapezoid on tau . omega sampled along an n_sub-step trajectory
        state = x0
        h = dt / n_sub
        work = 0.0
        for k in range(n_sub):
            tau0 = np.cross(m.m, _body_field(tuple(state.q), tuple(field_at(k * h).b)))
            p0 = float(np.dot(tau0, state.omega))
            state = ms.propagate(state, m, field_at, k * h, h, 1, table_inertia)
            tau1 = np.cross(m.m, _body_field(tuple(state.q), tuple(field_at((k + 1) * h).b)))
            p1 = float(np.dot(tau1, state.omega))
            work += 0.5 * h * (p0 + p1)
        return work, kinetic_energy(state, table_inertia)

    ref_work, _ = work_and_energy(2000)
    ke0 = kinetic_energy(x0, table_inertia)
    _, ke_coarse = work_and_energy(1)
    _, ke_fine = work_and_energy(2)
    res_coarse = abs(ke_coarse - ke0 - ref_work)
    res_fine = abs(ke_fine - ke0 - ref_work)
    assert res_coarse < 1e-9  # absolute sanity: the two estimates agree closely
    assert res_fine < res_coarse / 8.0


# --- internal consistency ---------------------------------------------------------

def test_body_field_matches_rotation_matrix():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        b = rng.normal(size=3) * 1e-5
        via_scalar = np.array(_body_field(tuple(q), tuple(b)))
        via_matrix = rotation_matrix(q) @ b
        np.testing.assert_allclose(via_scalar, via_matrix, atol=1e-19, rtol=1e-12)


def test_stage_jacobians_match_complex_step_of_deriv():
    # `_rhs` is plain arithmetic, so a 1e-30j step along one input gives
    # that column of [df/dx | df/dm] to rounding; a sign or index slip in the
    # constant tensors would show as an O(1) error in some row
    rng = np.random.default_rng(2024)
    p, n, step = 3, 5, 1e-30
    xs = rng.normal(size=(p, n, 7))  # quaternions deliberately not unit
    m, b = rng.normal(size=(p, 3)), rng.normal(size=(p, 3))
    inertia = (0.6, 1.1, 1.7)
    jac = _stage_jacobians(xs, m, b, inertia)
    exact = np.empty_like(jac)
    for k, i, j in np.ndindex(p, n, 10):
        x, mk = xs[k, i].astype(complex), m[k].astype(complex)
        if j < 7:
            x[j] += step * 1j
        else:
            mk[j - 7] += step * 1j
        exact[k, i, :, j] = np.imag(_rhs(x, mk, b[k], inertia)) / step
    row_scale = np.abs(exact).max(axis=-1, keepdims=True)
    assert np.all(np.abs(jac - exact) <= 1e-13 * row_scale)


# --- bitwise oracle: the RK4 tableau one step per call ------------------------------
# A slow reference: the rotation, the right-hand side and one RK4 step, each a
# plain function of tuples. The interval kernel must keep their float
# operations in their order, so its states and tape match these bit for bit.

def _oracle_body_field(q, b):
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


def _oracle_deriv(x, m, b, inertia):
    q1, q2, q3, q4, wx, wy, wz = x
    mx, my, mz = m
    ix, iy, iz = inertia
    v1, v2, v3 = _oracle_body_field((q1, q2, q3, q4), b)
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


def test_rhs_matches_oracle_deriv_bitwise():
    # `_rhs` is the reference: the kernel's in-place stages copy its
    # arithmetic and the stage Jacobians' tensors are read off it, so it must
    # be the oracle's bit for bit, at non-unit q and any dipole, field and
    # inertia. Some draws have zero rate or zero dipole, so that a rounding
    # change in the torque or the gyroscopic term is not lost in the other
    rng = np.random.default_rng(23)
    for _ in range(300):
        w = rng.normal(size=3) * rng.choice([0.0, 0.3])
        x = tuple(np.concatenate([rng.normal(size=4), w]).tolist())
        m = tuple((rng.uniform(-1.0, 1.0, size=3) * rng.choice([0.0, 0.1])).tolist())
        b = tuple(rng.uniform(-1.0, 1.0, size=3).tolist())
        inertia = tuple(rng.uniform(0.5, 2.0, size=3).tolist())
        got = np.array(_rhs(x, m, b, inertia))
        assert got.tobytes() == np.array(_oracle_deriv(x, m, b, inertia)).tobytes()


def test_stage_tables_equal_the_oracles_unit_imaginary_step_tables():
    # the tables are read off `_rhs` and `_body_field`; read the same way off
    # the oracle, they must come out equal entry for entry, not only to the
    # rounding that `test_stage_jacobians_match_complex_step_of_deriv` allows
    unit = np.eye(7)
    kin = np.imag([[_oracle_deriv(unit[l] + 1j * unit[j], ZERO, ZERO, UNIT_INERTIA)
                    for j in range(7)] for l in range(7)])
    assert np.array_equal(_KIN[..., :7], kin.transpose(0, 2, 1))
    dvdq = np.imag([[[_oracle_body_field(unit[a, :4] + 1j * unit[j, :4], d) for j in range(4)]
                     for a in range(4)] for d in unit[:3, :3]])
    assert np.array_equal(_DVDQ, dvdq.transpose(0, 1, 3, 2).reshape(3, 48))


def _rk4_stages(x, m, b, inertia, h):
    """One RK4 step from x: (xa, xb, xc, renormalized new state, pre-renormalization norm)."""
    def axpy(a, y, k):
        return tuple(yi + a * ki for yi, ki in zip(y, k))

    h2 = 0.5 * h
    r = _oracle_deriv(x, m, b, inertia)
    xa = axpy(h2, x, r)
    s = _oracle_deriv(xa, m, b, inertia)
    xb = axpy(h2, x, s)
    t = _oracle_deriv(xb, m, b, inertia)
    xc = axpy(h, x, t)
    u = _oracle_deriv(xc, m, b, inertia)
    h6 = h / 6.0
    new = tuple(xi + h6 * (ri + ui + 2.0 * (si + ti)) for xi, ri, si, ti, ui in zip(x, r, s, t, u))
    norm = math.sqrt(new[0] * new[0] + new[1] * new[1] + new[2] * new[2] + new[3] * new[3])
    return xa, xb, xc, tuple(qi / norm for qi in new[:4]) + new[4:], norm


@pytest.mark.parametrize("substeps", [1, 3, 20, 800])
@pytest.mark.parametrize("inertia", ["table", "random"])
def test_integrate_matches_step_by_step_oracle_bitwise(substeps, inertia, table_inertia):
    # interval-end states, taped and untaped, and every 36-float tape record
    # are the oracle's bit for bit
    rng = np.random.default_rng(1000 + substeps)
    inertia = (table_inertia.as_tuple() if inertia == "table"
               else tuple(rng.uniform(1.0, 2.0, size=3).tolist()))
    # torque and gyroscopic terms of a like size, and rates and steps large
    # enough that a reassociated sum in the kernel reaches the state's last bits
    p, ts, t0 = 4, 1.0, 3.0
    x0 = np.concatenate([rng.normal(size=4), rng.normal(size=3) * 0.3])  # q not unit
    m = rng.uniform(-0.05, 0.05, size=(p, 3))
    b = rng.uniform(-0.05, 0.05, size=(p, 3))
    tape = []
    states = integrate(x0, m, b, inertia, ts, substeps, t0, tape=tape)

    h = ts / substeps
    x = tuple(x0.tolist())
    expected_states, expected_tape = [x], []
    for mk, bk in zip(m.tolist(), b.tolist()):
        for _ in range(substeps):
            xa, xb, xc, new, norm = _rk4_stages(x, mk, bk, inertia, h)
            expected_tape.append((*x, *xa, *xb, *xc, *new, norm))
            x = new
        expected_states.append(x)
    assert states.tobytes() == np.array(expected_states).tobytes()
    assert len(tape) == p * substeps
    assert np.array(tape).tobytes() == np.array(expected_tape).tobytes()
    assert integrate(x0, m, b, inertia, ts, substeps, t0).tobytes() == states.tobytes()


def test_integrate_matches_oracle_bitwise_over_many_short_rollouts():
    # one reassociated product in one RK4 stage moves an end state's last bit
    # in only a few percent of draws, so many short rollouts: some with one
    # rate component exactly 0, some at the attitude preset's step (Ts 30 s
    # in 3 substeps, rates near 0.01 rad/s, table-sized inertia and torque)
    rng = np.random.default_rng(31)
    for draw in range(600):
        slew = draw % 2 == 0
        ts, substeps = (30.0, 3) if slew else (1.0, int(rng.integers(1, 4)))
        w = rng.normal(size=3) * (0.01 if slew else 0.3)
        if draw % 3 == 0:
            w[draw % 9 // 3] = 0.0
        x0 = np.concatenate([rng.normal(size=4), w])  # q not unit
        scale = (0.1, 5e-5) if slew else (0.05, 0.05)
        m, b = (rng.uniform(-s, s, size=(2, 3)) for s in scale)
        inertia = tuple(rng.uniform(*((0.02, 0.04) if slew else (1.0, 2.0)), size=3).tolist())
        x = tuple(x0.tolist())
        expected = [x]
        for mk, bk in zip(m.tolist(), b.tolist()):
            for _ in range(substeps):
                x = _rk4_stages(x, mk, bk, inertia, ts / substeps)[3]
            expected.append(x)
        got = integrate(x0, m, b, inertia, ts, substeps, 0.0)
        assert got.tobytes() == np.array(expected).tobytes(), draw
