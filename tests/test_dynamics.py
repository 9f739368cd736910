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
from magsat.dynamics import _deriv, body_field

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
    return np.array(_deriv(floats(q) + floats(w), ZERO, ZERO, UNIT_INERTIA)[0:4])


def angular_acceleration(w, inertia: InertiaTensor) -> np.ndarray:
    """Rows 4-6 of the right-hand side with zero dipole: torque-free Euler equations."""
    x = IDENTITY + floats(w)
    return np.array(_deriv(x, ZERO, (3e-5, -1e-5, 2e-5), inertia.as_tuple())[4:7])


def torque(m, b) -> np.ndarray:
    """m x B from the right-hand side: identity attitude, zero rate, unit inertia."""
    return np.array(_deriv(IDENTITY + ZERO, floats(m), floats(b), UNIT_INERTIA)[4:7])


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """Direction cosine matrix of the orbital-to-body quaternion (scalar-last).

    Independent numpy oracle for `body_field`: v_body = R(q) @ v_orbital.
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
])
def test_blowup_within_interval_carries_substep_time(via, rate, t_fail, table_inertia):
    # at 1e10 rad/s substep 1 of 4 stays finite (rates near 1e100) and
    # substep 2 overflows, so the failure time is 12 + 2 * 0.5, not the
    # interval end 14. At 10 rad/s the 5th substep is the first non-finite
    # one: interval 1, substep 1, so 12 + 1 * 2 + 1 * 0.5. The plant (two
    # chained intervals) and the prediction (p = 2) report it alike
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([rate, rate, 0]))
    field_at = constant_field([0, 0, 1e-5])
    with pytest.raises(IntegrationDivergedError) as err:
        if via == "propagate":
            for t0 in (12.0, 14.0):
                state = ms.propagate(state, DipoleCommand(np.zeros(3)), field_at, t0, 2.0, 4,
                                     table_inertia)
        else:
            cfg = ms.MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=2, ts=2.0,
                               u_max=0.1, x_ref=AttitudeState(q=IDENTITY, omega=ZERO))
            ms.predict(state, ms.ControlSequence(np.zeros((2, 3))), field_at, 12.0, cfg,
                       table_inertia, substeps=4)
    assert err.value.t == t_fail
    assert str(err.value) == f"state became non-finite at t={t_fail}"


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
            tau0 = np.cross(m.m, body_field(tuple(state.q), tuple(field_at(k * h).b)))
            p0 = float(np.dot(tau0, state.omega))
            state = ms.propagate(state, m, field_at, k * h, h, 1, table_inertia)
            tau1 = np.cross(m.m, body_field(tuple(state.q), tuple(field_at((k + 1) * h).b)))
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
        via_scalar = np.array(body_field(tuple(q), tuple(b)))
        via_matrix = rotation_matrix(q) @ b
        np.testing.assert_allclose(via_scalar, via_matrix, atol=1e-19, rtol=1e-12)
