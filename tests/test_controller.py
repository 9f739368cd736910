import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import grid_levels

import magsat as ms
from magsat import (
    AttitudeState,
    ControlSequence,
    DipoleCommand,
    MpcConfig,
)
from magsat import controller
from magsat.controller import shift_warm_start
from magsat.dynamics import integrate, sensitivity
from magsat.scenario import load_config


@pytest.fixture(scope="module")
def field_at(sso_elements):
    return ms.field_function(sso_elements)


@pytest.fixture(scope="module")
def detumble_cfg():
    return MpcConfig(
        q_diag=np.array([0.0, 0.0, 0.0, 0.0, 500.0, 1000.0, 250.0]),
        r_diag=np.array([1e-8, 1e-8, 1e-8]),
        horizon=10,
        ts=2.0,
        u_max=0.1,
        x_ref=AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3)),
    )


def random_instance(rng, horizon):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x0 = AttitudeState(q=q, omega=rng.uniform(-0.08, 0.08, size=3))
    qref = rng.normal(size=4)
    qref /= np.linalg.norm(qref)
    cfg = MpcConfig(
        q_diag=rng.uniform(0.0, 1000.0, size=7),
        r_diag=np.full(3, 1e-8),
        horizon=horizon,
        ts=2.0,
        u_max=0.1,
        x_ref=AttitudeState(q=qref, omega=np.zeros(3)),
    )
    t0 = float(rng.uniform(0.0, 5400.0))
    return x0, cfg, t0


# --- config validation -------------------------------------------------------------

def test_mpc_config_rejects_negative_state_weight():
    with pytest.raises(ValueError):
        MpcConfig(q_diag=np.array([-1.0, 0, 0, 0, 0, 0, 0]), r_diag=np.ones(3),
                  horizon=1, ts=1.0, u_max=0.1,
                  x_ref=AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3)))


def test_mpc_config_rejects_nonpositive_control_weight():
    with pytest.raises(ValueError):
        MpcConfig(q_diag=np.zeros(7), r_diag=np.array([0.0, 1.0, 1.0]),
                  horizon=1, ts=1.0, u_max=0.1,
                  x_ref=AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3)))


def test_mpc_config_rejects_denormalized_reference():
    with pytest.raises(ValueError):
        MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=1, ts=1.0,
                  u_max=0.1,
                  x_ref=AttitudeState(q=np.array([0, 0.1, 0, 1.0]), omega=np.zeros(3)))


def test_mpc_config_rejects_bad_horizon_and_times():
    x_ref = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    with pytest.raises(ValueError):
        MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=0, ts=1.0,
                  u_max=0.1, x_ref=x_ref)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=horizon, ts=1.0,
                      u_max=0.1, x_ref=x_ref)
    with pytest.raises(ValueError):
        MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=1, ts=0.0,
                  u_max=0.1, x_ref=x_ref)
    with pytest.raises(ValueError):
        MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=1, ts=1.0,
                  u_max=0.0, x_ref=x_ref)


def test_control_sequence_validation():
    with pytest.raises(ValueError):
        ControlSequence(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ControlSequence(np.full((2, 3), np.nan))
    assert len(ControlSequence(np.zeros((4, 3)))) == 4


def test_shift_warm_start_repeats_last():
    seq = ControlSequence(np.arange(12, dtype=float).reshape(4, 3))
    shifted = shift_warm_start(seq)
    np.testing.assert_array_equal(shifted.dipoles[0:3], seq.dipoles[1:4])
    np.testing.assert_array_equal(shifted.dipoles[3], seq.dipoles[3])


# --- prediction ----------------------------------------------------------------------

def test_predict_equilibrium_stays_put(field_at, detumble_cfg, table_inertia):
    x0 = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    seq = ControlSequence(np.zeros((10, 3)))
    states = ms.predict(x0, seq, field_at, 0.0, detumble_cfg, table_inertia, substeps=5)
    assert states.shape == (11, 7)
    np.testing.assert_allclose(states[:, :4], np.tile(x0.q, (11, 1)), atol=1e-15)
    np.testing.assert_allclose(states[:, 4:], np.zeros((11, 3)), atol=1e-18)


def test_predict_equals_chained_integrator(field_at, table_inertia):
    # each prediction interval is one plant `propagate` over Ts with the
    # field re-sampled at that interval's start, bit for bit
    rng = np.random.default_rng(61)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x0 = AttitudeState(q=q, omega=rng.uniform(-0.05, 0.05, size=3))
    cfg = MpcConfig(q_diag=np.zeros(7), r_diag=np.ones(3), horizon=3, ts=2.0,
                    u_max=0.1,
                    x_ref=AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3)))
    u = np.array([[0.07, -0.03, 0.05], [-0.1, 0.02, 0.0], [0.04, 0.1, -0.06]])
    states = ms.predict(x0, ControlSequence(u), field_at, 100.0, cfg, table_inertia, substeps=20)
    direct = x0
    np.testing.assert_array_equal(states[0], x0.as_array())
    for k in range(3):
        direct = ms.propagate(direct, DipoleCommand(u[k]), field_at, 100.0 + 2.0 * k, 2.0, 20,
                              table_inertia)
        np.testing.assert_array_equal(states[k + 1], direct.as_array())


def test_predict_substep_halving_agrees(field_at, detumble_cfg, table_inertia):
    rng = np.random.default_rng(67)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x0 = AttitudeState(q=q, omega=rng.uniform(-0.08, 0.08, size=3))
    seq = ControlSequence(rng.uniform(-0.1, 0.1, size=(10, 3)))
    t1 = ms.predict(x0, seq, field_at, 0.0, detumble_cfg, table_inertia, substeps=10)
    t2 = ms.predict(x0, seq, field_at, 0.0, detumble_cfg, table_inertia, substeps=20)
    assert np.max(np.abs(t1[-1] - t2[-1])) < 1e-9


# The relative horizon-cost error of the PREDICTION_SUBSTEPS prediction
# against a 20-substep one, as stated above PREDICTION_SUBSTEPS and in README
# "Conventions".
DOCUMENTED_PREDICTION_ERROR = {"detumble-paper": 2.2e-9, "attitude-paper": 2.3e-5}


@pytest.mark.parametrize("name", sorted(DOCUMENTED_PREDICTION_ERROR))
def test_prediction_error_within_documented_bound(name):
    cfg = load_config(name)
    field = ms.field_function(cfg.elements)
    rng = np.random.default_rng(83)
    for _ in range(4):
        seq = ControlSequence(rng.uniform(-cfg.mpc.u_max, cfg.mpc.u_max, size=(cfg.mpc.horizon, 3)))
        costs = [
            ms.total_cost(ms.predict(cfg.x0, seq, field, 0.0, cfg.mpc, cfg.inertia, substeps=n),
                          seq, cfg.mpc)
            for n in (controller.PREDICTION_SUBSTEPS, 20)
        ]
        assert abs(costs[0] - costs[1]) <= DOCUMENTED_PREDICTION_ERROR[name] * costs[1]


def test_predict_rejects_length_mismatch(field_at, detumble_cfg, table_inertia):
    x0 = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    with pytest.raises(ValueError):
        ms.predict(x0, ControlSequence(np.zeros((3, 3))), field_at, 0.0,
                   detumble_cfg, table_inertia)


def test_cost_and_gradient_reject_length_mismatch(field_at, detumble_cfg, table_inertia):
    x0 = detumble_cfg.x_ref
    seq = ControlSequence(np.zeros((10, 3)))
    short = ControlSequence(np.zeros((3, 3)))
    states = ms.predict(x0, seq, field_at, 0.0, detumble_cfg, table_inertia)
    with pytest.raises(ValueError, match="sequence length 3"):
        ms.total_cost(states, short, detumble_cfg)
    with pytest.raises(ValueError, match="trajectory has 4 states"):
        ms.total_cost(states[:4], seq, detumble_cfg)
    with pytest.raises(ValueError, match="sequence length 3"):
        ms.gradient(x0, short, 0.0, field_at, detumble_cfg, table_inertia)


@pytest.mark.parametrize("call", ["solve", "predict", "gradient"])
def test_solver_functions_reject_zero_substeps(call, field_at, detumble_cfg, table_inertia):
    # the one rollout checks its arguments, so every caller rejects a bad
    # substep count with ValueError rather than dividing by zero
    x0 = detumble_cfg.x_ref
    seq = ControlSequence(np.zeros((detumble_cfg.horizon, 3)))
    calls = {
        "solve": lambda: ms.solve(x0, 0.0, field_at, detumble_cfg, table_inertia, substeps=0),
        "predict": lambda: ms.predict(x0, seq, field_at, 0.0, detumble_cfg, table_inertia,
                                      substeps=0),
        "gradient": lambda: ms.gradient(x0, seq, 0.0, field_at, detumble_cfg, table_inertia,
                                        substeps=0),
    }
    with pytest.raises(ValueError, match="substeps must be >= 1"):
        calls[call]()


# --- cost ------------------------------------------------------------------------------

def test_total_cost_zero_at_reference(field_at, detumble_cfg, table_inertia):
    x0 = detumble_cfg.x_ref
    seq = ControlSequence(np.zeros((10, 3)))
    traj = ms.predict(x0, seq, field_at, 0.0, detumble_cfg, table_inertia, substeps=5)
    assert ms.total_cost(traj, seq, detumble_cfg) == 0.0


def test_total_cost_single_step_rate_weight():
    # one step, only the x-rate weighted at 500, error 0.01 rad/s, Ts = 2 s:
    # J = 500 * 0.01^2 * 2 = 0.1
    x_ref = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    cfg = MpcConfig(q_diag=np.array([0, 0, 0, 0, 500.0, 0, 0]), r_diag=np.ones(3),
                    horizon=1, ts=2.0, u_max=0.1, x_ref=x_ref)
    states = np.array([[0, 0, 0, 1.0, 0, 0, 0], [0, 0, 0, 1.0, 0.01, 0, 0]])
    seq = ControlSequence(np.zeros((1, 3)))
    assert math.isclose(ms.total_cost(states, seq, cfg), 0.1, rel_tol=1e-12)


def test_total_cost_linear_in_state_weights(field_at, table_inertia):
    rng = np.random.default_rng(71)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x0 = AttitudeState(q=q, omega=rng.uniform(-0.05, 0.05, size=3))
    x_ref = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    qd = rng.uniform(0.0, 100.0, size=7)
    seq = ControlSequence(np.zeros((3, 3)))
    costs = []
    for scale in (1.0, 2.0):
        cfg = MpcConfig(q_diag=scale * qd, r_diag=np.ones(3), horizon=3, ts=2.0,
                        u_max=0.1, x_ref=x_ref)
        traj = ms.predict(x0, seq, field_at, 0.0, cfg, table_inertia, substeps=5)
        costs.append(ms.total_cost(traj, seq, cfg))
    assert math.isclose(costs[1], 2.0 * costs[0], rel_tol=1e-12)


def test_total_cost_nonnegative_random(field_at, table_inertia):
    rng = np.random.default_rng(73)
    for _ in range(10):
        x0, cfg, t0 = random_instance(rng, horizon=2)
        seq = ControlSequence(rng.uniform(-0.1, 0.1, size=(2, 3)))
        traj = ms.predict(x0, seq, field_at, t0, cfg, table_inertia, substeps=5)
        assert ms.total_cost(traj, seq, cfg) >= 0.0


# --- gradient ----------------------------------------------------------------------------

def central_difference_gradient(x0, seq, t0, field_at, cfg, inertia, substeps):
    h = 1e-6 * cfg.u_max
    out = np.zeros_like(seq.dipoles)
    for i in range(seq.dipoles.shape[0]):
        for j in range(3):
            up = seq.dipoles.copy()
            dn = seq.dipoles.copy()
            up[i, j] += h
            dn[i, j] -= h
            sp = ControlSequence(up)
            sn = ControlSequence(dn)
            jp = ms.total_cost(
                ms.predict(x0, sp, field_at, t0, cfg, inertia, substeps=substeps),
                sp, cfg,
            )
            jn = ms.total_cost(
                ms.predict(x0, sn, field_at, t0, cfg, inertia, substeps=substeps),
                sn, cfg,
            )
            out[i, j] = (jp - jn) / (2.0 * h)
    return out


def test_gradient_zero_at_reference(field_at, detumble_cfg, table_inertia):
    x0 = detumble_cfg.x_ref
    seq = ControlSequence(np.zeros((10, 3)))
    g = ms.gradient(x0, seq, 0.0, field_at, detumble_cfg, table_inertia, substeps=5)
    assert np.max(np.abs(g)) < 1e-10


def test_gradient_matches_central_differences(field_at, table_inertia):
    # relative error taken in norm: the difference-quotient oracle carries an
    # absolute roundoff floor of ~J*eps/h that swamps tiny components
    rng = np.random.default_rng(79)
    for trial in range(12):
        horizon = int(rng.integers(1, 4))
        x0, cfg, t0 = random_instance(rng, horizon)
        seq = ControlSequence(rng.uniform(-0.09, 0.09, size=(horizon, 3)))
        g = ms.gradient(x0, seq, t0, field_at, cfg, table_inertia, substeps=5)
        fd = central_difference_gradient(x0, seq, t0, field_at, cfg, table_inertia, 5)
        assert np.linalg.norm(g - fd) < 1e-4 * np.linalg.norm(fd)


def test_gradient_control_penalty_scales_with_r(field_at, table_inertia):
    rng = np.random.default_rng(83)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x0 = AttitudeState(q=q, omega=rng.uniform(-0.05, 0.05, size=3))
    x_ref = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.zeros(3))
    seq = ControlSequence(rng.uniform(-0.08, 0.08, size=(2, 3)))
    grads = []
    for r in (1e-4, 1e-3):
        cfg = MpcConfig(q_diag=np.full(7, 10.0), r_diag=np.full(3, r), horizon=2,
                        ts=2.0, u_max=0.1, x_ref=x_ref)
        grads.append(ms.gradient(x0, seq, 0.0, field_at, cfg, table_inertia, substeps=5))
    # trajectory is unchanged by R, so the gradient difference is exactly the
    # control-penalty difference 2*Ts*(R2 - R1)*u
    expected = 2.0 * 2.0 * (1e-3 - 1e-4) * seq.dipoles
    np.testing.assert_allclose(grads[1] - grads[0], expected, rtol=1e-9)


# --- solve ----------------------------------------------------------------------------------

def test_solve_at_reference_returns_zero_control(field_at, detumble_cfg, table_inertia):
    res = ms.solve(detumble_cfg.x_ref, 0.0, field_at, detumble_cfg, table_inertia,
                   substeps=5)
    assert res.cost <= 0.0 + 1e-300
    assert res.zero_cost == 0.0
    assert np.max(np.abs(res.command.m)) <= 1e-6 * detumble_cfg.u_max
    assert res.stop_reason == "converged"
    assert not res.degraded
    assert res.iterations == 0


def test_solve_respects_box_and_candidates(field_at, table_inertia):
    rng = np.random.default_rng(89)
    for _ in range(5):
        x0, cfg, t0 = random_instance(rng, horizon=3)
        warm = ControlSequence(rng.uniform(-0.1, 0.1, size=(3, 3)))
        res = ms.solve(x0, t0, field_at, cfg, table_inertia, warm=warm, substeps=5)
        assert np.max(np.abs(res.sequence.dipoles)) <= cfg.u_max
        assert res.cost <= res.zero_cost
        assert res.warm_cost is not None
        assert res.cost <= res.warm_cost


def test_solve_cost_matches_public_cost_function(field_at, table_inertia):
    rng = np.random.default_rng(97)
    x0, cfg, t0 = random_instance(rng, horizon=3)
    res = ms.solve(x0, t0, field_at, cfg, table_inertia, substeps=5)
    traj = ms.predict(x0, res.sequence, field_at, t0, cfg, table_inertia, substeps=5)
    assert ms.total_cost(traj, res.sequence, cfg) == res.cost


def test_solve_deterministic(field_at, table_inertia):
    rng = np.random.default_rng(101)
    x0, cfg, t0 = random_instance(rng, horizon=3)
    r1 = ms.solve(x0, t0, field_at, cfg, table_inertia, substeps=5)
    r2 = ms.solve(x0, t0, field_at, cfg, table_inertia, substeps=5)
    np.testing.assert_array_equal(r1.sequence.dipoles, r2.sequence.dipoles)
    assert r1.cost == r2.cost
    assert r1.iterations == r2.iterations


def test_solve_detumble_first_step_reduces_rates(field_at, detumble_cfg, table_inertia):
    x0 = AttitudeState(
        q=np.array([0, 0, 0, 1.0]),
        omega=np.radians([4.0, 3.0, -3.0]),
    )
    res = ms.solve(x0, 0.0, field_at, detumble_cfg, table_inertia, substeps=5)
    assert np.max(np.abs(res.command.m)) > 0.0
    states = ms.predict(x0, res.sequence, field_at, 0.0, detumble_cfg, table_inertia,
                        substeps=5)
    assert np.linalg.norm(states[-1, 4:]) < np.linalg.norm(x0.omega)


def test_solve_degraded_flag_when_capped(monkeypatch):
    # the attitude slew's first state needs tens of Gauss-Newton iterations
    cfg = load_config("attitude-paper")
    field_at = ms.field_function(cfg.elements)
    monkeypatch.setattr("magsat.controller.MAX_ITERATIONS", 1)
    res = ms.solve(cfg.x0, 0.0, field_at, cfg.mpc, cfg.inertia)
    assert res.iterations == 1
    assert res.stop_reason == "iteration_cap"
    assert res.degraded
    assert res.cost <= res.zero_cost


def test_solve_stops_no_step_when_every_trial_is_rejected(monkeypatch):
    # with an infinite Armijo constant no trial passes, so each rejection
    # raises the damping until lam * diag(H) overflows; the solve must stop
    # there and return the start, not solve a model with a non-finite
    # Hessian and roll out a NaN sequence
    cfg = load_config("attitude-paper")
    monkeypatch.setattr(controller, "ARMIJO_C1", math.inf)
    res = ms.solve(cfg.x0, 0.0, ms.field_function(cfg.elements), cfg.mpc, cfg.inertia)
    assert res.stop_reason == "no_step"
    assert res.degraded
    assert res.iterations == 1
    assert res.cost == res.zero_cost
    np.testing.assert_array_equal(res.sequence.dipoles, np.zeros((cfg.mpc.horizon, 3)))


def test_solve_is_invariant_to_weight_scale():
    # scaling Q and R together scales the cost and nothing else, so the
    # stopping tests (both in cost units) must stop at the same point; a
    # test comparing a dipole-unit step with a cost-unit tolerance accepts
    # the zero start once J passes about 1e8
    cfg = load_config("attitude-paper")
    field_at = ms.field_function(cfg.elements)
    u_max = cfg.mpc.u_max
    costs = []
    for scale in (1.0, 1e3, 1e4, 1e6):
        mpc = dataclasses.replace(
            cfg.mpc, q_diag=cfg.mpc.q_diag * scale, r_diag=cfg.mpc.r_diag * scale
        )
        res = ms.solve(cfg.x0, 0.0, field_at, mpc, cfg.inertia)
        np.testing.assert_array_equal(res.command.m, [-u_max, u_max, u_max])
        costs.append(res.cost / scale)
    np.testing.assert_allclose(costs, costs[0], rtol=1e-9)


def test_solve_rejects_warm_start_violating_bound(field_at, detumble_cfg, table_inertia):
    warm = ControlSequence(np.full((10, 3), 0.2))
    with pytest.raises(ValueError):
        ms.solve(detumble_cfg.x_ref, 0.0, field_at, detumble_cfg, table_inertia,
                 warm=warm, substeps=5)


def test_solve_rejects_warm_start_length_mismatch(field_at, detumble_cfg, table_inertia):
    warm = ControlSequence(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ms.solve(detumble_cfg.x_ref, 0.0, field_at, detumble_cfg, table_inertia,
                 warm=warm, substeps=5)


def test_solve_single_step_beats_quantizer_grid(field_at, table_inertia):
    # the continuous box contains the seven-level grid, so the solver must do
    # at least as well as exhaustive enumeration over it
    rng = np.random.default_rng(103)
    for _ in range(5):
        x0, cfg, t0 = random_instance(rng, horizon=1)
        res = ms.solve(x0, t0, field_at, cfg, table_inertia, substeps=5)
        levels = grid_levels(cfg.u_max)
        best_grid = math.inf
        for m in itertools.product(levels, repeat=3):
            seq = ControlSequence(np.array(m).reshape(1, 3))
            traj = ms.predict(x0, seq, field_at, t0, cfg, table_inertia, substeps=5)
            best_grid = min(best_grid, ms.total_cost(traj, seq, cfg))
        assert res.cost <= best_grid + 1e-12 * (1.0 + abs(best_grid))


def test_solve_warm_start_chain(field_at, detumble_cfg, table_inertia):
    # closed-loop style: shifted previous solution is never beaten by the
    # returned cost
    state = AttitudeState(
        q=np.array([0, 0, 0, 1.0]),
        omega=np.radians([4.0, 3.0, -3.0]),
    )
    warm = None
    for k in range(3):
        t = 2.0 * k
        res = ms.solve(state, t, field_at, detumble_cfg, table_inertia, warm=warm,
                       substeps=5)
        if warm is not None:
            assert res.warm_cost is not None
            assert res.cost <= res.warm_cost
        state = ms.propagate(state, res.command, field_at, t, 2.0, 20, table_inertia)
        warm = shift_warm_start(res.sequence)


def test_box_qp_frees_every_wrong_signed_bound_in_one_pass(monkeypatch):
    # every component starts on +u_max with the gradient pulling it inward
    # to a minimizer inside the box, so the first pass frees them all and
    # the QP needs one linear solve, not one per freed bound
    n, u_max = 6, 0.5
    hess = 2.0 * np.eye(n) + 0.1 * np.ones((n, n))
    u = np.full(n, u_max)
    inside = u_max * np.linspace(-0.5, 0.5, n)
    g = hess @ (u - inside)
    assert np.all(g > 0.0)
    calls = []
    real_solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    v = controller._box_qp(g, hess, u, u_max)
    monkeypatch.undo()
    assert calls == [(n, n)]
    np.testing.assert_allclose(v, inside, rtol=0.0, atol=1e-15)


# --- one rollout per evaluated point ----------------------------------------------------

@pytest.fixture
def solver_events(monkeypatch):
    """In call order: each rollout's controls as bytes, and "linearize" per Jacobian."""
    events = []
    evaluate, linearize = controller._Problem.evaluate, controller._Problem.linearize

    def spy_evaluate(self, controls):
        events.append(np.array(controls).tobytes())
        return evaluate(self, controls)

    def spy_linearize(self, record):
        events.append("linearize")
        return linearize(self, record)

    monkeypatch.setattr(controller._Problem, "evaluate", spy_evaluate)
    monkeypatch.setattr(controller._Problem, "linearize", spy_linearize)
    return events


def test_solve_rolls_out_each_sequence_once(solver_events):
    # each evaluated point keeps its tape: the first Jacobian comes from the
    # winning start's rollout and every later one from the accepted trial's.
    # The starts are the zero sequence and the warm start, in that order,
    # and nothing else is rolled out before the first Jacobian
    cfg = load_config("attitude-paper")
    events = solver_events
    p = cfg.mpc.horizon
    warm = ControlSequence(np.full((p, 3), 0.5 * cfg.mpc.u_max))
    res = ms.solve(cfg.x0, 0.0, ms.field_function(cfg.elements), cfg.mpc, cfg.inertia,
                   warm=warm)
    assert events[:3] == [np.zeros((p, 3)).tobytes(), warm.dipoles.tobytes(), "linearize"]
    assert res.iterations > 0  # accepted trials were rolled out
    seen = [e for e in events if e != "linearize"]
    assert len(seen) >= res.iterations + 2  # both starts and each accepted trial
    assert len(set(seen)) == len(seen)


def test_settled_stop_skips_only_a_tail_that_buys_nothing(solver_events, monkeypatch):
    # FTOL = 0 turns the relative-reduction test off, so the solve runs on
    # to the first-order test or the iteration cap
    cfg = load_config("attitude-paper")
    field_at = ms.field_function(cfg.elements)
    res = ms.solve(cfg.x0, 0.0, field_at, cfg.mpc, cfg.inertia)
    rollouts = sum(1 for e in solver_events if e != "linearize")
    solver_events.clear()
    monkeypatch.setattr(controller, "FTOL", 0.0)
    full = ms.solve(cfg.x0, 0.0, field_at, cfg.mpc, cfg.inertia)
    full_rollouts = sum(1 for e in solver_events if e != "linearize")
    assert res.stop_reason == "settled"
    assert full.stop_reason != "settled"
    assert rollouts < full_rollouts
    assert res.cost == pytest.approx(full.cost, rel=1e-9)


def test_gradient_is_grad_of_evaluate_record(field_at, table_inertia):
    # the public gradient is 2 J'r, with the residual and its Jacobian taken
    # from the record that `evaluate` kept; one residual defines the cost, so
    # r'r is the cost exactly
    rng = np.random.default_rng(107)
    x0, cfg, t0 = random_instance(rng, horizon=3)
    seq = ControlSequence(rng.uniform(-0.09, 0.09, size=(3, 3)))
    prob = controller._Problem(x0, t0, field_at, cfg, table_inertia, 5)
    cost, record = prob.evaluate(seq.dipoles)
    traj = ms.predict(x0, seq, field_at, t0, cfg, table_inertia, substeps=5)
    assert cost == ms.total_cost(traj, seq, cfg)
    r, jac = prob.linearize(record)
    assert jac.shape == (30, 9)
    assert float(r @ r) == cost
    g = ms.gradient(x0, seq, t0, field_at, cfg, table_inertia, substeps=5)
    np.testing.assert_array_equal(g, (2.0 * (jac.T @ r)).reshape(3, 3))


def test_sensitivity_matches_central_differences(field_at, table_inertia):
    # every entry of d(x_1..x_p)/du against central differences of predict;
    # the blocks above the diagonal (later controls on earlier states) are 0
    rng = np.random.default_rng(109)
    h = 1e-5
    for trial in range(6):
        horizon = int(rng.integers(1, 4))
        x0, cfg, t0 = random_instance(rng, horizon)
        u = rng.uniform(-0.09, 0.09, size=3 * horizon)
        m = u.reshape(horizon, 3)
        b = np.array([field_at(t0 + k * cfg.ts).b for k in range(horizon)])
        inertia = table_inertia.as_tuple()
        tape = []
        integrate(x0.as_array(), m, b, inertia, cfg.ts, 5, t0, tape)
        sens = sensitivity(tape, m, b, inertia, cfg.ts)
        fd = np.zeros((7 * horizon, 3 * horizon))
        for j in range(3 * horizon):
            ends = []
            for delta in (h, -h):
                v = u.copy()
                v[j] += delta
                states = ms.predict(x0, ControlSequence(v.reshape(horizon, 3)), field_at, t0,
                                    cfg, table_inertia, substeps=5)
                ends.append(states[1:].reshape(-1))
            fd[:, j] = (ends[0] - ends[1]) / (2.0 * h)
        np.testing.assert_allclose(sens, fd, rtol=1e-6, atol=1e-9)
        for k in range(horizon):
            assert not np.any(sens[7 * k : 7 * k + 7, 3 * k + 3 :])
