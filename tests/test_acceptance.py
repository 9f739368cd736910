"""Acceptance gate: every criterion at its stated tolerance.

Each test records one pass/fail line (printed in the terminal summary by
conftest) and asserts its gate. The closed-loop fixtures run the shipped
presets end to end, so this module is the slow part of the suite.
"""

import dataclasses
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import grid_levels

import magsat as ms
from magsat import (
    AttitudeState,
    ControlSequence,
    DipoleCommand,
    FieldSample,
    InertiaTensor,
    MpcConfig,
)
from magsat.dynamics import _rhs
from magsat.scenario import (
    CSV_HEADER,
    _error_angle_deg,
    load_config,
    run_scenario,
    settle_time,
    summarize,
)

SETTLE_CLEAN_S = 25.0 * 60.0
SETTLE_GATE_S = 40.0 * 60.0
ATTITUDE_GATE_DEG = 10.0
ATTITUDE_GATE_FROM_S = 60.0 * 60.0


@pytest.fixture(scope="module")
def detumble_run():
    cfg = load_config("detumble-paper")
    return cfg, run_scenario(cfg)


@pytest.fixture(scope="module")
def detumble_run_nopwm():
    cfg = dataclasses.replace(load_config("detumble-paper"), pwm_enabled=False)
    return cfg, run_scenario(cfg)


@pytest.fixture(scope="module")
def attitude_run():
    cfg = load_config("attitude-paper")
    return cfg, run_scenario(cfg)


def rates_deg_s(log):
    return np.degrees(np.linalg.norm(log.omega, axis=1))


# --- criterion 1: detumble reproduction -------------------------------------------------

def test_criterion_1_detumble_settles(detumble_run, recorder):
    cfg, log = detumble_run
    settle = settle_time(log)
    ok = settle is not None and settle <= SETTLE_GATE_S
    detail = (
        f"settle={settle if settle is None else round(settle, 1)} s, "
        f"clean target {SETTLE_CLEAN_S:.0f} s, hard gate {SETTLE_GATE_S:.0f} s, "
        f"final rate {rates_deg_s(log)[-1]:.3f} deg/s"
    )
    recorder("1", "detumble: |w| <= 0.5 deg/s sustained within the gate", ok, detail)
    if ok and settle > SETTLE_CLEAN_S:
        warnings.warn(
            f"detumble settled at {settle:.0f} s, past the 25-minute clean target "
            f"but within the 40-minute gate (solver differences)"
        )
    assert ok, detail


# --- criterion 2: attitude reproduction -------------------------------------------------

def test_criterion_2_attitude_error(attitude_run, recorder):
    cfg, log = attitude_run
    q_ref = cfg.mpc.x_ref.q
    errs = np.array([_error_angle_deg(q, q_ref) for q in log.q])
    tail = errs[log.t >= ATTITUDE_GATE_FROM_S]
    err_at_25min = float(errs[np.searchsorted(log.t, 25.0 * 60.0)])
    first_below = (
        float(log.t[np.argmax(errs < ATTITUDE_GATE_DEG)])
        if np.any(errs < ATTITUDE_GATE_DEG)
        else None
    )
    ok = bool(np.all(tail < ATTITUDE_GATE_DEG))
    detail = (
        f"max error from 60 min on: {tail.max():.2f} deg (gate {ATTITUDE_GATE_DEG} deg); "
        f"error at 25 min: {err_at_25min:.2f} deg; "
        f"first dip below gate: {first_below} s; min over run: {errs.min():.2f} deg"
    )
    recorder("2", "attitude: error angle < 10 deg from 60 min on", ok, detail)
    assert ok, detail


# --- criterion 3: quantizer on/off comparison --------------------------------------------

def test_criterion_3_pwm_comparison(detumble_run, detumble_run_nopwm, recorder):
    cfg_on, log_on = detumble_run
    cfg_off, log_off = detumble_run_nopwm
    assert cfg_on.pwm_enabled and not cfg_off.pwm_enabled

    levels = grid_levels(cfg_on.mpc.u_max)
    on_grid = all(
        any(v == lv for lv in levels) for row in log_on.m_applied for v in row
    )
    settle_on = settle_time(log_on)
    settle_off = settle_time(log_off)
    both_gate = (
        settle_on is not None and settle_on <= SETTLE_GATE_S
        and settle_off is not None and settle_off <= SETTLE_GATE_S
    )
    off_grid_somewhere = any(
        all(v != lv for lv in levels) for row in log_off.m_applied for v in row
    )
    ok = on_grid and both_gate and off_grid_somewhere
    detail = (
        f"quantized run on the 7-level grid: {on_grid}; "
        f"settle on/off: {settle_on}/{settle_off} s (gate {SETTLE_GATE_S:.0f}); "
        f"unquantized run leaves the grid: {off_grid_somewhere}"
    )
    recorder("3", "quantizer comparison on the detumble scenario", ok, detail)
    assert ok, detail


# --- criterion 4: quantizer bracket conformance --------------------------------------------

def quantizer_oracle(u, u_max):
    # independent of the branch chain: an exact zero returns zero; otherwise
    # the smallest level strictly above the input, saturating at the top
    if u == 0.0:
        return 0.0
    above = [lv for lv in grid_levels(u_max) if lv > u]
    return min(above) if above else u_max


def test_criterion_4_quantizer_table(recorder):
    u_max = 0.1
    paper_cases = (
        (0.09, 0.1),
        (0.05, 2.0 * 0.1 / 3.0),
        (-0.05, -(0.1 / 3.0)),
        (-0.2, -0.1),
    )
    paper_ok = all(ms.quantize(u, u_max) == want for u, want in paper_cases)

    rng = np.random.default_rng(2024)
    inputs = rng.uniform(-2 * u_max, 2 * u_max, size=100_000)
    bracket_violations = 0
    error_violations = 0
    outputs = np.empty_like(inputs)
    for i, u in enumerate(inputs):
        out = ms.quantize(float(u), u_max)
        outputs[i] = out
        if out != quantizer_oracle(float(u), u_max):
            bracket_violations += 1
        if -u_max <= u <= u_max and abs(out - u) > u_max / 3.0 + 1e-15:
            error_violations += 1
    order = np.argsort(inputs)
    mono = np.all(np.diff(outputs[order]) >= 0.0)

    ok = paper_ok and bracket_violations == 0 and error_violations == 0 and bool(mono)
    detail = (
        f"paper examples: {paper_ok}; bracket violations: {bracket_violations}/100000; "
        f"error-bound violations: {error_violations}; monotone: {mono}"
    )
    recorder("4", "quantizer bracket table, monotonicity, error bound", ok, detail)
    assert ok, detail


# --- criterion 5: dynamics property suite ---------------------------------------------------

def test_criterion_5_dynamics_properties(recorder, table_inertia):
    rng = np.random.default_rng(99)

    def const_field(b):
        b = np.asarray(b, dtype=float)
        return lambda t: FieldSample(b.copy())

    # (a) quaternion norm drift over 1e4 steps
    field_at = const_field([3e-5, -1e-5, 2e-5])
    state = AttitudeState(q=np.array([0.5, -0.5, 0.5, 0.5]),
                          omega=np.array([0.05, -0.07, 0.03]))
    m = DipoleCommand(np.array([0.1, -0.1, 0.1]))
    worst_norm = 0.0
    for k in range(10_000):
        state = ms.propagate(state, m, field_at, 0.1 * k, 0.1, 1, table_inertia)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(state.q)) - 1.0))
    norm_ok = worst_norm < 1e-9

    # (b) torque perpendicular to the field on 1e4 random pairs; round-off is
    # relative to the |m||B|^2 scale of the terms entering the computation.
    # The torque comes from the right-hand side the plant and the MPC run: at
    # identity attitude, zero rate and unit inertia its rate rows are m x B.
    perp_ok = True
    rest = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    for _ in range(10_000):
        mv = rng.normal(size=3) * 0.1
        bv = rng.normal(size=3) * 1e-5
        tau = np.array(_rhs(tuple(mv.tolist()), tuple(bv.tolist()), (1.0, 1.0, 1.0))(*rest)[4:7])
        scale = float(np.linalg.norm(mv)) * float(np.linalg.norm(bv)) ** 2
        if scale > 0 and abs(float(np.dot(tau, bv))) > 1e-15 * scale:
            perp_ok = False
            break

    # (c) torque-free spherical-inertia rate conservation over 1e4 steps
    sphere = InertiaTensor(0.05, 0.05, 0.05)
    state = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([0.1, -0.05, 0.2]))
    w0 = float(np.linalg.norm(state.omega))
    zero = DipoleCommand(np.zeros(3))
    drift = 0.0
    for k in range(10_000):
        state = ms.propagate(state, zero, field_at, 0.1 * k, 0.1, 1, sphere)
        drift = max(drift, abs(float(np.linalg.norm(state.omega)) - w0))
    conserve_ok = drift < 1e-9

    # (d) RK4 order: halving the step shrinks the end-state change >= 15x
    def smoke_end(dt, steps):
        s = AttitudeState(q=np.array([0, 0, 0, 1.0]), omega=np.array([0.3, -0.2, 0.25]))
        mm = DipoleCommand(np.array([0.1, 0.1, -0.1]))
        for k in range(steps):
            s = ms.propagate(s, mm, field_at, k * dt, dt, 1, table_inertia)
        return s.as_array()

    x1 = smoke_end(0.5, 100)
    x2 = smoke_end(0.25, 200)
    x4 = smoke_end(0.125, 400)
    ratio = float(np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x4))
    order_ok = ratio >= 15.0

    ok = norm_ok and perp_ok and conserve_ok and order_ok
    detail = (
        f"norm drift {worst_norm:.2e} (<1e-9): {norm_ok}; tau.B=0: {perp_ok}; "
        f"|w| drift {drift:.2e} (<1e-9): {conserve_ok}; "
        f"step-halving ratio {ratio:.1f} (>=15): {order_ok}"
    )
    recorder("5", "dynamics property suite", ok, detail)
    assert ok, detail


# --- criterion 6: field/orbit property suite --------------------------------------------------

def test_criterion_6a_kepler_residuals(recorder):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100_000):
        m = float(rng.uniform(0.0, 2.0 * math.pi))
        e = float(rng.uniform(0.0, 0.95))
        big_e = ms.solve_kepler(m, e)
        worst = max(worst, abs(big_e - e * math.sin(big_e) - m))
    ok = worst < 1e-12
    detail = f"worst residual {worst:.2e} over 1e5 samples (tol 1e-12)"
    recorder("6a", "Kepler solve residuals", ok, detail)
    assert ok, detail


def test_criterion_6b_field_periodicity(recorder, sso_elements):
    period = ms.orbital_period(sso_elements)
    worst = 0.0
    for t in np.linspace(0.0, period, 257):
        b1 = ms.field_at_time(sso_elements, float(t)).b
        b2 = ms.field_at_time(sso_elements, float(t) + period).b
        worst = max(worst, float(np.max(np.abs(b1 - b2)) / np.max(np.abs(b1))))
    ok = worst < 1e-12
    detail = f"worst relative mismatch {worst:.2e} over one period (tol 1e-12)"
    recorder("6b", "field periodicity", ok, detail)
    assert ok, detail


def test_criterion_6c_field_magnitude_band(recorder, sso_elements):
    # stated band [1.5e-5, 6e-5] T over a full orbit; the faithful model tops
    # out at ~6.11e-5 T near the polar pass close to perigee, so the upper
    # edge is expected to fail by ~1.9% (see the decisions ledger)
    period = ms.orbital_period(sso_elements)
    mags = np.array(
        [
            float(np.linalg.norm(ms.field_at_time(sso_elements, float(t)).b))
            for t in np.linspace(0.0, period, 4096)
        ]
    )
    ok = bool(mags.min() >= 1.5e-5 and mags.max() <= 6e-5)
    detail = (
        f"|B| in [{mags.min():.4e}, {mags.max():.4e}] T vs stated [1.5e-5, 6.0e-5]"
    )
    recorder("6c", "field magnitude band over one orbit", ok, detail)
    assert ok, detail


# --- criterion 7: optimizer contracts ----------------------------------------------------------

def test_criterion_7a_inloop_candidate_dominance(detumble_run, detumble_run_nopwm,
                                                 attitude_run, recorder):
    # run_scenario raises on any solve whose cost exceeds a mandatory
    # candidate, so completed closed-loop runs certify the dominance contract
    n = len(detumble_run[1]) + len(detumble_run_nopwm[1]) + len(attitude_run[1])
    ok = n > 0
    detail = f"{n} solves completed with in-loop dominance checks enabled"
    recorder("7a", "cost <= min(zero, warm start) on every closed-loop solve", ok, detail)
    assert ok, detail


def test_criterion_7b_gradient_vs_central_differences(recorder, sso_elements,
                                                      table_inertia):
    field_at = ms.field_function(sso_elements)
    rng = np.random.default_rng(555)
    worst = 0.0
    for trial in range(50):
        p = int(rng.integers(1, 4))
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        x0 = AttitudeState(q=q, omega=rng.uniform(-0.08, 0.08, size=3))
        q_ref = rng.normal(size=4)
        q_ref /= np.linalg.norm(q_ref)
        cfg = MpcConfig(
            q_diag=rng.uniform(0.0, 1000.0, size=7),
            r_diag=np.full(3, 1e-8),
            horizon=p,
            ts=2.0,
            u_max=0.1,
            x_ref=AttitudeState(q=q_ref, omega=np.zeros(3)),
        )
        t0 = float(rng.uniform(0.0, 5400.0))
        seq = ControlSequence(rng.uniform(-0.09, 0.09, size=(p, 3)))
        g = ms.gradient(x0, seq, t0, field_at, cfg, table_inertia)
        h = 1e-6 * cfg.u_max
        fd = np.zeros_like(seq.dipoles)
        for i in range(p):
            for j in range(3):
                up = seq.dipoles.copy()
                dn = seq.dipoles.copy()
                up[i, j] += h
                dn[i, j] -= h
                sp, sn = ControlSequence(up), ControlSequence(dn)
                jp = ms.total_cost(
                    ms.predict(x0, sp, field_at, t0, cfg, table_inertia),
                    sp, cfg,
                )
                jn = ms.total_cost(
                    ms.predict(x0, sn, field_at, t0, cfg, table_inertia),
                    sn, cfg,
                )
                fd[i, j] = (jp - jn) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(g - fd) / np.linalg.norm(fd)))
    ok = worst < 1e-4
    detail = f"worst relative gradient error {worst:.2e} over 50 instances (tol 1e-4)"
    recorder("7b", "gradient matches central differences", ok, detail)
    assert ok, detail


def test_criterion_7c_single_step_grid_dominance(recorder, sso_elements, table_inertia):
    field_at = ms.field_function(sso_elements)
    rng = np.random.default_rng(777)
    failures = 0
    for trial in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        x0 = AttitudeState(q=q, omega=rng.uniform(-0.08, 0.08, size=3))
        q_ref = rng.normal(size=4)
        q_ref /= np.linalg.norm(q_ref)
        cfg = MpcConfig(
            q_diag=rng.uniform(0.0, 1000.0, size=7),
            r_diag=np.full(3, 1e-8),
            horizon=1,
            ts=2.0,
            u_max=0.1,
            x_ref=AttitudeState(q=q_ref, omega=np.zeros(3)),
        )
        t0 = float(rng.uniform(0.0, 5400.0))
        res = ms.solve(x0, t0, field_at, cfg, table_inertia)
        best_grid = math.inf
        for m in itertools.product(grid_levels(cfg.u_max), repeat=3):
            seq = ControlSequence(np.array(m).reshape(1, 3))
            traj = ms.predict(x0, seq, field_at, t0, cfg, table_inertia)
            best_grid = min(best_grid, ms.total_cost(traj, seq, cfg))
        if res.cost > best_grid + 1e-12 * (1.0 + abs(best_grid)):
            failures += 1
    ok = failures == 0
    detail = f"{failures}/20 instances beaten by the 7^3 grid"
    recorder("7c", "solver dominates exhaustive level-grid at p=1", ok, detail)
    assert ok, detail


# --- criterion 8: determinism ---------------------------------------------------------------------

# SHA-256 of the full-length preset CSVs, recorded on x86-64 Linux with
# CPython 3.11 and numpy 2.4 (the bytes depend on the platform's libm and
# BLAS); two independent runs of each preset produced the same bytes. A run
# that is not deterministic cannot reproduce a recorded hash, so comparing
# against it is at least as strict as comparing two runs in one process.
PRESET_FULL_CSV_SHA256 = {
    "detumble-paper": "1d2c608348f8f28c1aeaadceaeec5c02d4af373b976a602fe363a1215608f08d",
    "attitude-paper": "18eae7aa029e0ebb31a23a1dbbc29b69c3848e28c4a2bb0236146d77fc483b17",
}


# SHA-256 of the same runs' trajectory, recorded on the same platform: the CSV
# without the raw dipole and solve-cost columns (mx_raw..mz_raw, J). The
# quantizer absorbs rounding-level changes in the solver, so a change to the
# solver's arithmetic may move the full digests above and leave these as they are.
PRESET_TRAJECTORY_SHA256 = {
    "detumble-paper": "a1f85062c919ec64248b5bafb086897860d45d12cc1dc3f4b6a39c99dabc0021",
    "attitude-paper": "05258b6bab459dba691ae26e25067ca33f71a38588fc50df06909fbe8cd89b92",
}
TRAJECTORY_COLUMNS = [
    i for i, name in enumerate(CSV_HEADER.split(","))
    if name not in ("mx_raw", "my_raw", "mz_raw", "J")
]


def csv_sha256(log):
    return hashlib.sha256(log.to_csv().encode()).hexdigest()


def trajectory_sha256(log):
    rows = (line.split(",") for line in log.to_csv().splitlines())
    text = "\n".join(",".join(row[i] for i in TRAJECTORY_COLUMNS) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_criterion_8_determinism(detumble_run, attitude_run, recorder):
    det_equal = csv_sha256(detumble_run[1]) == PRESET_FULL_CSV_SHA256["detumble-paper"]
    att_equal = csv_sha256(attitude_run[1]) == PRESET_FULL_CSV_SHA256["attitude-paper"]
    ok = det_equal and att_equal
    detail = f"detumble byte-identical: {det_equal}; attitude byte-identical: {att_equal}"
    recorder("8", "byte-identical CSV across repeated preset runs", ok, detail)
    assert ok, detail


def test_preset_trajectories_are_pinned(detumble_run, attitude_run):
    for name, (_, log) in (("detumble-paper", detumble_run), ("attitude-paper", attitude_run)):
        assert trajectory_sha256(log) == PRESET_TRAJECTORY_SHA256[name], name


# --- summary reporting (not a gate) ----------------------------------------------------------------

def test_report_run_summaries(detumble_run, attitude_run):
    for cfg, log in (detumble_run, attitude_run):
        s = summarize(log, cfg)
        print(
            f"[summary] {s['name']}: settle={s['settle_time_s']} s, "
            f"attitude error={s['error_angle_deg']:.2f} deg "
            f"(vs +ref {s['error_angle_vs_ref_deg']:.2f} / -ref {s['error_angle_vs_neg_ref_deg']:.2f}), "
            f"effort={s['control_effort_A_m2_s']:.1f} A*m^2*s, "
            f"degraded={s['degraded_solves']}/{s['steps']}, "
            f"x0 norm before normalization={s['x0_quat_norm_before']!r}"
        )
