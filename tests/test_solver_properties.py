"""Property tests of the solver contracts on random small problems.

The returned sequence respects the dipole bound, never costs more than the
zero or warm-start sequence, and two calls on the same input agree bit for
bit. The zero start costs what the public cost function gives the zero
sequence, bit for bit, or fails alike, also where no quaternion weight
reads the attitude. The box-constrained quadratic step solver returns a
point that is feasible, satisfies the KKT conditions, is bitwise repeatable
and does not depend on the start active set. Needs `hypothesis` (the
`[test]` extra); skipped without it. Derandomized and without an example
database, so every run draws the same examples.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import magsat as ms  # noqa: E402
from magsat import AttitudeState, ControlSequence, MpcConfig, controller  # noqa: E402


def reals(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi)


def vectors(n: int, lo: float, hi: float):
    return st.lists(reals(lo, hi), min_size=n, max_size=n)


def unit(values) -> np.ndarray:
    v = np.array(values)
    norm = float(np.linalg.norm(v))
    assume(norm > 0.1)
    return v / norm


@st.composite
def problems(draw):
    """A start state, time, MPC config, prediction substeps and warm start."""
    horizon = draw(st.integers(min_value=1, max_value=3))
    substeps = draw(st.integers(min_value=1, max_value=3))
    u_max = draw(reals(0.01, 0.2))
    x0 = AttitudeState(
        q=unit(draw(vectors(4, -1.0, 1.0))), omega=np.array(draw(vectors(3, -0.1, 0.1)))
    )
    cfg = MpcConfig(
        q_diag=np.array(draw(vectors(7, 0.0, 1000.0))),
        r_diag=np.array(draw(vectors(3, 1e-8, 1e-2))),
        horizon=horizon,
        ts=draw(reals(0.5, 4.0)),
        u_max=u_max,
        x_ref=AttitudeState(q=unit(draw(vectors(4, -1.0, 1.0))), omega=np.zeros(3)),
    )
    warm = u_max * np.array(draw(vectors(3 * horizon, -1.0, 1.0)))
    return x0, draw(reals(0.0, 5400.0)), cfg, substeps, ControlSequence(warm.reshape(horizon, 3))


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(problem=problems())
def test_solve_bound_dominance_and_determinism(sso_elements, table_inertia, problem):
    x0, t0, cfg, substeps, warm = problem
    field_at = ms.field_function(sso_elements)
    first, second = (
        ms.solve(x0, t0, field_at, cfg, table_inertia, warm=warm, substeps=substeps)
        for _ in range(2)
    )
    assert np.max(np.abs(first.sequence.dipoles)) <= cfg.u_max
    assert first.cost <= first.zero_cost
    assert first.cost <= first.warm_cost
    assert first.sequence.dipoles.tobytes() == second.sequence.dipoles.tobytes()
    assert first.command.m.tobytes() == second.command.m.tobytes()
    assert (first.cost, first.zero_cost, first.warm_cost) == (
        second.cost, second.zero_cost, second.warm_cost
    )
    assert (first.iterations, first.stop_reason) == (second.iterations, second.stop_reason)
    assert first.stop_reason in ("converged", "settled", "iteration_cap", "no_step")


@st.composite
def zero_starts(draw):
    """A start state, time, MPC config and prediction substeps for the zero sequence.

    The quaternion and the rates hold exact +0.0 and -0.0 entries, some
    starts spin about one axis, and the rates reach 10^k rad/s for k in
    -3..160, far past where a rollout leaves the float range.
    """
    horizon = draw(st.integers(min_value=1, max_value=10))
    substeps = draw(st.integers(min_value=1, max_value=3))
    zero = st.sampled_from([0.0, -0.0])
    q = unit(draw(st.lists(st.one_of(zero, reals(-1.0, 1.0)), min_size=4, max_size=4)))
    rate = 10.0 ** draw(st.integers(min_value=-3, max_value=160))
    if draw(st.booleans()):
        omega = np.array([-0.0, 0.0, 0.0])
        omega[draw(st.integers(min_value=0, max_value=2))] = rate * draw(st.sampled_from([-1, 1]))
    else:
        omega = rate * np.array(draw(st.lists(st.one_of(zero, reals(-1.0, 1.0)), min_size=3,
                                              max_size=3)))
    cfg = MpcConfig(
        q_diag=np.array(draw(vectors(7, 0.0, 1000.0))),
        r_diag=np.array(draw(vectors(3, 1e-8, 1e-2))),
        horizon=horizon,
        ts=draw(reals(0.1, 1e4)),
        u_max=0.1,
        x_ref=AttitudeState(q=unit(draw(vectors(4, -1.0, 1.0))), omega=np.zeros(3)),
    )
    return AttitudeState(q=q, omega=omega), draw(reals(0.0, 5400.0)), cfg, substeps


def single_axis_start(rate: float, ts: float, substeps: int, q_norm: float = 1.0):
    """A `zero_starts` problem spinning about x at `rate` rad/s, p = 10, |q| = q_norm."""
    cfg = MpcConfig(q_diag=np.array([0.0, 0.0, 0.0, 0.0, 500.0, 1000.0, 250.0]),
                    r_diag=np.full(3, 1e-8), horizon=10, ts=ts, u_max=0.1,
                    x_ref=AttitudeState(q=np.array([0.0, 0.0, 0.0, 1.0]), omega=np.zeros(3)))
    q = q_norm * np.array([0.0, 0.6, 0.0, 0.8])
    return AttitudeState(q=q, omega=np.array([rate, 0.0, 0.0])), 0.0, cfg, substeps


def cost_or_failure(call):
    """The cost `call` returns as bytes, or the type, message and time of what it raised."""
    try:
        return np.float64(call()).tobytes()
    except Exception as exc:  # noqa: BLE001 - the two paths must fail alike
        return type(exc), str(exc), getattr(exc, "t", None)


@pytest.mark.parametrize("weigh_attitude", [True, False], ids=["all-weights", "rates-only"])
@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(problem=zero_starts())
# a single-axis spin keeps its rates exactly; one far past the float range
# diverges, and a slow one whose quaternion's squares underflow renormalizes
# to NaN, which must fail alike even where no quaternion weight reads it
@example(problem=single_axis_start(0.5, 1.0, 2))
@example(problem=single_axis_start(1e150, 2.0, 3))
@example(problem=single_axis_start(0.01, 2.0, 3, q_norm=1e-200))
def test_zero_start_costs_the_public_cost_of_the_zero_sequence(
    sso_elements, table_inertia, weigh_attitude, problem
):
    # `solve` costs its zero start by the taped rollout of `evaluate`; that
    # cost must be `total_cost` of `predict`'s untaped rollout, bit for bit,
    # or fail as it does: the same exception with the same time. Rates-only
    # zeroes every quaternion weight, as the detumble preset does
    x0, t0, cfg, substeps = problem
    if not weigh_attitude:
        cfg = dataclasses.replace(cfg, q_diag=np.concatenate([np.zeros(4), cfg.q_diag[4:]]))
    field_at = ms.field_function(sso_elements)
    prob = controller._Problem(x0, t0, field_at, cfg, table_inertia, substeps)
    zeros = ControlSequence(np.zeros((cfg.horizon, 3)))

    def public_cost():
        states = ms.predict(x0, zeros, field_at, t0, cfg, table_inertia, substeps=substeps)
        return ms.total_cost(states, zeros, cfg)

    taped = cost_or_failure(lambda: prob.evaluate(np.zeros(3 * cfg.horizon))[0])
    assert taped == cost_or_failure(public_cost)


@st.composite
def box_qps(draw):
    """A positive definite H, a gradient, u_max, u in the box |u| <= u_max, n <= 12, and a mask.

    Some components of u are drawn exactly on +-u_max, as for a control
    already on the dipole bound. The mask picks a random subset of them as
    the oracle's start set.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    a = np.array(draw(vectors(n * n, -1.0, 1.0))).reshape(n, n)
    hess = a.T @ a + draw(reals(1e-3, 1.0)) * np.eye(n)
    g = np.array(draw(vectors(n, -2.0, 2.0)))
    u_max = draw(reals(0.01, 1.0))
    on_bound_or_inside = st.one_of(st.sampled_from([-1.0, 1.0]), reals(-1.0, 1.0))
    u = u_max * np.array(draw(st.lists(on_bound_or_inside, min_size=n, max_size=n)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return g, hess, u, u_max, mask


def held_start_box_qp(g, hess, u, u_max, held):
    """`_box_qp` as it was when `solve` passed its start set in, kept as an oracle.

    `held` is +1 upper, -1 lower, 0 free; `solve` passed the components on
    a bound that the gradient pushes outward.
    """
    lo, hi = -u_max - u, u_max - u
    d = np.zeros(g.size)
    side = held.copy()
    for _ in range(4 * g.size + 4):
        free = side == 0
        target = d.copy()
        if free.any():
            rhs = g[free] + hess[np.ix_(free, ~free)] @ d[~free]
            target[free] = -np.linalg.solve(hess[np.ix_(free, free)], rhs)
        step = target - d
        with np.errstate(all="ignore"):
            room = np.where(
                step > 0.0, (hi - d) / step, np.where(step < 0.0, (lo - d) / step, np.inf)
            )
        i = int(np.argmin(room))
        if room[i] < 1.0:
            d = d + room[i] * step
            side[i] = 1 if step[i] > 0.0 else -1
            d[i] = hi[i] if side[i] > 0 else lo[i]
            continue
        d = target
        wrong = side * (g + hess @ d)
        i = int(np.argmax(wrong))
        if wrong[i] <= 0.0:
            break
        side[i] = 0
    u_new = np.clip(u + d, -u_max, u_max)
    u_new[side > 0], u_new[side < 0] = u_max, -u_max
    return u_new


def sub_ulp_step_qp():
    """A QP whose steps are far below one ulp of the bounds they leave.

    Component 0 is free and steps by about -6e-195, and its coupling frees
    component 1 from -1. Component 1's step in turn frees component 2 from
    +1, but only on d: on u + d that step rounds away, and a QP that reads
    its multipliers there ends on another set than the oracle.
    """
    hess = np.eye(7)
    hess[:3, :3] = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
    g = np.zeros(7)
    g[0] = 9.98689665e-195
    u = np.array([0.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    return g, hess, u, 1.0, np.zeros(7, dtype=bool)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(qp=box_qps())
@example(qp=sub_ulp_step_qp())
def test_box_qp_bounds_kkt_and_determinism(qp):
    g, hess, u, u_max, mask = qp
    start = u.copy()
    u_new = controller._box_qp(g, hess, u, u_max)
    assert u_new.tobytes() == controller._box_qp(g, hess, u, u_max).tobytes()
    np.testing.assert_array_equal(u, start)  # `solve` passes u again on each retry
    assert np.all(np.abs(u_new) <= u_max)
    # KKT: zero model gradient on the components strictly inside the box,
    # and multipliers of the right sign on those exactly on +-u_max (the
    # model must not descend past a bound). A component the QP holds but
    # that is not pinned to exactly +-u_max counts as inside and fails
    grad = g + hess @ (u_new - u)
    tol = 1e-9 * (1.0 + np.max(np.abs(g)) + np.max(np.abs(hess)))
    inside, upper, lower = np.abs(u_new) < u_max, u_new == u_max, u_new == -u_max
    assert np.all(np.abs(grad[inside]) <= tol)
    assert np.all(grad[upper] <= tol)
    assert np.all(grad[lower] >= -tol)
    # the start set decides only the passes: the same bytes as from the held
    # set `solve` used to pass, and as from a random subset of the bound
    held = np.where((u >= u_max) & (g < 0.0), 1, 0) - np.where((u <= -u_max) & (g > 0.0), 1, 0)
    on_bound = np.where(u >= u_max, 1, 0) - np.where(u <= -u_max, 1, 0)
    assert u_new.tobytes() == held_start_box_qp(g, hess, u, u_max, held).tobytes()
    subset = np.where(mask, on_bound, 0)
    assert u_new.tobytes() == held_start_box_qp(g, hess, u, u_max, subset).tobytes()
