"""Property tests of the solver contracts on random small problems.

The returned sequence respects the dipole bound, never costs more than the
zero or warm-start sequence, and two calls on the same input agree bit for
bit. The box-constrained quadratic step solver returns a point that is
feasible, satisfies the KKT conditions, is bitwise repeatable and does not
depend on the start active set. Needs `hypothesis` (the `[test]` extra);
skipped without it. Derandomized and without an example database, so every
run draws the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(qp=box_qps())
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
