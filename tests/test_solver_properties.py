"""Property tests of the solver contracts on random small problems.

The returned sequence respects the dipole bound, never costs more than the
zero or warm-start sequence, and two calls on the same input agree bit for
bit. The box-constrained quadratic step solver returns a point that is
feasible, satisfies the KKT conditions and is bitwise repeatable. Needs
`hypothesis` (the `[test]` extra); skipped without it. Derandomized and
without an example database, so every run draws the same examples.
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
    """A positive definite H, a gradient and a box lo <= 0 <= hi, n <= 12.

    Some bounds are drawn at 0, as for a control already on the dipole bound.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    a = np.array(draw(vectors(n * n, -1.0, 1.0))).reshape(n, n)
    hess = a.T @ a + draw(reals(1e-3, 1.0)) * np.eye(n)
    g = np.array(draw(vectors(n, -2.0, 2.0)))
    lo = -np.array(draw(vectors(n, 0.0, 1.0)))
    hi = np.array(draw(vectors(n, 0.0, 1.0)))
    return g, hess, lo, hi


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(qp=box_qps())
def test_box_qp_bounds_kkt_and_determinism(qp):
    g, hess, lo, hi = qp
    d, side = controller._box_qp(g, hess, lo, hi)
    again = controller._box_qp(g, hess, lo, hi)
    assert d.tobytes() == again[0].tobytes() and side.tobytes() == again[1].tobytes()
    assert np.all(lo <= d) and np.all(d <= hi)
    np.testing.assert_array_equal(d[side > 0], hi[side > 0])
    np.testing.assert_array_equal(d[side < 0], lo[side < 0])
    # KKT: zero model gradient on the free components, and multipliers of
    # the right sign on the held ones (the model must not descend past a bound)
    grad = g + hess @ d
    tol = 1e-9 * (1.0 + np.max(np.abs(g)) + np.max(np.abs(hess)))
    assert np.all(np.abs(grad[side == 0]) <= tol)
    assert np.all(grad[side > 0] <= tol)
    assert np.all(grad[side < 0] >= -tol)
