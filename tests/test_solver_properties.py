"""Property test of the solver contracts on random small problems.

The returned sequence respects the dipole bound, never costs more than the
zero or warm-start sequence, and two calls on the same input agree bit for
bit. Needs `hypothesis` (the `[test]` extra); skipped without it.
Derandomized and without an example database, so every run draws the same
examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import magsat as ms  # noqa: E402
from magsat import AttitudeState, ControlSequence, MpcConfig  # noqa: E402


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
    assert (first.iterations, first.degraded) == (second.iterations, second.degraded)
