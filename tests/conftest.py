"""Shared fixtures plus the acceptance-criteria result board.

Acceptance tests record one line per criterion; the lines are printed in the
terminal summary so the pass/fail status of every criterion is visible even
when the rest of the run is green.
"""

import numpy as np
import pytest

import magsat as ms
from magsat import _rk4, dynamics

_ACCEPTANCE_LINES: list[str] = []


def grid_levels(u: float) -> tuple[float, ...]:
    """The quantizer's seven output levels for bound u, written out independently of the code."""
    return (-u, -(2.0 * u / 3.0), -(u / 3.0), 0.0, u / 3.0, 2.0 * u / 3.0, u)


# the one integer rule's refusals, shared by every count it checks (a substep
# count or a horizon): a bool or a float, even a whole one, a string, and an
# integer below 1. Each count takes np.int64(3) and stores it as an int
NOT_COUNTS = (True, np.bool_(True), 3.0, np.float64(3.0), "3", 0, -1)


def record_criterion(number: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _ACCEPTANCE_LINES.append(f"[criterion {number}] {name}: {status}{suffix}")


@pytest.fixture
def recorder():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(params=["python", "compiled"])
def kernel(request, monkeypatch):
    """Run a test under each build of `_rk4.c`'s functions: the Python ones, then the compiled ones.

    "python" runs the Python kernel `dynamics._rk4_rollout` and the numpy
    Jacobian `_rk4.reference_sensitivity`. The compiled functions are tested
    where they loaded; CI fails where they did not.
    """
    if request.param == "python":
        monkeypatch.setattr(_rk4, "rollout", dynamics._rk4_rollout)
        monkeypatch.setattr(_rk4, "sensitivity", _rk4.reference_sensitivity)
    elif _rk4.library is None:
        pytest.skip(f"the compiled RK4 kernel did not load: {_rk4.error}")
    return request.param


@pytest.fixture(scope="session")
def sso_elements() -> ms.OrbitalElements:
    return ms.OrbitalElements(
        a_km=6691.6,
        e=0.046440,
        inclination=np.radians(96.7),
        raan=np.radians(100.90),
        argp=np.radians(119.70),
        mean_anomaly=np.radians(240.49),
    )


@pytest.fixture(scope="session")
def table_inertia() -> ms.InertiaTensor:
    return ms.InertiaTensor(ix=0.020, iy=0.030, iz=0.040)
