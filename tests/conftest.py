"""Shared fixtures plus the acceptance-criteria result board.

Acceptance tests record one line per criterion; the lines are printed in the
terminal summary so the pass/fail status of every criterion is visible even
when the rest of the run is green.
"""

import numpy as np
import pytest

import magsat as ms
from magsat.dynamics import _rhs

_ACCEPTANCE_LINES: list[str] = []


def grid_levels(u: float) -> tuple[float, ...]:
    """The quantizer's seven output levels for bound u, written out independently of the code."""
    return (-u, -(2.0 * u / 3.0), -(u / 3.0), 0.0, u / 3.0, 2.0 * u / 3.0, u)


def body_field(q, b) -> tuple:
    """The orbital-to-body rotation v = R(q) b of the right-hand side, read off its torque rows.

    At unit inertia and zero rate the torque rows are m x v: m = e_x gives
    (0, -v3, v2) and m = e_z gives (-v2, v1, 0), exactly.
    """
    x = (*q, 0.0, 0.0, 0.0)
    _, minus_v3, v2 = _rhs((1.0, 0.0, 0.0), b, (1.0, 1.0, 1.0))(*x)[4:]
    v1 = _rhs((0.0, 0.0, 1.0), b, (1.0, 1.0, 1.0))(*x)[5]
    return (v1, v2, -minus_v3)


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
