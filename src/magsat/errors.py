"""Exception types shared across the package, and the checks more than one module shares.

`store_finite` converts, checks and stores the array fields of the frozen
value types (`AttitudeState`, `DipoleCommand`, `FieldSample`,
`ControlSequence` and `MpcConfig`'s weights), `_finite` is the finiteness
test of a scalar field (`InertiaTensor`, `OrbitalElements`, `MpcConfig`'s
ts and u_max, a run's duration, a rollout's interval length and the
quantizer's arguments), which an integer past the float range fails,
`_read_only` freezes the arrays that every solve of a run shares, `_count`
is the one integer rule of a horizon or substep count, and `_step_count`
checks the step arguments of a rollout, for `dynamics.integrate`. They sit
here because every layer can import this module without a cycle;
`_step_count`, which only `integrate` calls, also keeps `dynamics.py` under
the 4096 parser tokens past which compiling it from source takes about
0.23 MB more memory.
"""

import math

import numpy as np


class IntegrationDivergedError(RuntimeError):
    """The integrated state left the finite domain.

    Carries the simulation time at which the blow-up was detected.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class SolverContractError(RuntimeError):
    """A solve returned a sequence costing more than the zero or warm-start candidate."""


class ConfigError(ValueError):
    """A scenario configuration failed parsing or validation."""


class Terminated(BaseException):
    """The process received SIGTERM during a CLI run.

    Like KeyboardInterrupt it is not an Exception, so no broad handler
    swallows the request to stop.
    """


def store_finite(instance, field: str, shape: tuple) -> None:
    """Store `instance.field` of a frozen dataclass as a float array of `shape`.

    A None entry of `shape` matches any length >= 1. A wrong shape or a
    non-finite entry, an integer past the float range included, raises a
    ValueError naming `Type.field`. An array of exactly `shape` passes the
    shape check on one tuple comparison, and the per-axis match runs only
    for any other, so every input meets the same two checks, shape then
    finiteness, with the same messages.
    """
    value = getattr(instance, field)
    try:
        a = np.asarray(value, dtype=float)
    except OverflowError:  # an integer past the float range: an infinite entry
        a = np.full(np.shape(value), math.inf)
    if a.shape != shape and (a.ndim != len(shape) or not all(
        n == k if k is not None else n >= 1 for n, k in zip(a.shape, shape)
    )):
        raise ValueError(
            f"{type(instance).__name__}.{field} must have shape {shape}, got {a.shape}"
        )
    if not np.isfinite(a).all():
        raise ValueError(f"{type(instance).__name__}.{field} has non-finite entries")
    object.__setattr__(instance, field, a)


def _finite(x) -> bool:
    """`math.isfinite(x)`, false for an integer past the float range, where that raises."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only: constants that every later solve shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _count(n, name: str, top=math.inf) -> int:
    """n as an int, once it is an integer in 1..top; otherwise a ValueError naming `name`.

    An int or a numpy integer passes; a bool or a float, even a whole one, does not.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > top:
        raise ValueError(f"{name} must be <= {top}, got {n}")
    return int(n)


def _step_count(ts: float, substeps) -> int:
    """`substeps` as an int, once ts and substeps pass `dynamics.integrate`'s argument rule."""
    if not (_finite(ts) and ts > 0.0):
        raise ValueError(f"interval length must be finite and positive, got {ts}")
    return _count(substeps, "substeps")
