"""Scenario configs and the closed-loop runner (plant, field model, MPC and quantizer).

`scenario_from_dict` and `load_config` turn a JSON config document or a
built-in preset into a validated `ScenarioConfig`; every bad document raises
`ConfigError`. Per controller step `run_scenario` samples the orbital-frame
field (through a per-run memo, so a time that consecutive steps share goes
through Kepler's equation once), solves the MPC (warm started with the
previous solution shifted by one), quantizes the first control when the
quantizer is enabled, holds that dipole over the sampling interval while the
plant integrates, and logs one row in CSV column order. Runs are deterministic end to end; identical configs
produce byte-identical CSV.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import presets
from .controller import (
    PREDICTION_SUBSTEPS,  # noqa: F401  re-exported: bench/layers.py imports it from here
    ControlSequence,
    MpcConfig,
    shift_warm_start,
    solve,
)
from .dynamics import AttitudeState, InertiaTensor, propagate
from .errors import ConfigError, SolverContractError
from .orbit import OrbitalElements, field_function
from .quantizer import quantize_vector

RATE_THRESHOLD_DEG_S = 0.5  # operational meaning of "rates settled"

# Most work a config may ask for (MAX_STEPS counts whole sampling intervals).
MAX_HORIZON = 100
MAX_SUBSTEPS = 10_000
MAX_STEPS = 1_000_000

CSV_HEADER = (
    "t,q1,q2,q3,q4,wx,wy,wz,"
    "mx,my,mz,mx_raw,my_raw,mz_raw,"
    "Bx,By,Bz,J,degraded"
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one closed-loop run needs.

    x0 is stored normalized; the pre-normalization quaternion norm is kept
    for the run summary.
    """

    elements: OrbitalElements
    inertia: InertiaTensor
    mpc: MpcConfig
    x0: AttitudeState
    duration: float
    pwm_enabled: bool
    substeps: int
    output_path: Optional[str]
    x0_quat_norm_before: float
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= self.mpc.ts):
            raise ConfigError(
                f"duration must be at least one sampling interval "
                f"({self.mpc.ts} s), got {self.duration}"
            )
        # the ratio test keeps `steps` from flooring an overflowed quotient
        if self.duration / self.mpc.ts > MAX_STEPS + 1 or self.steps > MAX_STEPS:
            raise ConfigError(f"duration {self.duration} s exceeds {MAX_STEPS} sampling intervals")
        if self.mpc.horizon > MAX_HORIZON:
            raise ConfigError(f"horizon {self.mpc.horizon} exceeds {MAX_HORIZON}")
        if int(self.substeps) != self.substeps or not 1 <= self.substeps <= MAX_SUBSTEPS:
            raise ConfigError(f"substeps {self.substeps} is not an integer in 1..{MAX_SUBSTEPS}")
        object.__setattr__(self, "substeps", int(self.substeps))

    @property
    def steps(self) -> int:
        """Whole sampling intervals in the duration.

        The slack absorbs only float rounding: 0.7 / 0.1 counts as 7, while
        1999999.999 / 2 still counts as 999999.
        """
        return math.floor(self.duration / self.mpc.ts * (1.0 + 4 * sys.float_info.epsilon))


@dataclass(frozen=True)
class RunLog:
    """Time series of one run; one row per controller step, spacing Ts.

    Each row holds the state at the step start, the applied and raw
    (pre-quantizer) dipoles held over the following interval, the
    orbital-frame field sample, the solve cost and the degraded flag.
    """

    t: np.ndarray
    q: np.ndarray
    omega: np.ndarray
    m_applied: np.ndarray
    m_raw: np.ndarray
    b_orbital: np.ndarray
    cost: np.ndarray
    degraded: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]

    def to_csv(self) -> str:
        floats = np.column_stack(
            [self.t, self.q, self.omega, self.m_applied, self.m_raw, self.b_orbital, self.cost]
        ).astype(float)
        lines = [CSV_HEADER]
        for row, degraded in zip(floats.tolist(), self.degraded):
            lines.append(",".join([*map(repr, row), "1" if degraded else "0"]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def _build_log(rows: list) -> RunLog:
    """RunLog of rows (t, q, omega, m_applied, m_raw, B, J, degraded), 19 floats each."""
    a = np.array(rows, dtype=float).reshape(len(rows), 19)
    return RunLog(
        t=a[:, 0],
        q=a[:, 1:5],
        omega=a[:, 5:8],
        m_applied=a[:, 8:11],
        m_raw=a[:, 11:14],
        b_orbital=a[:, 14:17],
        cost=a[:, 17],
        degraded=a[:, 18] != 0.0,
    )


def run_scenario(cfg: ScenarioConfig) -> RunLog:
    """Run the closed loop for cfg.duration seconds.

    Any exception that ends the loop (a blow-up, a contract violation, a
    KeyboardInterrupt, the CLI's SIGTERM `Terminated` or any other) carries
    the rows logged so far as `partial_log`.
    """
    state = cfg.x0
    warm: Optional[ControlSequence] = None
    rows = []
    try:
        # consecutive steps sample the field at the same times, from the horizon,
        # the log row and the plant; the memo holds a horizon and the next time
        field_at = functools.lru_cache(maxsize=MAX_HORIZON + 2)(field_function(cfg.elements))
        for k in range(cfg.steps):
            t = k * cfg.mpc.ts
            b_orb = field_at(t)
            res = solve(state, t, field_at, cfg.mpc, cfg.inertia, warm=warm)
            if res.cost > res.zero_cost or (
                res.warm_cost is not None and res.cost > res.warm_cost
            ):
                raise SolverContractError(
                    f"solver contract violation at t={t}: cost {res.cost} exceeds "
                    f"a mandatory candidate (zero {res.zero_cost}, warm {res.warm_cost})"
                )
            m_raw = res.command
            m_applied = (
                quantize_vector(m_raw, cfg.mpc.u_max) if cfg.pwm_enabled else m_raw
            )
            rows.append((
                t, *state.q, *state.omega, *m_applied.m, *m_raw.m, *b_orb.b,
                res.cost, res.degraded,
            ))
            state = propagate(
                state, m_applied, field_at, t, cfg.mpc.ts, cfg.substeps, cfg.inertia
            )
            warm = shift_warm_start(res.sequence)
    except BaseException as err:
        err.partial_log = _build_log(rows)
        raise
    return _build_log(rows)


def _signed_error_angle_deg(q: np.ndarray, q_ref: np.ndarray) -> float:
    dot = float(np.clip(np.dot(q, q_ref), -1.0, 1.0))
    return math.degrees(2.0 * math.acos(dot))


def _error_angle_deg(q: np.ndarray, q_ref: np.ndarray) -> float:
    """Sign-invariant error angle: the smaller of the angles to q_ref and -q_ref."""
    return min(_signed_error_angle_deg(q, q_ref), _signed_error_angle_deg(q, -q_ref))


def settle_time(log: RunLog):
    """First logged time after which |omega| stays at or below RATE_THRESHOLD_DEG_S.

    Returns None when the rate is above the threshold in the final row.
    """
    rates = np.degrees(np.linalg.norm(log.omega, axis=1))
    below = rates <= RATE_THRESHOLD_DEG_S
    if not below[-1]:
        return None
    idx = len(below) - 1
    while idx > 0 and below[idx - 1]:
        idx -= 1
    return float(log.t[idx])


def summarize(log: RunLog, cfg: ScenarioConfig) -> dict:
    """Headline numbers of a finished run, JSON-ready.

    The terminal attitude error is reported against both quaternion signs of
    the reference (they encode the same physical attitude) alongside the
    sign-invariant angle and the raw componentwise quaternion difference the
    cost function actually penalizes.
    """
    if len(log) == 0:
        raise ValueError("cannot summarize an empty run log")
    q_ref = cfg.mpc.x_ref.q
    q_final = log.q[-1]
    effort = float(np.sum(np.linalg.norm(log.m_applied, axis=1)) * cfg.mpc.ts)
    return {
        "name": cfg.name,
        "steps": len(log),
        "duration_s": float(cfg.duration),
        "pwm_enabled": bool(cfg.pwm_enabled),
        "rate_threshold_deg_s": RATE_THRESHOLD_DEG_S,
        "settle_time_s": settle_time(log),
        "final_rate_deg_s": float(np.degrees(np.linalg.norm(log.omega[-1]))),
        "error_angle_deg": _error_angle_deg(q_final, q_ref),
        "error_angle_vs_ref_deg": _signed_error_angle_deg(q_final, q_ref),
        "error_angle_vs_neg_ref_deg": _signed_error_angle_deg(q_final, -q_ref),
        "final_quat_diff_norm": float(np.linalg.norm(q_final - q_ref)),
        "control_effort_A_m2_s": effort,
        "degraded_solves": int(np.count_nonzero(log.degraded)),
        "x0_quat_norm_before": float(cfg.x0_quat_norm_before),
    }


# --- configuration parsing ---------------------------------------------------

_TOP_KEYS = {
    "elements", "inertia", "mpc", "x0", "duration", "pwm", "substeps", "output",
}
_MPC_KEYS = {"q_diag", "r_diag", "horizon", "ts", "u_max", "x_ref"}
_STATE_KEYS = {"q", "omega", "omega_deg"}
_INERTIA_KEYS = ("ix", "iy", "iz")  # InertiaTensor argument order
_ELEMENT_ANGLES = ("i", "raan", "argp", "mean_anomaly")
_ELEMENT_KEYS = {"a_km", "e"} | {
    k for base in _ELEMENT_ANGLES for k in (base, f"{base}_deg")
}
_RAD_PER_DEG = math.pi / 180.0  # the factor math.radians and np.radians apply


def _object(value, allowed, where: str, what: str = "an object") -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be {what}")
    unknown = set(value).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    return value


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is an integer too large for a float") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return x


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _vector(value, n: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(f"{where} must be a list of {n} numbers")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _read(d: dict, key: str, where: str, n: Optional[int] = None):
    """Required key of section `where` as a number, or as a list of n numbers when n is given."""
    value = _require(d, key, where)
    return _number(value, f"{where}.{key}") if n is None else _vector(value, n, f"{where}.{key}")


def _angle(d: dict, base: str, where: str, n: Optional[int] = None):
    """The radian key `base` or its `_deg` twin, never both, read in radians."""
    deg_key = f"{base}_deg"
    if base in d and deg_key in d:
        raise ConfigError(f"{where} sets both {base!r} and {deg_key!r}")
    key = deg_key if deg_key in d else base
    if key not in d:
        raise ConfigError(f"missing key {base!r} (or {deg_key!r}) in {where}")
    value = _read(d, key, where, n)
    return value * _RAD_PER_DEG if key == deg_key else value


def _validated(where: str, build):
    """build(), with a validated type's ValueError reported as a ConfigError of `where`."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_elements(value, where: str = "elements") -> OrbitalElements:
    if isinstance(value, str):
        if value not in presets.ELEMENT_PRESETS:
            raise ConfigError(f"unknown elements preset {value!r}")
        value = presets.get_element_preset(value)
    d = _object(value, _ELEMENT_KEYS, where, "a preset name or an object")
    return _validated(where, lambda: OrbitalElements(
        a_km=_read(d, "a_km", where),
        e=_read(d, "e", where),
        inclination=_angle(d, "i", where),
        raan=_angle(d, "raan", where),
        argp=_angle(d, "argp", where),
        mean_anomaly=_angle(d, "mean_anomaly", where),
    ))


def _parse_state(value, where: str) -> tuple[np.ndarray, np.ndarray]:
    d = _object(value, _STATE_KEYS, where, "an object with 'q' and 'omega'")
    return _read(d, "q", where, n=4), _angle(d, "omega", where, n=3)


def _parse_inertia(value, where: str = "inertia") -> InertiaTensor:
    d = _object(value, _INERTIA_KEYS, where, "an object with ix, iy, iz")
    return _validated(where, lambda: InertiaTensor(*(_read(d, k, where) for k in _INERTIA_KEYS)))


def _parse_mpc(value, where: str = "mpc") -> MpcConfig:
    d = _object(value, _MPC_KEYS, where)
    q_ref, omega_ref = _parse_state(_require(d, "x_ref", where), f"{where}.x_ref")
    horizon = _integer(_require(d, "horizon", where), f"{where}.horizon")
    return _validated(where, lambda: MpcConfig(
        q_diag=_read(d, "q_diag", where, n=7),
        r_diag=_read(d, "r_diag", where, n=3),
        horizon=horizon,
        ts=_read(d, "ts", where),
        u_max=_read(d, "u_max", where),
        x_ref=AttitudeState(q=q_ref, omega=omega_ref),
    ))


def scenario_from_dict(d: dict, name: str = "") -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed config document."""
    d = _object(d, _TOP_KEYS, "config", "a JSON object")
    elements = _parse_elements(_require(d, "elements", "config"))
    inertia = _parse_inertia(_require(d, "inertia", "config"))
    mpc = _parse_mpc(_require(d, "mpc", "config"))
    q0, omega0 = _parse_state(_require(d, "x0", "config"), "x0")
    scale = 1.0
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(q0))
    if (norm == 0.0 or math.isinf(norm)) and np.any(q0):
        # the sum of squares overflowed or underflowed: normalize the
        # quaternion divided by its largest entry instead
        scale = float(np.max(np.abs(q0)))
        q0 = q0 / scale
        norm = float(np.linalg.norm(q0))
    if norm <= 0.0:
        raise ConfigError(f"x0.q norm {norm} cannot be normalized")
    x0 = AttitudeState(q=q0 / norm, omega=omega0)
    pwm = d.get("pwm", False)
    if not isinstance(pwm, bool):
        raise ConfigError("'pwm' must be a boolean")
    substeps = _integer(d.get("substeps", 20), "substeps")
    output = d.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("'output' must be a string path or null")
    return ScenarioConfig(
        elements=elements,
        inertia=inertia,
        mpc=mpc,
        x0=x0,
        duration=_number(_require(d, "duration", "config"), "duration"),
        pwm_enabled=pwm,
        substeps=substeps,
        output_path=output,
        x0_quat_norm_before=scale * norm,
        name=name,
    )


def load_config(source: str | Path) -> ScenarioConfig:
    """Load a scenario from a built-in preset name or a JSON config file."""
    source = str(source)
    if source in presets.SCENARIO_PRESETS:
        return scenario_from_dict(presets.get_scenario_preset(source), name=source)
    if source in presets.ELEMENT_PRESETS:
        raise ConfigError(
            f"preset {source!r} holds orbital elements only; reference it from a "
            f"scenario config's 'elements' field"
        )
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"no such config file or preset: {source!r}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{source}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's int-conversion digit limit, or
        # nesting deeper than the decoder's recursion limit
        raise ConfigError(f"{source}: unreadable JSON: {exc}") from exc
    return scenario_from_dict(doc, name=path.stem)
