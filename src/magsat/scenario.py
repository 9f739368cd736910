"""Closed-loop scenario runner: plant, field model, MPC and quantizer wired together.

Per controller step: sample the orbital-frame field, solve the MPC (warm
started with the previous solution shifted by one), quantize the first
control when the quantizer is enabled, hold that dipole over the sampling
interval while the plant integrates, log a row. Runs are deterministic end
to end; identical configs produce byte-identical CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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
from .errors import ConfigError, IntegrationDivergedError, SolverContractError
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
        """Whole sampling intervals in the duration; the slack makes 0.7 / 0.1 count as 7."""
        return math.floor(self.duration / self.mpc.ts * (1.0 + 1e-9))


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
        lines = [CSV_HEADER]
        for i in range(len(self)):
            vals = [
                self.t[i],
                *self.q[i],
                *self.omega[i],
                *self.m_applied[i],
                *self.m_raw[i],
                *self.b_orbital[i],
                self.cost[i],
            ]
            cells = [repr(float(v)) for v in vals]
            cells.append("1" if self.degraded[i] else "0")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def _empty_rows() -> dict:
    return {
        "t": [], "q": [], "omega": [], "m_applied": [],
        "m_raw": [], "b_orbital": [], "cost": [], "degraded": [],
    }


def _build_log(rows: dict) -> RunLog:
    n = len(rows["t"])
    return RunLog(
        t=np.array(rows["t"], dtype=float),
        q=np.array(rows["q"], dtype=float).reshape(n, 4),
        omega=np.array(rows["omega"], dtype=float).reshape(n, 3),
        m_applied=np.array(rows["m_applied"], dtype=float).reshape(n, 3),
        m_raw=np.array(rows["m_raw"], dtype=float).reshape(n, 3),
        b_orbital=np.array(rows["b_orbital"], dtype=float).reshape(n, 3),
        cost=np.array(rows["cost"], dtype=float),
        degraded=np.array(rows["degraded"], dtype=bool),
    )


def run_scenario(cfg: ScenarioConfig) -> RunLog:
    """Run the closed loop for cfg.duration seconds.

    On integration blow-up or a solver contract violation the rows logged so
    far are attached to the raised error as `partial_log`.
    """
    field_at = field_function(cfg.elements)
    state = cfg.x0
    warm: Optional[ControlSequence] = None
    rows = _empty_rows()
    try:
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
            rows["t"].append(t)
            rows["q"].append(state.q.copy())
            rows["omega"].append(state.omega.copy())
            rows["m_applied"].append(m_applied.m.copy())
            rows["m_raw"].append(m_raw.m.copy())
            rows["b_orbital"].append(b_orb.b.copy())
            rows["cost"].append(res.cost)
            rows["degraded"].append(res.degraded)
            state = propagate(
                state, m_applied, field_at, t, cfg.mpc.ts, cfg.substeps, cfg.inertia
            )
            warm = shift_warm_start(res.sequence)
    except (IntegrationDivergedError, SolverContractError) as err:
        err.partial_log = _build_log(rows)
        raise
    return _build_log(rows)


def _error_angle_deg(q: np.ndarray, q_ref: np.ndarray) -> float:
    dot = float(np.clip(np.dot(q, q_ref), -1.0, 1.0))
    return math.degrees(2.0 * math.acos(abs(dot)))


def _signed_error_angle_deg(q: np.ndarray, q_ref: np.ndarray) -> float:
    dot = float(np.clip(np.dot(q, q_ref), -1.0, 1.0))
    return math.degrees(2.0 * math.acos(dot))


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
_INERTIA_KEYS = {"ix", "iy", "iz"}
_ELEMENT_ANGLES = ("i", "raan", "argp", "mean_anomaly")
_ELEMENT_KEYS = {"a_km", "e"} | {
    k for base in _ELEMENT_ANGLES for k in (base, f"{base}_deg")
}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


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


def _vector(value, n: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(f"{where} must be a list of {n} numbers")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _angle_rad(d: dict, base: str, where: str) -> float:
    deg_key = f"{base}_deg"
    if base in d and deg_key in d:
        raise ConfigError(f"{where} sets both {base!r} and {deg_key!r}")
    if base in d:
        return _number(d[base], f"{where}.{base}")
    if deg_key in d:
        return math.radians(_number(d[deg_key], f"{where}.{deg_key}"))
    raise ConfigError(f"missing key {base!r} (or {deg_key!r}) in {where}")


def _parse_elements(value, where: str = "elements") -> OrbitalElements:
    if isinstance(value, str):
        if value in presets.ELEMENT_PRESETS:
            value = presets.get_element_preset(value)
        else:
            raise ConfigError(f"unknown elements preset {value!r}")
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a preset name or an object")
    _reject_unknown(value, _ELEMENT_KEYS, where)
    try:
        return OrbitalElements(
            a_km=_number(_require(value, "a_km", where), f"{where}.a_km"),
            e=_number(_require(value, "e", where), f"{where}.e"),
            inclination=_angle_rad(value, "i", where),
            raan=_angle_rad(value, "raan", where),
            argp=_angle_rad(value, "argp", where),
            mean_anomaly=_angle_rad(value, "mean_anomaly", where),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_state(value, where: str) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object with 'q' and 'omega'")
    _reject_unknown(value, _STATE_KEYS, where)
    q = _vector(_require(value, "q", where), 4, f"{where}.q")
    if "omega" in value and "omega_deg" in value:
        raise ConfigError(f"{where} sets both 'omega' and 'omega_deg'")
    if "omega_deg" in value:
        omega = np.radians(_vector(value["omega_deg"], 3, f"{where}.omega_deg"))
    else:
        omega = _vector(_require(value, "omega", where), 3, f"{where}.omega")
    return q, omega


def _parse_inertia(value, where: str = "inertia") -> InertiaTensor:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object with ix, iy, iz")
    _reject_unknown(value, _INERTIA_KEYS, where)
    try:
        return InertiaTensor(
            ix=_number(_require(value, "ix", where), f"{where}.ix"),
            iy=_number(_require(value, "iy", where), f"{where}.iy"),
            iz=_number(_require(value, "iz", where), f"{where}.iz"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_mpc(value, where: str = "mpc") -> MpcConfig:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(value, _MPC_KEYS, where)
    q_ref, omega_ref = _parse_state(_require(value, "x_ref", where), f"{where}.x_ref")
    horizon = _require(value, "horizon", where)
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ConfigError(f"{where}.horizon must be an integer")
    try:
        x_ref = AttitudeState(q=q_ref, omega=omega_ref)
        return MpcConfig(
            q_diag=_vector(_require(value, "q_diag", where), 7, f"{where}.q_diag"),
            r_diag=_vector(_require(value, "r_diag", where), 3, f"{where}.r_diag"),
            horizon=horizon,
            ts=_number(_require(value, "ts", where), f"{where}.ts"),
            u_max=_number(_require(value, "u_max", where), f"{where}.u_max"),
            x_ref=x_ref,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_dict(d: dict, name: str = "") -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed config document."""
    if not isinstance(d, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(d, _TOP_KEYS, "config")
    elements = _parse_elements(_require(d, "elements", "config"))
    inertia = _parse_inertia(_require(d, "inertia", "config"))
    mpc = _parse_mpc(_require(d, "mpc", "config"))
    q0, omega0 = _parse_state(_require(d, "x0", "config"), "x0")
    norm_before = float(np.linalg.norm(q0))
    if norm_before <= 0.0 or not math.isfinite(norm_before):
        raise ConfigError(f"x0.q norm {norm_before} cannot be normalized")
    x0 = AttitudeState(q=q0 / norm_before, omega=omega0)
    pwm = d.get("pwm", False)
    if not isinstance(pwm, bool):
        raise ConfigError("'pwm' must be a boolean")
    substeps = d.get("substeps", 20)
    if isinstance(substeps, bool) or not isinstance(substeps, int):
        raise ConfigError("'substeps' must be an integer")
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
        x0_quat_norm_before=norm_before,
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
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(doc, name=path.stem)


def with_overrides(
    cfg: ScenarioConfig,
    duration: Optional[float] = None,
    pwm_enabled: Optional[bool] = None,
    output_path: Optional[str] = None,
) -> ScenarioConfig:
    """Apply CLI-style overrides, re-running validation."""
    changes = {}
    if duration is not None:
        changes["duration"] = duration
    if pwm_enabled is not None:
        changes["pwm_enabled"] = pwm_enabled
    if output_path is not None:
        changes["output_path"] = output_path
    return replace(cfg, **changes) if changes else cfg
