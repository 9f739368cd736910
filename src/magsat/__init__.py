"""magsat: closed-loop magnetorquer attitude control with receding-horizon MPC.

Rigid-body quaternion dynamics, a Keplerian orbit with a tilted-dipole
geomagnetic field, a box-constrained nonlinear MPC on the commanded dipole,
and a seven-level quantizer between controller and actuator, plus a scenario
runner and CLI that reproduce the shipped presets from config files.
"""

from .controller import (
    ControlSequence,
    MpcConfig,
    SolveResult,
    gradient,
    predict,
    shift_warm_start,
    solve,
    total_cost,
)
from .dynamics import (
    AttitudeState,
    DipoleCommand,
    InertiaTensor,
    propagate,
)
from .errors import ConfigError, IntegrationDivergedError, SolverContractError
from .orbit import (
    FieldSample,
    OrbitalElements,
    dipole_field,
    field_at_time,
    field_function,
    mean_motion,
    orbit_radius,
    solve_kepler,
    true_anomaly,
)
from .quantizer import quantize, quantize_vector
from .scenario import (
    RunLog,
    ScenarioConfig,
    load_config,
    run_scenario,
    scenario_from_dict,
    settle_time,
    summarize,
)

__version__ = "0.1.0"
