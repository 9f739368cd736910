import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import NOT_COUNTS, grid_levels

import magsat.orbit
import magsat.scenario
from magsat import ConfigError, IntegrationDivergedError, field_function, solve
from magsat.cli import main
from magsat.presets import SSO_ELEMENTS, get_scenario_preset
from magsat.scenario import (
    CSV_HEADER,
    MAX_HORIZON,
    MAX_STEPS,
    MAX_SUBSTEPS,
    RunLog,
    load_config,
    run_scenario,
    scenario_from_dict,
    settle_time,
    summarize,
)


def short_config(duration=20.0, pwm=False, **extra):
    doc = {
        "elements": "sso-paper",
        "inertia": {"ix": 0.020, "iy": 0.030, "iz": 0.040},
        "mpc": {
            "q_diag": [0.0, 0.0, 0.0, 0.0, 500.0, 1000.0, 250.0],
            "r_diag": [1e-8, 1e-8, 1e-8],
            "horizon": 4,
            "ts": 2.0,
            "u_max": 0.1,
            "x_ref": {"q": [0.0, 0.0, 0.0, 1.0], "omega": [0.0, 0.0, 0.0]},
        },
        "x0": {"q": [0.0, 0.0, 0.0, 1.0], "omega_deg": [4.0, 3.0, -3.0]},
        "duration": duration,
        "pwm": pwm,
        "substeps": 20,
        "output": None,
    }
    doc.update(extra)
    return doc


# --- preset loading -----------------------------------------------------------------

def test_detumble_preset_values():
    cfg = load_config("detumble-paper")
    np.testing.assert_array_equal(cfg.mpc.q_diag, [0, 0, 0, 0, 500.0, 1000.0, 250.0])
    np.testing.assert_array_equal(cfg.mpc.r_diag, [1e-8, 1e-8, 1e-8])
    assert cfg.mpc.horizon == 10
    assert cfg.mpc.ts == 2.0
    assert cfg.mpc.u_max == 0.1
    assert cfg.duration == 2400.0
    assert cfg.pwm_enabled
    assert cfg.substeps == 20
    np.testing.assert_array_equal(cfg.x0.q, [0, 0, 0, 1.0])
    np.testing.assert_allclose(cfg.x0.omega, np.radians([4.0, 3.0, -3.0]), rtol=1e-15)
    np.testing.assert_array_equal(cfg.mpc.x_ref.q, [0, 0, 0, 1.0])
    assert cfg.inertia.as_tuple() == (0.020, 0.030, 0.040)
    el = cfg.elements
    assert el.a_km == 6691.6
    assert el.e == 0.046440
    assert math.isclose(el.inclination, math.radians(96.7), rel_tol=1e-15)
    assert math.isclose(el.raan, math.radians(100.90), rel_tol=1e-15)
    assert math.isclose(el.argp, math.radians(119.70), rel_tol=1e-15)
    assert math.isclose(el.mean_anomaly, math.radians(240.49), rel_tol=1e-15)
    assert cfg.x0_quat_norm_before == 1.0


def test_attitude_preset_normalizes_initial_quaternion():
    cfg = load_config("attitude-paper")
    assert cfg.mpc.ts == 30.0
    np.testing.assert_array_equal(cfg.mpc.q_diag, [20.0, 20.0, 20.0, 20.0, 1e4, 1e4, 1e4])
    np.testing.assert_array_equal(cfg.mpc.x_ref.q, [0, 1.0, 0, 0])
    # raw (0, 0.1, 0, 1) has norm sqrt(1.01); stored normalized, norm recorded
    assert math.isclose(cfg.x0_quat_norm_before, math.sqrt(1.01), rel_tol=1e-15)
    np.testing.assert_allclose(
        cfg.x0.q, np.array([0.0, 0.1, 0.0, 1.0]) / math.sqrt(1.01), rtol=1e-15
    )
    assert abs(np.linalg.norm(cfg.x0.q) - 1.0) < 1e-15
    np.testing.assert_array_equal(cfg.x0.omega, np.zeros(3))
    assert cfg.duration == 5400.0


def test_elements_preset_is_not_runnable():
    with pytest.raises(ConfigError, match="elements"):
        load_config("sso-paper")


def test_unknown_source_is_config_error():
    with pytest.raises(ConfigError, match="no such config"):
        load_config("no-such-preset")


# --- config parsing -------------------------------------------------------------------

def test_config_from_file_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(short_config()))
    cfg = load_config(path)
    assert cfg.duration == 20.0
    assert cfg.name == "scenario"


def test_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json }")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_config_rejects_bad_eccentricity():
    doc = short_config()
    doc["elements"] = {
        "a_km": 7000.0, "e": 1.2, "i_deg": 96.7, "raan_deg": 0.0,
        "argp_deg": 0.0, "mean_anomaly_deg": 0.0,
    }
    with pytest.raises(ConfigError, match="eccentricity"):
        scenario_from_dict(doc)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict(short_config(typo_key=1))
    doc = short_config()
    doc["mpc"]["extra"] = 2
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict(doc)
    doc = short_config()
    doc["elements"] = {
        "a_km": 7000.0, "e": 0.0, "i_deg": 10.0, "raan_deg": 0.0,
        "argp_deg": 0.0, "mean_anomaly_deg": 0.0, "bogus": 3,
    }
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict(doc)


def test_config_rejects_missing_keys():
    doc = short_config()
    del doc["mpc"]["horizon"]
    with pytest.raises(ConfigError, match="horizon"):
        scenario_from_dict(doc)
    doc = short_config(elements=dict(SSO_ELEMENTS))
    del doc["elements"]["i_deg"]
    with pytest.raises(ConfigError, match=re.escape("missing key 'i' (or 'i_deg')")):
        scenario_from_dict(doc)


def test_config_rejects_angle_unit_conflicts():
    doc = short_config()
    doc["x0"] = {"q": [0, 0, 0, 1.0], "omega": [0, 0, 0], "omega_deg": [1, 1, 1]}
    with pytest.raises(ConfigError, match="omega"):
        scenario_from_dict(doc)
    doc = short_config()
    doc["elements"] = {
        "a_km": 7000.0, "e": 0.0, "i": 0.1, "i_deg": 5.7, "raan": 0.0,
        "argp": 0.0, "mean_anomaly": 0.0,
    }
    with pytest.raises(ConfigError, match="both"):
        scenario_from_dict(doc)


def test_config_accepts_radian_angle_keys():
    doc = short_config()
    doc["elements"] = {
        "a_km": 7000.0, "e": 0.01, "i": 1.5, "raan": 0.5, "argp": 0.25,
        "mean_anomaly": 1.0,
    }
    cfg = scenario_from_dict(doc)
    assert cfg.elements.inclination == 1.5


def test_config_rejects_duration_below_sampling_time():
    with pytest.raises(ConfigError, match="duration"):
        scenario_from_dict(short_config(duration=1.0))


def test_config_rejects_unknown_elements_preset():
    doc = short_config()
    doc["elements"] = "mystery-orbit"
    with pytest.raises(ConfigError, match="mystery-orbit"):
        scenario_from_dict(doc)


def test_config_rejects_zero_initial_quaternion():
    doc = short_config()
    doc["x0"]["q"] = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ConfigError, match="cannot be normalized"):
        scenario_from_dict(doc)


def test_config_rejects_bad_reference_quaternion():
    doc = short_config()
    doc["mpc"]["x_ref"] = {"q": [0.0, 0.1, 0.0, 1.0], "omega": [0, 0, 0]}
    with pytest.raises(ConfigError, match="norm"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("q, unit, norm", [
    ([1e300, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1e-300], 1e300),
    ([0.0, 3e-200, 0.0, 4e-200], [0.0, 0.6, 0.0, 0.8], 5e-200),
])
def test_config_normalizes_quaternion_whose_sum_of_squares_leaves_float_range(q, unit, norm):
    doc = short_config()
    doc["x0"]["q"] = q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = scenario_from_dict(doc)
    np.testing.assert_allclose(cfg.x0.q, unit, rtol=1e-15, atol=0.0)
    assert math.isclose(cfg.x0_quat_norm_before, norm, rel_tol=1e-15)


HUGE_INT = 10**400  # a 401-digit JSON integer, beyond the float range


def set_at(doc, path, value):
    for part in path[:-1]:
        doc = doc[part]
    doc[path[-1]] = value


@pytest.mark.parametrize("path, key", [
    (("duration",), "duration"),
    (("mpc", "ts"), "mpc.ts"),
    (("mpc", "u_max"), "mpc.u_max"),
    (("mpc", "r_diag", 2), "mpc.r_diag[2]"),
    (("elements", "a_km"), "elements.a_km"),
    (("inertia", "iz"), "inertia.iz"),
    (("x0", "q", 0), "x0.q[0]"),
])
def test_config_rejects_integer_beyond_float_range(path, key):
    doc = short_config(elements=dict(SSO_ELEMENTS))
    set_at(doc, path, HUGE_INT)
    with pytest.raises(ConfigError, match=re.escape(key)):
        scenario_from_dict(doc)


@pytest.mark.parametrize("a_km", [1e-101, 6e99, 1e300])
def test_config_rejects_orbit_the_field_model_cannot_evaluate(a_km, tmp_path, capsys):
    # 1e-101 km is refused by the perigee rule, ahead of its mean motion,
    # which overflows to inf; at 6e99 and 1e300 km a cube of the apoapsis
    # radius raises OverflowError. Either would end the run with a traceback
    # at its first field sample
    doc = short_config(elements=dict(SSO_ELEMENTS, a_km=a_km))
    with pytest.raises(ConfigError, match="a_km"):
        scenario_from_dict(doc)
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "a_km" in err
    assert "Traceback" not in err


def test_config_accepts_the_ends_of_the_computable_orbit_range():
    # the low end is a circular orbit one ulp above the Earth radius, the
    # lowest perigee accepted; the high end the largest a_km the field allows
    a_low = math.nextafter(magsat.orbit.EARTH_RADIUS_KM, math.inf)
    low = scenario_from_dict(short_config(elements=dict(SSO_ELEMENTS, a_km=a_low, e=0.0)))
    high = scenario_from_dict(short_config(elements=dict(SSO_ELEMENTS, a_km=3e99)))
    assert (low.elements.a_km, high.elements.a_km) == (a_low, 3e99)


def test_config_rejects_sampling_time_past_the_orbit_phase_range(tmp_path, capsys):
    # one step of 1e308 s is accepted on its own, but the horizon samples
    # the field at k * 1e308 s, which is inf for k >= 2. Unit state weights
    # keep MpcConfig's row scales sqrt(Ts Q) finite
    doc = get_scenario_preset("detumble-paper")
    doc["mpc"].update(ts=1e308, q_diag=[1.0] * 7)
    doc["duration"] = 1e308
    with pytest.raises(ConfigError, match="mpc.ts"):
        scenario_from_dict(doc)
    path = tmp_path / "ts.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "mpc.ts" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edits, key", [
    # Ts * q_diag overflows, so every cost would be nan, though the horizon's
    # last time (1 + 10) * 1e305 s is finite
    ({("mpc", "ts"): 1e305, ("duration",): 1e305}, "mpc: ts"),
    # the norm is inf, which the summary would write as Infinity
    ({("x0", "q"): [1.7e308, 1e308, 0.0, 0.0], ("duration",): 30.0}, "x0.q norm"),
    # horizon * Ts * q_i * x_ref_i^2 overflows, so every cost would be inf
    ({("mpc", "x_ref", "omega", 1): 1e233, ("duration",): 30.0}, "mpc.x_ref"),
])
def test_cli_config_whose_derived_values_leave_float_range_exits_2(edits, key, tmp_path, capsys):
    doc = get_scenario_preset("attitude-paper")
    for path, value in edits.items():
        set_at(doc, path, value)
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "run.csv")]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


def test_cli_integer_beyond_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(short_config(duration=HUGE_INT)))
    assert main(["run", str(path)]) == 2
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize("value, literal", [(math.inf, "Infinity"), (math.nan, "NaN")])
def test_cli_non_finite_number_exits_2(value, literal, tmp_path, capsys):
    # Python's json reads the literals Infinity and NaN as floats
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(short_config(duration=value)))
    assert f'"duration": {literal}' in path.read_text()
    assert main(["run", str(path)]) == 2
    assert "duration must be finite" in capsys.readouterr().err


def test_cli_integer_past_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError past Python's int-conversion limit
    path = tmp_path / "digits.json"
    path.write_text('{"duration": 1' + "0" * 5000 + "}")
    assert main(["run", str(path)]) == 2
    assert "digits.json" in capsys.readouterr().err


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_cli_unreadable_config_exits_2(tmp_path, capsys, monkeypatch):
    # a root user reads a file whatever its mode, so the read is made to fail
    path = tmp_path / "locked.json"
    path.write_text(json.dumps(short_config()))

    def deny(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", deny)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "locked.json: cannot be read: Permission denied" in err


def test_cli_deeply_nested_config_exits_2(tmp_path, capsys):
    # nesting past the decoder's recursion limit raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", str(path)]) == 2
    assert "deep.json" in capsys.readouterr().err


def test_config_work_limits_are_inclusive():
    doc = short_config(duration=MAX_STEPS * 2.0, substeps=MAX_SUBSTEPS)
    doc["mpc"]["horizon"] = MAX_HORIZON
    cfg = scenario_from_dict(doc)
    assert cfg.steps == MAX_STEPS


@pytest.mark.parametrize("path, value, match", [
    (("mpc", "horizon"), MAX_HORIZON + 1, "horizon"),
    (("mpc", "horizon"), 10**9, "horizon"),
    (("substeps",), MAX_SUBSTEPS + 1, "substeps"),
    (("substeps",), 10**12, "substeps"),
    (("duration",), (MAX_STEPS + 1) * 2.0, "duration"),
    (("duration",), 1e15, "duration"),
    (("mpc", "ts"), 5e-324, "duration"),  # duration / ts overflows to inf
])
def test_config_rejects_unbounded_work(path, value, match):
    # only constructs the config; a run of it would never finish
    doc = short_config()
    set_at(doc, path, value)
    with pytest.raises(ConfigError, match=match):
        scenario_from_dict(doc)


def test_replace_rejects_unbounded_duration():
    cfg = scenario_from_dict(short_config())
    with pytest.raises(ConfigError, match="duration"):
        dataclasses.replace(cfg, duration=1e15)
    with pytest.raises(ConfigError, match="duration"):
        dataclasses.replace(cfg, duration=(MAX_STEPS + 1) * cfg.mpc.ts)
    # an integer past the float range, not an OverflowError
    with pytest.raises(ConfigError, match="duration"):
        dataclasses.replace(cfg, duration=10**400)


def test_replace_revalidates():
    cfg = scenario_from_dict(short_config())
    assert dataclasses.replace(cfg).duration == 20.0
    assert dataclasses.replace(cfg, duration=40.0).duration == 40.0
    assert dataclasses.replace(cfg, pwm_enabled=True).pwm_enabled
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, duration=0.5)
    with pytest.raises(ConfigError, match="substeps"):
        dataclasses.replace(cfg, substeps=3.0)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="substeps"):
            dataclasses.replace(cfg, substeps=value)


def test_substeps_follows_integrates_integer_rule():
    # an int or a numpy integer, stored as int; a bool or a float, even a
    # whole one, is refused, in a replace as in a document
    cfg = scenario_from_dict(short_config())
    for value in NOT_COUNTS:
        with pytest.raises(ConfigError, match="substeps"):
            dataclasses.replace(cfg, substeps=value)
    replaced = dataclasses.replace(cfg, substeps=np.int64(3))
    assert type(replaced.substeps) is int and replaced.substeps == 3
    for path in (("substeps",), ("mpc", "horizon")):
        for value in NOT_COUNTS:
            doc = short_config()
            set_at(doc, path, value)
            with pytest.raises(ConfigError, match=path[-1]):
                scenario_from_dict(doc)


@pytest.mark.parametrize("path, value, message", [
    (("elements", "e"), None, "missing key 'e' in elements"),
    (("inertia", "ix"), "x", "inertia.ix must be a number, got 'x'"),
    (("mpc", "ts"), None, "missing key 'ts' in mpc"),
    # a type's own error keeps its one prefix
    (("inertia", "ix"), -1.0,
     "inertia: moments of inertia must be positive, got (-1.0, 0.03, 0.04)"),
])
def test_config_errors_are_reported_once(path, value, message):
    doc = short_config(elements=dict(SSO_ELEMENTS))
    node = doc
    for part in path[:-1]:
        node = node[part]
    if value is None:  # delete the key
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message


# --- closed loop ------------------------------------------------------------------------

def test_equilibrium_run_commands_nothing():
    doc = short_config(duration=10.0)
    doc["x0"] = {"q": [0.0, 0.0, 0.0, 1.0], "omega": [0.0, 0.0, 0.0]}
    cfg = scenario_from_dict(doc)
    log = run_scenario(cfg)
    assert len(log) == 5
    assert np.max(np.abs(log.m_raw)) <= 1e-6 * cfg.mpc.u_max
    assert np.max(np.abs(log.omega)) < 1e-12
    np.testing.assert_allclose(log.q, np.tile([0, 0, 0, 1.0], (5, 1)), atol=1e-12)

    doc["pwm"] = True
    log_pwm = run_scenario(scenario_from_dict(doc))
    assert np.all(log_pwm.m_applied == 0.0)


def test_run_log_row_cadence_and_fields():
    cfg = scenario_from_dict(short_config(duration=12.0))
    log = run_scenario(cfg)
    np.testing.assert_array_equal(log.t, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    assert log.q.shape == (6, 4)
    assert log.m_applied.shape == (6, 3)
    # without the quantizer the applied dipole is the raw command
    np.testing.assert_array_equal(log.m_applied, log.m_raw)
    assert np.max(np.abs(log.m_raw)) <= cfg.mpc.u_max
    assert np.all(np.isfinite(log.cost))


def test_run_counts_whole_intervals_despite_representation_error():
    # 0.7 / 0.1 evaluates to 6.999999999999999; that is still seven intervals
    doc = short_config(duration=0.7)
    doc["mpc"]["ts"] = 0.1
    assert len(run_scenario(scenario_from_dict(doc))) == 7
    # a partial trailing interval is still not run
    doc = short_config(duration=2.5)
    doc["mpc"]["ts"] = 1.0
    assert len(run_scenario(scenario_from_dict(doc))) == 2


def test_readme_solve_example_matches_the_loop():
    # the README's "drive the pieces directly" example, with no substeps,
    # solves the same problem as step 0 of the closed loop
    cfg = load_config("detumble-paper")
    res = solve(cfg.x0, 0.0, field_function(cfg.elements), cfg.mpc, cfg.inertia)
    log = run_scenario(dataclasses.replace(cfg, duration=cfg.mpc.ts))
    assert res.cost == log.cost[0]
    np.testing.assert_array_equal(res.command.m, log.m_raw[0])


# SHA-256 of RunLog.to_csv() for shortened preset runs, recorded with the
# Gauss-Newton solver, the r'r cost, the cost-unit stopping tests, the
# 3-substep prediction and the Jacobian of ordered sums (x86-64 Linux,
# CPython 3.11, numpy 2.4.6, on an AVX-512 host, which gives the same bytes
# as OPENBLAS_CORETYPE=SkylakeX: the solver's 2 J'r, 2 J'J and r'r and its
# box QP's linear solves go through BLAS and LAPACK, so the bytes depend on
# the OpenBLAS kernel the CPU selects at run time, not only on the numpy
# wheel); two independent runs produced the same bytes. A change to a floating-point operation of the closed loop can change
# these bytes. The four attitude solves take 5 to 19 Gauss-Newton iterations,
# so they cover the Jacobian path too, although a rounding-level change to the
# Jacobian left the attitude bytes as they were.
PRESET_CSV_SHA256 = {
    ("detumble-paper", 60.0): "cd94fc4494a365edd0ed8e6759b3279a2c02ca7c6ed6d30c28a3bb72001cb22c",
    ("attitude-paper", 120.0): "a98bf39fac89335a42795b1a57f62d354a97c5e6b767940998e87fc63a9e0b68",
}


def test_preset_csv_bytes_are_stable():
    for (name, duration), digest in PRESET_CSV_SHA256.items():
        log = run_scenario(dataclasses.replace(load_config(name), duration=duration))
        assert hashlib.sha256(log.to_csv().encode()).hexdigest() == digest, name


# SHA-256 of RunLog.to_csv() for attitude-paper at horizon 40 over 900 s (30
# solves), recorded on the same platform and host; first recorded before the
# box QP started its active set from the components on the bound, re-recorded
# when the Jacobian became ordered sums (its trajectory columns kept their bytes). At this horizon a QP makes about 20
# linear solves (up to 121) from the old start set, so a change to the QP's
# start or its passes that moved an iterate would show here.
LONG_HORIZON_CSV_SHA256 = "03ad59435c568137c08825c2b410cfe57ab192f79f8ac8b8b7e98e9d754064d0"


def test_long_horizon_csv_bytes_are_stable():
    cfg = load_config("attitude-paper")
    cfg = dataclasses.replace(cfg, duration=900.0, mpc=dataclasses.replace(cfg.mpc, horizon=40))
    log = run_scenario(cfg)
    assert hashlib.sha256(log.to_csv().encode()).hexdigest() == LONG_HORIZON_CSV_SHA256


# SHA-256 of RunLog.to_csv() for detumble-paper at horizon 1 with an
# 800-substep plant over 40 s (20 rows), the shape of the fine-plant bench
# workload, recorded on the same platform before the RK4 kernel ran a whole
# rollout per call. The plant's RK4 steps are nearly all of this run, so a
# change to a float operation of the kernel would show here.
FINE_PLANT_CSV_SHA256 = "94be226cd59c5d56fe5bbedf0107813b29835450d4e4613884c4770be20cbf17"


def test_fine_plant_csv_bytes_are_stable():
    cfg = load_config("detumble-paper")
    cfg = dataclasses.replace(
        cfg, duration=40.0, substeps=800, mpc=dataclasses.replace(cfg.mpc, horizon=1)
    )
    csv = run_scenario(cfg).to_csv()
    assert csv.count("\n") == 21  # the header and 20 rows
    assert hashlib.sha256(csv.encode()).hexdigest() == FINE_PLANT_CSV_SHA256


@pytest.mark.parametrize("ts", [2.0, 0.1])
def test_field_memo_samples_each_time_once_and_keeps_the_bytes(monkeypatch, ts):
    cfg = load_config("detumble-paper")
    cfg = dataclasses.replace(cfg, duration=20 * ts, mpc=dataclasses.replace(cfg.mpc, ts=ts))
    calls = []
    field_at_time = magsat.orbit.field_at_time

    def counted(elements, t):
        calls.append(t)
        return field_at_time(elements, t)

    monkeypatch.setattr(magsat.orbit, "field_at_time", counted)
    memo_csv = run_scenario(cfg).to_csv()
    assert len(calls) == len(set(calls))  # no time is sampled twice
    # at Ts 2 s, k Ts + j Ts is (k + j) Ts exactly: steps + p - 1 times in
    # all. 0.1 has no exact binary form, so one sample time is reached by
    # different sums, which the memo keeps apart
    distinct = cfg.steps + cfg.mpc.horizon - 1
    assert (len(calls) == distinct) if ts == 2.0 else (len(calls) > distinct)
    monkeypatch.setattr(
        magsat.scenario, "functools", types.SimpleNamespace(lru_cache=lambda maxsize: lambda f: f)
    )
    calls.clear()
    assert run_scenario(cfg).to_csv() == memo_csv
    assert len(calls) > len(set(calls))  # the bypass did sample times again


def test_prediction_substeps_leave_applied_dipoles_unchanged(monkeypatch):
    # the quantizer absorbs the difference between the shipped prediction and
    # a 5-substep one: only m_raw and the solve cost J may move
    configs = [dataclasses.replace(load_config("detumble-paper"), duration=60.0),
               dataclasses.replace(load_config("attitude-paper"), duration=600.0)]
    shipped = [run_scenario(cfg) for cfg in configs]
    monkeypatch.setattr("magsat.scenario.solve", functools.partial(solve, substeps=5))
    for cfg, log in zip(configs, shipped):
        ref = run_scenario(cfg)
        for column in ("t", "q", "omega", "m_applied", "b_orbital", "degraded"):
            np.testing.assert_array_equal(getattr(log, column), getattr(ref, column),
                                          err_msg=f"{cfg.name} {column}")


def test_run_with_quantizer_snaps_to_levels():
    cfg = scenario_from_dict(short_config(duration=12.0, pwm=True))
    log = run_scenario(cfg)
    levels = grid_levels(cfg.mpc.u_max)
    for row in log.m_applied:
        for v in row:
            assert any(v == lv for lv in levels)
    # raw command still obeys the box even when the quantizer is on
    assert np.max(np.abs(log.m_raw)) <= cfg.mpc.u_max


def test_run_deterministic_csv():
    cfg = scenario_from_dict(short_config(duration=12.0, pwm=True))
    csv1 = run_scenario(cfg).to_csv()
    csv2 = run_scenario(cfg).to_csv()
    assert csv1 == csv2
    assert csv1.splitlines()[0] == CSV_HEADER


def test_csv_cells_round_trip():
    cfg = scenario_from_dict(short_config(duration=8.0))
    log = run_scenario(cfg)
    lines = log.to_csv().splitlines()
    parsed = np.array(
        [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    )
    np.testing.assert_array_equal(parsed[:, 0], log.t)
    np.testing.assert_array_equal(parsed[:, 1:5], log.q)
    np.testing.assert_array_equal(parsed[:, 5:8], log.omega)
    np.testing.assert_array_equal(parsed[:, 8:11], log.m_applied)
    np.testing.assert_array_equal(parsed[:, 11:14], log.m_raw)
    np.testing.assert_array_equal(parsed[:, 14:17], log.b_orbital)
    np.testing.assert_array_equal(parsed[:, 17], log.cost)


def test_run_blowup_attaches_partial_log():
    doc = short_config(duration=10.0)
    doc["x0"] = {"q": [0.0, 0.0, 0.0, 1.0], "omega": [1e160, 0.0, 0.0]}
    cfg = scenario_from_dict(doc)
    with pytest.raises(IntegrationDivergedError) as err:
        run_scenario(cfg)
    assert hasattr(err.value, "partial_log")
    assert isinstance(err.value.partial_log, RunLog)


def test_run_attaches_partial_log_to_any_failure(monkeypatch):
    # whatever ends the loop carries the rows logged before it, so the CLI's
    # exception tuple is the only list of failure types
    calls = []

    def solve_failing_at_step_3(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("solver fault")
        return solve(*args, **kwargs)

    monkeypatch.setattr("magsat.scenario.solve", solve_failing_at_step_3)
    with pytest.raises(RuntimeError, match="solver fault") as err:
        run_scenario(scenario_from_dict(short_config()))
    assert isinstance(err.value.partial_log, RunLog)
    assert len(err.value.partial_log) == 2


# --- summaries ------------------------------------------------------------------------------

def test_summarize_equilibrium_run():
    doc = short_config(duration=10.0)
    doc["x0"] = {"q": [0.0, 0.0, 0.0, 1.0], "omega": [0.0, 0.0, 0.0]}
    doc["pwm"] = True
    cfg = scenario_from_dict(doc)
    log = run_scenario(cfg)
    s = summarize(log, cfg)
    assert s["settle_time_s"] == 0.0
    assert s["control_effort_A_m2_s"] == 0.0
    assert s["error_angle_deg"] < 1e-9
    assert s["degraded_solves"] == 0


def test_settle_time_definition(monkeypatch):
    cfg = scenario_from_dict(short_config(duration=10.0))
    log = run_scenario(cfg)
    fake = RunLog(
        t=np.array([0.0, 2.0, 4.0, 6.0]),
        q=np.tile([0, 0, 0, 1.0], (4, 1)),
        omega=np.radians([[1.0, 0, 0], [0.2, 0, 0], [0.6, 0, 0], [0.1, 0, 0]]),
        m_applied=np.zeros((4, 3)),
        m_raw=np.zeros((4, 3)),
        b_orbital=np.zeros((4, 3)),
        cost=np.zeros(4),
        degraded=np.zeros(4, dtype=bool),
    )
    # an excursion above the threshold at t=4 restarts the clock
    assert settle_time(fake) == 6.0
    fake2 = RunLog(
        t=np.array([0.0, 2.0]),
        q=np.tile([0, 0, 0, 1.0], (2, 1)),
        omega=np.radians([[0.1, 0, 0], [1.0, 0, 0]]),
        m_applied=np.zeros((2, 3)),
        m_raw=np.zeros((2, 3)),
        b_orbital=np.zeros((2, 3)),
        cost=np.zeros(2),
        degraded=np.zeros(2, dtype=bool),
    )
    assert settle_time(fake2) is None
    assert settle_time(log) is None or settle_time(log) >= 0.0

    # a run interrupted in its first solve leaves a partial log with no row
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("magsat.scenario.solve", interrupted)
    with pytest.raises(KeyboardInterrupt) as err:
        run_scenario(cfg)
    assert len(err.value.partial_log) == 0
    assert settle_time(err.value.partial_log) is None


def test_summary_error_angle_sign_invariant():
    cfg = scenario_from_dict(short_config(duration=10.0))
    log = run_scenario(cfg)
    flipped = RunLog(
        t=log.t, q=-log.q, omega=log.omega, m_applied=log.m_applied,
        m_raw=log.m_raw, b_orbital=log.b_orbital, cost=log.cost,
        degraded=log.degraded,
    )
    s1 = summarize(log, cfg)
    s2 = summarize(flipped, cfg)
    assert math.isclose(s1["error_angle_deg"], s2["error_angle_deg"], abs_tol=1e-12)
    # the single-sign angles swap roles under negation
    assert math.isclose(
        s1["error_angle_vs_ref_deg"], s2["error_angle_vs_neg_ref_deg"], abs_tol=1e-9
    )


def test_summarize_rejects_empty_log():
    cfg = scenario_from_dict(short_config(duration=10.0))
    empty = RunLog(
        t=np.zeros(0), q=np.zeros((0, 4)), omega=np.zeros((0, 3)),
        m_applied=np.zeros((0, 3)), m_raw=np.zeros((0, 3)),
        b_orbital=np.zeros((0, 3)), cost=np.zeros(0),
        degraded=np.zeros(0, dtype=bool),
    )
    with pytest.raises(ValueError):
        summarize(empty, cfg)


# --- CLI ----------------------------------------------------------------------------------------

def test_cli_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert "sso-paper" in out
    assert "detumble-paper" in out
    assert "attitude-paper" in out


def test_cli_run_writes_csv_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    out_json = tmp_path / "summary.json"
    code = main([
        "run", "detumble-paper", "--duration", "10", "--out", str(out_csv),
        "--summary", str(out_json), "--pwm", "off",
    ])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    # NaN and Infinity are not JSON, though json.loads reads them by default
    summary = json.loads(out_json.read_text(), parse_constant=lambda c: pytest.fail(c))
    assert summary["steps"] == 5
    assert summary["pwm_enabled"] is False
    assert "settle_time_s" in summary
    err = capsys.readouterr().err
    assert "degraded solves" in err


def test_cli_run_stdout_when_no_output(tmp_path, capsys):
    doc = short_config(duration=4.0)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER)


def test_cli_runs_highly_eccentric_orbit(tmp_path, capsys):
    # the orbit's first field sample needs a Kepler solve at e = 0.99 near M = 0
    elements = {"a_km": 1000000.0, "e": 0.99, "i_deg": 97.0, "raan_deg": 0.0,
                "argp_deg": 0.0, "mean_anomaly_deg": 3.528}
    path = tmp_path / "eccentric.json"
    path.write_text(json.dumps(short_config(duration=4.0, elements=elements)))
    out_csv = tmp_path / "run.csv"
    assert main(["run", str(path), "--out", str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 3


def test_cli_unknown_config_exits_2(capsys):
    assert main(["run", "missing-thing"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_invalid_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(short_config(duration=0.5)))
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("duration", ["1e15", "1"])
def test_cli_duration_override_beyond_limits_exits_2(duration, capsys):
    # past MAX_STEPS sampling intervals, and below one 2 s interval
    assert main(["run", "detumble-paper", "--duration", duration]) == 2
    assert "duration" in capsys.readouterr().err


def test_cli_missing_output_directory_exits_2_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("magsat.cli.run_scenario", None)  # must not be reached
    out_csv = tmp_path / "absent" / "run.csv"
    assert main(["run", "detumble-paper", "--duration", "4", "--out", str(out_csv)]) == 2
    assert "absent" in capsys.readouterr().err
    assert not out_csv.parent.exists()


def test_cli_missing_summary_directory_exits_2_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("magsat.cli.run_scenario", None)  # must not be reached
    out_csv = tmp_path / "run.csv"
    out_json = tmp_path / "absent" / "summary.json"
    code = main(["run", "detumble-paper", "--duration", "4", "--out", str(out_csv),
                 "--summary", str(out_json)])
    assert code == 2
    assert "absent" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cli_output_path_naming_a_directory_exits_2_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("magsat.cli.run_scenario", None)  # must not be reached
    assert main(["run", "detumble-paper", "--duration", "4", "--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_cli_summary_path_naming_a_directory_exits_2_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("magsat.cli.run_scenario", None)  # must not be reached
    out_csv = tmp_path / "run.csv"
    code = main(["run", "detumble-paper", "--duration", "4", "--out", str(out_csv),
                 "--summary", str(tmp_path)])
    assert code == 2
    assert "is a directory" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cli_blowup_exits_3_with_partial_csv(tmp_path, capsys):
    doc = short_config(duration=10.0)
    doc["x0"] = {"q": [0.0, 0.0, 0.0, 1.0], "omega": [1e160, 0.0, 0.0]}
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    out_csv = tmp_path / "partial.csv"
    assert main(["run", str(path), "--out", str(out_csv)]) == 3
    assert out_csv.read_text().splitlines()[0] == CSV_HEADER
    assert "diverged" in capsys.readouterr().err


def test_cli_zero_quaternion_norm_exits_3_with_partial_csv(tmp_path, capsys):
    # at 1e41 rad/s the quaternion's norm before renormalization reaches
    # 0.0 in the second 10 s substep of the first interval
    doc = get_scenario_preset("attitude-paper")
    doc["x0"] = {"q": doc["x0"]["q"], "omega": [0.0, -1e41, 0.0]}
    doc["duration"] = 60.0
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(doc))
    out_csv = tmp_path / "partial.csv"
    assert main(["run", str(path), "--out", str(out_csv)]) == 3
    assert out_csv.read_text().splitlines() == [CSV_HEADER]
    err = capsys.readouterr().err
    assert "state became non-finite at t=20.0" in err
    assert "Traceback" not in err


def test_cli_contract_violation_exits_4_with_partial_csv(tmp_path, monkeypatch, capsys):
    steps = []

    def solve_breaking_contract_at_step_2(*args, **kwargs):
        res = solve(*args, **kwargs)
        steps.append(res)
        if len(steps) == 3:
            return dataclasses.replace(res, cost=res.zero_cost + 1.0)
        return res

    monkeypatch.setattr("magsat.scenario.solve", solve_breaking_contract_at_step_2)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(short_config(duration=10.0)))
    out_csv = tmp_path / "partial.csv"
    assert main(["run", str(path), "--out", str(out_csv)]) == 4
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2
    assert "contract violation" in capsys.readouterr().err


def test_cli_interrupt_exits_130_with_partial_csv(tmp_path, monkeypatch, capsys):
    calls = []

    def solve_interrupted_at_step_2(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return solve(*args, **kwargs)

    monkeypatch.setattr("magsat.scenario.solve", solve_interrupted_at_step_2)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(short_config(duration=10.0)))
    out_csv = tmp_path / "partial.csv"
    # an interrupt escaping `main` would stop the whole test session, so it
    # is turned into this test's failure
    try:
        code = main(["run", str(path), "--out", str(out_csv)])
    except KeyboardInterrupt:
        code = "KeyboardInterrupt escaped main"
    assert code == 130
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2
    assert "interrupted" in capsys.readouterr().err


def test_cli_sigterm_exits_143_with_partial_csv(tmp_path):
    # a real SIGTERM to a real `magsat run`, part way through the attitude
    # preset stretched to 1800 steps, ten times its 180 (about 7 s on 2
    # vCPUs; all 1800 take about 115 s), so the signal at 3 s lands mid-run
    out_csv = tmp_path / "partial.csv"
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    with subprocess.Popen(
        [sys.executable, "-m", "magsat.cli", "run", "attitude-paper", "--duration", "54000",
         "--out", str(out_csv)],
        env=env, stderr=subprocess.PIPE, text=True,
    ) as proc:
        time.sleep(3.0)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 143, err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2
    assert "magsat: terminated" in err


def test_cli_pwm_override_toggles_quantizer(tmp_path):
    out_on = tmp_path / "on.csv"
    out_off = tmp_path / "off.csv"
    assert main(["run", "detumble-paper", "--duration", "8", "--out", str(out_on),
                 "--pwm", "on"]) == 0
    assert main(["run", "detumble-paper", "--duration", "8", "--out", str(out_off),
                 "--pwm", "off"]) == 0
    levels = grid_levels(0.1)

    def applied(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        return np.array([[float(c) for c in row[8:11]] for row in rows])

    for v in applied(out_on).ravel():
        assert any(v == lv for lv in levels)
    assert np.any(applied(out_off) != 0.0)
