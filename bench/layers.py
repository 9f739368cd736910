"""Traced closed loop and per-layer micro-timings; runs inside a worker process.

The loop is the one `magsat.scenario.run_scenario` runs, driven here from
public calls so that each call into a layer gets its own span. The field
callable handed to `solve` and `propagate` is wrapped too, so field samples
nest under the span of their caller.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import magsat as ms
from magsat.controller import MAX_ITERATIONS
from magsat.scenario import PREDICTION_SUBSTEPS

from tracing import Tracer, layer_table, percentile

SAMPLED_STATES = 8       # trajectory states the micro-timings run at
REFERENCE_SUBSTEPS = 20  # the prediction PREDICTION_SUBSTEPS is claimed to match
REPEATS = {"propagate": 5, "field": 100, "predict": 20, "gradient": 20}


def traced_loop(cfg: ms.ScenarioConfig, tracer: Tracer):
    """Run the closed loop under `tracer`.

    Returns the CSV text, (iterations, degraded) per solve, and the
    (state, t, sequence, applied dipole) at SAMPLED_STATES evenly spaced steps.
    """
    field = ms.field_function(cfg.elements)

    def field_at(t):
        return tracer.call("orbit.field_at", field, t)

    mpc = cfg.mpc
    steps = round(cfg.duration / mpc.ts)
    picks = {round(i * (steps - 1) / (SAMPLED_STATES - 1)) for i in range(SAMPLED_STATES)}
    rows = {k: [] for k in ("t", "q", "omega", "m_applied", "m_raw", "b_orbital", "cost", "degraded")}
    solves, samples = [], []
    state, warm = cfg.x0, None
    root = tracer.begin("scenario.loop")
    for k in range(steps):
        tracer.step = k
        t = k * mpc.ts
        b_orb = field_at(t)
        res = tracer.call(
            "controller.solve", ms.solve, state, t, field_at, mpc, cfg.inertia,
            warm=warm, substeps=PREDICTION_SUBSTEPS,
        )
        if res.cost > res.zero_cost or (res.warm_cost is not None and res.cost > res.warm_cost):
            raise RuntimeError(f"solver contract violation at t={t}")
        m_raw = res.command
        m_applied = (
            tracer.call("quantizer.quantize_vector", ms.quantize_vector, m_raw, mpc.u_max)
            if cfg.pwm_enabled else m_raw
        )
        rows["t"].append(t)
        rows["q"].append(state.q.copy())
        rows["omega"].append(state.omega.copy())
        rows["m_applied"].append(m_applied.m.copy())
        rows["m_raw"].append(m_raw.m.copy())
        rows["b_orbital"].append(b_orb.b.copy())
        rows["cost"].append(res.cost)
        rows["degraded"].append(res.degraded)
        solves.append((res.iterations, res.degraded))
        if k in picks:
            samples.append((state, t, res.sequence, m_applied))
        state = tracer.call(
            "dynamics.propagate", ms.propagate,
            state, m_applied, field_at, t, mpc.ts, cfg.substeps, cfg.inertia,
        )
        warm = ms.shift_warm_start(res.sequence)
    tracer.step = -1
    tracer.end(root)
    n = len(rows["t"])
    log = ms.RunLog(
        t=np.array(rows["t"], dtype=float),
        q=np.array(rows["q"], dtype=float).reshape(n, 4),
        omega=np.array(rows["omega"], dtype=float).reshape(n, 3),
        m_applied=np.array(rows["m_applied"], dtype=float).reshape(n, 3),
        m_raw=np.array(rows["m_raw"], dtype=float).reshape(n, 3),
        b_orbital=np.array(rows["b_orbital"], dtype=float).reshape(n, 3),
        cost=np.array(rows["cost"], dtype=float),
        degraded=np.array(rows["degraded"], dtype=bool),
    )
    text = tracer.call("scenario.to_csv", log.to_csv)
    return text, solves, samples


def _median_us(fn, cases, repeats: int) -> float:
    """Median wall time of fn(case) in microseconds, after one warm-up call per case."""
    for case in cases:
        fn(case)
    times = []
    for _ in range(repeats):
        for case in cases:
            t0 = time.perf_counter_ns()
            fn(case)
            times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def micro_metrics(cfg: ms.ScenarioConfig, samples) -> dict:
    """Single-call timings of each layer at states taken from the traced trajectory.

    dynamics.step_us is one plant `propagate` over Ts divided by its substeps.
    The dynamics and controller calls read the field from a table filled
    beforehand, so their times exclude the orbit model.
    """
    field = ms.field_function(cfg.elements)
    mpc, inertia = cfg.mpc, cfg.inertia
    cases = []
    for state, t, seq, m in samples:
        table = {t + k * mpc.ts: field(t + k * mpc.ts) for k in range(mpc.horizon)}
        cases.append((state, t, seq, m, table.__getitem__))
    rel_err = 0.0
    for state, t, seq, _, _ in cases:
        j5 = ms.total_cost(
            ms.predict(state, seq, field, t, mpc, inertia, substeps=PREDICTION_SUBSTEPS), seq, mpc
        )
        j20 = ms.total_cost(
            ms.predict(state, seq, field, t, mpc, inertia, substeps=REFERENCE_SUBSTEPS), seq, mpc
        )
        if j20 != 0.0:
            rel_err = max(rel_err, abs(j5 - j20) / abs(j20))
    return {
        "dynamics.step_us": _median_us(
            lambda c: ms.propagate(c[0], c[3], c[4], c[1], mpc.ts, cfg.substeps, inertia),
            cases, REPEATS["propagate"],
        ) / cfg.substeps,
        "controller.predict_us": _median_us(
            lambda c: ms.predict(c[0], c[2], c[4], c[1], mpc, inertia, substeps=PREDICTION_SUBSTEPS),
            cases, REPEATS["predict"],
        ),
        "controller.gradient_us": _median_us(
            lambda c: ms.gradient(c[0], c[2], c[1], c[4], mpc, inertia, substeps=PREDICTION_SUBSTEPS),
            cases, REPEATS["gradient"],
        ),
        "orbit.field_at_us": _median_us(lambda c: field(c[1]), cases, REPEATS["field"]),
        "controller.pred_substep_rel_err.max": rel_err,
    }


def layer_metrics(tracer: Tracer, solves, csv_text: str) -> dict:
    """Per-layer counts and self times of the traced loop."""
    table = layer_table(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def durations_ms(name):
        return [1e3 * (s[2] - s[1]) for s in tracer.spans if s[0] == name]

    iterations = [it for it, _ in solves]
    capped = sum(1 for it, _ in solves if it >= MAX_ITERATIONS)
    stalled = sum(1 for it, deg in solves if deg and it < MAX_ITERATIONS)
    out = {}
    for name in ("controller.solve", "dynamics.propagate", "orbit.field_at", "quantizer.quantize_vector"):
        row = table.get(name, empty)
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    out.update({
        "controller.solve_ms.p50": percentile(durations_ms("controller.solve"), 50),
        "controller.solve_ms.p90": percentile(durations_ms("controller.solve"), 90),
        "controller.iterations.mean": statistics.fmean(iterations),
        "controller.iterations.max": max(iterations),
        "controller.iter_cap_share": capped / len(solves),
        "controller.stalled_share": stalled / len(solves),
        "dynamics.propagate_ms.p50": percentile(durations_ms("dynamics.propagate"), 50),
        "scenario.loop.self_s": table["scenario.loop"]["self_s"],
        "scenario.to_csv_s": table["scenario.to_csv"]["total_s"],
        "scenario.csv_bytes": len(csv_text.encode()),
    })
    return out
