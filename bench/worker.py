"""One measurement in a fresh interpreter; started by run.py, never by hand.

    worker.py setup CONFIG                  import magsat and load CONFIG
    worker.py cli   CONFIG CSV SUMMARY      ... then time `magsat run` on it
    worker.py trace CONFIG OUTDIR           ... then run the traced loop

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The host's speed drifts by up to 1.5x over seconds to minutes (measured on
# a 2-vCPU VM with no steal time), and a fixed probe slows by the same factor
# as magsat does: over 27 runs of detumble the IQR/median of the host time
# was 0.11, of host time divided by the mean probe time 0.017. So end-to-end
# times are reported at the reference speed, on which the probe takes
# REFERENCE_PROBE_S.
REFERENCE_PROBE_S = 0.005
PROBE_PERIOD_S = 0.2  # interval of the speed probe during a timed call
SETUP_PROBES = 10     # speed probes after a set-up measurement


def speed_probe() -> float:
    """Time a fixed piece of work in magsat's own mix of small numpy ops and Python float arithmetic.

    magsat code is not involved, so a change to magsat cannot move it.
    """
    import numpy as np  # not at module level: set-up time includes numpy's import

    v = np.ones(3)
    s = 0.0
    start = time.perf_counter()
    for _ in range(150):
        v = np.cross(v, v + 1.0) * 1e-3 + 1.0
        s += float(v @ v) * 0.5
    return time.perf_counter() - start


def at_reference_speed(host_s: float, probe_times: list[float]) -> float:
    """Host seconds rescaled to a host on which speed_probe takes REFERENCE_PROBE_S."""
    return host_s * REFERENCE_PROBE_S / statistics.fmean(probe_times)


class ProbeTimer:
    """Runs speed_probe every PROBE_PERIOD_S (on SIGALRM) while the block runs."""

    def __enter__(self):
        self.times: list[float] = []
        signal.signal(signal.SIGALRM, lambda *_: self.times.append(speed_probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_cli(magsat_cli, config: str, csv_path: str, summary_path: str) -> dict:
    speed_probe()  # warm-up
    start = time.perf_counter()
    try:
        with ProbeTimer() as probes:
            code = magsat_cli.main(["run", config, "--out", csv_path, "--summary", summary_path])
        error = None if code == 0 else f"magsat run exited with code {code}"
    except RuntimeError as exc:  # solver contract violation (divergence exits with code 3)
        error = f"{type(exc).__name__}: {exc}"
    host_s = time.perf_counter() - start - sum(probes.times)
    times = probes.times or [speed_probe() for _ in range(SETUP_PROBES)]
    return {"run_s": at_reference_speed(host_s, times), "host_run_s": host_s, "error": error}


def _run_traced(cfg, outdir: Path) -> dict:
    import layers
    from tracing import Tracer, layer_table, span_cost_s

    tracer = Tracer()
    start = time.perf_counter()
    try:
        text, solves, samples = layers.traced_loop(cfg, tracer)
    except RuntimeError as exc:  # contract violation or IntegrationDivergedError
        return {"error": f"{type(exc).__name__}: {exc}"}
    loop_s = time.perf_counter() - start
    (outdir / "traced.csv").write_text(text)
    metrics = layers.layer_metrics(tracer, solves, text)
    metrics.update(layers.micro_metrics(cfg, samples))
    (outdir / "spans.json").write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "step"], "spans": tracer.spans,
    }))
    table = layer_table(tracer.spans)
    loop_total = table["scenario.loop"]["total_s"]
    return {
        "error": None,
        "loop_s": loop_s,
        # Host speed drifts too much between the untraced and the traced run
        # for their difference to show a few percent, so the overhead is
        # the spans recorded times the measured cost of one.
        "overhead_share": len(tracer.spans) * span_cost_s() / loop_s,
        "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "layers": metrics,
        "self_share_of_loop": {name: row["self_s"] / loop_total for name, row in table.items()},
    }


def main(argv: list[str]) -> int:
    mode, config = argv[0], argv[1]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import magsat
    import magsat.cli
    t1 = time.perf_counter()
    if Path(magsat.__file__).resolve().parent != SRC / "magsat":
        raise SystemExit(f"magsat was imported from {magsat.__file__}, not from {SRC}")
    cfg = magsat.load_config(config)
    host_s = time.perf_counter() - t0
    speed_probe()  # warm-up
    out = {
        "import_s": t1 - t0,
        "host_setup_s": host_s,
        "setup_s": at_reference_speed(host_s, [speed_probe() for _ in range(SETUP_PROBES)]),
    }
    if mode == "cli":
        out.update(_run_cli(magsat.cli, config, argv[2], argv[3]))
    elif mode == "trace":
        out.update(_run_traced(cfg, Path(argv[2])))
    elif mode != "setup":
        raise SystemExit(f"unknown worker mode {mode!r}")
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
