"""Closed-loop benchmark of magsat: host throughput and control quality per workload.

    python3 bench/run.py --workload detumble --seed 1 --seconds 30 --trace 0

Run from the repository root. Every measurement runs in a fresh worker
interpreter (bench/worker.py), one at a time. The seed makes a batch of
configs (workloads.batch). With --trace 0 the timed call is `magsat run
<config>`, on each config in turn for --seconds, and the end-to-end metrics
are printed; their times are rescaled to a reference host speed (see
worker.REFERENCE_PROBE_S), and the raw host times go in the report. With
--trace 1 one untraced run of the first config is followed by a traced run
of the same loop, and the per-layer metrics are printed, in raw host time.
Every run checks the CSV it produced. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics; the line
before it holds the seed, the workload's reason, the checks and provenance.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_LIMIT_S = 170.0  # every worker of one run must end within this
SETUP_SAMPLES = 11   # set-up measurements per run (timed runs count too)

CSV_COLUMNS = (
    "t q1 q2 q3 q4 wx wy wz mx my mz mx_raw my_raw mz_raw Bx By Bz J degraded".split()
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(*args, deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout <= 0.0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_csv(text: str, doc: dict) -> tuple[list[str], dict]:
    """Check a run's CSV against the config that produced it.

    Returns the problems found and the quality figures: row count, share of
    degraded solves and the mean over rows of (x - x_ref)' Q (x - x_ref).
    """
    mpc = doc["mpc"]
    u_max = float(mpc["u_max"])
    expected_rows = round(doc["duration"] / mpc["ts"])
    grid = {-u_max, -(2.0 * u_max / 3.0), -(u_max / 3.0), 0.0, u_max / 3.0, 2.0 * u_max / 3.0, u_max}
    x_ref = [*mpc["x_ref"]["q"], *mpc["x_ref"]["omega"]]
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if header != list(CSV_COLUMNS):
        return [f"unexpected CSV header {header}"], {"rows": 0, "degraded_share": 0.0, "track_cost": 0.0}
    problems = []
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected round(duration/Ts) = {expected_rows}")
    degraded = 0
    track = 0.0
    for i, cells in enumerate(rows):
        if len(cells) != len(CSV_COLUMNS) or cells[-1] not in ("0", "1"):
            problems.append(f"row {i}: malformed")
            continue
        vals = [float(c) for c in cells[:-1]]
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"row {i}: non-finite value")
        if any(abs(v) > u_max for v in vals[11:14]):
            problems.append(f"row {i}: |m_raw| exceeds u_max")
        if doc.get("pwm") and any(v not in grid for v in vals[8:11]):
            problems.append(f"row {i}: applied dipole off the 7-level grid")
        degraded += cells[-1] == "1"
        track += sum(w * (x - r) ** 2 for w, x, r in zip(mpc["q_diag"], vals[1:8], x_ref))
    if len(problems) > 5:
        problems = problems[:5] + [f"... {len(problems) - 5} more"]
    n = max(len(rows), 1)
    return problems, {"rows": len(rows), "degraded_share": degraded / n, "track_cost": track / n}


def end_to_end(docs: list, cfg_paths: list, outdir: Path, seconds: float, deadline: float):
    """Time `magsat run` on each config of the batch in turn, until --seconds are spent
    and the first config has run twice; return metrics, counts, checks and details.

    Throughput and quality are pooled over the batch, each config counting once.
    """
    reps, problems = [], []
    start = time.perf_counter()
    while True:
        n, i = len(reps), len(reps) % len(docs)
        csv_path = outdir / f"rep{n}.csv"
        rep = _worker("cli", cfg_paths[i], csv_path, outdir / f"rep{n}-summary.json",
                      deadline=deadline)
        reps.append(rep)
        rep["config"] = i
        if rep["error"]:
            problems.append(f"run {n} (config {i}) failed: {rep['error']}")
            break
        rep["csv"] = csv_path
        rep["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        elapsed = time.perf_counter() - start
        if n >= len(docs) and elapsed * (n + 2) / (n + 1) > seconds:
            break
    setups = list(reps)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker("setup", cfg_paths[0], deadline=deadline))
    failed = sum(1 for r in reps if r["error"])
    info = {key: [r.get(key) for r in reps] for key in ("config", "run_s", "host_run_s", "csv_sha256")}
    info.update({key: [r[key] for r in setups] for key in ("setup_s", "host_setup_s")})
    if failed:
        return {}, len(reps), failed, problems, info
    by_config = [[r for r in reps if r["config"] == i] for i in range(len(docs))]
    qualities = []
    for i, runs in enumerate(by_config):
        if len({r["csv_sha256"] for r in runs}) != 1:
            problems.append(f"repetitions of config {i} wrote different CSVs")
        csv_problems, quality = check_csv(runs[0]["csv"].read_text(), docs[i])
        problems += [f"config {i}: {p}" for p in csv_problems]
        qualities.append(quality)
    info["quality"] = qualities
    ref_s = sum(statistics.median(r["run_s"] for r in runs) for runs in by_config)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "sim_s_per_s": sum(doc["duration"] for doc in docs) / ref_s,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reps) / 1024.0,
        "degraded_share": statistics.fmean(q["degraded_share"] for q in qualities),
        "track_cost": statistics.fmean(q["track_cost"] for q in qualities),
    }
    return metrics, len(reps), failed, problems, info


def per_layer(doc: dict, cfg_path: Path, outdir: Path, deadline: float):
    """One untraced run, then the traced loop; return layer metrics, counts, checks."""
    csv_path = outdir / "untraced.csv"
    plain = _worker("cli", cfg_path, csv_path, outdir / "untraced-summary.json", deadline=deadline)
    traced = _worker("trace", cfg_path, outdir, deadline=deadline)
    problems = [f"{kind} run failed: {r['error']}" for kind, r in (("untraced", plain), ("traced", traced))
                if r["error"]]
    failed = len(problems)
    if failed:
        return {}, 2, failed, problems, {}
    plain_hash = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    if traced["csv_sha256"] != plain_hash:
        problems.append("traced loop wrote a different CSV than the untraced run")
    csv_problems, quality = check_csv(csv_path.read_text(), doc)
    problems += csv_problems
    metrics = dict(traced["layers"])
    metrics["setup.import_s"] = traced["import_s"]
    metrics["trace.overhead_share"] = traced["overhead_share"]
    info = {
        "quality": quality,
        "csv_sha256": plain_hash,
        "untraced_run_s": plain["host_run_s"],
        "traced_loop_s": traced["loop_s"],
        "self_share_of_loop": traced["self_share_of_loop"],
        "spans": str((outdir / "spans.json").relative_to(ROOT)),
    }
    return metrics, 2, failed, problems, info


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + RUN_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "magsat" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no magsat sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    provenance = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    docs = workloads.batch(args.workload, args.seed)
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cfg_paths = [outdir / f"config{i}.json" for i in range(len(docs))]
    for doc, path in zip(docs, cfg_paths):
        path.write_text(json.dumps(doc, indent=2) + "\n")

    try:
        if args.trace:
            values, attempted, failed, problems, info = per_layer(
                docs[0], cfg_paths[0], outdir, deadline)
        else:
            values, attempted, failed, problems, info = end_to_end(
                docs, cfg_paths, outdir, seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if values and set(values) != {m["name"] for m in wanted}:
        print(f"bench: metrics {sorted(values)} do not match {spec_path.name}", file=sys.stderr)
        return 1
    provenance["loadavg_end"] = os.getloadavg()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "workloads": workloads.WHY,
        "configs": [str(path.relative_to(ROOT)) for path in cfg_paths],
        "checks": problems or "all passed",
        "provenance": provenance,
        "details": info,
    }
    result = {
        "correct": not problems and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    (outdir / "result.json").write_text(json.dumps({"report": report, "result": result}, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
