"""Command-line interface.

    magsat run <config-or-preset> [--pwm on|off] [--out CSV] [--duration S]
                                  [--summary JSON]
    magsat presets list

Exit status: 0 on success, 2 on configuration errors, 3 on integration
blow-up, 4 on a solver contract violation (a solve costing more than the zero
or warm-start sequence), 130 when the run is interrupted (Ctrl-C) and 143
when it receives SIGTERM. On 3, 4, 130 and 143 the rows logged so far are
still written. The SIGTERM handler is installed for the run only; the
caller's own handler is restored after it.
A CSV or summary path whose directory is missing, or that names an existing
directory, is a configuration error, reported before the run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import presets
from .errors import ConfigError, IntegrationDivergedError, SolverContractError, Terminated
from .scenario import load_config, run_scenario, summarize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_CONTRACT = 4
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143  # 128 + SIGTERM, as a shell reports a process it killed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsat",
        description="Closed-loop magnetorquer attitude control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file or preset")
    run_p.add_argument("config", help="JSON config path or preset name")
    run_p.add_argument("--pwm", choices=["on", "off"], default=None,
                       help="override the quantizer flag")
    run_p.add_argument("--out", default=None, help="CSV output path (default: config, else stdout)")
    run_p.add_argument("--duration", type=float, default=None,
                       help="override the simulated duration in seconds")
    run_p.add_argument("--summary", default=None, help="write the run summary as JSON here")

    presets_p = sub.add_parser("presets", help="inspect built-in presets")
    presets_p.add_argument("action", choices=["list"])
    return parser


def _print_summary(summary: dict) -> None:
    settle = summary["settle_time_s"]
    settle_txt = "never" if settle is None else f"{settle:.1f} s"
    lines = [
        f"steps: {summary['steps']}  duration: {summary['duration_s']:.1f} s  "
        f"pwm: {'on' if summary['pwm_enabled'] else 'off'}",
        f"rate settle (<= {summary['rate_threshold_deg_s']} deg/s): {settle_txt}  "
        f"final rate: {summary['final_rate_deg_s']:.4f} deg/s",
        f"attitude error: {summary['error_angle_deg']:.3f} deg "
        f"(vs +ref {summary['error_angle_vs_ref_deg']:.3f}, "
        f"vs -ref {summary['error_angle_vs_neg_ref_deg']:.3f})",
        f"control effort: {summary['control_effort_A_m2_s']:.4f} A*m^2*s  "
        f"degraded solves: {summary['degraded_solves']}",
        f"x0 quaternion norm before normalization: {summary['x0_quat_norm_before']!r}",
    ]
    print("\n".join(lines), file=sys.stderr)


def _raise_terminated(signum, frame):
    raise Terminated("SIGTERM")


def _cmd_run(args: argparse.Namespace) -> int:
    pwm = None if args.pwm is None else args.pwm == "on"
    overrides = {"duration": args.duration, "pwm_enabled": pwm, "output_path": args.out}
    try:
        cfg = load_config(args.config)
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        for path in (cfg.output_path, args.summary):
            if path is None:
                continue
            if not Path(path).parent.is_dir():
                raise ConfigError(f"the directory of {path!r} does not exist")
            if Path(path).is_dir():
                raise ConfigError(f"{path!r} is a directory, not a file path")
    except ConfigError as exc:
        print(f"magsat: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        log, failure = run_scenario(cfg), None
    except (IntegrationDivergedError, SolverContractError, KeyboardInterrupt, Terminated) as exc:
        log, failure = exc.partial_log, exc
    finally:
        signal.signal(signal.SIGTERM, previous)
    if cfg.output_path is None:
        sys.stdout.write(log.to_csv())
    else:
        log.write_csv(cfg.output_path)
    if isinstance(failure, KeyboardInterrupt):
        print("magsat: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    if isinstance(failure, Terminated):
        print("magsat: terminated", file=sys.stderr)
        return EXIT_TERMINATED
    if failure is not None:
        diverged = isinstance(failure, IntegrationDivergedError)
        print(f"magsat: {'integration diverged: ' if diverged else ''}{failure}", file=sys.stderr)
        return EXIT_DIVERGED if diverged else EXIT_CONTRACT

    summary = summarize(log, cfg)
    _print_summary(summary)
    if args.summary is not None:
        Path(args.summary).write_text(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in presets.preset_names():
        print(f"{name:16s} {presets.DESCRIPTIONS[name]}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_presets(args)


if __name__ == "__main__":
    sys.exit(main())
