"""CLI for regenerating the paper's tables and figures.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments table4
    python -m repro.experiments figure6 figure9 --scale full
    python -m repro.experiments all --scale quick --out results/
    python -m repro.experiments all --scale full --jobs 8
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.common.errors import ConfigurationError
from repro.experiments import experiment_names, run_experiment, scale_by_name
from repro.experiments.common import (
    default_jobs,
    set_default_jobs,
    set_default_supervisor,
    set_default_telemetry,
)
from repro.sim.config import resolve_engine
from repro.telemetry import telemetry_from_env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the NuRAPID paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names, or 'all' (see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--scale",
        default="quick",
        choices=["full", "quick", "smoke"],
        help="workload scale (full ~= paper-shaped, quick for iteration)",
    )
    parser.add_argument(
        "--out", default=None, help="directory to also write .txt/.json reports"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for (config, benchmark) grids "
        "(default: $REPRO_JOBS or 1; results are identical for any value)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render distribution figures as ASCII stacked bars",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run grid cells on the supervised worker pool (also at "
        "--jobs 1) and kill and retry any cell attempt exceeding this "
        "wall-clock deadline (default: no per-cell deadline)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="MODE",
        help="telemetry collection: 'on' for histograms/counters, a "
        "directory to also flush JSONL event traces, 'off' to force the "
        "null sink (default: $REPRO_TELEMETRY, else off); simulated "
        "results are identical either way",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in experiment_names():
            print(name)
        return 0

    names = args.experiments
    if not names:
        parser.error("give experiment names or 'all' (or --list)")
    if names == ["all"]:
        names = experiment_names()
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    scale = scale_by_name(args.scale)
    try:
        if args.jobs is not None:
            set_default_jobs(args.jobs)
        else:
            default_jobs()  # a bad $REPRO_JOBS fails here, before any work
        resolve_engine()  # and so does a bad $REPRO_ENGINE
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.telemetry is not None:
        set_default_telemetry(telemetry_from_env(args.telemetry))
    if args.cell_timeout is not None:
        if not args.cell_timeout > 0:
            parser.error(f"--cell-timeout must be positive, got {args.cell_timeout}")
        from repro.resilience.supervisor import SupervisorConfig

        set_default_supervisor(
            SupervisorConfig(cell_timeout_s=args.cell_timeout)
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    for name in names:
        started = time.time()
        report = run_experiment(name, scale)
        elapsed = time.time() - started
        print(report.to_text())
        if args.chart and report.rows and "dg0" in report.rows[0]:
            from repro.experiments.render import render_figure_distribution

            group_keys = sorted(
                k for k in report.rows[0] if k.startswith("dg") and k[2:].isdigit()
            )
            label_keys = [
                k for k in report.rows[0]
                if not k.startswith("dg") and k != "miss"
            ]
            print()
            print(render_figure_distribution(report.rows, group_keys, label_keys))
        print(f"[{name} finished in {elapsed:.1f}s at scale={scale.name}]")
        print()
        if args.out:
            base = os.path.join(args.out, name)
            with open(base + ".txt", "w", encoding="utf-8") as handle:
                handle.write(report.to_text() + "\n")
            with open(base + ".json", "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
