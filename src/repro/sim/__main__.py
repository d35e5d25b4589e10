"""CLI for single simulation runs.

Examples::

    python -m repro.sim base art
    python -m repro.sim nurapid art --refs 400000 --dgroups 8
    python -m repro.sim dnuca twolf --policy ss-energy
    python -m repro.sim compare galgel          # base vs nurapid vs dnuca

    # pick the replay engine explicitly (default: $REPRO_ENGINE, else
    # the vectorized kernel; both give bit-identical results):
    python -m repro.sim nurapid art --engine legacy

    # run a comparison's systems on worker processes (bit-identical
    # to --jobs 1; default: $REPRO_JOBS, else 1):
    python -m repro.sim compare galgel --jobs 3

    # collect telemetry and print the merged report after the run
    # (same values REPRO_TELEMETRY takes: "on", or a directory to
    # flush JSONL event traces into):
    python -m repro.sim nurapid art --telemetry on
    python -m repro.sim nurapid art --telemetry /tmp/nurapid-traces
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import ConfigurationError
from repro.nuca.config import SearchPolicy
from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.sim.config import (
    ENGINES,
    base_config,
    dnuca_config,
    env_jobs,
    nurapid_config,
    resolve_engine,
    sa_nuca_config,
)
from repro.sim.parallel import CellTask, run_cells
from repro.sim.results import RunResult, run_result_from_dict
from repro.telemetry import telemetry_from_env
from repro.workloads.spec2k import suite_names
from repro.workloads.tracegen import trace_entries


def _print_result(result: RunResult) -> None:
    print(f"config      : {result.config_name}")
    print(f"benchmark   : {result.benchmark}")
    print(f"instructions: {result.instructions}")
    print(f"cycles      : {result.cycles:.0f}")
    print(f"IPC         : {result.ipc:.3f}")
    print(f"L2 accesses : {result.l2_accesses} ({result.l2_apki:.1f}/1k inst)")
    print(f"L2 miss frac: {result.l2_miss_fraction:.3f}")
    if result.dgroup_fractions:
        fractions = ", ".join(
            f"dg{k}={v:.1%}" for k, v in sorted(result.dgroup_fractions.items())
        )
        print(f"d-group hits: {fractions}")
    print(f"L2 energy   : {result.lower_energy_nj / 1000:.1f} uJ")
    print(f"proc energy : {result.total_energy_nj / 1000:.1f} uJ "
          f"(ED {result.energy_delay:.3e})")


def _config_for(args) -> list:
    if args.system == "base":
        return [base_config()]
    if args.system == "nurapid":
        return [
            nurapid_config(
                n_dgroups=args.dgroups,
                promotion=PromotionPolicy(args.promotion),
                distance_replacement=DistanceReplacementKind(args.distance),
                ideal_uniform=args.ideal,
            )
        ]
    if args.system == "dnuca":
        return [dnuca_config(policy=SearchPolicy(args.policy))]
    if args.system == "sa-nuca":
        return [sa_nuca_config()]
    if args.system == "compare":
        return [
            base_config(),
            nurapid_config(n_dgroups=args.dgroups),
            dnuca_config(policy=SearchPolicy(args.policy)),
        ]
    raise AssertionError(args.system)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Run one benchmark on one (or a comparison of) systems.",
    )
    parser.add_argument(
        "system", choices=["base", "nurapid", "dnuca", "sa-nuca", "compare"]
    )
    parser.add_argument("benchmark", choices=suite_names())
    parser.add_argument("--refs", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=float, default=0.4)
    parser.add_argument("--dgroups", type=int, default=4, choices=[2, 4, 8])
    parser.add_argument(
        "--promotion", default="next-fastest",
        choices=[p.value for p in PromotionPolicy],
    )
    parser.add_argument(
        "--distance", default="random",
        choices=[k.value for k in DistanceReplacementKind],
    )
    parser.add_argument(
        "--policy", default="ss-performance",
        choices=[p.value for p in SearchPolicy],
    )
    parser.add_argument("--ideal", action="store_true")
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="replay engine (default: $REPRO_ENGINE, else vectorized)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for multi-system runs "
             "(default: $REPRO_JOBS, else 1; bit-identical to 1)",
    )
    parser.add_argument(
        "--telemetry", metavar="SPEC", default=None,
        help="collect telemetry and print the merged report; SPEC is "
             "'on' for histograms, or a directory for JSONL event "
             "traces (same values as $REPRO_TELEMETRY)",
    )
    args = parser.parse_args(argv)

    try:
        jobs = args.jobs if args.jobs is not None else env_jobs()
        resolve_engine(args.engine)  # a bad $REPRO_ENGINE fails here
    except ConfigurationError as exc:
        parser.error(str(exc))
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    telemetry = telemetry_from_env(args.telemetry)
    if args.telemetry is not None and telemetry is None:
        parser.error(f"--telemetry {args.telemetry!r} disables collection; "
                     "pass 'on' or a trace directory")

    import dataclasses

    configs = _config_for(args)
    if args.engine is not None:
        configs = [
            dataclasses.replace(config, engine=args.engine)
            for config in configs
        ]
    # Every system replays the benchmark's one trace-cache entry, which
    # pooled workers map by path.
    with trace_entries([args.benchmark], args.refs, args.seed) as trace_paths:
        tasks = [
            CellTask(
                index=index,
                config=config,
                benchmark=args.benchmark,
                n_references=args.refs,
                seed=args.seed,
                warmup_fraction=args.warmup,
                trace_path=trace_paths[args.benchmark],
                isolate_errors=False,
                telemetry=telemetry,
            )
            for index, config in enumerate(configs)
        ]
        results = [
            run_result_from_dict(payload["result"])
            for payload in run_cells(tasks, jobs)
        ]
    for result in results:
        _print_result(result)
        print()
    if len(results) > 1:
        base = results[0]
        for other in results[1:]:
            rel = other.ipc / base.ipc
            print(f"{other.config_name} vs {base.config_name}: "
                  f"{(rel - 1) * 100:+.1f}% performance, "
                  f"{other.lower_energy_nj / base.lower_energy_nj:.2f}x L2 energy")
    if telemetry is not None:
        from repro.telemetry.report import merge_payloads, render_report

        pairs = [
            (f"{r.config_name}/{r.benchmark}", r.telemetry)
            for r in results
            if r.telemetry is not None
        ]
        if pairs:
            print()
            print(render_report(merge_payloads(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
