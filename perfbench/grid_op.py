"""One grid-cold op: a fresh interpreter runs a smoke-scale figure-9 grid.

This is the path ``python -m repro.experiments figure9 --scale smoke
--jobs 2`` takes with a cold ``REPRO_TRACE_CACHE`` (import, trace
generation, decoded-segment build, mmap trace transport to a forked
pool, cold prewarm, replay), on a fixed one-benchmark subset so
an op takes about a second.  Run as::

    python3 perfbench/grid_op.py --seed 7 [--trace]

It prints one JSON line: the canonical result of every cell, its own
import time and peak RSS, the runtime-counter deltas of this process,
with ``--count-workers DIR`` those of its pool workers, and, with
``--trace``, the span summary.  The benchmark also imports it
for the grid definition and :func:`digest`.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

BENCHMARKS = ["gcc"]
REFS = 30_000
WARMUP = 0.3  # the smoke scale's warmup fraction


def grid_configs():
    """Figure 9's configs: base, D-NUCA (ss-performance), NuRAPID 4dg/8dg."""
    from repro.nuca.config import SearchPolicy
    from repro.sim.config import base_config, dnuca_config, nurapid_config

    return [
        base_config(),
        dnuca_config(policy=SearchPolicy.SS_PERFORMANCE),
        nurapid_config(n_dgroups=4),
        nurapid_config(n_dgroups=8),
    ]


def canonical(payload) -> str:
    """The byte-compared JSON form of a result payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(result) -> str:
    """Canonical JSON of a RunResult's payload."""
    from repro.sim.results import run_result_to_dict

    return canonical(run_result_to_dict(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--count-workers", metavar="DIR")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.experiments.common import Scale, run_matrix
    from repro.telemetry.runtime import runtime_counters

    import_s = perf_counter() - _T0
    configs = grid_configs()
    scale = Scale(name="smoke", n_references=REFS, warmup_fraction=WARMUP, seed=args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    if args.count_workers:
        from tracing import count_workers

        count_workers("repro.sim.parallel", args.count_workers)
    before = runtime_counters()
    with tracer or contextlib.nullcontext():
        results = run_matrix(configs, BENCHMARKS, scale)
    after = runtime_counters()
    out = {
        "import_s": import_s,
        "digests": {
            f"{name}/{bench}": digest(run)
            for name, runs in results.items()
            for bench, run in runs.items()
        },
        "counters": {k: v - before.get(k, 0) for k, v in after.items()},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.count_workers:
        from tracing import worker_counters

        out["worker_counters"] = worker_counters(args.count_workers)
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["cells"] = tracer.cells
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
