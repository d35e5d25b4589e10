"""Parallel, crash-tolerant sweeps with a shared on-disk trace cache.

Runs the same 4-configs x 2-benchmarks grid twice — serially, then on
worker processes — shows the results are bit-identical, and
demonstrates resume from a result store under parallel execution: kill
the grid (Ctrl-C) and re-run, and only the unfinished cells execute.

Run:  python examples/parallel_sweep.py [jobs] [n_references]
"""

import os
import sys
import tempfile
import time
from typing import Optional

from repro.nurapid.config import PromotionPolicy
from repro.service.store import ResultStore
from repro.sim import Sweep, SweepAxis
from repro.sim.config import nurapid_config
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import tabulate


def make_sweep(
    workdir: str, jobs: int, n_references: int, store: Optional[ResultStore]
) -> Sweep:
    # The serial reference pass runs with no store: it simulates every
    # cell, so "bit-identical" compares two computations rather than a
    # store hit with itself.
    return Sweep(
        axes=[
            SweepAxis("n_dgroups", (2, 4)),
            SweepAxis(
                "promotion",
                (PromotionPolicy.NEXT_FASTEST, PromotionPolicy.DEMOTION_ONLY),
            ),
        ],
        build=lambda n_dgroups, promotion: nurapid_config(
            n_dgroups=n_dgroups, promotion=promotion
        ),
        benchmarks=["galgel", "twolf"],
        n_references=n_references,
        jobs=jobs,
        # Workers load each benchmark's base trace from here instead of
        # regenerating it per cell; delete the directory to reclaim space
        # or call TraceCache(dir).prune(max_bytes).
        trace_cache_dir=os.path.join(workdir, "traces"),
        result_store=store,
    )


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else (os.cpu_count() or 2)
    n_references = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    # Refs-specific workdir: a store left by a run at another scale
    # holds only cells of that scale, which this grid would never hit.
    workdir = os.path.join(
        tempfile.gettempdir(), f"repro-parallel-sweep-{n_references}"
    )
    store_dir = os.path.join(workdir, "store")
    store = ResultStore(store_dir)
    resuming = store.entries() > 0

    started = time.perf_counter()
    parallel_points = make_sweep(workdir, jobs, n_references, store).run()
    parallel_s = time.perf_counter() - started

    started = time.perf_counter()
    serial_points = make_sweep(workdir, 1, n_references, None).run()
    serial_s = time.perf_counter() - started

    identical = all(
        {b: run_result_to_dict(r) for b, r in s.runs.items()}
        == {b: run_result_to_dict(r) for b, r in p.runs.items()}
        for s, p in zip(serial_points, parallel_points)
    )

    print(tabulate(parallel_points, lambda p: p.mean_ipc()))
    print()
    if resuming:
        print(f"resumed from result store {store_dir}")
    print(
        f"serial {serial_s:.1f}s vs jobs={jobs} {parallel_s:.1f}s "
        f"({serial_s / max(parallel_s, 1e-9):.2f}x); bit-identical: {identical}"
    )
    print(f"result store + trace cache under {workdir} (delete to start fresh)")


if __name__ == "__main__":
    main()
