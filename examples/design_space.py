"""Sweep NuRAPID's design space: d-group counts x promotion policies.

A compact version of the paper's §5.2–5.3 exploration on a single
benchmark: how the number of d-groups and the promotion policy trade
fast-group hits against swap traffic.  The ten runs are independent,
so the grid goes through the cell executor — pass a jobs count to
spread them over worker processes (results are identical for any value).

Run:  python examples/design_space.py [benchmark] [jobs]
"""

import sys

from repro.floorplan.dgroups import build_nurapid_geometry
from repro.nurapid.config import PromotionPolicy
from repro.sim import base_config, nurapid_config
from repro.sim.parallel import CellTask, run_cells
from repro.sim.results import run_result_from_dict
from repro.workloads.tracegen import trace_entries


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "galgel"
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    grid = [base_config()] + [
        nurapid_config(n_dgroups=n, promotion=policy)
        for n in (2, 4, 8)
        for policy in PromotionPolicy
    ]
    # Every cell replays the benchmark's one trace-cache entry.
    with trace_entries([benchmark], 300_000, seed=1) as trace_paths:
        tasks = [
            CellTask(
                index=i,
                config=config,
                benchmark=benchmark,
                n_references=300_000,
                seed=1,
                warmup_fraction=0.4,
                trace_path=trace_paths[benchmark],
                isolate_errors=False,
            )
            for i, config in enumerate(grid)
        ]
        results = [
            run_result_from_dict(payload["result"])
            for payload in run_cells(tasks, jobs)
        ]
    base, rest = results[0], results[1:]

    print("Physical design (from the mini-Cacti + floorplan models):")
    for n in (2, 4, 8):
        geo = build_nurapid_geometry(n_dgroups=n)
        lats = "/".join(str(geo.hit_latency(g)) for g in range(n))
        print(f"  {n} d-groups: hit latencies {lats} cycles")
    print()

    header = (
        f"{'d-groups':>9}{'promotion':>15}{'vs base':>9}{'dg0 hits':>10}"
        f"{'swaps/1k L2':>13}"
    )
    print(header)
    print("-" * len(header))
    cells = [(n, policy) for n in (2, 4, 8) for policy in PromotionPolicy]
    for (n, policy), r in zip(cells, rest):
        rel = r.ipc / base.ipc
        swaps = 1000.0 * r.stats.get("moves", 0.0) / max(1, r.l2_accesses)
        print(
            f"{n:>9}{policy.value:>15}{(rel - 1) * 100:>+8.1f}%"
            f"{r.dgroup_fractions.get(0, 0.0):>10.1%}{swaps:>13.1f}"
        )

    print()
    print("Expected shape (paper §5.3.2): 4 and 8 d-groups clearly beat 2;")
    print("8 buys little over 4 while swapping much more; demotion-only lags.")


if __name__ == "__main__":
    main()
