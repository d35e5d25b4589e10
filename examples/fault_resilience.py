"""Fault-injection resilience curve with a crash-tolerant sweep.

Runs the same transient-upset campaign against NuRAPID (ECC words
interleaved over 128 subarrays, §3.1's safe regime) and the base
L2/L3 hierarchy (narrow 8-subarray banking), at increasing upset
rates.  Uncorrectable dirty-line upsets kill individual cells; the
hardened sweep isolates them, retries with reseeded schedules, and
records the outcome instead of aborting the grid.

Every cell that succeeds on its first attempt is stored, as it
completes, in a content-addressed result store.  Kill the script
mid-grid and rerun it: stored cells are restored and only the others
are re-simulated, with the same seeds, so the finished grid is
identical either way.  Failed and retried cells are never stored;
they re-run, and reproduce bit for bit.

Run:  python examples/fault_resilience.py [benchmark] [store-dir]
"""

import sys
import time

from repro.faults import FaultPlan
from repro.service.store import ResultStore
from repro.sim import Sweep, SweepAxis, SystemConfig, base_config, nurapid_config

RATES = (0.0, 3e-4, 1e-3, 3e-3, 1e-2)


def build(arch: str, rate: float) -> SystemConfig:
    interleave = 128 if arch == "nurapid" else 8
    plan = (
        None
        if rate == 0.0
        else FaultPlan(
            transient_per_access=rate,
            max_upset_bits=32,
            interleave_subarrays=interleave,
            data_subarrays_per_dgroup=max(64, interleave),
            seed=7,
        )
    )
    if arch == "nurapid":
        return nurapid_config(faults=plan)
    return base_config(faults=plan)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "twolf"
    store_dir = sys.argv[2] if len(sys.argv) > 2 else "fault_resilience.store"
    store = ResultStore(store_dir)
    sweep = Sweep(
        axes=[SweepAxis("arch", ("base", "nurapid")), SweepAxis("rate", RATES)],
        build=build,
        benchmarks=[benchmark],
        n_references=120_000,
        seed=1,
        warmup_fraction=0.4,
        max_retries=2,
        result_store=store,
    )

    resumed = store.entries() > 0
    started = time.monotonic()
    points = sweep.run()
    elapsed = time.monotonic() - started
    verb = "resumed from" if resumed else "wrote"
    print(f"{verb} result store {store_dir} ({elapsed:.1f}s)\n")

    grid = {(p.coordinates["arch"], p.coordinates["rate"]): p for p in points}
    header = f"{'upset rate':>12}{'base rel IPC':>14}{'nurapid rel IPC':>17}  notes"
    print(header)
    print("-" * len(header))
    for rate in RATES:
        cells = []
        notes = []
        for arch in ("base", "nurapid"):
            point = grid[(arch, rate)]
            baseline = grid[(arch, 0.0)]
            if point.failed_benchmarks():
                outcome = point.outcomes[benchmark]
                cells.append("failed")
                notes.append(
                    f"{arch}: {outcome.error_type} after {outcome.attempts} attempts"
                )
            else:
                cells.append(f"{point.mean_relative(baseline):.4f}")
        print(
            f"{rate:>12g}{cells[0]:>14}{cells[1]:>17}  {'; '.join(notes)}"
        )

    print()
    print("Expected shape: NuRAPID's wide interleaving corrects every strike")
    print("(rel IPC ~1.0 at all rates); the narrow base layout accumulates")
    print("refetch misses and eventually dies of dirty-line data loss.")
    print(f"Rerun this script to restore the stored cells from {store_dir};")
    print("delete the directory to start fresh.")


if __name__ == "__main__":
    main()
