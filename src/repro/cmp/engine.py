"""Multi-core accounting pieces of the shared-LLC study.

:func:`repro.sim.driver.run_benchmark` runs every config, one core or
many, on a plain :class:`~repro.workloads.trace.Trace`: a multi-core
run replays the interleaved trace of its per-core spec, which the
trace cache stores like any other
(:func:`~repro.workloads.tracegen.generate_spec_trace`), and reads each
record's issuing core from its address bits.
:func:`generate_cmp_trace` is that trace for a config, for callers that
pass it inline.  :func:`shared_occupancy_by_core` is the end-of-run
census of shared-LLC blocks per owning core, read from the same
address bits.  :func:`jain_fairness` is the fairness index the CMP
figures report.

The driver imports this module only for multi-core runs, so
single-core runs never load it.
"""

from __future__ import annotations

from typing import List

from repro.caches.block import PREWARM_BASE
from repro.common.stats import fold_sum
from repro.sim.config import SystemConfig
from repro.workloads.interleave import core_of_address
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_spec_trace


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not values:
        return 0.0
    square_sum = fold_sum(v * v for v in values)
    if square_sum == 0.0:
        return 0.0
    total = fold_sum(values)
    return (total * total) / (len(values) * square_sum)


def generate_cmp_trace(
    config: SystemConfig,
    benchmark: str,
    n_references: int,
    seed: int,
) -> Trace:
    """The trace a run of ``config`` replays for ``benchmark``, for an
    inline ``trace=`` (:func:`~repro.workloads.tracegen.generate_spec_trace`
    of :meth:`~repro.sim.config.SystemConfig.trace_spec`)."""
    return generate_spec_trace(config.trace_spec(benchmark), n_references, seed)


def shared_occupancy_by_core(target, n_cores: int) -> List[int]:
    """Census of shared-LLC blocks per owning core (address bits)."""
    counts = [0] * n_cores
    for baddr in target.resident_block_addrs():
        if not 0 <= baddr < PREWARM_BASE:
            continue  # free frames and prewarm dummies belong to no core
        core = core_of_address(baddr)
        if core < n_cores:
            counts[core] += 1
    return counts
