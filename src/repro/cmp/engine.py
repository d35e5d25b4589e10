"""Multi-core workload and accounting pieces of the shared-LLC study.

:func:`repro.sim.driver.run_benchmark` runs every config, one core or
many; a multi-core run (``config.cmp.cores > 1``) takes two pieces
from here.  :func:`generate_cmp_trace` builds the interleaved stream:
per-core traces with derived seeds, merged by the deterministic
interleaver, so results are seed-stable and identical across worker
processes.  :func:`shared_occupancy_by_core` is the end-of-run census
of shared-LLC blocks per owning core, read from the address bits the
interleaver stamps on each core's stream.  :func:`jain_fairness` is
the fairness index the CMP figures report.

The driver imports this module only for multi-core runs, so
single-core runs never load it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Optional

from repro.caches.block import PREWARM_BASE
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.caches.simple import SetAssociativeCache
from repro.cmp.contention import ContendedLLC
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.nuca.cache import DNUCACache
from repro.nuca.snuca import SNUCACache
from repro.sim.config import SystemConfig
from repro.workloads.interleave import (
    CORE_ADDR_SHIFT,
    CmpTrace,
    MAX_CORES,
    interleave_traces,
    parse_cmp_benchmark,
)
from repro.workloads.spec2k import BenchmarkProfile, get_benchmark
from repro.workloads.tracegen import generate_trace


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not values:
        return 0.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 0.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def generate_cmp_trace(
    config: SystemConfig,
    benchmark: str,
    n_references: int,
    seed: int,
    warm_set_conflict: int = 1,
    profiles: Optional[List[BenchmarkProfile]] = None,
) -> CmpTrace:
    """Seed-derived per-core traces, merged by the interleaver.

    ``n_references`` is the chip total; each core contributes an equal
    share.  Core ``i``'s stream uses ``derive_seed(seed, "cmp/core{i}")``
    so streams are independent and any core's stream is reproducible
    in isolation.
    """
    cores = config.cmp.cores if config.cmp is not None else 1
    if profiles is None:
        profiles = [
            get_benchmark(name) for name in parse_cmp_benchmark(benchmark, cores)
        ]
    per_core = n_references // cores
    if per_core < 1:
        raise ConfigurationError(
            f"{n_references} references cannot feed {cores} cores"
        )
    streams = [
        generate_trace(
            profiles[i],
            per_core,
            seed=derive_seed(seed, f"cmp/core{i}"),
            warm_set_conflict=warm_set_conflict,
        )
        for i in range(cores)
    ]
    return interleave_traces(
        streams, [p.core_ipc for p in profiles], benchmark=benchmark
    )


def _resident_block_addrs(target) -> Iterable[int]:
    """Every block address a shared LLC holds (free frames read -1)."""
    if isinstance(target, ContendedLLC):
        target = target._inner
    if isinstance(target, SetAssociativeCache):
        return target._tags
    if isinstance(target, SetAssociativePlacementCache):
        return target._addrs
    if isinstance(target, DNUCACache):
        return target._baddr
    if isinstance(target, SNUCACache):
        return chain.from_iterable(target._sets)
    return target._slot_baddr  # NuRAPID: one block address per tag slot


def shared_occupancy_by_core(target, n_cores: int) -> List[int]:
    """Census of shared-LLC blocks per owning core (address bits)."""
    counts = [0] * n_cores
    for baddr in _resident_block_addrs(target):
        if not 0 <= baddr < PREWARM_BASE:
            continue  # free frames and prewarm dummies belong to no core
        core = (baddr >> CORE_ADDR_SHIFT) & (MAX_CORES - 1)
        if core < n_cores:
            counts[core] += 1
    return counts
