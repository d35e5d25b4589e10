"""The multi-core replay loop for shared-LLC scenarios.

``run_cmp`` is the CMP counterpart of
:func:`repro.sim.driver.run_benchmark`, dispatched by the driver when
``config.cmp.cores > 1``.  Each core gets its own L1d/L1i, hierarchy
books, and timing model; all hierarchies share one lower-level list
(the cache under study, possibly contended and/or compressed) and one
main memory.  Per-core traces are generated with derived seeds and
merged by the deterministic interleaver, so results are seed-stable
and identical across worker processes.

Replay is a single scalar loop shared by every exact engine: the
per-core clocks are independent (each core advances only on its own
references), which is exactly the precondition the fused single-core
kernel does not handle, so legacy and vectorized both route here and
trivially agree.  ``approx`` has no multi-core model and is rejected.

Accounting: the RunResult's headline numbers aggregate the chip
(instructions summed, cycles = the slowest core's measured window, L2
books from the shared cache) while ``stats`` carries per-core
``c{i}.*`` metrics — IPC, L2 accesses/hits/misses, shared-cache block
occupancy — plus ``bankq.*`` contention aggregates, which is what the
fairness and throughput figures read.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional

from repro.caches.block import PREWARM_BASE
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.memory import MainMemory
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.caches.simple import SetAssociativeCache
from repro.cmp.contention import ContendedLLC
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_seed
from repro.cpu.core import CoreModel
from repro.cpu.wattch import ProcessorEnergyModel
from repro.nuca.cache import DNUCACache
from repro.nuca.snuca import SNUCACache
from repro.sim.config import (
    SystemConfig,
    _l1_spec,
    build_lower_level,
    resolve_engine,
)
from repro.sim.driver import (
    System,
    _cache_counters,
    _capture_lower,
    _dgroup_fractions,
    _l2_stats,
    _lower_energy_nj,
)
from repro.sim.results import RunResult
from repro.telemetry import (
    LATENCY_BOUNDS,
    NullProfiler,
    Telemetry,
    TelemetryConfig,
    occupancy_bounds,
)
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


def make_cmp_systems(
    config: SystemConfig, cores: int, prewarm: bool = True
) -> List[System]:
    """Per-core Systems sharing one lower-level list and memory."""
    lower = build_lower_level(config)
    memory = MainMemory()
    if prewarm:
        for level in lower:
            target = getattr(level, "cache", level)
            target.prewarm()
    systems = []
    for i in range(cores):
        l1d = SetAssociativeCache(_l1_spec(f"c{i}.L1d"))
        l1i = SetAssociativeCache(_l1_spec(f"c{i}.L1i"))
        hierarchy = CacheHierarchy(l1d=l1d, lower=lower, memory=memory, l1i=l1i)
        systems.append(
            System(
                config=config,
                hierarchy=hierarchy,
                l1d=l1d,
                l1i=l1i,
                lower=lower,
                memory=memory,
            )
        )
    return systems


def _replay_cmp(systems: List[System], cores: List[CoreModel], trace: CmpTrace) -> None:
    """The multi-core hot loop.

    Each record advances only its issuing core (by its own gap, on its
    own clock) and walks that core's hierarchy; the shared LLC sees
    the interleaved stream with per-core timestamps, which its port
    and bank schedulers serialize.
    """
    accesses = [system.hierarchy.access_data for system in systems]
    advances = [core.advance_instructions for core in cores]
    notes = [core.note_memory_result for core in cores]
    columns = trace.trace
    for gap, address, is_write, owner in zip(
        columns.gaps.tolist(),
        columns.addresses.tolist(),
        columns.writes.tolist(),
        trace.cores.tolist(),
    ):
        advances[owner](gap)
        result = accesses[owner](address, is_write, cores[owner].cycle)
        notes[owner](address, result)


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


def _shared_occupancy_by_core(target, n_cores: int) -> List[int]:
    """Census of shared-LLC blocks per owning core (address bits)."""
    counts = [0] * n_cores
    for baddr in _resident_block_addrs(target):
        if not 0 <= baddr < PREWARM_BASE:
            continue  # free frames and prewarm dummies belong to no core
        core = (baddr >> CORE_ADDR_SHIFT) & (MAX_CORES - 1)
        if core < n_cores:
            counts[core] += 1
    return counts


def _attach_cmp_telemetry(
    systems: List[System], cores: List[CoreModel], session: Telemetry
) -> None:
    for i, (system, core) in enumerate(zip(systems, cores)):
        system.l1d.telemetry = session.cache_client(system.l1d.name)
        system.l1i.telemetry = session.cache_client(system.l1i.name)
        system.hierarchy.miss_latency_hist = session.histogram(
            f"c{i}.hierarchy.l1_miss_latency", LATENCY_BOUNDS
        )
        core.mshrs.occupancy_hist = session.histogram(
            f"c{i}.core.mshr_occupancy", occupancy_bounds(core.params.mshrs)
        )
    attached = set()
    for level in systems[0].lower:
        target = getattr(level, "cache", level)
        if id(target) in attached:
            continue
        attached.add(id(target))
        target.telemetry = session.cache_client(target.name)
        if "queue_depth_hist" in getattr(level, "__dict__", {}):
            level.queue_depth_hist = session.histogram(
                f"{level.name}.bank_queue_depth", occupancy_bounds(16)
            )


def _capture_cmp_telemetry(
    systems: List[System], cores: List[CoreModel], session: Telemetry
) -> None:
    for i, (system, core) in enumerate(zip(systems, cores)):
        session.capture_counters(system.l1d.name, _cache_counters(system.l1d))
        session.capture_energy(system.l1d.name, system.l1d.energy)
        session.capture_counters(system.l1i.name, _cache_counters(system.l1i))
        session.capture_energy(system.l1i.name, system.l1i.energy)
        session.capture_counters(
            f"c{i}.hierarchy", system.hierarchy.stats.as_dict()
        )
        for key, value in sorted(core.counters().items()):
            session.capture_gauge(f"c{i}.core.{key}", value)
    captured = set()
    for level in systems[0].lower:
        target = getattr(level, "cache", level)
        if id(target) in captured:
            continue
        captured.add(id(target))
        _capture_lower(session, target)
    memory = systems[0].memory
    session.capture_gauge("memory.reads", memory.reads)
    session.capture_gauge("memory.writes", memory.writes)


def run_cmp(
    config: SystemConfig,
    benchmark: str,
    n_references: int,
    seed: int,
    warmup_fraction: float,
    energy_model: Optional[ProcessorEnergyModel] = None,
    warm_set_conflict: int = 1,
    prewarm: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunResult:
    """Run one CMP benchmark spec; same contract as run_benchmark."""
    cmp = config.cmp
    if cmp is None or cmp.cores < 2:
        raise ConfigurationError("run_cmp needs a CmpConfig with cores >= 2")
    engine = resolve_engine(config.engine)
    if engine == "approx":
        raise ConfigurationError(
            "the approx engine has no multi-core model; "
            "pick an exact engine for CMP runs"
        )
    n_cores = cmp.cores
    names = parse_cmp_benchmark(benchmark, n_cores)
    profiles = [get_benchmark(name) for name in names]

    session: Optional[Telemetry] = None
    if telemetry is not None and telemetry.enabled:
        session = Telemetry(telemetry, f"{config.name}/{benchmark}/s{seed}")
    profiler = session.profiler if session is not None else NullProfiler()

    with profiler.phase("tracegen"):
        trace = generate_cmp_trace(
            config,
            benchmark,
            n_references,
            seed,
            warm_set_conflict=warm_set_conflict,
            profiles=profiles,
        )
    with profiler.phase("build"):
        systems = make_cmp_systems(config, n_cores, prewarm=prewarm)
    if cmp.compression is not None and cmp.compression.core_shares is None:
        # Per-workload compressibility: each core's lines draw against
        # its own benchmark's share.
        target = getattr(systems[0].l2, "cache", systems[0].l2)
        shares = getattr(target, "set_core_shares", None)
        if shares is not None:
            shares(tuple(p.compressibility for p in profiles))

    warm, measured = trace.split(warmup_fraction)
    if not len(measured):
        raise ConfigurationError("no measured references after warmup split")

    def new_cores() -> List[CoreModel]:
        return [
            CoreModel(
                params=config.core,
                core_ipc=profile.core_ipc,
                exposure=profile.exposure,
                branch_fraction=profile.branch_fraction,
                mispredict_rate=profile.mispredict_rate,
            )
            for profile in profiles
        ]

    warm_cores = new_cores()
    if len(warm):
        with profiler.phase("warmup"):
            _replay_cmp(systems, warm_cores, warm)
    for system in systems:
        system.reset_stats()

    cores = new_cores()
    # Continue on the warm timelines so port/bank busy-times stay causal.
    for core, warm_core in zip(cores, warm_cores):
        core.cycle = warm_core.cycle
    start = [(core.cycle, core.instructions) for core in cores]
    if session is not None:
        _attach_cmp_telemetry(systems, cores, session)
    with profiler.phase("measure"):
        _replay_cmp(systems, cores, measured)

    per_cycles = [core.cycle - s[0] for core, s in zip(cores, start)]
    per_instr = [core.instructions - s[1] for core, s in zip(cores, start)]
    instructions = sum(per_instr)
    cycles = max(per_cycles)
    chip = systems[0]
    l2_stats = _l2_stats(chip)
    l2_name = chip.l2.name
    model = energy_model if energy_model is not None else ProcessorEnergyModel()
    l1_energy = sum(
        system.l1d.energy.total_nj() + system.l1i.energy.total_nj()
        for system in systems
    )
    core_energy = sum(
        model.core_energy_nj(instr, cyc)
        for instr, cyc in zip(per_instr, per_cycles)
    )

    extra: Dict[str, float] = dict(l2_stats)
    extra["cmp.cores"] = float(n_cores)
    extra["mshr_full_stalls"] = float(sum(c.mshr_full_stalls for c in cores))
    extra["stall_cycles"] = float(sum(c.stall_cycles for c in cores))
    extra["branch_penalty_cycles"] = float(
        sum(c.branch_penalty_cycles for c in cores)
    )
    extra["memory_accesses"] = float(sum(c.memory_accesses for c in cores))
    for i, (core, system) in enumerate(zip(cores, systems)):
        hier = system.hierarchy.stats
        accesses = float(hier.get(f"{l2_name}_accesses"))
        hits = float(hier.get(f"{l2_name}_hits"))
        extra[f"c{i}.instructions"] = float(per_instr[i])
        extra[f"c{i}.cycles"] = float(per_cycles[i])
        extra[f"c{i}.ipc"] = (
            per_instr[i] / per_cycles[i] if per_cycles[i] else 0.0
        )
        extra[f"c{i}.l2_accesses"] = accesses
        extra[f"c{i}.l2_hits"] = hits
        extra[f"c{i}.l2_misses"] = accesses - hits
        extra[f"c{i}.l2_miss_ratio"] = (
            (accesses - hits) / accesses if accesses else 0.0
        )
        extra[f"c{i}.stall_cycles"] = float(core.stall_cycles)
    target = getattr(chip.l2, "cache", chip.l2)
    for i, blocks in enumerate(_shared_occupancy_by_core(target, n_cores)):
        extra[f"c{i}.l2_blocks"] = float(blocks)
    banks = getattr(chip.l2, "bank_ports", None)
    if banks:
        extra["bankq.banks"] = float(len(banks))
        extra["bankq.busy_cycles"] = float(sum(banks.total_busy))
        extra["bankq.wait_cycles"] = float(sum(banks.total_wait))
        extra["bankq.grants"] = float(sum(banks.grants))

    telemetry_payload: Optional[Dict[str, object]] = None
    if session is not None:
        _capture_cmp_telemetry(systems, cores, session)
        trace_path = session.flush_trace()
        telemetry_payload = session.payload(trace_path)

    return RunResult(
        benchmark=benchmark,
        config_name=config.name,
        instructions=instructions,
        cycles=cycles,
        l2_accesses=int(l2_stats.get("accesses", 0)),
        l2_hits=int(l2_stats.get("hits", 0)),
        l2_misses=int(l2_stats.get("misses", 0)),
        dgroup_fractions=_dgroup_fractions(chip),
        l1_energy_nj=l1_energy,
        lower_energy_nj=_lower_energy_nj(chip),
        core_energy_nj=core_energy,
        stats=extra,
        telemetry=telemetry_payload,
    )
