"""The trace-driven run loop, for one core or many.

One run: generate (or receive) the benchmark's trace, build the
system, replay a warmup portion to populate the caches, reset all
statistics, then replay the measured portion through the core timing
model.  A multi-core config (``cmp.cores > 1``) takes the same steps
with per-core traces interleaved into one stream, one private L1 pair
and timing model per core, and the lower levels and memory shared;
every other config is a one-core run.  The default of 600k references
with 25% warmup keeps a full suite sweep to minutes in pure Python
while leaving ~100k+ measured L2 accesses for the high-load
applications; experiments scale ``n_references`` for quick modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.cpu.core import CoreModel
from repro.cpu.wattch import ProcessorEnergyModel
from repro.sim import vectorized
from repro.sim.config import (
    SystemConfig,
    build_hierarchy,
    build_system,
    resolve_engine,
)
from repro.sim.results import RunResult, SuiteResult
from repro.telemetry import (
    LATENCY_BOUNDS,
    NullProfiler,
    Telemetry,
    TelemetryConfig,
    occupancy_bounds,
    runtime_registry,
)
from repro.workloads.interleave import parse_cmp_benchmark
from repro.workloads.spec2k import get_benchmark
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_trace

DEFAULT_REFERENCES = 600_000
DEFAULT_WARMUP_FRACTION = 0.25


@dataclass
class System:
    """A built machine: hierarchy plus the books the driver reads."""

    config: SystemConfig
    hierarchy: object
    l1d: object
    l1i: object
    lower: List[object]
    memory: object

    @property
    def l2(self):
        """The first level below the L1s (the cache under study)."""
        return self.lower[0]

    def lower_caches(self) -> List[object]:
        """Each distinct cache below the L1s once, in level order, with
        the ``UniformLowerLevel`` wrapper unwrapped."""
        caches: List[object] = []
        for level in self.lower:
            cache = getattr(level, "cache", level)
            if all(cache is not seen for seen in caches):
                caches.append(cache)
        return caches

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l1i):
            cache.reset_stats()
        for cache in self.lower_caches():
            cache.reset_stats()
        self.hierarchy.reset_stats()
        self.memory.reads = 0
        self.memory.writes = 0


def make_system(config: SystemConfig, prewarm: bool = True) -> System:
    """Build a system; by default prewarm the lower levels.

    For a multi-core config this is core 0 (L1s named ``c0.*``); the
    run adds the other cores over its lower levels and memory.

    Prewarming fills every cache frame with clean dummy blocks, the
    trace-driven equivalent of the paper's 5-billion-instruction
    fast-forward: replacement and distance-placement machinery start in
    steady state instead of filling an empty 8 MB array.
    """
    hierarchy, l1d, lower, memory = build_system(config)
    system = System(
        config=config,
        hierarchy=hierarchy,
        l1d=l1d,
        l1i=hierarchy.l1i,
        lower=lower,
        memory=memory,
    )
    if prewarm:
        for cache in system.lower_caches():
            cache.prewarm()
    return system


def _add_cores(first: System, n_cores: int) -> List[System]:
    """``first`` plus cores 1.. of a CMP: each its own L1 pair and
    hierarchy books over ``first``'s lower levels and memory."""
    systems = [first]
    for i in range(1, n_cores):
        hierarchy = build_hierarchy(
            first.config, first.lower, first.memory, prefix=f"c{i}."
        )
        systems.append(
            replace(first, hierarchy=hierarchy, l1d=hierarchy.l1d, l1i=hierarchy.l1i)
        )
    return systems


def _replay(
    systems: Sequence[System],
    cores: Sequence[CoreModel],
    trace: Trace,
    owners: Optional[np.ndarray] = None,
    engine: str = "legacy",
    collect: Optional[List] = None,
) -> None:
    """The one replay loop: core ``owners[i]`` issues record ``i`` of
    ``trace`` on its own clock through ``systems[owners[i]]``.

    ``owners=None`` is a one-core trace.  CMP systems share their lower
    levels and memory and keep private L1s, hierarchy books and cores.
    ``engine="vectorized"`` runs the numpy
    kernel (:mod:`repro.sim.vectorized`), bit-identical to this loop,
    whenever it can: per-reference observation (``collect``) and an L1
    fault injector or a non-2-way L1 come straight here instead,
    counted under ``vectorized.fallbacks``.  ``engine="legacy"`` always
    takes this loop, the parity oracle.  ``collect`` receives every
    per-reference AccessResult (parity tests only — it slows the loop
    down).
    """
    if engine == "vectorized":
        if collect is None and all(vectorized.supports(s) for s in systems):
            vectorized.replay(systems, cores, trace, owners)
            return
        runtime_registry().add("vectorized.fallbacks")
    access = [system.hierarchy.access_data for system in systems]
    advance = [core.advance_instructions for core in cores]
    note = [core.note_memory_result for core in cores]
    issuers = repeat(0) if owners is None else owners.tolist()
    for (gap, address, is_write), owner in zip(trace.records(), issuers):
        advance[owner](gap)
        result = access[owner](address, is_write, cores[owner].cycle)
        note[owner](address, result)
        if collect is not None:
            collect.append(result)


def _cache_counters(target) -> Dict[str, float]:
    """A cache's flat counters, whichever stats style it keeps."""
    stats = getattr(target, "stats", None)
    if stats is not None and hasattr(stats, "as_dict"):
        return dict(stats.as_dict())
    return {
        "accesses": float(target.accesses),
        "hits": float(target.hits),
        "misses": float(target.misses),
        "writebacks": float(target.writebacks),
    }


def _dgroup_fractions(system: System, accesses: float) -> Dict[int, float]:
    dist = getattr(system.l2, "dgroup_hits", None)
    if dist is None or not accesses:
        return {}
    return {k: v / accesses for k, v in dist.items()}


def _core_tags(systems: Sequence[System]) -> List[str]:
    """Per-core name prefixes: ``c{i}.`` on a CMP, none on one core."""
    if len(systems) == 1:
        return [""]
    return [f"c{i}." for i in range(len(systems))]


def _attach_telemetry(
    systems: Sequence[System], cores: Sequence[CoreModel], session: Telemetry
) -> None:
    """Hook the session's clients into freshly-reset systems.

    Attached *after* the warmup reset so histograms and events cover
    the measured portion only, like every other statistic.
    """
    for tag, system, core in zip(_core_tags(systems), systems, cores):
        for cache in (system.l1d, system.l1i):
            cache.telemetry = session.cache_client(cache.name)
        system.hierarchy.miss_latency_hist = session.histogram(
            f"{tag}hierarchy.l1_miss_latency", LATENCY_BOUNDS
        )
        core.mshrs.occupancy_hist = session.histogram(
            f"{tag}core.mshr_occupancy", occupancy_bounds(core.params.mshrs)
        )
    for cache in systems[0].lower_caches():
        cache.telemetry = session.cache_client(cache.name)
        # Contended LLCs record the queue depth each access observes.
        if "queue_depth_hist" in getattr(cache, "__dict__", {}):
            cache.queue_depth_hist = session.histogram(
                f"{cache.name}.bank_queue_depth", occupancy_bounds(16)
            )


def _capture_lower(session: Telemetry, target) -> None:
    """End-of-run gauges for one lower level: counters, energy,
    occupancy, single-port pressure, and banked-queue aggregates."""
    session.capture_counters(target.name, _cache_counters(target))
    session.capture_energy(target.name, target.energy)
    occupancy = getattr(target, "dgroup_occupancy", None)
    if occupancy is not None:
        for group, (occupied, frames) in enumerate(occupancy()):
            session.capture_gauge(f"{target.name}.dg{group}.occupied", occupied)
            session.capture_gauge(f"{target.name}.dg{group}.frames", frames)
    port = getattr(target, "port", None)
    if port is not None:
        session.capture_gauge(f"{target.name}.port.busy_cycles", port.total_busy)
        session.capture_gauge(f"{target.name}.port.wait_cycles", port.total_wait)
        session.capture_gauge(f"{target.name}.port.grants", port.grants)
    banks = getattr(target, "bank_ports", None)
    if banks:
        session.capture_gauge(f"{target.name}.bankq.banks", len(banks))
        session.capture_gauge(f"{target.name}.bankq.busy_cycles", sum(banks.total_busy))
        session.capture_gauge(f"{target.name}.bankq.wait_cycles", sum(banks.total_wait))
        session.capture_gauge(f"{target.name}.bankq.grants", sum(banks.grants))


def _capture_telemetry(
    systems: Sequence[System], cores: Sequence[CoreModel], session: Telemetry
) -> None:
    """End-of-run gauges: counters, energy, occupancy, port pressure.

    One core reports four ``core.*`` gauges; a CMP reports every
    ``CoreModel.counters()`` entry per core under ``c{i}.core.*``.
    """
    for tag, system, core in zip(_core_tags(systems), systems, cores):
        for cache in (system.l1d, system.l1i):
            session.capture_counters(cache.name, _cache_counters(cache))
            session.capture_energy(cache.name, cache.energy)
        session.capture_counters(f"{tag}hierarchy", system.hierarchy.stats.as_dict())
        gauges = core.counters() if tag else {
            "stall_cycles": core.stall_cycles,
            "branch_penalty_cycles": core.branch_penalty_cycles,
            "mshr_stall_cycles": core.mshr_stall_cycles,
            "mshr_full_stalls": core.mshr_full_stalls,
        }
        for key, value in gauges.items():
            session.capture_gauge(f"{tag}core.{key}", value)
    for cache in systems[0].lower_caches():
        _capture_lower(session, cache)
    memory = systems[0].memory
    session.capture_gauge("memory.reads", memory.reads)
    session.capture_gauge("memory.writes", memory.writes)


def _per_core_stats(
    systems: Sequence[System],
    cores: Sequence[CoreModel],
    instructions: Sequence[int],
    cycles: Sequence[float],
) -> Dict[str, float]:
    """A CMP's ``c{i}.*`` books: IPC, shared-L2 traffic, resident
    blocks, plus the shared LLC's ``bankq.*`` contention aggregates."""
    # Imported here: the occupancy census reads every LLC model's
    # layout and stays out of single-core imports.
    from repro.cmp.engine import shared_occupancy_by_core

    l2 = systems[0].l2
    extra: Dict[str, float] = {}
    for i, (system, core) in enumerate(zip(systems, cores)):
        hier = system.hierarchy.stats
        accesses = float(hier.get(f"{l2.name}_accesses"))
        hits = float(hier.get(f"{l2.name}_hits"))
        extra[f"c{i}.instructions"] = float(instructions[i])
        extra[f"c{i}.cycles"] = float(cycles[i])
        extra[f"c{i}.ipc"] = instructions[i] / cycles[i] if cycles[i] else 0.0
        extra[f"c{i}.l2_accesses"] = accesses
        extra[f"c{i}.l2_hits"] = hits
        extra[f"c{i}.l2_misses"] = accesses - hits
        extra[f"c{i}.l2_miss_ratio"] = (
            (accesses - hits) / accesses if accesses else 0.0
        )
        extra[f"c{i}.stall_cycles"] = float(core.stall_cycles)
    census = shared_occupancy_by_core(systems[0].lower_caches()[0], len(systems))
    for i, blocks in enumerate(census):
        extra[f"c{i}.l2_blocks"] = float(blocks)
    banks = getattr(l2, "bank_ports", None)
    if banks:
        extra["bankq.banks"] = float(len(banks))
        extra["bankq.busy_cycles"] = float(sum(banks.total_busy))
        extra["bankq.wait_cycles"] = float(sum(banks.total_wait))
        extra["bankq.grants"] = float(sum(banks.grants))
    return extra


def run_benchmark(
    config: SystemConfig,
    benchmark: str,
    n_references: int = DEFAULT_REFERENCES,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    trace: Optional[Trace] = None,
    energy_model: Optional[ProcessorEnergyModel] = None,
    warm_set_conflict: int = 1,
    prewarm: bool = True,
    telemetry: Optional[TelemetryConfig] = None,
) -> RunResult:
    """Run one benchmark on one system and collect measurements.

    A multi-core config generates and interleaves its own per-core
    traces (``benchmark`` names one workload for every core or one per
    core, ``"a+b"``; ``n_references`` is the chip total) and rejects
    ``trace=``.  Its result aggregates the chip — instructions summed,
    cycles the slowest core's measured window, core energy summed per
    core, L2 books from the shared cache — and ``stats`` adds per-core
    ``c{i}.*`` books and ``bankq.*`` contention aggregates.
    """
    if n_references <= 0:
        raise ConfigurationError(
            f"n_references must be positive, got {n_references}"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    engine = resolve_engine(config.engine)
    n_cores = config.cmp.cores if config.multi_core else 1
    if n_cores > 1:
        if trace is not None:
            raise ConfigurationError(
                "CMP runs generate and interleave their own per-core "
                "traces; pass trace=None"
            )
        profiles = [
            get_benchmark(name) for name in parse_cmp_benchmark(benchmark, n_cores)
        ]
    else:
        profiles = [get_benchmark(benchmark)]
    session: Optional[Telemetry] = None
    if telemetry is not None and telemetry.enabled:
        session = Telemetry(telemetry, f"{config.name}/{benchmark}/s{seed}")
    profiler = session.profiler if session is not None else NullProfiler()
    if trace is None:
        with profiler.phase("tracegen"):
            if n_cores > 1:
                from repro.cmp.engine import generate_cmp_trace

                trace = generate_cmp_trace(
                    config, benchmark, n_references, seed,
                    warm_set_conflict=warm_set_conflict, profiles=profiles,
                )
            else:
                trace = generate_trace(
                    profiles[0], n_references, seed=seed,
                    warm_set_conflict=warm_set_conflict,
                )
    with profiler.phase("build"):
        systems = _add_cores(make_system(config, prewarm=prewarm), n_cores)
    compression = config.cmp.compression if config.cmp is not None else None
    if n_cores > 1 and compression is not None and compression.core_shares is None:
        # Per-workload compressibility: each core's lines draw against
        # its own benchmark's share.
        shares = getattr(systems[0].lower_caches()[0], "set_core_shares", None)
        if shares is not None:
            shares(tuple(p.compressibility for p in profiles))
    warm, measured = trace.split(warmup_fraction)
    if not len(measured):
        raise ConfigurationError("no measured references after warmup split")

    def stream(part):
        """The records and owner column of one portion of the trace."""
        return (part.trace, part.cores) if n_cores > 1 else (part, None)

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
            _replay(systems, warm_cores, *stream(warm), engine=engine)
    for system in systems:
        system.reset_stats()

    cores = new_cores()
    # Continue on the warm timelines so port and bank busy-times stay causal.
    for core, warm_core in zip(cores, warm_cores):
        core.cycle = warm_core.cycle
    start = [(core.cycle, core.instructions) for core in cores]
    if session is not None:
        _attach_telemetry(systems, cores, session)
    with profiler.phase("measure"):
        _replay(systems, cores, *stream(measured), engine=engine)

    per_cycles = [core.cycle - cycle for core, (cycle, _) in zip(cores, start)]
    per_instr = [core.instructions - instr for core, (_, instr) in zip(cores, start)]
    instructions = sum(per_instr)
    cycles = max(per_cycles)
    chip = systems[0]
    lower_caches = chip.lower_caches()
    l2_stats = _cache_counters(lower_caches[0])
    model = energy_model if energy_model is not None else ProcessorEnergyModel()

    extra: Dict[str, float] = dict(l2_stats)
    if n_cores > 1:
        extra["cmp.cores"] = float(n_cores)
    extra["mshr_full_stalls"] = float(sum(c.mshr_full_stalls for c in cores))
    extra["stall_cycles"] = float(sum(c.stall_cycles for c in cores))
    extra["branch_penalty_cycles"] = float(
        sum(c.branch_penalty_cycles for c in cores)
    )
    extra["memory_accesses"] = float(sum(c.memory_accesses for c in cores))
    # Prefetch and fault injection are single-core by config validation.
    prefetcher = chip.hierarchy.prefetcher
    if prefetcher is not None:
        extra["prefetch_issued"] = float(prefetcher.stats.issued)
        extra["prefetch_useful"] = float(prefetcher.stats.useful)
    for cache in lower_caches:
        injector = getattr(cache, "fault_injector", None)
        if injector is not None:
            extra.update({k: float(v) for k, v in injector.summary().items()})
            retired = getattr(cache, "retired_frames", None)
            if retired is not None:
                # End-of-run census, immune to the post-warmup counter
                # reset (retirement during warmup still shrinks the
                # measured-portion capacity).
                extra["fault_frames_retired_total"] = float(sum(retired()))
    if n_cores > 1:
        extra.update(_per_core_stats(systems, cores, per_instr, per_cycles))

    telemetry_payload: Optional[Dict[str, object]] = None
    if session is not None:
        _capture_telemetry(systems, cores, session)
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
        dgroup_fractions=_dgroup_fractions(chip, l2_stats.get("accesses", 0.0)),
        l1_energy_nj=sum(
            system.l1d.energy.total_nj() + system.l1i.energy.total_nj()
            for system in systems
        ),
        lower_energy_nj=sum(cache.energy.total_nj() for cache in lower_caches),
        core_energy_nj=sum(
            model.core_energy_nj(instr, cyc)
            for instr, cyc in zip(per_instr, per_cycles)
        ),
        stats=extra,
        telemetry=telemetry_payload,
    )


def run_suite(
    config: SystemConfig,
    benchmarks: Iterable[str],
    n_references: int = DEFAULT_REFERENCES,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    traces: Optional[Dict[str, Trace]] = None,
    energy_model: Optional[ProcessorEnergyModel] = None,
    warm_set_conflict: int = 1,
    prewarm: bool = True,
    jobs: int = 1,
    trace_cache_dir: Optional[str] = None,
    telemetry: Optional[TelemetryConfig] = None,
    result_store=None,
) -> SuiteResult:
    """Run a set of benchmarks on one configuration.

    All per-run knobs (``energy_model``, ``warm_set_conflict``,
    ``prewarm``) are forwarded to every :func:`run_benchmark` call.
    Every benchmark is one cell of :func:`repro.sim.parallel.run_cells`:
    ``jobs=1`` runs them in this process, ``jobs=N`` on N worker
    processes with identical seeding, so the results are bit-identical
    either way; a failing run raises in the caller.  ``trace_cache_dir``
    names the on-disk trace store the cells map their traces from
    (default: ``$REPRO_TRACE_CACHE``, else a temp directory for the
    call).

    ``result_store`` (a :class:`repro.service.store.ResultStore`)
    memoizes completed cells by content address: cells already in the
    store are served from disk without simulating, and fresh results
    are published back for every later caller (``Sweep``, the service,
    another ``run_suite``).  The memo key covers the full config
    fingerprint, resolved engine, and trace parameters, so hits are
    bit-identical to recomputation.  Cells carrying an inline ``trace``
    or a custom ``energy_model`` are not content-addressable and always
    run.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    # Imported here, not at module top: repro.sim.parallel imports this
    # module for its workers.
    from repro.sim.parallel import CellTask, run_memoized
    from repro.sim.results import run_result_from_dict

    benchmarks = list(benchmarks)
    inline = traces or {}
    tasks = [
        CellTask(
            index=index,
            config=config,
            benchmark=name,
            n_references=n_references,
            seed=seed,
            warmup_fraction=warmup_fraction,
            trace=inline.get(name),
            warm_set_conflict=warm_set_conflict,
            prewarm=prewarm,
            energy_model=energy_model,
            isolate_errors=False,
            telemetry=telemetry,
        )
        for index, name in enumerate(benchmarks)
    ]
    results: Dict[int, RunResult] = {}

    def record(payload: Dict[str, object]) -> None:
        results[payload["index"]] = run_result_from_dict(payload["result"])  # type: ignore[index,arg-type]

    run_memoized(tasks, jobs, result_store, record, trace_cache_dir=trace_cache_dir)
    runs = {name: results[index] for index, name in enumerate(benchmarks)}
    return SuiteResult(config_name=config.name, runs=runs)
