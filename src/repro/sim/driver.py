"""The trace-driven run loop.

One run: build the system, generate (or receive) the benchmark's
trace, replay a warmup portion to populate the caches, reset all
statistics, then replay the measured portion through the core timing
model.  The default of 600k references with 25% warmup keeps a full
suite sweep to minutes in pure Python while leaving ~100k+ measured L2
accesses for the high-load applications; experiments scale
``n_references`` for quick modes.
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
from repro.sim.config import SystemConfig, build_system, resolve_engine
from repro.sim.results import RunResult, SuiteResult
from repro.telemetry import (
    LATENCY_BOUNDS,
    NullProfiler,
    Telemetry,
    TelemetryConfig,
    occupancy_bounds,
    runtime_registry,
)
from repro.workloads.spec2k import BenchmarkProfile, get_benchmark
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_trace, trace_entries

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

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l1i):
            cache.reset_stats()
        for level in self.lower:
            target = getattr(level, "cache", level)  # unwrap UniformLowerLevel
            target.reset_stats()
        self.hierarchy.reset_stats()
        self.memory.reads = 0
        self.memory.writes = 0


def make_system(config: SystemConfig, prewarm: bool = True) -> System:
    """Build a system; by default prewarm the lower levels.

    Prewarming fills every cache frame with clean dummy blocks, the
    trace-driven equivalent of the paper's 5-billion-instruction
    fast-forward: replacement and distance-placement machinery start in
    steady state instead of filling an empty 8 MB array.
    """
    hierarchy, l1d, lower, memory = build_system(config)
    if prewarm:
        for level in lower:
            target = getattr(level, "cache", level)
            target.prewarm()
    return System(
        config=config,
        hierarchy=hierarchy,
        l1d=l1d,
        l1i=hierarchy.l1i,
        lower=lower,
        memory=memory,
    )


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
    Two engines are exact.  ``engine="vectorized"`` runs the numpy
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
    elif engine == "approx":
        raise ConfigurationError(
            "approx is an analytical engine with no per-reference replay "
            "loop; run_benchmark dispatches it before replay"
        )
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


def _l2_stats(system: System) -> Dict[str, float]:
    """Normalize the L2's counters across organizations."""
    l2 = system.l2
    inner = getattr(l2, "cache", None)
    if inner is not None:  # base hierarchy: a UniformLowerLevel wrapper
        stats: Dict[str, float] = {
            "accesses": float(inner.accesses),
            "hits": float(inner.hits),
            "misses": float(inner.misses),
            "writebacks": float(inner.writebacks),
        }
        return stats
    return dict(l2.stats.as_dict())


def _dgroup_fractions(system: System) -> Dict[int, float]:
    l2 = system.l2
    dist = getattr(l2, "dgroup_hits", None)
    if dist is None:
        return {}
    stats = _l2_stats(system)
    accesses = stats.get("accesses", 0.0)
    if not accesses:
        return {}
    return {k: v / accesses for k, v in dist.items()}


def _lower_energy_nj(system: System) -> float:
    total = 0.0
    for level in system.lower:
        target = getattr(level, "cache", level)
        total += target.energy.total_nj()
    return total


def _attach_telemetry(system: System, core: CoreModel, session: Telemetry) -> None:
    """Hook the session's clients into a freshly-reset system.

    Attached *after* the warmup reset so histograms and events cover
    the measured portion only, like every other statistic.
    """
    attached = set()
    for cache in (system.l1d, system.l1i):
        if id(cache) in attached:
            continue
        attached.add(id(cache))
        cache.telemetry = session.cache_client(cache.name)
    for level in system.lower:
        target = getattr(level, "cache", level)
        if id(target) in attached:
            continue
        attached.add(id(target))
        target.telemetry = session.cache_client(target.name)
    for level in system.lower:
        # Contended LLCs record the queue depth each access observes.
        if "queue_depth_hist" in getattr(level, "__dict__", {}):
            level.queue_depth_hist = session.histogram(
                f"{level.name}.bank_queue_depth", occupancy_bounds(16)
            )
    system.hierarchy.miss_latency_hist = session.histogram(
        "hierarchy.l1_miss_latency", LATENCY_BOUNDS
    )
    core.mshrs.occupancy_hist = session.histogram(
        "core.mshr_occupancy", occupancy_bounds(core.params.mshrs)
    )


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


def _capture_lower(session: Telemetry, target) -> None:
    """End-of-run gauges for one lower level: counters, energy,
    occupancy, single-port pressure, and banked-queue aggregates.

    Shared with the CMP engine, which captures the same lower levels
    once while keeping per-core books separate.
    """
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


def _capture_telemetry(system: System, core: CoreModel, session: Telemetry) -> None:
    """End-of-run gauges: counters, energy, occupancy, port pressure."""
    captured = set()
    for cache in (system.l1d, system.l1i):
        if id(cache) in captured:
            continue
        captured.add(id(cache))
        session.capture_counters(cache.name, _cache_counters(cache))
        session.capture_energy(cache.name, cache.energy)
    for level in system.lower:
        target = getattr(level, "cache", level)
        if id(target) in captured:
            continue
        captured.add(id(target))
        _capture_lower(session, target)
    session.capture_counters("hierarchy", system.hierarchy.stats.as_dict())
    session.capture_gauge("memory.reads", system.memory.reads)
    session.capture_gauge("memory.writes", system.memory.writes)
    session.capture_gauge("core.stall_cycles", core.stall_cycles)
    session.capture_gauge("core.branch_penalty_cycles", core.branch_penalty_cycles)
    session.capture_gauge("core.mshr_stall_cycles", core.mshr_stall_cycles)
    session.capture_gauge("core.mshr_full_stalls", core.mshr_full_stalls)


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
    """Run one benchmark on one system and collect measurements."""
    if n_references <= 0:
        raise ConfigurationError(
            f"n_references must be positive, got {n_references}"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    if config.multi_core:
        # Multi-core runs interleave their own per-core traces and
        # replay through per-core hierarchies over the shared LLC.
        # cores=1 deliberately falls through to the unchanged
        # single-core path below (the bit-identity contract).
        if trace is not None:
            raise ConfigurationError(
                "CMP runs generate and interleave their own per-core "
                "traces; pass trace=None"
            )
        from repro.cmp.engine import run_cmp

        return run_cmp(
            config,
            benchmark,
            n_references=n_references,
            seed=seed,
            warmup_fraction=warmup_fraction,
            energy_model=energy_model,
            warm_set_conflict=warm_set_conflict,
            prewarm=prewarm,
            telemetry=telemetry,
        )
    engine = resolve_engine(config.engine)
    session: Optional[Telemetry] = None
    if telemetry is not None and telemetry.enabled:
        session = Telemetry(telemetry, f"{config.name}/{benchmark}/s{seed}")
    profiler = session.profiler if session is not None else NullProfiler()
    profile: BenchmarkProfile = get_benchmark(benchmark)
    if trace is None:
        with profiler.phase("tracegen"):
            trace = generate_trace(
                profile, n_references, seed=seed, warm_set_conflict=warm_set_conflict
            )
    if engine == "approx":
        if config.prefetch:
            raise ConfigurationError(
                "prefetch is not modeled by the approx engine; "
                "pick an exact engine or drop prefetch"
            )
        if session is not None:
            raise ConfigurationError(
                "telemetry requires an exact engine; approx synthesizes "
                "aggregates and has no per-reference events to record"
            )
        from repro.sim import approx

        return approx.estimate(
            config, benchmark, profile, trace, warmup_fraction,
            energy_model=energy_model,
        )
    with profiler.phase("build"):
        system = make_system(config, prewarm=prewarm)
    warm, measured = trace.split(warmup_fraction)
    if not len(measured):
        raise ConfigurationError("no measured references after warmup split")

    def new_core() -> CoreModel:
        return CoreModel(
            params=config.core,
            core_ipc=profile.core_ipc,
            exposure=profile.exposure,
            branch_fraction=profile.branch_fraction,
            mispredict_rate=profile.mispredict_rate,
        )

    warm_core = new_core()
    if len(warm):
        with profiler.phase("warmup"):
            _replay([system], [warm_core], warm, engine=engine)
    system.reset_stats()

    core = new_core()
    # Continue on the warm core's timeline so port busy-times stay causal.
    core.cycle = warm_core.cycle
    start_cycle = core.cycle
    start_instr = core.instructions
    if session is not None:
        _attach_telemetry(system, core, session)
    with profiler.phase("measure"):
        _replay([system], [core], measured, engine=engine)

    cycles = core.cycle - start_cycle
    instructions = core.instructions - start_instr
    l2_stats = _l2_stats(system)
    model = energy_model if energy_model is not None else ProcessorEnergyModel()
    l1_energy = system.l1d.energy.total_nj() + system.l1i.energy.total_nj()
    lower_energy = _lower_energy_nj(system)

    extra = dict(l2_stats)
    extra["mshr_full_stalls"] = float(core.mshr_full_stalls)
    extra["stall_cycles"] = core.stall_cycles
    extra["branch_penalty_cycles"] = core.branch_penalty_cycles
    extra["memory_accesses"] = float(core.memory_accesses)
    prefetcher = system.hierarchy.prefetcher
    if prefetcher is not None:
        extra["prefetch_issued"] = float(prefetcher.stats.issued)
        extra["prefetch_useful"] = float(prefetcher.stats.useful)
    for level in system.lower:
        target = getattr(level, "cache", level)
        injector = getattr(target, "fault_injector", None)
        if injector is not None:
            extra.update({k: float(v) for k, v in injector.summary().items()})
            retired = getattr(target, "retired_frames", None)
            if retired is not None:
                # End-of-run census, immune to the post-warmup counter
                # reset (retirement during warmup still shrinks the
                # measured-portion capacity).
                extra["fault_frames_retired_total"] = float(sum(retired()))

    telemetry_payload: Optional[Dict[str, object]] = None
    if session is not None:
        _capture_telemetry(system, core, session)
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
        dgroup_fractions=_dgroup_fractions(system),
        l1_energy_nj=l1_energy,
        lower_energy_nj=lower_energy,
        core_energy_nj=model.core_energy_nj(instructions, cycles),
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
    from repro.sim.parallel import (
        CellTask,
        cell_fingerprint,
        memoizable_payload,
        run_cells,
    )
    from repro.sim.results import run_result_from_dict

    benchmarks = list(benchmarks)
    inline = traces or {}
    results: Dict[int, RunResult] = {}
    keys: Dict[int, str] = {}
    pending: List[CellTask] = []
    for index, name in enumerate(benchmarks):
        task = CellTask(
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
        key = None if result_store is None else cell_fingerprint(task)
        stored = None if key is None else result_store.get(key)
        if stored is not None:
            results[index] = run_result_from_dict(stored["result"])
            continue
        if key is not None:
            keys[index] = key
        pending.append(task)
    shared = [] if config.multi_core else [
        task.benchmark for task in pending if task.trace is None
    ]
    with trace_entries(
        shared, n_references, seed, warm_set_conflict, directory=trace_cache_dir
    ) as trace_paths:
        tasks = [
            replace(task, trace_path=trace_paths.get(task.benchmark))
            for task in pending
        ]
        for payload in run_cells(tasks, jobs):
            index = payload["index"]
            if index in keys:
                stored = dict(payload)
                stored.pop("index", None)
                if memoizable_payload(stored):
                    result_store.put(keys[index], stored)
            results[index] = run_result_from_dict(payload["result"])
    runs = {name: results[index] for index, name in enumerate(benchmarks)}
    return SuiteResult(config_name=config.name, runs=runs)
