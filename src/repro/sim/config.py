"""Named system configurations (Table 1 / §4).

Every simulated system shares the Table 1 front end — 8-wide core,
64 KB 2-way 32 B-block L1 i/d caches at 3 cycles with 8 MSHRs, memory
at 130 + 4/8B cycles — and differs only in what sits below the L1s:

* ``base``     — 1 MB 8-way L2 (11 cycles) over 8 MB 8-way L3 (43
  cycles), both 128 B blocks.
* ``nurapid``  — 8 MB 8-way NuRAPID with 2/4/8 d-groups and the §2.4
  policy knobs.
* ``dnuca``    — 8 MB 16-way D-NUCA, 128 banks, ss-performance or
  ss-energy.
* ``sa-nuca``  — the Figure 4 coupled-placement non-uniform cache.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.memory import MainMemory
from repro.caches.prefetch import StreamPrefetcher
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.caches.simple import SetAssociativeCache
from repro.cmp.config import CmpConfig
from repro.cmp.contention import ContendedLLC
from repro.cpu.core import CoreParams
from repro.faults.models import FaultPlan
from repro.floorplan.dgroups import build_uniform_cache_spec
from repro.nuca.cache import DNUCACache
from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.config import (
    DistanceReplacementKind,
    NuRAPIDConfig,
    PromotionPolicy,
)
from repro.workloads.interleave import parse_cmp_benchmark

KB = 1024
MB = 1024 * 1024

#: Replay engines.  "legacy" is the original per-object loop kept as
#: the parity reference; "vectorized" the numpy kernel
#: (:mod:`repro.sim.vectorized`).  The two are bit-identical.
ENGINES = ("legacy", "vectorized")


def check_engine(engine: str, where: str = "") -> str:
    """``engine`` if it names a replay engine, else a ConfigurationError.

    ``where`` (say ``" in REPRO_ENGINE"``) names the value's source in
    the message, so a typo points at what to fix.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}{where}; expected one of "
            f"{', '.join(ENGINES)}"
        )
    return engine


def resolve_engine(engine: Optional[str] = None) -> str:
    """Pick the replay engine: explicit setting, else $REPRO_ENGINE, else vectorized."""
    if engine is not None:
        return check_engine(engine)
    env = os.environ.get("REPRO_ENGINE", "").strip()
    return check_engine(env, " in REPRO_ENGINE") if env else "vectorized"


def env_jobs() -> int:
    """The worker count in $REPRO_JOBS, else 1.

    Anything but a positive integer is a :class:`ConfigurationError`
    naming the variable, so a typo never silently runs serially.
    """
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_JOBS must be an integer, got {env!r}"
        ) from None
    if jobs < 1:
        raise ConfigurationError(f"REPRO_JOBS must be >= 1, got {jobs}")
    return jobs


def _fingerprint_default(value: object) -> object:
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


def config_fingerprint(config: "SystemConfig") -> str:
    """Content hash of every field that can influence a run's results.

    The canonical JSON of the config's full dataclass tree (enums by
    value), hashed with sha256.  Two configs with equal fingerprints
    produce byte-identical :class:`~repro.sim.results.RunResult`
    payloads for the same cell parameters, which is what makes the
    fingerprint usable as a content-address component for memoized
    results (:mod:`repro.service.store`).  Note that ``engine=None``
    fingerprints as None — resolution against ``$REPRO_ENGINE`` is
    environment-dependent, so memo keys resolve the engine separately
    (:func:`repro.sim.parallel.cell_fingerprint`).
    """
    payload = dataclasses.asdict(config)
    if not payload["prefetch"]:
        # Configs without the prefetcher keep the fingerprints (and so
        # the stored results) they had before the field existed.
        del payload["prefetch"]
    encoded = json.dumps(payload, sort_keys=True, default=_fingerprint_default)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SystemConfig:
    """One simulated machine: the shared front end plus an L2 choice."""

    name: str
    l2_kind: str  # "base" | "nurapid" | "dnuca" | "sa-nuca" | "s-nuca"
    core: CoreParams = field(default_factory=CoreParams)
    nurapid: Optional[NuRAPIDConfig] = None
    dnuca: Optional[DNUCAConfig] = None
    seed: int = 0
    #: Optional runtime fault campaign applied to the cache under study
    #: (the first level below the L1s).  None disables all fault hooks.
    faults: Optional[FaultPlan] = None
    #: Replay engine: "legacy" | "vectorized" | None
    #: (= $REPRO_ENGINE, else "vectorized").  The two are
    #: bit-identical (see repro.sim.vectorized).
    engine: Optional[str] = None
    #: Optional CMP scenario axis (cores sharing this LLC, bank
    #: contention, compressed NuRAPID).  None — and, by contract,
    #: ``CmpConfig(cores=1)`` without contention/compression — keeps
    #: runs bit-identical to the single-core model.
    cmp: Optional[CmpConfig] = None
    #: A stream prefetcher between the L1 and the cache under study
    #: (:mod:`repro.caches.prefetch`); its name carries ``-pf``.
    #: Single-core only.
    prefetch: bool = False

    def __post_init__(self) -> None:
        if self.engine is not None:
            check_engine(self.engine)
        if self.l2_kind not in {"base", "nurapid", "dnuca", "sa-nuca", "s-nuca"}:
            raise ConfigurationError(f"unknown l2_kind {self.l2_kind!r}")
        if self.l2_kind == "nurapid" and self.nurapid is None:
            raise ConfigurationError("nurapid kind requires a NuRAPIDConfig")
        if self.l2_kind == "dnuca" and self.dnuca is None:
            raise ConfigurationError("dnuca kind requires a DNUCAConfig")
        if self.faults is not None and self.l2_kind not in {"base", "nurapid"}:
            raise ConfigurationError(
                f"fault injection is not modeled for l2_kind {self.l2_kind!r}"
            )
        if self.faults is not None and self.l2_kind == "base" and self.faults.hard_faults:
            raise ConfigurationError(
                "hard subarray faults are only modeled for NuRAPID d-groups"
            )
        if self.cmp is not None:
            if self.cmp.compression is not None and self.l2_kind != "nurapid":
                raise ConfigurationError(
                    "compressed lines are only modeled for NuRAPID "
                    f"(l2_kind {self.l2_kind!r})"
                )
            if self.cmp.contention is not None and self.l2_kind == "base":
                raise ConfigurationError(
                    "bank contention is modeled for the non-uniform caches; "
                    "the base hierarchy keeps its fixed L2/L3 latencies"
                )
            if self.cmp.compression is not None and self.faults is not None:
                raise ConfigurationError(
                    "fault injection is not modeled for compressed NuRAPID"
                )
            if self.cmp.cores > 1 and self.faults is not None:
                raise ConfigurationError(
                    "fault injection is single-core only; drop faults or cores"
                )
        if self.prefetch and self.multi_core:
            raise ConfigurationError(
                "prefetch is single-core only; drop prefetch or cores"
            )

    @property
    def multi_core(self) -> bool:
        """True when runs interleave per-core traces (``cmp.cores > 1``)."""
        return self.cmp is not None and self.cmp.cores > 1

    def trace_spec(self, benchmark: str) -> str:
        """The spec of the trace a run of ``benchmark`` replays
        (:func:`~repro.workloads.tracegen.generate_spec_trace`): one app
        per core, ``"a+b"``, on a multi-core config, else the benchmark."""
        cores = self.cmp.cores if self.multi_core else 1
        return "+".join(parse_cmp_benchmark(benchmark, cores))


# --- factory helpers for the paper's configurations ---


def base_config(faults: Optional[FaultPlan] = None) -> SystemConfig:
    """The conventional L2/L3 hierarchy the paper normalizes against.

    ``faults`` (transient-only) arms the L2 with a fault campaign; the
    plan's label lands in the config name so cached results never mix
    fault settings.
    """
    label = "base" if faults is None else f"base-{faults.label()}"
    return SystemConfig(name=label, l2_kind="base", faults=faults)


def nurapid_config(
    n_dgroups: int = 4,
    promotion: PromotionPolicy = PromotionPolicy.NEXT_FASTEST,
    distance_replacement: DistanceReplacementKind = DistanceReplacementKind.RANDOM,
    restricted_frames: Optional[int] = None,
    ideal_uniform: bool = False,
    promotion_hysteresis: int = 1,
    seed: int = 0,
    name: Optional[str] = None,
    faults: Optional[FaultPlan] = None,
) -> SystemConfig:
    """An 8 MB 8-way NuRAPID system."""
    label = name or (
        f"nurapid-{n_dgroups}dg-{promotion.value}-{distance_replacement.value}"
        + ("-ideal" if ideal_uniform else "")
        + (f"-hyst{promotion_hysteresis}" if promotion_hysteresis != 1 else "")
    )
    if faults is not None:
        label = f"{label}-{faults.label()}"
    cache = NuRAPIDConfig(
        n_dgroups=n_dgroups,
        promotion=promotion,
        distance_replacement=distance_replacement,
        restricted_frames=restricted_frames,
        ideal_uniform=ideal_uniform,
        promotion_hysteresis=promotion_hysteresis,
        seed=seed,
    )
    return SystemConfig(
        name=label, l2_kind="nurapid", nurapid=cache, seed=seed, faults=faults
    )


def dnuca_config(
    policy: SearchPolicy = SearchPolicy.SS_PERFORMANCE,
    tail_insertion: bool = True,
    seed: int = 0,
    name: Optional[str] = None,
) -> SystemConfig:
    """The paper's 8 MB 16-way 128-bank D-NUCA system."""
    label = name or f"dnuca-{policy.value}"
    cache = DNUCAConfig(policy=policy, tail_insertion=tail_insertion, seed=seed)
    return SystemConfig(name=label, l2_kind="dnuca", dnuca=cache, seed=seed)


def sa_nuca_config(seed: int = 0) -> SystemConfig:
    """The Figure 4 set-associative-placement non-uniform cache."""
    return SystemConfig(name="sa-nuca", l2_kind="sa-nuca", seed=seed)


def snuca_config(seed: int = 0) -> SystemConfig:
    """The static NUCA baseline (Kim et al.'s S-NUCA-2 lineage)."""
    return SystemConfig(name="s-nuca", l2_kind="s-nuca", seed=seed)


# --- construction ---


def _l1_spec(name: str, core: CoreParams):
    """A 64 KB 2-way L1 with the core's hit latency and block size."""
    return build_uniform_cache_spec(
        name=name,
        capacity_bytes=64 * KB,
        block_bytes=core.l1_block_bytes,
        associativity=2,
        latency_cycles=core.l1_hit_cycles,
        sequential_tag_data=False,
        energy_factor=6.4,
    )


def build_lower_level(config: SystemConfig):
    """Build the level(s) below the L1s for a config.

    When ``config.faults`` is set, the cache under study (L2) is armed
    with a :class:`~repro.faults.injector.FaultInjector` before any
    traffic; other levels run fault-free.

    ``config.cmp`` swaps in the compressed NuRAPID variant and/or
    wraps the cache under study with per-bank contention queues —
    build-time concerns, applied whether the run is single- or
    multi-core.
    """
    lower = _build_cache_under_study(config)
    cmp = config.cmp
    if cmp is not None and cmp.contention is not None:
        lower[0] = ContendedLLC(lower[0], cmp.contention)
    return lower


def _build_cache_under_study(config: SystemConfig):
    if config.l2_kind == "base":
        l2 = SetAssociativeCache(
            build_uniform_cache_spec(
                name="L2",
                capacity_bytes=1 * MB,
                block_bytes=128,
                associativity=8,
                latency_cycles=11,
            )
        )
        l3 = SetAssociativeCache(
            build_uniform_cache_spec(
                name="L3",
                capacity_bytes=8 * MB,
                block_bytes=128,
                associativity=8,
                latency_cycles=43,
            )
        )
        if config.faults is not None:
            l2.attach_faults(config.faults)
        return [l2, l3]
    if config.l2_kind == "nurapid":
        assert config.nurapid is not None
        if config.cmp is not None and config.cmp.compression is not None:
            from repro.nurapid.compression import CompressedNuRAPIDCache

            cache = CompressedNuRAPIDCache(config.nurapid, config.cmp.compression)
        else:
            cache = NuRAPIDCache(config.nurapid)
        if config.faults is not None:
            cache.attach_faults(config.faults)
        return [cache]
    if config.l2_kind == "dnuca":
        assert config.dnuca is not None
        return [DNUCACache(config.dnuca)]
    if config.l2_kind == "sa-nuca":
        return [SetAssociativePlacementCache()]
    if config.l2_kind == "s-nuca":
        from repro.nuca.snuca import SNUCACache

        return [SNUCACache()]
    raise ConfigurationError(f"unknown l2_kind {config.l2_kind!r}")


def build_hierarchy(
    config: SystemConfig, lower, memory, prefix: str = ""
) -> CacheHierarchy:
    """One core's L1 pair (``{prefix}L1d``/``{prefix}L1i``) and
    hierarchy over the given lower levels and memory.

    A CMP builds one per core over shared ``lower`` and ``memory``,
    with ``prefix`` ``"c{i}."`` naming each core's L1s.
    """
    l1d = SetAssociativeCache(_l1_spec(f"{prefix}L1d", config.core))
    l1i = SetAssociativeCache(_l1_spec(f"{prefix}L1i", config.core))
    hierarchy = CacheHierarchy(l1d=l1d, lower=lower, memory=memory, l1i=l1i)
    if config.prefetch:
        hierarchy.prefetcher = StreamPrefetcher(block_bytes=lower[0].block_bytes)
    return hierarchy


def build_system(config: SystemConfig):
    """Assemble L1s + lower levels + memory into a hierarchy.

    Returns ``(hierarchy, l1d, lower_levels, memory)``; the driver's
    :class:`~repro.sim.driver.System` wraps these with a core model.
    A multi-core config builds core 0 (L1s named ``c0.*``).
    """
    lower = build_lower_level(config)
    memory = MainMemory()
    prefix = "c0." if config.multi_core else ""
    hierarchy = build_hierarchy(config, lower, memory, prefix=prefix)
    return hierarchy, hierarchy.l1d, lower, memory
