"""Conventional set-associative cache with uniform access latency.

Used for the L1 i/d caches and for both levels of the paper's base
case (1 MB 8-way L2 at 11 cycles over an 8 MB 8-way L3 at 43 cycles,
Table 1/§4).  Placement and replacement are the classic coupled design:
a block's way in the tag array *is* its location in the data array.

State is kept in flat parallel arrays indexed by frame (``set * assoc
+ way``) rather than per-block objects: ``_tags`` holds the resident
block address (-1 = invalid), ``_dirty`` the dirty bits, and
``_stamps`` a monotonically increasing touch stamp that realizes true
LRU (the victim is the valid way with the smallest stamp — exactly the
least recently inserted-or-touched block, bit-identical to the
dict-ordered LRU this class used to keep).  The flat layout is what
the vectorized replay kernel (:mod:`repro.sim.vectorized`) indexes directly;
the methods below are the thin view the rest of the simulator, the
fault injector, and telemetry keep using.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.types import AccessResult
from repro.caches.block import CacheBlock, block_address, set_index
from repro.faults.models import TransientOutcome
from repro.floorplan.dgroups import UniformCacheSpec
from repro.tech.energy import EnergyBook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan
    from repro.telemetry import CacheTelemetry


class SetAssociativeCache:
    """A uniform-latency, LRU, write-back, allocate-on-miss cache."""

    def __init__(self, spec: UniformCacheSpec, energy: Optional[EnergyBook] = None) -> None:
        if spec.block_bytes <= 0 or spec.block_bytes & (spec.block_bytes - 1):
            raise ConfigurationError("block_bytes must be a power of two")
        blocks = spec.capacity_bytes // spec.block_bytes
        if blocks % spec.associativity:
            raise ConfigurationError("capacity must hold a whole number of sets")
        self.spec = spec
        self.name = spec.name
        self.n_sets = blocks // spec.associativity
        if self.n_sets & (self.n_sets - 1):
            raise ConfigurationError("set count must be a power of two")
        assoc = spec.associativity
        self._assoc = assoc
        n_frames = self.n_sets * assoc
        #: Flat per-frame state; frame = set_index * associativity + way.
        self._tags: List[int] = [-1] * n_frames
        self._dirty = bytearray(n_frames)
        self._stamps: List[int] = [0] * n_frames
        #: Global touch clock; strictly increasing so stamps are unique
        #: and min-stamp == true LRU.
        self._clock = 1
        self.energy = energy if energy is not None else EnergyBook()
        self.energy.register(f"{self.name}.read", spec.read_energy_nj)
        self.energy.register(f"{self.name}.write", spec.write_energy_nj)
        self.energy.register(f"{self.name}.tag_probe", spec.tag_energy_nj)
        # Hot-path caches: precomputed op keys/costs, address masks, and a
        # direct view into the energy counts (reset in place, so the
        # reference stays valid across reset_stats()).  Pure
        # re-expressions of the state above; bit-identical behavior.
        self._k_read = f"{self.name}.read"
        self._k_write = f"{self.name}.write"
        self._read_cost = self.energy.cost(self._k_read)
        self._write_cost = self.energy.cost(self._k_write)
        self._ecounts = self.energy._count
        self._block_mask = ~(spec.block_bytes - 1)
        self._set_shift = spec.block_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.fault_refetches = 0
        #: Optional runtime fault injection (see :mod:`repro.faults`).
        #: None keeps the hooks dead code: the no-fault path is
        #: bit-identical to the pre-fault simulator.
        self.fault_injector: Optional["FaultInjector"] = None
        #: Optional telemetry client (None is the null sink).
        self.telemetry: Optional["CacheTelemetry"] = None

    # --- fault injection (opt-in) ---

    def attach_faults(self, plan: "FaultPlan") -> "FaultInjector":
        """Arm this cache with a transient-upset campaign.

        Hard subarray failures need the d-group retirement machinery,
        which only :class:`~repro.nurapid.cache.NuRAPIDCache` models;
        a uniform cache accepts transient-only plans.
        """
        from repro.faults.injector import FaultInjector

        if self.fault_injector is not None:
            raise ConfigurationError(f"{self.name} already has a fault injector")
        if plan.hard_faults:
            raise ConfigurationError(
                f"{self.name} is a uniform cache; hard subarray faults are "
                "only modeled for NuRAPID d-groups"
            )
        self.fault_injector = FaultInjector(plan, self.name, n_dgroups=1)
        return self.fault_injector

    # --- lookups ---

    def _locate(self, address: int) -> int:
        return set_index(address, self.spec.block_bytes, self.n_sets)

    def _find(self, index: int, baddr: int) -> int:
        """Frame holding ``baddr`` within set ``index``, or -1."""
        tags = self._tags
        base = index * self._assoc
        for frame in range(base, base + self._assoc):
            if tags[frame] == baddr:
                return frame
        return -1

    def contains(self, address: int) -> bool:
        baddr = block_address(address, self.spec.block_bytes)
        return self._find(self._locate(address), baddr) >= 0

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        """Present one reference; on a miss the caller fetches and fills.

        The uniform latency covers both the hit case and miss
        determination (tag + data are probed either way in this simple
        organization).  ``now`` is accepted for interface uniformity
        with the banked/ported organizations but unused: the paper's
        L1s are pipelined and the base L2/L3 are not the bandwidth
        bottleneck under study.
        """
        del now
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        frame = self._find(index, baddr)
        if is_write:
            self._ecounts[self._k_write] += 1
            energy = self._write_cost
        else:
            self._ecounts[self._k_read] += 1
            energy = self._read_cost
        if frame >= 0:
            if self.fault_injector is not None:
                # May raise UncorrectableDataError for a dirty-line DUE.
                outcome = self.fault_injector.on_access(
                    True, bool(self._dirty[frame]), address
                )
                if outcome is TransientOutcome.REFETCH:
                    # Detected-uncorrectable on a clean line: drop it
                    # and refetch from below, surfaced as a miss.
                    self._tags[frame] = -1
                    self._dirty[frame] = 0
                    self.fault_refetches += 1
                    self.misses += 1
                    if self.telemetry is not None:
                        self.telemetry.on_access(
                            baddr, False, None, float(self.spec.latency_cycles)
                        )
                    return AccessResult(
                        hit=False,
                        latency=self.spec.latency_cycles,
                        level=self.name,
                        energy_nj=energy,
                    )
            self.hits += 1
            self._stamps[frame] = self._clock
            self._clock += 1
            if is_write:
                self._dirty[frame] = 1
            if self.telemetry is not None:
                self.telemetry.on_access(
                    baddr, True, None, float(self.spec.latency_cycles)
                )
            return AccessResult(
                hit=True,
                latency=self.spec.latency_cycles,
                level=self.name,
                energy_nj=energy,
            )
        if self.fault_injector is not None:
            self.fault_injector.on_access(False, False, address)
        self.misses += 1
        if self.telemetry is not None:
            self.telemetry.on_access(
                baddr, False, None, float(self.spec.latency_cycles)
            )
        return AccessResult(
            hit=False,
            latency=self.spec.latency_cycles,
            level=self.name,
            energy_nj=energy,
        )

    # --- fills and evictions ---

    def fill(self, address: int, dirty: bool = False) -> Optional[CacheBlock]:
        """Install a block after a miss; returns any evicted block.

        Fill energy is charged as a write access.  The evicted block is
        returned so the hierarchy can route a dirty writeback to the
        next level.
        """
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        if self._find(index, baddr) >= 0:
            # Two misses to the same block can race through the MSHR
            # merge path; the second fill is a no-op.
            return None
        self._ecounts[self._k_write] += 1
        tags = self._tags
        stamps = self._stamps
        base = index * self._assoc
        free = -1
        victim = -1
        victim_stamp = 0
        for frame in range(base, base + self._assoc):
            if tags[frame] < 0:
                if free < 0:
                    free = frame
            elif victim < 0 or stamps[frame] < victim_stamp:
                victim = frame
                victim_stamp = stamps[frame]
        victim_block: Optional[CacheBlock] = None
        if free < 0:
            victim_block = CacheBlock(
                block_addr=tags[victim], dirty=bool(self._dirty[victim])
            )
            if self.telemetry is not None:
                self.telemetry.event("eviction", addr=victim_block.block_addr)
            if victim_block.dirty:
                self.writebacks += 1
                if self.telemetry is not None:
                    self.telemetry.event("writeback", addr=victim_block.block_addr)
            free = victim
        tags[free] = baddr
        self._dirty[free] = 1 if dirty else 0
        stamps[free] = self._clock
        self._clock += 1
        if self.telemetry is not None:
            self.telemetry.event("placement", addr=baddr)
        return victim_block

    def invalidate(self, address: int) -> Optional[CacheBlock]:
        """Remove a block (if present) without writing it back."""
        baddr = block_address(address, self.spec.block_bytes)
        frame = self._find(self._locate(address), baddr)
        if frame < 0:
            return None
        block = CacheBlock(block_addr=baddr, dirty=bool(self._dirty[frame]))
        self._tags[frame] = -1
        self._dirty[frame] = 0
        return block

    # --- prewarm ---

    PREWARM_BASE = 1 << 45

    def prewarm(self) -> None:
        """Fill every way with a clean dummy block (steady-state start)."""
        tags = self._tags
        stamps = self._stamps
        assoc = self._assoc
        clock = self._clock
        block_bytes = self.spec.block_bytes
        n_sets = self.n_sets
        base_addr = self.PREWARM_BASE
        for index in range(n_sets):
            base = index * assoc
            for way in range(assoc):
                baddr = base_addr + (way * n_sets + index) * block_bytes
                if self._find(index, baddr) >= 0:
                    continue
                for frame in range(base, base + assoc):
                    if tags[frame] < 0:
                        tags[frame] = baddr
                        stamps[frame] = clock
                        clock += 1
                        break
        self._clock = clock

    # --- introspection ---

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents and recency are kept."""
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.fault_refetches = 0
        self.energy.reset_counts()

    def occupancy(self) -> int:
        """Number of resident blocks (for tests and examples)."""
        return sum(1 for tag in self._tags if tag >= 0)
