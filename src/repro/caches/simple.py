"""Conventional set-associative cache with uniform access latency.

Used for the L1 i/d caches and for both levels of the paper's base
case (1 MB 8-way L2 at 11 cycles over an 8 MB 8-way L3 at 43 cycles,
Table 1/§4).  Placement and replacement are the classic coupled design:
a block's way in the tag array *is* its location in the data array.

State is kept in flat parallel arrays indexed by frame (``set * assoc
+ way``) rather than per-block objects: ``_tags`` holds the resident
block address (``EMPTY`` = invalid), ``_dirty`` the dirty bits, and
``_stamps`` a monotonically increasing touch stamp that realizes true
LRU (a fill takes :func:`~repro.caches.block.victim_way`'s pick: the
first free way, else the one with the smallest stamp — exactly the
least recently inserted-or-touched block).  The flat layout is what
the vectorized replay kernel (:mod:`repro.sim.vectorized`) indexes directly;
the methods below are the thin view the rest of the simulator, the
fault injector, and telemetry keep using.  As a lower level it needs no
adapter: ``access``/``fill`` are :class:`~repro.caches.level.CacheLevel`'s
composition of its outcome and timing steps, and a fill takes no time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.caches.block import EMPTY, prewarm_slots, victim_way
from repro.caches.level import CacheLevel
from repro.faults.models import TransientOutcome
from repro.floorplan.dgroups import UniformCacheSpec
from repro.tech.energy import EnergyBook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan
    from repro.telemetry import CacheTelemetry


#: Fill outcome of a block the cache already holds: nothing happens.
_RESIDENT = (0, None, -1)


class SetAssociativeCache(CacheLevel):
    """A uniform-latency, LRU, write-back, allocate-on-miss cache."""

    def __init__(self, spec: UniformCacheSpec, energy: Optional[EnergyBook] = None) -> None:
        if spec.block_bytes <= 0 or spec.block_bytes & (spec.block_bytes - 1):
            raise ConfigurationError("block_bytes must be a power of two")
        blocks = spec.capacity_bytes // spec.block_bytes
        if blocks % spec.associativity:
            raise ConfigurationError("capacity must hold a whole number of sets")
        self.spec = spec
        self.name = spec.name
        self.block_bytes = spec.block_bytes
        self.n_sets = blocks // spec.associativity
        if self.n_sets & (self.n_sets - 1):
            raise ConfigurationError("set count must be a power of two")
        assoc = spec.associativity
        self._assoc = assoc
        n_frames = self.n_sets * assoc
        #: Flat per-frame state; frame = set_index * associativity + way.
        self._tags: List[int] = [EMPTY] * n_frames
        self._dirty = bytearray(n_frames)
        self._stamps: List[int] = [0] * n_frames
        #: Global touch clock; strictly increasing so stamps are unique
        #: and min-stamp == true LRU.
        self._clock = 1
        self.energy = energy if energy is not None else EnergyBook()
        self.energy.register(f"{self.name}.read", spec.read_energy_nj)
        self.energy.register(f"{self.name}.write", spec.write_energy_nj)
        self.energy.register(f"{self.name}.tag_probe", spec.tag_energy_nj)
        # Hot-path caches: precomputed op keys, address masks, and a
        # direct view into the energy counts (reset in place, so the
        # reference stays valid across reset_stats()).  Pure
        # re-expressions of the state above; bit-identical behavior.
        self._k_read = f"{self.name}.read"
        self._k_write = f"{self.name}.write"
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

    def _find(self, index: int, baddr: int) -> int:
        """Frame holding ``baddr`` within set ``index``, or -1."""
        base = index * self._assoc
        ways = self._tags[base : base + self._assoc]
        return base + ways.index(baddr) if baddr in ways else -1

    def contains(self, address: int) -> bool:
        index = (address >> self._set_shift) & self._set_mask
        return self._find(index, address & self._block_mask) >= 0

    def access_outcome(self, address: int, is_write: bool = False):
        """The access's outcome step: ``(hit, block address)``.

        Makes every state, fault and counter change of the access; a
        clean line a DUE drops for refetch is a miss.
        """
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        frame = self._find(index, baddr)
        if is_write:
            self._ecounts[self._k_write] += 1
        else:
            self._ecounts[self._k_read] += 1
        if frame >= 0:
            if self.fault_injector is not None:
                # May raise UncorrectableDataError for a dirty-line DUE.
                outcome = self.fault_injector.on_access(
                    True, bool(self._dirty[frame]), address
                )
                if outcome is TransientOutcome.REFETCH:
                    # Detected-uncorrectable on a clean line: drop it
                    # and refetch from below, surfaced as a miss.
                    self._tags[frame] = EMPTY
                    self._dirty[frame] = 0
                    self.fault_refetches += 1
                    self.misses += 1
                    return (False, baddr)
            self.hits += 1
            self._stamps[frame] = self._clock
            self._clock += 1
            if is_write:
                self._dirty[frame] = 1
            return (True, baddr)
        if self.fault_injector is not None:
            self.fault_injector.on_access(False, False, address)
        self.misses += 1
        return (False, baddr)

    def access_timing(self, outcome, now: float):
        """The access's timing step: the uniform latency, for a hit and
        a miss alike (tag and data are probed either way).

        ``now`` is unused: the paper's L1s are pipelined and the base
        L2/L3 are not the bandwidth bottleneck under study.
        """
        if self.telemetry is not None:
            self.telemetry.on_access(
                outcome[1], outcome[0], None, float(self.spec.latency_cycles)
            )
        return self.spec.latency_cycles

    # --- fills and evictions ---

    def fill_outcome(self, address: int, dirty: bool = False):
        """The fill's outcome step: ``(dirty writebacks, deferred
        events, victim block address or -1)``.

        Fill energy is charged as a write access.  The events are None
        unless telemetry is armed; the victim is what the L1 path
        writes back when it is dirty.
        """
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        if self._find(index, baddr) >= 0:
            # Two misses to the same block can race through the MSHR
            # merge path; the second fill is a no-op.
            return _RESIDENT
        self._ecounts[self._k_write] += 1
        tags = self._tags
        frame = victim_way(tags, self._stamps, index * self._assoc, self._assoc)
        victim_addr = tags[frame]
        writebacks = 0
        if victim_addr != EMPTY and self._dirty[frame]:
            writebacks = 1
            self.writebacks += 1
        tags[frame] = baddr
        self._dirty[frame] = 1 if dirty else 0
        self._stamps[frame] = self._clock
        self._clock += 1
        events = None
        if self.telemetry is not None:
            events = []
            if victim_addr >= 0:
                events.append(("eviction", {"addr": victim_addr}, False))
                if writebacks:
                    events.append(("writeback", {"addr": victim_addr}, False))
            events.append(("placement", {"addr": baddr}, False))
        return (writebacks, events, victim_addr)

    def invalidate(self, address: int) -> bool:
        """Remove a block (if present) without writing it back; returns
        whether one was removed."""
        index = (address >> self._set_shift) & self._set_mask
        frame = self._find(index, address & self._block_mask)
        if frame < 0:
            return False
        self._tags[frame] = EMPTY
        self._dirty[frame] = 0
        return True

    # --- prewarm ---

    def prewarm(self) -> None:
        """Fill every way with a clean dummy block (steady-state start).

        Frames take the dummies set-major, way-minor, each stamped as
        if inserted in that order (way 0 of a set is its LRU block).
        """
        n_frames = len(self._tags)
        if self._tags.count(EMPTY) != n_frames:
            raise SimulationError("prewarm on a non-empty cache")
        self._tags = list(prewarm_slots(self.n_sets, self._assoc, self.spec.block_bytes))
        clock = self._clock
        self._stamps = list(range(clock, clock + n_frames))
        self._clock = clock + n_frames

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

    def resident_block_addrs(self) -> List[int]:
        """The block address in each frame (-1 for a free frame)."""
        return self._tags

    def occupancy(self) -> int:
        """Number of resident blocks (for tests and examples)."""
        return sum(1 for tag in self._tags if tag >= 0)
