"""The NuRAPID cache model (§2).

Structure: a centralized set-associative tag array probed first
(sequential tag-data access), whose entries carry forward pointers to
frames in a few large d-groups; frames carry reverse pointers back.
Placement, distance replacement, and promotion follow §2.1–2.4:

* new blocks always enter d-group 0 (initial placement in the fastest
  group — the flexibility set-associative placement cannot afford),
* making room demotes blocks outward, d-group by d-group, until a free
  frame is found (at most n-1 demotions; never an eviction),
* hits outside d-group 0 optionally promote the block by swapping it
  with a distance-replacement victim of the faster group,
* the whole cache is one-ported and non-banked: every operation —
  access, swap leg, fill — serializes on a single
  :class:`~repro.caches.port.PortScheduler` (§2.3).

Timing contract: ``access``/``fill`` take the arrival cycle ``now``;
returned latencies include queueing behind earlier operations, which is
how the paper's reduced-bandwidth argument is evaluated (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cost
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan, HardFaultEvent
    from repro.telemetry import CacheTelemetry
from repro.common import prewarm_cache
from repro.common.lru import LRUPolicy
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, Distribution
from repro.common.types import AccessResult
from repro.caches.block import block_address, prewarm_blocks, set_index
from repro.caches.port import PortScheduler
from repro.faults.models import TransientOutcome
from repro.floorplan.dgroups import NuRAPIDGeometry, build_nurapid_geometry
from repro.nurapid.config import NuRAPIDConfig, PromotionPolicy
from repro.nurapid.pointers import FrameStore
from repro.nurapid.replacement import DistanceReplacer
from repro.tech.energy import EnergyBook


@dataclass
class TagEntry:
    """One tag-array entry: identity, state, and the forward pointer.

    Internally the tag array packs this state into a single int per
    block (see the ``_PACK_*`` layout below); :meth:`NuRAPIDCache.lookup`
    materializes a ``TagEntry`` snapshot for introspection and tests.
    """

    block_addr: int
    dirty: bool
    dgroup: int
    frame: int
    #: Hits taken outside the promotion target since the last move
    #: (drives the promotion_hysteresis extension).
    pending_hits: int = 0


# Packed tag-entry layout: frame in the low bits, then d-group, the
# dirty bit, and pending promotion hits on top.  Keeping the whole
# entry in one int means the hot access path does a single dict load
# and a couple of shifts instead of walking an object graph.
_PACK_FRAME_BITS = 24
_PACK_FRAME_MASK = (1 << _PACK_FRAME_BITS) - 1
_PACK_DGROUP_SHIFT = _PACK_FRAME_BITS
_PACK_DGROUP_MASK = 0xF
_PACK_DIRTY = 1 << 28
_PACK_PENDING_SHIFT = 29
#: Everything except the pending-hits counter.
_PACK_BELOW_PENDING = (1 << _PACK_PENDING_SHIFT) - 1


@dataclass
class _PrewarmSnapshot:
    """Post-prewarm container state (see :mod:`repro.common.prewarm_cache`)."""

    tags: List[Dict[int, int]]
    lru: List[object]
    stores: List[Tuple[List[Optional[int]], List[List[int]]]]
    replacer: List[List[object]]


class NuRAPIDCache:
    """Distance-associative non-uniform L2 (lower-level protocol)."""

    def __init__(
        self,
        config: NuRAPIDConfig,
        geometry: Optional[NuRAPIDGeometry] = None,
        energy: Optional[EnergyBook] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self.block_bytes = config.block_bytes
        self.geometry = geometry if geometry is not None else build_nurapid_geometry(
            n_dgroups=config.n_dgroups,
            capacity_bytes=config.capacity_bytes,
            block_bytes=config.block_bytes,
            associativity=config.associativity,
            restricted_frames=config.restricted_frames,
        )
        if self.geometry.n_dgroups != config.n_dgroups:
            raise ConfigurationError("geometry and config disagree on d-groups")
        if self.geometry.sets != config.n_sets:
            raise ConfigurationError("geometry and config disagree on sets")

        if config.frames_per_dgroup > _PACK_FRAME_MASK:
            raise ConfigurationError("d-group too large for packed tag entries")
        if config.n_dgroups > _PACK_DGROUP_MASK:
            raise ConfigurationError("too many d-groups for packed tag entries")
        # Address decomposition, pre-reduced to shift/mask form (the
        # config's n_sets is a computed property and the shared helpers
        # re-validate per call — too hot for the access path).
        self._n_sets = config.n_sets
        self._block_mask = ~(config.block_bytes - 1)
        self._set_shift = config.block_bytes.bit_length() - 1
        self._set_mask = self._n_sets - 1
        #: Per-set tag array: block address -> packed entry int.
        self._tags: List[Dict[int, int]] = [dict() for _ in range(config.n_sets)]
        self._data_lru: List[LRUPolicy] = [LRUPolicy() for _ in range(config.n_sets)]
        self._stores = [
            FrameStore(config.frames_per_dgroup, config.n_regions)
            for _ in range(config.n_dgroups)
        ]
        rng = DeterministicRNG(config.seed, f"{config.name}/distance")
        self._replacer = DistanceReplacer(
            config.n_dgroups, config.n_regions, config.distance_replacement, rng
        )
        self.port = PortScheduler(f"{config.name}.port")

        self.energy = energy if energy is not None else EnergyBook()
        self._register_energy()

        self.stats = Counter()
        self.dgroup_hits = Distribution()
        self._init_hot_caches()

        #: Optional runtime fault injection (see :mod:`repro.faults`).
        #: None keeps every fault hook dead code: the no-fault path is
        #: bit-identical to the pre-fault simulator.
        self.fault_injector: Optional["FaultInjector"] = None
        #: Optional telemetry client (see :mod:`repro.telemetry`).
        #: None is the null sink: every hook below is a dead branch.
        self.telemetry: Optional["CacheTelemetry"] = None

    def _init_hot_caches(self) -> None:
        """Precompute hot-path constants (pure re-expressions of state).

        The access path used to build f-string energy keys, re-derive
        latencies from the geometry, and go through ``Counter.add`` /
        ``EnergyBook.charge`` on every call.  Everything cached here is
        a value those calls would compute identically, so the counter
        totals, key insertion order, and float arithmetic stay
        bit-identical to the uncached path.
        """
        geo = self.geometry
        name = self.name
        groups = range(geo.n_dgroups)
        self._k_tag = f"{name}.tag_probe"
        self._k_dg_read = [f"{name}.dg{g}.read" for g in groups]
        self._k_dg_write = [f"{name}.dg{g}.write" for g in groups]
        self._k_move = [
            [f"{name}.move.{i}->{j}" if i != j else "" for j in groups]
            for i in groups
        ]
        self._tag_cost = self.energy.cost(self._k_tag)
        self._dg_read_cost = [self.energy.cost(k) for k in self._k_dg_read]
        self._dg_write_cost = [self.energy.cost(k) for k in self._k_dg_write]
        #: Direct views into the stats/energy dicts.  Counter.reset()
        #: and EnergyBook.reset_counts() mutate in place, so these stay
        #: valid across reset_stats().
        self._scounts = self.stats._counts
        self._ecounts = self.energy._count
        self._miss_lat_f = float(geo.miss_latency())
        self._hit_lat_f = [float(geo.hit_latency(g)) for g in groups]
        self._ideal_lat = geo.hit_latency(0)
        self._tag_cycles = geo.tag_cycles
        self._data_occ = [geo.data_occupancy(g) for g in groups]
        self._data_cycles = [geo.dgroups[g].data_cycles for g in groups]
        self._swap_occ = [
            [geo.swap_occupancy(i, j) if i != j else 0.0 for j in groups]
            for i in groups
        ]
        self._n_regions = self.config.n_regions
        self._rtouch = [
            [policy.touch for policy in row] for row in self._replacer._policies
        ]
        self._ideal_uniform = self.config.ideal_uniform
        self._promo_on = self.config.promotion is not PromotionPolicy.DEMOTION_ONLY
        self._promo_next = self.config.promotion is PromotionPolicy.NEXT_FASTEST
        self._hysteresis = self.config.promotion_hysteresis
        #: Tag-side residency limit per set.  Equals the configured
        #: associativity here; variant caches with more data frames
        #: than tag ways per set (compressed d-groups) raise it.
        self._assoc_limit = self.config.associativity

    # --- fault injection (opt-in) ---

    def attach_faults(self, plan: "FaultPlan") -> "FaultInjector":
        """Arm this cache with a fault campaign; returns the injector."""
        from repro.faults.injector import FaultInjector

        if self.fault_injector is not None:
            raise ConfigurationError(f"{self.name} already has a fault injector")
        self.fault_injector = FaultInjector(
            plan, self.name, n_dgroups=self.config.n_dgroups
        )
        return self.fault_injector

    # --- energy registration ---

    def _register_energy(self) -> None:
        geo = self.geometry
        self.energy.register(f"{self.name}.tag_probe", geo.tag_energy_nj)
        for spec in geo.dgroups:
            self.energy.register(f"{self.name}.dg{spec.index}.read", spec.read_energy_nj)
            self.energy.register(f"{self.name}.dg{spec.index}.write", spec.write_energy_nj)
        for i in range(geo.n_dgroups):
            for j in range(geo.n_dgroups):
                if i != j:
                    self.energy.register(
                        f"{self.name}.move.{i}->{j}", geo.swap_energy_nj(i, j)
                    )

    # --- address helpers ---

    def _set_of(self, address: int) -> int:
        # == set_index(address, self.block_bytes, n_sets) for the
        # non-negative addresses traces carry.
        return (address >> self._set_shift) & self._set_mask

    def _region_of(self, address: int) -> int:
        # Regions are selected by set-index bits so that each region's
        # resident blocks can never exceed its frames (restricted
        # placement stays deadlock-free; see tests).
        return self._set_of(address) % self.config.n_regions

    # --- lookups ---

    def lookup(self, address: int) -> Optional[TagEntry]:
        """Tag-entry snapshot for ``address`` if resident (no side effects)."""
        baddr = block_address(address, self.block_bytes)
        packed = self._tags[self._set_of(address)].get(baddr)
        if packed is None:
            return None
        return TagEntry(
            block_addr=baddr,
            dirty=bool(packed & _PACK_DIRTY),
            dgroup=(packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK,
            frame=packed & _PACK_FRAME_MASK,
            pending_hits=packed >> _PACK_PENDING_SHIFT,
        )

    def contains(self, address: int) -> bool:
        baddr = block_address(address, self.block_bytes)
        return baddr in self._tags[self._set_of(address)]

    def dgroup_of(self, address: int) -> Optional[int]:
        packed = self._tags[self._set_of(address)].get(
            block_address(address, self.block_bytes)
        )
        if packed is None:
            return None
        return (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK

    # --- the access path ---

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        """Sequential tag-data access with optional promotion."""
        if self.fault_injector is not None:
            for event in self.fault_injector.take_due_hard_faults():
                self._apply_hard_fault(event)
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        tag_set = self._tags[index]
        packed = tag_set.get(baddr)
        sc = self._scounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        ec = self._ecounts
        ec[self._k_tag] += 1
        energy = self._tag_cost

        if packed is None:
            # Sequential tag-data access: the (pipelined) tag probe
            # alone determines a miss; the data port is never touched.
            if self.fault_injector is not None:
                self.fault_injector.on_access(False, False, address)
            sc["misses"] = sc.get("misses", 0) + 1
            if self.telemetry is not None:
                self.telemetry.on_access(baddr, False, None, self._miss_lat_f)
            return AccessResult(
                hit=False,
                latency=self._miss_lat_f,
                level=self.name,
                energy_nj=energy,
            )

        group = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
        if self.fault_injector is not None:
            # May raise UncorrectableDataError for a dirty-line DUE;
            # the dirty bit is the pre-write state, which is what the
            # read-modify-write of the ECC word actually sees.
            outcome = self.fault_injector.on_access(
                True, bool(packed & _PACK_DIRTY), address
            )
            if outcome is TransientOutcome.REFETCH:
                # The d-group read that detected the error is paid; the
                # clean line is dropped and refetched from below.
                energy += self.energy.charge(self._k_dg_read[group])
                self.stats.add("dgroup_accesses")
                self.stats.add("fault_refetches")
                self.stats.add("misses")
                self._invalidate_frame(group, packed & _PACK_FRAME_MASK)
                if self.telemetry is not None:
                    self.telemetry.on_access(
                        baddr, False, None, self._hit_lat_f[group]
                    )
                return AccessResult(
                    hit=False,
                    latency=self._hit_lat_f[group],
                    level=self.name,
                    energy_nj=energy,
                )
        sc["hits"] = sc.get("hits", 0) + 1
        dh = self.dgroup_hits.counts
        dh[group] = dh.get(group, 0) + 1
        if is_write:
            ec[self._k_dg_write[group]] += 1
            energy += self._dg_write_cost[group]
        else:
            ec[self._k_dg_read[group]] += 1
            energy += self._dg_read_cost[group]
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        if is_write:
            packed |= _PACK_DIRTY
            tag_set[baddr] = packed

        self._data_lru[index].touch(baddr)
        self._rtouch[group][index % self._n_regions](packed & _PACK_FRAME_MASK)

        if self._ideal_uniform:
            latency: float = self._ideal_lat
            done = now + latency
        else:
            # The tag array is pipelined; the data side's single port is
            # claimed after the tag probe, for the array-access time
            # only.  Data reaches the core a wire-trip after the array
            # starts, so latency = queueing + tag + data path.
            # PortScheduler.request, inlined (non-negative constant
            # occupancy, non-decreasing non-negative clock).
            port = self.port
            t0 = now + self._tag_cycles
            occ = self._data_occ[group]
            bu = port.busy_until
            start = t0 if t0 >= bu else bu
            port.busy_until = start + occ
            port.total_busy += occ
            port.total_wait += start - t0
            port.grants += 1
            latency = (start - now) + self._data_cycles[group]
            done = now + latency

        if self.telemetry is not None:
            self.telemetry.on_access(baddr, True, group, latency)

        if group > 0 and self._promo_on:
            pending = (packed >> _PACK_PENDING_SHIFT) + 1
            if pending >= self._hysteresis:
                packed &= _PACK_DIRTY | _PACK_FRAME_MASK | (
                    _PACK_DGROUP_MASK << _PACK_DGROUP_SHIFT
                )
                tag_set[baddr] = packed
                target = group - 1 if self._promo_next else 0
                self._promote(index, baddr, packed, target, done)
            else:
                tag_set[baddr] = (
                    (packed & _PACK_BELOW_PENDING) | (pending << _PACK_PENDING_SHIFT)
                )

        return AccessResult(
            hit=True,
            latency=latency,
            level=self.name,
            dgroup=group,
            energy_nj=energy,
        )

    def _occupy(self, now: float, cycles: float) -> float:
        """Claim the single port; returns observed latency incl. waiting."""
        if self.config.ideal_uniform:
            return cycles
        start, finish = self.port.request(now, cycles)
        return finish - now

    # --- promotion (swap with a distance-replacement victim) ---

    def _promote(
        self, index: int, baddr: int, packed: int, target: int, now: float
    ) -> None:
        """Move ``baddr`` to ``target``, swapping with a victim if full.

        ``packed`` is the block's current tag entry (pending hits
        already cleared by the caller and stored back).
        """
        source = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
        if target >= source:
            raise SimulationError(f"promotion must move inward ({source}->{target})")
        region = self._region_of(baddr)
        if (
            self.fault_injector is not None
            and not self._stores[target].has_free(region)
            and self._replacer.tracked(target, region) == 0
        ):
            # The target group's region has been fully retired by hard
            # faults: nothing to swap with, so the block stays put.
            self.stats.add("fault_promotions_blocked")
            return
        self.stats.add("promotions")
        if self.telemetry is not None:
            self.telemetry.event(
                "promotion", addr=baddr, src=source, dst=target, cycle=now
            )

        old_frame = packed & _PACK_FRAME_MASK
        dirty_bit = packed & _PACK_DIRTY
        if self._stores[target].has_free(region):
            # Room in the faster group: a one-way move, no demotion.
            self._stores[source].release(old_frame)
            self._replacer.remove(source, region, old_frame)
            new_frame = self._stores[target].allocate(baddr, region)
            self._replacer.insert(target, region, new_frame)
            self._tags[index][baddr] = (
                new_frame | (target << _PACK_DGROUP_SHIFT) | dirty_bit
            )
            self._charge_move(source, target, now)
            return

        victim_frame = self._replacer.select_victim(target, region)
        victim_addr = self._stores[target].occupant(victim_frame)
        if victim_addr is None:
            raise SimulationError("distance victim frame is unexpectedly free")
        victim_set = self._tags[self._set_of(victim_addr)]

        # Swap occupants; both frames stay occupied.  The demoted
        # victim keeps its dirty bit but restarts promotion hysteresis.
        self._stores[target].replace(victim_frame, baddr)
        self._stores[source].replace(old_frame, victim_addr)
        victim_set[victim_addr] = (
            old_frame
            | (source << _PACK_DGROUP_SHIFT)
            | (victim_set[victim_addr] & _PACK_DIRTY)
        )
        self._tags[index][baddr] = (
            victim_frame | (target << _PACK_DGROUP_SHIFT) | dirty_bit
        )

        # Recency: the promoted block is MRU in its new group; the
        # demoted victim enters the slower group as a fresh arrival.
        self._replacer.touch(target, region, victim_frame)
        self._replacer.remove(source, region, old_frame)
        self._replacer.insert(source, region, old_frame)

        self.stats.add("demotions")
        if self.telemetry is not None:
            self.telemetry.event(
                "demotion", addr=victim_addr, src=target, dst=source, cycle=now
            )
        self._charge_move(source, target, now)
        self._charge_move(target, source, now)

    def _charge_move(self, src: int, dst: int, now: float, occupy: bool = True) -> None:
        """Energy (and optionally port occupancy) for one block move.

        Promotion swaps run at hit time and, per §2.3, must complete
        before a later access is served — they occupy the port.
        Fill-time demotion chains ride the fill buffers and drain
        during idle array cycles, so they charge energy only.
        """
        self._ecounts[self._k_move[src][dst]] += 1
        sc = self._scounts
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2
        sc["moves"] = sc.get("moves", 0) + 1
        if occupy and not self.config.ideal_uniform:
            self.port.request(now, self._swap_occ[src][dst])

    # --- fills (placement + distance replacement, §2.2) ---

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> int:
        """Install a block after a miss; returns dirty writebacks (0/1).

        Conventional data replacement (LRU within the set) may first
        evict a block, freeing a frame somewhere; the new block then
        enters d-group 0, pushing a demotion chain outward until a free
        frame absorbs it.
        """
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        resident = self._tags[index]
        if baddr in resident:
            return 0
        region = index % self._n_regions
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1

        writebacks = 0
        set_evicted = len(resident) >= self._assoc_limit
        if set_evicted:
            victim_addr = self._data_lru[index].pop_victim()
            victim = resident.pop(victim_addr)
            victim_group = (victim >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
            self._stores[victim_group].release(victim & _PACK_FRAME_MASK)
            self._replacer.remove(victim_group, region, victim & _PACK_FRAME_MASK)
            sc["evictions"] = sc.get("evictions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "eviction", addr=victim_addr, dgroup=victim_group, cycle=now
                )
            if victim & _PACK_DIRTY:
                writebacks = 1
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                # Reading the victim out for writeback is a d-group read;
                # it drains through the writeback buffer off the port.
                self._ecounts[self._k_dg_read[victim_group]] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                if self.telemetry is not None:
                    self.telemetry.event(
                        "writeback", addr=victim_addr, dgroup=victim_group, cycle=now
                    )
        elif self.fault_injector is not None and not self._region_has_free(region):
            # Hard-fault retirement left fewer usable frames than the
            # tag side admits: the region is full even though this set
            # is not, so make room by evicting a distance victim.
            writebacks += self._evict_for_space(region)

        # Demotion chain: push occupants outward until a free frame.
        group = start = self._fill_start_group(baddr)
        if start:
            # A chain entering mid-way cannot reach free frames in the
            # faster groups it skips, so a variant may need to clear
            # space in the reachable tail first (no-op in the base).
            writebacks += self._ensure_chain_space(region, start)
        incoming = baddr
        incoming_packed: Optional[int] = None  # created below for baddr
        while not self._stores[group].has_free(region):
            if (
                self.fault_injector is not None
                and self._replacer.tracked(group, region) == 0
            ):
                # Region fully retired in this d-group: nothing to
                # demote, the incoming block skips to the next group.
                group += 1
                if group >= self.config.n_dgroups:
                    raise SimulationError(
                        f"region {region} has no usable frames in any d-group"
                    )
                continue
            frame = self._replacer.select_victim(group, region)
            demoted_addr = self._stores[group].replace(frame, incoming)
            self._replacer.remove(group, region, frame)
            self._replacer.insert(group, region, frame)
            self._settle(incoming, incoming_packed, group, frame)
            demoted_packed = self._tags[self._set_of(demoted_addr)][demoted_addr]
            incoming, incoming_packed = demoted_addr, demoted_packed
            group += 1
            if group >= self.config.n_dgroups:
                raise SimulationError(
                    "demotion chain ran off the slowest d-group; "
                    "free-frame accounting is corrupt"
                )
            sc["demotions"] = sc.get("demotions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "demotion", addr=incoming, src=group - 1, dst=group, cycle=now
                )
            self._charge_move(group - 1, group, now, occupy=False)
        frame = self._stores[group].allocate(incoming, region)
        self._replacer.insert(group, region, frame)
        self._settle(incoming, incoming_packed, group, frame)

        # The new block's own fill write into its entry d-group (fill
        # buffer; no demand-port occupancy).
        self._ecounts[self._k_dg_write[start]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1

        packed = self._tags[index].get(baddr)
        if packed is None:
            raise SimulationError("fill finished without installing the block")
        if dirty:
            self._tags[index][baddr] = packed | _PACK_DIRTY
        if self.telemetry is not None:
            self.telemetry.event(
                "placement",
                addr=baddr,
                dgroup=(packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK,
                cycle=now,
            )
        return writebacks

    def _fill_start_group(self, baddr: int) -> int:
        """D-group a freshly filled block enters (hook for variants).

        The paper's policy is distance placement into the fastest
        group; the compressed variant steers lines that will not
        compress past the compressed groups.
        """
        return 0

    def _settle(
        self,
        block_addr: int,
        packed: Optional[int],
        dgroup: int,
        frame: int,
    ) -> None:
        """Point a block's tag entry at its (possibly new) frame.

        ``packed`` is None exactly for the incoming block on its first
        placement, in which case the tag entry is created here (clean,
        no pending hits).  A relocated block keeps its dirty bit but
        restarts promotion hysteresis.
        """
        index = self._set_of(block_addr)
        if packed is None:
            self._tags[index][block_addr] = frame | (dgroup << _PACK_DGROUP_SHIFT)
            self._data_lru[index].insert(block_addr)
        else:
            self._tags[index][block_addr] = (
                frame | (dgroup << _PACK_DGROUP_SHIFT) | (packed & _PACK_DIRTY)
            )

    # --- fault handling: invalidation, capacity eviction, retirement ---

    def _region_has_free(self, region: int) -> bool:
        return any(store.has_free(region) for store in self._stores)

    def _invalidate_frame(self, dgroup: int, frame: int) -> int:
        """Drop the block resident in ``frame`` without writeback.

        Returns the dropped block's packed tag entry (so callers can
        check its dirty bit).
        """
        store = self._stores[dgroup]
        addr = store.occupant(frame)
        if addr is None:
            raise SimulationError(f"invalidate of free frame {frame} in dg{dgroup}")
        index = self._set_of(addr)
        packed = self._tags[index].pop(addr)
        self._data_lru[index].remove(addr)
        store.release(frame)
        self._replacer.remove(dgroup, self._region_of(addr), frame)
        return packed

    def _ensure_chain_space(self, region: int, start: int) -> int:
        """Make a frame reachable for a chain entering at ``start``.

        The base policy always starts chains at d-group 0, where every
        free frame in the region is reachable by demotion, so there is
        nothing to do.  Variants that steer fills past the fastest
        groups (compressed NuRAPID) override this to evict when the
        reachable tail is full.  Returns writebacks.
        """
        return 0

    def _evict_for_space(self, region: int) -> int:
        """Evict a distance victim of ``region``; returns writebacks.

        Only reachable under fault injection: retirement shrank the
        usable frame pool below sets x associativity, so a fill may
        find its set below associativity yet its region out of frames.
        The victim comes from the slowest d-group still holding one,
        matching where demotion pressure accumulates.
        """
        for group in range(self.config.n_dgroups - 1, -1, -1):
            if (
                not self._stores[group].occupied_count
                or self._replacer.tracked(group, region) == 0
            ):
                continue
            frame = self._replacer.select_victim(group, region)
            packed = self._invalidate_frame(group, frame)
            self.stats.add("evictions")
            self.stats.add("fault_capacity_evictions")
            if packed & _PACK_DIRTY:
                self.stats.add("writebacks")
                self.energy.charge(f"{self.name}.dg{group}.read")
                self.stats.add("dgroup_accesses")
                return 1
            return 0
        raise SimulationError(f"region {region} has no usable frames left")

    def _apply_hard_fault(self, event: "HardFaultEvent") -> None:
        """A subarray died mid-run: remap to a spare or degrade."""
        assert self.fault_injector is not None
        if self.fault_injector.repair_or_retire(event):
            # A spare absorbed the failure; with §3.1 interleaving the
            # lost bits are reconstructed word-by-word through SEC-DED,
            # so contents and capacity are unaffected.
            return
        self._retire_subarray(event.dgroup, event.subarray)

    def _retire_subarray(self, dgroup: int, subarray: int) -> None:
        """Spares exhausted: retire the subarray's frames for good.

        Resident blocks are lost (counted, not raised — the run keeps
        going on reduced capacity); the frames leave the free pool so
        placement, demotion, and promotion transparently operate on a
        smaller d-group from here on.
        """
        store = self._stores[dgroup]
        n_subarrays = self.fault_injector.plan.data_subarrays_per_dgroup
        frames_per_subarray = max(1, store.n_frames // n_subarrays)
        start = min(subarray * frames_per_subarray, store.n_frames)
        for frame in range(start, min(start + frames_per_subarray, store.n_frames)):
            if store.is_retired(frame):
                continue
            if store.occupant(frame) is not None:
                packed = self._invalidate_frame(dgroup, frame)
                self.stats.add("fault_lines_lost")
                if packed & _PACK_DIRTY:
                    self.stats.add("fault_dirty_lines_lost")
            store.retire(frame)
            self.stats.add("fault_frames_retired")
        if self.telemetry is not None:
            self.telemetry.event("fault_retire", dgroup=dgroup, subarray=subarray)

    def retired_frames(self) -> List[int]:
        """Retired frames per d-group, fastest first."""
        return [store.retired_count() for store in self._stores]

    # --- prewarm (models the paper's 5B-instruction fast-forward) ---

    def prewarm(self) -> None:
        """Fill every frame with a clean dummy block.

        A short trace cannot touch 8 MB worth of distinct blocks the
        way the paper's 5-billion-instruction fast-forward does; an
        empty cache would leave d-group 0 with free frames forever and
        mask all distance-replacement behaviour.  Prewarming puts the
        cache in the fully-occupied steady state: ``assoc / n_dgroups``
        dummy ways of every set in each d-group.  Dummies are clean, so
        their eviction costs no writebacks.  Call before any traffic.
        """
        if self.resident_blocks():
            raise SimulationError("prewarm on a non-empty cache")
        # Prewarm is a pure function of the cache's construction
        # parameters (no RNG draws, no stats/energy charges), so the
        # first fill of a given shape is snapshotted process-wide and
        # later fills of the same shape restore the snapshot instead.
        # Hard-fault retirement happens at access time, after prewarm,
        # so a retired frame here means a test drove the store directly
        # — fall through to the real fill without caching.
        pristine = not any(store._retired for store in self._stores)
        key = self._prewarm_cache_key() if pristine else None
        if key is not None:
            proto = prewarm_cache.get(key)
            if proto is not None:
                self._prewarm_restore(proto)
                return
        n_regions = self.config.n_regions
        ways_by_group = self._prewarm_ways()
        blocks = prewarm_blocks(
            self.config.n_sets, sum(ways_by_group), self.block_bytes
        )
        packed = np.empty_like(blocks)
        # D-group g holds the next ways_by_group[g] ways of every set.
        # Each (group, region) run is set-ascending, way-ascending, so
        # its frames come off the region's free-list tail in the order
        # a block-at-a-time fill would take them.
        way_lo = 0
        for group, ways in enumerate(ways_by_group):
            columns = slice(way_lo, way_lo + ways)
            way_lo += ways
            for region in range(n_regions):
                run = blocks[region::n_regions, columns]
                frames = self._stores[group].allocate_run(
                    run.ravel().tolist(), region
                )
                self._replacer.insert_many(group, region, frames)
                packed[region::n_regions, columns] = np.reshape(
                    frames, run.shape
                ) | (group << _PACK_DGROUP_SHIFT)
        rows = blocks.tolist()
        self._tags = [dict(zip(b, p)) for b, p in zip(rows, packed.tolist())]
        for policy, row in zip(self._data_lru, rows):
            policy.insert_many(row)
        if key is not None:
            prewarm_cache.put(key, self._prewarm_snapshot())

    def _prewarm_cache_key(self) -> str:
        """Registry key: everything the prewarm result depends on.

        The dataclass repr covers every config field; variants with
        extra shape state (compressed d-groups) extend the key.
        """
        return f"{type(self).__qualname__}|{self.config!r}"

    def _prewarm_snapshot(self) -> "_PrewarmSnapshot":
        return _PrewarmSnapshot(
            tags=[dict(t) for t in self._tags],
            lru=[p.state_copy() for p in self._data_lru],
            stores=[
                (list(s._resident), [list(f) for f in s._free])
                for s in self._stores
            ],
            replacer=[
                [p.state_copy() for p in row] for row in self._replacer._policies
            ],
        )

    def _prewarm_restore(self, proto: "_PrewarmSnapshot") -> None:
        """Install a prototype (copying — prototypes never alias).

        Policy objects are mutated in place rather than replaced: the
        hot-path ``_rtouch`` table caches their bound methods.
        """
        self._tags = [dict(t) for t in proto.tags]
        for policy, state in zip(self._data_lru, proto.lru):
            policy.load_state(state)
        for store, (resident, free) in zip(self._stores, proto.stores):
            store._resident = list(resident)
            store._free = [list(f) for f in free]
        for row, saved in zip(self._replacer._policies, proto.replacer):
            for policy, state in zip(row, saved):
                policy.load_state(state)

    def _prewarm_ways(self) -> List[int]:
        """Dummy ways to fill per d-group (hook for variant caches).

        The default puts ``assoc / n_dgroups`` ways in every group —
        the paper's steady state; variants with enlarged groups return
        bigger counts so prewarm fills every frame they actually have.
        """
        assoc = self.config.associativity
        n_dgroups = self.config.n_dgroups
        if assoc % n_dgroups:
            raise SimulationError(
                "prewarm requires associativity divisible by d-groups"
            )
        return [assoc // n_dgroups] * n_dgroups

    # --- introspection / verification ---

    @property
    def accesses(self) -> int:
        return int(self.stats.get("accesses"))

    @property
    def miss_rate(self) -> float:
        total = self.stats.get("accesses")
        if not total:
            return 0.0
        return self.stats.get("misses") / total

    def resident_blocks(self) -> int:
        return sum(len(s) for s in self._tags)

    def check_invariants(self) -> None:
        """Cross-check tags, frames, pointers, and policies.

        O(capacity); intended for tests, not the hot loop.
        """
        resident = 0
        for index, tag_set in enumerate(self._tags):
            if len(tag_set) > self._assoc_limit:
                raise SimulationError(f"set {index} over associativity")
            if len(self._data_lru[index]) != len(tag_set):
                raise SimulationError(f"set {index} LRU/tag size mismatch")
            for baddr, packed in tag_set.items():
                resident += 1
                if self._set_of(baddr) != index:
                    raise SimulationError(f"block {baddr:#x} in wrong set")
                dgroup = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
                frame = packed & _PACK_FRAME_MASK
                occupant = self._stores[dgroup].occupant(frame)
                if occupant != baddr:
                    raise SimulationError(
                        f"forward pointer of {baddr:#x} disagrees with frame"
                    )
                region = self._region_of(baddr)
                if self._stores[dgroup].region_of_frame(frame) != region:
                    raise SimulationError(f"block {baddr:#x} outside its region")
        for store in self._stores:
            store.check_invariants()
        occupied = sum(store.occupied_count for store in self._stores)
        if occupied != resident:
            raise SimulationError(
                f"{occupied} occupied frames but {resident} resident blocks"
            )
        for group in range(self.config.n_dgroups):
            for region in range(self.config.n_regions):
                tracked = self._replacer.tracked(group, region)
                free = self._stores[group].free_count(region)
                retired = self._stores[group].retired_count(region)
                per_region = self._stores[group].frames_per_region
                if tracked != per_region - free - retired:
                    raise SimulationError(
                        f"replacer tracking {tracked} frames in d-group {group} "
                        f"region {region}, expected {per_region - free - retired}"
                    )

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents, recency, and the port
        timeline are kept so contention stays causal."""
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.port.total_busy = 0.0
        self.port.total_wait = 0.0
        self.port.grants = 0

    def dgroup_occupancy(self) -> List[Tuple[int, int]]:
        """(occupied, total) frames per d-group, fastest first."""
        return [(s.occupied_count, s.n_frames) for s in self._stores]
