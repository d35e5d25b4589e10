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
  :class:`~repro.caches.port.PortArray` port (§2.3).

State layout: flat arrays, as in the hardware.  The tag array is one
slot per (set, way) holding the block address, the packed tag entry
(forward pointer, dirty bit, pending promotion hits) and a data-LRU
stamp.  Each d-group is one frame array whose entries are reverse
pointers — slot indices — so demotion chains, promotion swaps and
evictions never look a block up by address.  Each placement region of
a d-group keeps its free frames as an index list.

Timing contract: ``access``/``fill`` take the arrival cycle ``now``;
returned latencies include queueing behind earlier operations, which is
how the paper's reduced-bandwidth argument is evaluated (§5.4).  Each
is an outcome step that never sees ``now`` followed by a timing step
that claims the port (DESIGN.md, "Lower-level outcome and timing").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    SimulationError,
    UncorrectableDataError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cost
    from repro.faults.injector import FaultInjector
    from repro.faults.models import FaultPlan, HardFaultEvent
    from repro.telemetry import CacheTelemetry
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, Distribution
from repro.caches.block import EMPTY, block_address, prewarm_slots, set_index, victim_way
from repro.caches.level import CacheLevel, slice_operations
from repro.caches.port import PortArray, checked_occupancy
from repro.faults.models import TransientOutcome
from repro.floorplan.dgroups import NuRAPIDGeometry, build_nurapid_geometry
from repro.nurapid.config import (
    DistanceReplacementKind,
    NuRAPIDConfig,
    PromotionPolicy,
)
from repro.tech.energy import EnergyBook


@dataclass
class TagEntry:
    """One tag-array entry: identity, state, and the forward pointer.

    Internally the tag array packs this state into a single int per
    slot (see the ``_PACK_*`` layout below); :meth:`NuRAPIDCache.lookup`
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
# entry in one int means the hot access path does a single list load
# and a couple of shifts instead of walking an object graph.
_PACK_FRAME_BITS = 24
_PACK_FRAME_MASK = (1 << _PACK_FRAME_BITS) - 1
_PACK_DGROUP_SHIFT = _PACK_FRAME_BITS
_PACK_DGROUP_MASK = 0xF
_PACK_DIRTY = 1 << 28
_PACK_PENDING_SHIFT = 29
#: Everything except the pending-hits counter.
_PACK_BELOW_PENDING = (1 << _PACK_PENDING_SHIFT) - 1

#: Reverse pointer of a free frame.
FREE = -1
#: Reverse pointer of a frame retired by a hard fault.
RETIRED = -2
#: Fill outcome of a block already resident: nothing happens.
_RESIDENT = (0, None)
#: The state a cold cache builds on first use (see
#: ``NuRAPIDCache._init_cold_state``) and ``prewarm`` never builds.
_COLD_STATE = frozenset(
    ("_slot_baddr", "_slot_entry", "_frame_slot", "_free", "_dkeys", "_dpos")
)


@lru_cache(maxsize=8)
def _prewarm_layout(n_sets: int, ways_by_group: Tuple[int, ...], n_regions: int):
    """Where a prewarm puts every dummy: ``(entries, frame slots,
    runs)``, a pure function of the geometry, computed once per
    geometry and never mutated.

    ``entries`` is the packed tag entry of every slot and
    ``frame slots`` each d-group's reverse pointers, both as int64
    bytes; ``runs[g][r]`` is region ``r``'s frames of d-group ``g``,
    top frame first -- the order its dummies entered distance
    replacement.  D-group ``g`` holds the next ``ways_by_group[g]``
    ways of every set; within each (d-group, region) the dummies take
    frames off the free-list tail set-ascending, way-ascending, as
    filling them one at a time would.  The bound covers the
    experiments' NuRAPID geometries (2, 4 and 8 d-groups, the
    restricted-frame ablation, the compressed variant).
    """
    assoc = sum(ways_by_group)
    rows = n_sets // n_regions
    # Set q * n_regions + r lies in region r.  The arrays below keep q
    # on their last axis, so numpy works along long rows.
    q = np.arange(rows, dtype=np.int64)
    r = np.arange(n_regions, dtype=np.int64)[:, None]
    # One run of frame numbers, sliced (sharing its ints) by every run;
    # d-groups of one size share their runs.
    numbers = tuple(range(n_sets * max(ways_by_group)))
    runs_of = {}
    entries, frame_slots, runs = [], [], []
    lo = 0
    for group, ways in enumerate(ways_by_group):
        per = rows * ways
        k = np.arange(ways, dtype=np.int64)[:, None]
        # Axes (k, r, q): way lo + k of set q * n_regions + r is its
        # region's dummy of rank q * ways + k, which takes the
        # free-list tail's frame (r + 1) * per - 1 - rank.
        rank = q * ways + k[:, None]
        entries.append(((r + 1) * per - 1 - rank) | (group << _PACK_DGROUP_SHIFT))
        # Axes (r, k, q): each dummy's slot.  Region r's frames,
        # ascending, hold its ranks descending.
        slots = (q * n_regions + r[:, None]) * assoc + lo + k
        frame_slots.append(slots.transpose(0, 2, 1)[:, ::-1, ::-1].tobytes())
        if per not in runs_of:
            runs_of[per] = tuple(
                numbers[i * per : (i + 1) * per][::-1] for i in range(n_regions)
            )
        runs.append(runs_of[per])
        lo += ways
    # Axes (q, r, way) raveled are slot order.
    entries = np.concatenate(entries).transpose(2, 1, 0).tobytes()
    return entries, tuple(frame_slots), tuple(runs)


class NuRAPIDCache(CacheLevel):
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
        # re-validate per call — too hot for the access path).  Both
        # helpers raise unless the block size and set count are powers
        # of two.
        self._n_sets = config.n_sets
        block_address(0, config.block_bytes)
        set_index(0, config.block_bytes, self._n_sets)
        self._block_mask = ~(config.block_bytes - 1)
        self._set_shift = config.block_bytes.bit_length() - 1
        self._set_mask = self._n_sets - 1
        self._n_regions = n_regions = config.n_regions

        #: Tag ways per set (the slot stride) and frames per d-group.
        #: Variant caches with more data frames than the configured
        #: associativity (compressed d-groups) widen both.
        self._assoc_limit, self._group_frames = self._frame_layout()
        self._region_frames = [n // n_regions for n in self._group_frames]
        #: slot -> data-LRU stamp; the set's victim is its smallest.
        self._slot_stamp: List[int] = [0] * (self._n_sets * self._assoc_limit)
        self._clock = 0
        # The slot, frame and free-list state (_COLD_STATE) is made on
        # first use: prewarm() installs its own, and only a cache that
        # is driven or inspected cold builds the empty one.
        self._init_distance_replacement()
        #: The single data port's busy-time state.
        self.ports = PortArray(f"{config.name}.port", 1)

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

    def __getattr__(self, attr: str):
        # Reached only for a name the instance lacks: a piece of the
        # unbuilt cold state (once __init__ has what building it needs)
        # builds all of it.
        vars_ = self.__dict__
        if attr in _COLD_STATE and "_free" not in vars_ and "_lru_dr" in vars_:
            self._init_cold_state()
            return getattr(self, attr)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")

    def _init_cold_state(self) -> None:
        """The never-filled cache: every way and frame free."""
        n_slots = self._n_sets * self._assoc_limit
        #: slot -> resident block address (EMPTY for a free way).
        self._slot_baddr: List[int] = [EMPTY] * n_slots
        #: slot -> packed tag entry (forward pointer and state).
        self._slot_entry = array("q", bytes(8 * n_slots))
        #: Per d-group: frame -> resident slot (the reverse pointer),
        #: FREE or RETIRED.
        self._frame_slot = [array("q", [FREE]) * n for n in self._group_frames]
        #: Per (d-group, region): free frames, allocated from the tail.
        #: Every list slices one shared run of frame numbers.
        frame_numbers = list(range(max(self._group_frames)))
        regions = range(self._n_regions)
        self._free: List[List[List[int]]] = [
            [frame_numbers[r * per : (r + 1) * per] for r in regions]
            for per in self._region_frames
        ]
        if not self._lru_dr:
            #: Per (d-group, region): the tracked frames; per d-group:
            #: each frame's position in its region's list.
            self._dkeys: List[List[List[int]]] = [
                [[] for _ in regions] for _ in self._group_frames
            ]
            self._dpos = [[0] * n for n in self._group_frames]

    def _frame_layout(self) -> Tuple[int, List[int]]:
        """(tag ways per set, frames per d-group) — hook for variants."""
        config = self.config
        return config.associativity, [config.frames_per_dgroup] * config.n_dgroups

    def _init_distance_replacement(self) -> None:
        """Victim-selection state per (d-group, region), §2.2.

        ``random`` and ``approx-lru`` keep each region's occupied
        frames in a list (``_dkeys``) with each frame's position in a
        per-d-group array (``_dpos``), so removal is a swap with the
        last entry.  ``random`` draws a list index from its own
        deterministic stream; ``approx-lru`` sweeps a clock hand over
        the list, clearing per-frame reference bits (``_dref``).
        ``lru`` keeps an insertion-ordered dict per region, least
        recently used first.
        """
        config = self.config
        kind = config.distance_replacement
        self._lru_dr = kind is DistanceReplacementKind.LRU
        self._approx_dr = kind is DistanceReplacementKind.APPROX_LRU
        groups = range(config.n_dgroups)
        regions = range(self._n_regions)
        if self._lru_dr:
            self._dlru = [[{} for _ in regions] for _ in groups]
            return
        if self._approx_dr:
            self._dref = [bytearray(n) for n in self._group_frames]
            self._dhand = [[0] * self._n_regions for _ in groups]
        else:
            rng = DeterministicRNG(config.seed, f"{config.name}/distance")
            self._draw = [
                [rng.spawn(f"dg{g}/r{r}").index_sampler() for r in regions]
                for g in groups
            ]

    def _init_hot_caches(self) -> None:
        """Precompute hot-path constants (pure re-expressions of state).

        The access path used to build f-string energy keys, re-derive
        latencies from the geometry, and go through ``Counter.add`` /
        ``EnergyBook.charge`` on every call.  Everything cached here is
        a value those calls would compute identically, so the counter
        totals and float arithmetic stay bit-identical to the uncached
        path.
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
        #: Direct views into the stats/energy dicts.  Counter.reset()
        #: and EnergyBook.reset_counts() mutate in place, so these stay
        #: valid across reset_stats().
        self._scounts = self.stats._counts
        self._ecounts = self.energy._count
        self._miss_lat_f = float(geo.miss_latency())
        self._hit_lat_f = [float(geo.hit_latency(g)) for g in groups]
        self._ideal_lat = geo.hit_latency(0)
        self._tag_cycles = geo.tag_cycles
        self._data_occ = checked_occupancy(
            self.ports.name, (geo.data_occupancy(g) for g in groups)
        )
        self._data_cycles = [geo.dgroups[g].data_cycles for g in groups]
        self._swap_occ = [
            checked_occupancy(
                self.ports.name,
                (geo.swap_occupancy(i, j) if i != j else 0.0 for j in groups),
            )
            for i in groups
        ]

        self._ideal_uniform = self.config.ideal_uniform
        self._promo_on = self.config.promotion is not PromotionPolicy.DEMOTION_ONLY
        self._promo_next = self.config.promotion is PromotionPolicy.NEXT_FASTEST
        self._hysteresis = self.config.promotion_hysteresis

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

    def _slot_of(self, address: int) -> Optional[int]:
        """Slot holding ``address``'s block, or None."""
        baddr = address & self._block_mask
        base = self._set_of(address) * self._assoc_limit
        ways = self._slot_baddr[base : base + self._assoc_limit]
        return base + ways.index(baddr) if baddr in ways else None

    # --- distance replacement (per d-group and region) ---

    def _track(self, group: int, region: int, frame: int) -> None:
        """Start tracking a newly occupied frame (most recently used)."""
        if self._lru_dr:
            self._dlru[group][region][frame] = None
            return
        keys = self._dkeys[group][region]
        self._dpos[group][frame] = len(keys)
        keys.append(frame)
        if self._approx_dr:
            self._dref[group][frame] = 1

    def _untrack(self, group: int, region: int, frame: int) -> None:
        """Stop tracking a frame whose occupant left the d-group."""
        if self._lru_dr:
            del self._dlru[group][region][frame]
            return
        keys = self._dkeys[group][region]
        pos = self._dpos[group]
        at = pos[frame]
        last = keys.pop()
        if last != frame:
            keys[at] = last
            pos[last] = at
        if self._approx_dr and self._dhand[group][region] >= len(keys):
            self._dhand[group][region] = 0

    def _retrack(self, group: int, region: int, frame: int) -> None:
        """A frame's occupant was replaced: :meth:`_untrack` then
        :meth:`_track` it, fused (the frame moves to the list's end)."""
        if self._lru_dr:
            order = self._dlru[group][region]
            del order[frame]
            order[frame] = None
            return
        keys = self._dkeys[group][region]
        pos = self._dpos[group]
        last = len(keys) - 1
        at = pos[frame]
        if at != last:
            moved = keys[last]
            keys[at] = moved
            pos[moved] = at
            keys[last] = frame
            pos[frame] = last
        if self._approx_dr:
            if self._dhand[group][region] >= last:
                self._dhand[group][region] = 0
            self._dref[group][frame] = 1

    def _release_frame(self, group: int, region: int, frame: int) -> None:
        """Free a frame whose occupant left it: back on the region's
        free-list tail, and out of distance replacement."""
        self._frame_slot[group][frame] = FREE
        self._free[group][region].append(frame)
        self._untrack(group, region, frame)

    def _touch_frame(self, group: int, region: int, frame: int) -> None:
        """Record a hit on a frame's occupant (random keeps no recency)."""
        if self._approx_dr:
            self._dref[group][frame] = 1
        elif self._lru_dr:
            order = self._dlru[group][region]
            del order[frame]
            order[frame] = None

    def _victim(self, group: int, region: int) -> int:
        """The frame whose occupant distance replacement moves out.

        The frame stays tracked; callers move occupants and then
        untrack/track to reflect the moves.
        """
        if self._lru_dr:
            return next(iter(self._dlru[group][region]))
        keys = self._dkeys[group][region]
        if not self._approx_dr:
            return keys[self._draw[group][region](len(keys))]
        # Clock sweep: at most two revolutions — the first may clear
        # every reference bit, the second must then find a clear one.
        ref = self._dref[group]
        n = len(keys)
        hand = self._dhand[group][region]
        for _ in range(2 * n):
            frame = keys[hand]
            if not ref[frame]:
                break
            ref[frame] = 0
            hand = (hand + 1) % n
        self._dhand[group][region] = hand
        return keys[hand]

    def _tracked(self, group: int, region: int) -> int:
        """Occupied frames distance replacement can choose from."""
        if self._lru_dr:
            return len(self._dlru[group][region])
        return len(self._dkeys[group][region])

    # --- lookups ---

    def lookup(self, address: int) -> Optional[TagEntry]:
        """Tag-entry snapshot for ``address`` if resident (no side effects)."""
        slot = self._slot_of(address)
        if slot is None:
            return None
        packed = self._slot_entry[slot]
        return TagEntry(
            block_addr=self._slot_baddr[slot],
            dirty=bool(packed & _PACK_DIRTY),
            dgroup=(packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK,
            frame=packed & _PACK_FRAME_MASK,
            pending_hits=packed >> _PACK_PENDING_SHIFT,
        )

    def contains(self, address: int) -> bool:
        return self._slot_of(address) is not None

    def dgroup_of(self, address: int) -> Optional[int]:
        slot = self._slot_of(address)
        if slot is None:
            return None
        return (self._slot_entry[slot] >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK

    # --- the access path ---

    def access_outcome(self, address: int, is_write: bool = False):
        """The access's outcome step: ``(hit, d-group, block address,
        swap-leg occupancies, deferred events)``.

        A miss has d-group -1; a clean line a DUE drops for refetch is
        a miss with the d-group whose read detected the error.  A hit's
        swap legs are the port occupancies its promotion claims once
        the hit completes (empty when it does not move, or under
        ideal-uniform timing).  Deferred events are None unless
        telemetry is armed.
        """
        events = [] if self.telemetry is not None else None
        if self.fault_injector is not None:
            for event in self.fault_injector.take_due_hard_faults():
                self._apply_hard_fault(event, events)
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        base = index * self._assoc_limit
        ways = self._slot_baddr[base : base + self._assoc_limit]
        sc = self._scounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        ec = self._ecounts
        ec[self._k_tag] += 1

        if baddr not in ways:
            # Sequential tag-data access: the (pipelined) tag probe
            # alone determines a miss; the data port is never touched.
            if self.fault_injector is not None:
                self.fault_injector.on_access(False, False, address)
            sc["misses"] = sc.get("misses", 0) + 1
            return (False, -1, baddr, (), events)

        slot = base + ways.index(baddr)
        packed = self._slot_entry[slot]
        group = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
        if self.fault_injector is not None:
            # May raise UncorrectableDataError for a dirty-line DUE;
            # the dirty bit is the pre-write state, which is what the
            # read-modify-write of the ECC word actually sees.
            try:
                outcome = self.fault_injector.on_access(
                    True, bool(packed & _PACK_DIRTY), address
                )
            except UncorrectableDataError as exc:
                if events:
                    exc.deferred = (self.telemetry, events)
                raise
            if outcome is TransientOutcome.REFETCH:
                # The d-group read that detected the error is paid; the
                # clean line is dropped and refetched from below.
                self.energy.charge(self._k_dg_read[group])
                self.stats.add("dgroup_accesses")
                self.stats.add("fault_refetches")
                self.stats.add("misses")
                self._invalidate_frame(group, packed & _PACK_FRAME_MASK)
                return (False, group, baddr, (), events)
        sc["hits"] = sc.get("hits", 0) + 1
        dh = self.dgroup_hits.counts
        dh[group] = dh.get(group, 0) + 1
        if is_write:
            ec[self._k_dg_write[group]] += 1
        else:
            ec[self._k_dg_read[group]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        if is_write:
            packed |= _PACK_DIRTY
            self._slot_entry[slot] = packed

        self._clock += 1
        self._slot_stamp[slot] = self._clock
        if self._approx_dr or self._lru_dr:
            self._touch_frame(group, index % self._n_regions, packed & _PACK_FRAME_MASK)

        legs = ()
        if group > 0 and self._promo_on:
            pending = (packed >> _PACK_PENDING_SHIFT) + 1
            if pending >= self._hysteresis:
                packed &= _PACK_BELOW_PENDING
                self._slot_entry[slot] = packed
                target = group - 1 if self._promo_next else 0
                legs = self._promote(slot, packed, target, events)
            else:
                self._slot_entry[slot] = (
                    (packed & _PACK_BELOW_PENDING) | (pending << _PACK_PENDING_SHIFT)
                )
        return (True, group, baddr, legs, events)

    def access_timing(self, outcome, now: float) -> float:
        """The access's timing step: port occupancy and latency.

        The tag array is pipelined; the data side's single port is
        claimed after the tag probe, for the array-access time only.
        Data reaches the core a wire-trip after the array starts, so a
        hit's latency = queueing + tag + data path.  Its promotion
        swap legs then occupy the port from the hit's completion.
        """
        hit, group, baddr, legs, events = outcome
        telemetry = self.telemetry
        if not hit:
            latency = self._miss_lat_f if group < 0 else self._hit_lat_f[group]
            if telemetry is not None:
                telemetry.on_access(baddr, False, None, latency)
                if events:
                    telemetry.emit_deferred(events, now)
            return latency
        claim = self.ports.claim
        if self._ideal_uniform:
            latency = self._ideal_lat
        else:
            start = claim(0, now + self._tag_cycles, self._data_occ[group])
            latency = (start - now) + self._data_cycles[group]
        done = now + latency
        for occ in legs:
            claim(0, done, occ)
        if telemetry is not None:
            telemetry.on_access(baddr, True, group, latency)
            if events:
                telemetry.emit_deferred(events, done)
        return latency

    # --- promotion (swap with a distance-replacement victim) ---

    def _promote(self, slot: int, packed: int, target: int, events) -> Tuple[float, ...]:
        """Move the block in ``slot`` to ``target``, swapping if full.

        ``packed`` is the block's current tag entry (pending hits
        already cleared by the caller and stored back).  Returns the
        port occupancy of each block move, in order: promotion swaps
        run at hit time and, per §2.3, must complete before a later
        access is served.
        """
        source = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
        if target >= source:
            raise SimulationError(f"promotion must move inward ({source}->{target})")
        region = slot // self._assoc_limit % self._n_regions
        if (
            self.fault_injector is not None
            and not self._free[target][region]
            and not self._tracked(target, region)
        ):
            # The target group's region has been fully retired by hard
            # faults: nothing to swap with, so the block stays put.
            self.stats.add("fault_promotions_blocked")
            return ()
        self.stats.add("promotions")
        if events is not None:
            events.append(
                ("promotion", {"addr": self._slot_baddr[slot], "src": source, "dst": target}, True)
            )
        victim_slot = self._move_inward(slot, packed, source, target, region)
        if victim_slot < 0:
            # Room in the faster group: a one-way move, no demotion.
            self._charge_move(source, target)
            if self._ideal_uniform:
                return ()
            return (self._swap_occ[source][target],)
        self.stats.add("demotions")
        if events is not None:
            events.append(
                (
                    "demotion",
                    {"addr": self._slot_baddr[victim_slot], "src": target, "dst": source},
                    True,
                )
            )
        self._charge_move(source, target)
        self._charge_move(target, source)
        if self._ideal_uniform:
            return ()
        return (self._swap_occ[source][target], self._swap_occ[target][source])

    def _move_inward(self, slot: int, packed: int, source: int, target: int, region: int) -> int:
        """A promotion's block moves, without its counters: the block
        in ``slot`` (tag entry ``packed``) leaves ``source`` for a free
        frame of ``target``, else swaps with ``target``'s distance
        victim.  Returns the demoted victim's slot, or -1 when a free
        frame took the block."""
        frame_slot = self._frame_slot
        entries = self._slot_entry
        old_frame = packed & _PACK_FRAME_MASK
        dirty_bit = packed & _PACK_DIRTY
        target_free = self._free[target][region]
        if target_free:
            self._release_frame(source, region, old_frame)
            new_frame = target_free.pop()
            frame_slot[target][new_frame] = slot
            self._track(target, region, new_frame)
            entries[slot] = new_frame | (target << _PACK_DGROUP_SHIFT) | dirty_bit
            return -1

        victim_frame = self._victim(target, region)
        victim_slot = frame_slot[target][victim_frame]

        # Swap occupants; both frames stay occupied.  The demoted
        # victim keeps its dirty bit but restarts promotion hysteresis.
        frame_slot[target][victim_frame] = slot
        frame_slot[source][old_frame] = victim_slot
        entries[victim_slot] = (
            old_frame
            | (source << _PACK_DGROUP_SHIFT)
            | (entries[victim_slot] & _PACK_DIRTY)
        )
        entries[slot] = victim_frame | (target << _PACK_DGROUP_SHIFT) | dirty_bit

        # Recency: the promoted block is MRU in its new group; the
        # demoted victim enters the slower group as a fresh arrival.
        self._touch_frame(target, region, victim_frame)
        self._retrack(source, region, old_frame)
        return victim_slot

    def _charge_move(self, src: int, dst: int) -> None:
        """Energy and counters for one block move.

        Whether the move also occupies the port is the caller's
        business: promotion swaps do (see :meth:`_promote`); fill-time
        demotion chains ride the fill buffers and drain during idle
        array cycles, so they charge energy only.
        """
        self._ecounts[self._k_move[src][dst]] += 1
        sc = self._scounts
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2
        sc["moves"] = sc.get("moves", 0) + 1

    # --- fills (placement + distance replacement, §2.2) ---

    def fill_outcome(self, address: int, dirty: bool = False):
        """The fill's outcome step: ``(dirty writebacks, deferred
        events)``; events are None unless telemetry is armed.

        Conventional data replacement (LRU within the set) may first
        evict a block, freeing a frame somewhere; the new block then
        enters d-group 0, pushing a demotion chain outward until a free
        frame absorbs it.  The fill takes no port time: it rides the
        fill buffers.
        """
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        base = index * self._assoc_limit
        baddrs = self._slot_baddr
        if baddr in baddrs[base : base + self._assoc_limit]:
            return _RESIDENT
        events = [] if self.telemetry is not None else None
        region = index % self._n_regions
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1
        entries = self._slot_entry

        writebacks = 0
        # A free way if the set has one, else its least recently used
        # block (the first way wins ties).
        slot = victim_way(baddrs, self._slot_stamp, base, self._assoc_limit)
        if baddrs[slot] == EMPTY:
            if self.fault_injector is not None and not self._region_has_free(region):
                # Hard-fault retirement left fewer usable frames than
                # the tag side admits: the region is full even though
                # this set is not, so make room by evicting a distance
                # victim.
                writebacks += self._evict_for_space(region)
        else:
            # The set is full: evict that block.
            victim_addr = baddrs[slot]
            victim = entries[slot]
            victim_group = (victim >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
            self._release_frame(victim_group, region, victim & _PACK_FRAME_MASK)
            sc["evictions"] = sc.get("evictions", 0) + 1
            if events is not None:
                events.append(
                    ("eviction", {"addr": victim_addr, "dgroup": victim_group}, True)
                )
            if victim & _PACK_DIRTY:
                writebacks = 1
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                # Reading the victim out for writeback is a d-group read;
                # it drains through the writeback buffer off the port.
                self._ecounts[self._k_dg_read[victim_group]] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                if events is not None:
                    events.append(
                        ("writeback", {"addr": victim_addr, "dgroup": victim_group}, True)
                    )

        start = self._fill_start_group(baddr)
        if start:
            # A chain entering mid-way cannot reach free frames in the
            # faster groups it skips, so a variant may need to clear
            # space in the reachable tail first (no-op in the base).
            writebacks += self._ensure_chain_space(region, start)
        baddrs[slot] = baddr
        self._clock += 1
        self._slot_stamp[slot] = self._clock

        demotions = self._place(slot, region, start, events)
        if demotions:
            # Each demotion is one block move (_charge_move's counts),
            # batched per chain.
            sc["demotions"] = sc.get("demotions", 0) + demotions
            sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2 * demotions
            sc["moves"] = sc.get("moves", 0) + demotions

        # The new block's own fill write into its entry d-group (fill
        # buffer; no demand-port occupancy).
        self._ecounts[self._k_dg_write[start]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1

        if dirty:
            entries[slot] |= _PACK_DIRTY
        if events is not None:
            events.append(
                (
                    "placement",
                    {
                        "addr": baddr,
                        "dgroup": (entries[slot] >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK,
                    },
                    True,
                )
            )
        return (writebacks, events)

    # --- one replay slice's operations, walked in one loop ---

    def solve_outcomes(self, addresses, victims, victim_dirty) -> list:
        """The outcome tuples of one replay slice, in one walk.

        The slice's stream is, per L1 miss in trace order, the demand
        ``access_outcome(address)``, ``fill_outcome(address)`` when it
        missed, then ``access_outcome(victim, True)`` when the L1's
        victim was dirty (:func:`~repro.caches.level.slice_operations`).
        Returns what those steps return one by one, in order, and leaves
        every piece of state as they leave it: slots, stamps and clock,
        frame maps, free lists, distance-replacement order, reference
        bits, hand and RNG draws, counters, ``dgroup_hits`` and energy
        counts.  Telemetry events and fault injection must be off: the
        tuples carry no events, and nothing raises a DUE.

        Unlike D-NUCA's solve, this cannot apply each set's operations
        as one round: a set's tags are its own, but its data frames
        belong to d-groups that every set of its placement region
        shares, so a fill's demotion chain and each (d-group, region)
        random victim draw couple all those sets, and the order of
        operations across sets decides the outcome.  The walk is the
        per-operation steps fused: a demand miss and its fill share one
        slice of the set's ways, and counters add up in locals and are
        flushed once; a key enters a dict only with a nonzero total, as
        the steps add it only on an increment.  A fill that evicts a
        d-group-0 block -- nearly every fill of a prewarmed cache --
        takes that block's frame straight back off the free-list tail,
        so no demotion chain runs and the release and re-track are one
        inlined re-track.  The rare rest (a promotion, a fill into a
        free way or over a slower block) calls the helpers the steps
        call.
        """
        stream, is_write = slice_operations(addresses, victims, victim_dirty)
        n_ops = len(stream)
        if not n_ops:
            return []
        n_dgroups = self.config.n_dgroups
        block_mask = self._block_mask
        set_shift = self._set_shift
        set_mask = self._set_mask
        assoc = self._assoc_limit
        n_regions = self._n_regions
        baddrs = self._slot_baddr
        entries = self._slot_entry
        stamps = self._slot_stamp
        lru_dr = self._lru_dr
        approx_dr = self._approx_dr
        if lru_dr:
            dlru = self._dlru
        else:
            dkeys = self._dkeys
            dpos = self._dpos
            if approx_dr:
                dref = self._dref
                dhand = self._dhand
        promo_on = self._promo_on
        promo_next = self._promo_next
        hysteresis = self._hysteresis
        ideal_uniform = self._ideal_uniform
        swap_occ = self._swap_occ
        move_inward = self._move_inward
        place = self._place
        ec = self._ecounts
        k_move = self._k_move
        clock = self._clock

        # Counters, flushed once.
        misses = hits = dg_accesses = fills = evictions = writebacks = 0
        promotions = demotions = moves = 0
        hits_by_group = [0] * n_dgroups
        reads = [0] * n_dgroups
        writes = [0] * n_dgroups

        out = []
        record = out.append
        for address, write in zip(stream.tolist(), is_write.tolist()):
            baddr = address & block_mask
            index = (address >> set_shift) & set_mask
            base = index * assoc
            ways = baddrs[base : base + assoc]

            if baddr in ways:
                slot = base + ways.index(baddr)
                packed = entries[slot]
                group = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
                hits += 1
                hits_by_group[group] += 1
                dg_accesses += 1
                if write:
                    writes[group] += 1
                    packed |= _PACK_DIRTY
                    entries[slot] = packed
                else:
                    reads[group] += 1
                clock += 1
                stamps[slot] = clock
                if approx_dr:
                    dref[group][packed & _PACK_FRAME_MASK] = 1
                elif lru_dr:
                    recency = dlru[group][index % n_regions]
                    frame = packed & _PACK_FRAME_MASK
                    del recency[frame]
                    recency[frame] = None
                legs = ()
                if group and promo_on:
                    pending = (packed >> _PACK_PENDING_SHIFT) + 1
                    if pending < hysteresis:
                        entries[slot] = (
                            (packed & _PACK_BELOW_PENDING) | (pending << _PACK_PENDING_SHIFT)
                        )
                    else:
                        packed &= _PACK_BELOW_PENDING
                        entries[slot] = packed
                        target = group - 1 if promo_next else 0
                        promotions += 1
                        victim_slot = move_inward(
                            slot, packed, group, target, index % n_regions
                        )
                        ec[k_move[group][target]] += 1
                        if victim_slot >= 0:
                            demotions += 1
                            ec[k_move[target][group]] += 1
                        if victim_slot < 0:
                            dg_accesses += 2
                            moves += 1
                            if not ideal_uniform:
                                legs = (swap_occ[group][target],)
                        else:
                            dg_accesses += 4
                            moves += 2
                            if not ideal_uniform:
                                legs = (swap_occ[group][target], swap_occ[target][group])
                record((True, group, baddr, legs, None))
                continue

            misses += 1
            record((False, -1, baddr, (), None))
            if write:
                continue

            # The demand's fill: the set's free way, else its LRU way.
            fills += 1
            region = index % n_regions
            writeback = 0
            if EMPTY in ways:
                slot = base + ways.index(EMPTY)
                evicted = -1
            else:
                touched = stamps[base : base + assoc]
                slot = base + touched.index(min(touched))
                victim = entries[slot]
                evicted = (victim >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
                freed = victim & _PACK_FRAME_MASK
                evictions += 1
                if victim & _PACK_DIRTY:
                    writeback = 1
                    writebacks += 1
                    reads[evicted] += 1
                    dg_accesses += 1
            baddrs[slot] = baddr
            clock += 1
            stamps[slot] = clock

            if evicted == 0:
                # The new block takes the evicted block's frame back off
                # the free-list tail, so no demotion chain runs.
                entries[slot] = freed
                if lru_dr:
                    recency = dlru[0][region]
                    del recency[freed]
                    recency[freed] = None
                else:
                    keys = dkeys[0][region]
                    pos = dpos[0]
                    last = len(keys) - 1
                    at = pos[freed]
                    if at != last:
                        moved = keys[last]
                        keys[at] = moved
                        pos[moved] = at
                        keys[last] = freed
                        pos[freed] = last
                    if approx_dr:
                        if dhand[0][region] >= last:
                            dhand[0][region] = 0
                        dref[0][freed] = 1
            else:
                if evicted > 0:
                    self._release_frame(evicted, region, freed)
                chain = place(slot, region, 0, None)
                if chain:
                    demotions += chain
                    dg_accesses += 2 * chain
                    moves += chain

            # The new block's own fill write into d-group 0.
            writes[0] += 1
            dg_accesses += 1
            record((writeback, None))

        self._clock = clock
        counts = {
            "accesses": n_ops,
            "misses": misses,
            "hits": hits,
            "dgroup_accesses": dg_accesses,
            "fills": fills,
            "evictions": evictions,
            "writebacks": writebacks,
            "promotions": promotions,
            "demotions": demotions,
            "moves": moves,
        }
        sc = self._scounts
        for key, total in counts.items():
            if total:
                sc[key] = sc.get(key, 0) + total
        dh = self.dgroup_hits.counts
        for group, total in enumerate(hits_by_group):
            if total:
                dh[group] = dh.get(group, 0) + total
        ec[self._k_tag] += n_ops
        for group in range(n_dgroups):
            ec[self._k_dg_read[group]] += reads[group]
            ec[self._k_dg_write[group]] += writes[group]
        return out

    def _place(self, slot: int, region: int, group: int, events) -> int:
        """Give the block in ``slot`` a frame of ``group``: the demotion
        chain pushes occupants outward until a free frame absorbs one.
        Each block keeps its dirty bit but restarts promotion
        hysteresis; the new block enters clean.  Charges each move's
        energy; returns the demotions, whose counters the caller adds.
        """
        baddrs = self._slot_baddr
        entries = self._slot_entry
        frame_slot = self._frame_slot
        n_dgroups = self.config.n_dgroups
        free = self._free
        ec = self._ecounts
        k_move = self._k_move
        incoming = slot
        keep = 0
        demotions = 0
        while not free[group][region]:
            if self.fault_injector is not None and not self._tracked(group, region):
                # Region fully retired in this d-group: nothing to
                # demote, the incoming block skips to the next group.
                group += 1
                if group >= n_dgroups:
                    raise SimulationError(
                        f"region {region} has no usable frames in any d-group"
                    )
                continue
            frame = self._victim(group, region)
            demoted = frame_slot[group][frame]
            frame_slot[group][frame] = incoming
            self._retrack(group, region, frame)
            entries[incoming] = frame | (group << _PACK_DGROUP_SHIFT) | keep
            incoming, keep = demoted, entries[demoted] & _PACK_DIRTY
            group += 1
            if group >= n_dgroups:
                raise SimulationError(
                    "demotion chain ran off the slowest d-group; "
                    "free-frame accounting is corrupt"
                )
            demotions += 1
            if events is not None:
                events.append(
                    (
                        "demotion",
                        {"addr": baddrs[incoming], "src": group - 1, "dst": group},
                        True,
                    )
                )
            ec[k_move[group - 1][group]] += 1
        frame = free[group][region].pop()
        frame_slot[group][frame] = incoming
        self._track(group, region, frame)
        entries[incoming] = frame | (group << _PACK_DGROUP_SHIFT) | keep
        return demotions

    def _fill_start_group(self, baddr: int) -> int:
        """D-group a freshly filled block enters (hook for variants).

        The paper's policy is distance placement into the fastest
        group; the compressed variant steers lines that will not
        compress past the compressed groups.
        """
        return 0

    # --- fault handling: invalidation, capacity eviction, retirement ---

    def _region_has_free(self, region: int) -> bool:
        return any(free[region] for free in self._free)

    def _invalidate_frame(self, dgroup: int, frame: int) -> int:
        """Drop the block resident in ``frame`` without writeback.

        Returns the dropped block's packed tag entry (so callers can
        check its dirty bit).
        """
        slot = self._frame_slot[dgroup][frame]
        if slot < 0:
            raise SimulationError(f"invalidate of free frame {frame} in dg{dgroup}")
        packed = self._slot_entry[slot]
        self._slot_baddr[slot] = EMPTY
        self._slot_entry[slot] = 0
        self._release_frame(dgroup, frame // self._region_frames[dgroup], frame)
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

    def _evict_distance_victim(self, region: int, first: int, stat: str) -> int:
        """Evict a distance victim of ``region`` from the slowest
        d-group at or after ``first`` still holding one; returns
        writebacks (0/1).  ``stat`` names the eviction's cause."""
        for group in range(self.config.n_dgroups - 1, first - 1, -1):
            if not self._tracked(group, region):
                continue
            frame = self._victim(group, region)
            packed = self._invalidate_frame(group, frame)
            self.stats.add("evictions")
            self.stats.add(stat)
            if packed & _PACK_DIRTY:
                self.stats.add("writebacks")
                self.energy.charge(f"{self.name}.dg{group}.read")
                self.stats.add("dgroup_accesses")
                return 1
            return 0
        raise SimulationError(
            f"region {region} has no evictable frame in d-groups {first} and up"
        )

    def _evict_for_space(self, region: int) -> int:
        """Evict a distance victim of ``region``; returns writebacks.

        Only reachable under fault injection: retirement shrank the
        usable frame pool below sets x associativity, so a fill may
        find its set below associativity yet its region out of frames.
        The victim comes from the slowest d-group still holding one,
        matching where demotion pressure accumulates.
        """
        return self._evict_distance_victim(region, 0, "fault_capacity_evictions")

    def _apply_hard_fault(self, event: "HardFaultEvent", events) -> None:
        """A subarray died mid-run: remap to a spare or degrade."""
        assert self.fault_injector is not None
        if self.fault_injector.repair_or_retire(event):
            # A spare absorbed the failure; with §3.1 interleaving the
            # lost bits are reconstructed word-by-word through SEC-DED,
            # so contents and capacity are unaffected.
            return
        self._retire_subarray(event.dgroup, event.subarray, events)

    def _retire_subarray(self, dgroup: int, subarray: int, events) -> None:
        """Spares exhausted: retire the subarray's frames for good.

        Resident blocks are lost (counted, not raised — the run keeps
        going on reduced capacity); the frames leave the free pool so
        placement, demotion, and promotion transparently operate on a
        smaller d-group from here on.
        """
        frames = self._frame_slot[dgroup]
        n_frames = len(frames)
        n_subarrays = self.fault_injector.plan.data_subarrays_per_dgroup
        frames_per_subarray = max(1, n_frames // n_subarrays)
        start = min(subarray * frames_per_subarray, n_frames)
        for frame in range(start, min(start + frames_per_subarray, n_frames)):
            if frames[frame] == RETIRED:
                continue
            if frames[frame] != FREE:
                packed = self._invalidate_frame(dgroup, frame)
                self.stats.add("fault_lines_lost")
                if packed & _PACK_DIRTY:
                    self.stats.add("fault_dirty_lines_lost")
            self._free[dgroup][frame // self._region_frames[dgroup]].remove(frame)
            frames[frame] = RETIRED
            self.stats.add("fault_frames_retired")
        if events is not None:
            events.append(("fault_retire", {"dgroup": dgroup, "subarray": subarray}, False))

    def retired_frames(self) -> List[int]:
        """Retired frames per d-group, fastest first."""
        return [frames.count(RETIRED) for frames in self._frame_slot]

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

        The result equals filling the dummies one at a time, set by
        set (see :func:`_prewarm_layout`); it is copied from that
        geometry's immutable layout instead.
        """
        # A cache whose cold state was never built is never-filled; a
        # built one has every frame on its free list, in order, unless
        # a hard fault retired some.
        if self._clock:
            raise SimulationError("prewarm on a non-empty cache")
        if "_free" in self.__dict__:
            free = sum(len(run) for runs in self._free for run in runs)
            if free != sum(self._group_frames):
                if self.resident_blocks():
                    raise SimulationError("prewarm on a non-empty cache")
                raise SimulationError(
                    "prewarm needs every frame in service, none retired"
                )
        n_sets = self._n_sets
        n_regions = self._n_regions
        ways_by_group = tuple(self._prewarm_ways())
        if sum(ways_by_group) != self._assoc_limit or any(
            n_frames != n_sets * ways
            for n_frames, ways in zip(self._group_frames, ways_by_group)
        ):
            raise SimulationError("prewarm ways do not fill the frames exactly")

        entries, frame_slots, runs_by_group = _prewarm_layout(
            n_sets, ways_by_group, n_regions
        )
        self._slot_baddr = list(
            prewarm_slots(n_sets, self._assoc_limit, self.block_bytes)
        )
        self._slot_entry = array("q", entries)
        # Every frame is taken, and each region's dummies entered
        # distance replacement from the top frame down.
        self._frame_slot = [array("q", slots) for slots in frame_slots]
        self._free = [[[] for _ in runs] for runs in runs_by_group]
        if self._lru_dr:
            self._dlru = [
                [dict.fromkeys(run) for run in runs] for runs in runs_by_group
            ]
            return
        self._dkeys = [[list(run) for run in runs] for runs in runs_by_group]
        self._dpos = [list(runs[0]) * n_regions for runs in runs_by_group]
        if self._approx_dr:
            self._dref = [bytearray(b"\x01") * n for n in self._group_frames]

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
        return len(self._slot_baddr) - self._slot_baddr.count(EMPTY)

    def resident_block_addrs(self) -> List[int]:
        """The block address in each tag slot (-1 for a free slot)."""
        return self._slot_baddr

    def check_invariants(self) -> None:
        """Cross-check slots, frames, free lists, and replacement state.

        O(capacity); intended for tests, not the hot loop.
        """
        assoc = self._assoc_limit
        resident = 0
        for slot, baddr in enumerate(self._slot_baddr):
            if baddr == EMPTY:
                continue
            resident += 1
            index = slot // assoc
            if self._set_of(baddr) != index:
                raise SimulationError(f"block {baddr:#x} in wrong set")
            base = index * assoc
            if self._slot_baddr[base : base + assoc].count(baddr) != 1:
                raise SimulationError(f"block {baddr:#x} resident twice")
            packed = self._slot_entry[slot]
            dgroup = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
            frame = packed & _PACK_FRAME_MASK
            if self._frame_slot[dgroup][frame] != slot:
                raise SimulationError(
                    f"forward pointer of {baddr:#x} disagrees with frame"
                )
            if frame // self._region_frames[dgroup] != index % self._n_regions:
                raise SimulationError(f"block {baddr:#x} outside its region")
        occupied = 0
        for group, frames in enumerate(self._frame_slot):
            per = self._region_frames[group]
            for region, free in enumerate(self._free[group]):
                for frame in free:
                    if frame // per != region:
                        raise SimulationError(f"frame {frame} on wrong region free list")
                    if frames[frame] != FREE:
                        raise SimulationError(f"frame {frame} residency/free-list mismatch")
                run = frames[region * per : (region + 1) * per]
                in_use = [f + region * per for f, s in enumerate(run) if s >= 0]
                occupied += len(in_use)
                if len(free) != run.count(FREE) or len(set(free)) != len(free):
                    raise SimulationError(
                        f"d-group {group} region {region} free list disagrees "
                        "with its frames"
                    )
                if self._lru_dr:
                    tracked = list(self._dlru[group][region])
                else:
                    tracked = self._dkeys[group][region]
                    if any(self._dpos[group][f] != p for p, f in enumerate(tracked)):
                        raise SimulationError(
                            f"replacement positions stale in d-group {group} "
                            f"region {region}"
                        )
                if sorted(tracked) != in_use:
                    raise SimulationError(
                        f"replacer tracking {len(tracked)} frames in d-group "
                        f"{group} region {region}, expected {len(in_use)}"
                    )
            for frame, slot in enumerate(frames):
                if slot >= 0 and self._slot_baddr[slot] == EMPTY:
                    raise SimulationError(f"frame {frame} points at an empty slot")
        if occupied != resident:
            raise SimulationError(
                f"{occupied} occupied frames but {resident} resident blocks"
            )

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents, recency, and the port
        timeline are kept so contention stays causal."""
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.ports.reset_totals()

    @property
    def port(self):
        """The data port's busy-time state now (telemetry reads it)."""
        return self.ports[0]

    def dgroup_occupancy(self) -> List[Tuple[int, int]]:
        """(occupied, total) frames per d-group, fastest first."""
        return [
            (len(frames) - frames.count(FREE) - frames.count(RETIRED), len(frames))
            for frames in self._frame_slot
        ]
