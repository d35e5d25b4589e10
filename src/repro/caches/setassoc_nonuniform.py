"""Set-associative-*placement* non-uniform cache (Figure 4 baseline).

This is the paper's control experiment for distance associativity
(§5.2.1): a cache physically identical to NuRAPID (same d-group
geometry, same sequential tag-data access, same one-ported data side)
but with the conventional *coupling* of tag position to data position.
With A ways over G d-groups, exactly A/G specific ways of every set
live in each d-group, so at most A/G blocks of a hot set can ever be
fast.

Policies mirror the Figure 4 setup: initial placement in the fastest
d-group, demotion of replaced blocks to the next slower group (a
bubble-style chain within the set), LRU data replacement (the evicted
block is the LRU of the slowest group's ways — which, as the paper
notes for D-NUCA, "may not be the set's LRU block"), and next-fastest
promotion by swapping with the LRU way of the adjacent faster group.
Like the other caches, it keeps flat per-frame lists (frame = ``set *
associativity + way``), scans a set's slice per lookup, and picks a
group's way with :func:`~repro.caches.block.victim_way`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import CacheTelemetry
from repro.common.stats import Counter, Distribution
from repro.caches.block import EMPTY, block_address, prewarm_slots, set_index, victim_way
from repro.caches.level import CacheLevel
from repro.caches.port import PortArray, checked_occupancy
from repro.floorplan.dgroups import NuRAPIDGeometry, build_nurapid_geometry
from repro.tech.energy import EnergyBook


class SetAssociativePlacementCache(CacheLevel):
    """Non-uniform cache with tag-coupled data placement."""

    def __init__(
        self,
        capacity_bytes: int = 8 * 1024 * 1024,
        block_bytes: int = 128,
        associativity: int = 8,
        n_dgroups: int = 4,
        geometry: Optional[NuRAPIDGeometry] = None,
        energy: Optional[EnergyBook] = None,
        promote: bool = True,
        name: str = "SA-NUCA",
    ) -> None:
        if associativity % n_dgroups:
            raise ConfigurationError(
                "coupled placement needs associativity divisible by d-groups"
            )
        blocks = capacity_bytes // block_bytes
        if blocks % associativity:
            raise ConfigurationError("capacity must hold a whole number of sets")
        self.name = name
        self.block_bytes = block_bytes
        self.associativity = associativity
        self.n_dgroups = n_dgroups
        self.ways_per_dgroup = associativity // n_dgroups
        self.n_sets = blocks // associativity
        self.promote = promote
        self.geometry = geometry if geometry is not None else build_nurapid_geometry(
            n_dgroups=n_dgroups,
            capacity_bytes=capacity_bytes,
            block_bytes=block_bytes,
            associativity=associativity,
        )

        #: Flat per-frame state; frame = set_index * associativity + way.
        #: ``EMPTY`` in ``_addrs`` marks a free way.
        n_frames = self.n_sets * associativity
        self._addrs: List[int] = [EMPTY] * n_frames
        self._dirty = bytearray(n_frames)
        #: Logical timestamp of the last touch, for LRU-within-group.
        self._touch: List[int] = [0] * n_frames
        self._clock = 0
        #: The single data port's busy-time state.
        self.ports = PortArray(f"{name}.port", 1)
        groups = range(n_dgroups)
        self._data_occ = checked_occupancy(
            self.ports.name, (self.geometry.data_occupancy(g) for g in groups)
        )
        self._swap_occ = [
            checked_occupancy(
                self.ports.name,
                (self.geometry.swap_occupancy(i, j) if i != j else 0.0 for j in groups),
            )
            for i in groups
        ]

        self.energy = energy if energy is not None else EnergyBook()
        geo = self.geometry
        self.energy.register(f"{name}.tag_probe", geo.tag_energy_nj)
        for spec in geo.dgroups:
            self.energy.register(f"{name}.dg{spec.index}.read", spec.read_energy_nj)
            self.energy.register(f"{name}.dg{spec.index}.write", spec.write_energy_nj)
        for i in range(n_dgroups):
            for j in range(n_dgroups):
                if i != j:
                    self.energy.register(
                        f"{name}.move.{i}->{j}", geo.swap_energy_nj(i, j)
                    )

        self.stats = Counter()
        self.dgroup_hits = Distribution()
        #: Optional telemetry client (None is the null sink).
        self.telemetry: Optional["CacheTelemetry"] = None
        self._init_hot_caches()

    def _init_hot_caches(self) -> None:
        """Hot-path constants, as NuRAPID keeps them: address
        decomposition in shift/mask form, the energy keys, and direct
        views of the stats and energy dicts (``Counter.reset`` and
        ``EnergyBook.reset_counts`` mutate them in place).  Each
        increment is the one ``Counter.add``/``EnergyBook.charge``
        would make, so totals are unchanged."""
        # Both raise unless the block size and set count are powers of two.
        block_address(0, self.block_bytes)
        set_index(0, self.block_bytes, self.n_sets)
        self._block_mask = ~(self.block_bytes - 1)
        self._set_shift = self.block_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1
        name = self.name
        groups = range(self.n_dgroups)
        self._k_tag = f"{name}.tag_probe"
        self._k_dg_read = [f"{name}.dg{g}.read" for g in groups]
        self._k_dg_write = [f"{name}.dg{g}.write" for g in groups]
        self._k_move = [[f"{name}.move.{i}->{j}" for j in groups] for i in groups]
        self._scounts = self.stats._counts
        self._ecounts = self.energy._count

    # --- way/d-group mapping (the coupling under study) ---

    def dgroup_of_way(self, way: int) -> int:
        if not 0 <= way < self.associativity:
            raise ConfigurationError(f"way {way} out of range")
        return way // self.ways_per_dgroup

    def _set_of(self, address: int) -> int:
        return set_index(address, self.block_bytes, self.n_sets)

    # --- lookups ---

    def _way_of(self, index: int, baddr: int) -> int:
        """Way of set ``index`` holding ``baddr``, or -1."""
        base = index * self.associativity
        ways = self._addrs[base : base + self.associativity]
        return ways.index(baddr) if baddr in ways else -1

    def contains(self, address: int) -> bool:
        return self.dgroup_of(address) is not None

    def dgroup_of(self, address: int) -> Optional[int]:
        baddr = block_address(address, self.block_bytes)
        way = self._way_of(self._set_of(address), baddr)
        return None if way < 0 else self.dgroup_of_way(way)

    # --- access path ---

    def access_outcome(self, address: int, is_write: bool = False):
        """The access's outcome step: ``(hit, d-group or -1, block
        address, promotion swap-leg occupancies, deferred events)``."""
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        sc = self._scounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        self._clock += 1
        ec = self._ecounts
        ec[self._k_tag] += 1
        events = [] if self.telemetry is not None else None

        base = index * self.associativity
        ways = self._addrs[base : base + self.associativity]
        if baddr not in ways:
            # Sequential tag-data access: the pipelined tag probe alone
            # determines the miss.
            sc["misses"] = sc.get("misses", 0) + 1
            return (False, -1, baddr, (), events)

        way = ways.index(baddr)
        group = way // self.ways_per_dgroup
        sc["hits"] = sc.get("hits", 0) + 1
        dh = self.dgroup_hits.counts
        dh[group] = dh.get(group, 0) + 1
        frame = base + way
        self._touch[frame] = self._clock
        if is_write:
            self._dirty[frame] = 1
            ec[self._k_dg_write[group]] += 1
        else:
            ec[self._k_dg_read[group]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        legs = ()
        if group > 0 and self.promote:
            legs = self._promote(index, way, group, events)
        return (True, group, baddr, legs, events)

    def access_timing(self, outcome, now: float) -> float:
        """The access's timing step: a hit claims the data port after
        the tag probe, and its promotion legs claim it from the hit's
        completion."""
        hit, group, baddr, legs, events = outcome
        telemetry = self.telemetry
        if not hit:
            latency = float(self.geometry.miss_latency())
            if telemetry is not None:
                telemetry.on_access(baddr, False, None, latency)
            return latency
        claim = self.ports.claim
        start = claim(0, now + self.geometry.tag_cycles, self._data_occ[group])
        latency = (start - now) + self.geometry.dgroups[group].data_cycles
        done = now + latency
        for occ in legs:
            claim(0, done, occ)
        if telemetry is not None:
            telemetry.on_access(baddr, True, group, latency)
            telemetry.emit_deferred(events, done)
        return latency

    def _lru_way(self, index: int, group: int) -> int:
        """Way of ``group`` in set ``index`` that a block moving in
        takes: its first free way, else its LRU way."""
        base = index * self.associativity
        wpd = self.ways_per_dgroup
        return victim_way(self._addrs, self._touch, base + group * wpd, wpd) - base

    def _promote(self, index: int, way: int, group: int, events) -> Tuple[float, ...]:
        """Next-fastest promotion: swap with the adjacent group's LRU way.

        Returns the port occupancy of each block move, in order.
        """
        target = group - 1
        peer = self._lru_way(index, target)
        sc = self._scounts
        sc["promotions"] = sc.get("promotions", 0) + 1
        if events is not None:
            events.append(
                (
                    "promotion",
                    {
                        "addr": self._addrs[index * self.associativity + way],
                        "src": group,
                        "dst": target,
                    },
                    True,
                )
            )
        self._swap_ways(index, way, peer)
        self._charge_move(group, target)
        demoted = self._addrs[index * self.associativity + way]
        if demoted == EMPTY:
            return (self._swap_occ[group][target],)
        # A real two-way swap (the peer way was occupied).
        sc["demotions"] = sc.get("demotions", 0) + 1
        if events is not None:
            events.append(
                ("demotion", {"addr": demoted, "src": target, "dst": group}, True)
            )
        self._charge_move(target, group)
        return (self._swap_occ[group][target], self._swap_occ[target][group])

    def _swap_ways(self, index: int, a: int, b: int) -> None:
        addrs, dirty, touch = self._addrs, self._dirty, self._touch
        base = index * self.associativity
        fa, fb = base + a, base + b
        addrs[fa], addrs[fb] = addrs[fb], addrs[fa]
        dirty[fa], dirty[fb] = dirty[fb], dirty[fa]
        touch[fa], touch[fb] = touch[fb], touch[fa]

    def _charge_move(self, src: int, dst: int) -> None:
        """Energy and counters for one block move (the caller decides
        whether it occupies the port)."""
        self._ecounts[self._k_move[src][dst]] += 1
        sc = self._scounts
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2
        sc["moves"] = sc.get("moves", 0) + 1

    # --- fills: place fastest, bubble-demote within the set ---

    def fill_outcome(self, address: int, dirty: bool = False):
        """The fill's outcome step: ``(dirty writebacks, deferred
        events)``; events are None unless telemetry is armed.  The fill
        takes no port time: its demotions ride the fill buffers."""
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        base = index * self.associativity
        ways = self._addrs[base : base + self.associativity]
        if baddr in ways:
            return (0, None)
        events = [] if self.telemetry is not None else None
        sc = self._scounts
        ec = self._ecounts
        sc["fills"] = sc.get("fills", 0) + 1
        self._clock += 1
        writebacks = 0

        # If the set is full, evict the LRU way of the slowest group
        # (bubble data replacement: not necessarily the set's LRU).
        if EMPTY not in ways:
            victim = self._lru_way(index, self.n_dgroups - 1)
            frame = base + victim
            victim_addr = self._addrs[frame]
            sc["evictions"] = sc.get("evictions", 0) + 1
            if events is not None:
                events.append(
                    (
                        "eviction",
                        {"addr": victim_addr, "dgroup": self.dgroup_of_way(victim)},
                        True,
                    )
                )
            if self._dirty[frame]:
                writebacks = 1
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                group = self.dgroup_of_way(victim)
                ec[self._k_dg_read[group]] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                if events is not None:
                    events.append(
                        ("writeback", {"addr": victim_addr, "dgroup": group}, True)
                    )
            self._addrs[frame] = EMPTY
            self._dirty[frame] = 0
            self._touch[frame] = 0

        # Demotion chain toward the freed (or naturally free) way.
        group = 0
        carry_addr = baddr
        carry_dirty = dirty
        carry_touch = self._clock
        while True:
            frame = base + self._lru_way(index, group)
            displaced = (self._addrs[frame], self._dirty[frame], self._touch[frame])
            self._addrs[frame] = carry_addr
            self._dirty[frame] = 1 if carry_dirty else 0
            self._touch[frame] = carry_touch
            if group > 0:
                sc["demotions"] = sc.get("demotions", 0) + 1
                if events is not None:
                    events.append(
                        (
                            "demotion",
                            {"addr": carry_addr, "src": group - 1, "dst": group},
                            True,
                        )
                    )
                self._charge_move(group - 1, group)
            if displaced[0] == EMPTY:
                break
            carry_addr, carry_dirty, carry_touch = displaced
            group += 1
            if group >= self.n_dgroups:
                raise SimulationError("demotion chain overran the slowest group")

        ec[self._k_dg_write[0]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        if events is not None:
            events.append(("placement", {"addr": baddr, "dgroup": 0}, True))
        return (writebacks, events)

    # --- prewarm ---

    def prewarm(self) -> None:
        """Fill every way with a clean dummy block (steady-state start)."""
        if self._addrs.count(EMPTY) != len(self._addrs):
            raise SimulationError("prewarm on a non-empty cache")
        self._addrs = list(prewarm_slots(self.n_sets, self.associativity, self.block_bytes))

    # --- introspection ---

    @property
    def miss_rate(self) -> float:
        total = self.stats.get("accesses")
        if not total:
            return 0.0
        return self.stats.get("misses") / total

    def resident_block_addrs(self) -> List[int]:
        """The block address in each frame (EMPTY for a free way)."""
        return self._addrs

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents and port timeline kept."""
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.ports.reset_totals()

    @property
    def port(self):
        """The data port's busy-time state now (telemetry reads it)."""
        return self.ports[0]

    def check_invariants(self) -> None:
        assoc = self.associativity
        for index in range(self.n_sets):
            ways = self._addrs[index * assoc : (index + 1) * assoc]
            resident = [b for b in ways if b != EMPTY]
            if len(set(resident)) != len(resident):
                raise SimulationError(f"set {index} holds a block twice")
            for baddr in resident:
                if self._set_of(baddr) != index:
                    raise SimulationError(f"block {baddr:#x} in wrong set")
