"""The D-NUCA cache model.

Organization (§4): the 16 ways of each set spread across a *chain* of
``chain_length`` banks at increasing distance, ``ways_per_bank`` ways
in each.  Blocks enter at the tail (slowest bank), bubble one bank
closer on each hit, and are evicted from the slowest ways — so, as the
paper notes, the victim "may not be the set's LRU block".

Bandwidth model: every bank has its own port (multibanking); the
switched network has infinite bandwidth and zero switch energy — both
idealizations the paper grants D-NUCA (§4).  Searches therefore queue
only at banks, but *every* searched bank is occupied by its probe,
which is exactly the artificial bandwidth demand §2.3 argues NuRAPID
removes.

State layout: every way of every set is one *slot*,
``slot = set * associativity + position``, and position ``p`` sits in
chain level ``p // ways_per_bank``.  Per-slot state lives in flat
arrays (block address, dirty bit, last touch); a lookup scans its
set's ways, as the hardware's tag match does, so there is no
address-to-slot map.

Each ``access``/``fill`` is an outcome step that never sees ``now``
followed by a timing step that claims the banks' busy time (DESIGN.md,
"Lower-level outcome and timing").  :meth:`DNUCACache.solve_outcomes`
computes a whole slice's outcome steps at once, in per-set rounds.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import CacheTelemetry
from repro.common.stats import Counter, Distribution
from repro.caches.block import (
    EMPTY,
    block_address,
    prewarm_blocks,
    prewarm_slots,
    set_index,
    victim_way,
)
from repro.caches.level import CacheLevel, slice_operations
from repro.caches.port import PortArray, checked_occupancy
from repro.floorplan.dgroups import DNUCAGeometry, build_dnuca_geometry
from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.nuca.smart_search import SmartSearchArray
from repro.tech.energy import EnergyBook


class _Bank(NamedTuple):
    """One bank's hot-path constants, resolved once at construction."""

    index: int
    occupancy: int
    latency: int
    probe_key: str
    read_key: str
    write_key: str
    move_key: str


#: Fill outcome of a block already resident: nothing happens.
_RESIDENT = (0, None)

#: Fill outcomes without telemetry, by dirty writebacks.
_FILLED = ((0, None), (1, None))


#: The planes of :attr:`DNUCACache._rows`: per (set, way), the block
#: address, partial tag, dirty bit and stamp.
_BLOCK, _PARTIAL, _DIRTY, _STAMP = range(4)


def _victim_ways(state, rows, cols):
    """Per row of ``rows``, the offset into its ``cols`` that
    :func:`~repro.caches.block.victim_way` picks: the first free way,
    else the first of the least recently touched."""
    r = rows[:, None]
    free = state[_BLOCK, r, cols] == EMPTY
    return np.where(
        free.any(axis=1), free.argmax(axis=1), state[_STAMP, r, cols].argmin(axis=1)
    )


class DNUCACache(CacheLevel):
    """Dynamic NUCA L2 implementing the lower-level protocol."""

    def __init__(
        self,
        config: DNUCAConfig,
        geometry: Optional[DNUCAGeometry] = None,
        energy: Optional[EnergyBook] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self.block_bytes = config.block_bytes
        self.geometry = geometry if geometry is not None else build_dnuca_geometry(
            capacity_bytes=config.capacity_bytes,
            block_bytes=config.block_bytes,
            associativity=config.associativity,
            bank_bytes=config.bank_bytes,
            chain_length=config.chain_length,
            ss_partial_bits=config.ss_partial_bits,
        )
        for field, want in (
            ("chain_length", config.chain_length),
            ("sets", config.n_sets),
            ("block_bytes", config.block_bytes),
            ("associativity", config.associativity),
            ("ways_per_bank", config.ways_per_bank),
            ("ss_partial_bits", config.ss_partial_bits),
        ):
            got = getattr(self.geometry, field)
            if got != want:
                raise ConfigurationError(
                    f"geometry and config disagree on {field}: "
                    f"geometry has {got}, config has {want}"
                )

        self.n_sets = config.n_sets
        self.associativity = config.associativity
        self.ways_per_bank = config.ways_per_bank
        # Both helpers reject non-power-of-two sizes; the access path
        # uses their shift/mask form.
        block_address(0, config.block_bytes)
        set_index(0, config.block_bytes, self.n_sets)
        self._block_mask = ~(config.block_bytes - 1)
        self._set_shift = config.block_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1

        n_slots = self.n_sets * self.associativity
        #: slot -> resident block address (EMPTY for a free way).
        self._baddr: List[int] = [EMPTY] * n_slots
        self._dirty = bytearray(n_slots)
        self._touch: List[int] = [0] * n_slots
        self._clock = 0
        #: The per-slot lists as one ``(4, n_sets, associativity)``
        #: array (block addresses, partial tags, dirty bits, stamps) for
        #: :meth:`solve_outcomes`, or None.  Prewarm and the solve keep
        #: it equal to the lists; every other step that writes them
        #: drops it.
        self._rows: Optional[np.ndarray] = None
        #: Per-bank busy-time state.
        self.bank_ports = PortArray(f"{self.name}.bank", self.geometry.n_banks)

        self.smart_search = SmartSearchArray(
            self.n_sets,
            config.associativity,
            config.chain_length,
            config.ss_partial_bits,
            config.block_bytes,
        )
        self.energy = energy if energy is not None else EnergyBook()
        self._register_energy()

        self.stats = Counter()
        self.dgroup_hits = Distribution()
        #: Optional telemetry client (None is the null sink).
        self.telemetry: Optional["CacheTelemetry"] = None
        self._init_hot_caches()

    def _register_energy(self) -> None:
        self.energy.register(f"{self.name}.ss_probe", self.geometry.ss_energy_nj)
        for bank in self.geometry.banks:
            base = f"{self.name}.bank{bank.index}"
            self.energy.register(f"{base}.probe", bank.probe_energy_nj)
            self.energy.register(f"{base}.read", bank.read_energy_nj)
            self.energy.register(f"{base}.write", bank.write_energy_nj)
            self.energy.register(f"{base}.move", bank.swap_energy_nj)

    def _init_hot_caches(self) -> None:
        """Resolve every chain's banks to hot-path tuples.

        Everything cached is a value the per-probe lookups (chain
        bank, f-string energy key, ``EnergyBook.charge``) would
        compute identically, so energies, latencies and counter totals
        match the uncached path bit for bit.
        """
        geo = self.geometry
        occupancy = checked_occupancy(
            self.bank_ports.name, (bank.occupancy_cycles for bank in geo.banks)
        )
        self._bank_occ = occupancy
        banks = []
        for bank in geo.banks:
            base = f"{self.name}.bank{bank.index}"
            banks.append(
                _Bank(
                    index=bank.index,
                    occupancy=occupancy[bank.index],
                    latency=bank.latency_cycles,
                    probe_key=f"{base}.probe",
                    read_key=f"{base}.read",
                    write_key=f"{base}.write",
                    move_key=f"{base}.move",
                )
            )
        #: chain -> its banks, nearest (level 0) first.
        self._chains: List[Tuple[_Bank, ...]] = [
            tuple(
                banks[geo.chain_bank(chain, level).index]
                for level in range(self.config.chain_length)
            )
            for chain in range(geo.n_chains)
        ]
        #: chain -> (bank index, occupancy, latency) per level, for the
        #: timing step.  A float latency adds exactly like the int.
        self._chain_timing = [
            tuple((bank.index, bank.occupancy, float(bank.latency)) for bank in chain)
            for chain in self._chains
        ]
        #: chain -> the energy ops a multicast search counts, indexed by
        #: hit level + 1: every bank probed, the hit level's read
        #: instead of its probe.
        self._multicast_ops = [
            [tuple(bank.probe_key for bank in chain)]
            + [
                tuple(
                    bank.read_key if at == level else bank.probe_key
                    for at, bank in enumerate(chain)
                )
                for level in range(len(chain))
            ]
            for chain in self._chains
        ]
        self._n_chains = geo.n_chains
        self._all_levels = list(range(self.config.chain_length))
        self._multicast = self.config.policy is SearchPolicy.SS_PERFORMANCE
        self._ss_energy = self.config.policy is SearchPolicy.SS_ENERGY
        self._insert_level = (
            self.config.chain_length - 1 if self.config.tail_insertion else 0
        )
        self._ss_key = f"{self.name}.ss_probe"
        self._ss_latency = float(geo.ss_latency_cycles)
        #: Direct views into the stats/energy dicts.  Counter.reset()
        #: and EnergyBook.reset_counts() mutate in place, so these stay
        #: valid across reset_stats().
        self._scounts = self.stats._counts
        self._ecounts = self.energy._count

    # --- geometry helpers ---

    def _set_of(self, address: int) -> int:
        # == set_index(address, block_bytes, n_sets), validated above.
        return (address >> self._set_shift) & self._set_mask

    def _bank_of(self, index: int, level: int):
        return self.geometry.chain_bank(index % self._n_chains, level)

    # --- lookups ---

    def _slot_of(self, address: int) -> Optional[int]:
        """Slot holding ``address``'s block (a scan of its set), or None."""
        baddr = address & self._block_mask
        base = ((address >> self._set_shift) & self._set_mask) * self.associativity
        ways = self._baddr[base : base + self.associativity]
        return base + ways.index(baddr) if baddr in ways else None

    def contains(self, address: int) -> bool:
        return self._slot_of(address) is not None

    def level_of(self, address: int) -> Optional[int]:
        slot = self._slot_of(address)
        if slot is None:
            return None
        return slot % self.associativity // self.ways_per_bank

    # --- the access path ---

    def access_outcome(self, address: int, is_write: bool = False):
        """The access's outcome step: ``(hit, chain, level, block
        address, promotion legs, deferred events, probed levels)``.

        ``level`` is the hit's chain level, -1 for a miss the banks
        report and -2 for an early miss the ss-array detects.  The
        promotion legs are the banks a promotion's block moves occupy
        once the hit completes.  Sequential searches carry the levels
        they probe, nearest first; multicast carries None.  Deferred
        events are None unless telemetry is armed.
        """
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        sc = self._scounts
        ec = self._ecounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        self._clock += 1

        base = index * self.associativity
        ways = self._baddr[base : base + self.associativity]
        if baddr in ways:
            slot = base + ways.index(baddr)
            level = slot % self.associativity // self.ways_per_bank
        else:
            slot = None
            level = -1
        c = index % self._n_chains
        chain = self._chains[c]

        if self._multicast:
            # ss-performance: every bank of the chain is searched; the
            # ss-array detects a miss early (no partial-tag match, so
            # never for a resident block) but the multicast has
            # already gone out.
            ec[self._ss_key] += 1
            ss = self.smart_search
            probes = None
            if slot is None and not ss.matches(index, baddr):
                level = -2
                sc["early_misses"] = sc.get("early_misses", 0) + 1
                for key in self._multicast_ops[c][0]:
                    ec[key] += 1
                sc["bank_probes"] = sc.get("bank_probes", 0) + len(chain)
            else:
                if slot is not None:
                    ss.lookups += 1  # the lookup matches its own tag
                for key in self._multicast_ops[c][level + 1]:
                    ec[key] += 1
                if level >= 0:
                    sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                    probed = len(chain) - 1  # every bank but the hit's
                else:
                    # Partial match that wasn't the block: the miss is
                    # known only when the slowest probe returns.
                    probed = len(chain)
                    ss.note_false_hit()
                    sc["false_hits"] = sc.get("false_hits", 0) + 1
                if probed:
                    sc["bank_probes"] = sc.get("bank_probes", 0) + probed
        else:
            # ss-energy / incremental: probe candidate banks nearest
            # first, up to the block's level.
            ss_energy = self._ss_energy
            if ss_energy:
                ec[self._ss_key] += 1
                candidates = self.smart_search.candidate_levels(index, baddr)
            else:
                candidates = self._all_levels
            probes = candidates
            for at in candidates:
                bank = chain[at]
                if at == level:
                    ec[bank.read_key] += 1
                    sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                    break
                ec[bank.probe_key] += 1
                sc["bank_probes"] = sc.get("bank_probes", 0) + 1
                if ss_energy:
                    self.smart_search.note_false_hit()
                    sc["false_hits"] = sc.get("false_hits", 0) + 1
            else:
                level = -1

        if level < 0:
            sc["misses"] = sc.get("misses", 0) + 1
            return (False, c, level, baddr, (), None, probes)
        sc["hits"] = sc.get("hits", 0) + 1
        dh = self.dgroup_hits.counts
        dh[level] = dh.get(level, 0) + 1
        self._rows = None
        self._touch[slot] = self._clock
        if is_write:
            self._dirty[slot] = 1
        events = [] if self.telemetry is not None else None
        legs = ()
        if level > 0 and self.config.promote_on_hit:
            legs = self._promote(index, slot, events)
        return (True, c, level, baddr, legs, events, probes)

    def access_timing(self, outcome, now: float) -> float:
        """The access's timing step: bank occupancy and latency.

        Every bank an access searches is occupied by its probe from
        the probe's arrival; a promotion's block moves then occupy the
        source and destination banks from the hit's completion.
        """
        hit, c, level, baddr, legs, events, probes = outcome
        ports = self.bank_ports
        busy = ports.busy_until
        total_busy = ports.total_busy
        total_wait = ports.total_wait
        grants = ports.grants
        chain = self._chain_timing[c]
        if probes is None:
            # Banks of a chain are distinct, so each probe's response
            # can be read off before any of them is claimed.
            if level >= 0:
                b, occ, lat = chain[level]
                start = busy[b]
                latency = lat if now >= start else (start - now) + lat
            elif level == -2:
                latency = self._ss_latency
            else:
                # A false hit: the miss is known when the slowest probe
                # returns.
                latency = 0.0
                for b, occ, lat in chain:
                    start = busy[b]
                    response = lat if now >= start else (start - now) + lat
                    if response > latency:  # == max(latency, response)
                        latency = response
            for b, occ, lat in chain:
                start = busy[b]
                total_busy[b] += occ
                grants[b] += 1
                if now >= start:
                    # An idle bank: no wait, and adding 0.0 to the
                    # wait total would leave it unchanged.
                    busy[b] = now + occ
                else:
                    busy[b] = start + occ
                    total_wait[b] += start - now
        else:
            latency = self._ss_latency if self._ss_energy else 0.0
            for at in probes:
                b, occ, lat = chain[at]
                arrival = now + latency
                latency += (ports.claim(b, arrival, occ) - arrival) + lat
                if at == level:
                    break
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_access(baddr, hit, level if hit else None, latency)
        if legs:
            done = now + latency
            for b in legs:
                ports.claim(b, done, self._bank_occ[b])
        if events:
            telemetry.emit_deferred(events, now + latency)
        return latency

    # --- bubble promotion ---

    def _promote(self, index: int, slot: int, events) -> Tuple[int, ...]:
        """Swap one level closer to the core (generational promotion).

        Returns the banks the block moves occupy, in request order: a
        move reads its source bank and writes its destination bank.
        """
        wpb = self.ways_per_bank
        level = slot % self.associativity // wpb
        target = level - 1
        peer = victim_way(
            self._baddr, self._touch, index * self.associativity + target * wpb, wpb
        )
        baddrs = self._baddr
        moving = baddrs[slot]
        displaced = baddrs[peer]

        # The block's dirty bit and recency travel with it.
        baddrs[peer], baddrs[slot] = moving, displaced
        dirty = self._dirty
        dirty[peer], dirty[slot] = dirty[slot], dirty[peer]
        touch = self._touch
        touch[peer], touch[slot] = touch[slot], touch[peer]
        self.smart_search.move(slot, peer)

        sc = self._scounts
        sc["promotions"] = sc.get("promotions", 0) + 1
        if events is not None:
            events.append(("promotion", {"addr": moving, "src": level, "dst": target}, True))
        chain = self._chains[index % self._n_chains]
        src, dst = chain[level], chain[target]
        self._charge_move(src)
        if displaced == EMPTY:
            return (src.index, dst.index)
        sc["demotions"] = sc.get("demotions", 0) + 1
        if events is not None:
            events.append(
                ("demotion", {"addr": displaced, "src": target, "dst": level}, True)
            )
        self._charge_move(dst)
        return (src.index, dst.index, dst.index, src.index)

    def _charge_move(self, src: _Bank) -> None:
        # One block move: read at the source, write at the destination,
        # one network hop in between (charged in the bank's move op).
        self._ecounts[src.move_key] += 1
        sc = self._scounts
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2
        sc["moves"] = sc.get("moves", 0) + 1

    # --- fills (tail insertion + slowest-way eviction) ---

    def fill_outcome(self, address: int, dirty: bool = False):
        """The fill's outcome step: ``(dirty writebacks, deferred
        events)``; events are None unless telemetry is armed.  The fill
        takes no bank time: the idealized network and fill buffers
        absorb it."""
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        base = index * self.associativity
        if baddr in self._baddr[base : base + self.associativity]:
            return _RESIDENT
        events = [] if self.telemetry is not None else None
        self._rows = None
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1
        self._clock += 1
        insert_level = self._insert_level
        bank = self._chains[index % self._n_chains][insert_level]

        writebacks = 0
        wpb = self.ways_per_bank
        slot = victim_way(self._baddr, self._touch, base + insert_level * wpb, wpb)
        old = self._baddr[slot]
        if old != EMPTY:
            # Evict the slowest (or fastest, under head insertion) way.
            self.smart_search.remove(slot)
            sc["evictions"] = sc.get("evictions", 0) + 1
            if events is not None:
                events.append(("eviction", {"addr": old, "dgroup": insert_level}, True))
            if self._dirty[slot]:
                writebacks = 1
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                self._ecounts[bank.read_key] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                if events is not None:
                    events.append(
                        ("writeback", {"addr": old, "dgroup": insert_level}, True)
                    )

        self._baddr[slot] = baddr
        self._dirty[slot] = 1 if dirty else 0
        self._touch[slot] = self._clock
        self.smart_search.insert(slot, baddr)
        self._ecounts[bank.write_key] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        if events is not None:
            events.append(("placement", {"addr": baddr, "dgroup": insert_level}, True))
        return (writebacks, events)

    # --- a whole slice's outcome steps, solved per set ---

    def solve_outcomes(self, addresses, victims, victim_dirty) -> list:
        """The outcome tuples of one replay slice, without walking it.

        The slice's stream is, per L1 miss in trace order, the demand
        ``access_outcome(address)``, ``fill_outcome(address)`` when it
        missed, then ``access_outcome(victim, True)`` when the L1's
        victim was dirty.  ``addresses`` are the misses' addresses,
        ``victims`` and ``victim_dirty`` the L1 victims' block
        addresses and dirty flags (numpy arrays).  Returns what those
        steps return one by one, in order, and leaves the ways, partial
        tags, clock, counters, ``dgroup_hits``, energy counts and
        ss-array counters as they leave them.  Telemetry events must be
        off: the tuples carry none.

        Exact because an operation reads and writes only its own set's
        ways and partial tags, and the clock reaches a decision only
        through the order of stamps inside one set.  The operations
        are stable-sorted by set, and round ``k`` applies every touched
        set's ``k``-th operation at once to the touched sets' rows of
        :attr:`_rows`.  A demand and the fill after its miss are one
        operation; operation ``j`` stamps ``2j`` and ``2j + 1`` past
        the clock, which orders ways exactly as the walk's stamps do,
        and a cumulative count of clock bumps turns them into the
        walk's stamps once every fill is known.
        """
        addr, is_write = slice_operations(addresses, victims, victim_dirty)
        n_ops = len(addr)
        if not n_ops:
            return []
        baddr = addr & self._block_mask
        sets = (addr >> self._set_shift) & self._set_mask

        # Round-major order: round k holds each touched set's k-th
        # operation.  uint16 keys take numpy's radix sort.
        key = np.uint16 if max(self.n_sets, n_ops) <= 1 << 16 else np.int64
        order = np.argsort(sets.astype(key), kind="stable")
        by_set = sets[order]
        head = np.empty(n_ops, dtype=bool)
        head[0] = True
        np.not_equal(by_set[1:], by_set[:-1], out=head[1:])
        first = np.flatnonzero(head)
        depth = np.diff(np.append(first, n_ops))
        rank = np.arange(n_ops) - np.repeat(first, depth)
        by_round = np.argsort(rank.astype(key), kind="stable")
        ops = order[by_round]
        rows = np.repeat(np.arange(len(first)), depth)[by_round]
        bounds = [0, *np.cumsum(np.bincount(rank)).tolist()]

        if self._rows is None:
            self._rows = self._rows_of_lists()
        touched = by_set[first]
        state = self._rows[:, touched]
        initial = state.copy()
        clock0 = self._clock
        solved = self._apply_rounds(
            state, rows, bounds, baddr[ops], is_write[ops], clock0 + 1 + 2 * ops
        )
        # Back to trace order.
        back = np.empty_like(ops)
        back[ops] = np.arange(n_ops)
        level, displaced, evicted, wb, cand = (
            None if x is None else x[back] for x in solved
        )
        hit = level >= 0
        promoted = hit & (level > 0) & self.config.promote_on_hit
        filled = ~(hit | is_write)

        # The walk's stamps and clock: operation j bumped the clock once
        # for its access and once more for its fill.
        bumps = 1 + filled
        before = np.cumsum(bumps) - bumps
        stamps = state[_STAMP]
        new = stamps > clock0
        q = stamps[new] - (clock0 + 1)
        stamps[new] = clock0 + 1 + before[q >> 1] + (q & 1)
        self._clock = clock0 + n_ops + int(filled.sum())
        self._commit_rows(touched, state, initial)

        chain_of = sets % self._n_chains
        if self._multicast:
            probed = None
        else:
            # The levels each sequential search probed before its hit
            # (every level on a miss).
            reach = np.where(hit, level, self.config.chain_length)
            probed = np.arange(self.config.chain_length) < reach[:, None]
            if self._ss_energy:
                probed &= cand
        self._tally(chain_of, hit, level, probed, promoted, displaced, filled, evicted, wb)
        return self._emit(chain_of, baddr, hit, level, promoted, displaced, filled, wb, cand)

    def _apply_rounds(self, state, rows, bounds, baddr, is_write, stamp):
        """Apply each round of operations (round-major ``baddr``,
        ``is_write`` and hit ``stamp``; ``rows`` index ``state``, the
        touched sets' rows of :attr:`_rows`, updated in place).  Returns
        per operation, round-major: its level (-2 early miss, -1 miss),
        whether its promotion displaced a block, whether its fill
        evicted one and wrote it back, and the partial-tag-matching
        levels (ss-energy, else None)."""
        n_ops = len(baddr)
        wpb = self.ways_per_bank
        n_levels = self.config.chain_length
        multicast = self._multicast
        ss_energy = self._ss_energy
        promote = self.config.promote_on_hit
        partial = (baddr >> (self._set_shift + self.n_sets.bit_length() - 1)) & (
            (1 << self.config.ss_partial_bits) - 1
        )
        blocks, partials, stamps = state[_BLOCK], state[_PARTIAL], state[_STAMP]
        level = np.empty(n_ops, dtype=np.int64)
        displaced = np.zeros(n_ops, dtype=bool)
        evicted = np.zeros(n_ops, dtype=bool)
        wb = np.zeros(n_ops, dtype=bool)
        cand = np.zeros((n_ops, n_levels), dtype=bool) if ss_energy else None
        way_cols = np.arange(wpb)
        insert_first = self._insert_level * wpb

        for lo, hi in zip(bounds, bounds[1:]):
            rk = rows[lo:hi]
            a = baddr[lo:hi]
            match = blocks[rk] == a[:, None]
            h = match.any(axis=1)
            pos = match.argmax(axis=1)
            lvl = pos // wpb
            if multicast or ss_energy:
                matches = partials[rk] == partial[lo:hi, None]
            if multicast:
                level[lo:hi] = np.where(h, lvl, np.where(matches.any(axis=1), -1, -2))
            else:
                if ss_energy:
                    cand[lo:hi] = matches.reshape(-1, n_levels, wpb).any(axis=2)
                level[lo:hi] = np.where(h, lvl, -1)

            at = np.flatnonzero(h)
            if len(at):
                hr = rk[at]
                hp = pos[at]
                stamps[hr, hp] = stamp[lo:hi][at]
                w = is_write[lo:hi][at]
                state[_DIRTY, hr[w], hp[w]] = 1
                up = np.flatnonzero(lvl[at] > 0) if promote else ()
                if len(up):
                    # _promote: swap with the level above's victim.
                    pr = hr[up]
                    src = hp[up]
                    above = (lvl[at][up] - 1) * wpb
                    peer = above + _victim_ways(state, pr, above[:, None] + way_cols)
                    displaced[lo + at[up]] = blocks[pr, peer] != EMPTY
                    moving = state[:, pr, src]
                    state[:, pr, src] = state[:, pr, peer]
                    state[:, pr, peer] = moving

            at = np.flatnonzero(~(h | is_write[lo:hi]))
            if len(at):
                # fill_outcome after the demand's miss.
                fr = rk[at]
                slot = insert_first + _victim_ways(state, fr, insert_first + way_cols)
                gone = blocks[fr, slot] != EMPTY
                evicted[lo + at] = gone
                wb[lo + at] = gone & (state[_DIRTY, fr, slot] != 0)
                blocks[fr, slot] = a[at]
                partials[fr, slot] = partial[lo:hi][at]
                state[_DIRTY, fr, slot] = 0
                stamps[fr, slot] = stamp[lo:hi][at] + 1
        return level, displaced, evicted, wb, cand

    def _commit_rows(self, touched, state, initial) -> None:
        """Install the touched sets' solved rows in :attr:`_rows`, and
        in the per-slot lists the slots that changed (a partial tag
        changes only with its block)."""
        self._rows[:, touched] = state
        slots = (touched * self.associativity)[:, None] + np.arange(self.associativity)
        changed = state != initial
        changed[_PARTIAL] = changed[_BLOCK]
        for values, where, into in zip(
            state,
            changed,
            (self._baddr, self.smart_search._partial, self._dirty, self._touch),
        ):
            for slot, value in zip(slots[where].tolist(), values[where].tolist()):
                into[slot] = value

    def _emit(self, chain_of, baddr, hit, level, promoted, displaced, filled, wb, cand):
        """The walk's outcome tuples, in its order: each access, then
        its fill when the demand missed."""
        chains = self._chains
        legs = [()] * len(hit)
        for i in np.flatnonzero(promoted).tolist():
            c = int(chain_of[i])
            lv = int(level[i])
            s, d = chains[c][lv].index, chains[c][lv - 1].index
            legs[i] = (s, d, d, s) if displaced[i] else (s, d)
        if self._multicast:
            probes = itertools.repeat(None)
        elif self._ss_energy:
            masks = cand @ (1 << np.arange(self.config.chain_length))
            lists = {
                m: [lv for lv in range(self.config.chain_length) if m >> lv & 1]
                for m in set(masks.tolist())
            }
            probes = [lists[m] for m in masks.tolist()]
        else:
            probes = itertools.repeat(self._all_levels)
        accesses = zip(
            hit.tolist(), chain_of.tolist(), level.tolist(), baddr.tolist(), legs,
            itertools.repeat(None), probes,
        )
        # Each access, then its fill or a None that the filter drops.
        emitted = (None,) + _FILLED
        fills = [emitted[k] for k in (filled.astype(np.int64) + wb).tolist()]
        return list(filter(None, itertools.chain.from_iterable(zip(accesses, fills))))

    def _tally(self, chain_of, hit, level, probed, promoted, displaced, filled, evicted, wb):
        """Add a solved slice's counters, ``dgroup_hits``, energy counts
        and ss-array counters; a key enters a dict only with a nonzero
        total, as the walk adds it only on an increment.  ``probed``
        marks the levels each sequential search probed before its hit
        (None: multicast).
        """
        n_levels = self.config.chain_length
        n_banks = self._n_chains * n_levels
        n_ops = len(hit)
        n_hits = int(hit.sum())
        n_promoted = int(promoted.sum())
        n_displaced = int(displaced.sum())
        n_fills = int(filled.sum())
        n_wb = int(wb.sum())
        if probed is None:
            n_early = int((level == -2).sum())
            n_false = int((level == -1).sum())
            bank_probes = n_levels * (n_early + n_false) + (n_levels - 1) * n_hits
        else:
            n_early = 0
            bank_probes = int(probed.sum())
            n_false = bank_probes if self._ss_energy else 0
        totals = {
            "accesses": n_ops,
            "early_misses": n_early,
            "bank_probes": bank_probes,
            "dgroup_accesses": n_hits + 2 * (n_promoted + n_displaced) + n_wb + n_fills,
            "false_hits": n_false,
            "misses": n_ops - n_hits,
            "hits": n_hits,
            "promotions": n_promoted,
            "demotions": n_displaced,
            "moves": n_promoted + n_displaced,
            "fills": n_fills,
            "evictions": int(evicted.sum()),
            "writebacks": n_wb,
        }

        sc = self._scounts
        for name, total in totals.items():
            if total:
                sc[name] = sc.get(name, 0) + total

        levels, counts = np.unique(level[hit], return_counts=True)
        dh = self.dgroup_hits.counts
        for lv, n in zip(levels.tolist(), counts.tolist()):
            dh[lv] = dh.get(lv, 0) + n

        # Energy: per (chain, level) bank, its probes, reads, writes
        # and block moves.
        bank = chain_of * n_levels
        reads = np.bincount(bank[hit] + level[hit], minlength=n_banks)
        if probed is None:
            probes = np.repeat(np.bincount(chain_of, minlength=self._n_chains), n_levels) - reads
        else:
            probes = np.bincount(
                (bank[:, None] + np.arange(n_levels))[probed], minlength=n_banks
            )
        moves = np.bincount(
            np.concatenate(
                [bank[promoted] + level[promoted], bank[displaced] + level[displaced] - 1]
            ),
            minlength=n_banks,
        )
        insert = bank + self._insert_level
        reads += np.bincount(insert[wb], minlength=n_banks)
        writes = np.bincount(insert[filled], minlength=n_banks)
        ec = self._ecounts
        chains = self._chains
        for key, counts in (
            ("probe_key", probes), ("read_key", reads), ("write_key", writes),
            ("move_key", moves),
        ):
            for i in np.flatnonzero(counts).tolist():
                c, lv = divmod(i, n_levels)
                ec[getattr(chains[c][lv], key)] += int(counts[i])

        if self._multicast or self._ss_energy:
            ec[self._ss_key] += n_ops
            self.smart_search.lookups += n_ops
            self.smart_search.false_hits += n_false

    # --- prewarm (models the paper's 5B-instruction fast-forward) ---

    def prewarm(self) -> None:
        """Fill every way of every bank with a clean dummy block.

        Mirrors :meth:`repro.nurapid.cache.NuRAPIDCache.prewarm`: short
        traces cannot populate 8 MB, and a half-empty D-NUCA would see
        neither tail evictions nor promotion swaps.  Dummies never
        alias workload addresses and cost no writebacks.  Slot
        ``(set, position)`` receives the
        :func:`~repro.caches.block.prewarm_blocks` dummy of that set
        and way, clean, with last touch 0.
        """
        if self.resident_blocks():
            raise SimulationError("prewarm on a non-empty cache")
        n_sets, assoc = self.n_sets, self.associativity
        # Set-major, position-minor: exactly slot order.
        self._baddr[:] = prewarm_slots(n_sets, assoc, self.block_bytes)
        self._dirty[:] = bytes(len(self._dirty))
        self._touch[:] = [0] * len(self._touch)
        partials = self.smart_search.fill_all()
        # The solve writes the rows in place, so each cache has its own.
        rows = np.zeros((4, n_sets, assoc), dtype=np.int64)
        rows[_BLOCK] = prewarm_blocks(n_sets, assoc, self.block_bytes)
        rows[_PARTIAL] = partials
        self._rows = rows

    def _rows_of_lists(self) -> np.ndarray:
        """The per-slot lists as :attr:`_rows` holds them."""
        return np.array(
            [
                self._baddr,
                self.smart_search._partial,
                list(self._dirty),
                self._touch,
            ],
            dtype=np.int64,
        ).reshape(4, self.n_sets, self.associativity)

    # --- introspection ---

    @property
    def miss_rate(self) -> float:
        total = self.stats.get("accesses")
        if not total:
            return 0.0
        return self.stats.get("misses") / total

    def resident_blocks(self) -> int:
        return len(self._baddr) - self._baddr.count(EMPTY)

    def resident_block_addrs(self) -> List[int]:
        """The block address in each slot (-1 for a free way)."""
        return self._baddr

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents and bank timelines kept."""
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.smart_search.lookups = 0
        self.smart_search.false_hits = 0
        self.bank_ports.reset_totals()

    def check_invariants(self) -> None:
        """Every resident block sits once in its own set, and the
        ss-array mirrors the per-slot block addresses."""
        ss = self.smart_search
        assoc = self.associativity
        for slot, baddr in enumerate(self._baddr):
            partial = ss.partial_at(slot)
            if baddr == EMPTY:
                if partial != EMPTY:
                    raise SimulationError(f"ss-array holds a tag for empty slot {slot}")
                continue
            index = slot // assoc
            if self._set_of(baddr) != index:
                raise SimulationError(f"block {baddr:#x} in wrong set")
            if self._baddr[index * assoc : (index + 1) * assoc].count(baddr) != 1:
                raise SimulationError(f"block {baddr:#x} resident twice in set {index}")
            if self._slot_of(baddr) != slot:
                raise SimulationError(
                    f"set scan finds block {baddr:#x} at {self._slot_of(baddr)}, "
                    f"not slot {slot}"
                )
            if partial != ss.partial_tag(baddr):
                raise SimulationError(f"ss-array stale for block {baddr:#x} (slot {slot})")
