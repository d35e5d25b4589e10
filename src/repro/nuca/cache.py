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
arrays (block address, dirty bit, last touch), and one dict maps each
resident block address to its slot — a block maps to exactly one set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import CacheTelemetry
from repro.common.stats import Counter, Distribution
from repro.common.types import AccessResult
from repro.caches.block import block_address, set_index
from repro.caches.port import PortScheduler
from repro.floorplan.dgroups import DNUCAGeometry, build_dnuca_geometry
from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.nuca.smart_search import EMPTY, SmartSearchArray
from repro.tech.energy import EnergyBook


class _Bank(NamedTuple):
    """One bank's hot-path constants, resolved once at construction."""

    port: PortScheduler
    occupancy: int
    latency: int
    probe_key: str
    probe_nj: float
    read_key: str
    read_nj: float
    write_key: str
    move_key: str


class DNUCACache:
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
        #: resident block address -> slot.
        self._where: Dict[int, int] = {}
        self._clock = 0
        self._ports = [PortScheduler(f"{self.name}.bank{i}") for i in range(self.geometry.n_banks)]

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
        compute identically, so energies, latencies, counter totals
        and key insertion order match the uncached path bit for bit.
        """
        geo = self.geometry
        cost = self.energy.cost
        banks = []
        for bank in geo.banks:
            base = f"{self.name}.bank{bank.index}"
            banks.append(
                _Bank(
                    port=self._ports[bank.index],
                    occupancy=bank.occupancy_cycles,
                    latency=bank.latency_cycles,
                    probe_key=f"{base}.probe",
                    probe_nj=cost(f"{base}.probe"),
                    read_key=f"{base}.read",
                    read_nj=cost(f"{base}.read"),
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
        self._n_chains = geo.n_chains
        self._all_levels = list(range(self.config.chain_length))
        self._insert_level = (
            self.config.chain_length - 1 if self.config.tail_insertion else 0
        )
        self._ss_key = f"{self.name}.ss_probe"
        self._ss_nj = cost(self._ss_key)
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

    def contains(self, address: int) -> bool:
        return (address & self._block_mask) in self._where

    def level_of(self, address: int) -> Optional[int]:
        slot = self._where.get(address & self._block_mask)
        if slot is None:
            return None
        return slot % self.associativity // self.ways_per_bank

    # --- the access path ---

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        sc = self._scounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        self._clock += 1

        policy = self.config.policy
        energy = 0.0
        if policy is not SearchPolicy.INCREMENTAL:
            energy += self._ss_nj
            self._ecounts[self._ss_key] += 1
            candidates = self.smart_search.candidate_levels(index, baddr)
        else:
            candidates = self._all_levels

        slot = self._where.get(baddr)
        actual_level = (
            None if slot is None else slot % self.associativity // self.ways_per_bank
        )
        chain = self._chains[index % self._n_chains]

        if policy is SearchPolicy.SS_PERFORMANCE:
            result = self._access_multicast(chain, actual_level, candidates, now, energy)
        else:
            result = self._access_sequential(
                chain, actual_level, candidates, now, energy, policy
            )

        if result.hit:
            assert slot is not None and actual_level is not None
            sc["hits"] = sc.get("hits", 0) + 1
            self.dgroup_hits.add(actual_level)
            self._touch[slot] = self._clock
            if is_write:
                self._dirty[slot] = 1
            if self.telemetry is not None:
                self.telemetry.on_access(baddr, True, actual_level, result.latency)
            if actual_level > 0 and self.config.promote_on_hit:
                self._promote(index, slot, now + result.latency)
        else:
            sc["misses"] = sc.get("misses", 0) + 1
            if self.telemetry is not None:
                self.telemetry.on_access(baddr, False, None, result.latency)
        return result

    def _access_multicast(
        self,
        chain: Tuple[_Bank, ...],
        actual_level: Optional[int],
        candidates: List[int],
        now: float,
        energy: float,
    ) -> AccessResult:
        """ss-performance: search every bank; ss-array detects misses early."""
        sc = self._scounts
        ec = self._ecounts
        if actual_level is None and not candidates:
            # Early miss: no partial match, no bank is touched for data,
            # but the multicast has already gone out in this policy.
            sc["early_misses"] = sc.get("early_misses", 0) + 1
            for bank in chain:
                bank.port.request(now, bank.occupancy)
                ec[bank.probe_key] += 1
                sc["bank_probes"] = sc.get("bank_probes", 0) + 1
            return AccessResult(
                hit=False, latency=self._ss_latency, level=self.name, energy_nj=energy
            )

        worst = 0.0
        hit_response = 0.0
        for level, bank in enumerate(chain):
            port, occupancy, latency, probe_key, probe_nj, read_key, read_nj, _, _ = bank
            start = port.request(now, occupancy)[0]
            response = (start - now) + latency
            if level == actual_level:
                energy += read_nj
                ec[read_key] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                hit_response = response
            else:
                energy += probe_nj
                ec[probe_key] += 1
                sc["bank_probes"] = sc.get("bank_probes", 0) + 1
            if response > worst:  # == max(worst, response)
                worst = response

        if actual_level is not None:
            return AccessResult(
                hit=True,
                latency=hit_response,
                level=self.name,
                dgroup=actual_level,
                energy_nj=energy,
            )
        # Partial match that wasn't the block: the miss is known only
        # when the slowest probe returns.
        self.smart_search.note_false_hit()
        sc["false_hits"] = sc.get("false_hits", 0) + 1
        return AccessResult(hit=False, latency=worst, level=self.name, energy_nj=energy)

    def _access_sequential(
        self,
        chain: Tuple[_Bank, ...],
        actual_level: Optional[int],
        candidates: List[int],
        now: float,
        energy: float,
        policy: SearchPolicy,
    ) -> AccessResult:
        """ss-energy / incremental: probe candidate banks nearest first."""
        sc = self._scounts
        ec = self._ecounts
        ss_energy = policy is SearchPolicy.SS_ENERGY
        elapsed = self._ss_latency if ss_energy else 0.0
        for level in candidates:
            port, occupancy, latency, probe_key, probe_nj, read_key, read_nj, _, _ = chain[level]
            arrival = now + elapsed
            start = port.request(arrival, occupancy)[0]
            response = (start - arrival) + latency
            if level == actual_level:
                energy += read_nj
                ec[read_key] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                return AccessResult(
                    hit=True,
                    latency=elapsed + response,
                    level=self.name,
                    dgroup=actual_level,
                    energy_nj=energy,
                )
            energy += probe_nj
            ec[probe_key] += 1
            sc["bank_probes"] = sc.get("bank_probes", 0) + 1
            if ss_energy:
                self.smart_search.note_false_hit()
                sc["false_hits"] = sc.get("false_hits", 0) + 1
            elapsed += response
        return AccessResult(hit=False, latency=elapsed, level=self.name, energy_nj=energy)

    # --- bubble promotion ---

    def _victim_slot(self, first: int) -> int:
        """Free way of the level whose first slot is ``first`` if any,
        else its LRU way (the first way wins ties)."""
        end = first + self.ways_per_bank
        ways = self._baddr[first:end]
        if EMPTY in ways:
            return first + ways.index(EMPTY)
        touches = self._touch[first:end]
        return first + touches.index(min(touches))

    def _promote(self, index: int, slot: int, now: float) -> None:
        """Swap one level closer to the core (generational promotion)."""
        wpb = self.ways_per_bank
        level = slot % self.associativity // wpb
        target = level - 1
        peer = self._victim_slot(index * self.associativity + target * wpb)
        baddrs = self._baddr
        moving = baddrs[slot]
        displaced = baddrs[peer]

        # The block's dirty bit and recency travel with it.
        baddrs[peer], baddrs[slot] = moving, displaced
        dirty = self._dirty
        dirty[peer], dirty[slot] = dirty[slot], dirty[peer]
        touch = self._touch
        touch[peer], touch[slot] = touch[slot], touch[peer]
        self._where[moving] = peer
        if displaced != EMPTY:
            self._where[displaced] = slot
        self.smart_search.move(slot, peer)

        sc = self._scounts
        sc["promotions"] = sc.get("promotions", 0) + 1
        if self.telemetry is not None:
            self.telemetry.event(
                "promotion", addr=moving, src=level, dst=target, cycle=now
            )
        chain = self._chains[index % self._n_chains]
        self._charge_move(chain[level], chain[target], now)
        if displaced != EMPTY:
            sc["demotions"] = sc.get("demotions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "demotion",
                    addr=displaced,
                    src=target,
                    dst=level,
                    cycle=now,
                )
            self._charge_move(chain[target], chain[level], now)

    def _charge_move(self, src: _Bank, dst: _Bank, now: float) -> None:
        # One block move: read at the source, write at the destination,
        # one network hop in between (charged in the bank's move op).
        self._ecounts[src.move_key] += 1
        sc = self._scounts
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 2
        sc["moves"] = sc.get("moves", 0) + 1
        src.port.request(now, src.occupancy)
        dst.port.request(now, dst.occupancy)

    # --- fills (tail insertion + slowest-way eviction) ---

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> int:
        baddr = address & self._block_mask
        if baddr in self._where:
            return 0
        index = (address >> self._set_shift) & self._set_mask
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1
        self._clock += 1
        insert_level = self._insert_level
        bank = self._chains[index % self._n_chains][insert_level]

        writebacks = 0
        slot = self._victim_slot(
            index * self.associativity + insert_level * self.ways_per_bank
        )
        old = self._baddr[slot]
        if old != EMPTY:
            # Evict the slowest (or fastest, under head insertion) way.
            del self._where[old]
            self.smart_search.remove(slot)
            sc["evictions"] = sc.get("evictions", 0) + 1
            if self.telemetry is not None:
                self.telemetry.event(
                    "eviction", addr=old, dgroup=insert_level, cycle=now
                )
            if self._dirty[slot]:
                writebacks = 1
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                self._ecounts[bank.read_key] += 1
                sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
                if self.telemetry is not None:
                    self.telemetry.event(
                        "writeback", addr=old, dgroup=insert_level, cycle=now
                    )

        self._baddr[slot] = baddr
        self._dirty[slot] = 1 if dirty else 0
        self._touch[slot] = self._clock
        self._where[baddr] = slot
        self.smart_search.insert(slot, baddr)
        self._ecounts[bank.write_key] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        if self.telemetry is not None:
            self.telemetry.event(
                "placement", addr=baddr, dgroup=insert_level, cycle=now
            )
        return writebacks

    # --- prewarm (models the paper's 5B-instruction fast-forward) ---

    PREWARM_BASE = 1 << 45

    def prewarm(self) -> None:
        """Fill every way of every bank with a clean dummy block.

        Mirrors :meth:`repro.nurapid.cache.NuRAPIDCache.prewarm`: short
        traces cannot populate 8 MB, and a half-empty D-NUCA would see
        neither tail evictions nor promotion swaps.  Dummies never
        alias workload addresses and cost no writebacks.  Slot
        ``(set, position)`` receives block
        ``PREWARM_BASE + (position * n_sets + set) * block_bytes``,
        clean, with last touch 0.
        """
        if self.resident_blocks():
            raise SimulationError("prewarm on a non-empty cache")
        n_sets, bb = self.n_sets, self.block_bytes
        sets = np.arange(n_sets, dtype=np.int64)[:, None]
        positions = np.arange(self.associativity, dtype=np.int64)[None, :]
        # Set-major, position-minor: exactly slot order.
        blocks = (self.PREWARM_BASE + (positions * n_sets + sets) * bb).ravel()
        self._baddr[:] = blocks.tolist()
        self._dirty[:] = bytes(len(self._dirty))
        self._touch[:] = [0] * len(self._touch)
        self._where.update(zip(self._baddr, range(len(self._baddr))))
        self.smart_search.fill_all(blocks)

    # --- introspection ---

    @property
    def bank_ports(self):
        """The per-bank schedulers (telemetry reads queue pressure here)."""
        return self._ports

    @property
    def miss_rate(self) -> float:
        total = self.stats.get("accesses")
        if not total:
            return 0.0
        return self.stats.get("misses") / total

    def resident_blocks(self) -> int:
        return len(self._where)

    def reset_stats(self) -> None:
        """Zero counters after warmup; contents and bank timelines kept."""
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.smart_search.lookups = 0
        self.smart_search.false_hits = 0
        for port in self._ports:
            port.total_busy = 0.0
            port.total_wait = 0.0
            port.grants = 0

    def check_invariants(self) -> None:
        """The where-map, the ss-array and the resident count all agree
        with the per-slot block addresses."""
        ss = self.smart_search
        occupied = 0
        for slot, baddr in enumerate(self._baddr):
            partial = ss.partial_at(slot)
            if baddr == EMPTY:
                if partial != EMPTY:
                    raise SimulationError(f"ss-array holds a tag for empty slot {slot}")
                continue
            occupied += 1
            if self._where.get(baddr) != slot:
                raise SimulationError(
                    f"slot {slot} holds block {baddr:#x} but the map says "
                    f"{self._where.get(baddr)}"
                )
            if self._set_of(baddr) != slot // self.associativity:
                raise SimulationError(f"block {baddr:#x} in wrong set")
            if partial != ss.partial_tag(baddr):
                raise SimulationError(f"ss-array stale for block {baddr:#x} (slot {slot})")
        if occupied != len(self._where):
            raise SimulationError(
                f"{len(self._where)} mapped blocks but {occupied} occupied slots"
            )
