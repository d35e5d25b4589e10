"""S-NUCA: the *static* non-uniform cache from Kim et al. (ASPLOS '02).

The paper's D-NUCA baseline is the dynamic variant; the original NUCA
work also defined S-NUCA-2, where each set is statically mapped to one
bank by its address — no searching, no movement, but also no way to
put hot data close.  Including it completes the NUCA lineage and gives
the ``ablation_snuca`` experiment a second reference point: how much
of D-NUCA's/NuRAPID's gain comes from *any* non-uniformity versus
from *managed placement*.

Implementation: the same 128 x 64 KB bank geometry as D-NUCA, but the
whole 16-way set lives in the single bank selected by low set-index
bits.  An access goes straight to that bank (one probe, no ss-array),
hits at the bank's latency or misses after its tag check.  State is
the flat per-way layout of the other caches: block address, dirty bit
and touch stamp per frame (``set * associativity + way``), and a fill
takes :func:`~repro.caches.block.victim_way`'s pick (true LRU).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import Counter, Distribution
from repro.caches.block import EMPTY, block_address, prewarm_slots, set_index, victim_way
from repro.caches.level import CacheLevel
from repro.caches.port import PortArray, checked_occupancy
from repro.floorplan.dgroups import DNUCAGeometry, build_dnuca_geometry
from repro.tech.energy import EnergyBook


#: Fill outcomes: no writeback, one dirty writeback (nothing to time).
_NO_WRITEBACK = (0, None)
_ONE_WRITEBACK = (1, None)


class SNUCACache(CacheLevel):
    """Statically-mapped non-uniform L2 (lower-level protocol)."""

    def __init__(
        self,
        capacity_bytes: int = 8 * 1024 * 1024,
        block_bytes: int = 128,
        associativity: int = 16,
        geometry: Optional[DNUCAGeometry] = None,
        energy: Optional[EnergyBook] = None,
        name: str = "S-NUCA",
    ) -> None:
        self.name = name
        self.block_bytes = block_bytes
        self.associativity = associativity
        blocks = capacity_bytes // block_bytes
        if blocks % associativity:
            raise ConfigurationError("capacity must hold a whole number of sets")
        self.n_sets = blocks // associativity
        if self.n_sets & (self.n_sets - 1):
            raise ConfigurationError("set count must be a power of two")
        self.geometry = geometry if geometry is not None else build_dnuca_geometry(
            capacity_bytes=capacity_bytes,
            block_bytes=block_bytes,
            associativity=associativity,
        )
        if self.n_sets % self.geometry.n_banks:
            raise ConfigurationError("sets must divide evenly over the banks")

        #: Flat per-frame state; frame = set_index * associativity + way.
        n_frames = self.n_sets * associativity
        self._blocks: List[int] = [EMPTY] * n_frames
        self._dirty = bytearray(n_frames)
        self._stamps: List[int] = [0] * n_frames
        self._clock = 0
        #: Per-bank busy-time state.
        self.bank_ports = PortArray(f"{name}.bank", self.geometry.n_banks)
        self.energy = energy if energy is not None else EnergyBook()
        for bank in self.geometry.banks:
            base = f"{name}.bank{bank.index}"
            self.energy.register(f"{base}.read", bank.read_energy_nj)
            self.energy.register(f"{base}.write", bank.write_energy_nj)
            self.energy.register(f"{base}.probe", bank.probe_energy_nj)
        self.stats = Counter()
        self.dgroup_hits = Distribution()

        # Hot-path caches: precomputed per-bank key strings and
        # latency/occupancy/row tables, plus direct views into the
        # stats/energy dicts (both reset in place, so these references
        # stay valid across reset_stats()).  Pure re-expressions of the
        # state above — counter totals and float math are bit-identical
        # to the uncached path.
        self._block_mask = ~(block_bytes - 1)
        self._set_shift = block_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1
        self._n_banks = self.geometry.n_banks
        banks = self.geometry.banks
        self._k_probe = [f"{name}.bank{b.index}.probe" for b in banks]
        self._k_read = [f"{name}.bank{b.index}.read" for b in banks]
        self._k_write = [f"{name}.bank{b.index}.write" for b in banks]
        self._bank_lat = [b.latency_cycles for b in banks]
        self._bank_occ = checked_occupancy(
            self.bank_ports.name, (b.occupancy_cycles for b in banks)
        )
        self._bank_row = [b.row for b in banks]
        self._scounts = self.stats._counts
        self._ecounts = self.energy._count

    # --- static mapping ---

    def _set_of(self, address: int) -> int:
        return set_index(address, self.block_bytes, self.n_sets)

    def bank_of_set(self, index: int):
        """The one bank a set lives in, fixed by address bits."""
        return self.geometry.banks[index % self.geometry.n_banks]

    def contains(self, address: int) -> bool:
        baddr = block_address(address, self.block_bytes)
        base = self._set_of(address) * self.associativity
        return baddr in self._blocks[base : base + self.associativity]

    # --- access path: one bank, no search ---

    def access_outcome(self, address: int, is_write: bool = False):
        """The access's outcome step: ``(hit, bank)``."""
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        bi = index % self._n_banks
        sc = self._scounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        base = index * self.associativity
        ways = self._blocks[base : base + self.associativity]
        if baddr not in ways:
            sc["misses"] = sc.get("misses", 0) + 1
            self._ecounts[self._k_probe[bi]] += 1
            return (False, bi)
        sc["hits"] = sc.get("hits", 0) + 1
        # Report the bank's latency tier (row) where d-groups would be.
        row = self._bank_row[bi]
        dh = self.dgroup_hits.counts
        dh[row] = dh.get(row, 0) + 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        frame = base + ways.index(baddr)
        self._clock += 1
        self._stamps[frame] = self._clock
        if is_write:
            self._dirty[frame] = 1
            self._ecounts[self._k_write[bi]] += 1
        else:
            self._ecounts[self._k_read[bi]] += 1
        return (True, bi)

    def access_timing(self, outcome, now: float) -> float:
        """The access's timing step: hit or miss, the one bank is
        occupied, and the latency is its wait plus its latency."""
        bi = outcome[1]
        start = self.bank_ports.claim(bi, now, self._bank_occ[bi])
        return (start - now) + self._bank_lat[bi]

    def fill_outcome(self, address: int, dirty: bool = False):
        """The fill's outcome step: ``(dirty writebacks, None)``; a
        fill takes no bank time and emits nothing."""
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        assoc = self.associativity
        base = index * assoc
        blocks = self._blocks
        if baddr in blocks[base : base + assoc]:
            return _NO_WRITEBACK
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1
        bi = index % self._n_banks
        writebacks = _NO_WRITEBACK
        frame = victim_way(blocks, self._stamps, base, assoc)
        if blocks[frame] != EMPTY:
            sc["evictions"] = sc.get("evictions", 0) + 1
            if self._dirty[frame]:
                writebacks = _ONE_WRITEBACK
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                self._ecounts[self._k_read[bi]] += 1
        blocks[frame] = baddr
        self._dirty[frame] = 1 if dirty else 0
        self._clock += 1
        self._stamps[frame] = self._clock
        self._ecounts[self._k_write[bi]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        return writebacks

    # --- protocol extras ---

    def prewarm(self) -> None:
        """Fill every way with clean dummies (steady-state start).

        The dummies all keep stamp 0, so way 0 of a set is its first
        victim, then way 1, and so on.
        """
        if self._blocks.count(EMPTY) != len(self._blocks):
            raise SimulationError("prewarm on a non-empty cache")
        self._blocks = list(prewarm_slots(self.n_sets, self.associativity, self.block_bytes))

    def resident_block_addrs(self) -> List[int]:
        """The block address in each frame (EMPTY for a free way)."""
        return self._blocks

    def reset_stats(self) -> None:
        self.stats.reset()
        self.dgroup_hits = Distribution()
        self.energy.reset_counts()
        self.bank_ports.reset_totals()

    @property
    def miss_rate(self) -> float:
        total = self.stats.get("accesses")
        if not total:
            return 0.0
        return self.stats.get("misses") / total

    def check_invariants(self) -> None:
        assoc = self.associativity
        for index in range(self.n_sets):
            ways = self._blocks[index * assoc : (index + 1) * assoc]
            resident = [b for b in ways if b != EMPTY]
            if len(set(resident)) != len(resident):
                raise SimulationError(f"set {index} holds a block twice")
            if any(self._set_of(b) != index for b in resident):
                raise SimulationError(f"set {index} holds a block of another set")
