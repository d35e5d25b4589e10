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
hits at the bank's latency or misses after its tag check.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import Counter, Distribution
from repro.caches.block import block_address, prewarm_blocks, set_index
from repro.caches.level import CacheLevel
from repro.caches.port import PortArray, checked_occupancy
from repro.common.lru import LRUPolicy
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

        # Each set maps block address -> dirty flag; the tag is the key
        # itself, so no per-line object is needed.
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        self._lru: List[LRUPolicy] = [LRUPolicy() for _ in range(self.n_sets)]
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
        return baddr in self._sets[self._set_of(address)]

    # --- access path: one bank, no search ---

    def access_outcome(self, address: int, is_write: bool = False):
        """The access's outcome step: ``(hit, bank)``."""
        baddr = address & self._block_mask
        index = (address >> self._set_shift) & self._set_mask
        bi = index % self._n_banks
        sc = self._scounts
        sc["accesses"] = sc.get("accesses", 0) + 1
        resident = self._sets[index]
        if baddr not in resident:
            sc["misses"] = sc.get("misses", 0) + 1
            self._ecounts[self._k_probe[bi]] += 1
            return (False, bi)
        sc["hits"] = sc.get("hits", 0) + 1
        # Report the bank's latency tier (row) where d-groups would be.
        row = self._bank_row[bi]
        dh = self.dgroup_hits.counts
        dh[row] = dh.get(row, 0) + 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        self._lru[index].touch(baddr)
        if is_write:
            resident[baddr] = True
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
        resident = self._sets[index]
        if baddr in resident:
            return _NO_WRITEBACK
        sc = self._scounts
        sc["fills"] = sc.get("fills", 0) + 1
        bi = index % self._n_banks
        writebacks = _NO_WRITEBACK
        if len(resident) >= self.associativity:
            victim_addr = self._lru[index].pop_victim()
            victim_dirty = resident.pop(victim_addr)
            sc["evictions"] = sc.get("evictions", 0) + 1
            if victim_dirty:
                writebacks = _ONE_WRITEBACK
                sc["writebacks"] = sc.get("writebacks", 0) + 1
                self._ecounts[self._k_read[bi]] += 1
        resident[baddr] = dirty
        self._lru[index].insert(baddr)
        self._ecounts[self._k_write[bi]] += 1
        sc["dgroup_accesses"] = sc.get("dgroup_accesses", 0) + 1
        return writebacks

    # --- protocol extras ---

    def prewarm(self) -> None:
        """Fill every way with clean dummies (steady-state start)."""
        if any(self._sets):
            raise SimulationError("prewarm on a non-empty cache")
        rows = prewarm_blocks(
            self.n_sets, self.associativity, self.block_bytes
        ).tolist()
        self._sets = [dict.fromkeys(row, False) for row in rows]
        for policy, row in zip(self._lru, rows):
            policy.insert_many(row)

    def resident_block_addrs(self) -> Iterable[int]:
        """Every resident block address, set by set."""
        return chain.from_iterable(self._sets)

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
        for index, resident in enumerate(self._sets):
            if len(resident) > self.associativity:
                raise ConfigurationError(f"set {index} over associativity")
            if len(self._lru[index]) != len(resident):
                raise ConfigurationError(f"set {index} LRU/tag mismatch")
