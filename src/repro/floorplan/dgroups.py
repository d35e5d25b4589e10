"""Latency/energy geometry consumed by the cache models.

This module fuses the mini-Cacti array models with the floorplans to
produce the numbers the paper's Tables 2 and 4 report:

* :func:`build_nurapid_geometry` — a :class:`NuRAPIDGeometry` with the
  centralized tag array's latency, each d-group's data-side latency
  (array + routing around closer d-groups), and the per-operation
  energies including forward/reverse pointer overhead.
* :func:`build_dnuca_geometry` — a :class:`DNUCAGeometry` with per-bank
  latencies over the switched network, bank probe/read energies, and
  the smart-search array model.
* :func:`build_uniform_cache_spec` — conventional caches (the base
  L2/L3 hierarchy and the L1s).

All three are pure functions of hashable arguments returning frozen
dataclasses of tuples, so each is memoised: every system built for the
same design point shares one characterization instead of rerunning the
mini-Cacti organization search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.floorplan.layout import DNUCAFloorplan, NuRAPIDFloorplan
from repro.tech.cacti import MiniCacti
from repro.tech.params import TECH_70NM, TechnologyParams
from repro.tech.wires import WireModel

#: Architected physical address width (the paper quotes 51-bit tag
#: entries for a 64-bit-address 8 MB cache, i.e. tag + state bits).
ADDRESS_BITS = 64
#: Valid/dirty/coherence state per tag entry.
STATE_BITS = 3
#: Pointer + control bits accompanying an address to a d-group.
DGROUP_REQUEST_BITS = 24

#: Calibration: cycles of request sequencing / core-to-tag routing not
#: captured by the raw tag-array circuit model.  Chosen so the 8 MB
#: 8-way NuRAPID tag comes out at the paper's 8 cycles (§5.1).
TAG_SEQUENCING_CYCLES = 4


def _log2_int(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a positive power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class DGroupSpec:
    """One NuRAPID d-group, placed and characterized.

    ``data_cycles`` covers the d-group array access plus round-trip
    routing between the core and the d-group; the total hit latency is
    ``tag_cycles + data_cycles`` (sequential tag-data access).
    """

    index: int
    capacity_bytes: int
    n_frames: int
    route_mm: float
    data_cycles: int
    #: Full read as seen by the core: array + routing both ways (nJ).
    read_energy_nj: float
    write_energy_nj: float
    #: Array-only energies, used to compose swap costs.
    array_read_nj: float
    array_write_nj: float
    array_cycles: int


@dataclass(frozen=True)
class NuRAPIDGeometry:
    """Everything the NuRAPID cache model needs from the physical design."""

    tech: TechnologyParams
    capacity_bytes: int
    block_bytes: int
    associativity: int
    sets: int
    dgroups: Tuple[DGroupSpec, ...]
    tag_cycles: int
    tag_energy_nj: float
    forward_pointer_bits: int
    reverse_pointer_bits: int
    wire_energy_pj_per_bit_mm: float

    @property
    def n_dgroups(self) -> int:
        return len(self.dgroups)

    @property
    def frames_per_dgroup(self) -> int:
        return self.dgroups[0].n_frames

    def hit_latency(self, dgroup: int) -> int:
        """Cycles from access start to data, hitting in ``dgroup``."""
        self._check(dgroup)
        return self.tag_cycles + self.dgroups[dgroup].data_cycles

    def miss_latency(self) -> int:
        """Cycles to determine a miss: the tag probe alone decides."""
        return self.tag_cycles

    def data_occupancy(self, dgroup: int) -> int:
        """Cycles the (one-ported) data side is busy serving a read.

        Only the array access itself occupies the port — wires are
        pipelined — and the array's subarrays are themselves
        wave-pipelined, so a new request can start once the previous
        one's decode+wordline phase completes (about half the access).
        """
        return max(2, (self.dgroups[dgroup].array_cycles + 1) // 2)

    def swap_occupancy(self, src: int, dst: int) -> int:
        """Port-busy cycles for moving one block between d-groups.

        The source read and destination write proceed through different
        subarrays and overlap; the port is held for the slower array
        plus a transfer beat, not for the sum.
        """
        self._check(src)
        self._check(dst)
        return max(self.dgroups[src].array_cycles, self.dgroups[dst].array_cycles) + 1

    def swap_energy_nj(self, src: int, dst: int) -> float:
        """Read at src, route between the groups, write at dst."""
        self._check(src)
        self._check(dst)
        distance = abs(self.dgroups[src].route_mm - self.dgroups[dst].route_mm)
        payload_bits = self.block_bytes * 8 + self.reverse_pointer_bits
        wire_nj = distance * payload_bits * self.wire_energy_pj_per_bit_mm / 1000.0
        return self.dgroups[src].array_read_nj + self.dgroups[dst].array_write_nj + wire_nj

    def pointer_overhead_bits(self) -> int:
        """Total storage spent on forward + reverse pointers (§2.4.3)."""
        blocks = self.capacity_bytes // self.block_bytes
        return blocks * (self.forward_pointer_bits + self.reverse_pointer_bits)

    def table4_column(self) -> List[int]:
        """Total hit latency of each megabyte, fastest to slowest."""
        mb = 1024 * 1024
        per_dgroup_mb = self.dgroups[0].capacity_bytes // mb
        column = []
        for spec in self.dgroups:
            column.extend([self.tag_cycles + spec.data_cycles] * max(1, per_dgroup_mb))
        # Sub-megabyte d-groups (not used by the paper) would collapse
        # rows; guard so the column always covers the full capacity.
        total_mb = self.capacity_bytes // mb
        return column[:total_mb] if per_dgroup_mb else column

    def _check(self, dgroup: int) -> None:
        if not 0 <= dgroup < self.n_dgroups:
            raise ConfigurationError(f"d-group {dgroup} out of range")


@lru_cache(maxsize=256)
def build_nurapid_geometry(
    n_dgroups: int = 4,
    capacity_bytes: int = 8 * 1024 * 1024,
    block_bytes: int = 128,
    associativity: int = 8,
    tech: TechnologyParams = TECH_70NM,
    restricted_frames: Optional[int] = None,
    arm_width_mm: float = 4.0,
    detour_factor: float = 1.6,
) -> NuRAPIDGeometry:
    """Characterize a NuRAPID design point.

    ``restricted_frames`` enables §2.4.3's pointer-size optimization:
    each block may be placed in only that many frames per d-group,
    shrinking the forward pointer (placement restriction is enforced by
    the cache model, the geometry only sizes the pointers).
    """
    if n_dgroups <= 0:
        raise ConfigurationError("need at least one d-group")
    if capacity_bytes % (n_dgroups * block_bytes):
        raise ConfigurationError("capacity must divide evenly into d-groups of blocks")
    blocks = capacity_bytes // block_bytes
    sets = blocks // associativity
    _log2_int(sets, "number of sets")
    frames_per_dgroup = blocks // n_dgroups

    if restricted_frames is None:
        frame_choice = frames_per_dgroup
    else:
        if restricted_frames <= 0 or restricted_frames > frames_per_dgroup:
            raise ConfigurationError(
                f"restricted_frames must be in [1, {frames_per_dgroup}]"
            )
        frame_choice = restricted_frames
    forward_bits = _log2_int(n_dgroups, "n_dgroups") + max(
        1, math.ceil(math.log2(frame_choice))
    )
    reverse_bits = _log2_int(sets, "sets") + _log2_int(associativity, "associativity")

    cacti = MiniCacti(tech)
    wires = WireModel(tech)

    tag_bits = ADDRESS_BITS - _log2_int(sets, "sets") - _log2_int(block_bytes, "block")
    entry_bits = tag_bits + STATE_BITS + forward_bits
    tag_model = cacti.tag_array(sets, associativity, entry_bits, name="nurapid-tag")
    tag_cycles = tag_model.access_cycles + TAG_SEQUENCING_CYCLES

    dgroup_capacity = capacity_bytes // n_dgroups
    data_model = cacti.data_array(
        dgroup_capacity, block_bytes, name="dgroup", extra_bits_per_block=reverse_bits
    )
    floorplan = NuRAPIDFloorplan(
        [data_model.area_mm2] * n_dgroups,
        arm_width_mm=arm_width_mm,
        detour_factor=detour_factor,
    )

    payload_bits = block_bytes * 8 + reverse_bits
    specs = []
    for placed in floorplan.placed:
        route = placed.route_mm
        route_ps = wires.round_trip_ps(route)
        data_cycles = tech.ps_to_cycles(data_model.access_time_ps + route_ps)
        wire_nj = (
            wires.energy_pj(route, DGROUP_REQUEST_BITS)
            + wires.energy_pj(route, payload_bits)
        ) / 1000.0
        specs.append(
            DGroupSpec(
                index=placed.index,
                capacity_bytes=dgroup_capacity,
                n_frames=frames_per_dgroup,
                route_mm=route,
                data_cycles=data_cycles,
                read_energy_nj=data_model.read_energy_nj + wire_nj,
                write_energy_nj=data_model.write_energy_pj() / 1000.0 + wire_nj,
                array_read_nj=data_model.read_energy_nj,
                array_write_nj=data_model.write_energy_pj() / 1000.0,
                array_cycles=data_model.access_cycles,
            )
        )

    return NuRAPIDGeometry(
        tech=tech,
        capacity_bytes=capacity_bytes,
        block_bytes=block_bytes,
        associativity=associativity,
        sets=sets,
        dgroups=tuple(specs),
        tag_cycles=tag_cycles,
        tag_energy_nj=tag_model.read_energy_nj,
        forward_pointer_bits=forward_bits,
        reverse_pointer_bits=reverse_bits,
        wire_energy_pj_per_bit_mm=tech.wire_energy_pj_per_bit_mm,
    )


@dataclass(frozen=True)
class BankSpec:
    """One D-NUCA bank: grid position, latency, and energies."""

    index: int
    row: int
    col: int
    hops: int
    #: Round-trip hit latency: network there and back plus bank access.
    latency_cycles: int
    #: Tag-only probe (search step that misses in this bank), nJ.
    probe_energy_nj: float
    #: Full hit: probe + data read + block routed back, nJ.
    read_energy_nj: float
    write_energy_nj: float
    #: Moving a block one hop toward the core (a swap leg), nJ.
    swap_energy_nj: float
    occupancy_cycles: int


@dataclass(frozen=True)
class DNUCAGeometry:
    """Everything the D-NUCA cache model needs from the physical design."""

    tech: TechnologyParams
    capacity_bytes: int
    block_bytes: int
    associativity: int
    sets: int
    rows: int
    cols: int
    banks: Tuple[BankSpec, ...]
    chain_length: int
    ways_per_bank: int
    ss_latency_cycles: int
    ss_energy_nj: float
    ss_partial_bits: int

    @property
    def n_banks(self) -> int:
        return len(self.banks)

    @property
    def n_chains(self) -> int:
        return self.cols

    def chain_bank(self, chain: int, level: int) -> BankSpec:
        """Bank at depth ``level`` (0 = closest) of a bank-set chain.

        A chain is a column of the grid: level 0 is the row nearest the
        core, so bubble promotion moves blocks down the column.
        """
        if not 0 <= chain < self.cols:
            raise ConfigurationError(f"chain {chain} out of range")
        if not 0 <= level < self.chain_length:
            raise ConfigurationError(f"level {level} out of range")
        return self.banks[level * self.cols + chain]

    def table4_column(self) -> List[Tuple[int, int, float]]:
        """(min, max, mean) latency per megabyte, fastest banks first."""
        mb_banks = (1024 * 1024) // (self.capacity_bytes // self.n_banks)
        ordered = sorted(self.banks, key=lambda b: (b.latency_cycles, b.index))
        column = []
        for start in range(0, self.n_banks, mb_banks):
            chunk = ordered[start : start + mb_banks]
            lats = [b.latency_cycles for b in chunk]
            column.append((min(lats), max(lats), sum(lats) / len(lats)))
        return column


@lru_cache(maxsize=256)
def build_dnuca_geometry(
    capacity_bytes: int = 8 * 1024 * 1024,
    block_bytes: int = 128,
    associativity: int = 16,
    bank_bytes: int = 64 * 1024,
    chain_length: int = 8,
    tech: TechnologyParams = TECH_70NM,
    router_cycles_per_hop: float = 0.7,
    ss_partial_bits: int = 7,
    ss_energy_factor: float = 10.0,
) -> DNUCAGeometry:
    """Characterize the paper's D-NUCA baseline.

    Defaults follow §4: 8 MB, 16-way, 128 x 64 KB banks, 8 d-groups per
    set (so each of the 16 chain columns holds 8 banks of 2 ways each),
    and a 7-bit-per-entry smart-search array.
    """
    if capacity_bytes % bank_bytes:
        raise ConfigurationError("capacity must be a whole number of banks")
    n_banks = capacity_bytes // bank_bytes
    if n_banks % chain_length:
        raise ConfigurationError("banks must divide evenly into chains")
    cols = n_banks // chain_length
    rows = chain_length
    ways_per_bank = associativity // chain_length
    if ways_per_bank * chain_length != associativity:
        raise ConfigurationError("associativity must divide evenly across the chain")
    blocks = capacity_bytes // block_bytes
    sets = blocks // associativity

    cacti = MiniCacti(tech)
    # Bank data side plus the bank's local tag slice; D-NUCA accesses
    # tag and data in parallel within a bank (§5.1).
    bank_sets = bank_bytes // block_bytes // ways_per_bank
    tag_bits = ADDRESS_BITS - max(1, math.ceil(math.log2(sets))) - _log2_int(
        block_bytes, "block"
    ) + STATE_BITS
    bank_data = cacti.data_array(bank_bytes, block_bytes, name="nuca-bank")
    bank_tag = cacti.tag_array(bank_sets, ways_per_bank, tag_bits, name="nuca-bank-tag")

    floorplan = DNUCAFloorplan(
        rows=rows,
        cols=cols,
        bank_width_mm=math.sqrt(bank_data.area_mm2 + bank_tag.area_mm2),
        bank_height_mm=math.sqrt(bank_data.area_mm2 + bank_tag.area_mm2),
        tech=tech,
        router_cycles_per_hop=router_cycles_per_hop,
    )

    bank_access_cycles = max(bank_data.access_cycles, bank_tag.access_cycles)
    block_bits = block_bytes * 8
    address_hop_nj = floorplan.hop_energy_nj(ADDRESS_BITS)
    data_hop_nj = floorplan.hop_energy_nj(block_bits)

    banks = []
    for index in range(n_banks):
        row, col = floorplan.bank_position(index)
        hops = floorplan.hops(index)
        latency = bank_access_cycles + floorplan.network_cycles(index)
        probe = bank_tag.read_energy_nj + hops * address_hop_nj
        read = probe + bank_data.read_energy_nj + hops * data_hop_nj
        write = probe + bank_data.write_energy_pj() / 1000.0 + hops * data_hop_nj
        swap = (
            bank_data.read_energy_nj
            + bank_data.write_energy_pj() / 1000.0
            + data_hop_nj
        )
        banks.append(
            BankSpec(
                index=index,
                row=row,
                col=col,
                hops=hops,
                latency_cycles=latency,
                probe_energy_nj=probe,
                read_energy_nj=read,
                write_energy_nj=write,
                swap_energy_nj=swap,
                # Small banks are internally pipelined: a new request
                # can enter every cycle or two even though the access
                # itself takes bank_access_cycles.
                occupancy_cycles=max(1, bank_access_cycles // 2),
            )
        )

    # Smart-search array: ss_partial_bits per way, all ways of a set
    # read per probe.  The paper grants it infinite bandwidth, i.e. an
    # aggressively multiported implementation whose port replication
    # multiplies access energy (ss_energy_factor calibrates to the
    # paper's 0.19 nJ).
    ss_model = cacti.tag_array(sets, associativity, ss_partial_bits, name="ss-array")

    return DNUCAGeometry(
        tech=tech,
        capacity_bytes=capacity_bytes,
        block_bytes=block_bytes,
        associativity=associativity,
        sets=sets,
        rows=rows,
        cols=cols,
        banks=tuple(banks),
        chain_length=chain_length,
        ways_per_bank=ways_per_bank,
        ss_latency_cycles=ss_model.access_cycles,
        ss_energy_nj=ss_model.read_energy_nj * ss_energy_factor,
        ss_partial_bits=ss_partial_bits,
    )


@dataclass(frozen=True)
class UniformCacheSpec:
    """A conventional uniform-access cache (base L1/L2/L3)."""

    name: str
    capacity_bytes: int
    block_bytes: int
    associativity: int
    latency_cycles: int
    read_energy_nj: float
    write_energy_nj: float
    tag_energy_nj: float


@lru_cache(maxsize=256)
def build_uniform_cache_spec(
    name: str,
    capacity_bytes: int,
    block_bytes: int,
    associativity: int,
    latency_cycles: Optional[int] = None,
    sequential_tag_data: bool = True,
    ports: int = 1,
    tech: TechnologyParams = TECH_70NM,
    energy_factor: float = 1.0,
) -> UniformCacheSpec:
    """Characterize a conventional cache.

    ``latency_cycles`` may be pinned to the paper's quoted value (11
    for the base L2, 43 for the base L3, 3 for the L1s); energies are
    always mini-Cacti-derived.  Parallel tag-data access (L1s) reads
    all ways' data alongside the tags; sequential access (large lower-
    level caches) reads the matching way only — the paper's problem (1).
    """
    blocks = capacity_bytes // block_bytes
    sets = blocks // associativity
    tag_bits = (
        ADDRESS_BITS
        - max(1, math.ceil(math.log2(sets)))
        - _log2_int(block_bytes, "block")
        + STATE_BITS
    )
    cacti = MiniCacti(tech)
    tag = cacti.tag_array(sets, associativity, tag_bits, name=f"{name}-tag")
    data = cacti.data_array(capacity_bytes, block_bytes, name=f"{name}-data")
    if sequential_tag_data:
        read = tag.read_energy_nj + data.read_energy_nj
        latency = tag.access_cycles + data.access_cycles
    else:
        way_data = cacti.data_array(
            max(block_bytes, capacity_bytes // associativity), block_bytes
        )
        read = tag.read_energy_nj + associativity * way_data.read_energy_nj
        latency = max(tag.access_cycles, data.access_cycles)
    read *= ports * energy_factor
    write = read * 1.15
    if latency_cycles is not None:
        latency = latency_cycles
    return UniformCacheSpec(
        name=name,
        capacity_bytes=capacity_bytes,
        block_bytes=block_bytes,
        associativity=associativity,
        latency_cycles=latency,
        read_energy_nj=read,
        write_energy_nj=write,
        tag_energy_nj=tag.read_energy_nj * ports * energy_factor,
    )
