"""Placed floorplans for the two non-uniform organizations.

*NuRAPID* (paper Figure 3b): the processor core sits in the corner of
an L-shaped region; a few large d-groups are laid out along the L in
order of latency.  Routing to d-group *i* must go around d-groups
0..i-1, so distance accumulates along the chain.

*D-NUCA* (paper Figure 3a): 128 small 64 KB banks in a rectangular
grid in front of the core, connected by a switched network; latency
grows with hop count.

Both floorplans are parameterized by calibration constants (arm width,
detour factor, router delay) chosen so derived latencies land near the
paper's Table 4; see ``tests/test_floorplan.py`` for the bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.floorplan.geometry import Rect
from repro.tech.params import TECH_70NM, TechnologyParams
from repro.tech.wires import WireModel


@dataclass
class PlacedArray:
    """One array (d-group or bank) with its position and route length."""

    index: int
    rect: Rect
    #: One-way routed distance from the core's cache port to this
    #: array's *near edge*, in mm (already includes any detour).  The
    #: array's internal H-tree distribution is part of the array model,
    #: so measuring to the edge avoids double-counting.
    route_mm: float


class NuRAPIDFloorplan:
    """L-shaped chain placement of d-groups around the core.

    D-groups are modeled as strips of ``arm_width_mm`` depth laid along
    the L; the route to d-group *i* runs past all closer d-groups.  The
    ``detour_factor`` accounts for rectilinear routing not following
    the straight chain (channel jogs, bends at the L's corner).
    """

    def __init__(
        self,
        dgroup_areas_mm2: Sequence[float],
        arm_width_mm: float = 4.0,
        detour_factor: float = 1.6,
        core_offset_mm: float = 0.3,
    ) -> None:
        if not dgroup_areas_mm2:
            raise ConfigurationError("at least one d-group required")
        if any(a <= 0 for a in dgroup_areas_mm2):
            raise ConfigurationError("d-group areas must be positive")
        if arm_width_mm <= 0 or detour_factor < 1.0 or core_offset_mm < 0:
            raise ConfigurationError("invalid floorplan calibration constants")
        self.arm_width_mm = arm_width_mm
        self.detour_factor = detour_factor
        self.core_offset_mm = core_offset_mm
        self.placed = self._place(list(dgroup_areas_mm2))

    def _place(self, areas: List[float]) -> List[PlacedArray]:
        spans = [area / self.arm_width_mm for area in areas]
        # The L bends once; give the first leg half the total chain
        # length so the shape is a genuine L rather than a bar.
        total_span = sum(spans)
        first_leg = total_span / 2.0
        placed: List[PlacedArray] = []
        chain_pos = 0.0
        for index, span in enumerate(spans):
            route = (self.core_offset_mm + chain_pos) * self.detour_factor
            rect = self._chain_rect(chain_pos, span, first_leg)
            placed.append(PlacedArray(index=index, rect=rect, route_mm=route))
            chain_pos += span
        return placed

    def _chain_rect(self, start: float, span: float, first_leg: float) -> Rect:
        """Map a chain interval to a rectangle on one of the L's legs.

        A strip straddling the bend is drawn on the first leg (the
        route distance, which is what matters, uses chain position).
        """
        w = self.arm_width_mm
        if start < first_leg:
            return Rect(x=start, y=0.0, width=span, height=w)
        return Rect(x=first_leg, y=w + (start - first_leg), width=w, height=span)


class DNUCAFloorplan:
    """Rectangular grid of identical banks in front of the core.

    The core sits centered below row 0.  A request to bank (row, col)
    travels ``row + 1`` vertical hops plus the horizontal offset from
    the center column; each hop crosses one bank pitch of wire and one
    network switch.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        bank_width_mm: float,
        bank_height_mm: float,
        tech: TechnologyParams = TECH_70NM,
        router_cycles_per_hop: float = 1.0,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError("grid dimensions must be positive")
        if bank_width_mm <= 0 or bank_height_mm <= 0:
            raise ConfigurationError("bank dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.bank_width_mm = bank_width_mm
        self.bank_height_mm = bank_height_mm
        self.tech = tech
        self.wires = WireModel(tech)
        self.router_cycles_per_hop = router_cycles_per_hop

    @property
    def n_banks(self) -> int:
        return self.rows * self.cols

    def bank_position(self, bank: int) -> Tuple[int, int]:
        """(row, col) of a bank index, row 0 closest to the core."""
        self._check_bank(bank)
        return divmod(bank, self.cols)[0], bank % self.cols

    def hops(self, bank: int) -> int:
        """Network hops from the core's port to the bank."""
        row, col = self.bank_position(bank)
        center = (self.cols - 1) / 2.0
        return (row + 1) + int(round(abs(col - center)))

    def wire_mm(self, bank: int) -> float:
        """One-way wire length along the hop path."""
        row, col = self.bank_position(bank)
        center = (self.cols - 1) / 2.0
        return (row + 1) * self.bank_height_mm + abs(col - center) * self.bank_width_mm

    def network_cycles(self, bank: int) -> int:
        """Round-trip network latency (switches + wire) in cycles."""
        wire_ps = self.wires.round_trip_ps(self.wire_mm(bank))
        switch_ps = 2 * self.hops(bank) * self.router_cycles_per_hop * self.tech.cycle_ps
        return self.tech.ps_to_cycles(wire_ps + switch_ps)

    def hop_energy_nj(self, payload_bits: int) -> float:
        """Energy to move a payload one hop (wire only).

        The paper explicitly credits D-NUCA with zero switch energy
        ("we assume that the switched network switches consume zero
        energy", §4); we reproduce that idealization.
        """
        pitch = (self.bank_width_mm + self.bank_height_mm) / 2.0
        return self.wires.energy_pj(pitch, payload_bits) / 1000.0

    def _check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.n_banks:
            raise ConfigurationError(
                f"bank {bank} out of range for {self.rows}x{self.cols} grid"
            )
