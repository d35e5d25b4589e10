"""Repeated global-wire delay and energy.

Long on-chip wires are broken into repeated segments, making delay
linear in distance rather than quadratic; this is the regime the paper
is about ("the access latency of distant subarrays is dominated by the
long wires between the subarrays and the core", §3.3).  The model here
is the standard first-order one: a velocity (ps/mm) and a switching
energy (pJ/bit/mm), both from :class:`~repro.tech.params.TechnologyParams`.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.tech.params import TechnologyParams


class WireModel:
    """Delay and energy of optimally repeated on-chip wires."""

    def __init__(self, tech: TechnologyParams) -> None:
        self.tech = tech

    def delay_ps(self, distance_mm: float) -> float:
        """One-way signal delay over ``distance_mm`` of repeated wire."""
        if distance_mm < 0:
            raise ConfigurationError(f"distance must be non-negative, got {distance_mm}")
        return distance_mm * self.tech.wire_delay_ps_per_mm

    def round_trip_ps(self, distance_mm: float) -> float:
        """Request out + data back over the same distance."""
        return 2.0 * self.delay_ps(distance_mm)

    def energy_pj(self, distance_mm: float, bits: int) -> float:
        """Switching energy to move ``bits`` over ``distance_mm``.

        Charged once per traversal; a round trip that carries an address
        out and a data block back should be charged as two calls with
        the respective widths.
        """
        if bits < 0:
            raise ConfigurationError(f"bits must be non-negative, got {bits}")
        if distance_mm < 0:
            raise ConfigurationError(f"distance must be non-negative, got {distance_mm}")
        return distance_mm * bits * self.tech.wire_energy_pj_per_bit_mm
