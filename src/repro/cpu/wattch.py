"""Wattch-style whole-processor energy accounting (§4).

The paper replaces Wattch's cache model with Cacti-derived energies
and keeps Wattch for everything else; here "everything else" is an
activity-based model with two constants: energy per committed
instruction (datapath, rename, RUU/LSQ, ALUs, result buses) and energy
per cycle (clock tree and always-on structures).  Cache energies come
from the per-cache :class:`~repro.tech.energy.EnergyBook` s, so the
cache share of processor energy — the quantity the paper's
energy-delay claim (§5.4.2) rides on — is exactly what the cache
models consumed.

Absolute wattage is not meaningful here (nor in the paper's relative
results); the constants are chosen so a D-NUCA-class L2 consumes on
the order of a tenth of processor energy, consistent with the paper's
7% energy-delay improvement deriving mostly from a 77% L2 energy
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ProcessorEnergyModel:
    """Per-activity energies for the non-cache processor."""

    core_nj_per_instruction: float = 0.25
    core_nj_per_cycle: float = 0.15

    def __post_init__(self) -> None:
        if self.core_nj_per_instruction < 0 or self.core_nj_per_cycle < 0:
            raise ConfigurationError("energies must be non-negative")

    def core_energy_nj(self, instructions: int, cycles: float) -> float:
        if instructions < 0 or cycles < 0:
            raise ConfigurationError("activity counts must be non-negative")
        return (
            instructions * self.core_nj_per_instruction
            + cycles * self.core_nj_per_cycle
        )
