"""Static (leakage) power model for the cache arrays.

The paper evaluates dynamic energy only, but at 70 nm leakage was
already a first-order concern, and NuRAPID's few-large-d-group
organization admits a natural extension the paper leaves as future
work: gating the sleep transistors of far d-groups that hold only cold
data.  This module provides the substrate — per-bit leakage power,
per-array totals, temperature dependence, and a gating model — used by
the ``ablation_leakage`` experiment.

The baseline per-bit leakage is representative of 70 nm high-VT SRAM;
relative comparisons (gated vs ungated, NuRAPID vs D-NUCA tag
overheads) are the meaningful outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.common.errors import ConfigurationError
from repro.tech.params import TECH_70NM, TechnologyParams


@dataclass(frozen=True)
class LeakageParams:
    """Leakage behaviour of the SRAM arrays."""

    #: Leakage power per storage bit at the reference temperature (nW).
    nw_per_bit: float = 0.02
    #: Reference junction temperature (Kelvin).
    reference_temp_k: float = 353.0
    #: Exponential temperature sensitivity: leakage doubles every
    #: ``doubling_k`` Kelvin (a standard first-order subthreshold fit).
    doubling_k: float = 25.0
    #: Fraction of leakage that remains when an array sleeps (drowsy /
    #: gated-VDD retention mode).
    gated_fraction: float = 0.08

    def __post_init__(self) -> None:
        if self.nw_per_bit < 0 or self.doubling_k <= 0:
            raise ConfigurationError("invalid leakage parameters")
        if not 0.0 <= self.gated_fraction <= 1.0:
            raise ConfigurationError("gated_fraction must be in [0, 1]")

    def scale_for_temperature(self, temp_k: float) -> float:
        """Multiplier on leakage at ``temp_k`` vs the reference."""
        if temp_k <= 0:
            raise ConfigurationError("temperature must be positive Kelvin")
        return 2.0 ** ((temp_k - self.reference_temp_k) / self.doubling_k)


class LeakageModel:
    """Leakage accounting for a set of named arrays."""

    def __init__(
        self,
        params: LeakageParams = LeakageParams(),
        tech: TechnologyParams = TECH_70NM,
    ) -> None:
        self.params = params
        self.tech = tech
        self._array_bits: Dict[str, int] = {}
        self._gated: Dict[str, bool] = {}

    def add_array(self, name: str, bits: int) -> None:
        if bits <= 0:
            raise ConfigurationError(f"array {name!r} needs positive bits")
        if name in self._array_bits:
            raise ConfigurationError(f"duplicate array {name!r}")
        self._array_bits[name] = bits
        self._gated[name] = False

    def set_gated(self, name: str, gated: bool) -> None:
        if name not in self._array_bits:
            raise ConfigurationError(f"unknown array {name!r}")
        self._gated[name] = gated

    def power_nw(self, temp_k: float = 353.0) -> float:
        """Total leakage power in nanowatts at ``temp_k``."""
        scale = self.params.scale_for_temperature(temp_k)
        total = 0.0
        for name, bits in self._array_bits.items():
            per = bits * self.params.nw_per_bit * scale
            if self._gated[name]:
                per *= self.params.gated_fraction
            total += per
        return total

    def energy_nj(self, cycles: float, temp_k: float = 353.0) -> float:
        """Leakage energy over ``cycles`` at the technology's clock."""
        if cycles < 0:
            raise ConfigurationError("cycles must be non-negative")
        seconds = cycles * self.tech.cycle_ps * 1e-12
        return self.power_nw(temp_k) * seconds  # nW * s = nJ

    def arrays(self) -> Sequence[str]:
        return sorted(self._array_bits)


def nurapid_leakage_model(
    capacity_bytes: int = 8 * 1024 * 1024,
    block_bytes: int = 128,
    n_dgroups: int = 4,
    pointer_bits_per_block: int = 32,
    params: LeakageParams = LeakageParams(),
) -> LeakageModel:
    """A leakage model with one array per d-group plus the tag array.

    Pointer overhead (forward + reverse, §2.4.3) leaks too; it is
    charged to the arrays that store it.
    """
    if capacity_bytes % (n_dgroups * block_bytes):
        raise ConfigurationError("capacity must divide into d-groups of blocks")
    model = LeakageModel(params)
    blocks = capacity_bytes // block_bytes
    per_dgroup_bits = (capacity_bytes // n_dgroups) * 8 + (
        blocks // n_dgroups
    ) * (pointer_bits_per_block // 2)
    for group in range(n_dgroups):
        model.add_array(f"dgroup{group}", per_dgroup_bits)
    tag_bits = blocks * (48 + pointer_bits_per_block // 2)
    model.add_array("tag", tag_bits)
    return model


def gating_savings(
    model: LeakageModel, gate_from_dgroup: int, n_dgroups: int, temp_k: float = 353.0
) -> float:
    """Fractional leakage saved by gating d-groups >= ``gate_from_dgroup``.

    The future-work extension: far d-groups mostly hold demoted, cold
    blocks; retention-mode gating keeps their contents while cutting
    their leakage to ``gated_fraction``.
    """
    if not 0 <= gate_from_dgroup <= n_dgroups:
        raise ConfigurationError("gate boundary out of range")
    baseline = model.power_nw(temp_k)
    for group in range(n_dgroups):
        model.set_gated(f"dgroup{group}", group >= gate_from_dgroup)
    gated = model.power_nw(temp_k)
    for group in range(n_dgroups):
        model.set_gated(f"dgroup{group}", False)
    if baseline == 0:
        return 0.0
    return 1.0 - gated / baseline
