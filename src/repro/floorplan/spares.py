"""Spare-subarray management and hard-error tolerance (§3.1–3.3).

The paper's second layout argument against D-NUCA's many small
d-groups: spare subarrays can only replace defective ones within a
region that shares row addresses and access latency.  A few large
d-groups let a handful of spares cover hundreds of subarrays (the
Itanium II carries 2 spares for 135); 128 independent 64 KB d-groups
would each need their own.

:class:`SpareManager` models exactly that: a pool of spare subarrays
per *repair domain*, defect injection, and remap-or-die accounting.
:func:`yield_model` turns a per-subarray defect probability into the
probability a whole cache survives manufacturing, for NuRAPID-style
(few large domains) versus NUCA-style (many small domains) layouts —
the quantitative version of the paper's qualitative §3 argument,
regenerated by the ``ablation_spares`` experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import DeterministicRNG


@dataclass
class RepairDomain:
    """Subarrays that share spares (common row addresses + latency)."""

    name: str
    data_subarrays: int
    spare_subarrays: int
    _failed: Set[int] = field(default_factory=set)
    _remapped: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.data_subarrays <= 0:
            raise ConfigurationError(
                f"data_subarrays must be positive, got {self.data_subarrays}"
            )
        if self.spare_subarrays < 0:
            raise ConfigurationError(
                f"spare_subarrays must be non-negative, got {self.spare_subarrays}"
            )

    @property
    def spares_used(self) -> int:
        return len(self._remapped)

    @property
    def spares_left(self) -> int:
        return self.spare_subarrays - self.spares_used

    @property
    def healthy(self) -> bool:
        """All failed subarrays remapped to spares."""
        return len(self._failed) == len(self._remapped)

    def fail_subarray(self, index: int) -> bool:
        """Mark subarray ``index`` defective; returns True if repaired."""
        if not 0 <= index < self.data_subarrays:
            raise ConfigurationError(f"subarray {index} out of range")
        if index in self._failed:
            return index in self._remapped
        self._failed.add(index)
        if self.spares_left > 0:
            self._remapped[index] = self.data_subarrays + self.spares_used
            return True
        return False

    def physical_subarray(self, index: int) -> int:
        """Where reads for logical subarray ``index`` actually go."""
        if not 0 <= index < self.data_subarrays:
            raise ConfigurationError(f"subarray {index} out of range")
        if index in self._failed and index not in self._remapped:
            raise SimulationError(f"access to unrepaired subarray {index}")
        return self._remapped.get(index, index)


class SpareManager:
    """A cache's worth of repair domains."""

    def __init__(self) -> None:
        self._domains: Dict[str, RepairDomain] = {}

    def add_domain(self, name: str, data_subarrays: int, spare_subarrays: int) -> RepairDomain:
        if name in self._domains:
            raise ConfigurationError(f"duplicate repair domain {name!r}")
        domain = RepairDomain(name, data_subarrays, spare_subarrays)
        self._domains[name] = domain
        return domain

    def domain(self, name: str) -> RepairDomain:
        try:
            return self._domains[name]
        except KeyError:
            raise ConfigurationError(f"unknown repair domain {name!r}") from None

    @property
    def healthy(self) -> bool:
        return all(d.healthy for d in self._domains.values())

    def inject_defects(self, rng: DeterministicRNG, defect_probability: float) -> int:
        """Fail each data subarray independently; returns unrepaired count."""
        if not 0.0 <= defect_probability <= 1.0:
            raise ConfigurationError("defect probability must be in [0, 1]")
        unrepaired = 0
        for domain in self._domains.values():
            for index in range(domain.data_subarrays):
                if rng.random() < defect_probability:
                    if not domain.fail_subarray(index):
                        unrepaired += 1
        return unrepaired

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "data": d.data_subarrays,
                "spares": d.spare_subarrays,
                "failed": len(d._failed),
                "repaired": d.spares_used,
            }
            for name, d in self._domains.items()
        }


def domain_survival_probability(
    data_subarrays: int, spare_subarrays: int, defect_probability: float
) -> float:
    """P(at most ``spare_subarrays`` of the domain's subarrays fail)."""
    if not 0.0 <= defect_probability <= 1.0:
        raise ConfigurationError("defect probability must be in [0, 1]")
    if data_subarrays <= 0:
        raise ConfigurationError(
            f"data_subarrays must be positive, got {data_subarrays}"
        )
    if spare_subarrays < 0:
        raise ConfigurationError(
            f"spare_subarrays must be non-negative, got {spare_subarrays}"
        )
    p, n = defect_probability, data_subarrays
    total = 0.0
    for k in range(min(spare_subarrays, n) + 1):
        total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return total


def yield_model(
    n_domains: int,
    subarrays_per_domain: int,
    spares_per_domain: int,
    defect_probability: float,
) -> float:
    """P(every repair domain of the cache survives manufacturing)."""
    if n_domains <= 0:
        raise ConfigurationError("need at least one domain")
    per_domain = domain_survival_probability(
        subarrays_per_domain, spares_per_domain, defect_probability
    )
    return per_domain**n_domains
