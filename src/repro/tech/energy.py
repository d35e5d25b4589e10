"""Per-operation energy bookkeeping.

Caches don't compute circuit energies on the fly; at construction time
they register each operation they can perform (tag probe, d-group read,
swap leg, smart-search probe, network hop...) in an :class:`EnergyBook`
with its cost in nanojoules, then charge operations by name during
simulation.  This keeps the hot path cheap and makes the energy model
auditable: ``book.table()`` is exactly the paper's Table 2 shape.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import fold_sum


class EnergyBook:
    """Registry of named operation energies plus consumption counters."""

    def __init__(self) -> None:
        self._cost_nj: Dict[str, float] = {}
        self._count: Dict[str, int] = {}

    def register(self, operation: str, cost_nj: float) -> None:
        """Define (or redefine) the cost of an operation."""
        if cost_nj < 0:
            raise ConfigurationError(
                f"energy cost must be non-negative, got {cost_nj} for {operation!r}"
            )
        self._cost_nj[operation] = cost_nj
        self._count.setdefault(operation, 0)

    def cost(self, operation: str) -> float:
        try:
            return self._cost_nj[operation]
        except KeyError:
            raise SimulationError(f"unregistered energy operation {operation!r}") from None

    def charge(self, operation: str, times: int = 1) -> float:
        """Record ``times`` occurrences; returns the energy consumed (nJ)."""
        if times < 0:
            raise SimulationError(f"cannot charge negative count {times}")
        cost = self.cost(operation)
        self._count[operation] = self._count.get(operation, 0) + times
        return cost * times

    def count(self, operation: str) -> int:
        return self._count.get(operation, 0)

    def total_nj(self) -> float:
        return fold_sum(self._cost_nj[op] * n for op, n in self._count.items())

    def breakdown_nj(self) -> Dict[str, float]:
        """Total energy per operation, for reporting."""
        return {op: self._cost_nj[op] * n for op, n in self._count.items() if n}

    def table(self) -> List[Tuple[str, float]]:
        """(operation, cost-in-nJ) rows sorted by name — the Table 2 shape."""
        return sorted(self._cost_nj.items())

    def reset_counts(self) -> None:
        for op in self._count:
            self._count[op] = 0

    def operations(self) -> List[str]:
        return sorted(self._cost_nj)
