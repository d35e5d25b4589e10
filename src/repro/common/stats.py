"""Statistics containers used throughout the simulator.

These are intentionally simple: named counters and small integer-keyed
distributions (accesses per d-group).  Every cache and experiment
exposes its measurements through these types so the experiment harness
can aggregate uniformly.  Both are read by key: :meth:`Counter.as_dict`
and :meth:`Distribution.items` return their keys sorted, so no reader
ever depends on the order in which keys were first added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, Iterable, Tuple


def fold_sum(values: Iterable[float], start: float = 0) -> float:
    """``start + v0 + v1 + ...``, added left to right.

    From Python 3.12 on, the builtin ``sum`` adds floats with
    compensated summation, so a float total could differ in its last
    bits between Python versions.  A plain left fold gives the same
    bits on every version, and the bits ``sum`` gave before 3.12.
    """
    return reduce(add, values, start)


class Counter:
    """A named group of monotonically increasing counters.

    Totals stay int-exact as long as every increment is an int: the
    sum of integer event counts never drifts through float rounding.
    A single float increment (weights, energies) switches that counter
    to float arithmetic.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> float:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, float]:
        """A copy, keys sorted."""
        return dict(sorted(self._counts.items()))

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"Counter({inner})"


@dataclass
class Distribution:
    """Counts keyed by small integers (e.g. accesses per d-group).

    Like :class:`Counter`, integer increments keep int-exact totals.
    """

    counts: Dict[int, float] = field(default_factory=dict)

    def add(self, key: int, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @property
    def total(self) -> float:
        return sum(self.counts.values())

    def fractions(self) -> Dict[int, float]:
        total = self.total
        if total == 0:
            return {}
        return {key: value / total for key, value in sorted(self.counts.items())}

    def items(self) -> Iterable[Tuple[int, float]]:
        return sorted(self.counts.items())
