"""True-LRU victim selection within a cache set.

The set-associative models that track recency with an ordered
container (S-NUCA's per-set data replacement) use :class:`LRUPolicy`.
NuRAPID's distance replacement (random, approximate LRU, true LRU over
thousands of frames, §2.4.2 and §5.3.1) keeps its own flat per-region
state in :mod:`repro.nurapid.cache`.

A policy tracks an arbitrary collection of hashable keys.  ``touch``
records a use, ``insert`` adds a new key, ``pop_victim`` selects and
removes the key the policy would replace, and ``remove`` handles keys
that leave for external reasons.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator

from repro.common.errors import SimulationError


class LRUPolicy:
    """True least-recently-used.

    Backed by dict insertion order: most-recently-used keys live at the
    back, so the victim is the first key in iteration order.  All
    operations are O(1).
    """

    def __init__(self) -> None:
        self._order: Dict[Hashable, None] = {}

    def insert(self, key: Hashable) -> None:
        """Start tracking ``key`` as most recently used."""
        if key in self._order:
            raise SimulationError(f"duplicate insert of {key!r} into LRUPolicy")
        self._order[key] = None

    def touch(self, key: Hashable) -> None:
        """Record a use of ``key``."""
        try:
            del self._order[key]
        except KeyError:
            raise SimulationError(f"touch of untracked key {key!r}") from None
        self._order[key] = None

    def remove(self, key: Hashable) -> None:
        """Stop tracking ``key``."""
        try:
            del self._order[key]
        except KeyError:
            raise SimulationError(f"remove of untracked key {key!r}") from None

    def insert_many(self, keys: Iterable[Hashable]) -> None:
        """Insert ``keys`` in order; equivalent to ``insert`` per key.

        Bulk-state setup (cache prewarm inserts one key per way, tens
        of thousands of times) goes through this one container update.
        """
        keys = list(keys)
        order = self._order
        before = len(order)
        order.update(dict.fromkeys(keys))
        if len(order) != before + len(keys):
            raise SimulationError("duplicate key in LRUPolicy.insert_many")

    def victim(self) -> Hashable:
        """Return (without removing) the key that would be replaced next."""
        try:
            return next(iter(self._order))
        except StopIteration:
            raise SimulationError("victim() on empty LRUPolicy") from None

    def pop_victim(self) -> Hashable:
        """Select a victim, remove it from tracking, and return it."""
        key = self.victim()
        self.remove(key)
        return key

    def lru_to_mru(self) -> Iterator[Hashable]:
        """Iterate keys from least to most recently used (for tests)."""
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order
