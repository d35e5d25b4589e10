"""Generic eviction/victim-selection policies.

The same machinery backs two very different users:

* *data replacement* within a cache set (a handful of ways, where the
  paper uses true LRU), and
* *distance replacement* within a NuRAPID d-group (thousands of frames,
  where the paper argues true LRU is too expensive in hardware and
  evaluates random and approximate alternatives — §2.4.2, §5.3.1).

A policy tracks an arbitrary collection of hashable keys.  ``touch``
records a use, ``insert`` adds a new key, ``pop_victim`` selects and
removes the key the policy would replace, and ``remove`` handles keys
that leave for external reasons (eviction from the cache, demotion out
of a d-group).
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Iterable, Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRNG


class EvictionPolicy(abc.ABC):
    """Interface shared by all victim-selection policies."""

    @abc.abstractmethod
    def insert(self, key: Hashable) -> None:
        """Start tracking ``key`` (as most-recently-used where relevant)."""

    @abc.abstractmethod
    def touch(self, key: Hashable) -> None:
        """Record a use of ``key``."""

    @abc.abstractmethod
    def remove(self, key: Hashable) -> None:
        """Stop tracking ``key``."""

    @abc.abstractmethod
    def victim(self) -> Hashable:
        """Return (without removing) the key that would be replaced next."""

    @abc.abstractmethod
    def __len__(self) -> int:
        ...

    @abc.abstractmethod
    def __contains__(self, key: Hashable) -> bool:
        ...

    def pop_victim(self) -> Hashable:
        """Select a victim, remove it from tracking, and return it."""
        key = self.victim()
        self.remove(key)
        return key

    def insert_many(self, keys: Iterable[Hashable]) -> None:
        """Insert ``keys`` in order; equivalent to ``insert`` per key.

        Bulk-state setup (cache prewarm inserts one key per frame, tens
        of thousands of times) goes through this so subclasses can
        replace the per-key call chain with one container update.
        """
        for key in keys:
            self.insert(key)

    @abc.abstractmethod
    def state_copy(self) -> object:
        """Snapshot the tracked-key state (not any RNG) as plain containers.

        ``other.load_state(snapshot)`` restores a policy of the same
        class to exactly this tracking state; both directions copy, so
        snapshots never alias live policy containers.  The NuRAPID
        prewarm prototype registry clones steady-state setup this way
        instead of re-running it.
        """

    @abc.abstractmethod
    def load_state(self, state: object) -> None:
        """Install a :meth:`state_copy` snapshot (copying it)."""


class LRUPolicy(EvictionPolicy):
    """True least-recently-used.

    Backed by dict insertion order: most-recently-used keys live at the
    back, so the victim is the first key in iteration order.  All
    operations are O(1).
    """

    def __init__(self) -> None:
        self._order: Dict[Hashable, None] = {}

    def insert(self, key: Hashable) -> None:
        if key in self._order:
            raise SimulationError(f"duplicate insert of {key!r} into LRUPolicy")
        self._order[key] = None

    def touch(self, key: Hashable) -> None:
        try:
            del self._order[key]
        except KeyError:
            raise SimulationError(f"touch of untracked key {key!r}") from None
        self._order[key] = None

    def remove(self, key: Hashable) -> None:
        try:
            del self._order[key]
        except KeyError:
            raise SimulationError(f"remove of untracked key {key!r}") from None

    def insert_many(self, keys: Iterable[Hashable]) -> None:
        keys = list(keys)
        order = self._order
        before = len(order)
        order.update(dict.fromkeys(keys))
        if len(order) != before + len(keys):
            raise SimulationError("duplicate key in LRUPolicy.insert_many")

    def victim(self) -> Hashable:
        try:
            return next(iter(self._order))
        except StopIteration:
            raise SimulationError("victim() on empty LRUPolicy") from None

    def lru_to_mru(self) -> Iterator[Hashable]:
        """Iterate keys from least to most recently used (for tests)."""
        return iter(self._order)

    def state_copy(self) -> object:
        return dict(self._order)

    def load_state(self, state: object) -> None:
        self._order = dict(state)  # type: ignore[call-overload]

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order


class RandomPolicy(EvictionPolicy):
    """Uniform-random victim selection.

    The paper's practical choice for distance replacement in large
    d-groups (§2.4.2): hardware-trivial, and its occasional mistakes
    (demoting a hot block) are repaired by the promotion policy.

    Uses a swap-remove list plus an index map so selection and removal
    are O(1).  ``victim``/``pop_victim`` draw from the instance's own
    deterministic stream.
    """

    def __init__(self, rng: DeterministicRNG) -> None:
        self._rng = rng
        self._keys: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self._pending_victim: Optional[Hashable] = None

    def insert(self, key: Hashable) -> None:
        if key in self._index:
            raise SimulationError(f"duplicate insert of {key!r} into RandomPolicy")
        self._index[key] = len(self._keys)
        self._keys.append(key)

    def insert_many(self, keys: Iterable[Hashable]) -> None:
        keys = list(keys)
        index = self._index
        before = len(index)
        index.update(zip(keys, range(before, before + len(keys))))
        if len(index) != before + len(keys):
            raise SimulationError("duplicate key in RandomPolicy.insert_many")
        self._keys.extend(keys)

    def touch(self, key: Hashable) -> None:
        if key not in self._index:
            raise SimulationError(f"touch of untracked key {key!r}")
        # Random replacement is stateless with respect to recency, but a
        # touch invalidates any previously-peeked victim choice.
        if self._pending_victim == key:
            self._pending_victim = None

    def remove(self, key: Hashable) -> None:
        try:
            pos = self._index.pop(key)
        except KeyError:
            raise SimulationError(f"remove of untracked key {key!r}") from None
        last = self._keys.pop()
        if last != key:
            self._keys[pos] = last
            self._index[last] = pos
        if self._pending_victim == key:
            self._pending_victim = None

    def victim(self) -> Hashable:
        if not self._keys:
            raise SimulationError("victim() on empty RandomPolicy")
        if self._pending_victim is None or self._pending_victim not in self._index:
            self._pending_victim = self._keys[self._rng.randint(0, len(self._keys) - 1)]
        return self._pending_victim

    def state_copy(self) -> object:
        # The RNG stream is deliberately NOT part of the snapshot: the
        # restoring policy keeps its own (identically-seeded) stream.
        return (list(self._keys), dict(self._index), self._pending_victim)

    def load_state(self, state: object) -> None:
        keys, index, pending = state  # type: ignore[misc]
        self._keys = list(keys)
        self._index = dict(index)
        self._pending_victim = pending

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index


class ApproxLRUPolicy(EvictionPolicy):
    """One-bit clock (second-chance) approximation of LRU.

    Models the "approximate-LRU" design point the paper mentions as a
    middle ground between true LRU's O(n^2) hardware and random's
    accidental demotions.  Each tracked key has a reference bit; the
    clock hand sweeps, clearing bits, and evicts the first key whose
    bit is already clear.
    """

    def __init__(self) -> None:
        self._keys: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self._refbit: Dict[Hashable, bool] = {}
        self._hand = 0

    def insert(self, key: Hashable) -> None:
        if key in self._index:
            raise SimulationError(f"duplicate insert of {key!r} into ApproxLRUPolicy")
        self._index[key] = len(self._keys)
        self._keys.append(key)
        self._refbit[key] = True

    def insert_many(self, keys: Iterable[Hashable]) -> None:
        keys = list(keys)
        index = self._index
        before = len(index)
        index.update(zip(keys, range(before, before + len(keys))))
        if len(index) != before + len(keys):
            raise SimulationError("duplicate key in ApproxLRUPolicy.insert_many")
        self._keys.extend(keys)
        self._refbit.update(dict.fromkeys(keys, True))

    def touch(self, key: Hashable) -> None:
        if key not in self._index:
            raise SimulationError(f"touch of untracked key {key!r}")
        self._refbit[key] = True

    def remove(self, key: Hashable) -> None:
        try:
            pos = self._index.pop(key)
        except KeyError:
            raise SimulationError(f"remove of untracked key {key!r}") from None
        del self._refbit[key]
        last = self._keys.pop()
        if last != key:
            self._keys[pos] = last
            self._index[last] = pos
        if self._hand >= len(self._keys):
            self._hand = 0

    def victim(self) -> Hashable:
        if not self._keys:
            raise SimulationError("victim() on empty ApproxLRUPolicy")
        # Sweep at most two full revolutions: the first may clear every
        # reference bit, the second must then find a clear one.
        for _ in range(2 * len(self._keys)):
            key = self._keys[self._hand]
            if self._refbit[key]:
                self._refbit[key] = False
                self._hand = (self._hand + 1) % len(self._keys)
            else:
                return key
        return self._keys[self._hand]

    def state_copy(self) -> object:
        return (list(self._keys), dict(self._index), dict(self._refbit), self._hand)

    def load_state(self, state: object) -> None:
        keys, index, refbit, hand = state  # type: ignore[misc]
        self._keys = list(keys)
        self._index = dict(index)
        self._refbit = dict(refbit)
        self._hand = hand

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index


def make_policy(name: str, rng: Optional[DeterministicRNG] = None) -> EvictionPolicy:
    """Build an eviction policy by name: ``lru``, ``random``, or ``approx-lru``.

    ``random`` requires an ``rng``; the others ignore it.
    """
    if name == "lru":
        return LRUPolicy()
    if name == "approx-lru":
        return ApproxLRUPolicy()
    if name == "random":
        if rng is None:
            raise ValueError("random policy requires an rng")
        return RandomPolicy(rng)
    raise ValueError(f"unknown eviction policy {name!r}")
