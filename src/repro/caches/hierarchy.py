"""Multi-level cache hierarchy composition.

A :class:`CacheHierarchy` wires an L1 (i- and d-side) above an ordered
list of lower levels (the base L2+L3, or a single non-uniform L2) above
main memory.  Every level is a :class:`~repro.caches.level.CacheLevel`:
``access(address, is_write, now)`` returns an ``AccessResult`` whose
latency covers that level only, ``fill(address, now, dirty)`` returns
the dirty blocks it pushed out, and both are an outcome step followed
by a timing step, which the vectorized kernel also calls directly.

The hierarchy accumulates the miss path's latency, issues fills bottom
up, and routes L1 dirty evictions into the first lower level.  An
optional :class:`~repro.caches.prefetch.StreamPrefetcher` sees every
demand reference and trains on every L1 miss; its fills go into the
first lower level after the miss's own operations and add no latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.caches.prefetch import StreamPrefetcher
    from repro.telemetry import Histogram
from repro.common.stats import Counter
from repro.common.types import Access, AccessResult, AccessType
from repro.caches.level import CacheLevel
from repro.caches.memory import MainMemory
from repro.caches.simple import SetAssociativeCache


class CacheHierarchy:
    """L1s over lower levels over memory."""

    def __init__(
        self,
        l1d: SetAssociativeCache,
        lower: Sequence[CacheLevel],
        memory: MainMemory,
        l1i: Optional[SetAssociativeCache] = None,
    ) -> None:
        if not lower:
            raise ConfigurationError("hierarchy needs at least one lower level")
        self.l1d = l1d
        self.l1i = l1i if l1i is not None else l1d
        self.lower: List[CacheLevel] = list(lower)
        self.memory = memory
        self.stats = Counter()
        #: Optional telemetry histogram of end-to-end L1-miss latency.
        self.miss_latency_hist: Optional["Histogram"] = None
        #: Optional stream prefetcher into the first lower level.
        self.prefetcher: Optional["StreamPrefetcher"] = None

    def reset_stats(self) -> None:
        """Zero the hierarchy's and the prefetcher's books after warmup."""
        self.stats.reset()
        if self.prefetcher is not None:
            self.prefetcher.reset_stats()

    def access(self, access: Access, now: float = 0.0) -> AccessResult:
        """Present one core reference; returns the end-to-end result.

        ``latency`` on the returned result is the full exposed latency
        from ``now`` until the data reaches the core — the quantity the
        CPU model turns into stall cycles.
        """
        l1 = self.l1i if access.kind is AccessType.IFETCH else self.l1d
        return self._access(l1, access.address, access.kind.is_write, now)

    def access_data(self, address: int, is_write: bool, now: float = 0.0) -> AccessResult:
        """Hot-loop entry point: a data reference without an Access object."""
        return self._access(self.l1d, address, is_write, now)

    def _access(
        self, l1: SetAssociativeCache, address: int, is_write: bool, now: float
    ) -> AccessResult:
        prefetcher = self.prefetcher
        if prefetcher is not None:
            prefetcher.note_demand(address)
        total = l1.access(address, is_write=is_write, now=now)
        self.stats.add("l1_accesses")
        if total.hit:
            self.stats.add("l1_hits")
            return total

        missed: List[CacheLevel] = []
        supplied = False
        for level in self.lower:
            at = now + total.latency
            r = level.access(address, is_write=False, now=at)
            total.latency += r.latency
            self.stats.add(f"{level.name}_accesses")
            if r.hit:
                total.level = level.name
                self.stats.add(f"{level.name}_hits")
                supplied = True
                break
            missed.append(level)
        if not supplied:
            rm = self.memory.read(self.lower[-1].block_bytes)
            total.latency += rm.latency
            total.level = "memory"
            self.stats.add("memory_reads")

        # Fills, bottom-most missed level first; fill-side writebacks
        # and port occupancy are off the load's critical path.
        fill_time = now + total.latency
        for level in reversed(missed):
            self._fill(level, address, fill_time)
        filled = l1.fill_outcome(address, is_write)
        l1.fill_timing(filled, fill_time)
        if filled[0]:
            self._writeback_from_l1(filled[2], fill_time)
        if prefetcher is not None:
            self._prefetch(prefetcher, address, now)
        if self.miss_latency_hist is not None:
            self.miss_latency_hist.record(total.latency)
        return total

    def _fill(self, level: CacheLevel, address: int, now: float) -> None:
        """Install ``address`` in ``level``; its dirty victims go to memory."""
        for _ in range(level.fill(address, now=now, dirty=False)):
            self.memory.write(level.block_bytes)
            self.stats.add(f"{level.name}_writebacks")

    def _prefetch(self, prefetcher: "StreamPrefetcher", address: int, now: float) -> None:
        """Train on an L1 miss at ``address`` and fill the first lower
        level, at the miss's ``now``, with each predicted block it does
        not hold."""
        first = self.lower[0]
        for target in prefetcher.observe_miss(address):
            if not first.contains(target):
                self._fill(first, target, now)
                prefetcher.note_issued(target)

    def _writeback_from_l1(self, block_addr: int, now: float) -> None:
        """Route a dirty L1 eviction into the first lower level."""
        self.stats.add("l1_writebacks")
        first = self.lower[0]
        r = first.access(block_addr, is_write=True, now=now)
        self.stats.add(f"{first.name}_accesses")
        if r.hit:
            self.stats.add(f"{first.name}_hits")
            return
        # Non-inclusive hierarchy: the line may have left the lower
        # level already; the writeback then continues to memory.
        self.memory.write(first.block_bytes)
        self.stats.add("l1_writebacks_to_memory")
