"""Multi-level cache hierarchy composition.

A :class:`CacheHierarchy` wires an L1 (i- and d-side) above an ordered
list of lower levels (the base L2+L3, or a single non-uniform L2) above
main memory.  Every lower level implements the same small protocol:

* ``access(address, is_write, now) -> AccessResult`` — probe; latency
  covers this level only, including any port/bank queueing.
* ``fill(address, now, dirty) -> int`` — install after a miss; returns
  the number of dirty blocks it pushed out (writeback traffic).
* ``block_bytes`` — its block size.

Both calls are two steps (DESIGN.md, "Lower-level outcome and
timing"), which the vectorized kernel also calls directly:

* ``access_outcome(address, is_write)`` and ``fill_outcome(address,
  dirty)`` take no time.  They make every state, RNG, fault and counter
  change and return a compact outcome tuple: element 0 is the hit flag
  of an access, or the dirty writebacks of a fill, whose element 1 is
  None when its timing step has nothing to do.
* ``access_timing(outcome, now) -> latency`` and ``fill_timing(outcome,
  now)`` claim the port or bank occupancy and emit the telemetry the
  outcome carries, stamped with ``now``.

The hierarchy accumulates the miss path's latency, issues fills bottom
up, and routes L1 dirty evictions into the first lower level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, runtime_checkable

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Histogram
from repro.common.stats import Counter
from repro.common.types import Access, AccessResult, AccessType
from repro.caches.memory import MainMemory
from repro.caches.simple import SetAssociativeCache


@runtime_checkable
class LowerLevel(Protocol):
    """What the hierarchy requires of an L2/L3-like cache."""

    name: str
    block_bytes: int

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        ...

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> int:
        ...

    def access_outcome(self, address: int, is_write: bool = False) -> tuple:
        ...

    def access_timing(self, outcome: tuple, now: float) -> float:
        ...

    def fill_outcome(self, address: int, dirty: bool = False) -> tuple:
        ...

    def fill_timing(self, outcome: tuple, now: float) -> None:
        ...


class UniformLowerLevel:
    """Adapter giving :class:`SetAssociativeCache` the lower-level protocol."""

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.cache = cache
        self.name = cache.name
        self.block_bytes = cache.spec.block_bytes
        self.access_outcome = cache.access_outcome
        self.access_timing = cache.access_timing

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        return self.cache.access(address, is_write=is_write, now=now)

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> int:
        outcome = self.fill_outcome(address, dirty)
        self.fill_timing(outcome, now)
        return outcome[0]

    def fill_outcome(self, address: int, dirty: bool = False):
        """``(dirty writebacks, the cache's fill outcome)``; the latter
        only when telemetry will want its events, else None."""
        outcome = self.cache.fill_outcome(address, dirty)
        if outcome is None:
            return _RESIDENT
        return (outcome[0], outcome if self.cache.telemetry is not None else None)

    def fill_timing(self, outcome, now: float) -> None:
        """A uniform fill takes no port time; only its events remain."""
        if outcome[1] is not None:
            self.cache.fill_events(outcome[1])


#: Fill outcome of a block the level already holds: nothing happens.
_RESIDENT = (0, None)


class CacheHierarchy:
    """L1s over lower levels over memory."""

    def __init__(
        self,
        l1d: SetAssociativeCache,
        lower: Sequence[LowerLevel],
        memory: MainMemory,
        l1i: Optional[SetAssociativeCache] = None,
    ) -> None:
        if not lower:
            raise ConfigurationError("hierarchy needs at least one lower level")
        self.l1d = l1d
        self.l1i = l1i if l1i is not None else l1d
        self.lower: List[LowerLevel] = list(lower)
        self.memory = memory
        self.stats = Counter()
        #: Optional telemetry histogram of end-to-end L1-miss latency.
        self.miss_latency_hist: Optional["Histogram"] = None

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
        r1 = l1.access(address, is_write=is_write, now=now)
        total = AccessResult(
            hit=r1.hit, latency=r1.latency, level=l1.name, energy_nj=r1.energy_nj
        )
        self.stats.add("l1_accesses")
        if r1.hit:
            self.stats.add("l1_hits")
            return total

        missed: List[LowerLevel] = []
        supplied = False
        for level in self.lower:
            at = now + total.latency
            r = level.access(address, is_write=False, now=at)
            total.latency += r.latency
            total.energy_nj += r.energy_nj
            self.stats.add(f"{level.name}_accesses")
            if r.hit:
                total.level = r.level or level.name
                total.dgroup = r.dgroup
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
            dirty_out = level.fill(address, now=fill_time, dirty=False)
            for _ in range(dirty_out):
                self.memory.write(level.block_bytes)
                self.stats.add(f"{level.name}_writebacks")
        victim = l1.fill(address, dirty=is_write)
        if victim is not None and victim.dirty:
            self._writeback_from_l1(victim.block_addr, fill_time)
        if self.miss_latency_hist is not None:
            self.miss_latency_hist.record(total.latency)
        return total

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
