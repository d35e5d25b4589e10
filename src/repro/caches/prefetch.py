"""Stream prefetching between the L1 and the L2 (extension).

The paper's workloads carry substantial streaming traffic, and its
future-work direction of combining NuRAPID with latency-hiding
techniques invites a concrete experiment: a classic multi-stream
next-N-line prefetcher that watches the L1-miss stream, detects
ascending/descending unit-block strides, and issues prefetch fills
into the L2.  ``SystemConfig(prefetch=True)`` hangs one on the
:class:`~repro.caches.hierarchy.CacheHierarchy`, which feeds it every
demand reference and every L1 miss.

Prefetches are *not* demand accesses: they charge L2 fill energy and
placement work (a prefetched block enters d-group 0 like any fill —
flexible placement applies to prefetches for free) but never stall the
core.  Accuracy/coverage accounting lets the ``ablation_prefetch``
experiment report the usual prefetcher metrics next to the IPC effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.common.errors import ConfigurationError
from repro.caches.block import block_address


@dataclass
class StreamEntry:
    """One tracked stream: last block seen and its direction."""

    last_block: int
    direction: int  # +1 ascending, -1 descending, 0 untrained
    confidence: int = 0
    last_used: int = 0


@dataclass
class PrefetchStats:
    issued: int = 0
    useful: int = 0
    evicted_unused: int = 0
    streams_allocated: int = 0

    @property
    def accuracy(self) -> float:
        if not self.issued:
            return 0.0
        return self.useful / self.issued


class StreamPrefetcher:
    """Multi-stream next-N-line prefetcher over the L1-miss stream.

    ``degree`` blocks are prefetched ahead once a stream reaches
    ``train_threshold`` consecutive same-direction misses.  Streams are
    tracked per 4 KB region with LRU reuse of the table entries, the
    standard tabular design of the era.
    """

    REGION_BYTES = 4096

    def __init__(
        self,
        block_bytes: int = 128,
        streams: int = 8,
        degree: int = 2,
        train_threshold: int = 2,
    ) -> None:
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ConfigurationError("block size must be a power of two")
        if streams <= 0 or degree <= 0 or train_threshold <= 0:
            raise ConfigurationError("prefetcher parameters must be positive")
        self.block_bytes = block_bytes
        self.max_streams = streams
        self.degree = degree
        self.train_threshold = train_threshold
        self._table: Dict[int, StreamEntry] = {}
        self._clock = 0
        self.stats = PrefetchStats()
        #: Prefetched blocks not yet re-used (for accuracy accounting).
        self._outstanding: Dict[int, bool] = {}

    def _region_of(self, address: int) -> int:
        return address // self.REGION_BYTES

    def _evict_stream_if_full(self) -> None:
        if len(self._table) < self.max_streams:
            return
        victim = min(self._table, key=lambda r: self._table[r].last_used)
        del self._table[victim]

    def observe_miss(self, address: int) -> List[int]:
        """Train on one L1-miss address; returns block addresses to prefetch."""
        self._clock += 1
        block = block_address(address, self.block_bytes)
        region = self._region_of(address)
        entry = self._table.get(region)
        if entry is None:
            self._evict_stream_if_full()
            self._table[region] = StreamEntry(
                last_block=block, direction=0, last_used=self._clock
            )
            self.stats.streams_allocated += 1
            return []

        entry.last_used = self._clock
        delta = block - entry.last_block
        step = self.block_bytes
        if delta == step or delta == -step:
            direction = 1 if delta > 0 else -1
            if direction == entry.direction:
                entry.confidence += 1
            else:
                entry.direction = direction
                entry.confidence = 1
        elif delta != 0:
            entry.confidence = max(0, entry.confidence - 1)
        entry.last_block = block

        if entry.confidence < self.train_threshold:
            return []
        prefetches = [
            block + entry.direction * step * (i + 1) for i in range(self.degree)
        ]
        return [p for p in prefetches if p >= 0]

    def note_issued(self, block: int) -> None:
        """Record that a prefetch fill was actually sent to the L2."""
        self.stats.issued += 1
        self._outstanding[block] = True

    def note_demand(self, address: int) -> None:
        """A demand access touched ``address``; credit a useful prefetch."""
        block = block_address(address, self.block_bytes)
        if self._outstanding.pop(block, False):
            self.stats.useful += 1

    def note_demands(self, blocks: Iterable[int]) -> None:
        """:meth:`note_demand` for a stretch of demanded block addresses
        with no prefetch issued among them: each outstanding block in
        the stretch is credited once, whatever the order or repeats."""
        outstanding = self._outstanding
        if outstanding:
            credited = outstanding.keys() & blocks
            for block in credited:
                del outstanding[block]
            self.stats.useful += len(credited)

    def outstanding(self) -> int:
        return len(self._outstanding)

    def reset_stats(self) -> None:
        """Zero the counters and forget the credits after warmup; the
        stream table is simulation state and stays."""
        self.stats = PrefetchStats()
        self._outstanding.clear()
