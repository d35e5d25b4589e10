"""Bank-contention wrapper for the cache under study.

The paper assumes the L2's data array can source a line every cycle;
with several cores sharing one LLC that assumption dominates results.
``ContendedLLC`` wraps any of the non-uniform caches with per-bank
FCFS queues (the Sniper ``QueueModel`` idiom): every hit's line
transfer occupies its home bank for ``block_bytes / bytes_per_cycle``
cycles, and a request arriving at a busy bank waits.  Fills charge
their bank too, so refill traffic steals demand bandwidth.

Queueing adds *wait* only — an unloaded bank returns exactly the
wrapped cache's latency, so a one-core contended run differs from the
uncontended model only when its own fills collide with its own hits.

Like the wrapped cache, it is a :class:`~repro.caches.level.CacheLevel`:
each access and fill is an outcome step (the wrapped cache's, plus the
home bank) and a timing step that claims the bank after the wrapped
cache's own timing (DESIGN.md, "Lower-level outcome and timing").

Everything else forwards to the wrapped cache.
"""

from __future__ import annotations

from repro.caches.level import CacheLevel
from repro.caches.port import PortArray, checked_occupancy
from repro.cmp.config import ContentionConfig


class ContendedLLC(CacheLevel):
    """Per-bank queueing layered over a lower-level cache."""

    def __init__(self, inner, contention: ContentionConfig) -> None:
        self._inner = inner
        self.contention = contention
        block = inner.block_bytes
        #: Per-bank busy-time state.
        self.bank_ports = PortArray(f"{inner.name}.bank", contention.n_banks)
        self._service = checked_occupancy(
            self.bank_ports.name, (block / contention.bytes_per_cycle,)
        )[0]
        self._n_banks = contention.n_banks
        self._block_shift = max(block.bit_length() - 1, 0)
        #: Optional queue-depth histogram, attached by the telemetry
        #: session; records the depth each access observes on arrival.
        self.queue_depth_hist = None

    # --- identity / forwarding ---

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def block_bytes(self) -> int:
        return self._inner.block_bytes

    @property
    def telemetry(self):
        return self._inner.telemetry

    @telemetry.setter
    def telemetry(self, client) -> None:
        self._inner.telemetry = client

    def __getattr__(self, attr: str):
        # Before __init__ sets ``_inner`` (copy, pickle), looking it
        # up must fail rather than recurse.
        if attr == "_inner":
            raise AttributeError(attr)
        return getattr(self._inner, attr)

    # --- the two steps, with bank queueing ---

    def _bank_of(self, address: int) -> int:
        return (int(address) >> self._block_shift) % self._n_banks

    def _queue_for_hit(self, bank: int, now: float) -> float:
        """A hit's line transfer: the depth it observes, then its wait."""
        if self.queue_depth_hist is not None:
            self.queue_depth_hist.record(
                self.bank_ports.pending_depth(bank, now, self._service)
            )
        return self.bank_ports.claim(bank, now, self._service) - now

    def access_outcome(self, address: int, is_write: bool = False):
        """``(hit, wrapped outcome, home bank)``."""
        inner = self._inner.access_outcome(address, is_write)
        return (inner[0], inner, self._bank_of(address))

    def access_timing(self, outcome, now: float) -> float:
        hit, inner, bank = outcome
        latency = self._inner.access_timing(inner, now)
        if hit:
            latency += self._queue_for_hit(bank, now)
        return latency

    def fill_outcome(self, address: int, dirty: bool = False):
        """``(dirty writebacks, wrapped outcome, home bank)``."""
        inner = self._inner.fill_outcome(address, dirty)
        return (inner[0], inner, self._bank_of(address))

    def fill_timing(self, outcome, now: float) -> None:
        """The refill's line write occupies its bank (stealing demand
        bandwidth) but rides the fill buffers: the wrapped cache
        installs at the caller's fill time either way."""
        self.bank_ports.claim(outcome[2], now, self._service)
        self._inner.fill_timing(outcome[1], now)

    def prewarm(self) -> None:
        self._inner.prewarm()

    def reset_stats(self) -> None:
        """Zero counters; bank timelines are kept so queueing stays
        causal across the warmup boundary (same contract as the
        wrapped cache's port)."""
        self._inner.reset_stats()
        self.bank_ports.reset_totals()
