"""Smart-search array: cached partial tags for D-NUCA (§4, §5.4).

The ss-array holds the ``ss_partial_bits`` least-significant tag bits
of every resident way ("we use the least significant tag bits to
decrease the probability of false hits").  A lookup returns the chain
levels whose partial tags match the request:

* no matching level → a guaranteed miss, detectable without touching
  any bank (ss-performance's early miss detection);
* matching levels → candidates to probe (ss-energy); a candidate whose
  full tag then mismatches is a *false hit*.

Entries are addressed by the cache's flat slot number,
``slot = set * associativity + position``, with position ``p`` in
chain level ``p // ways_per_bank``.  The array mirrors the banks'
contents, so the cache informs it of every insert, removal, and move.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigurationError, SimulationError

#: Partial tag of an empty slot; real partial tags are non-negative.
EMPTY = -1


class SmartSearchArray:
    """One partial tag per (set, position) slot."""

    def __init__(
        self,
        n_sets: int,
        associativity: int,
        chain_length: int,
        partial_bits: int,
        block_bytes: int,
    ) -> None:
        if n_sets <= 0 or chain_length <= 0:
            raise ConfigurationError("sets and chain length must be positive")
        if associativity <= 0 or associativity % chain_length:
            raise ConfigurationError(
                "associativity must spread evenly over the chain"
            )
        if not 1 <= partial_bits <= 32:
            raise ConfigurationError("partial_bits must be in [1, 32]")
        self.n_sets = n_sets
        self.associativity = associativity
        self.chain_length = chain_length
        self.ways_per_bank = associativity // chain_length
        self.partial_bits = partial_bits
        self.block_bytes = block_bytes
        self._mask = (1 << partial_bits) - 1
        self._n_slots = n_sets * associativity
        #: slot -> stored partial tag (EMPTY when the way holds nothing).
        self._partial: List[int] = [EMPTY] * self._n_slots
        self.lookups = 0
        self.false_hits = 0

    def partial_tag(self, block_addr: int) -> int:
        """The stored low-order tag bits for a block address."""
        tag = block_addr // self.block_bytes // self.n_sets
        return tag & self._mask

    def partial_at(self, slot: int) -> int:
        """The partial tag stored for ``slot`` (EMPTY if none)."""
        return self._partial[slot]

    # --- mirror maintenance ---

    def insert(self, slot: int, block_addr: int) -> None:
        """Record the block now held by the empty ``slot``."""
        self._check(slot)
        if self._partial[slot] != EMPTY:
            raise SimulationError(f"ss-array insert into occupied slot {slot}")
        self._partial[slot] = self.partial_tag(block_addr)

    def remove(self, slot: int) -> None:
        """Forget the block held by ``slot``."""
        self._check(slot)
        if self._partial[slot] == EMPTY:
            raise SimulationError(f"ss-array remove from empty slot {slot}")
        self._partial[slot] = EMPTY

    def move(self, src: int, dst: int) -> None:
        """Move the block at ``src`` to ``dst``; whatever ``dst`` held
        (possibly nothing) moves to ``src`` — a promotion swap."""
        self._check(src)
        self._check(dst)
        partial = self._partial
        if partial[src] == EMPTY:
            raise SimulationError(f"ss-array move from empty slot {src}")
        partial[src], partial[dst] = partial[dst], partial[src]

    def fill_all(self, block_addrs) -> None:
        """Load every slot at once (prewarm): ``block_addrs`` is an
        int64 array with one non-negative block address per slot, in
        slot order.  The array must be empty."""
        if len(block_addrs) != self._n_slots:
            raise SimulationError(
                f"ss-array bulk fill of {len(block_addrs)} slots, expected {self._n_slots}"
            )
        if self._partial.count(EMPTY) != self._n_slots:
            raise SimulationError("ss-array bulk fill of a non-empty array")
        tags = block_addrs // self.block_bytes // self.n_sets
        self._partial = (tags & self._mask).tolist()

    # --- lookup ---

    def candidate_levels(self, index: int, block_addr: int) -> List[int]:
        """Chain levels with a partial-tag match, nearest first."""
        if not 0 <= index < self.n_sets:
            raise SimulationError(f"set {index} out of range")
        self.lookups += 1
        want = (block_addr // self.block_bytes // self.n_sets) & self._mask
        base = index * self.associativity
        ways = self._partial[base : base + self.associativity]
        if want not in ways:
            return []
        wpb = self.ways_per_bank
        levels: List[int] = []
        for position, partial in enumerate(ways):
            if partial == want:
                level = position // wpb
                if not levels or levels[-1] != level:
                    levels.append(level)
        return levels

    def note_false_hit(self) -> None:
        self.false_hits += 1

    def _check(self, slot: int) -> None:
        if not 0 <= slot < self._n_slots:
            raise SimulationError(f"slot {slot} out of range")
