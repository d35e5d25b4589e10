"""The one composition of a cache level's two steps.

Every cache the hierarchy reaches (the L1s, the base L2/L3 and each
non-uniform L2 model) makes each operation in two steps (DESIGN.md,
"Lower-level outcome and timing"):

* ``access_outcome(address, is_write)`` and ``fill_outcome(address,
  dirty)`` take no time.  They make every state, RNG, fault and counter
  change and return a compact outcome tuple: element 0 is the hit flag
  of an access, or the dirty writebacks of a fill, whose element 1
  holds the events its timing step emits and is None when it has none.
* ``access_timing(outcome, now) -> latency`` and ``fill_timing(outcome,
  now)`` claim the port or bank occupancy and emit the telemetry the
  outcome carries, stamped with ``now``.

:class:`CacheLevel` composes them into ``access`` and ``fill``, once for
every model; the vectorized kernel calls the steps directly.
"""

from __future__ import annotations

import numpy as np

from repro.caches.port import check_timestamp
from repro.common.errors import UncorrectableDataError
from repro.common.types import AccessResult


def slice_operations(addresses, victims, victim_dirty):
    """A lone lower level's operations in one replay slice, in order.

    Per L1 miss (``addresses``, with the L1 victims' addresses and
    dirty flags): the demand read access, filled when it misses, then
    the dirty victim's write access.  Returns each access's address
    and write flag (numpy arrays); a level's ``solve_outcomes`` takes
    the three columns and replays this stream.
    """
    keep = np.ones((len(addresses), 2), dtype=bool)
    keep[:, 1] = victim_dirty
    address = np.stack(
        [np.asarray(addresses, dtype=np.int64), np.asarray(victims, dtype=np.int64)],
        axis=1,
    )[keep]
    is_write = np.broadcast_to(np.array([False, True]), keep.shape)[keep]
    return address, is_write


class CacheLevel:
    """A cache level: ``access`` and ``fill``, each one outcome step
    followed by one timing step.

    Subclasses provide ``name``, ``block_bytes``, ``telemetry``,
    ``contains`` and the four steps; a level whose fills take no port
    time keeps the default :meth:`fill_timing`.
    """

    def access(self, address: int, is_write: bool = False, now: float = 0.0) -> AccessResult:
        """Present one reference arriving at cycle ``now``; the latency
        covers this level only, including any port or bank queueing."""
        check_timestamp(self.name, now)
        try:
            outcome = self.access_outcome(address, is_write)
        except UncorrectableDataError as exc:
            exc.emit_deferred()
            raise
        return AccessResult(outcome[0], self.access_timing(outcome, now), self.name)

    def fill(self, address: int, now: float = 0.0, dirty: bool = False) -> int:
        """Install a block after a miss; returns the number of dirty
        blocks it pushed out (writeback traffic)."""
        check_timestamp(self.name, now)
        outcome = self.fill_outcome(address, dirty)
        self.fill_timing(outcome, now)
        return outcome[0]

    def fill_timing(self, outcome, now: float) -> None:
        """A fill takes no port time (it rides the fill buffers); only
        its deferred events remain, stamped with the fill time."""
        if outcome[1]:
            self.telemetry.emit_deferred(outcome[1], now)
