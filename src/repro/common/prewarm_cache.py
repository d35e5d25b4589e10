"""Process-wide prewarm prototype registry.

Prewarming a large cache model builds the same steady-state containers
(tag dicts, frame stores, policy recency) every time a cache of the
same shape is constructed — profiling shows it is ~40% of a NuRAPID
cell's setup, repeated for every benchmark x config x repetition.  The
fill itself draws no RNG and charges no stats or energy, so its result
is a pure function of the cache's construction parameters: the first
prewarm of a given key snapshots the filled containers here, and later
prewarms of the same key restore a fresh copy instead of re-running
the fill.  Both directions copy, so prototypes never alias live cache
state; restore is bit-identical to a re-run by construction (the
snapshot is the re-run's exact output).  ``tests/test_prewarm.py``
checks that a restored cache equals a freshly filled one, container
for container, and stays equal under one access/fill stream.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

#: Distinct cache shapes retained (FIFO).  Suites sweep only a handful
#: of shapes; the cap bounds memory if something generates many.
MAX_PROTOTYPES = 8

_snapshots: "OrderedDict[str, object]" = OrderedDict()


def get(key: str) -> Optional[object]:
    """The stored prototype for ``key``, or None."""
    return _snapshots.get(key)


def put(key: str, snapshot: object) -> None:
    """Store ``snapshot`` under ``key`` (evicting the oldest past the cap)."""
    _snapshots[key] = snapshot
    while len(_snapshots) > MAX_PROTOTYPES:
        _snapshots.popitem(last=False)


def clear() -> None:
    """Drop every prototype (tests)."""
    _snapshots.clear()
