"""Process-wide prewarm prototype registry for NuRAPID.

Every cache model fills its steady state from the one dummy-block
layout, :func:`repro.caches.block.prewarm_blocks`, in whole-array
passes.  NuRAPID is this registry's only user, because its fill also
builds frame stores and a distance-replacement policy per d-group: on
a 2-vCPU x86 VM under Python 3.11, a direct fill of the 8 MB cache
takes 35-46 ms, while restoring a stored copy of the same containers
takes 5.5-7 ms.  A ``replay-l1`` perfbench op builds NuRAPID twice in
about 0.2 s, so the restore is worth keeping.  The other models need
no stored copy: D-NUCA, the only other one a benchmark workload
builds per op, fills 8 MB in about 10 ms.

The fill draws no RNG and charges no stats or energy, so its result
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
