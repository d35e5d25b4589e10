"""Cache substrates: everything below the paper's contribution.

* :mod:`repro.caches.block` — block-address math and prewarm dummies.
* :mod:`repro.caches.port` — busy-time port/bank scheduling (the
  one-ported NuRAPID vs multi-banked D-NUCA contrast lives here).
* :mod:`repro.caches.level` — the ``access``/``fill`` every cache
  level composes from its outcome and timing steps.
* :mod:`repro.caches.mshr` — miss-status holding registers.
* :mod:`repro.caches.simple` — conventional set-associative caches
  (the L1s and the base L2/L3 hierarchy).
* :mod:`repro.caches.memory` — main-memory latency model.
* :mod:`repro.caches.hierarchy` — multi-level composition.
* :mod:`repro.caches.setassoc_nonuniform` — the *coupled* tag/data
  placement non-uniform cache the paper contrasts against in Figure 4.
"""

from repro.caches.prefetch import StreamPrefetcher
from repro.caches.port import PortArray
from repro.caches.mshr import MSHRFile
from repro.caches.memory import MainMemory
from repro.caches.simple import SetAssociativeCache
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache

__all__ = [
    "StreamPrefetcher",
    "CacheHierarchy",
    "MSHRFile",
    "MainMemory",
    "PortArray",
    "SetAssociativeCache",
    "SetAssociativePlacementCache",
]
