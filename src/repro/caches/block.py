"""Block-address math and prewarm dummy blocks shared by all cache
organizations."""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.common.errors import ConfigurationError

#: Start of the reserved address region for prewarm dummy blocks; far
#: above any workload region (and every CMP core offset) so dummies
#: never alias real traffic.
PREWARM_BASE = 1 << 45

#: Block address of a way holding no block (and, in the ss-array, the
#: partial tag of one); real block addresses are non-negative.
EMPTY = -1


def victim_way(blocks: list, stamps: list, first: int, n: int) -> int:
    """The way of ``[first, first + n)`` a fill or promotion takes.

    Every set-associative array here uses the one replacement rule:
    the first free (``EMPTY``) way, else the least recently touched
    way, the first one winning ties.  ``blocks`` and ``stamps`` are a
    cache's flat per-way lists; the result is an index into them.
    """
    end = first + n
    ways = blocks[first:end]
    if EMPTY in ways:
        return first + ways.index(EMPTY)
    touched = stamps[first:end]
    return first + touched.index(min(touched))


def block_address(address: int, block_bytes: int) -> int:
    """Align ``address`` down to its ``block_bytes`` boundary."""
    if block_bytes <= 0 or block_bytes & (block_bytes - 1):
        raise ConfigurationError(
            f"block size must be a positive power of two, got {block_bytes}"
        )
    return address & ~(block_bytes - 1)


def set_index(address: int, block_bytes: int, n_sets: int) -> int:
    """Set index of ``address`` for a cache with ``n_sets`` sets."""
    if n_sets <= 0 or n_sets & (n_sets - 1):
        raise ConfigurationError(
            f"set count must be a positive power of two, got {n_sets}"
        )
    return (address // block_bytes) & (n_sets - 1)


def prewarm_blocks(n_sets: int, ways: int, block_bytes: int) -> np.ndarray:
    """The dummy block of every ``[set, way]`` of a prewarmed cache.

    Way ``w`` of set ``i`` holds ``PREWARM_BASE + (w * n_sets + i) *
    block_bytes``: each dummy maps to its own set, and no two dummies
    of a cache collide.  This is every lower level's steady state (the
    paper's 5-billion-instruction fast-forward); raveled, it is
    set-major and way-minor, and :func:`prewarm_slots` holds it as
    the ints the caches fill from.
    """
    sets = np.arange(n_sets, dtype=np.int64)[:, None]
    way_cols = np.arange(ways, dtype=np.int64)[None, :]
    return PREWARM_BASE + (way_cols * n_sets + sets) * block_bytes


@lru_cache(maxsize=4)
def _dummies(n_blocks: int, block_bytes: int) -> Tuple[int, ...]:
    """Dummy ``k`` of every cache of ``n_blocks`` blocks of
    ``block_bytes``: ``PREWARM_BASE + k * block_bytes``.

    One tuple per block count and size, so geometries that hold the
    same dummies in other slot orders (an 8192 x 8 and a 4096 x 16
    cache of 128-byte blocks) share the int objects.
    """
    end = PREWARM_BASE + n_blocks * block_bytes
    return tuple(range(PREWARM_BASE, end, block_bytes))


@lru_cache(maxsize=8)
def prewarm_slots(n_sets: int, ways: int, block_bytes: int) -> Tuple[int, ...]:
    """:func:`prewarm_blocks` raveled (set-major, way-minor) as a tuple
    of ints: what every lower level's ``prewarm`` copies into its
    per-slot list.

    Computed once per geometry and never mutated, so a cache built
    again costs a list copy, not a rebuild.  The bound covers the
    experiments' geometries (base L2 and L3, NuRAPID and its
    compressed variant, D-NUCA/S-NUCA); each entry pins one pointer
    per slot, its ints being :func:`_dummies`'.
    """
    dummies = _dummies(n_sets * ways, block_bytes)
    slots = [EMPTY] * (n_sets * ways)
    for w in range(ways):
        slots[w::ways] = dummies[w * n_sets : (w + 1) * n_sets]
    return tuple(slots)
