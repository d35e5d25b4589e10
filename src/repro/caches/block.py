"""Block-address math and prewarm dummy blocks shared by all cache
organizations."""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError

#: Start of the reserved address region for prewarm dummy blocks; far
#: above any workload region (and every CMP core offset) so dummies
#: never alias real traffic.
PREWARM_BASE = 1 << 45


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
    of a cache collide.  Every lower level fills its steady state
    (the paper's 5-billion-instruction fast-forward) from this int64
    matrix; raveled, it is set-major and way-minor.
    """
    sets = np.arange(n_sets, dtype=np.int64)[:, None]
    way_cols = np.arange(ways, dtype=np.int64)[None, :]
    return PREWARM_BASE + (way_cols * n_sets + sets) * block_bytes
