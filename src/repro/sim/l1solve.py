"""Exact whole-slice solve of the 2-way LRU write-back L1.

The hierarchy is non-inclusive with no back-invalidation, so every L1
hit, miss, victim and dirty writeback depends only on the reference
stream and the L1's state before it.  :func:`solve` computes all of
them in a handful of numpy passes; the vectorized replay kernel
(:mod:`repro.sim.vectorized`) then walks only the misses through the
lower levels.

Collapsed recency
-----------------
Stable-sort the references by set and collapse consecutive references
to the same block into one *rep*.  For true LRU with demand fills the
set then holds ``{c[t-1], c[t-2]}`` when rep ``t`` arrives, so rep
``t`` hits iff ``c[t] == c[t-2]``, and a miss evicts ``c[t-2]`` and
takes its way: rep ``t`` sits in the way of rep ``t-2``.

The initial state enters as two seed reps at the head of every set,
least recently used first: the resident blocks in stamp order, and a
unique negative sentinel for an empty way (which never matches a
block, so the miss that reaches it is a free-way fill).  A seed rep
counts as a fill, written iff its resident is dirty.  A block's
residency is then a chain of reps ``t0, t0+2, ...``: a fill followed
by hits, so it is dirty iff any rep in that chain wrote — a segmented
scan over each parity class of rep indices.

Preconditions (true of every state :class:`SetAssociativeCache`
reaches): every resident block maps to its frame's set, a set never
holds one block twice, and every stamp is below the cache's clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class L1Solve:
    """The L1's behaviour over one reference slice.

    Per miss, in trace order: its position, the block it evicts (-1
    when the fill takes an empty way) and whether that victim was
    dirty.  Final state, for the frames the slice changed only: the
    resident block, its dirty bit, and the slice position of its last
    touch (the live cache stamps it ``clock0 + touch``).
    """

    miss_pos: np.ndarray
    victim: np.ndarray
    victim_dirty: np.ndarray
    frames: np.ndarray
    tags: np.ndarray
    dirty: np.ndarray
    touch: np.ndarray


def cache_state(cache) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tags, dirty, lru)`` of a 2-way cache: per-frame tags and dirty
    bits, and per set the way its next fill takes when both are valid
    (the strictly-smaller stamp, way 0 on ties) or the empty way."""
    tags = np.array(cache._tags, dtype=np.int64)
    dirty = np.frombuffer(bytes(cache._dirty), dtype=np.uint8)
    stamps = np.array(cache._stamps, dtype=np.int64)
    v0 = tags[0::2] >= 0
    v1 = tags[1::2] >= 0
    lru = (v0 & ~v1) | (v0 & v1 & (stamps[1::2] < stamps[0::2]))
    return tags, dirty, lru.astype(np.uint8)


def state_key(tags: np.ndarray, dirty: np.ndarray, lru: np.ndarray) -> bytes:
    """Exact identity of an initial state for the solve memo."""
    return tags.tobytes() + dirty.tobytes() + np.packbits(lru).tobytes()


def solve(
    sets: np.ndarray,
    blocks: np.ndarray,
    writes: np.ndarray,
    n_sets: int,
    state: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> L1Solve:
    """Solve the 2-way LRU L1 over one slice from ``state``.

    ``sets``/``blocks``/``writes`` are the slice's per-reference set
    indices, block addresses and write flags; ``state`` is a
    :func:`cache_state` triple, empty cache when None.
    """
    n_frames = 2 * n_sets
    # uint16 set indices take numpy's radix path for the stable sort,
    # which dominates the solve.
    sdt = np.uint16 if n_sets <= 1 << 16 else np.int64
    if state is None:
        tags0 = np.full(n_frames, -1, dtype=np.int64)
        dirty0 = np.zeros(n_frames, dtype=np.uint8)
        lru0 = np.zeros(n_sets, dtype=np.uint8)
    else:
        tags0, dirty0, lru0 = state
    lru0 = lru0.astype(np.int64)
    set_ids = np.arange(n_sets, dtype=np.int64)

    # Seed reps, least recent first.
    seed_frame = np.empty(n_frames, dtype=np.int64)
    seed_frame[0::2] = 2 * set_ids + lru0
    seed_frame[1::2] = 2 * set_ids + (1 - lru0)
    seed_block = tags0[seed_frame]
    empty = seed_block < 0
    seed_block = np.where(empty, -1 - np.arange(n_frames), seed_block)
    seed_write = (dirty0[seed_frame] != 0) & ~empty

    order = np.argsort(
        np.concatenate(
            [np.repeat(set_ids.astype(sdt), 2), sets.astype(sdt, copy=False)]
        ),
        kind="stable",
    )
    b = np.concatenate([seed_block, blocks])[order]
    w = np.concatenate([seed_write, writes])[order]
    n_all = len(b)
    new = np.empty(n_all, dtype=bool)
    new[0] = True
    # Blocks map to one set and sentinels are unique, so a block change
    # also marks every set boundary.
    np.not_equal(b[1:], b[:-1], out=new[1:])
    rep = np.flatnonzero(new)
    m = len(rep)
    cb = b[rep]
    cw = np.logical_or.reduceat(w, rep)
    # Seed reps never match two reps back (another set's block), so
    # they come out as fills.
    fill = np.ones(m, dtype=bool)
    np.not_equal(cb[2:], cb[:-2], out=fill[2:])

    # Dirty per rep: any write along its residency chain so far.
    dirty_rep = np.empty(m, dtype=bool)
    for par in (0, 1):
        f = fill[par::2]
        c = cw[par::2]
        idx = np.arange(len(f))
        start = np.maximum.accumulate(np.where(f, idx, 0))
        cum = np.cumsum(c, dtype=np.int64)
        dirty_rep[par::2] = cum - cum[start] + c[start] > 0

    # Misses: fills that are real references; each evicts rep t-2.
    src = order[rep] - n_frames
    miss_rep = np.flatnonzero(fill & (src >= 0))
    pos = src[miss_rep]
    by_pos = np.argsort(pos)
    miss_rep = miss_rep[by_pos]
    victim = cb[miss_rep - 2]
    victim_dirty = dirty_rep[miss_rep - 2]
    victim = np.where(victim < 0, -1, victim)

    # Final state: each set's last two reps, in the ways their parity
    # relative to the seed reps gives.
    counts = np.bincount(sets, minlength=n_sets) + 2
    first = np.searchsorted(rep, np.cumsum(counts) - counts)
    last = np.empty(n_sets, dtype=np.int64)
    last[:-1] = first[1:] - 1
    last[-1] = m - 1
    fin = np.empty(n_frames, dtype=np.int64)
    fin[0::2] = last - 1
    fin[1::2] = last
    local = fin - np.repeat(first, 2)
    frame = 2 * np.repeat(set_ids, 2) + (np.repeat(lru0, 2) ^ (local & 1))
    group_end = np.append(rep[1:], n_all)
    touch = order[group_end[fin] - 1] - n_frames
    changed = touch >= 0
    fin = fin[changed]
    return L1Solve(
        miss_pos=pos[by_pos],
        victim=victim,
        victim_dirty=victim_dirty,
        frames=frame[changed],
        tags=cb[fin],
        dirty=dirty_rep[fin].astype(np.uint8),
        touch=touch[changed],
    )


def commit(cache, result: L1Solve, clock0: int, n_refs: int) -> None:
    """Install a solve's final state into ``cache``, whose clock stood
    at ``clock0`` before the slice's ``n_refs`` references (each hit
    or fill bumps it once)."""
    tags = cache._tags
    dirty = cache._dirty
    stamps = cache._stamps
    for f, t, d, k in zip(
        result.frames.tolist(),
        result.tags.tolist(),
        result.dirty.tolist(),
        (result.touch + clock0).tolist(),
    ):
        tags[f] = t
        dirty[f] = d
        stamps[f] = k
    cache._clock = clock0 + n_refs
