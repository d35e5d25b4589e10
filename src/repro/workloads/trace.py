"""Trace containers and on-disk format.

A trace is a sequence of records ``(gap, address, is_write)``: the
number of instructions retired since the previous record (including
the memory instruction itself) and the reference it ends with.  Traces
are stored columnar in numpy arrays — tens of millions of records fit
comfortably — and can be cached to ``.npz`` files so experiment suites
generate each benchmark's stream once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class BatchDecodedTrace:
    """A trace decoded for the vectorized replay kernel.

    Numpy columns for one (block_bytes, n_sets) geometry, produced once
    by :meth:`Trace.decoded_batch` and cached on the trace, so every
    replay of the same slice shares the decode.  ``l1_solves`` memoises
    the exact L1 solve of the slice (:mod:`repro.sim.l1solve`) per
    initial L1 state; the geometry is the batch's own.
    """

    #: int64 gaps, addresses, block addresses and set indices.
    gaps: np.ndarray
    addresses: np.ndarray
    block_addrs: np.ndarray
    sets: np.ndarray
    #: Write flags as a bool array.
    writes: np.ndarray
    l1_solves: Dict[bytes, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.gaps)


@dataclass(frozen=True)
class Trace:
    """Columnar reference trace plus its provenance."""

    benchmark: str
    gaps: np.ndarray
    addresses: np.ndarray
    writes: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.gaps)
        if len(self.addresses) != n or len(self.writes) != n:
            raise ConfigurationError("trace columns must have equal length")
        if n and int(self.gaps.min()) < 1:
            raise ConfigurationError("gaps must be >= 1 (each record is an instruction)")

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def instructions(self) -> int:
        """Total instructions represented, including the references."""
        return int(self.gaps.sum())

    @property
    def references(self) -> int:
        return len(self.gaps)

    def records(self) -> Iterator[Tuple[int, int, bool]]:
        """Iterate (gap, address, is_write) as Python scalars."""
        gaps = self.gaps.tolist()
        addresses = self.addresses.tolist()
        writes = self.writes.tolist()
        return zip(gaps, addresses, writes)

    def decoded_batch(self, block_bytes: int, n_sets: int) -> BatchDecodedTrace:
        """Decode for the vectorized kernel, cached per geometry.

        Pre-computes the block address and set index of every
        reference for a cache with ``block_bytes`` blocks over
        ``n_sets`` sets (vectorized; bit-identical to
        :func:`~repro.caches.block.block_address` and
        :func:`~repro.caches.block.set_index` per record).  The result
        is memoized on the trace (keyed by geometry), so every replay
        of this trace object shares the decode and the L1 solve memo.
        """
        key = (block_bytes, n_sets)
        cache = getattr(self, "_batch_cache", None)
        if cache is not None and key in cache:
            return cache[key]
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ConfigurationError(
                f"block size must be a positive power of two, got {block_bytes}"
            )
        if n_sets <= 0 or n_sets & (n_sets - 1):
            raise ConfigurationError(
                f"set count must be a positive power of two, got {n_sets}"
            )
        if not len(self.gaps):
            raise ConfigurationError(
                f"trace '{self.benchmark}' is empty; nothing to decode "
                "(generate or load references before replaying)"
            )
        addresses = np.asarray(self.addresses, dtype=np.int64)
        shift = block_bytes.bit_length() - 1
        batch = BatchDecodedTrace(
            gaps=np.asarray(self.gaps, dtype=np.int64),
            addresses=addresses,
            block_addrs=addresses & ~np.int64(block_bytes - 1),
            sets=(addresses >> shift) & np.int64(n_sets - 1),
            writes=np.asarray(self.writes, dtype=bool),
        )
        if cache is None:
            cache = {}
            object.__setattr__(self, "_batch_cache", cache)
        cache[key] = batch
        return batch

    def head(self, n: int) -> "Trace":
        """First ``n`` records (used for warmup splits and quick runs)."""
        if n < 0:
            raise ConfigurationError("head length must be non-negative")
        return Trace(
            benchmark=self.benchmark,
            gaps=self.gaps[:n],
            addresses=self.addresses[:n],
            writes=self.writes[:n],
        )

    def split(self, fraction: float) -> Tuple["Trace", "Trace"]:
        """Split into (warmup, measured) at ``fraction`` of the records.

        Memoized per fraction: every cell of a sweep (and every bench
        repetition) splits its trace at the same point, and reusing the
        child ``Trace`` objects also reuses their :meth:`decoded_batch`
        caches — the decode then happens once per trace instead of once
        per run.  The children are frozen views over this trace's
        arrays, so sharing them is safe.
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError("split fraction must be in [0, 1)")
        cache = getattr(self, "_split_cache", None)
        if cache is not None and fraction in cache:
            return cache[fraction]
        cut = int(len(self) * fraction)
        warm = self.head(cut)
        rest = Trace(
            benchmark=self.benchmark,
            gaps=self.gaps[cut:],
            addresses=self.addresses[cut:],
            writes=self.writes[cut:],
        )
        if cache is None:
            cache = {}
            object.__setattr__(self, "_split_cache", cache)
        cache[fraction] = (warm, rest)
        return warm, rest

    # --- persistence ---

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            benchmark=np.array(self.benchmark),
            gaps=self.gaps,
            addresses=self.addresses,
            writes=self.writes,
        )

    @classmethod
    def load(cls, path: str) -> "Trace":
        if not os.path.exists(path):
            raise ConfigurationError(f"no trace file at {path}")
        with np.load(path, allow_pickle=False) as data:
            return cls(
                benchmark=str(data["benchmark"]),
                gaps=data["gaps"],
                addresses=data["addresses"],
                writes=data["writes"],
            )
