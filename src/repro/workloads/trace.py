"""Trace containers and on-disk format.

A trace is a sequence of records ``(gap, address, is_write)``: the
number of instructions retired since the previous record (including
the memory instruction itself) and the reference it ends with.  Traces
are stored columnar in numpy arrays — tens of millions of records fit
comfortably — and can be saved as one uncompressed ``.npy`` file of
aligned records that loads as a read-only memory map, so experiment
suites and worker processes generate each benchmark's stream once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.common.errors import ConfigurationError

#: One on-disk record per reference; ``align=True`` pads the bool flag
#: so the int64 columns stay 8-byte aligned inside the map.
RECORD_DTYPE = np.dtype(
    [("gap", "<i8"), ("addr", "<i8"), ("write", "?")], align=True
)


def set_index_dtype(n_sets: int):
    """The dtype of a decoded set-index column: ``uint16`` when every
    index of ``n_sets`` sets fits (numpy radix-sorts it), else int64."""
    return np.uint16 if n_sets <= 1 << 16 else np.int64


@dataclass(frozen=True)
class BatchDecodedTrace:
    """A trace decoded for the vectorized replay kernel.

    Numpy columns for one (block_bytes, n_sets) geometry, produced once
    by :meth:`Trace.decoded_batch` and cached on the trace, so every
    replay of the same slice shares the decode.  Two bounded memos
    make the rest of a replay's per-slice work once per slice too:
    ``l1_solves`` holds the exact L1 solve of the slice
    (:mod:`repro.sim.l1solve`) per initial L1 state, with the fold
    inputs its misses fix; ``cycle_terms`` holds the slice's
    per-reference cycle terms and totals per core profile's term
    parameters (:mod:`repro.sim.vectorized`).  The geometry is the
    batch's own.
    """

    #: int64 gaps, addresses and block addresses.
    gaps: np.ndarray
    addresses: np.ndarray
    block_addrs: np.ndarray
    #: Set indices, as :func:`set_index_dtype` of the set count.
    sets: np.ndarray
    #: Write flags as a bool array.
    writes: np.ndarray
    l1_solves: Dict[bytes, object] = field(
        default_factory=dict, compare=False, repr=False
    )
    cycle_terms: Dict[tuple, object] = field(
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

    def _memo(self, name: str) -> dict:
        """This trace's memo dict ``name``, made on first use (the
        dataclass is frozen, so it is set around ``__setattr__``)."""
        memo = self.__dict__.get(name)
        if memo is None:
            memo = {}
            object.__setattr__(self, name, memo)
        return memo

    def decoded_batch(self, block_bytes: int, n_sets: int) -> BatchDecodedTrace:
        """Decode for the vectorized kernel, cached per geometry.

        Pre-computes the block address and set index of every
        reference for a cache with ``block_bytes`` blocks over
        ``n_sets`` sets (vectorized; bit-identical to
        :func:`~repro.caches.block.block_address` and
        :func:`~repro.caches.block.set_index` per record).  The result
        is memoized on the trace (keyed by geometry), so every replay
        of this trace object shares the decode and its memos.
        """
        key = (block_bytes, n_sets)
        cache = self._memo("_batch_cache")
        if key in cache:
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
            sets=((addresses >> shift) & np.int64(n_sets - 1)).astype(
                set_index_dtype(n_sets)
            ),
            writes=np.asarray(self.writes, dtype=bool),
        )
        cache[key] = batch
        return batch

    def head(self, n: int) -> "Trace":
        """First ``n`` records (used for warmup splits and quick runs)."""
        if n < 0:
            raise ConfigurationError("head length must be non-negative")
        return self._select(slice(n))

    def _select(self, index) -> "Trace":
        """The records at ``index`` (a slice or an array of positions)."""
        return Trace(
            self.benchmark, self.gaps[index], self.addresses[index], self.writes[index]
        )

    def by_core(self, n_cores: int) -> List[Tuple[np.ndarray, "Trace"]]:
        """Each core's ``(positions, sub-stream)`` of an interleaved
        trace, for cores ``0 .. n_cores-1``; the issuing core of a
        record is read from its address bits
        (:func:`~repro.workloads.interleave.core_of_address`).

        Memoized per core count, like :meth:`split`: every replay of
        this slice reuses the sub-streams, and with them their
        :meth:`decoded_batch` caches and L1 solve memos.
        """
        cache = self._memo("_core_cache")
        if n_cores in cache:
            return cache[n_cores]
        # Imported here: the interleaver builds on this module.
        from repro.workloads.interleave import core_of_address

        owners = core_of_address(self.addresses)
        positions = [np.flatnonzero(owners == core) for core in range(n_cores)]
        cache[n_cores] = [(at, self._select(at)) for at in positions]
        return cache[n_cores]

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
        cache = self._memo("_split_cache")
        if fraction in cache:
            return cache[fraction]
        cut = int(len(self) * fraction)
        cache[fraction] = (self.head(cut), self._select(slice(cut, None)))
        return cache[fraction]

    # --- persistence ---

    def save(self, path: str) -> None:
        """Write the records to ``path`` as one :data:`RECORD_DTYPE` ``.npy``."""
        # zeros, not empty: the pad bytes are part of the file's checksum.
        records = np.zeros(len(self), dtype=RECORD_DTYPE)
        records["gap"] = self.gaps
        records["addr"] = self.addresses
        records["write"] = self.writes
        with open(path, "wb") as handle:
            np.save(handle, records)

    @classmethod
    def load(cls, path: str, benchmark: str, n_references: int) -> "Trace":
        """Memory-map a saved trace read-only; its columns are views.

        Raises :class:`ConfigurationError` when the file is missing,
        is not a ``.npy``, or does not hold ``n_references`` records
        of :data:`RECORD_DTYPE`.
        """
        if not os.path.exists(path):
            raise ConfigurationError(f"no trace file at {path}")
        try:
            records = np.lib.format.open_memmap(path, mode="r")
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"unreadable trace file {path}: {exc}") from None
        if (
            records.dtype != RECORD_DTYPE
            or records.ndim != 1
            or len(records) != n_references
        ):
            raise ConfigurationError(
                f"trace file {path} holds {records.shape} {records.dtype} records, "
                f"expected ({n_references},) {RECORD_DTYPE}"
            )
        return cls(
            benchmark=benchmark,
            gaps=records["gap"],
            addresses=records["addr"],
            writes=records["write"],
        )
