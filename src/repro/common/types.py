"""Vocabulary types shared by every level of the memory hierarchy.

Addresses are plain integers (byte addresses).  Caches convert them to
block addresses by shifting out the block-offset bits; the types here
carry the raw byte address so the same trace can be replayed against
caches with different block sizes (the paper's L1 uses 32 B blocks
while the L2 organizations use 128 B blocks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AccessType(enum.Enum):
    """Kind of memory reference issued by the core."""

    READ = "read"
    WRITE = "write"
    IFETCH = "ifetch"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE


@dataclass(frozen=True)
class Access:
    """A single memory reference.

    Attributes:
        address: byte address of the reference.
        kind: read / write / instruction fetch.
        pc: program counter of the issuing instruction (used only by
            the workload generator for bookkeeping; 0 when unknown).
    """

    address: int
    kind: AccessType = AccessType.READ
    pc: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")

    def block_address(self, block_size: int) -> int:
        """Return the block-aligned address for ``block_size``-byte blocks."""
        return self.address & ~(block_size - 1)


@dataclass(slots=True)
class AccessResult:
    """Outcome of presenting an access to a cache (or hierarchy).

    A level's dynamic energy is not carried here: its outcome steps
    charge it to the level's :class:`~repro.tech.energy.EnergyBook`.

    Attributes:
        hit: whether the access hit at this level.
        latency: cycles from presentation of the access until data is
            available at this level's output (includes any queueing on
            the cache's port or banks).
        level: name of the level that finally supplied the data, e.g.
            ``"L1"``, ``"L2"``, ``"memory"``.
    """

    hit: bool
    latency: float
    level: str = ""
