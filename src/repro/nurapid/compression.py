"""Compressed-line NuRAPID: compression ratio buys fast-frame capacity.

Following the compressed non-uniform LLC line of work (arXiv
2201.00774), the fast d-groups store lines compressed ``ratio``:1 so
each data frame holds ``ratio`` compressed lines — modeled here as the
compressed groups simply having ``ratio x`` frames, with the tag-side
set limit raised to match.  Whether a given line compresses is a
deterministic per-address draw against the workload's compressible
share (a synthetic stand-in for FPC/BDI-style compressibility), so
runs stay bit-reproducible and engine-independent:

* compressible lines behave exactly like the paper's NuRAPID, just
  with more room in the fast groups;
* incompressible lines are placed into, and never promoted past, the
  first uncompressed d-group;
* reads served by a compressed group pay ``decompression_cycles``.

The variant only overrides its frame layout (`_frame_layout`), the
placement hooks (`_fill_start_group`, `_promote`, `_ensure_chain_space`,
`_prewarm_ways`) and construction, so every replay engine drives it
through the unchanged access/fill protocol.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.caches.block import EMPTY, PREWARM_BASE
from repro.cmp.config import CompressionConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.nurapid.cache import (
    NuRAPIDCache,
    _PACK_DGROUP_MASK,
    _PACK_DGROUP_SHIFT,
    _PACK_FRAME_MASK,
)
from repro.nurapid.config import NuRAPIDConfig
from repro.workloads.interleave import MAX_CORES, core_of_address

#: Fixed 64-bit multiplicative hash (golden-ratio constant) mapping a
#: block address to a uniform 16-bit compressibility draw.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = 0xFFFFFFFFFFFFFFFF


def _share_threshold(share: float) -> int:
    return int(round(share * 65536.0))


class CompressedNuRAPIDCache(NuRAPIDCache):
    """NuRAPID whose fastest d-groups hold compressed lines."""

    def __init__(
        self,
        config: NuRAPIDConfig,
        compression: CompressionConfig,
        geometry=None,
        energy=None,
    ) -> None:
        if compression.compressed_dgroups >= config.n_dgroups:
            raise ConfigurationError(
                "at least one d-group must stay uncompressed to hold "
                f"incompressible lines (got {compression.compressed_dgroups} "
                f"compressed of {config.n_dgroups})"
            )
        if config.associativity % config.n_dgroups:
            raise ConfigurationError(
                "compressed NuRAPID requires associativity divisible by d-groups"
            )
        # The base constructor sizes the slot and frame arrays from
        # _frame_layout, which reads these.
        self.compression = compression
        self._compressed_groups = k = compression.compressed_dgroups
        super().__init__(config, geometry=geometry, energy=energy)
        for group in range(k):
            self._data_cycles[group] = (
                self._data_cycles[group] + compression.decompression_cycles
            )
            self._hit_lat_f[group] = (
                self._hit_lat_f[group] + compression.decompression_cycles
            )
        self._default_threshold = _share_threshold(compression.compressible_share)
        self._core_thresholds: Optional[List[int]] = None
        if compression.core_shares is not None:
            self.set_core_shares(compression.core_shares)

    #: The base cache's slice walk places every fill from d-group 0
    #: and promotes without ``_promote``; this variant's placement
    #: hooks need the per-operation steps.
    solve_outcomes = None

    def _frame_layout(self) -> Tuple[int, List[int]]:
        config = self.config
        ratio = self.compression.ratio
        k = self._compressed_groups
        expanded = config.frames_per_dgroup * ratio
        if expanded > _PACK_FRAME_MASK:
            raise ConfigurationError(
                f"compressed d-group of {expanded} frames overflows packed tags"
            )
        ways_per_group = config.associativity // config.n_dgroups
        frames = [config.frames_per_dgroup] * config.n_dgroups
        frames[:k] = [expanded] * k
        return config.associativity + k * ways_per_group * (ratio - 1), frames

    def set_core_shares(self, shares: Sequence[float]) -> None:
        """Per-core compressible shares for CMP runs.

        Core ids are recovered from the interleaver's address offset;
        cores beyond ``shares`` keep the config's scalar share.  The
        CMP engine calls this at build time with each core's benchmark
        compressibility, so the draw is per workload.
        """
        if len(shares) > MAX_CORES:
            raise ConfigurationError(f"at most {MAX_CORES} core shares")
        thresholds = [self._default_threshold] * MAX_CORES
        for core, share in enumerate(shares):
            if not 0.0 <= share <= 1.0:
                raise ConfigurationError(f"core share must be in [0, 1], got {share}")
            thresholds[core] = _share_threshold(share)
        self._core_thresholds = thresholds

    # --- the synthetic compressibility model ---

    def is_compressible(self, baddr: int) -> bool:
        """Deterministic per-line draw against the workload share."""
        if baddr >= PREWARM_BASE:
            return True  # prewarm dummies always fit the compressed frames
        if self._core_thresholds is not None:
            threshold = self._core_thresholds[core_of_address(baddr)]
        else:
            threshold = self._default_threshold
        return ((baddr * _HASH_MULT) & _HASH_MASK) >> 48 < threshold

    # --- placement hooks ---

    def _fill_start_group(self, baddr: int) -> int:
        sc = self._scounts
        if self.is_compressible(baddr):
            sc["compressible_fills"] = sc.get("compressible_fills", 0) + 1
            return 0
        sc["incompressible_fills"] = sc.get("incompressible_fills", 0) + 1
        return self._compressed_groups

    def _promote(self, slot: int, packed: int, target: int, events) -> Tuple[float, ...]:
        if target < self._compressed_groups and not self.is_compressible(
            self._slot_baddr[slot]
        ):
            target = self._compressed_groups
            source = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
            if target >= source:
                # Already in the first uncompressed group: nowhere
                # faster this line can live.
                sc = self._scounts
                sc["compression_promotions_blocked"] = (
                    sc.get("compression_promotions_blocked", 0) + 1
                )
                return ()
        return super()._promote(slot, packed, target, events)

    def _ensure_chain_space(self, region: int, start: int) -> int:
        """Evict when the uncompressed tail of the region is full.

        An incompressible fill's demotion chain enters at the first
        uncompressed d-group and cannot reach free frames in the
        compressed groups it skipped, so if every group in the tail is
        out of frames for this region the chain would run off the end.
        Evict a distance victim from the slowest group holding one —
        the incompressible share of the region is simply over capacity.
        """
        for group in range(start, self.config.n_dgroups):
            if self._free[group][region]:
                return 0
        return self._evict_distance_victim(
            region, start, "compression_capacity_evictions"
        )

    def _prewarm_ways(self) -> List[int]:
        ratio = self.compression.ratio
        k = self._compressed_groups
        ways_per_group = self.config.associativity // self.config.n_dgroups
        return [
            ways_per_group * ratio if group < k else ways_per_group
            for group in range(self.config.n_dgroups)
        ]

    # --- verification ---

    def check_invariants(self) -> None:
        super().check_invariants()
        for baddr, packed in zip(self._slot_baddr, self._slot_entry):
            if baddr == EMPTY:
                continue
            dgroup = (packed >> _PACK_DGROUP_SHIFT) & _PACK_DGROUP_MASK
            if dgroup < self._compressed_groups and not self.is_compressible(baddr):
                raise SimulationError(
                    f"incompressible block {baddr:#x} resident in "
                    f"compressed d-group {dgroup}"
                )
