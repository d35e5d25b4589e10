"""Fault models: what can go wrong, how often, and how wide.

Two fault classes, mirroring §3's reliability argument:

* **Transient upsets** (soft errors) — a particle strike flips one or
  more adjacent cells of one subarray.  Whether the block survives
  depends on how widely its ECC words are interleaved across subarrays
  (:class:`repro.tech.ecc.InterleavingPlan`): with wide spreading a
  multi-cell strike lands at most one bit per SEC-DED word and is
  corrected; with narrow spreading it produces detected-uncorrectable
  (or, at 3+ bits, silently miscorrected) words.

* **Hard subarray failures** — a whole subarray dies mid-run.  The
  cache first consults its :class:`repro.floorplan.spares.SpareManager`
  for a spare in the affected repair domain; when spares are exhausted
  the subarray's frames are retired and the d-group operates at
  reduced capacity (graceful degradation).

A :class:`FaultPlan` is a frozen description of a fault campaign that
can ride inside a :class:`repro.sim.config.SystemConfig`; the
:class:`repro.faults.injector.FaultInjector` executes it against a
running cache using a :class:`repro.common.rng.DeterministicRNG`, so
campaigns replay bit-for-bit under a fixed seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import ConfigurationError

#: Hours per billion device-hours (the FIT normalization constant).
_FIT_HOURS = 1e9
_SECONDS_PER_HOUR = 3600.0


class TransientOutcome(enum.Enum):
    """Architecturally visible result of one transient upset."""

    #: SEC-DED corrected the word(s); access proceeds normally.
    CORRECTED = "corrected"
    #: 3+ flipped bits aliased to a valid-looking correction: silent
    #: data corruption.  The cache cannot see this (it proceeds as if
    #: corrected); the injector's oracle counts it.
    MISCORRECTED = "miscorrected"
    #: Detected-uncorrectable on a *clean* line: drop the line and
    #: refetch from below (the access becomes a miss).
    REFETCH = "refetch"
    #: Detected-uncorrectable on a *dirty* line: only copy lost; the
    #: injector raises :class:`repro.common.errors.UncorrectableDataError`.
    DATA_LOSS = "data-loss"


@dataclass(frozen=True)
class HardFaultEvent:
    """One scheduled stuck-at subarray failure.

    Fires once the cache has served ``at_access`` accesses.  ``dgroup``
    selects the repair domain (d-group for NuRAPID; conventional caches
    treat the whole array as domain 0) and ``subarray`` the failing
    data subarray within it.
    """

    at_access: int
    dgroup: int
    subarray: int

    def __post_init__(self) -> None:
        if self.at_access <= 0:
            raise ConfigurationError("hard fault must fire at a positive access count")
        if self.dgroup < 0 or self.subarray < 0:
            raise ConfigurationError("hard fault coordinates must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault campaign for one cache.

    ``transient_per_access`` is the probability that any given access
    observes an upset on the line it touches (the standard access-based
    sampling approximation: errors on never-again-touched lines are
    architecturally invisible).  Use :func:`transient_rate_from_fit` to
    derive it from a FIT rate.  ``transient_at_accesses`` additionally
    forces an upset at exact access counts — deterministic scheduling
    for tests and targeted studies.

    ``max_upset_bits`` bounds the width (in adjacent cells of one
    subarray) of a strike; widths are drawn uniformly in
    ``[1, max_upset_bits]``.  ``interleave_subarrays`` is how many
    subarrays each block's ECC words spread over — the §3.1 layout knob
    that separates NuRAPID's large d-groups from narrow banked layouts.

    ``hard_faults`` schedules stuck-at subarray failures; each d-group
    is a repair domain of ``data_subarrays_per_dgroup`` subarrays
    backed by ``spare_subarrays_per_dgroup`` spares.
    """

    transient_per_access: float = 0.0
    transient_at_accesses: Tuple[int, ...] = ()
    max_upset_bits: int = 1
    word_bits: int = 64
    words_per_block: int = 16
    interleave_subarrays: int = 64
    hard_faults: Tuple[HardFaultEvent, ...] = ()
    data_subarrays_per_dgroup: int = 64
    spare_subarrays_per_dgroup: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_per_access <= 1.0:
            raise ConfigurationError("transient_per_access must be in [0, 1]")
        if any(a <= 0 for a in self.transient_at_accesses):
            raise ConfigurationError("forced upsets need positive access counts")
        if self.max_upset_bits <= 0:
            raise ConfigurationError("max_upset_bits must be positive")
        if self.word_bits <= 0 or self.words_per_block <= 0:
            raise ConfigurationError("ECC word geometry must be positive")
        if self.interleave_subarrays <= 0:
            raise ConfigurationError("interleave_subarrays must be positive")
        if self.data_subarrays_per_dgroup <= 0:
            raise ConfigurationError("data_subarrays_per_dgroup must be positive")
        if self.spare_subarrays_per_dgroup < 0:
            raise ConfigurationError("spare_subarrays_per_dgroup must be non-negative")

    def label(self) -> str:
        """Compact suffix for config names (cache keys must see faults)."""
        parts = []
        if self.transient_per_access:
            parts.append(f"t{self.transient_per_access:g}")
        if self.transient_at_accesses:
            parts.append(f"t@{len(self.transient_at_accesses)}")
        if self.hard_faults:
            parts.append(f"h{len(self.hard_faults)}")
        parts.append(f"s{self.seed}")
        return "flt-" + "-".join(parts)


def transient_rate_from_fit(
    fit_per_mbit: float,
    capacity_bits: int,
    accesses_per_second: float,
) -> float:
    """Per-access upset probability equivalent to a FIT rate.

    FIT is failures per 10^9 device-hours per Mbit — the unit SRAM
    soft-error rates are quoted in.  The whole array's upset rate is
    spread over the access stream: with ``accesses_per_second`` demand
    accesses, each access samples ``rate / accesses_per_second`` of the
    exposure window.
    """
    if fit_per_mbit < 0:
        raise ConfigurationError("FIT rate must be non-negative")
    if capacity_bits <= 0:
        raise ConfigurationError("capacity must be positive")
    if accesses_per_second <= 0:
        raise ConfigurationError("access rate must be positive")
    upsets_per_second = (
        fit_per_mbit * (capacity_bits / 1e6) / (_FIT_HOURS * _SECONDS_PER_HOUR)
    )
    rate = upsets_per_second / accesses_per_second
    return min(1.0, rate)
