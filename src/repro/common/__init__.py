"""Shared primitives used across all simulator subsystems.

This package deliberately has no dependencies on the cache, CPU, or
technology models: it provides the vocabulary types (memory accesses,
access results), deterministic randomness, and statistics containers
that the rest of :mod:`repro` builds on.
"""

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import Access, AccessResult, AccessType
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter, Distribution

__all__ = [
    "Access",
    "AccessResult",
    "AccessType",
    "ConfigurationError",
    "Counter",
    "DeterministicRNG",
    "Distribution",
    "SimulationError",
]
