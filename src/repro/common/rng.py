"""Deterministic random-number generation.

Every stochastic component in the simulator (random distance
replacement, synthetic trace generation, smart-search false hits) draws
from a :class:`DeterministicRNG` seeded from an experiment-level master
seed plus a component label, so that:

* re-running an experiment reproduces its numbers bit-for-bit, and
* two components never share a stream (changing how many numbers one
  consumes cannot perturb another).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, label: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a label.

    Uses SHA-256 so distinct labels give statistically independent
    streams even when master seeds are small consecutive integers.
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRNG:
    """A labeled, reproducible random stream.

    Thin wrapper over :class:`random.Random` that records its seed and
    label for diagnostics and exposes only the operations the simulator
    needs.
    """

    def __init__(self, master_seed: int, label: str) -> None:
        self.master_seed = master_seed
        self.label = label
        self.seed = derive_seed(master_seed, label)
        self._rng = random.Random(self.seed)

    def __repr__(self) -> str:
        return f"DeterministicRNG(master_seed={self.master_seed}, label={self.label!r})"

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        return self._rng.randint(lo, hi)

    def index_sampler(self) -> Callable[[int], int]:
        """A function ``f(n)`` drawing the value ``randint(0, n - 1)``
        would, from this stream, without the wrapper layers (for hot
        victim selection)."""
        return self._rng.randrange

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def expovariate(self, lambd: float) -> float:
        return self._rng.expovariate(lambd)

    def paretovariate(self, alpha: float) -> float:
        return self._rng.paretovariate(alpha)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        count = 1
        while self._rng.random() >= p:
            count += 1
        return count

    def spawn(self, sublabel: str) -> "DeterministicRNG":
        """Create an independent child stream."""
        return DeterministicRNG(self.seed, f"{self.label}/{sublabel}")
