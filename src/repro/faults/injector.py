"""Runtime fault injection against a live cache.

A :class:`FaultInjector` is attached to one cache instance (its own
RNG stream, its own spare pool) and consulted from the cache's access
path.  The contract with the host cache:

* every access calls :meth:`on_access`; the injector ticks its access
  counter and, for hits, may return a
  :class:`~repro.faults.models.TransientOutcome` the cache must act on
  (``REFETCH`` → drop the clean line and treat the access as a miss) or
  raises :class:`~repro.common.errors.UncorrectableDataError` for a
  dirty-line uncorrectable;
* every access then calls :meth:`take_due_hard_faults` and applies the
  returned :class:`~repro.faults.models.HardFaultEvent`s — consulting
  :meth:`repair_or_retire` which runs the spare-remap-or-retire
  decision through the :class:`~repro.floorplan.spares.SpareManager`.

Upsets flow through the *actual* SEC-DED machinery in
:mod:`repro.tech.ecc`: the injector encodes a random data word, flips
the drawn number of bits, and decodes — so corrected / detected /
aliased-miscorrected outcomes come from the code, not from a table.

The injector is pure overhead-free opt-in: a cache with no injector
attached executes exactly its pre-fault code path (no RNG draws, no
branches taken), keeping no-fault results bit-identical.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigurationError, UncorrectableDataError
from repro.common.rng import DeterministicRNG
from repro.common.stats import Counter
from repro.floorplan.spares import SpareManager
from repro.tech.ecc import DecodeStatus, InterleavingPlan, SECDED
from repro.faults.models import FaultPlan, HardFaultEvent, TransientOutcome


class FaultInjector:
    """Executes one :class:`FaultPlan` against one cache."""

    def __init__(self, plan: FaultPlan, cache_name: str, n_dgroups: int = 1) -> None:
        if n_dgroups <= 0:
            raise ConfigurationError("injector needs at least one d-group")
        for event in plan.hard_faults:
            if event.dgroup >= n_dgroups:
                raise ConfigurationError(
                    f"hard fault targets d-group {event.dgroup} but the cache "
                    f"has {n_dgroups}"
                )
            if event.subarray >= plan.data_subarrays_per_dgroup:
                raise ConfigurationError(
                    f"hard fault targets subarray {event.subarray} but domains "
                    f"have {plan.data_subarrays_per_dgroup}"
                )
        self.plan = plan
        self.cache_name = cache_name
        self.rng = DeterministicRNG(plan.seed, f"{cache_name}/faults")
        self.stats = Counter()
        self._code = SECDED(plan.word_bits)
        self._interleave = InterleavingPlan(
            words=plan.words_per_block,
            word_bits=self._code.codeword_bits,
            subarrays=plan.interleave_subarrays,
        )
        self._accesses = 0
        self._forced = set(plan.transient_at_accesses)
        #: Unfired hard faults, soonest last (so pops are O(1)).
        self._hard_pending: List[HardFaultEvent] = sorted(
            plan.hard_faults, key=lambda e: e.at_access, reverse=True
        )
        self.spares = SpareManager()
        for group in range(n_dgroups):
            self.spares.add_domain(
                f"{cache_name}/dg{group}",
                plan.data_subarrays_per_dgroup,
                plan.spare_subarrays_per_dgroup,
            )

    # --- transient upsets ---

    def on_access(
        self, hit: bool, dirty: bool, address: int = 0
    ) -> Optional[TransientOutcome]:
        """Tick the access counter; maybe upset the line a hit touched."""
        self._accesses += 1
        if not hit:
            return None
        struck = self._accesses in self._forced
        if not struck and self.plan.transient_per_access > 0.0:
            struck = self.rng.random() < self.plan.transient_per_access
        if not struck:
            return None
        return self._upset(dirty, address)

    def _upset(self, dirty: bool, address: int) -> TransientOutcome:
        self.stats.add("upsets")
        width = (
            1
            if self.plan.max_upset_bits == 1
            else self.rng.randint(1, self.plan.max_upset_bits)
        )
        # An adjacent run of `width` cells in ONE subarray revisits a
        # word every `words` cells, but can never flip more bits of a
        # word than that word stores in the subarray (§3.1).
        per_word = -(-width // self._interleave.words)  # ceil
        flips = min(per_word, self._interleave.bits_per_word_per_subarray())
        data = self.rng.randint(0, (1 << self.plan.word_bits) - 1)
        word = self._code.encode(data)
        positions = list(range(self._code.codeword_bits))
        self.rng.shuffle(positions)
        for bit in positions[:flips]:
            word ^= 1 << bit
        decoded = self._code.decode(word)

        if decoded.status is DecodeStatus.CORRECTED:
            if decoded.data == data:
                self.stats.add("corrected")
                return TransientOutcome.CORRECTED
            # 3+ flips aliased to a plausible single-bit correction:
            # only the oracle (who knows `data`) can tell.
            self.stats.add("miscorrected")
            return TransientOutcome.MISCORRECTED
        if decoded.status is DecodeStatus.CLEAN:
            # Flips cancelled back to a valid codeword (possible at 4+
            # flips): silent corruption, same oracle bookkeeping.
            self.stats.add("miscorrected")
            return TransientOutcome.MISCORRECTED
        # DETECTED_UNCORRECTABLE.
        self.stats.add("detected_uncorrectable")
        if dirty:
            self.stats.add("dirty_data_loss")
            raise UncorrectableDataError(self.cache_name, address, self._accesses)
        self.stats.add("clean_refetches")
        return TransientOutcome.REFETCH

    # --- hard subarray failures ---

    def take_due_hard_faults(self) -> List[HardFaultEvent]:
        """Pop (in firing order) every hard fault now due."""
        due: List[HardFaultEvent] = []
        while self._hard_pending and self._hard_pending[-1].at_access <= self._accesses:
            due.append(self._hard_pending.pop())
        return due

    def repair_or_retire(self, event: HardFaultEvent) -> bool:
        """Run the spare decision for one failure; True if remapped."""
        domain = self.spares.domain(f"{self.cache_name}/dg{event.dgroup}")
        repaired = domain.fail_subarray(event.subarray)
        if repaired:
            self.stats.add("hard_faults_repaired")
        else:
            self.stats.add("hard_faults_unrepaired")
        return repaired

    # --- reporting ---

    def summary(self) -> dict:
        out = {f"fault_{k}": v for k, v in self.stats.as_dict().items()}
        out["fault_accesses_observed"] = float(self._accesses)
        return out
