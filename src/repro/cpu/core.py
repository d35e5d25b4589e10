"""Analytic out-of-order core timing model.

The model charges three kinds of time, mirroring how an 8-wide OoO
core with a 64-entry RUU actually spends it (Table 1):

* *pipeline time*: instructions retire at the benchmark's core IPC
  (its IPC when every memory reference hits in the L1), including the
  L1's pipelined 3-cycle hits;
* *branch time*: mispredictions flush the pipeline for
  ``mispredict_penalty`` cycles, at the benchmark's mispredict rate
  (derived by running its branch stream through the real
  :class:`~repro.cpu.branch.HybridPredictor`);
* *memory stall time*: every access that misses the L1 exposes
  ``exposure`` of its beyond-L1 latency (the RUU hides the rest), and
  the 8 L1 MSHRs bound how many misses can be outstanding — when they
  are full the core waits for the earliest fill.

Because stalls are charged from the *measured* latency of each access
— including NuRAPID port queueing and D-NUCA bank contention — every
effect the paper studies flows through to IPC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.types import AccessResult
from repro.caches.block import block_address
from repro.caches.mshr import MSHRFile


@dataclass(frozen=True)
class CoreParams:
    """Microarchitectural constants (Table 1)."""

    issue_width: int = 8
    ruu_entries: int = 64
    lsq_entries: int = 32
    mshrs: int = 8
    mispredict_penalty: int = 9
    l1_hit_cycles: int = 3
    l1_block_bytes: int = 32
    #: Optional asymmetry knob: exposed fraction of an off-chip miss
    #: relative to an on-chip hit (misses batch through MSHRs, hit
    #: chains serialize).  1.0 = symmetric, the default.
    memory_mlp_discount: float = 1.0

    def __post_init__(self) -> None:
        if self.issue_width <= 0 or self.mshrs <= 0:
            raise ConfigurationError("issue width and MSHR count must be positive")
        if self.mispredict_penalty < 0 or self.l1_hit_cycles < 0:
            raise ConfigurationError("penalties must be non-negative")


class CoreModel:
    """Owns the cycle clock during one benchmark run."""

    def __init__(
        self,
        params: CoreParams,
        core_ipc: float,
        exposure: float,
        branch_fraction: float = 0.0,
        mispredict_rate: float = 0.0,
    ) -> None:
        if core_ipc <= 0:
            raise ConfigurationError(f"core IPC must be positive, got {core_ipc}")
        if not 0.0 <= exposure <= 1.0:
            raise ConfigurationError(f"exposure must be in [0, 1], got {exposure}")
        if not 0.0 <= branch_fraction <= 1.0:
            raise ConfigurationError("branch_fraction must be in [0, 1]")
        if not 0.0 <= mispredict_rate <= 1.0:
            raise ConfigurationError("mispredict_rate must be in [0, 1]")
        self.params = params
        self.core_ipc = core_ipc
        self.exposure = exposure
        self.branch_fraction = branch_fraction
        self.mispredict_rate = mispredict_rate

        self.cycle = 0.0
        self.instructions = 0
        self.memory_accesses = 0
        self.stall_cycles = 0.0
        self.branch_penalty_cycles = 0.0
        self.mshr_stall_cycles = 0.0
        self._mshrs = MSHRFile(params.mshrs)

    # --- time charging ---

    def advance_instructions(self, count: int) -> None:
        """Retire ``count`` instructions of pipeline + branch work."""
        if count < 0:
            raise ConfigurationError(f"instruction count must be non-negative, got {count}")
        self.instructions += count
        self.cycle += count / self.core_ipc
        penalty = (
            count
            * self.branch_fraction
            * self.mispredict_rate
            * self.params.mispredict_penalty
        )
        self.branch_penalty_cycles += penalty
        self.cycle += penalty

    def note_memory_result(self, address: int, result: AccessResult) -> None:
        """Charge the exposed part of one memory access's latency.

        L1 hits are pipelined into the core IPC; anything slower stalls
        the core for ``exposure`` of its beyond-L1 latency, subject to
        MSHR availability.
        """
        self.memory_accesses += 1
        beyond_l1 = result.latency - self.params.l1_hit_cycles
        if result.hit and beyond_l1 <= 0:
            return
        if beyond_l1 <= 0:
            return

        issue_cycle = self.cycle
        self._mshrs.retire_completed(issue_cycle)
        if self._mshrs.full:
            wait_until = self._mshrs.earliest_fill()
            self.mshr_stall_cycles += wait_until - issue_cycle
            self.cycle = wait_until
            self._mshrs.retire_completed(self.cycle)
            self._mshrs.note_full_stall()

        exposure = self.exposure
        if result.level == "memory":
            exposure *= self.params.memory_mlp_discount
        exposed = beyond_l1 * exposure
        self.stall_cycles += exposed
        self.cycle += exposed

        block = block_address(address, self.params.l1_block_bytes)
        fill_at = self.cycle + beyond_l1 * (1.0 - self.exposure)
        if self._mshrs.lookup(block) is not None:
            self._mshrs.merge(block)
        else:
            self._mshrs.allocate(block, self.cycle, fill_at)

    def commit_batch(
        self,
        *,
        cycle: float,
        instructions: int,
        memory_accesses: int,
        branch_penalty_cycles: float,
        stall_cycles: float,
        mshr_stall_cycles: float,
    ) -> None:
        """Write back state accumulated by a batched replay engine.

        The vectorized kernel (:mod:`repro.sim.vectorized`) inlines
        :meth:`advance_instructions` and :meth:`note_memory_result`
        into its fused loop, accumulating the hot scalars in locals
        with the exact same sequence of float operations; this installs
        the final values (absolute, not deltas) in one call.  MSHR
        state is shared in place via :attr:`mshrs`, so only the scalar
        books need committing.
        """
        self.cycle = cycle
        self.instructions = instructions
        self.memory_accesses = memory_accesses
        self.branch_penalty_cycles = branch_penalty_cycles
        self.stall_cycles = stall_cycles
        self.mshr_stall_cycles = mshr_stall_cycles

    # --- results ---

    @property
    def ipc(self) -> float:
        if self.cycle == 0:
            return 0.0
        return self.instructions / self.cycle

    @property
    def mshrs(self) -> MSHRFile:
        """The L1 MSHR file (telemetry attaches its occupancy histogram)."""
        return self._mshrs

    @property
    def mshr_full_stalls(self) -> int:
        return self._mshrs.full_stalls

    def counters(self) -> dict:
        """Flat accounting snapshot; CMP runs label one per core."""
        return {
            "instructions": float(self.instructions),
            "cycles": float(self.cycle),
            "memory_accesses": float(self.memory_accesses),
            "stall_cycles": float(self.stall_cycles),
            "branch_penalty_cycles": float(self.branch_penalty_cycles),
            "mshr_stall_cycles": float(self.mshr_stall_cycles),
            "mshr_full_stalls": float(self.mshr_full_stalls),
        }
