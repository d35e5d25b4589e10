"""Processor substrate: core timing, branch prediction, energy.

The paper evaluates on an 8-wide out-of-order SimpleScalar/Wattch
system (Table 1).  Cycle-level OoO simulation of 500 M instructions
per application is not feasible in pure Python, so the core here is an
*analytic* timing model (see :mod:`repro.cpu.core`): non-memory work
proceeds at a per-benchmark core IPC, memory references walk the real
cache hierarchy, and each lower-level access charges its exposed
latency after an MLP/overlap discount bounded by the L1 MSHRs.  The
paper's performance deltas are produced entirely by the distribution
of L2 hit latencies and port/bank contention, which this model carries
through exactly.

:mod:`repro.cpu.branch` implements the Table 1 hybrid 2-level branch
predictor as a real substrate; :mod:`repro.cpu.wattch` implements the
Wattch-style whole-processor energy accounting used for the paper's
energy-delay results.
"""

from repro.cpu.branch import BimodalPredictor, GSharePredictor, HybridPredictor
from repro.cpu.core import CoreModel, CoreParams
from repro.cpu.wattch import ProcessorEnergyModel

__all__ = [
    "BimodalPredictor",
    "CoreModel",
    "CoreParams",
    "GSharePredictor",
    "HybridPredictor",
    "ProcessorEnergyModel",
]
