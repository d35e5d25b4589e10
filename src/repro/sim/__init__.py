"""Simulation driver: configurations, run loop, and results.

* :mod:`repro.sim.config` — named system configurations (base L2/L3,
  D-NUCA variants, NuRAPID variants) and :func:`build_system`.
* :mod:`repro.sim.driver` — the trace-driven run loop with warmup.
* :mod:`repro.sim.results` — per-run records and suite aggregation
  (relative performance, d-group access distributions, energy).
"""

from repro.sim.config import (
    SystemConfig,
    base_config,
    build_system,
    dnuca_config,
    nurapid_config,
    sa_nuca_config,
    snuca_config,
)
from repro.sim.driver import System, run_benchmark, run_suite
from repro.sim.parallel import CellTask, execute_cell, run_cells
from repro.sim.sweep import Sweep, SweepAxis, SweepPoint
from repro.sim.results import RunResult, SuiteResult, relative_performance

__all__ = [
    "CellTask",
    "RunResult",
    "Sweep",
    "SweepAxis",
    "SweepPoint",
    "SuiteResult",
    "System",
    "SystemConfig",
    "base_config",
    "build_system",
    "dnuca_config",
    "execute_cell",
    "run_cells",
    "nurapid_config",
    "relative_performance",
    "run_benchmark",
    "run_suite",
    "sa_nuca_config",
    "snuca_config",
]
