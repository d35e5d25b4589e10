"""repro.resilience — the supervised execution layer.

The process-pool engine (:mod:`repro.sim.parallel`) made grids fast;
this package makes them survivable, which is the posture a long-lived
sweep service needs: every cell execution is *bounded* (wall-clock
deadlines with SIGKILL enforcement), *recoverable* (crash/hang retry
with deterministic backoff, pool rebuilds, graceful degradation to
serial), and *verifiable* (checksummed checkpoints and trace-cache
entries, per-record seals, salvage instead of refusal, and runtime
counters for everything the supervisor did).

Entry points:

* :func:`run_cells_supervised` / :class:`SupervisorConfig` — drop-in
  supervised replacement for :func:`repro.sim.parallel.run_cells`;
  reached from ``Sweep(supervisor=...)``, ``run_matrix``'s default
  supervisor, and ``python -m repro.bench --supervised`` (result parity
  and a 10% bound on the no-fault supervision tax).
* :mod:`repro.resilience.checkpoint` — checkpoint format v2 (checksum,
  record seals, v1 migration shim, structural salvage).
* :class:`FileLock` — cross-process locking for shared cache and
  checkpoint directories.
* :mod:`repro.resilience.chaos` — filesystem-driven worker kill/hang
  injection for the chaos suite (inert unless ``REPRO_CHAOS_DIR`` is
  set).

Recovered runs are bit-identical to uninterrupted ones: supervision
state lives entirely outside result payloads, and resubmitted cells
re-run the same deterministic :func:`~repro.sim.parallel.execute_cell`.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_FILE_FORMAT,
    cells_checksum,
    read_checkpoint,
    write_checkpoint,
)
from repro.resilience.integrity import (
    seal_record,
    strip_record,
    verify_record,
    verify_sidecar,
    write_sidecar,
)
from repro.resilience.locks import FileLock, LockTimeout

# The supervisor pulls in repro.sim.parallel, whose import chain ends
# back at repro.workloads.tracegen — which itself uses this package's
# integrity/locking primitives.  Loading the supervisor lazily (PEP
# 562) keeps that a DAG at import time while preserving
# ``from repro.resilience import run_cells_supervised``.
_SUPERVISOR_EXPORTS = ("SupervisorConfig", "backoff_s", "run_cells_supervised")


def __getattr__(name):
    if name in _SUPERVISOR_EXPORTS:
        from repro.resilience import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CHECKPOINT_FILE_FORMAT",
    "FileLock",
    "LockTimeout",
    "SupervisorConfig",
    "backoff_s",
    "cells_checksum",
    "read_checkpoint",
    "run_cells_supervised",
    "seal_record",
    "strip_record",
    "verify_record",
    "verify_sidecar",
    "write_checkpoint",
    "write_sidecar",
]
