"""repro.resilience — the supervised execution layer.

Every pooled cell runs on this package's supervised worker pool, which
is the posture a long-lived sweep service needs: every cell execution
is *bounded* (wall-clock deadlines with SIGKILL enforcement),
*recoverable* (worker respawn and immediate retry of a crashed or
hung cell, quarantine of a cell that keeps killing its worker), and
*verifiable* (sha256 sidecars on trace-cache and result-store entries,
recompute instead of refusal, and runtime counters for everything the
supervisor did).

Entry points:

* :func:`run_cells_supervised` / :class:`SupervisorConfig` — the
  pooled path of :func:`repro.sim.parallel.run_cells`, which is how
  ``Sweep``, ``run_matrix``, ``run_suite`` and the CLIs reach it;
  ``Sweep(supervisor=...)`` and ``run_matrix``'s default supervisor
  tune it.  :class:`WorkerPool` is the pool itself, whose worker slots
  live across calls (the job server holds one per worker task).
* :mod:`repro.resilience.integrity` — the sha256 sidecars.
* :class:`FileLock` — cross-process locking for the shared trace-cache
  and result-store directories.
* :mod:`repro.resilience.chaos` — filesystem-driven worker kill/hang
  injection for the chaos suite (inert unless ``REPRO_CHAOS_DIR`` is
  set).

Recovered runs are bit-identical to uninterrupted ones: supervision
state lives entirely outside result payloads, and resubmitted cells
re-run the same deterministic :func:`~repro.sim.parallel.execute_cell`.
"""

from repro.resilience.integrity import verify_sidecar, write_sidecar
from repro.resilience.locks import FileLock, LockTimeout

# The supervisor pulls in repro.sim.parallel, whose import chain ends
# back at repro.workloads.tracegen — which itself uses this package's
# integrity/locking primitives.  Loading the supervisor lazily (PEP
# 562) keeps that a DAG at import time while preserving
# ``from repro.resilience import run_cells_supervised``.
_SUPERVISOR_EXPORTS = (
    "SupervisorConfig",
    "WorkerPool",
    "run_cells_supervised",
)


def __getattr__(name):
    if name in _SUPERVISOR_EXPORTS:
        from repro.resilience import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FileLock",
    "LockTimeout",
    "SupervisorConfig",
    "WorkerPool",
    "run_cells_supervised",
    "verify_sidecar",
    "write_sidecar",
]
