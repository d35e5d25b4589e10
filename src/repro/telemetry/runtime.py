"""Process-global counters for the execution harness itself.

Run telemetry (:class:`~repro.telemetry.TelemetryConfig` payloads) is a
deterministic function of the simulated machine, merged bit-identically
across workers — so nothing *environmental* may leak into it.  But the
supervised executor and the on-disk caches still need to account for
what happened around the simulation: worker kills, retries, recomputed
store entries, regenerated trace-cache entries.  Those events land
here, in a process-wide :class:`~repro.telemetry.registry.StatRegistry`
that is reported separately from run payloads and never stored.

Counters recorded on every run (:func:`repro.sim.driver.run_benchmark`
and the numpy kernel), whether or not the run's telemetry is armed:

* ``run.tracegen_wall_s`` / ``run.build_wall_s`` /
  ``run.warmup_wall_s`` / ``run.measure_wall_s`` — the driver's phase
  walls: trace generation (only when the run generates its own trace),
  system build and prewarm, warmup replay, measured replay
* ``vectorized.*`` — the kernel's tier counts and phase walls (see
  :mod:`repro.sim.vectorized`)

Counters used by the resilience layer:

* ``supervisor.timeouts`` / ``supervisor.crashes`` — worker kills, by cause
* ``supervisor.retries`` — cells resubmitted after a kill
* ``supervisor.quarantined`` — cells failed after repeated kills
* ``supervisor.pool_rebuilds`` — worker slots respawned
* ``trace_cache.corrupt_recovered`` — cache entries regenerated after a
  failed load or checksum mismatch

Counters used by the simulation service (:mod:`repro.service`):

* ``service.jobs_submitted`` / ``service.cells_submitted`` — admitted work
* ``service.cells_memo_hits`` — cells served from the result store
* ``service.cells_coalesced`` — cells merged onto an identical
  in-flight cell from another job
* ``service.cells_enqueued`` / ``service.cells_completed`` /
  ``service.cells_failed`` — cells that actually simulated, by outcome
* ``service.executor_errors`` — simulator errors surfaced as failed
  cells (worker deaths count under ``supervisor.*``)
* ``result_store.hits`` / ``result_store.misses`` /
  ``result_store.writes`` / ``result_store.evicted`` — content-addressed
  result-store traffic
* ``result_store.corrupt_recovered`` — entries that failed their sha256
  sidecar, were discarded, and forced a recompute
"""

from __future__ import annotations

from typing import Dict

from repro.telemetry.registry import StatRegistry

_runtime = StatRegistry()


def runtime_registry() -> StatRegistry:
    """The process-wide harness-event registry."""
    return _runtime


def reset_runtime_registry() -> StatRegistry:
    """Fresh registry (tests isolate themselves with this)."""
    global _runtime
    _runtime = StatRegistry()
    return _runtime


def runtime_counters() -> Dict[str, float]:
    """Flat snapshot of the harness counters (empty when nothing fired)."""
    return _runtime.counters()
