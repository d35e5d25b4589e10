"""repro.telemetry — tracing and metrics for the simulator.

The paper's headline claims are distributional (per-d-group access
breakdowns, energy split across d-groups, promotion/demotion churn),
but flat end-of-run counters can't show *why* a configuration wins.
This package is the unified instrumentation layer:

* :mod:`~repro.telemetry.registry` — hierarchical stat registry with
  named scopes (``l2.dg0.hits``), int-exact counters, and fixed-bucket
  histograms (hit latency, reuse distance, MSHR occupancy), all with
  lossless ``merge()`` so per-worker stats aggregate bit-identically
  to a serial run;
* :mod:`~repro.telemetry.trace` — sampled, bounded JSONL event streams
  (placement / demotion / promotion / writeback / fault-retire) with a
  ring-buffer mode and atomic flush;
* :mod:`~repro.telemetry.runtime` — the always-on, process-wide
  harness counters, including the driver's ``run.*`` phase timers
  and the kernel's ``vectorized.*`` timers;
* :mod:`~repro.telemetry.report` — the merged per-d-group
  latency/energy/occupancy report (``python -m repro.telemetry``).

Telemetry is **opt-in**: pass a :class:`TelemetryConfig` to
``run_benchmark`` / ``run_suite`` / ``Sweep`` / ``run_matrix``.  With
the default ``None``, the only residue on the hot path is a handful of
``is not None`` guards — the null sink — whose overhead the perf gate
(``scripts/perf_gate.py``, perfbench with telemetry off) polices.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.telemetry.registry import (
    LATENCY_BOUNDS,
    REUSE_BOUNDS,
    Histogram,
    Scope,
    StatRegistry,
    occupancy_bounds,
)
from repro.telemetry.runtime import (
    reset_runtime_registry,
    runtime_counters,
    runtime_registry,
)
from repro.telemetry.trace import EventTracer, read_trace, trace_summary

__all__ = [
    "CacheTelemetry",
    "EventTracer",
    "Histogram",
    "LATENCY_BOUNDS",
    "REUSE_BOUNDS",
    "Scope",
    "StatRegistry",
    "Telemetry",
    "TelemetryConfig",
    "occupancy_bounds",
    "read_trace",
    "reset_runtime_registry",
    "runtime_counters",
    "runtime_registry",
    "telemetry_from_env",
    "trace_summary",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect; frozen and picklable so it ships to workers.

    Passing ``None`` where a config is accepted is the null sink: no
    registry and no tracer are created, and instrumented code sees
    ``telemetry is None``.
    """

    #: Collect structural events (placement/demotion/promotion/...).
    events: bool = False
    #: Flush collected events as JSONL under this directory (implies
    #: ``events``); one file per run, named from config/benchmark/seed.
    trace_dir: Optional[str] = None
    #: Keep every Nth event.
    trace_sample: int = 1
    #: Maximum kept events (None: unbounded — test-sized runs only).
    trace_limit: Optional[int] = 100_000
    #: True: the *last* ``trace_limit`` events survive instead of the first.
    trace_ring: bool = False

    def __post_init__(self) -> None:
        if self.trace_sample < 1:
            raise ConfigurationError(
                f"trace_sample must be >= 1, got {self.trace_sample}"
            )
        if self.trace_limit is not None and self.trace_limit < 1:
            raise ConfigurationError(
                f"trace_limit must be >= 1, got {self.trace_limit}"
            )

    @property
    def events_enabled(self) -> bool:
        return self.events or self.trace_dir is not None

    def fingerprint(self) -> Dict[str, object]:
        """Stable identity for cache keys and sweep signatures."""
        return asdict(self)


def telemetry_from_env(value: Optional[str]) -> Optional[TelemetryConfig]:
    """Parse the ``REPRO_TELEMETRY`` convention.

    Empty/``0``/``off`` → None (null sink); ``1``/``on``/``true`` →
    histograms only; any other value is a directory to flush JSONL
    traces into.
    """
    if value is None:
        return None
    value = value.strip()
    if not value or value.lower() in ("0", "off", "false"):
        return None
    if value.lower() in ("1", "on", "true"):
        return TelemetryConfig()
    return TelemetryConfig(trace_dir=value, events=True)


class CacheTelemetry:
    """One cache's telemetry client: hot-path hooks only.

    Caches hold ``self.telemetry = None`` by default and guard every
    call site with ``is not None`` — attaching one of these is what
    turns collection on.  The client pre-resolves its histograms so
    the per-access work is two dict operations and two records.
    """

    __slots__ = ("name", "scope", "tracer", "hit_latency", "reuse", "_last_seen", "_accesses")

    def __init__(self, name: str, scope: Scope, tracer: Optional[EventTracer]) -> None:
        self.name = name
        self.scope = scope
        self.tracer = tracer
        self.hit_latency = scope.histogram("hit_latency", LATENCY_BOUNDS)
        self.reuse = scope.histogram("reuse_distance", REUSE_BOUNDS)
        self._last_seen: Dict[int, int] = {}
        self._accesses = 0

    def on_access(
        self,
        block_addr: int,
        hit: bool,
        dgroup: Optional[int],
        latency: float,
    ) -> None:
        """Record one access: reuse distance, latency, per-d-group hit."""
        self._accesses += 1
        last = self._last_seen.get(block_addr)
        if last is not None:
            self.reuse.record(self._accesses - last)
        self._last_seen[block_addr] = self._accesses
        if hit:
            self.hit_latency.record(latency)
            if dgroup is None:
                self.scope.add("hits")
            else:
                self.scope.add(f"dg{dgroup}.hits")
        else:
            self.scope.add("misses")

    def event(self, kind: str, **fields: object) -> None:
        """Offer a structural event to the run's tracer (if any)."""
        if self.tracer is not None:
            self.tracer.emit(kind, cache=self.name, **fields)

    def emit_deferred(self, events, cycle: Optional[float]) -> None:
        """Offer the events a lower level's outcome step deferred.

        ``events`` holds ``(kind, fields, stamped)`` in outcome order;
        the timing step passes the ``cycle`` the stamped ones happened
        at, which the outcome step could not know.
        """
        for kind, fields, stamped in events:
            if stamped:
                self.event(kind, **fields, cycle=cycle)
            else:
                self.event(kind, **fields)


class Telemetry:
    """One run's collection session: registry + tracer."""

    def __init__(self, config: TelemetryConfig, run_id: str) -> None:
        self.config = config
        self.run_id = run_id
        self.registry = StatRegistry()
        self.tracer: Optional[EventTracer] = (
            EventTracer(
                sample=config.trace_sample,
                limit=config.trace_limit,
                ring=config.trace_ring,
            )
            if config.events_enabled
            else None
        )

    def cache_client(self, name: str) -> CacheTelemetry:
        return CacheTelemetry(name, self.registry.scope(name), self.tracer)

    def histogram(self, name: str, bounds: Tuple[float, ...]) -> Histogram:
        return self.registry.histogram(name, bounds)

    # --- end-of-run captures (deterministic gauges) ---

    def capture_counters(self, name: str, counts: Dict[str, float]) -> None:
        """Adopt a cache's flat counters under its scope."""
        for key, value in sorted(counts.items()):
            self.registry.set(f"{name}.{key}", value)

    def capture_energy(self, name: str, book) -> None:
        """Per-operation energy totals (nJ) from an EnergyBook."""
        prefix = f"{name}."
        for op, nj in sorted(book.breakdown_nj().items()):
            label = op[len(prefix):] if op.startswith(prefix) else op
            self.registry.set(f"{name}.energy_nj.{label}", nj)

    def capture_gauge(self, name: str, value: float) -> None:
        self.registry.set(name, value)

    # --- payload ---

    def trace_filename(self) -> str:
        return self.run_id.replace("/", "__").replace(" ", "_") + ".jsonl"

    def flush_trace(self) -> Optional[str]:
        """Write the JSONL trace if a trace_dir was configured."""
        if self.tracer is None or self.config.trace_dir is None:
            return None
        path = os.path.join(self.config.trace_dir, self.trace_filename())
        return self.tracer.flush(path)

    def payload(self, trace_path: Optional[str] = None) -> Dict[str, object]:
        """The run's JSON-safe telemetry record.

        The ``registry`` and ``trace`` sections are deterministic
        functions of the simulation.
        """
        record: Dict[str, object] = {
            "run": self.run_id,
            "registry": self.registry.to_dict(),
        }
        if self.tracer is not None:
            trace = self.tracer.summary()
            if trace_path is not None:
                trace["path"] = trace_path
            record["trace"] = trace
        return record
