"""Crash-tolerant parameter sweeps over system configurations.

A thin declarative layer used by the design-space and resilience
examples: name a few axes (each a list of values), take their cross
product, run each point over a benchmark list with shared traces, and
collect a tidy result grid.

Fault campaigns make individual points genuinely fallible — an
uncorrectable dirty-line upset surfaces as a typed
:class:`~repro.common.errors.UncorrectableDataError` — so the runner
hardens the grid instead of letting one point abort it:

* **isolation** — any :class:`~repro.common.errors.ReproError` from a
  point is caught and recorded as a failed :class:`RunOutcome`; other
  exception types indicate simulator bugs and still propagate.
* **retry with reseed** — a failed cell is retried up to
  ``max_retries`` times, each attempt bumping the trace seed and the
  fault-plan seed by :data:`~repro.sim.parallel.RESEED_STEP` so the
  retry explores a different deterministic universe rather than
  replaying the same crash.
* **deadline** — an optional wall-clock limit per attempt,
  :attr:`~repro.resilience.supervisor.SupervisorConfig.cell_timeout_s`
  (``supervisor=SupervisorConfig(cell_timeout_s=...)``).  Python code
  cannot preempt a running attempt in this process, so a deadline
  always runs cells on the supervised pool, which SIGKILLs a worker
  whose attempt exceeds it.
* **resume** — with ``result_store`` set (a
  :class:`repro.service.store.ResultStore`), each cell whose
  :func:`~repro.sim.parallel.cell_fingerprint` is in the store is
  restored instead of run, and every fresh first-attempt success is
  stored as it completes (atomic rename and fsync under the store
  lock).  Re-invoking ``run()`` after a crash, a Ctrl-C or a
  ``kill -9`` re-runs only the cells not stored yet, with seeds
  untouched, so the resumed grid is identical to an uninterrupted run
  and only cells in flight are lost.  Failed and retried cells are
  never stored (:func:`~repro.sim.parallel.memoizable_payload`): they
  re-run on resume, and their reseeded retries reproduce them bit for
  bit (only a deadline failure depends on the wall clock).
  The fingerprint covers every input of a cell, so a store
  shared by other grids, seeds or callers can only miss, never leak a
  foreign result.
* **parallelism** — every cell runs through
  :func:`repro.sim.parallel.run_memoized` and maps its shared trace,
  single-core or interleaved multi-core, from one on-disk
  :class:`~repro.workloads.tracegen.TraceCache` entry.  ``jobs=1``
  runs the cells in this process, ``jobs=N`` on N worker processes;
  cells are seeded identically either way, so both produce
  bit-identical results and store entries (a serial run can resume a
  parallel one and vice versa).
* **supervision** — pooled cells always run under the supervisor
  (:mod:`repro.resilience.supervisor`): hung workers are killed at
  their deadline, crashed workers respawned and their cells resubmitted
  (bit-identically), repeat offenders quarantined as failed outcomes,
  and a repeatedly breaking pool degrades to in-process serial
  execution instead of aborting the grid.  Pass
  ``supervisor=SupervisorConfig(...)`` to tune it (deadlines, retry
  limits), which also sends a ``jobs=1`` sweep to a worker process.
  Supervision state never touches result payloads, so a pooled grid
  is byte-identical to a serial one.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # the runtime import is deferred to break a cycle
    from repro.resilience.supervisor import SupervisorConfig
from repro.sim.config import SystemConfig
from repro.sim.parallel import CellTask, run_memoized
from repro.sim.results import RunResult, run_result_from_dict
from repro.telemetry import TelemetryConfig
from repro.workloads.spec2k import get_benchmark


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: a name and its candidate values."""

    name: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")


@dataclass
class RunOutcome:
    """How one (point, benchmark) cell ended."""

    status: str  # "ok" | "failed"
    attempts: int
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "error_type": self.error_type,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunOutcome":
        try:
            return cls(
                status=str(payload["status"]),
                attempts=int(payload["attempts"]),  # type: ignore[arg-type]
                error=payload.get("error"),  # type: ignore[arg-type]
                error_type=payload.get("error_type"),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed RunOutcome payload: {exc}") from exc


@dataclass
class SweepPoint:
    """One point of the cross product with its per-benchmark results."""

    coordinates: Dict[str, object]
    config: SystemConfig
    runs: Dict[str, RunResult] = field(default_factory=dict)
    #: Per-benchmark completion records (present for every attempted
    #: cell; ``runs`` only holds the successful ones).
    outcomes: Dict[str, RunOutcome] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Every attempted benchmark succeeded (vacuously true if none)."""
        return all(o.ok for o in self.outcomes.values())

    def failed_benchmarks(self) -> List[str]:
        return sorted(b for b, o in self.outcomes.items() if not o.ok)

    def mean_ipc(self) -> float:
        if not self.runs:
            raise ConfigurationError("point has no runs")
        return sum(r.ipc for r in self.runs.values()) / len(self.runs)

    def mean_relative(self, base: "SweepPoint") -> float:
        shared = [b for b in self.runs if b in base.runs]
        if not shared:
            raise ConfigurationError("no shared benchmarks with base point")
        return sum(self.runs[b].ipc / base.runs[b].ipc for b in shared) / len(shared)


class Sweep:
    """Cross-product sweep runner with shared traces.

    ``max_retries`` is the number of *additional* attempts after a
    failed one (total attempts per cell = 1 + max_retries); each
    attempt ``k`` bumps the trace and fault seeds by ``k *``
    :data:`~repro.sim.parallel.RESEED_STEP`.  ``jobs`` runs cells on
    that many worker processes; ``trace_cache_dir`` names the on-disk
    trace store cells map their base traces from (default:
    ``$REPRO_TRACE_CACHE``, else a private temp directory deleted after
    the run).  ``supervisor`` configures the supervised pool (its
    ``cell_timeout_s`` is each attempt's deadline; crash recovery,
    quarantine) and runs cells on it even with ``jobs=1``, in a single
    worker process, so a deadline stays enforceable.  ``result_store`` (a
    :class:`repro.service.store.ResultStore`) is what makes a sweep
    resumable: cells found in it are restored without running, and
    fresh first-attempt successes are stored as they complete, for a
    later run of this sweep and for every other caller (the service,
    another sweep, ``run_suite``).  Retried cells (attempts > 1) are
    never stored, because their reseeded universe is not the content
    address's.
    """

    def __init__(
        self,
        axes: Sequence[SweepAxis],
        build: Callable[..., SystemConfig],
        benchmarks: Iterable[str],
        n_references: int = 200_000,
        seed: int = 1,
        warmup_fraction: float = 0.4,
        max_retries: int = 1,
        jobs: int = 1,
        trace_cache_dir: Optional[str] = None,
        telemetry: Optional[TelemetryConfig] = None,
        supervisor: Optional["SupervisorConfig"] = None,
        result_store=None,
    ) -> None:
        if not axes:
            raise ConfigurationError("sweep needs at least one axis")
        self.axes = list(axes)
        self.build = build
        self.benchmarks = list(benchmarks)
        if not self.benchmarks:
            raise ConfigurationError("sweep needs at least one benchmark")
        # Unknown names fail here, not per cell; a multi-core spec
        # "a+b" names one app per core, and each cell checks the part
        # count against its own core count.
        for benchmark in self.benchmarks:
            for part in benchmark.split("+"):
                get_benchmark(part.strip())
        if n_references <= 0:
            raise ConfigurationError(
                f"n_references must be positive, got {n_references}"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        cpus = os.cpu_count() or 1
        if jobs > cpus:
            warnings.warn(
                f"Sweep(jobs={jobs}) oversubscribes {cpus} CPUs; workers will "
                "time-slice and wall-clock speedup will degrade",
                RuntimeWarning,
                stacklevel=2,
            )
        self.n_references = n_references
        self.seed = seed
        self.warmup_fraction = warmup_fraction
        self.max_retries = max_retries
        self.jobs = jobs
        self.trace_cache_dir = trace_cache_dir
        self.telemetry = telemetry
        self.supervisor = supervisor
        self.result_store = result_store

    def points(self) -> List[SweepPoint]:
        """The un-run cross product (for inspection or custom driving)."""
        names = [axis.name for axis in self.axes]
        result = []
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            coordinates = dict(zip(names, combo))
            config = self.build(**coordinates)
            if not isinstance(config, SystemConfig):
                raise ConfigurationError("build() must return a SystemConfig")
            result.append(SweepPoint(coordinates=coordinates, config=config))
        return result

    def run(self, jobs: Optional[int] = None) -> List[SweepPoint]:
        """Run every point over every benchmark; returns filled points.

        Cells already in ``result_store`` are restored instead of run.
        Failed cells are recorded (not raised); inspect
        ``point.outcomes`` / ``point.failed_benchmarks()``.  ``jobs``
        overrides the constructor's worker count for this invocation;
        results are bit-identical for any worker count.
        """
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        points = self.points()
        cells = [
            (point, benchmark) for point in points for benchmark in self.benchmarks
        ]
        tasks = [
            CellTask(
                index=position,
                config=point.config,
                benchmark=benchmark,
                n_references=self.n_references,
                seed=self.seed,
                warmup_fraction=self.warmup_fraction,
                max_retries=self.max_retries,
                telemetry=self.telemetry,
            )
            for position, (point, benchmark) in enumerate(cells)
        ]

        def record(payload: Dict[str, object]) -> None:
            point, benchmark = cells[payload["index"]]  # type: ignore[index]
            point.outcomes[benchmark] = RunOutcome.from_dict(payload["outcome"])  # type: ignore[arg-type]
            if payload.get("result") is not None:
                point.runs[benchmark] = run_result_from_dict(payload["result"])  # type: ignore[arg-type]

        run_memoized(
            tasks,
            jobs,
            self.result_store,
            record,
            supervisor=self.supervisor,
            trace_cache_dir=self.trace_cache_dir,
        )
        return points


def tabulate(points: Sequence[SweepPoint], metric: Callable[[SweepPoint], float]) -> str:
    """Render sweep results as an aligned text table.

    Points whose metric cannot be computed (all-failed cells, missing
    base runs) render as ``failed`` instead of aborting the table.
    """
    if not points:
        raise ConfigurationError("nothing to tabulate")
    names = list(points[0].coordinates)
    header = "  ".join(f"{n:<16}" for n in names) + "  metric"
    lines = [header]
    for point in points:
        cells = "  ".join(f"{str(point.coordinates[n]):<16}" for n in names)
        try:
            rendered = f"{metric(point):.4f}"
        except ReproError:
            rendered = "failed"
        lines.append(f"{cells}  {rendered}")
    return "\n".join(lines)
