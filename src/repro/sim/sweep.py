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
  fault-plan seed by ``reseed_step`` so the retry explores a different
  deterministic universe rather than replaying the same crash.
* **budget** — an optional wall-clock allowance per cell
  (``CellTask.budget_s``).  In this process the budget is *advisory*:
  Python code cannot preempt a running attempt, so it is only checked
  **between** retry attempts — one slow attempt can blow far past its
  allowance before the check fires, but it is never retried.  When
  cells run pooled it is also a true wall-clock deadline: the
  supervisor SIGKILLs a worker whose cell exceeds it.
* **checkpointing** — with ``checkpoint_path`` set, completed cells
  are persisted to an atomic, checksummed JSON checkpoint (format v2
  — see :mod:`repro.resilience.checkpoint`, which also salvages
  partially corrupted files instead of refusing to resume).
  Re-invoking ``run()`` after a crash (or kill) replays completed
  cells from the file and re-runs only the incomplete ones, with seeds
  untouched, so the resumed grid is identical to an uninterrupted run.
  Flushes are batched (default: once per point) to avoid O(cells²)
  rewrite I/O on big grids, serialized against concurrent sweeps with
  a cross-process file lock, and ``finally``-guarded in :meth:`Sweep.run`
  itself: any Python-level exception — including Ctrl-C — still
  flushes every completed cell on the way out, so only a hard
  ``kill -9`` can lose up to one flush interval of finished work.
* **parallelism** — every cell runs through
  :func:`repro.sim.parallel.run_cells` and maps its benchmark's shared
  base trace from one on-disk
  :class:`~repro.workloads.tracegen.TraceCache` entry.  ``jobs=1``
  runs the cells in this process, ``jobs=N`` on N worker processes;
  cells are seeded identically either way, so both produce
  bit-identical results and interchangeable checkpoints (a serial run
  can resume a parallel one and vice versa).
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

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ReproError
from repro.resilience.checkpoint import read_checkpoint, write_checkpoint

if TYPE_CHECKING:  # the runtime import is deferred to break a cycle
    from repro.resilience.supervisor import SupervisorConfig
from repro.sim.config import SystemConfig
from repro.sim.parallel import (
    CellTask,
    cell_fingerprint,
    memoizable_payload,
    run_cells,
)
from repro.sim.results import RunResult, run_result_from_dict
from repro.telemetry import TelemetryConfig
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import trace_entries

#: Salt for :meth:`Sweep.signature`.  Deliberately pinned at 1 even
#: though the checkpoint *file* layout is v2
#: (:data:`repro.resilience.checkpoint.CHECKPOINT_FILE_FORMAT`): the
#: signature identifies the grid's *results*, which the file format
#: does not change, and bumping it would orphan every checkpoint
#: written so far.
CHECKPOINT_FORMAT = 1


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
    def key(self) -> str:
        """Stable identity of this point for checkpoint files."""
        return json.dumps(
            {k: str(v) for k, v in self.coordinates.items()}, sort_keys=True
        )

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
    attempt ``k`` bumps the trace and fault seeds by
    ``k * reseed_step``.  ``point_budget_s`` is each cell's wall-clock
    budget (see module docstring).  ``checkpoint_path`` enables
    crash-tolerant resume.  ``jobs`` runs cells on that many worker
    processes; ``trace_cache_dir`` names the on-disk trace store cells
    map their base traces from (default: ``$REPRO_TRACE_CACHE``, else a
    private temp directory deleted after the run).
    ``checkpoint_every`` flushes the checkpoint after that many newly
    completed cells (default: one flush per point).  ``supervisor`` configures the supervised pool
    (worker deadlines, crash recovery, quarantine) and runs cells on it
    even with ``jobs=1``, in a single worker process, so a deadline
    stays enforceable.  ``result_store`` (a
    :class:`repro.service.store.ResultStore`) memoizes cells by content
    address across sweeps and callers: pending cells found in the store
    are restored without running (and folded into the checkpoint), and
    fresh first-attempt successes are published back.  Retried cells
    (attempts > 1) are never stored — their reseeded universe is not
    the content address's.
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
        reseed_step: int = 1000,
        point_budget_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        jobs: int = 1,
        trace_cache_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
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
        for benchmark in self.benchmarks:
            get_benchmark(benchmark)  # unknown names fail here, not per-cell
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
        if reseed_step <= 0:
            raise ConfigurationError(f"reseed_step must be positive, got {reseed_step}")
        if point_budget_s is not None and point_budget_s <= 0:
            raise ConfigurationError("point_budget_s must be positive")
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
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.n_references = n_references
        self.seed = seed
        self.warmup_fraction = warmup_fraction
        self.max_retries = max_retries
        self.reseed_step = reseed_step
        self.point_budget_s = point_budget_s
        self.checkpoint_path = checkpoint_path
        self.jobs = jobs
        self.trace_cache_dir = trace_cache_dir
        self.checkpoint_every = checkpoint_every
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

    # --- checkpointing ---

    def signature(self) -> str:
        """Hash of everything that determines the grid's results.

        A checkpoint written under one signature is refused under
        another, so a stale file can never leak foreign results into a
        resumed sweep.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "axes": [
                {"name": a.name, "values": [str(v) for v in a.values]}
                for a in self.axes
            ],
            "configs": [p.config.name for p in self.points()],
            "benchmarks": self.benchmarks,
            "n_references": self.n_references,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "max_retries": self.max_retries,
            "reseed_step": self.reseed_step,
            # Telemetry payloads live inside checkpointed results, so a
            # resume with different collection settings must not splice
            # cells with mismatched (or missing) telemetry together.
            "telemetry": None
            if self.telemetry is None
            else self.telemetry.fingerprint(),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def _load_checkpoint(self, signature: str) -> Dict[str, Dict[str, dict]]:
        """Completed cells from a prior run, keyed by point then bench.

        Handled by :func:`repro.resilience.read_checkpoint`: files are
        checksum-verified, and corrupted ones are salvaged cell-by-cell
        (with a warning and runtime counters) instead of refusing the
        resume.  Only a
        signature mismatch — or a file mangled beyond recovering even
        its signature — still raises.
        """
        path = self.checkpoint_path
        if path is None:
            return {}
        return read_checkpoint(path, signature)

    def _save_checkpoint(
        self, signature: str, cells: Dict[str, Dict[str, dict]]
    ) -> None:
        """Persist completed cells: atomic, checksummed, lock-serialized.

        Delegates to :func:`repro.resilience.write_checkpoint`, which
        seals each record, merges with same-signature cells another
        process may have flushed to the same path, and writes under a
        cross-process file lock.
        """
        path = self.checkpoint_path
        if path is None:
            return
        write_checkpoint(path, signature, cells)

    # --- the run loop ---

    def _flush_every(self) -> int:
        """Cells between checkpoint flushes (default: one point's worth)."""
        if self.checkpoint_every is not None:
            return self.checkpoint_every
        return len(self.benchmarks)

    def _record_cell(
        self,
        cells: Dict[str, Dict[str, dict]],
        point: SweepPoint,
        benchmark: str,
        record: Dict[str, object],
        key: Optional[str] = None,
    ) -> None:
        """Fill one cell and its checkpoint entry from a cell record.

        A fresh first-attempt success is published to the result store
        under ``key`` for every later caller; a retried success ran
        under reseeded parameters and is not this content address's
        answer.
        """
        point.outcomes[benchmark] = RunOutcome.from_dict(record["outcome"])  # type: ignore[arg-type]
        if record.get("result") is not None:
            point.runs[benchmark] = run_result_from_dict(record["result"])  # type: ignore[arg-type]
        cells[point.key][benchmark] = record
        if key is not None and memoizable_payload(record):
            self.result_store.put(key, record)

    def run(
        self, resume: bool = True, jobs: Optional[int] = None
    ) -> List[SweepPoint]:
        """Run every point over every benchmark; returns filled points.

        With ``checkpoint_path`` set and ``resume`` true, completed
        cells found in the checkpoint are restored instead of re-run.
        Failed cells are recorded (not raised); inspect
        ``point.outcomes`` / ``point.failed_benchmarks()``.  ``jobs``
        overrides the constructor's worker count for this invocation;
        results are bit-identical for any worker count.
        """
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        points = self.points()
        signature = self.signature()
        cells = self._load_checkpoint(signature) if resume else {}
        pending: List[Tuple[int, str]] = []
        for index, point in enumerate(points):
            saved = cells.setdefault(point.key, {})
            for benchmark in self.benchmarks:
                record = saved.get(benchmark)
                if record is None:
                    pending.append((index, benchmark))
                else:
                    self._record_cell(cells, point, benchmark, record)
        tasks = [
            CellTask(
                index=position,
                config=points[index].config,
                benchmark=benchmark,
                n_references=self.n_references,
                seed=self.seed,
                warmup_fraction=self.warmup_fraction,
                max_retries=self.max_retries,
                reseed_step=self.reseed_step,
                budget_s=self.point_budget_s,
                telemetry=self.telemetry,
            )
            for position, (index, benchmark) in enumerate(pending)
        ]
        keys: Dict[int, str] = {}
        if tasks and self.result_store is not None:
            # Second chance before simulating: cells memoized by any
            # earlier caller (a service run, another sweep, run_suite)
            # restore from the store and fold into the checkpoint.
            unstored = []
            for task in tasks:
                key = cell_fingerprint(task)
                stored = None if key is None else self.result_store.get(key)
                if stored is None:
                    if key is not None:
                        keys[task.index] = key
                    unstored.append(task)
                    continue
                index, benchmark = pending[task.index]
                record = {
                    "outcome": dict(stored["outcome"]),
                    "result": stored.get("result"),
                }
                self._record_cell(cells, points[index], benchmark, record)
            if len(unstored) < len(tasks) and self.checkpoint_path is not None:
                self._save_checkpoint(signature, cells)
            tasks = unstored
        if not tasks:
            return points

        flush_every = self._flush_every()
        dirty = 0

        def on_done(payload: Dict[str, object]) -> None:
            nonlocal dirty
            position = payload["index"]
            index, benchmark = pending[position]  # type: ignore[index]
            record = {"outcome": payload["outcome"], "result": payload["result"]}
            self._record_cell(
                cells, points[index], benchmark, record, keys.get(position)  # type: ignore[arg-type]
            )
            dirty += 1
            if dirty >= flush_every:
                self._save_checkpoint(signature, cells)
                dirty = 0

        # The flush state lives here, so a KeyboardInterrupt (or any
        # exception) anywhere below still persists every completed cell
        # on the way out.  Each benchmark's shared base trace is one
        # trace-cache entry that cells map by path; CMP cells
        # interleave their own per-core traces.
        shared = {task.benchmark for task in tasks if not task.config.multi_core}
        try:
            with trace_entries(
                shared, self.n_references, self.seed, directory=self.trace_cache_dir
            ) as trace_paths:
                tasks = [
                    replace(task, trace_path=trace_paths.get(task.benchmark))
                    for task in tasks
                ]
                run_cells(tasks, jobs, callback=on_done, supervisor=self.supervisor)
        finally:
            if dirty:
                self._save_checkpoint(signature, cells)
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
