"""Cell execution: the serial reference loop and the one pooled path.

Every figure, table, and sweep in this reproduction is a grid of
``(config, benchmark)`` cells, and per-cell seeding makes each cell a
pure function of its parameters — there is no shared mutable state
between cells.  :func:`run_cells` runs a grid in this process (the
serial reference) or on the supervised worker pool
(:mod:`repro.resilience.supervisor`), and returns the measurements
through the :func:`run_result_to_dict` / ``RunOutcome`` dictionary
round-trip (the same serialization the result store keeps), so a
pooled run is bit-identical to a serial one.  :func:`run_memoized`
puts that round-trip in front of a
:class:`~repro.service.store.ResultStore`: cells already stored are
restored, and fresh ones are stored as they finish.

Two deliberate design points:

* **Tasks ship parameters, not callables.**  A :class:`CellTask`
  carries a picklable :class:`~repro.sim.config.SystemConfig` built in
  the parent, never the sweep's ``build()`` closure, so the engine
  works under every multiprocessing start method (``fork``,
  ``spawn``, ``forkserver``).
* **Traces travel by path, not by value.**  A cell's ``trace_path``
  names a :class:`~repro.workloads.tracegen.TraceCache` entry, which
  the worker memory-maps read-only and memoizes
  (:mod:`repro.workloads.transport`) instead of receiving tens of
  megabytes of pickled numpy arrays per cell: one decode per worker
  process, however many cells it runs.  A missing or damaged entry,
  and every retry attempt, regenerates the trace from the cell's own
  parameters, bit-identically.

Failure semantics are the same in process and pooled: with
``isolate_errors=True`` a :class:`~repro.common.errors.ReproError`
becomes a failed outcome payload (after the configured reseeded
retries), while any other exception type is a simulator bug and
propagates out of :func:`run_cells` in the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ReproError
from repro.sim.config import SystemConfig, config_fingerprint, resolve_engine
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_spec_trace, trace_entries
from repro.workloads.transport import load_mmap_trace

if TYPE_CHECKING:  # the runtime import is deferred to break a cycle
    from repro.resilience.supervisor import SupervisorConfig


def reseed_config(config: SystemConfig, bump: int) -> SystemConfig:
    """A copy of ``config`` with its fault-plan seed shifted by ``bump``.

    Retries must not replay the exact upset schedule that killed the
    previous attempt; the injector's RNG seed lives in the (frozen)
    plan, so the reseeded attempt gets a replaced plan.
    """
    if bump == 0 or config.faults is None:
        return config
    plan = dataclasses.replace(config.faults, seed=config.faults.seed + bump)
    return dataclasses.replace(config, faults=plan)


#: Seed shift per retry attempt: attempt ``k`` shifts the trace seed
#: and the fault-plan seed by ``k * RESEED_STEP``.
RESEED_STEP = 1000


@dataclass(frozen=True)
class CellTask:
    """One ``(config, benchmark)`` cell, fully specified and picklable.

    ``index`` is caller-chosen and echoed back in the result payload so
    completion order (which is nondeterministic) can be mapped back to
    grid position.  The first attempt replays the inline ``trace`` if
    one is given, else the trace-cache entry at ``trace_path``; when
    neither is available the worker generates the trace itself from
    ``(benchmark, seed, n_references)``.  The entry is the same trace,
    so ``trace_path`` never changes results.  A cell's wall-clock
    deadline is not a task field: pooled attempts get
    :attr:`~repro.resilience.supervisor.SupervisorConfig.cell_timeout_s`.
    """

    index: int
    config: SystemConfig
    benchmark: str
    n_references: int
    seed: int
    warmup_fraction: float
    trace_path: Optional[str] = None
    trace: Optional[Trace] = None
    max_retries: int = 0
    #: True: ReproErrors become failed-outcome payloads (sweep
    #: semantics).  False: they propagate to the parent (suite
    #: semantics, where one bad run should abort the suite).
    isolate_errors: bool = True
    #: Telemetry collection for the run; the payload rides back inside
    #: the RunResult dict, so parallel runs lose nothing vs serial.
    telemetry: Optional[TelemetryConfig] = None


#: Version of the :func:`cell_fingerprint` key layout.  Bump whenever
#: the set of hashed fields (or their meaning) changes, so stale store
#: entries from an older layout can never satisfy a new lookup.
CELL_FINGERPRINT_FORMAT = 1


def cell_fingerprint(task: CellTask) -> Optional[str]:
    """Content address of the cell's first-attempt result, or None.

    The key covers everything a first (attempt-0) run depends on: the
    config fingerprint, the resolved engine, the trace parameters
    ``(benchmark, n_references, seed)`` — the trace itself is a
    deterministic function of those, which is why ``trace_path`` does
    not participate — plus warmup split and the telemetry fingerprint.
    The retry knob ``max_retries`` is deliberately excluded:
    memoization stores only first-attempt successes (see
    :class:`repro.service.store.ResultStore`), whose payloads it cannot
    influence, so a sweep cell and a suite cell with different retry
    policies share one entry.

    Returns None when the cell is not content-addressable: an inline
    ``trace`` is arbitrary bytes, not derivable from the parameters.
    """
    if task.trace is not None:
        return None
    payload = {
        "format": CELL_FINGERPRINT_FORMAT,
        "config": config_fingerprint(task.config),
        "engine": resolve_engine(task.config.engine),
        "benchmark": task.benchmark,
        "n_references": task.n_references,
        "seed": task.seed,
        "warmup_fraction": task.warmup_fraction,
        # Fixed values of two retired cell fields: every stored key
        # stays valid.
        "warm_set_conflict": 1,
        "prewarm": True,
        "telemetry": None
        if task.telemetry is None
        else task.telemetry.fingerprint(),
    }
    encoded = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def memoizable_payload(payload: Dict[str, object]) -> bool:
    """True when a cell payload is safe to store under its fingerprint.

    Only first-attempt successes qualify: retried or failed outcomes
    depend on the retry knob and deadline excluded from the fingerprint.
    """
    outcome = payload.get("outcome")
    if not isinstance(outcome, dict):
        return False
    return outcome.get("status") == "ok" and outcome.get("attempts") == 1


def run_memoized(
    tasks: Sequence[CellTask],
    jobs: int,
    result_store,
    callback: Optional[Callable[[Dict[str, object]], None]] = None,
    supervisor: Optional["SupervisorConfig"] = None,
    trace_cache_dir: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Run a grid through ``result_store``: hits restore, misses run.

    Returns every cell's ``{"index", "outcome", "result"}`` payload in
    task order.  ``callback`` gets each payload once as it is ready:
    first the store hits, in task order, then the cells that ran, in
    completion order.  A cell that ran is put in the store
    (a :class:`repro.service.store.ResultStore`, or None for no store)
    before its callback, when :func:`memoizable_payload` allows it, so
    an interrupted grid keeps every cell finished before the interrupt.
    Cells that run map their trace from one
    :func:`~repro.workloads.tracegen.trace_entries` entry per trace
    spec (:meth:`~repro.sim.config.SystemConfig.trace_spec`) in
    ``trace_cache_dir``, single-core and CMP cells alike; cells with an
    inline ``trace`` bring their own.
    """
    done: Dict[int, Dict[str, object]] = {}

    def finish(payload: Dict[str, object]) -> None:
        done[payload["index"]] = payload  # type: ignore[index]
        if callback is not None:
            callback(payload)

    keys: Dict[int, str] = {}
    pending: List[CellTask] = []
    for task in tasks:
        key = None if result_store is None else cell_fingerprint(task)
        stored = None if key is None else result_store.get(key)
        if stored is not None:
            finish({"index": task.index, **stored})
            continue
        if key is not None:
            keys[task.index] = key
        pending.append(task)
    if not pending:
        return [done[task.index] for task in tasks]

    def on_done(payload: Dict[str, object]) -> None:
        key = keys.get(payload["index"])  # type: ignore[arg-type]
        stored = {k: v for k, v in payload.items() if k != "index"}
        if key is not None and memoizable_payload(stored):
            result_store.put(key, stored)
        finish(payload)

    def trace_params(task: CellTask) -> Tuple[int, int]:
        return (task.n_references, task.seed)

    def trace_spec(task: CellTask) -> Optional[str]:
        try:
            return task.config.trace_spec(task.benchmark)
        except ConfigurationError:
            return None  # the cell's own run reports the bad spec

    shared: Dict[Tuple[int, int], set] = {}
    for task in pending:
        spec = trace_spec(task)
        if task.trace is None and spec is not None:
            shared.setdefault(trace_params(task), set()).add(spec)
    with ExitStack() as stack:
        paths = {
            params: stack.enter_context(
                trace_entries(specs, *params, directory=trace_cache_dir)
            )
            for params, specs in shared.items()
        }
        pending = [
            dataclasses.replace(
                task,
                trace_path=paths.get(trace_params(task), {}).get(trace_spec(task)),
            )
            for task in pending
        ]
        run_cells(pending, jobs, callback=on_done, supervisor=supervisor)
    return [done[task.index] for task in tasks]


def _attempt_trace(task: CellTask, attempt: int) -> Trace:
    """The cell's trace for one attempt: inline, mapped, or generated."""
    if attempt == 0 and task.trace is not None:
        return task.trace
    spec = task.config.trace_spec(task.benchmark)
    if attempt == 0 and task.trace_path is not None:
        trace = load_mmap_trace(task.trace_path, spec, task.n_references)
        if trace is not None:
            return trace
    return generate_spec_trace(
        spec, task.n_references, seed=task.seed + attempt * RESEED_STEP
    )


def execute_cell(task: CellTask) -> Dict[str, object]:
    """Run one cell (attempt + reseeded retries); a picklable payload.

    The payload is one result-store entry plus its grid position:
    ``{"index", "outcome", "result"}``, with ``outcome`` in
    ``RunOutcome.to_dict`` form and ``result`` in
    :func:`run_result_to_dict` form (or None on failure).  Runs in a
    worker process, so it must stay importable at module top level.
    """
    #: (message, type name) of the last failed attempt.  Keeping the
    #: exception itself would tie its traceback to this frame in a
    #: cycle that pins every replay frame (and its mapped trace) until
    #: the next garbage collection.
    last_error: Optional[Tuple[str, str]] = None
    for attempt in range(task.max_retries + 1):
        try:
            result = run_benchmark(
                reseed_config(task.config, attempt * RESEED_STEP),
                task.benchmark,
                n_references=task.n_references,
                trace=_attempt_trace(task, attempt),
                warmup_fraction=task.warmup_fraction,
                seed=task.seed + attempt * RESEED_STEP,
                telemetry=task.telemetry,
            )
            return {
                "index": task.index,
                "outcome": {
                    "status": "ok",
                    "attempts": attempt + 1,
                    "error": None,
                    "error_type": None,
                },
                "result": run_result_to_dict(result),
            }
        except ReproError as exc:
            if not task.isolate_errors:
                raise
            last_error = (str(exc), type(exc).__name__)
    # Attempt 0 always runs, so a failed cell has a last error.
    assert last_error is not None
    return {
        "index": task.index,
        "outcome": {
            "status": "failed",
            "attempts": task.max_retries + 1,
            "error": last_error[0],
            "error_type": last_error[1],
        },
        "result": None,
    }


def run_cells(
    tasks: Sequence[CellTask],
    jobs: int,
    callback: Optional[Callable[[Dict[str, object]], None]] = None,
    supervisor: Optional["SupervisorConfig"] = None,
) -> List[Dict[str, object]]:
    """Execute cells; payloads in submission order.

    ``callback`` fires in the parent as each cell completes (in
    completion order); :func:`run_memoized` uses it to store each
    cell as it finishes.  With ``jobs=1`` (or one cell) and no
    ``supervisor`` the cells run in-process, in order: the serial
    reference.  Otherwise they run on the supervised worker pool under
    ``supervisor`` (default: ``SupervisorConfig()``).  A worker
    exception that is not an isolated :class:`ReproError` re-raises
    here.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    tasks = list(tasks)
    if supervisor is None and (jobs == 1 or len(tasks) <= 1):
        payloads = []
        for task in tasks:
            payload = execute_cell(task)
            payloads.append(payload)
            if callback is not None:
                callback(payload)
        return payloads
    from repro.resilience.supervisor import SupervisorConfig, run_cells_supervised

    return run_cells_supervised(
        tasks, jobs, config=supervisor or SupervisorConfig(), callback=callback
    )
