"""Shared infrastructure for the experiment suite.

Experiments share traces and run results through in-process caches so
that e.g. Figures 5–9, which all need the base system's runs, pay for
them once.  Every experiment returns an :class:`ExperimentReport` that
renders to the same aligned-text table the paper's figure/table would.

Experiments declare their ``configs x benchmarks`` grids through
:func:`run_matrix`, which farms uncached cells out to worker processes
(:mod:`repro.sim.parallel`) when a jobs count above one is in effect —
set process-wide by the CLI's ``--jobs`` flag via
:func:`set_default_jobs`, or by ``REPRO_JOBS`` in the environment.
Parallel cells are seeded identically to serial ones, so the cached
results are bit-identical either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.sim.config import SystemConfig, env_jobs
from repro.sim.driver import run_benchmark
from repro.sim.results import RunResult, run_result_from_dict
from repro.telemetry import TelemetryConfig, telemetry_from_env
from repro.workloads.spec2k import get_benchmark
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceCache, default_trace_cache_dir, generate_trace
from repro.workloads.transport import ensure_decoded


@dataclass(frozen=True)
class Scale:
    """How much work an experiment run does."""

    name: str
    n_references: int
    warmup_fraction: float
    seed: int = 1


FULL = Scale(name="full", n_references=2_000_000, warmup_fraction=0.5)
QUICK = Scale(name="quick", n_references=500_000, warmup_fraction=0.45)
SMOKE = Scale(name="smoke", n_references=60_000, warmup_fraction=0.3)

_RunKey = Tuple[str, str, int, float, int, Optional[str]]
_TRACE_CACHE: Dict[Tuple[str, int, int], Trace] = {}
_RUN_CACHE: Dict[_RunKey, RunResult] = {}
_DEFAULT_JOBS: Optional[int] = None
_DEFAULT_TELEMETRY: Optional[TelemetryConfig] = None
_TELEMETRY_SET = False
_DEFAULT_SUPERVISOR = None  # Optional[repro.resilience.SupervisorConfig]


def clear_caches() -> None:
    """Drop cached traces and runs (tests use this for isolation)."""
    _TRACE_CACHE.clear()
    _RUN_CACHE.clear()


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide worker count experiments use (None: reset).

    The CLI's ``--jobs`` flag lands here; individual ``run_matrix``
    calls can still override per call.
    """
    global _DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def set_default_telemetry(telemetry: Optional[TelemetryConfig]) -> None:
    """Set the process-wide telemetry config experiments use.

    The CLI's ``--telemetry`` flag lands here.  ``None`` explicitly
    selects the null sink (and still counts as "set", overriding the
    ``REPRO_TELEMETRY`` environment convention).
    """
    global _DEFAULT_TELEMETRY, _TELEMETRY_SET
    _DEFAULT_TELEMETRY = telemetry
    _TELEMETRY_SET = True


def reset_default_telemetry() -> None:
    """Back to the environment-driven default (tests use this)."""
    global _DEFAULT_TELEMETRY, _TELEMETRY_SET
    _DEFAULT_TELEMETRY = None
    _TELEMETRY_SET = False


def default_telemetry() -> Optional[TelemetryConfig]:
    """The effective config: ``set_default_telemetry``, else ``REPRO_TELEMETRY``."""
    if _TELEMETRY_SET:
        return _DEFAULT_TELEMETRY
    return telemetry_from_env(os.environ.get("REPRO_TELEMETRY"))


def set_default_supervisor(supervisor) -> None:
    """Set the process-wide supervised-execution config (None: off).

    The CLI's ``--supervise`` / ``--cell-timeout`` flags land here with
    a :class:`repro.resilience.SupervisorConfig`.  When set,
    :func:`run_matrix` routes uncached cells through
    :func:`repro.resilience.run_cells_supervised` — even at ``jobs=1``,
    since the point of supervision (deadlines, crash recovery) applies
    to single-worker runs too.
    """
    global _DEFAULT_SUPERVISOR
    _DEFAULT_SUPERVISOR = supervisor


def default_supervisor():
    """The effective supervision config, or None when unsupervised."""
    return _DEFAULT_SUPERVISOR


def default_jobs() -> int:
    """The effective worker count: ``set_default_jobs``, ``REPRO_JOBS``, or 1."""
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    return env_jobs()


def shared_trace(benchmark: str, scale: Scale) -> Trace:
    """The benchmark's trace at this scale, generated at most once.

    Set ``REPRO_TRACE_CACHE=/some/dir`` to also persist traces to disk
    (as ``.npz`` via :class:`~repro.workloads.tracegen.TraceCache`), so
    repeated full-scale experiment runs — and parallel workers — skip
    generation entirely; a corrupted cache file is regenerated in
    place.
    """
    key = (benchmark, scale.n_references, scale.seed)
    if key not in _TRACE_CACHE:
        cache_dir = default_trace_cache_dir()
        if cache_dir:
            _TRACE_CACHE[key] = TraceCache(cache_dir).get(
                benchmark, scale.n_references, seed=scale.seed
            )
        else:
            _TRACE_CACHE[key] = generate_trace(
                get_benchmark(benchmark), scale.n_references, seed=scale.seed
            )
    return _TRACE_CACHE[key]


def cached_run(config: SystemConfig, benchmark: str, scale: Scale) -> RunResult:
    """Run (benchmark, config) at a scale, memoized on the config name.

    Config names encode every policy knob (see
    :mod:`repro.sim.config`), so the name is a safe cache key within
    one process.
    """
    key = _run_key(config, benchmark, scale)
    if key not in _RUN_CACHE:
        # CMP configs interleave per-core streams inside run_benchmark,
        # so no shared single-stream trace applies.
        is_cmp = config.cmp is not None and config.cmp.cores > 1
        _RUN_CACHE[key] = run_benchmark(
            config,
            benchmark,
            n_references=scale.n_references,
            trace=None if is_cmp else shared_trace(benchmark, scale),
            warmup_fraction=scale.warmup_fraction,
            seed=scale.seed,
            telemetry=default_telemetry(),
        )
    return _RUN_CACHE[key]


def _run_key(config: SystemConfig, benchmark: str, scale: Scale) -> _RunKey:
    telemetry = default_telemetry()
    return (
        config.name,
        benchmark,
        scale.n_references,
        scale.warmup_fraction,
        scale.seed,
        # Telemetry settings change the payload attached to a result
        # (never the simulated numbers), so they key the cache too.
        None if telemetry is None else json.dumps(
            telemetry.fingerprint(), sort_keys=True
        ),
    )


def run_matrix(
    configs: List[SystemConfig],
    benchmarks: List[str],
    scale: Scale,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """results[config.name][benchmark] for a config x benchmark grid.

    With an effective ``jobs`` count above one (argument, else
    :func:`default_jobs`), the grid's uncached cells run on worker
    processes and land in the shared run cache, so subsequent
    :func:`cached_run` calls for the same cells are hits.  Any run
    error raises, exactly like the serial path.

    When a process-wide supervisor is set
    (:func:`set_default_supervisor`, via the CLI's ``--supervise``),
    uncached cells always go through
    :func:`repro.resilience.run_cells_supervised` — also at ``jobs=1``
    — gaining wall-clock deadlines and crash recovery; results stay
    bit-identical to the unsupervised paths.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    pending = [
        (config, benchmark)
        for config in configs
        for benchmark in benchmarks
        if _run_key(config, benchmark, scale) not in _RUN_CACHE
    ]
    supervisor = default_supervisor()
    if pending and (supervisor is not None or (jobs > 1 and len(pending) > 1)):
        from repro.sim.parallel import CellTask, run_cells

        cache_dir = default_trace_cache_dir()
        disk_cache = TraceCache(cache_dir) if cache_dir else None
        tasks = []
        for index, (config, benchmark) in enumerate(pending):
            # With a disk cache workers load the trace by path; without
            # one, ship the in-memory trace inline (pickled once per
            # cell) so behavior needs no configuration.
            trace_path = None
            trace = None
            if config.cmp is not None and config.cmp.cores > 1:
                # CMP cells interleave their own per-core traces in the
                # worker; shipping a single-stream trace would be
                # rejected by run_benchmark.
                pass
            elif disk_cache is not None:
                trace_path = disk_cache.ensure(
                    benchmark, scale.n_references, seed=scale.seed
                )
            else:
                trace = shared_trace(benchmark, scale)
            tasks.append(
                CellTask(
                    index=index,
                    config=config,
                    benchmark=benchmark,
                    n_references=scale.n_references,
                    seed=scale.seed,
                    warmup_fraction=scale.warmup_fraction,
                    trace=trace,
                    trace_path=trace_path,
                    mmap_path=ensure_decoded(trace_path),
                    isolate_errors=False,
                    telemetry=default_telemetry(),
                )
            )
        if supervisor is not None:
            from repro.resilience.supervisor import run_cells_supervised

            payloads = run_cells_supervised(tasks, jobs, config=supervisor)
        else:
            payloads = run_cells(tasks, jobs)
        for payload in payloads:
            config, benchmark = pending[payload["index"]]
            _RUN_CACHE[_run_key(config, benchmark, scale)] = run_result_from_dict(
                payload["result"]
            )
    return {
        config.name: {b: cached_run(config, b, scale) for b in benchmarks}
        for config in configs
    }


@dataclass
class ExperimentReport:
    """One regenerated table or figure."""

    experiment: str
    title: str
    paper_expectation: str
    rows: List[Dict[str, object]]
    columns: Optional[List[str]] = None
    notes: str = ""
    summary: Dict[str, float] = field(default_factory=dict)

    def column_order(self) -> List[str]:
        if self.columns:
            return self.columns
        if not self.rows:
            return []
        order: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in order:
                    order.append(key)
        return order

    def to_text(self) -> str:
        """Aligned-text rendering: header, rows, summary, expectation."""
        lines = [f"== {self.experiment}: {self.title} =="]
        cols = self.column_order()
        if cols:
            widths = {
                c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in self.rows))
                for c in cols
            }
            lines.append("  ".join(c.ljust(widths[c]) for c in cols))
            for row in self.rows:
                lines.append(
                    "  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in cols)
                )
        if self.summary:
            lines.append("")
            for key, value in self.summary.items():
                lines.append(f"  {key}: {_fmt(value)}")
        lines.append("")
        lines.append(f"paper: {self.paper_expectation}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "paper_expectation": self.paper_expectation,
                "rows": self.rows,
                "summary": self.summary,
                "notes": self.notes,
            },
            indent=2,
            default=str,
        )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def scale_by_name(name: str) -> Scale:
    scales = {"full": FULL, "quick": QUICK, "smoke": SMOKE}
    try:
        return scales[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; choose from {sorted(scales)}"
        ) from None


def pct(ratio: float) -> str:
    """Render a relative-performance ratio as a signed percentage."""
    return f"{(ratio - 1.0) * 100:+.1f}%"


def fraction_row(result: RunResult, n_groups: int) -> Dict[str, object]:
    """dg0..dgN hit fractions plus the miss fraction for one run."""
    row: Dict[str, object] = {}
    for g in range(n_groups):
        row[f"dg{g}"] = round(result.dgroup_fractions.get(g, 0.0), 3)
    row["miss"] = round(result.l2_miss_fraction, 3)
    return row


def mean_over(rows: List[Dict[str, object]], keys: List[str]) -> Dict[str, float]:
    """Arithmetic mean of numeric columns across rows."""
    if not rows:
        raise ConfigurationError("no rows to average")
    return {
        k: sum(float(r.get(k, 0.0)) for r in rows) / len(rows) for k in keys
    }
