"""Shared infrastructure for the experiment suite.

Experiments share run results through an in-process cache so that
e.g. Figures 5–9, which all need the base system's runs, pay for them
once.  Every experiment returns an :class:`ExperimentReport` that
renders to the same aligned-text table the paper's figure/table would.

Experiments declare their ``configs x benchmarks`` grids through
:func:`run_matrix`, which hands uncached cells to
:func:`repro.sim.parallel.run_memoized`: in this process at one job, on
the supervised worker pool above one — set process-wide by the CLI's
``--jobs`` flag via :func:`set_default_jobs`, or by ``REPRO_JOBS`` in
the environment.  Pooled cells are seeded identically to in-process
ones, so the cached results are bit-identical either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.sim.config import SystemConfig, config_fingerprint, env_jobs
from repro.sim.results import RunResult, run_result_from_dict
from repro.telemetry import TelemetryConfig, telemetry_from_env
# generate_trace is not called here; perfbench's tracer wraps it under
# this module's name.
from repro.workloads.tracegen import generate_trace  # noqa: F401


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

#: Run results by :func:`repro.sim.parallel.cell_fingerprint`.
_RUN_CACHE: Dict[str, RunResult] = {}
_DEFAULT_JOBS: Optional[int] = None
_DEFAULT_TELEMETRY: Optional[TelemetryConfig] = None
_TELEMETRY_SET = False
_DEFAULT_SUPERVISOR = None  # Optional[repro.resilience.SupervisorConfig]


def clear_caches() -> None:
    """Drop cached runs (tests use this for isolation)."""
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
    """Set the process-wide supervisor config (None: the default).

    The CLI's ``--cell-timeout`` flag lands here with a
    :class:`repro.resilience.SupervisorConfig`; :func:`run_matrix` then
    pools uncached cells under it even at ``jobs=1``, so the deadline
    stays enforceable.
    """
    global _DEFAULT_SUPERVISOR
    _DEFAULT_SUPERVISOR = supervisor


def default_supervisor():
    """The process-wide supervisor config, or None for the default."""
    return _DEFAULT_SUPERVISOR


def default_jobs() -> int:
    """The effective worker count: ``set_default_jobs``, ``REPRO_JOBS``, or 1."""
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    return env_jobs()


def cached_run(config: SystemConfig, benchmark: str, scale: Scale) -> RunResult:
    """Run (benchmark, config) at a scale: a one-cell :func:`run_matrix`.

    The shared run cache is keyed by each cell's
    :func:`repro.sim.parallel.cell_fingerprint`, not the config's name:
    two configs that share a name but differ in a knob (a seed, a frame
    restriction, the engine) are cached apart, and so are runs under
    different telemetry settings or resolved engines.
    """
    return run_matrix([config], [benchmark], scale)[config.name][benchmark]


def run_matrix(
    configs: List[SystemConfig],
    benchmarks: List[str],
    scale: Scale,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """results[config.name][benchmark] for a config x benchmark grid.

    The grid's uncached cells go to :func:`repro.sim.parallel.run_memoized`
    (no result store) with the effective ``jobs`` count (argument, else
    :func:`default_jobs`) and the process-wide supervisor config
    (:func:`set_default_supervisor`, via the CLI's ``--cell-timeout``),
    and land in the shared run cache.  Each cell maps its trace-cache
    entry by path (in ``REPRO_TRACE_CACHE``, else a scratch directory).
    One job and no supervisor runs them in this process; anything else
    pools them, bit-identically.  Any run error raises, and so do two
    configs that share a name but not a fingerprint, since the result
    is keyed by name.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    fingerprints: Dict[str, str] = {}
    for config in configs:
        fingerprint = config_fingerprint(config)
        if fingerprints.setdefault(config.name, fingerprint) != fingerprint:
            raise ConfigurationError(
                f"two configs named {config.name!r} differ; give them distinct names"
            )
    # Imported per call, so instrumentation that wraps
    # repro.sim.parallel.run_cells sees every grid.
    from repro.sim.parallel import CellTask, cell_fingerprint, run_memoized

    telemetry = default_telemetry()
    keys: Dict[Tuple[str, str], str] = {}
    pending: Dict[str, CellTask] = {}
    for config in configs:
        for benchmark in benchmarks:
            task = CellTask(
                index=len(pending),
                config=config,
                benchmark=benchmark,
                n_references=scale.n_references,
                seed=scale.seed,
                warmup_fraction=scale.warmup_fraction,
                isolate_errors=False,
                telemetry=telemetry,
            )
            key = keys[config.name, benchmark] = cell_fingerprint(task)
            if key not in _RUN_CACHE:
                pending.setdefault(key, task)
    if pending:
        tasks = list(pending.values())
        payloads = run_memoized(tasks, jobs, None, supervisor=default_supervisor())
        for key, payload in zip(pending, payloads):
            _RUN_CACHE[key] = run_result_from_dict(payload["result"])  # type: ignore[arg-type]
    return {
        name: {b: _RUN_CACHE[keys[name, b]] for b in benchmarks}
        for name in fingerprints
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
