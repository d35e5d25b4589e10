"""Per-run result records and suite-level aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.common.errors import ConfigurationError


@dataclass
class RunResult:
    """Everything measured from one (benchmark, system) run."""

    benchmark: str
    config_name: str
    instructions: int
    cycles: float
    #: L2-level counts (measured portion only).
    l2_accesses: int
    l2_hits: int
    l2_misses: int
    #: Fraction of L2 accesses hitting each d-group (or D-NUCA level).
    dgroup_fractions: Dict[int, float]
    l1_energy_nj: float
    lower_energy_nj: float
    core_energy_nj: float
    stats: Dict[str, float] = field(default_factory=dict)
    #: Telemetry payload (see :mod:`repro.telemetry`); None when the
    #: run was not telemetry-enabled.  Excluded from result-equality
    #: comparisons of the simulated quantities above by convention:
    #: strip it (``result.telemetry = None``) before comparing.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def l2_miss_fraction(self) -> float:
        if not self.l2_accesses:
            return 0.0
        return self.l2_misses / self.l2_accesses

    @property
    def l2_apki(self) -> float:
        """L2 accesses per kilo-instruction (the Table 3 metric)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.l2_accesses / self.instructions

    @property
    def total_energy_nj(self) -> float:
        return self.core_energy_nj + self.l1_energy_nj + self.lower_energy_nj

    @property
    def energy_delay(self) -> float:
        return self.total_energy_nj * self.cycles


def run_result_to_dict(result: RunResult) -> Dict[str, object]:
    """A JSON-safe payload for result-store entries (see sim.parallel).

    Numeric fields are coerced to the exact types
    :func:`run_result_from_dict` restores (floats for cycles, stats,
    and fractions; ints for counts), so serialization is *byte-stable*:
    ``to_dict(from_dict(to_dict(r)))`` encodes to the same JSON bytes
    as ``to_dict(r)``.  Without this, a result that crossed a worker
    boundary (or the result store) would carry ``315.0`` where a fresh
    in-process result carries ``315`` — numerically equal, but not the
    byte-identity the parity tests and the service promise.
    """
    payload: Dict[str, object] = {
        "benchmark": result.benchmark,
        "config_name": result.config_name,
        "instructions": int(result.instructions),
        "cycles": float(result.cycles),
        # JSON objects only have string keys; restored by from_dict.
        "dgroup_fractions": {
            str(k): float(v) for k, v in result.dgroup_fractions.items()
        },
        "l2_accesses": int(result.l2_accesses),
        "l2_hits": int(result.l2_hits),
        "l2_misses": int(result.l2_misses),
        "l1_energy_nj": float(result.l1_energy_nj),
        "lower_energy_nj": float(result.lower_energy_nj),
        "core_energy_nj": float(result.core_energy_nj),
        "stats": {str(k): float(v) for k, v in result.stats.items()},
    }
    if result.telemetry is not None:
        payload["telemetry"] = result.telemetry
    return payload


def run_result_from_dict(payload: Mapping[str, object]) -> RunResult:
    """Inverse of :func:`run_result_to_dict`."""
    try:
        fractions = {
            int(k): float(v)
            for k, v in dict(payload["dgroup_fractions"]).items()  # type: ignore[arg-type]
        }
        return RunResult(
            benchmark=str(payload["benchmark"]),
            config_name=str(payload["config_name"]),
            instructions=int(payload["instructions"]),  # type: ignore[arg-type]
            cycles=float(payload["cycles"]),  # type: ignore[arg-type]
            l2_accesses=int(payload["l2_accesses"]),  # type: ignore[arg-type]
            l2_hits=int(payload["l2_hits"]),  # type: ignore[arg-type]
            l2_misses=int(payload["l2_misses"]),  # type: ignore[arg-type]
            dgroup_fractions=fractions,
            l1_energy_nj=float(payload["l1_energy_nj"]),  # type: ignore[arg-type]
            lower_energy_nj=float(payload["lower_energy_nj"]),  # type: ignore[arg-type]
            core_energy_nj=float(payload["core_energy_nj"]),  # type: ignore[arg-type]
            stats={str(k): float(v) for k, v in dict(payload["stats"]).items()},  # type: ignore[arg-type]
            telemetry=payload.get("telemetry"),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed RunResult payload: {exc}") from exc


def relative_performance(result: RunResult, base: RunResult) -> float:
    """IPC ratio against the base system (the paper's y-axis)."""
    if result.benchmark != base.benchmark:
        raise ConfigurationError(
            f"comparing {result.benchmark} against {base.benchmark}"
        )
    if base.ipc == 0:
        raise ConfigurationError("base run has zero IPC")
    return result.ipc / base.ipc


@dataclass
class SuiteResult:
    """All benchmarks' runs for one system configuration."""

    config_name: str
    runs: Dict[str, RunResult]

    def relative_to(self, base: "SuiteResult") -> Dict[str, float]:
        """Per-benchmark relative performance against a base suite."""
        shared = [b for b in self.runs if b in base.runs]
        if not shared:
            raise ConfigurationError("suites share no benchmarks")
        return {
            b: relative_performance(self.runs[b], base.runs[b]) for b in shared
        }

    def mean_relative(self, base: "SuiteResult", benchmarks=None) -> float:
        """Arithmetic-mean relative performance (the paper's 'average')."""
        rel = self.relative_to(base)
        names = benchmarks if benchmarks is not None else sorted(rel)
        values = [rel[b] for b in names if b in rel]
        if not values:
            raise ConfigurationError("no shared benchmarks to average")
        return sum(values) / len(values)
