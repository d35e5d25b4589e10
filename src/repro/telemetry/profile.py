"""Lightweight wall-clock phase profiling for the simulator itself.

Answers "where does *simulator* time go" (not simulated cycles): the
driver brackets its phases — trace generation, system build, warmup
replay, measured replay — and the telemetry report renders the
attribution when asked (``python -m repro.telemetry report
--profile``).  Phases nest; a phase's ``own`` time excludes its
children so the tree sums cleanly.

Profiling is wall-clock and therefore **non-deterministic**: its
output lives in a separate ``profile`` section of the run payload that
reports exclude by default, keeping merged telemetry reports
byte-identical across worker counts (the registry/trace sections are
the deterministic ones).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

from repro.common.errors import ConfigurationError


class PhaseProfiler:
    """Nesting wall-clock timers keyed by phase name."""

    def __init__(self) -> None:
        #: path -> [total_seconds, entry_count]; path joins nested
        #: phase names with '/'.
        self._acc: Dict[str, List[float]] = {}
        self._stack: List[str] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a (possibly nested) phase: ``with profiler.phase("x"):``."""
        if "/" in name:
            raise ConfigurationError(f"phase name must not contain '/': {name!r}")
        self._stack.append(name)
        path = "/".join(self._stack)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            slot = self._acc.setdefault(path, [0.0, 0])
            slot[0] += elapsed
            slot[1] += 1
            self._stack.pop()

    def seconds(self, path: str) -> float:
        return self._acc.get(path, [0.0, 0])[0]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe per-phase totals with child time separated out.

        ``own`` is the phase's time minus its direct children's, so
        sums over a level never double-count.
        """
        result: Dict[str, Dict[str, float]] = {}
        for path, (total, count) in sorted(self._acc.items()):
            children = sum(
                t
                for p, (t, _) in self._acc.items()
                if p.startswith(f"{path}/") and "/" not in p[len(path) + 1 :]
            )
            result[path] = {
                "seconds": total,
                "own_seconds": max(0.0, total - children),
                "count": count,
            }
        return result


def format_profile(summary: Mapping[str, Mapping[str, float]]) -> str:
    """Aligned-text rendering of :meth:`PhaseProfiler.summary`."""
    if not summary:
        return "(no profile data)"
    width = max(len(path) for path in summary)
    lines = [f"{'phase':<{width}}  {'total_s':>9}  {'own_s':>9}  {'calls':>6}"]
    for path, row in summary.items():
        indent = "  " * path.count("/")
        label = indent + path.rsplit("/", 1)[-1]
        lines.append(
            f"{label:<{width}}  {row['seconds']:>9.3f}  "
            f"{row['own_seconds']:>9.3f}  {int(row['count']):>6}"
        )
    return "\n".join(lines)


class NullProfiler:
    """No-op stand-in so call sites need no None checks in loops."""

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        del name
        yield

    def seconds(self, path: str) -> float:
        del path
        return 0.0

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {}


def profiler_or_null(enabled: bool) -> "PhaseProfiler | NullProfiler":
    return PhaseProfiler() if enabled else NullProfiler()
