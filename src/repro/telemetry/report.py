"""Merged telemetry reports: per-d-group latency, energy, occupancy.

Takes one or more telemetry payloads — from a ``RunResult`` JSON, a
result-store entry, or a raw session payload — merges their registries
**in sorted key order** (so a serial run and a ``jobs=N`` run of the
same grid render byte-identical reports), and renders:

* a per-d-group table per cache: hits, access share, energy, occupancy;
* the d-group access distribution as the stacked-bar chart the
  experiment figures use (:mod:`repro.experiments.render`);
* histogram summaries (hit latency, reuse distance, MSHR occupancy);
* the full counter dump.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.telemetry.registry import Histogram, StatRegistry

_DG_COUNTER = re.compile(r"^(?P<cache>.+)\.dg(?P<group>\d+)\.(?P<what>hits|frames)$")
_PORT_GAUGE = re.compile(
    r"^(?P<cache>.+)\.(?P<kind>port|bankq)\."
    r"(?P<what>banks|busy_cycles|wait_cycles|grants)$"
)


def extract_payloads(document: Mapping[str, object]) -> List[Tuple[str, Dict[str, object]]]:
    """(key, telemetry-payload) pairs from any supported JSON document.

    Supported shapes: a raw session payload (has ``registry``), a
    ``RunResult`` dict (has ``telemetry``), a result-store entry
    (``{"format", "key", "payload": {"outcome", "result"}}``), and a
    ``{"runs": {...}}`` suite dump.  Keys are stable identifiers used
    only for deterministic merge ordering.
    """
    pairs: List[Tuple[str, Dict[str, object]]] = []
    if "registry" in document:
        pairs.append((str(document.get("run", "run")), dict(document)))  # type: ignore[arg-type]
    elif "telemetry" in document and document["telemetry"] is not None:
        key = f"{document.get('config_name', '?')}/{document.get('benchmark', '?')}"
        pairs.append((key, dict(document["telemetry"])))  # type: ignore[arg-type]
    elif "payload" in document:
        payload = document["payload"]
        result = payload.get("result") if isinstance(payload, dict) else None
        if isinstance(result, dict) and result.get("telemetry"):
            key = f"{result.get('config_name', '?')}/{result.get('benchmark', '?')}"
            pairs.append((key, dict(result["telemetry"])))
    elif "runs" in document:
        for benchmark, run in sorted(dict(document["runs"]).items()):  # type: ignore[arg-type]
            if isinstance(run, dict) and run.get("telemetry"):
                pairs.append((str(benchmark), dict(run["telemetry"])))
    if not pairs:
        raise ConfigurationError(
            "document holds no telemetry payloads (was the run telemetry-enabled?)"
        )
    return pairs


def load_payloads(paths: Sequence[str]) -> List[Tuple[str, Dict[str, object]]]:
    pairs: List[Tuple[str, Dict[str, object]]] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable telemetry file {path!r}: {exc}") from exc
        if not isinstance(document, dict):
            raise ConfigurationError(f"{path!r} is not a JSON object")
        for key, payload in extract_payloads(document):
            pairs.append((f"{path}:{key}", payload))
    return pairs


def merge_payloads(pairs: Sequence[Tuple[str, Mapping[str, object]]]) -> StatRegistry:
    """Merge registries in sorted key order (worker-count invariant)."""
    registry = StatRegistry()
    for _, payload in sorted(pairs, key=lambda pair: pair[0]):
        section = payload.get("registry")
        if section is None:
            raise ConfigurationError("payload has no registry section")
        registry.merge(StatRegistry.from_dict(section))  # type: ignore[arg-type]
    return registry


# --- per-d-group aggregation ---


def dgroup_caches(registry: StatRegistry) -> Dict[str, List[int]]:
    """Caches with per-d-group counters, with their group indices.

    A group counts if it recorded hits *or* reported frames, so the
    table still shows the occupancy of groups a short run never hit.
    """
    caches: Dict[str, set] = {}
    for name in registry.counters():
        match = _DG_COUNTER.match(name)
        if match:
            caches.setdefault(match.group("cache"), set()).add(int(match.group("group")))
    return {cache: sorted(groups) for cache, groups in sorted(caches.items())}


def dgroup_energy_nj(registry: StatRegistry, cache: str, group: int) -> float:
    """Energy attributed to one d-group: its ops plus outbound moves."""
    total = 0.0
    for name, value in registry.counters(f"{cache}.energy_nj.").items():
        op = name[len(f"{cache}.energy_nj."):]
        if op.startswith(f"dg{group}.") or op.startswith(f"bank{group}."):
            total += value
        elif op.startswith(f"move.{group}->"):
            total += value
    return total


def dgroup_rows(registry: StatRegistry, cache: str) -> List[Dict[str, object]]:
    """The per-d-group report rows for one cache."""
    groups = dgroup_caches(registry).get(cache)
    if not groups:
        raise ConfigurationError(f"no per-d-group counters for cache {cache!r}")
    hits = {g: registry.get(f"{cache}.dg{g}.hits") for g in groups}
    misses = registry.get(f"{cache}.misses")
    accesses = sum(hits.values()) + misses
    rows = []
    for g in groups:
        row: Dict[str, object] = {
            "dgroup": g,
            "hits": hits[g],
            "share": hits[g] / accesses if accesses else 0.0,
            "energy_nj": dgroup_energy_nj(registry, cache, g),
        }
        occupied = registry.get(f"{cache}.dg{g}.occupied")
        frames = registry.get(f"{cache}.dg{g}.frames")
        if frames:
            row["occupancy"] = occupied / frames
        rows.append(row)
    rows.append(
        {
            "dgroup": "miss",
            "hits": misses,
            "share": misses / accesses if accesses else 0.0,
            "energy_nj": 0.0,
        }
    )
    return rows


def port_pressure_rows(registry: StatRegistry) -> List[Dict[str, object]]:
    """Queue-pressure rows for every single-port or banked resource.

    One row per (cache, kind): grants, busy and wait cycles, and the
    mean wait per grant — the load-dependent part of access latency.
    """
    resources: Dict[Tuple[str, str], Dict[str, float]] = {}
    for name, value in registry.counters().items():
        match = _PORT_GAUGE.match(name)
        if match:
            key = (match.group("cache"), match.group("kind"))
            resources.setdefault(key, {})[match.group("what")] = value
    rows = []
    for (cache, kind), stats in sorted(resources.items()):
        grants = stats.get("grants", 0.0)
        wait = stats.get("wait_cycles", 0.0)
        rows.append(
            {
                "resource": f"{cache}.{kind}",
                "banks": int(stats["banks"]) if "banks" in stats else 1,
                "grants": grants,
                "busy_cycles": stats.get("busy_cycles", 0.0),
                "wait_cycles": wait,
                "avg_wait": wait / grants if grants else 0.0,
            }
        )
    return rows


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _table(rows: List[Dict[str, object]], columns: List[str]) -> List[str]:
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    return lines


def render_report(registry: StatRegistry) -> str:
    """The merged telemetry report as aligned text."""
    lines: List[str] = ["== telemetry report =="]

    caches = dgroup_caches(registry)
    chart_rows: Dict[str, Tuple[List[float], float]] = {}
    max_groups = 0
    for cache, groups in caches.items():
        lines.append("")
        lines.append(f"-- {cache}: per-d-group breakdown --")
        rows = dgroup_rows(registry, cache)
        columns = ["dgroup", "hits", "share", "energy_nj"]
        if any("occupancy" in r for r in rows):
            columns.append("occupancy")
        lines.extend(_table(rows, columns))
        accesses = sum(r["hits"] for r in rows)  # type: ignore[misc]
        if accesses:
            fractions = [r["share"] for r in rows[:-1]]
            chart_rows[cache] = (fractions, rows[-1]["share"])  # type: ignore[index]
            max_groups = max(max_groups, len(groups))

    if chart_rows:
        # The same stacked-bar form the paper's distribution figures use.
        from repro.experiments.render import distribution_chart

        lines.append("")
        lines.append("-- d-group access distribution --")
        lines.append(distribution_chart(chart_rows, legend_groups=max_groups))

    pressure = port_pressure_rows(registry)
    if pressure:
        lines.append("")
        lines.append("-- port / bank-queue pressure --")
        lines.extend(
            _table(
                pressure,
                [
                    "resource",
                    "banks",
                    "grants",
                    "busy_cycles",
                    "wait_cycles",
                    "avg_wait",
                ],
            )
        )

    histograms = registry.histograms()
    if histograms:
        lines.append("")
        lines.append("-- histograms --")
        rows = []
        for name, hist in histograms.items():
            rows.append(
                {
                    "histogram": name,
                    "n": hist.n,
                    "mean": hist.mean,
                    "p50": hist.quantile(0.5),
                    "p90": hist.quantile(0.9),
                    "min": hist.min if hist.min is not None else "",
                    "max": hist.max if hist.max is not None else "",
                }
            )
        lines.extend(_table(rows, ["histogram", "n", "mean", "p50", "p90", "min", "max"]))

    counters = registry.counters()
    if counters:
        lines.append("")
        lines.append("-- counters --")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"{name:<{width}}  {_fmt(value)}")

    lines.append("")
    return "\n".join(lines)


def report_from_files(paths: Sequence[str]) -> str:
    """Load, merge, and render — the ``python -m repro.telemetry`` core."""
    return render_report(merge_payloads(load_payloads(paths)))
