"""Perf gate: perfbench on two checkouts, the head against its base.

For every workload in ``BENCHMARK.json`` this runs ``PAIRS``
alternating pairs of::

    python3 perfbench/run.py --workload W --seed 501 --seconds <run_seconds>

once inside each tree, so each side imports its own ``src/``.  The
order within a pair alternates (base first, then head first), so a
slow drift of the host's speed lands on both sides.  perfbench scales
its times to a nominal host speed and checks every op's results
against the ``legacy`` reference loop.

The gate fails if any run reports ``correct: false``, or if, for any
``end_to_end`` metric, the head's median is worse than the base's
median by more than the metric's ``bound`` (its ``better`` field
gives the direction).  It prints a per-workload table and one JSON
line; ``--out`` appends that line as an entry to a ``BENCH_sim.json``
ledger (created if missing)::

    python3 scripts/perf_gate.py BASE_TREE HEAD_TREE [--out BENCH_sim.json] [--label NAME]

The workloads, metrics, bounds and run length come from the head
tree's ``BENCHMARK.json``.  Exit status: 0 pass, 1 fail.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

SEED = 501
PAIRS = 3
#: A run that takes longer than this is killed and counted as incorrect.
RUN_TIMEOUT_S = 900

Runs = Dict[str, List[dict]]


def load_spec(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_perfbench(tree: str, workload: str, seconds: float) -> dict:
    """One perfbench run inside ``tree``: its JSON result line, or an
    incorrect result carrying the error if it printed none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds),
    ]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (done.stderr or done.stdout).strip()[-400:]
        return {"correct": False, "error": f"exit {done.returncode}: {tail}"}
    if not isinstance(result, dict):
        return {"correct": False, "error": f"not a result: {lines[-1][:200]}"}
    return result


def worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of
    ``base`` (negative when it is better)."""
    change = head - base if better == "lower" else base - head
    if base:
        return change / abs(base)
    return float("inf") if change > 0 else 0.0


def verdict(spec: dict, base: Runs, head: Runs) -> Tuple[List[dict], List[str]]:
    """Compare per-workload perfbench results of the two sides.

    ``base`` and ``head`` map a workload name to its runs' JSON results.
    Returns one row per (workload, end-to-end metric) with both medians,
    the relative change and whether it is within bound, and the list of
    failures (empty: the gate passes).
    """
    rows: List[dict] = []
    failures: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"base": base.get(workload, []), "head": head.get(workload, [])}
        for side, runs in sides.items():
            if not runs:
                failures.append(f"{workload}: no {side} runs")
            for i, run in enumerate(runs):
                if run.get("correct") is not True:
                    detail = run.get("error") or f"{run.get('failed')} failed ops"
                    failures.append(
                        f"{workload}: {side} run {i + 1} is incorrect ({detail})"
                    )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = {}
            for side, runs in sides.items():
                values = [
                    run["metrics"][name]["value"]
                    for run in runs
                    if name in run.get("metrics", {})
                ]
                if runs and len(values) < len(runs):
                    failures.append(f"{workload}: {name} missing from a {side} run")
                if values:
                    medians[side] = statistics.median(values)
            if len(medians) < 2:
                continue
            worse = worsening(medians["base"], medians["head"], metric["better"])
            ok = worse <= metric["bound"]
            rows.append({
                "workload": workload,
                "metric": name,
                "base": medians["base"],
                "head": medians["head"],
                "worse": worse,
                "bound": metric["bound"],
                "ok": ok,
            })
            if not ok:
                failures.append(
                    f"{workload}: {name} is {worse:.1%} worse than the base "
                    f"({medians['head']:.4g} vs {medians['base']:.4g}; "
                    f"bound {metric['bound']:.0%})"
                )
    return rows, failures


def _git_rev(tree: str):
    """The tree's commit (``-dirty`` with uncommitted changes), or None
    if it is not a git checkout."""
    if not os.path.exists(os.path.join(tree, ".git")):
        return None
    done = subprocess.run(
        ["git", "-C", tree, "describe", "--always", "--dirty", "--abbrev=40"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _sig(value: float) -> float:
    return float(f"{value:.4g}")


def entry(spec: dict, args, base: Runs, head: Runs, rows, failures) -> dict:
    """The JSON line (and ledger entry) for one gate run."""
    workloads: Dict[str, Dict[str, dict]] = {}
    for row in rows:
        workloads.setdefault(row["workload"], {})[row["metric"]] = {
            "base": _sig(row["base"]),
            "head": _sig(row["head"]),
            "worse": round(row["worse"], 4),
            "bound": row["bound"],
        }
    runs = [run for side in (base, head) for group in side.values() for run in group]
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "label": args.label,
        "tool": "perfbench",
        "base": _git_rev(args.base),
        "head": _git_rev(args.head),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "pairs": PAIRS,
        "identical": all(run.get("correct") is True for run in runs),
        "passed": not failures,
        "workloads": workloads,
        "failures": failures,
    }


def append_entry(path: str, record: dict) -> None:
    ledger = {"format": 1, "entries": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            ledger = json.load(handle)
        if not isinstance(ledger, dict) or "entries" not in ledger:
            raise SystemExit(f"{path} is not a BENCH_sim ledger; refusing to overwrite")
    ledger["entries"].append(record)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


def print_table(rows: List[dict]) -> None:
    current = None
    for row in rows:
        if row["workload"] != current:
            current = row["workload"]
            print(f"{current}")
            print(f"  {'metric':12s} {'base':>12s} {'head':>12s} {'worse':>8s} {'bound':>6s}")
        print(
            f"  {row['metric']:12s} {row['base']:12.4g} {row['head']:12.4g} "
            f"{row['worse']:+8.1%} {row['bound']:6.0%}"
            f"{'' if row['ok'] else '  FAIL'}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE_TREE")
    parser.add_argument("head", metavar="HEAD_TREE")
    parser.add_argument("--out", metavar="LEDGER", help="append the result line here")
    parser.add_argument("--label", help="tag recorded with the result")
    args = parser.parse_args(argv)

    spec = load_spec(args.head)
    seconds = spec["run_seconds"]
    base: Runs = {}
    head: Runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            order = [("base", args.base, base), ("head", args.head, head)]
            if pair % 2:
                order.reverse()
            for side, tree, runs in order:
                result = run_perfbench(tree, workload, seconds)
                runs.setdefault(workload, []).append(result)
                print(
                    f"[{workload} pair {pair + 1}/{PAIRS} {side}] "
                    f"correct={result.get('correct')}",
                    file=sys.stderr, flush=True,
                )

    rows, failures = verdict(spec, base, head)
    record = entry(spec, args, base, head, rows, failures)
    print_table(rows)
    for failure in failures:
        print(f"FAIL {failure}")
    print(json.dumps(record))
    if args.out:
        append_entry(args.out, record)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
