"""Correctness checks on the standard replay workload.

The standard workload is one NuRAPID and one S-NUCA configuration over
galgel and twolf.  Every invocation replays it serially and checks
that the :mod:`repro.sim.parallel` process pool returns the same
results; each flag adds one more check::

    python -m repro.bench                       # serial == pool
    python -m repro.bench --engine-parity       # legacy == vectorized, bytes
    python -m repro.bench --approx-accuracy     # approx within APPROX_TOLERANCES
    python -m repro.bench --refs 60000 --supervised
    python -m repro.bench --service             # 2 clients, served == serial
    python -m repro.bench --cmp                 # CmpConfig(cores=1) == no cmp
    python -m repro.bench --telemetry           # armed results == unarmed

Each check returns a list of mismatch descriptions; the exit status is
1 if any check found one.  Nothing is written.  Speed is measured by
perfbench (``perfbench/run.py``), and ``scripts/perf_gate.py``
compares its results on the parent commit and the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from functools import partial
from typing import Dict, List, Optional

from dataclasses import replace as config_replace

from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.resilience.supervisor import SupervisorConfig, run_cells_supervised
from repro.sim.config import (
    EXACT_ENGINES,
    SystemConfig,
    base_config,
    dnuca_config,
    nurapid_config,
    resolve_engine,
    sa_nuca_config,
    snuca_config,
)
from repro.sim.driver import run_benchmark
from repro.sim.parallel import CellTask, run_cells
from repro.sim.results import RunResult, run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceCache, default_trace_cache_dir
from repro.workloads.transport import ensure_decoded

DEFAULT_REFS = 120_000
BENCHMARKS = ["galgel", "twolf"]
SEED = 1
WARMUP = 0.4
#: ``--supervised`` fails if the supervised pass takes more than this
#: fraction longer than the plain pool on the same workload.
MAX_SUPERVISED_OVERHEAD = 0.10

#: Workload for the ``--cmp`` check.
CMP_BENCHMARK = "twolf"

#: Workload for the ``--approx-accuracy`` gate: the full shipped-config
#: parity matrix from ``tests/test_fastpath.py``, three trace seeds.
APPROX_BENCHMARK = "twolf"
APPROX_SEEDS = (0, 1, 2)

#: Documented tolerances for ``engine="approx"`` on the accuracy matrix
#: (twolf; the analytical tier is calibrated on this workload —
#: eviction-heavy benchmarks like mcf drift further).  Current worst
#: observed errors sit near half of each bound.
APPROX_TOLERANCES = {
    "ipc_rel": 0.025,
    "miss_ratio_abs": 0.008,
    "fastest_dgroup_abs": 0.02,
    "energy_rel": 0.015,
}

#: "config/benchmark" -> result payload.
Results = Dict[str, dict]


def standard_configs() -> List[SystemConfig]:
    """The fixed config pair of the standard workload (NuRAPID + S-NUCA)."""
    return [nurapid_config(), snuca_config()]


def accuracy_matrix_configs() -> List[SystemConfig]:
    """The shipped-config parity matrix (mirrors tests/test_fastpath.py)."""
    return [
        base_config(),
        nurapid_config(),
        nurapid_config(
            n_dgroups=2,
            promotion=PromotionPolicy.DEMOTION_ONLY,
            distance_replacement=DistanceReplacementKind.LRU,
        ),
        nurapid_config(promotion_hysteresis=2),
        dnuca_config(),
        sa_nuca_config(),
        snuca_config(),
    ]


def pool_jobs() -> int:
    """Workers for the pooled, supervised and served passes."""
    return min(4, os.cpu_count() or 1)


def serial_results(
    traces: Dict[str, Trace], refs: int, telemetry: Optional[TelemetryConfig] = None
) -> Results:
    """The standard workload replayed in this process."""
    return {
        f"{config.name}/{benchmark}": run_result_to_dict(
            run_benchmark(
                config, benchmark, n_references=refs, trace=traces[benchmark],
                warmup_fraction=WARMUP, seed=SEED, telemetry=telemetry,
            )
        )
        for config in standard_configs()
        for benchmark in BENCHMARKS
    }


def _pooled(runner, trace_paths: Dict[str, str], refs: int) -> Results:
    """The standard workload through ``runner(tasks, jobs)``."""
    cells = [(c, b) for c in standard_configs() for b in BENCHMARKS]
    tasks = [
        CellTask(
            index=i, config=config, benchmark=benchmark, n_references=refs,
            seed=SEED, warmup_fraction=WARMUP, trace_path=trace_paths[benchmark],
            mmap_path=ensure_decoded(trace_paths[benchmark]), isolate_errors=False,
        )
        for i, (config, benchmark) in enumerate(cells)
    ]
    results = {}
    for payload in runner(tasks, pool_jobs()):
        config, benchmark = cells[payload["index"]]
        results[f"{config.name}/{benchmark}"] = payload["result"]
    return results


def _differences(expected: Results, actual: Results, what: str) -> List[str]:
    return [
        f"{cell}: {what} differ from serial"
        for cell, payload in expected.items()
        if actual.get(cell) != payload
    ]


def pool_parity(serial: Results, trace_paths, refs: int) -> List[str]:
    """The ``run_cells`` pool must return the serial results."""
    return _differences(serial, _pooled(run_cells, trace_paths, refs), "pool results")


def supervised_check(serial: Results, trace_paths, refs: int) -> List[str]:
    """The supervisor must return the serial results, at a bounded tax.

    No faults are injected, so the wall-clock difference from the plain
    pool is the pure supervision tax: worker pipes, deadline
    bookkeeping and result plumbing.
    """
    started = time.perf_counter()
    _pooled(run_cells, trace_paths, refs)
    pool_s = time.perf_counter() - started
    started = time.perf_counter()
    supervised = _pooled(
        partial(run_cells_supervised, config=SupervisorConfig()), trace_paths, refs
    )
    supervised_s = time.perf_counter() - started
    mismatches = _differences(serial, supervised, "supervised results")
    overhead = supervised_s / pool_s - 1.0
    print(f"supervised {supervised_s:.3f}s vs pool {pool_s:.3f}s: {overhead:+.1%}")
    if overhead > MAX_SUPERVISED_OVERHEAD:
        mismatches.append(f"overhead {overhead:+.1%} > {MAX_SUPERVISED_OVERHEAD:.0%}")
    return mismatches


def service_parity(serial: Results, refs: int) -> List[str]:
    """Concurrent clients of the job server must each get the serial results.

    Boots an in-process server on a fresh store and has two client
    threads submit the standard workload at once under distinct
    fair-share identities; every delivered payload must equal the
    serial pass's, byte for byte.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service.client import ServiceClient
    from repro.service.protocol import GridRequest, canonical_json, config_spec
    from repro.service.server import ServerConfig, serve_in_thread

    request = dict(
        configs=[config_spec("nurapid"), config_spec("s-nuca")],
        benchmarks=BENCHMARKS, n_references=refs, seed=SEED,
        warmup_fraction=WARMUP, engine=resolve_engine(None),
    )
    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")

    def submit_and_wait(name: str):
        local = ServiceClient(bg.url)
        submission = local.submit(GridRequest(client=name, **request))
        return local.wait(str(submission["job"]))

    names = ["bench-0", "bench-1"]
    try:
        with serve_in_thread(ServerConfig(store_dir=store_dir, jobs=pool_jobs())) as bg:
            ServiceClient(bg.url).wait_healthy()
            with ThreadPoolExecutor(max_workers=len(names)) as pool:
                statuses = list(pool.map(submit_and_wait, names))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    mismatches = []
    for name, status in zip(names, statuses):
        delivered = {
            f"{c['config']}/{c['benchmark']}": (c.get("payload") or {}).get("result")
            for c in status["cells"]
        }
        for cell, expected in serial.items():
            payload = delivered.get(cell)
            if payload is None or canonical_json(payload) != canonical_json(expected):
                mismatches.append(f"{cell}: the payload {name} got differs")
    return mismatches


def cmp_parity(refs: int) -> List[str]:
    """``CmpConfig(cores=1)`` must be byte-identical to no ``cmp`` block:
    the driver routes one-core runs through the single-core path."""
    from repro.cmp.config import CmpConfig

    plain = nurapid_config()
    plain_bytes, tagged_bytes = (
        json.dumps(
            run_result_to_dict(
                run_benchmark(
                    config, CMP_BENCHMARK, n_references=refs, seed=SEED,
                    warmup_fraction=WARMUP,
                )
            ),
            sort_keys=True,
        )
        for config in (plain, config_replace(plain, cmp=CmpConfig(cores=1)))
    )
    if plain_bytes != tagged_bytes:
        return [f"{plain.name}/{CMP_BENCHMARK}: cores=1 differs from no cmp block"]
    return []


def telemetry_parity(serial: Results, traces, refs: int) -> List[str]:
    """Arming telemetry must leave every simulated result unchanged."""
    armed = {
        key: {k: v for k, v in payload.items() if k != "telemetry"}
        for key, payload in serial_results(traces, refs, TelemetryConfig()).items()
    }
    return _differences(serial, armed, "telemetry-armed results")


def engine_parity(
    configs: List[SystemConfig],
    benchmarks: List[str],
    traces: Dict[str, Trace],
    refs: int,
    seed: int,
    warmup: float,
) -> List[str]:
    """Replay every cell under all exact engines; returns mismatch descriptions.

    Each cell runs telemetry-enabled under every engine in
    ``EXACT_ENGINES`` (legacy, vectorized); the full result
    payload (summary, counters, energy) must compare equal to legacy's
    and the rendered telemetry reports must match byte for byte.  Empty
    return = the engines are bit-identical on this workload.  The
    ``approx`` engine is deliberately excluded: it is held to the
    tolerance gate (:func:`approx_accuracy`), not bit-identity.
    """
    mismatches: List[str] = []
    for config in configs:
        for benchmark in benchmarks:
            cell = f"{config.name}/{benchmark}"
            payloads: Dict[str, dict] = {}
            reports: Dict[str, str] = {}
            for engine in EXACT_ENGINES:
                result = run_benchmark(
                    config_replace(config, engine=engine),
                    benchmark,
                    n_references=refs,
                    trace=traces[benchmark],
                    warmup_fraction=warmup,
                    seed=seed,
                    telemetry=TelemetryConfig(),
                )
                payload = run_result_to_dict(result)
                telem = payload.pop("telemetry", None)
                payloads[engine] = payload
                reports[engine] = render_report(merge_payloads([(cell, telem)]))
            for engine in EXACT_ENGINES[1:]:
                if payloads[engine] != payloads["legacy"]:
                    mismatches.append(
                        f"{cell}: {engine} results differ from legacy"
                    )
                if reports[engine] != reports["legacy"]:
                    mismatches.append(
                        f"{cell}: {engine} telemetry report differs from legacy"
                    )
    return mismatches


def _accuracy_metrics(result: RunResult) -> Dict[str, float]:
    """The gated observables of one cell (shared by both engines)."""
    miss_ratio = (
        result.l2_misses / result.l2_accesses if result.l2_accesses else 0.0
    )
    fractions = result.dgroup_fractions or {}
    fastest = min(fractions) if fractions else None
    return {
        "ipc": result.ipc,
        "miss_ratio": miss_ratio,
        "fastest_dgroup": fractions.get(fastest, 0.0) if fastest is not None else 0.0,
        "energy_nj": result.total_energy_nj,
    }


def approx_accuracy(cache: TraceCache, refs: int, warmup: float) -> Dict[str, object]:
    """Cross-validate ``engine="approx"`` with the exact tier.

    Runs the shipped-config parity matrix (7 configs x 3 seeds, twolf)
    under the default exact engine and under ``approx``, compares the
    gated metrics (IPC, L2 miss ratio, fastest-d-group hit fraction,
    total energy) with :data:`APPROX_TOLERANCES`, and times both
    sides.  Returns worst-case errors, per-tolerance
    failures, and the per-cell speedup distribution.
    """
    configs = accuracy_matrix_configs()
    worst = {key: 0.0 for key in APPROX_TOLERANCES}
    failures: List[str] = []
    exact_total = 0.0
    approx_total = 0.0
    speedups: List[float] = []
    for seed in APPROX_SEEDS:
        trace, _ = cache.fetch(APPROX_BENCHMARK, refs, seed=seed)
        for config in configs:
            cell = f"{config.name}/{APPROX_BENCHMARK}/s{seed}"
            started = time.perf_counter()
            exact = run_benchmark(
                config,
                APPROX_BENCHMARK,
                n_references=refs,
                trace=trace,
                warmup_fraction=warmup,
                seed=seed,
            )
            exact_s = time.perf_counter() - started
            started = time.perf_counter()
            approximate = run_benchmark(
                config_replace(config, engine="approx"),
                APPROX_BENCHMARK,
                n_references=refs,
                trace=trace,
                warmup_fraction=warmup,
                seed=seed,
            )
            approx_s = time.perf_counter() - started
            exact_total += exact_s
            approx_total += approx_s
            speedups.append(exact_s / approx_s if approx_s else 0.0)
            em = _accuracy_metrics(exact)
            am = _accuracy_metrics(approximate)
            errors = {
                "ipc_rel": abs(am["ipc"] - em["ipc"]) / em["ipc"]
                if em["ipc"]
                else 0.0,
                "miss_ratio_abs": abs(am["miss_ratio"] - em["miss_ratio"]),
                "fastest_dgroup_abs": abs(
                    am["fastest_dgroup"] - em["fastest_dgroup"]
                ),
                "energy_rel": abs(am["energy_nj"] - em["energy_nj"])
                / em["energy_nj"]
                if em["energy_nj"]
                else 0.0,
            }
            for key, error in errors.items():
                worst[key] = max(worst[key], error)
                if error > APPROX_TOLERANCES[key]:
                    failures.append(
                        f"{cell}: {key} error {error:.4f} exceeds "
                        f"tolerance {APPROX_TOLERANCES[key]:.4f}"
                    )
    cells = len(configs) * len(APPROX_SEEDS)
    return {
        "benchmark": APPROX_BENCHMARK,
        "seeds": list(APPROX_SEEDS),
        "cells": cells,
        "tolerances": dict(APPROX_TOLERANCES),
        "worst_errors": {key: round(value, 5) for key, value in worst.items()},
        "exact_s": round(exact_total, 3),
        "approx_s": round(approx_total, 3),
        "speedup": round(exact_total / approx_total, 1) if approx_total else 0.0,
        "per_cell_speedup_min": round(min(speedups), 1) if speedups else 0.0,
        "within_tolerance": not failures,
        "failures": failures,
    }


def _report(name: str, mismatches: List[str]) -> List[str]:
    print(f"{name}: {'FAIL' if mismatches else 'ok'}")
    for mismatch in mismatches:
        print(f"ERROR: {name}: {mismatch}")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Correctness checks on the standard replay workload "
        "(always: serial results == pool results).",
    )
    parser.add_argument("--refs", type=int, default=DEFAULT_REFS)
    flags = {
        "--engine-parity": "results and telemetry reports identical under "
        f"{' and '.join(EXACT_ENGINES)}",
        "--approx-accuracy": "engine=approx within APPROX_TOLERANCES of the "
        f"exact tier (7 configs x 3 seeds, {APPROX_BENCHMARK})",
        "--supervised": "supervised results == serial, and supervised wall "
        f"<= {1 + MAX_SUPERVISED_OVERHEAD:.2f} x pool wall",
        "--service": "two concurrent job-server clients each get the serial "
        "payloads, byte for byte",
        "--cmp": f"CmpConfig(cores=1) byte-identical to no cmp block ({CMP_BENCHMARK})",
        "--telemetry": "telemetry-armed serial results == unarmed ones",
    }
    for flag, text in flags.items():
        parser.add_argument(flag, action="store_true", help=text)
    args = parser.parse_args(argv)
    refs = args.refs
    if refs < 1:
        parser.error("--refs must be >= 1")

    cache_dir = default_trace_cache_dir()
    scratch = None if cache_dir else tempfile.mkdtemp(prefix="repro-bench-traces-")
    mismatches: List[str] = []
    try:
        cache = TraceCache(cache_dir or scratch)
        traces, paths = {}, {}
        for benchmark in BENCHMARKS:
            traces[benchmark], paths[benchmark] = cache.fetch(
                benchmark, refs, seed=SEED
            )
        cells = len(standard_configs()) * len(BENCHMARKS)
        print(f"standard workload: {cells} cells x {refs} refs")
        if args.engine_parity:
            configs = standard_configs()
            mismatches += _report(
                "engine parity",
                engine_parity(configs, BENCHMARKS, traces, refs, SEED, WARMUP),
            )
        if args.approx_accuracy:
            accuracy = approx_accuracy(cache, refs, WARMUP)
            print(f"approx accuracy worst errors: {accuracy['worst_errors']}")
            mismatches += _report("approx accuracy", accuracy["failures"])
        serial = serial_results(traces, refs)
        mismatches += _report(
            f"serial == pool (jobs={pool_jobs()})", pool_parity(serial, paths, refs)
        )
        if args.supervised:
            mismatches += _report(
                "serial == supervised", supervised_check(serial, paths, refs)
            )
        if args.service:
            mismatches += _report("serial == service", service_parity(serial, refs))
        if args.cmp:
            mismatches += _report("cmp cores=1 parity", cmp_parity(refs))
        if args.telemetry:
            mismatches += _report(
                "telemetry leaves results unchanged",
                telemetry_parity(serial, traces, refs),
            )
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
