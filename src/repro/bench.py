"""Perf-baseline harness: wall-clock trajectory for the simulator.

Times a fixed, representative replay workload — one NuRAPID and one
S-NUCA configuration over two benchmarks — first serially, then
through the :mod:`repro.sim.parallel` process pool, verifies the two
produce bit-identical results, and appends the timings to a JSON
ledger (``BENCH_sim.json`` at the repo root by default).  Each PR that
touches the hot path can re-run this and the ledger becomes the
wall-clock trajectory reviewers diff against::

    python -m repro.bench                       # defaults, appends entry
    python -m repro.bench --refs 60000 --jobs 2 --label ci
    python -m repro.bench --service --min-service-throughput 0.5

Each entry records the ``REPRO_ENGINE`` / ``REPRO_JOBS`` /
``REPRO_TELEMETRY`` environment in effect, so ledger comparisons
across machines and sessions stay honest.

The harness is informational: it never fails on slow hardware, only on
a serial/parallel result mismatch (which would mean the engine broke
determinism — the one property this file exists to guard), on an
``--engine-parity`` divergence between the exact replay engines, or on
an ``--approx-accuracy`` drift of the analytical ``engine="approx"``
tier past its documented tolerances.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import sys
import tempfile
import time
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
from repro.telemetry.runtime import runtime_registry
from repro.workloads.trace import Trace
from repro.workloads.tracegen import TraceCache, default_trace_cache_dir
from repro.workloads.transport import ensure_decoded

DEFAULT_REFS = 120_000
DEFAULT_BENCHMARKS = ["galgel", "twolf"]
DEFAULT_WARMUP = 0.4
DEFAULT_REPETITIONS = 3
LEDGER_FORMAT = 1

#: Workload for the ``--cmp`` gate: a 2-core shared-LLC run (timed)
#: plus the cores=1 bit-identity contract check.
CMP_BENCHMARK = "twolf"

#: Workload for the ``--approx-accuracy`` gate: the full shipped-config
#: parity matrix from ``tests/test_fastpath.py``, three trace seeds.
APPROX_BENCHMARK = "twolf"
APPROX_SEEDS = (0, 1, 2)

#: Documented tolerances for ``engine="approx"`` on the accuracy matrix
#: (twolf; the analytical tier is calibrated against this workload —
#: eviction-heavy benchmarks like mcf drift further).  Current worst
#: observed errors sit near half of each bound.
APPROX_TOLERANCES = {
    "ipc_rel": 0.025,
    "miss_ratio_abs": 0.008,
    "fastest_dgroup_abs": 0.02,
    "energy_rel": 0.015,
}


def standard_configs() -> List[SystemConfig]:
    """The fixed config pair the baseline times (NuRAPID + S-NUCA)."""
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


def _time_serial(
    configs: List[SystemConfig],
    benchmarks: List[str],
    traces: Dict[str, Trace],
    refs: int,
    seed: int,
    warmup: float,
    telemetry: Optional[TelemetryConfig] = None,
    repetitions: int = 1,
) -> Dict[str, object]:
    """Serial timing pass: each cell runs ``repetitions`` times, min wins.

    The replay is deterministic, so repetitions only differ by scheduler
    and allocator noise — the minimum is the honest per-cell figure.
    ``total_s`` is the sum of the per-cell minima.
    """
    per_cell = {}
    results = {}
    total = 0.0
    for config in configs:
        for benchmark in benchmarks:
            best: Optional[float] = None
            for rep in range(repetitions):
                cell_start = time.perf_counter()
                result = run_benchmark(
                    config,
                    benchmark,
                    n_references=refs,
                    trace=traces[benchmark],
                    warmup_fraction=warmup,
                    seed=seed,
                    telemetry=telemetry,
                )
                elapsed = time.perf_counter() - cell_start
                if best is None or elapsed < best:
                    best = elapsed
                if rep == 0:
                    results[(config.name, benchmark)] = run_result_to_dict(result)
            per_cell[f"{config.name}/{benchmark}"] = round(best or 0.0, 3)
            total += best or 0.0
    return {
        "total_s": round(total, 3),
        "per_cell_s": per_cell,
        "results": results,
    }


def _pool_tasks(
    configs: List[SystemConfig],
    benchmarks: List[str],
    trace_paths: Dict[str, str],
    refs: int,
    seed: int,
    warmup: float,
):
    cells = [(c, b) for c in configs for b in benchmarks]
    mmap_paths = {
        benchmark: ensure_decoded(path)
        for benchmark, path in trace_paths.items()
    }
    tasks = [
        CellTask(
            index=i,
            config=config,
            benchmark=benchmark,
            n_references=refs,
            seed=seed,
            warmup_fraction=warmup,
            trace_path=trace_paths[benchmark],
            mmap_path=mmap_paths[benchmark],
            isolate_errors=False,
        )
        for i, (config, benchmark) in enumerate(cells)
    ]
    return cells, tasks


def _time_parallel(
    configs: List[SystemConfig],
    benchmarks: List[str],
    trace_paths: Dict[str, str],
    refs: int,
    seed: int,
    warmup: float,
    jobs: int,
) -> Dict[str, object]:
    cells, tasks = _pool_tasks(
        configs, benchmarks, trace_paths, refs, seed, warmup
    )
    started = time.perf_counter()
    payloads = run_cells(tasks, jobs)
    total = time.perf_counter() - started
    results = {}
    for payload in payloads:
        config, benchmark = cells[payload["index"]]
        results[(config.name, benchmark)] = payload["result"]
    return {"total_s": round(total, 3), "results": results}


def _time_supervised(
    configs: List[SystemConfig],
    benchmarks: List[str],
    trace_paths: Dict[str, str],
    refs: int,
    seed: int,
    warmup: float,
    jobs: int,
) -> Dict[str, object]:
    """Same workload as :func:`_time_parallel`, through the supervisor.

    No faults are injected, so this measures the pure supervision tax:
    the worker pipes, deadline bookkeeping, and result plumbing that
    :func:`repro.resilience.supervisor.run_cells_supervised` adds on
    top of the plain pool.
    """
    cells, tasks = _pool_tasks(
        configs, benchmarks, trace_paths, refs, seed, warmup
    )
    started = time.perf_counter()
    payloads = run_cells_supervised(tasks, jobs, config=SupervisorConfig())
    total = time.perf_counter() - started
    results = {}
    for payload in payloads:
        config, benchmark = cells[payload["index"]]
        results[(config.name, benchmark)] = payload["result"]
    return {"total_s": round(total, 3), "results": results}


def _time_service(
    benchmarks: List[str],
    refs: int,
    seed: int,
    warmup: float,
    jobs: int,
    clients: int,
    serial_results: Dict[object, dict],
) -> Dict[str, object]:
    """Throughput of the job server under concurrent clients.

    Boots an in-process server (fresh store), has ``clients`` threads
    submit the standard workload simultaneously under distinct
    fair-share identities, and measures wall-clock from first submit to
    last completion.  Identical grids coalesce onto one computation, so
    ``cells`` counts unique simulated cells while ``delivered`` counts
    per-client deliveries; ``cells_per_s`` is the delivery rate — the
    number a reviewer cares about when N users share one server.  Every
    delivered payload is compared byte-for-byte against the serial
    pass's results.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service.client import ServiceClient
    from repro.service.protocol import GridRequest, canonical_json, config_spec
    from repro.service.server import ServerConfig, serve_in_thread

    specs = [config_spec("nurapid"), config_spec("s-nuca")]
    engine = resolve_engine(None)
    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")

    def submit_and_wait(name: str):
        local = ServiceClient(bg.url)
        submission = local.submit(
            GridRequest(
                configs=specs,
                benchmarks=benchmarks,
                client=name,
                n_references=refs,
                seed=seed,
                warmup_fraction=warmup,
                engine=engine,
            )
        )
        return local.wait(str(submission["job"]))

    try:
        with serve_in_thread(ServerConfig(store_dir=store_dir, jobs=jobs)) as bg:
            probe = ServiceClient(bg.url)
            probe.wait_healthy()
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                statuses = list(
                    pool.map(
                        submit_and_wait,
                        [f"bench-{i}" for i in range(clients)],
                    )
                )
            elapsed = time.perf_counter() - started
            counters = probe.stats()["counters"]
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    identical = True
    for status in statuses:
        for cell in status["cells"]:
            expected = serial_results.get((cell["config"], cell["benchmark"]))
            delivered = (cell.get("payload") or {}).get("result")
            if expected is None or delivered is None or canonical_json(
                delivered
            ) != canonical_json(expected):
                identical = False

    cells = len(specs) * len(benchmarks)
    delivered_total = cells * clients
    return {
        "clients": clients,
        "jobs": jobs,
        "cells": cells,
        "delivered": delivered_total,
        "elapsed_s": round(elapsed, 3),
        "cells_per_s": round(delivered_total / elapsed, 3) if elapsed else 0.0,
        "memo_hits": int(counters.get("service.cells_memo_hits", 0)),
        "coalesced": int(counters.get("service.cells_coalesced", 0)),
        "identical": identical,
    }


def _strip_telemetry(results: Dict[object, dict]) -> Dict[object, dict]:
    """Result payloads without their telemetry section (for comparison)."""
    return {
        key: {k: v for k, v in payload.items() if k != "telemetry"}
        for key, payload in results.items()
    }


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


def approx_accuracy(
    cache: TraceCache,
    refs: int,
    warmup: float,
    repetitions: int = 1,
) -> Dict[str, object]:
    """Cross-validate ``engine="approx"`` against the exact tier.

    Runs the shipped-config parity matrix (7 configs x 3 seeds, twolf)
    under the default exact engine and under ``approx``, compares the
    gated metrics (IPC, L2 miss ratio, fastest-d-group hit fraction,
    total energy) against :data:`APPROX_TOLERANCES`, and times both
    sides (min over ``repetitions`` for approx, whose first call also
    pays geometry setup).  Returns worst-case errors, per-tolerance
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
            approx_s: Optional[float] = None
            for _ in range(repetitions):
                started = time.perf_counter()
                approximate = run_benchmark(
                    config_replace(config, engine="approx"),
                    APPROX_BENCHMARK,
                    n_references=refs,
                    trace=trace,
                    warmup_fraction=warmup,
                    seed=seed,
                )
                elapsed = time.perf_counter() - started
                if approx_s is None or elapsed < approx_s:
                    approx_s = elapsed
            exact_total += exact_s
            approx_total += approx_s or 0.0
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


def _time_cmp(
    refs: int, seed: int, warmup: float, repetitions: int = 1
) -> Dict[str, object]:
    """The ``--cmp`` pass: timed 2-core run + cores=1 parity check.

    Times a 2-core contended shared-NuRAPID run (the new CMP engine's
    representative workload) and verifies the bit-identity contract: a
    config carrying ``CmpConfig(cores=1)`` must produce a byte-identical
    result to the same config without any ``cmp`` block, because the
    driver routes one-core runs through the unchanged single-core path.
    """
    from repro.cmp.config import CmpConfig
    from repro.cmp.scenarios import cmp_nurapid_config, per_core_ipcs

    config = cmp_nurapid_config(cores=2)
    best: Optional[float] = None
    result = None
    for rep in range(repetitions):
        start = time.perf_counter()
        run = run_benchmark(
            config,
            CMP_BENCHMARK,
            n_references=refs,
            seed=seed,
            warmup_fraction=warmup,
        )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
        if rep == 0:
            result = run
    assert result is not None

    plain = nurapid_config()
    tagged = config_replace(plain, cmp=CmpConfig(cores=1))
    baseline = run_benchmark(
        plain, CMP_BENCHMARK, n_references=refs, seed=seed, warmup_fraction=warmup
    )
    routed = run_benchmark(
        tagged, CMP_BENCHMARK, n_references=refs, seed=seed, warmup_fraction=warmup
    )
    parity = json.dumps(
        run_result_to_dict(baseline), sort_keys=True
    ) == json.dumps(run_result_to_dict(routed), sort_keys=True)

    ipcs = per_core_ipcs(result)
    return {
        "benchmark": CMP_BENCHMARK,
        "cores": 2,
        "cmp_s": round(best or 0.0, 3),
        "throughput_ipc": round(sum(ipcs), 4),
        "single_core_parity": parity,
    }


def comparable_entry(
    ledger: Dict[str, object], entry: Dict[str, object], label: Optional[str] = None
):
    """The most recent ledger entry timing the same workload, if any.

    ``label`` restricts candidates to entries tagged with it (the
    ``--against pr3-telemetry`` form).
    """
    keys = ("refs", "warmup_fraction", "seed", "benchmarks", "configs")
    for candidate in reversed(ledger.get("entries", [])):  # type: ignore[arg-type]
        if label is not None and candidate.get("label") != label:
            continue
        if all(candidate.get(k) == entry[k] for k in keys):
            return candidate
    return None


def load_ledger(path: str) -> Dict[str, object]:
    if not os.path.exists(path):
        return {"format": LEDGER_FORMAT, "entries": []}
    with open(path, "r", encoding="utf-8") as handle:
        ledger = json.load(handle)
    if not isinstance(ledger, dict) or "entries" not in ledger:
        raise SystemExit(f"{path} is not a BENCH_sim ledger; refusing to overwrite")
    return ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the standard replay workload and append to the ledger.",
    )
    parser.add_argument("--refs", type=int, default=DEFAULT_REFS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=float, default=DEFAULT_WARMUP)
    parser.add_argument(
        "--benchmarks", nargs=2, default=DEFAULT_BENCHMARKS, metavar="BENCH"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for the parallel pass (default: up to 4 cores)",
    )
    parser.add_argument("--out", default="BENCH_sim.json")
    parser.add_argument(
        "--label", default=None, help="free-form tag recorded with the entry"
    )
    parser.add_argument(
        "--telemetry-overhead",
        action="store_true",
        help="also time a serial pass with telemetry enabled, verify the "
        "simulated results are unchanged, and record the overhead ratio",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=DEFAULT_REPETITIONS,
        help="serial runs per cell; the minimum is recorded "
        f"(default {DEFAULT_REPETITIONS})",
    )
    parser.add_argument(
        "--engine-parity",
        action="store_true",
        help="run every cell under both exact replay engines "
        f"({' and '.join(EXACT_ENGINES)}) and fail unless results and "
        "telemetry reports are identical",
    )
    parser.add_argument(
        "--approx-accuracy",
        action="store_true",
        help="cross-validate engine=approx against the exact tier over "
        "the shipped-config parity matrix (7 configs x 3 seeds, "
        f"{APPROX_BENCHMARK}) and fail if any gated metric drifts past "
        "its documented tolerance",
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help="also time the workload through the supervised execution "
        "layer (repro.resilience), verify results are bit-identical to "
        "the serial pass, and record the overhead vs the plain pool",
    )
    parser.add_argument(
        "--max-supervised-overhead",
        type=float,
        default=None,
        metavar="FRACTION",
        help="with --supervised, fail if the supervised pass is more than "
        "this fraction slower than the plain parallel pass (e.g. 0.02)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="also time the workload through the repro.service job server "
        "under concurrent clients, verify delivered payloads are "
        "byte-identical to the serial pass, and record cells/sec",
    )
    parser.add_argument(
        "--service-clients",
        type=int,
        default=2,
        metavar="N",
        help="concurrent clients for --service (default 2)",
    )
    parser.add_argument(
        "--min-service-throughput",
        type=float,
        default=None,
        metavar="CELLS_PER_S",
        help="with --service, fail if delivery throughput falls below "
        "this many cells/sec",
    )
    parser.add_argument(
        "--cmp",
        action="store_true",
        help="also time a 2-core contended shared-NuRAPID run through the "
        "CMP engine and fail unless a CmpConfig(cores=1) run is "
        "byte-identical to the plain single-core path",
    )
    parser.add_argument(
        "--against",
        default=None,
        metavar="LEDGER_OR_LABEL",
        help="compare serial time to the most recent comparable entry of "
        "this ledger (a path) or of the --out ledger's entries with this "
        "label, and fail on regression beyond --max-regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.05,
        help="allowed fractional serial-time regression for --against "
        "(default 0.05 = 5%%)",
    )
    args = parser.parse_args(argv)
    if args.repetitions < 1:
        parser.error("--repetitions must be >= 1")
    if args.service_clients < 1:
        parser.error("--service-clients must be >= 1")
    cpus = os.cpu_count() or 1
    jobs = args.jobs or min(4, cpus)
    oversubscribed = jobs > cpus
    # The supervised executor keeps the supervising parent active
    # alongside its worker processes (deadline polling, pipe plumbing),
    # so it saturates one extra CPU over the plain pool.
    supervised_oversubscribed = bool(args.supervised) and jobs + 1 > cpus
    if oversubscribed:
        print(
            f"warning: {jobs} jobs oversubscribe {cpus} CPUs; the parallel "
            "timing will understate the engine's real speedup",
            file=sys.stderr,
        )
    elif supervised_oversubscribed:
        print(
            f"warning: {jobs} workers plus the supervisor oversubscribe "
            f"{cpus} CPUs; the supervised timing will overstate the "
            "supervision tax",
            file=sys.stderr,
        )

    configs = standard_configs()
    benchmarks = list(args.benchmarks)

    cache_dir = default_trace_cache_dir()
    scratch: Optional[str] = None
    if cache_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-bench-traces-")
        cache_dir = scratch
    try:
        cache = TraceCache(cache_dir)
        trace_start = time.perf_counter()
        traces, trace_paths = {}, {}
        for benchmark in benchmarks:
            traces[benchmark], trace_paths[benchmark] = cache.fetch(
                benchmark, args.refs, seed=args.seed
            )
        trace_s = round(time.perf_counter() - trace_start, 3)

        parity_failures: List[str] = []
        if args.engine_parity:
            parity_failures = engine_parity(
                configs, benchmarks, traces, args.refs, args.seed, args.warmup
            )

        accuracy: Optional[Dict[str, object]] = None
        if args.approx_accuracy:
            accuracy = approx_accuracy(
                cache, args.refs, args.warmup, repetitions=args.repetitions
            )

        registry = runtime_registry()
        kernel_before = dict(registry.counters("vectorized."))
        serial = _time_serial(
            configs,
            benchmarks,
            traces,
            args.refs,
            args.seed,
            args.warmup,
            repetitions=args.repetitions,
        )
        kernel_after = registry.counters("vectorized.")
        kernel_delta = {
            name: value - kernel_before.get(name, 0)
            for name, value in kernel_after.items()
        }
        parallel = _time_parallel(
            configs, benchmarks, trace_paths, args.refs, args.seed, args.warmup, jobs
        )
        supervised: Optional[Dict[str, object]] = None
        if args.supervised:
            supervised = _time_supervised(
                configs,
                benchmarks,
                trace_paths,
                args.refs,
                args.seed,
                args.warmup,
                jobs,
            )
        service: Optional[Dict[str, object]] = None
        if args.service:
            service = _time_service(
                benchmarks,
                args.refs,
                args.seed,
                args.warmup,
                jobs,
                args.service_clients,
                serial["results"],  # type: ignore[arg-type]
            )
        cmp_pass: Optional[Dict[str, object]] = None
        if args.cmp:
            cmp_pass = _time_cmp(
                args.refs, args.seed, args.warmup, repetitions=args.repetitions
            )
        instrumented: Optional[Dict[str, object]] = None
        if args.telemetry_overhead:
            instrumented = _time_serial(
                configs,
                benchmarks,
                traces,
                args.refs,
                args.seed,
                args.warmup,
                telemetry=TelemetryConfig(),
                repetitions=args.repetitions,
            )
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    identical = serial["results"] == parallel["results"]
    speedup = (
        serial["total_s"] / parallel["total_s"] if parallel["total_s"] else 0.0
    )
    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "refs": args.refs,
        "warmup_fraction": args.warmup,
        "seed": args.seed,
        "benchmarks": benchmarks,
        "configs": [c.name for c in configs],
        "engine": resolve_engine(None),
        # The REPRO_* environment in effect: without these a ledger
        # entry timed under REPRO_ENGINE=legacy would silently compare
        # against one timed under the vectorized default.
        "env": {
            **{
                name: os.environ.get(name)
                for name in ("REPRO_ENGINE", "REPRO_JOBS", "REPRO_TELEMETRY")
            },
            # Machine facts that change what a timing means: entries
            # from a different interpreter or core count are not
            # directly comparable.
            "cpu_count": os.cpu_count(),
            "python_version": platform.python_version(),
        },
        "repetitions": args.repetitions,
        "jobs": jobs,
        "oversubscribed": oversubscribed,
        "trace_s": trace_s,
        "serial_s": serial["total_s"],
        "serial_per_cell_s": serial["per_cell_s"],
        "parallel_s": parallel["total_s"],
        "speedup": round(speedup, 3),
        "identical": identical,
    }
    kernel_refs = kernel_delta.get("vectorized.refs", 0)
    if kernel_refs:
        # Kernel strategy stats for the serial pass (all repetitions),
        # from the process-global runtime registry: how many references
        # the exact L1 solve resolved as hits, how many misses the
        # scalar loop walked, and where the kernel wall went (the
        # memoised solve, the final L1 state commit, the miss walk).
        wall = kernel_delta.get("vectorized.wall_s", 0.0)
        solve = kernel_delta.get("vectorized.probe_wall_s", 0.0)
        commit = kernel_delta.get("vectorized.l1_apply_wall_s", 0.0)
        entry["kernel"] = {
            "refs": int(kernel_refs),
            "refs_vector": int(kernel_delta.get("vectorized.refs_vector", 0)),
            "refs_scalar": int(kernel_delta.get("vectorized.refs_scalar", 0)),
            "vector_fraction": round(
                kernel_delta.get("vectorized.refs_vector", 0) / kernel_refs, 4
            ),
            "fallbacks": int(kernel_delta.get("vectorized.fallbacks", 0)),
            "wall_s": round(wall, 3),
            "solve_wall_share": round(solve / wall, 4) if wall else 0.0,
            "commit_wall_share": round(commit / wall, 4) if wall else 0.0,
            "scalar_wall_share": round(
                max(0.0, wall - solve - commit) / wall, 4
            )
            if wall
            else 0.0,
        }
    supervised_identical = True
    if supervised is not None:
        supervised_identical = serial["results"] == supervised["results"]
        supervised_overhead = (
            supervised["total_s"] / parallel["total_s"] - 1.0
            if parallel["total_s"]
            else 0.0
        )
        entry["supervised_s"] = supervised["total_s"]
        entry["supervised_overhead"] = round(supervised_overhead, 3)
        entry["supervised_identical"] = supervised_identical

    service_identical = True
    if service is not None:
        service_identical = bool(service["identical"])
        entry["service"] = service

    cmp_parity = True
    if cmp_pass is not None:
        cmp_parity = bool(cmp_pass["single_core_parity"])
        entry["cmp"] = cmp_pass

    telemetry_identical = True
    if instrumented is not None:
        telemetry_identical = serial["results"] == _strip_telemetry(
            instrumented["results"]  # type: ignore[arg-type]
        )
        overhead = (
            instrumented["total_s"] / serial["total_s"] - 1.0
            if serial["total_s"]
            else 0.0
        )
        entry["telemetry_serial_s"] = instrumented["total_s"]
        entry["telemetry_overhead"] = round(overhead, 3)
        entry["telemetry_identical"] = telemetry_identical

    if args.engine_parity:
        entry["engine_parity"] = not parity_failures
    if accuracy is not None:
        entry["approx"] = {
            key: value for key, value in accuracy.items() if key != "failures"
        }
    if args.supervised:
        entry["supervised_oversubscribed"] = supervised_oversubscribed

    regression_failure: Optional[str] = None
    if args.against is not None:
        if os.path.exists(args.against):
            base = comparable_entry(load_ledger(args.against), entry)
        else:
            # Not a file: a label within the --out ledger.
            base = comparable_entry(
                load_ledger(args.out), entry, label=args.against
            )
        if base is None:
            regression_failure = (
                f"no comparable entry in {args.against} to regress against"
            )
        else:
            baseline_s = float(base["serial_s"])
            allowed = baseline_s * (1.0 + args.max_regression)
            entry["against_serial_s"] = baseline_s
            if entry["serial_s"] > allowed:
                regression_failure = (
                    f"serial {entry['serial_s']}s exceeds baseline "
                    f"{baseline_s}s by more than "
                    f"{args.max_regression:.0%} (allowed {allowed:.3f}s)"
                )
            baseline_service = base.get("service")
            if (
                regression_failure is None
                and service is not None
                and isinstance(baseline_service, dict)
                and baseline_service.get("clients") == service["clients"]
            ):
                baseline_rate = float(baseline_service["cells_per_s"])
                floor = baseline_rate * (1.0 - args.max_regression)
                entry["against_service_cells_per_s"] = baseline_rate
                if float(service["cells_per_s"]) < floor:
                    regression_failure = (
                        f"service throughput {service['cells_per_s']} "
                        f"cells/s fell below baseline {baseline_rate} by "
                        f"more than {args.max_regression:.0%} "
                        f"(floor {floor:.3f})"
                    )

    ledger = load_ledger(args.out)
    ledger["format"] = LEDGER_FORMAT
    ledger["entries"].append(entry)
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, args.out)

    print(
        f"traces {trace_s}s | serial(min of {args.repetitions}) "
        f"{serial['total_s']}s | "
        f"parallel(jobs={jobs}) {parallel['total_s']}s | "
        f"speedup {speedup:.2f}x | identical={identical}"
    )
    if args.engine_parity:
        cells = len(configs) * len(benchmarks)
        if parity_failures:
            for failure in parity_failures:
                print(f"ERROR: engine parity: {failure}")
        else:
            print(
                f"engine parity: ok ({cells} cells x "
                f"{' and '.join(EXACT_ENGINES)})"
            )
    if accuracy is not None:
        errors = accuracy["worst_errors"]
        print(
            f"approx accuracy ({accuracy['cells']} cells, "
            f"{accuracy['benchmark']}): worst ipc {errors['ipc_rel']:.2%} | "
            f"miss ratio {errors['miss_ratio_abs']:.4f} | fastest d-group "
            f"{errors['fastest_dgroup_abs']:.4f} | energy "
            f"{errors['energy_rel']:.2%} | speedup {accuracy['speedup']}x "
            f"(per-cell min {accuracy['per_cell_speedup_min']}x)"
        )
        for failure in accuracy["failures"]:
            print(f"ERROR: approx accuracy: {failure}")
    if supervised is not None:
        print(
            f"supervised(jobs={jobs}) {supervised['total_s']}s | "
            f"overhead vs pool {entry['supervised_overhead']:+.1%} | "
            f"identical={supervised_identical}"
        )
    if service is not None:
        print(
            f"service(jobs={service['jobs']}, "
            f"clients={service['clients']}) {service['elapsed_s']}s | "
            f"{service['cells_per_s']} cells/s delivered | "
            f"coalesced={service['coalesced']} | "
            f"identical={service_identical}"
        )
    if cmp_pass is not None:
        print(
            f"cmp(cores=2, {cmp_pass['benchmark']}) {cmp_pass['cmp_s']}s | "
            f"throughput {cmp_pass['throughput_ipc']} ipc | "
            f"cores=1 parity={cmp_parity}"
        )
    if instrumented is not None:
        print(
            f"telemetry serial {instrumented['total_s']}s | "
            f"overhead {entry['telemetry_overhead']:+.1%} | "
            f"results unchanged={telemetry_identical}"
        )
    print(f"appended entry #{len(ledger['entries'])} to {args.out}")
    if not identical:
        print("ERROR: parallel results diverge from serial — engine bug")
        return 1
    if not supervised_identical:
        print("ERROR: supervised results diverge from serial — supervisor bug")
        return 1
    if (
        supervised is not None
        and args.max_supervised_overhead is not None
        and entry["supervised_overhead"] > args.max_supervised_overhead
    ):
        print(
            "ERROR: supervised overhead "
            f"{entry['supervised_overhead']:+.1%} exceeds allowed "
            f"{args.max_supervised_overhead:.1%}"
        )
        return 1
    if not service_identical:
        print("ERROR: service payloads diverge from serial — server bug")
        return 1
    if (
        service is not None
        and args.min_service_throughput is not None
        and float(service["cells_per_s"]) < args.min_service_throughput
    ):
        print(
            f"ERROR: service throughput {service['cells_per_s']} cells/s "
            f"below required floor {args.min_service_throughput}"
        )
        return 1
    if not telemetry_identical:
        print("ERROR: telemetry changed simulated results — instrumentation bug")
        return 1
    if not cmp_parity:
        print(
            "ERROR: CmpConfig(cores=1) diverged from the single-core "
            "path — bit-identity contract broken"
        )
        return 1
    if parity_failures:
        print("ERROR: replay engines diverge — vectorized kernel bug")
        return 1
    if accuracy is not None and not accuracy["within_tolerance"]:
        print("ERROR: approx engine drifted past documented tolerances")
        return 1
    if regression_failure is not None:
        print(f"ERROR: {regression_failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
