"""Correctness checks on the standard replay workload.

The standard workload is one NuRAPID and one S-NUCA configuration over
galgel and twolf.  Every invocation replays it serially and checks
that :func:`repro.sim.parallel.run_cells` on the supervised worker pool
returns the same results; each flag adds one more check::

    python -m repro.bench                       # serial == pool
    python -m repro.bench --engine-parity       # legacy == vectorized, bytes (+ NuRAPID, D-NUCA, CMP cells)
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
from typing import Dict, List, Optional, Tuple

from dataclasses import replace as config_replace

from repro.cmp.scenarios import cmp_nurapid_config, cmp_snuca_config
from repro.nuca.config import SearchPolicy
from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.sim.config import (
    ENGINES,
    SystemConfig,
    dnuca_config,
    nurapid_config,
    resolve_engine,
    snuca_config,
)
from repro.sim.driver import run_benchmark
from repro.sim.parallel import CellTask, run_cells
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.interleave import spec_records
from repro.workloads.trace import Trace
from repro.workloads.tracegen import trace_entries

DEFAULT_REFS = 120_000
BENCHMARKS = ["galgel", "twolf"]
SEED = 1
WARMUP = 0.4

#: Workload for the ``--cmp`` check.
CMP_BENCHMARK = "twolf"

#: "config/benchmark" -> result payload.
Results = Dict[str, dict]


def standard_configs() -> List[SystemConfig]:
    """The fixed config pair of the standard workload (NuRAPID + S-NUCA)."""
    return [nurapid_config(), snuca_config()]


def nurapid_cells() -> List[Tuple[SystemConfig, str]]:
    """The NuRAPID cells ``--engine-parity`` adds beside the standard
    workload's default one: LRU distance replacement with promotion
    hysteresis 2 on mcf, and approx-LRU with promotion straight to the
    fastest d-group, over restricted placement regions, on twolf."""
    return [
        (
            nurapid_config(
                distance_replacement=DistanceReplacementKind.LRU, promotion_hysteresis=2
            ),
            "mcf",
        ),
        (
            nurapid_config(
                distance_replacement=DistanceReplacementKind.APPROX_LRU,
                promotion=PromotionPolicy.FASTEST,
                restricted_frames=8,
            ),
            "twolf",
        ),
    ]


def dnuca_cells() -> List[Tuple[SystemConfig, str]]:
    """The D-NUCA cells ``--engine-parity`` adds: its multicast search
    on mcf and its sequential ss-energy search on twolf."""
    return [
        (dnuca_config(), "mcf"),
        (dnuca_config(policy=SearchPolicy.SS_ENERGY), "twolf"),
    ]


def cmp_cells() -> List[Tuple[SystemConfig, str]]:
    """The shared-LLC cells ``--engine-parity`` adds: two cores over a
    contended NuRAPID (one app per core) and over a contended S-NUCA."""
    return [
        (cmp_nurapid_config(cores=2), "+".join(BENCHMARKS)),
        (cmp_snuca_config(cores=2), CMP_BENCHMARK),
    ]


def pool_jobs() -> int:
    """Workers for the pooled and served passes."""
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
            isolate_errors=False,
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
    cells: List[Tuple[SystemConfig, str]],
    traces: Dict[str, Trace],
    refs: int,
    seed: int,
    warmup: float,
) -> List[str]:
    """Replay every cell under both engines; returns mismatch descriptions.

    Each ``(config, benchmark)`` cell runs under every engine in
    ``ENGINES`` (legacy, vectorized) three times: unarmed, with
    telemetry counters only, and with counters and events.  Each full
    result payload (summary, counters, energy) must compare equal to
    legacy's, and the rendered telemetry reports must match byte for
    byte.  All three runs are needed: an unarmed or counters-only lone
    NuRAPID or D-NUCA slice takes its level's ``solve_outcomes``, an
    events-armed one the per-operation steps.  Each cell replays the
    trace of its spec, ``traces[config.trace_spec(benchmark)]``,
    single-core or CMP.  Empty return = the engines are bit-identical
    on these cells.
    """
    arms = {
        "unarmed": None,
        "counters-armed": TelemetryConfig(),
        "events-armed": TelemetryConfig(events=True),
    }
    mismatches: List[str] = []
    for config, benchmark in cells:
        cell = f"{config.name}/{benchmark}"
        #: (arm, engine) -> (result payload, rendered telemetry report).
        runs: Dict[Tuple[str, str], Tuple[dict, Optional[str]]] = {}
        for engine in ENGINES:
            for arm, telemetry in arms.items():
                result = run_benchmark(
                    config_replace(config, engine=engine),
                    benchmark,
                    n_references=refs,
                    trace=traces[config.trace_spec(benchmark)],
                    warmup_fraction=warmup,
                    seed=seed,
                    telemetry=telemetry,
                )
                payload = run_result_to_dict(result)
                telem = payload.pop("telemetry", None)
                report = None if telem is None else render_report(
                    merge_payloads([(cell, telem)])
                )
                runs[arm, engine] = (payload, report)
        for engine in ENGINES[1:]:
            for arm in arms:
                payload, report = runs[arm, engine]
                expected, expected_report = runs[arm, "legacy"]
                if payload != expected:
                    mismatches.append(
                        f"{cell}: {engine} {arm} results differ from legacy"
                    )
                if report != expected_report:
                    mismatches.append(
                        f"{cell}: {engine} {arm} telemetry report differs from legacy"
                    )
    return mismatches


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
        f"{' and '.join(ENGINES)}, unarmed, counters-armed and events-armed, on "
        "the standard workload, two more NuRAPID cells, two D-NUCA cells and "
        "two 2-core CMP cells",
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

    mismatches: List[str] = []
    extra = nurapid_cells() + dnuca_cells() + cmp_cells() if args.engine_parity else []
    specs = list(dict.fromkeys(BENCHMARKS + [c.trace_spec(b) for c, b in extra]))
    with trace_entries(specs, refs, seed=SEED) as paths:
        traces = {s: Trace.load(paths[s], s, spec_records(s, refs)) for s in specs}
        cells = len(standard_configs()) * len(BENCHMARKS)
        print(f"standard workload: {cells} cells x {refs} refs")
        if args.engine_parity:
            cells = [(c, b) for c in standard_configs() for b in BENCHMARKS]
            mismatches += _report(
                "engine parity",
                engine_parity(cells + extra, traces, refs, SEED, WARMUP),
            )
        serial = serial_results(traces, refs)
        mismatches += _report(
            f"serial == pool (jobs={pool_jobs()})", pool_parity(serial, paths, refs)
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
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
