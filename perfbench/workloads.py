"""The four workloads: fixed cell lists that every op replays in full.

Every op of a workload does identical work, so op times are samples of
one distribution and per-op counts repeat exactly.  Each workload
builds its inputs from the benchmark's ``--seed`` and hands the program
only those inputs.  Why each workload was chosen, and its measured
layer shares, are in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

from grid_op import BENCHMARKS as GRID_BENCHMARKS
from grid_op import REFS as GRID_REFS
from grid_op import WARMUP as GRID_WARMUP
from grid_op import canonical, digest, grid_configs
from tracing import Tracer, count_workers, worker_counters

HERE = os.path.dirname(os.path.abspath(__file__))


class OpError(Exception):
    """An op that ran but broke the workload's uniformity or returned junk."""


@dataclasses.dataclass
class OpResult:
    #: cell id -> canonical JSON of its RunResult payload.
    digests: Dict[str, str]
    #: runtime-registry deltas of the process that ran the program.
    counters: Dict[str, float]
    #: span summary (traced ops only).
    spans: Optional[Dict[str, float]] = None
    #: layer values measured outside spans (traced ops only).
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: runtime-registry deltas summed over pool workers (traced runs only).
    workers: Dict[str, float] = dataclasses.field(default_factory=dict)

    def count(self, key: str) -> float:
        return self.counters.get(key, 0) + self.workers.get(key, 0)


def _counters() -> Dict[str, float]:
    from repro.telemetry.runtime import runtime_counters

    return runtime_counters()


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


class Workload:
    name = ""
    #: Switches this workload sets on top of the pinned environment.
    env: Dict[str, str] = {}
    #: CPUs an op keeps busy; the host reference runs on as many.
    cpus = 1
    #: Simulated references and delivered cells per op.
    refs_per_op = 0
    cells_per_op = 0

    def __init__(self, seed: int, work_dir: str, traced_run: bool = False) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: Traced runs also collect the runtime counters of pool workers.
        self.traced_run = traced_run
        self.workers_dir = os.path.join(work_dir, "workers")
        #: Seconds spent importing the program during set-up.
        self.import_s = 0.0

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Everything before the first timed op, including one warm-up op.

        A set-up ``tracer`` is installed once the program is imported
        (the caller uninstalls it).
        """
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed reset between ops."""

    def op(self, traced: bool) -> OpResult:
        raise NotImplementedError

    def references(self) -> Dict[str, Dict[str, str]]:
        """Reference digests per kind (``legacy``, ``serial``), untimed."""
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process that drives the workload (pool workers
        excluded: which worker gets which cell varies from op to op)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


def _legacy(config):
    return dataclasses.replace(config, engine="legacy")


def _serial_references(cells, refs: int, seed: int, warmup: float) -> Dict[str, Dict[str, str]]:
    """In-process serial replay of ``cells`` with the kernel and with the
    ``legacy`` reference loop, on freshly generated traces."""
    from repro.sim.driver import run_benchmark
    from repro.workloads.spec2k import get_benchmark
    from repro.workloads.tracegen import generate_trace

    traces: Dict[str, object] = {}
    serial, legacy = {}, {}
    for config, bench in cells:
        if bench not in traces:
            traces[bench] = generate_trace(get_benchmark(bench), refs, seed=seed)
        kwargs = dict(n_references=refs, seed=seed, trace=traces[bench], warmup_fraction=warmup)
        key = f"{config.name}/{bench}"
        serial[key] = digest(run_benchmark(config, bench, **kwargs))
        legacy[key] = digest(run_benchmark(_legacy(config), bench, **kwargs))
    return {"serial": serial, "legacy": legacy}


class ReplayWorkload(Workload):
    """Warm, in-process serial replay of fixed (config, benchmark) cells."""

    refs = 0
    warmup = 0.4

    def cells(self):
        raise NotImplementedError

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        start = perf_counter()
        from repro.sim import driver
        from repro.workloads import tracegen
        from repro.workloads.spec2k import get_benchmark

        self.import_s = perf_counter() - start
        if tracer is not None:
            tracer.install()
        self.driver = driver
        self.cell_list = self.cells()
        # Looked up on the module so a set-up tracer sees the call.
        self.traces = {
            bench: tracegen.generate_trace(get_benchmark(bench), self.refs, seed=self.seed)
            for bench in sorted({bench for _, bench in self.cell_list})
        }
        self.refs_per_op = self.refs * len(self.cell_list)
        self.cells_per_op = len(self.cell_list)
        self._run_all(self.cell_list)  # warm-up op: decode, prewarm cache

    def _run_all(self, cells, tracer: Optional[Tracer] = None) -> Dict[str, str]:
        digests = {}
        for config, bench in cells:
            kwargs = dict(
                n_references=self.refs,
                seed=self.seed,
                trace=self.traces[bench],
                warmup_fraction=self.warmup,
            )
            if tracer is None:
                result = self.driver.run_benchmark(config, bench, **kwargs)
            else:
                with tracer.span("run_benchmark"):
                    result = self.driver.run_benchmark(config, bench, **kwargs)
            digests[f"{config.name}/{bench}"] = digest(result)
        return digests

    def op(self, traced: bool) -> OpResult:
        before = _counters()
        if not traced:
            digests = self._run_all(self.cell_list)
            return OpResult(digests, _delta(before, _counters()))
        with Tracer() as tracer:
            digests = self._run_all(self.cell_list, tracer)
        return OpResult(
            digests,
            _delta(before, _counters()),
            spans=tracer.summary(),
            extra={"memory.accesses": tracer.memory_accesses()},
        )

    def references(self) -> Dict[str, Dict[str, str]]:
        legacy = [(_legacy(config), bench) for config, bench in self.cell_list]
        digests = self._run_all(legacy)
        # Key by the kernel config's name (legacy shares it: engine is
        # not part of the name).
        return {"legacy": digests}


class ReplayL1(ReplayWorkload):
    name = "replay-l1"
    refs = 120_000

    def cells(self):
        from repro.sim.config import nurapid_config

        return [(nurapid_config(), "gcc"), (nurapid_config(), "mesa")]


class ReplayL2(ReplayWorkload):
    name = "replay-l2"
    refs = 20_000

    def cells(self):
        from repro.sim.config import dnuca_config, nurapid_config

        return [(nurapid_config(), "mcf"), (dnuca_config(), "mcf")]


class GridCold(Workload):
    """Each op is a fresh interpreter running a figure-9 grid on 2 workers."""

    name = "grid-cold"
    cpus = 2
    #: A cold on-disk trace cache, so run_matrix lays down decoded
    #: segments and the workers memory-map them.
    env = {"REPRO_TRACE_CACHE": "<an empty directory per op>"}

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        self.cells_per_op = len(grid_configs()) * len(GRID_BENCHMARKS)
        self.refs_per_op = self.cells_per_op * GRID_REFS
        self._maxrss_kb = 0
        self.trace_cache = os.path.join(self.work_dir, "trace-cache")
        self.op(traced=False)  # warm-up op: page cache, bytecode cache

    def before_op(self) -> None:
        shutil.rmtree(self.trace_cache, ignore_errors=True)

    def op(self, traced: bool) -> OpResult:
        command = [sys.executable, os.path.join(HERE, "grid_op.py"), "--seed", str(self.seed)]
        if traced:
            command.append("--trace")
        if self.traced_run:
            command += ["--count-workers", self.workers_dir]
        env = dict(os.environ, REPRO_TRACE_CACHE=self.trace_cache)
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, env=env)
        if done.returncode != 0:
            raise OpError(f"grid op exited {done.returncode}: {done.stderr.strip()[-400:]}")
        try:
            out = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise OpError(f"grid op printed no result: {exc}") from None
        self._maxrss_kb = max(self._maxrss_kb, int(out["maxrss_kb"]))
        result = OpResult(out["digests"], out["counters"], workers=out.get("worker_counters", {}))
        if traced:
            result.spans = out["spans"]
            result.extra = {
                "import_s": out["import_s"],
                "executor.cells": out["cells"],
            }
        return result

    def references(self) -> Dict[str, Dict[str, str]]:
        cells = [(config, bench) for bench in GRID_BENCHMARKS for config in grid_configs()]
        return _serial_references(cells, GRID_REFS, self.seed, GRID_WARMUP)

    def peak_rss_kb(self) -> int:
        return self._maxrss_kb


class ServiceMemo(Workload):
    """An in-process job server; each job mixes stored and fresh cells."""

    name = "service-memo"
    cpus = 2
    refs = 60_000
    warmup = 0.4
    benchmarks = ["twolf", "gcc"]

    def _specs(self):
        from repro.service.protocol import config_spec

        # Stored cells first, fresh cells second.
        return config_spec("base"), config_spec("nurapid", n_dgroups=4)

    def _request(self, specs):
        from repro.service.protocol import GridRequest

        return GridRequest(
            configs=list(specs),
            benchmarks=list(self.benchmarks),
            client="perfbench",
            n_references=self.refs,
            seed=self.seed,
            warmup_fraction=self.warmup,
        )

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        start = perf_counter()
        from repro.service import ServerConfig, ServiceClient, serve_in_thread
        from repro.service.protocol import build_config

        self.import_s = perf_counter() - start
        if tracer is not None:
            tracer.install()
        if self.traced_run:
            count_workers("repro.service.server", self.workers_dir)
        self.build_config = build_config
        self.server = serve_in_thread(
            ServerConfig(store_dir=os.path.join(self.work_dir, "store"), jobs=2)
        )
        self.client = ServiceClient(self.server.url)
        self.client.wait_healthy()
        stored, fresh = self._specs()
        self.stored_name = build_config(stored).name
        self.full = self._request((stored, fresh))
        self.cells_per_op = len(self.full.cells())
        self.refs_per_op = self.refs * len(self.benchmarks)  # fresh cells only
        # Fill the store with the stored half; the server generates and
        # lays down the traces while admitting this first job.
        self._submit_and_wait(self._request((stored,)))
        self._fresh_keys: List[str] = []
        self.before_op()
        self.op(traced=False)  # warm-up op: worker imports and trace maps

    def _submit_and_wait(self, request, tracer: Optional[Tracer] = None):
        if tracer is None:
            job = self.client.submit(request)
            return self.client.wait(job["job"])
        with tracer.span("service.submit"):
            job = self.client.submit(request)
        with tracer.span("service.wait"):
            return self.client.wait(job["job"])

    def before_op(self) -> None:
        """Drop the previous op's fresh cells so the next op recomputes them."""
        store = self.server.server.store
        for key in self._fresh_keys:
            for path in (store.path_for(key), store.sidecar_for(key)):
                if os.path.exists(path):
                    os.remove(path)
        self._fresh_keys = []

    def op(self, traced: bool) -> OpResult:
        before = _counters()
        tracer = Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            status = self._submit_and_wait(self.full, tracer)
        counters = _delta(before, _counters())
        digests = {}
        for cell in status["cells"]:
            stored = cell["config"] == self.stored_name
            expected = "hit" if stored else "ok"
            if cell["status"] != expected:
                raise OpError(
                    f"cell {cell['config']}/{cell['benchmark']} is {cell['status']}, "
                    f"expected {expected}"
                )
            if not stored:
                self._fresh_keys.append(cell["key"])
            digests[f"{cell['config']}/{cell['benchmark']}"] = canonical(
                cell["payload"]["result"]
            )
        result = OpResult(digests, counters)
        if self.traced_run:
            result.workers = worker_counters(self.workers_dir)
        if tracer is not None:
            result.spans = tracer.summary()
        return result

    def references(self) -> Dict[str, Dict[str, str]]:
        cells = [(self.build_config(spec), bench) for spec in self._specs() for bench in self.benchmarks]
        return _serial_references(cells, self.refs, self.seed, self.warmup)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


WORKLOADS = {w.name: w for w in (ReplayL1, ReplayL2, GridCold, ServiceMemo)}
