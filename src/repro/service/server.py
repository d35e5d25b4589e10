"""The asyncio job server: HTTP/1.1 + JSON over stdlib streams.

Architecture (one event loop, ``jobs`` worker tasks, ``jobs`` worker
processes):

* **admission** (``POST /v1/jobs``) — parse and validate the grid,
  resolve engines, ensure each benchmark's shared trace exists in the
  on-disk trace cache, then for every cell: serve it from the
  content-addressed :class:`~repro.service.store.ResultStore` if
  present (a *memo hit* — zero simulation work), coalesce onto an
  identical in-flight cell if one is already queued or running
  (cross-client dedup: one computation, many subscribers), else admit
  it to the :class:`~repro.service.scheduler.FairShareScheduler` under
  the submitting client's quota.  Quota exhaustion rejects the whole
  grid with HTTP 429 before admitting anything.
* **execution** — each worker task awaits the scheduler (deficit
  round robin across clients) and runs the cell on a supervised worker
  slot — a single-slot :class:`~repro.resilience.supervisor.WorkerPool`
  of one spawned process that lives across cells and runs
  :func:`repro.sim.parallel.execute_cell` under ``cell_timeout_s``.  A
  worker that crashes or overruns is respawned and its cell retried,
  as in every pooled run.  The task then publishes first-attempt
  successes to the store and resolves every subscribed job cell.
* **observation** — ``GET /v1/jobs/<id>`` returns job status with
  terminal cell payloads; ``GET /v1/jobs/<id>/events`` streams NDJSON
  progress (replaying history first, so late subscribers see the full
  story); ``GET /v1/stats`` exposes queue depths, hit rates, and
  per-client accounting from the runtime registry.

Because the server executes cells through the same ``CellTask`` path
as ``run_suite`` / ``Sweep`` — same trace cache, same seeding, same
serialization — a grid run through the server is byte-identical to a
direct ``run_suite``, and because results persist in the store, a
``kill -9`` mid-grid costs only the in-flight cells: a restarted
server serves the completed ones from disk.
"""

from __future__ import annotations

import asyncio
import json
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, ReproError
from repro.resilience.supervisor import SupervisorConfig, WorkerPool
from repro.service.protocol import GridRequest, encode_event
from repro.service.scheduler import FairShareScheduler, QuotaExceeded
from repro.service.store import ResultStore
from repro.sim.config import check_engine
from repro.sim.parallel import (
    CellTask,
    cell_fingerprint,
    execute_cell,
    memoizable_payload,
)
from repro.telemetry import TelemetryConfig
from repro.telemetry.registry import StatRegistry
from repro.telemetry.runtime import runtime_registry
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import TraceCache

MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024


@dataclass
class ServerConfig:
    """Everything a server instance needs to stand up."""

    store_dir: str
    host: str = "127.0.0.1"
    port: int = 0  # 0: let the kernel pick; see SimulationServer.port
    #: Worker processes executing cells (and concurrent worker tasks).
    jobs: int = 2
    #: Max queued cells per client (HTTP 429 beyond it).
    quota: int = 256
    #: DRR refill per scheduling visit, in reference-count units.
    quantum: float = 120_000.0
    #: Last-N store eviction bound (None: unbounded).
    max_entries: Optional[int] = None
    #: Trace cache directory (default: ``<store_dir>/traces``).
    trace_cache_dir: Optional[str] = None
    #: Engine pinned onto requests that do not name one themselves.
    default_engine: Optional[str] = None
    #: Per-attempt wall-clock deadline for a cell (None: unbounded).
    cell_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.default_engine is not None:
            check_engine(self.default_engine, " in default_engine")
        if self.cell_timeout_s is not None and not self.cell_timeout_s > 0:
            raise ConfigurationError(
                f"cell_timeout_s must be positive, got {self.cell_timeout_s}"
            )


@dataclass
class _Cell:
    """One grid cell's lifecycle inside a job."""

    index: int
    config_name: str
    benchmark: str
    key: str
    status: str = "queued"  # queued | running | hit | ok | failed
    source: Optional[str] = None  # store | computed | coalesced
    payload: Optional[Dict[str, object]] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("hit", "ok", "failed")

    def summary(self, with_payload: bool) -> Dict[str, object]:
        body: Dict[str, object] = {
            "index": self.index,
            "config": self.config_name,
            "benchmark": self.benchmark,
            "key": self.key,
            "status": self.status,
            "source": self.source,
        }
        if with_payload and self.terminal:
            body["payload"] = self.payload
        return body


class _Job:
    """Server-side job record with an appendable event log."""

    def __init__(self, job_id: str, client: str, request: GridRequest) -> None:
        self.id = job_id
        self.client = client
        self.request = request
        self.cells: List[_Cell] = []
        self.events: List[bytes] = []
        self.changed = asyncio.Condition()
        self.done = False

    def _emit_locked(self, kind: str, **fields: object) -> None:
        self.events.append(encode_event(kind, len(self.events), **fields))

    async def emit(self, kind: str, **fields: object) -> None:
        async with self.changed:
            self._emit_locked(kind, **fields)
            self.changed.notify_all()

    async def maybe_finish(self) -> None:
        if self.done or not all(c.terminal for c in self.cells):
            return
        self.done = True
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        await self.emit("done", job=self.id, counts=counts)

    def status_payload(self, with_payloads: bool = True) -> Dict[str, object]:
        return {
            "job": self.id,
            "client": self.client,
            "done": self.done,
            "cells": [c.summary(with_payloads) for c in self.cells],
        }


def ensure_decoded(
    traces: TraceCache, request: GridRequest, benchmark: str
) -> str:
    """Admit one benchmark: ensure its trace-cache entry, return its path.

    Runs off the event loop, one executor hop per benchmark; workers
    map the entry by path.  ``perfbench/tracing.py`` times trace I/O
    through this name.
    """
    return traces.ensure(benchmark, request.n_references, request.seed)


class SimulationServer:
    """One server instance; drive with :meth:`start` / :meth:`stop`.

    All state except the result store and trace cache is in-memory:
    restarting the process forgets jobs but keeps every completed
    cell's bytes.
    """

    def __init__(
        self, config: ServerConfig, registry: Optional[StatRegistry] = None
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else runtime_registry()
        self.store = ResultStore(
            config.store_dir,
            max_entries=config.max_entries,
            registry=self.registry,
        )
        trace_dir = config.trace_cache_dir or f"{config.store_dir}/traces"
        self.traces = TraceCache(trace_dir)
        self.scheduler = FairShareScheduler(
            quota=config.quota, quantum=config.quantum
        )
        self.jobs: Dict[str, _Job] = {}
        #: key -> subscribed (job, cell_index) pairs for in-flight cells.
        self._inflight: Dict[str, List[Tuple[_Job, int]]] = {}
        #: One single-slot worker pool per worker task; ``_idle`` holds
        #: the ones not running a cell, ``_threads`` hosts their waits.
        self._pools: List[WorkerPool] = []
        self._idle: Optional[asyncio.Queue] = None
        self._threads: Optional[ThreadPoolExecutor] = None
        self._workers: List[asyncio.Task] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # --- lifecycle ---

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # Spawned (not forked) workers: forking a threaded asyncio
        # parent is unsafe, and spawn keeps the listening socket out of
        # the children, so a kill -9'd server frees its port instantly
        # instead of leaving it held by orphaned workers.  Workers run
        # the execute_cell this module names now.
        supervisor = SupervisorConfig(
            cell_timeout_s=self.config.cell_timeout_s, mp_context="spawn"
        )
        self._pools = [
            WorkerPool(1, supervisor, self.registry, execute=execute_cell)
            for _ in range(self.config.jobs)
        ]
        self._idle = asyncio.Queue()
        for pool in self._pools:
            self._idle.put_nowait(pool)
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.jobs, thread_name_prefix="repro-service-cell"
        )
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"service-worker-{i}")
            for i in range(self.config.jobs)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.scheduler.close()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except (asyncio.CancelledError, Exception):
                pass
        for pool in self._pools:
            pool.close()
        if self._threads is not None:
            self._threads.shutdown(wait=False, cancel_futures=True)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # --- execution ---

    async def _worker_loop(self) -> None:
        assert self._loop is not None
        while True:
            got = await self.scheduler.get()
            if got is None:
                return
            client, item = got
            self.registry.set("service.queue_depth", self.scheduler.depth())
            key, task = item
            await self._notify_subscribers(key, "running")
            payload = await self._run_task(task)
            stored = dict(payload)
            stored.pop("index", None)
            if memoizable_payload(stored):
                await self._loop.run_in_executor(
                    None, self.store.put, key, stored
                )
            outcome = stored.get("outcome")
            ok = isinstance(outcome, dict) and outcome.get("status") == "ok"
            self.registry.add("service.cells_completed")
            self.registry.add(f"service.client.{client}.cells_completed")
            if not ok:
                self.registry.add("service.cells_failed")
            await self._resolve(key, stored, "computed")

    async def _run_task(self, task: CellTask) -> Dict[str, object]:
        """Execute one cell on an idle worker slot; never raises into the loop."""
        assert self._loop is not None and self._idle is not None
        pool = await self._idle.get()
        try:
            payloads = await self._loop.run_in_executor(
                self._threads, pool.run, [task]
            )
            return payloads[0]
        except Exception as exc:  # simulator bug: surface, don't crash
            self.registry.add("service.executor_errors")
            return {
                "index": task.index,
                "outcome": {
                    "status": "failed",
                    "attempts": 1,
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                },
                "result": None,
            }
        finally:
            self._idle.put_nowait(pool)

    async def _notify_subscribers(self, key: str, status: str) -> None:
        for job, index in self._inflight.get(key, ()):
            cell = job.cells[index]
            if not cell.terminal:
                cell.status = status
                await job.emit(
                    status, job=job.id, cell=index,
                    config=cell.config_name, benchmark=cell.benchmark,
                )

    async def _resolve(
        self, key: str, payload: Dict[str, object], source: str
    ) -> None:
        subscribers = self._inflight.pop(key, [])
        outcome = payload.get("outcome")
        ok = isinstance(outcome, dict) and outcome.get("status") == "ok"
        for job, index in subscribers:
            cell = job.cells[index]
            cell.status = "ok" if ok else "failed"
            cell.source = source if cell.source is None else cell.source
            cell.payload = payload
            await job.emit(
                "completed" if ok else "failed",
                job=job.id, cell=index,
                config=cell.config_name, benchmark=cell.benchmark,
                source=cell.source,
            )
            await job.maybe_finish()

    # --- admission ---

    async def _ensure_traces(self, request: GridRequest) -> None:
        assert self._loop is not None
        for benchmark in sorted(set(request.benchmarks)):
            get_benchmark(benchmark)  # unknown names fail pre-admission
            await self._loop.run_in_executor(
                None, ensure_decoded, self.traces, request, benchmark
            )

    def _cell_task(
        self,
        request: GridRequest,
        index: int,
        config,
        benchmark: str,
        telemetry: Optional[TelemetryConfig],
    ) -> CellTask:
        trace_path = self.traces.path_for(
            benchmark, request.n_references, request.seed
        )
        return CellTask(
            index=index,
            config=config,
            benchmark=benchmark,
            n_references=request.n_references,
            seed=request.seed,
            warmup_fraction=request.warmup_fraction,
            trace_path=trace_path,
            telemetry=telemetry,
        )

    async def _submit(self, body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        assert self._loop is not None
        request = GridRequest.from_payload(body)
        cells = request.cells(self.config.default_engine)
        await self._ensure_traces(request)
        telemetry = TelemetryConfig() if request.telemetry else None

        job = _Job(uuid.uuid4().hex[:12], request.client, request)
        self.registry.add("service.jobs_submitted")
        self.registry.add(f"service.client.{request.client}.jobs")

        tasks: List[Tuple[_Cell, CellTask, Optional[Dict[str, object]]]] = []
        to_enqueue = 0
        for index, (config, benchmark) in enumerate(cells):
            task = self._cell_task(request, index, config, benchmark, telemetry)
            key = cell_fingerprint(task)
            assert key is not None  # protocol cells are always addressable
            cell = _Cell(
                index=index,
                config_name=config.name,
                benchmark=benchmark,
                key=key,
            )
            cached = await self._loop.run_in_executor(None, self.store.get, key)
            tasks.append((cell, task, cached))
            if cached is None and key not in self._inflight:
                # Planning estimate only; the admission loop below
                # re-decides against current state.  Over-counting
                # a cell that ends up coalescing merely makes the
                # quota check conservative.
                to_enqueue += 1
        if to_enqueue > self.scheduler.room(request.client):
            self.registry.add(f"service.client.{request.client}.rejected")
            raise QuotaExceeded(
                f"grid needs {to_enqueue} queue slots but client "
                f"{request.client!r} has "
                f"{self.scheduler.room(request.client)} available "
                f"(quota {self.scheduler.quota})"
            )

        self.jobs[job.id] = job
        async with job.changed:
            job._emit_locked(
                "submitted",
                job=job.id,
                client=request.client,
                cells=len(tasks),
            )
            job.changed.notify_all()

        hits = 0
        for cell, task, cached in tasks:
            job.cells.append(cell)
            self.registry.add("service.cells_submitted")
            self.registry.add(
                f"service.client.{request.client}.cells_submitted"
            )
            # Re-decide hit/coalesce/enqueue against *current* state:
            # the planning pass's store probe awaited the executor, so
            # a concurrent submission may have admitted (or resolved) a
            # twin since.  The inflight check and registration below
            # have no await between them, which is what makes the
            # dedup race-free on the single event loop.
            if cached is None and cell.key not in self._inflight:
                # A twin the planner saw may have resolved; its result
                # (if it succeeded) is in the store now.
                cached = await self._loop.run_in_executor(
                    None, self.store.get, cell.key
                )
            if cached is not None:
                hits += 1
                cell.status = "hit"
                cell.source = "store"
                cell.payload = cached
                self.registry.add("service.cells_memo_hits")
                self.registry.add(
                    f"service.client.{request.client}.memo_hits"
                )
                await job.emit(
                    "hit", job=job.id, cell=cell.index,
                    config=cell.config_name, benchmark=cell.benchmark,
                )
            elif cell.key in self._inflight:  # coalesce onto the twin
                cell.source = "coalesced"
                self._inflight[cell.key].append((job, cell.index))
                self.registry.add("service.cells_coalesced")
                await job.emit(
                    "queued", job=job.id, cell=cell.index,
                    config=cell.config_name, benchmark=cell.benchmark,
                    coalesced=True,
                )
            else:
                self._inflight[cell.key] = [(job, cell.index)]
                self.scheduler.put(
                    request.client,
                    (cell.key, task),
                    cost=float(request.n_references),
                )
                self.registry.add("service.cells_enqueued")
                self.registry.set(
                    "service.queue_depth", self.scheduler.depth()
                )
                await job.emit(
                    "queued", job=job.id, cell=cell.index,
                    config=cell.config_name, benchmark=cell.benchmark,
                    coalesced=False,
                )
        await job.maybe_finish()
        return 200, {
            "job": job.id,
            "client": request.client,
            "cells": len(tasks),
            "memo_hits": hits,
            "done": job.done,
        }

    # --- stats ---

    def _stats_payload(self) -> Dict[str, object]:
        counters = self.registry.counters("service.")
        counters.update(self.registry.counters("result_store."))
        submitted = counters.get("service.cells_submitted", 0.0)
        hits = counters.get("service.cells_memo_hits", 0.0)
        return {
            "queue_depth": self.scheduler.depth(),
            "queue_depths": self.scheduler.depths(),
            "jobs": len(self.jobs),
            "store_entries": self.store.entries(),
            "memo_hit_rate": round(hits / submitted, 4) if submitted else 0.0,
            "counters": counters,
        }

    # --- HTTP plumbing ---

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, body = await self._read_request(reader)
            await self._route(method, path, body, writer)
        except ConnectionError:
            pass
        except Exception as exc:
            try:
                await self._respond(
                    writer, 500, {"error": str(exc), "type": type(exc).__name__}
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Optional[Dict[str, object]]]:
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, path, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise ConfigurationError(
                f"malformed request line {request_line!r}"
            ) from None
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise ConfigurationError("request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body: Optional[Dict[str, object]] = None
        length = int(headers.get("content-length", "0") or "0")
        if length:
            if length > MAX_BODY_BYTES:
                raise ConfigurationError(
                    f"request body of {length} bytes exceeds "
                    f"{MAX_BODY_BYTES}"
                )
            raw = await reader.readexactly(length)
            try:
                decoded = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"request body is not valid JSON: {exc}"
                ) from exc
            if not isinstance(decoded, dict):
                raise ConfigurationError("request body must be a JSON object")
            body = decoded
        return method.upper(), path, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 429: "Too Many Requests",
                   500: "Internal Server Error"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: _Job
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        sent = 0
        while True:
            async with job.changed:
                while sent >= len(job.events) and not job.done:
                    await job.changed.wait()
                pending = job.events[sent:]
                sent = len(job.events)
                done = job.done
            for event in pending:
                writer.write(event)
            await writer.drain()
            if done and sent >= len(job.events):
                return

    async def _route(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]],
        writer: asyncio.StreamWriter,
    ) -> None:
        path = path.split("?", 1)[0]
        if path == "/v1/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
            return
        if path == "/v1/stats" and method == "GET":
            await self._respond(writer, 200, self._stats_payload())
            return
        if path == "/v1/jobs" and method == "POST":
            if body is None:
                await self._respond(
                    writer, 400, {"error": "POST /v1/jobs needs a JSON body"}
                )
                return
            try:
                status, payload = await self._submit(body)
            except QuotaExceeded as exc:
                await self._respond(
                    writer, 429, {"error": str(exc), "type": "QuotaExceeded"}
                )
                return
            except ReproError as exc:
                await self._respond(
                    writer, 400, {"error": str(exc), "type": type(exc).__name__}
                )
                return
            await self._respond(writer, status, payload)
            return
        if path.startswith("/v1/jobs/"):
            parts = path[len("/v1/jobs/"):].split("/")
            job = self.jobs.get(parts[0])
            if job is None:
                await self._respond(
                    writer, 404, {"error": f"unknown job {parts[0]!r}"}
                )
                return
            if len(parts) == 1 and method == "GET":
                await self._respond(writer, 200, job.status_payload())
                return
            if len(parts) == 2 and parts[1] == "events" and method == "GET":
                await self._stream_events(writer, job)
                return
        await self._respond(
            writer, 405 if path.startswith("/v1/") else 404,
            {"error": f"no route for {method} {path}"},
        )


class BackgroundServer:
    """A server running on its own thread/loop; for tests and bench.

    Use as a context manager, or call :meth:`stop` explicitly::

        with serve_in_thread(ServerConfig(store_dir=...)) as bg:
            client = ServiceClient(bg.url)
    """

    def __init__(self, server: SimulationServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            await self.server.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        return self

    @property
    def url(self) -> str:
        return f"http://{self.server.config.host}:{self.server.port}"

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    config: ServerConfig, registry: Optional[StatRegistry] = None
) -> BackgroundServer:
    """Start a server on a background thread; returns once it is bound."""
    return BackgroundServer(SimulationServer(config, registry=registry)).start()
