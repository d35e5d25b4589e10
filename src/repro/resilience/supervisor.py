"""Supervised cell execution: bounded, recoverable, verifiable.

The one multi-process cell executor: a :class:`WorkerPool` of
long-lived workers, each behind a duplex pipe, that run the same
:class:`~repro.sim.parallel.CellTask` payloads as the serial loop of
:func:`~repro.sim.parallel.run_cells` and return the same result
dictionaries.  ``run_cells`` reaches it through
:func:`run_cells_supervised`; the job server holds one single-slot pool
per worker task.  Workers run the ``execute_cell`` named when the pool
opens: forked ones inherit the function, spawned ones receive it by
reference as their target argument.  The supervisor makes every cell:

* **bounded** — each attempt gets the wall-clock deadline
  :attr:`SupervisorConfig.cell_timeout_s`; a worker past its deadline
  is SIGKILLed and the slot respawned.  In-process code cannot be
  preempted, so this is the only place a cell has a deadline.
* **recoverable** — a killed or crashed worker's slot is respawned
  and its cell resubmitted unchanged, at once (``execute_cell`` is
  deterministic, so the recovered run is bit-identical to an
  uninterrupted one).
* **verifiable** — every supervisor action increments a counter in
  :mod:`repro.telemetry.runtime`, kept *outside* run payloads so
  recovered results stay byte-identical to uninterrupted ones.

A cell whose worker is killed (deadline or crash) more than
:data:`MAX_WORKER_KILLS` times is **quarantined**, so a crash loop is
bounded per cell.  A quarantined cell is recorded as a failed outcome
(``error_type`` ``WorkerTimeoutError`` / ``WorkerCrashError``) if it is
isolated (sweep-style) and raised in the parent if not (suite-style).
Exceptions *returned* by a worker follow the in-process semantics of
:func:`~repro.sim.parallel.execute_cell`: an isolated
:class:`~repro.common.errors.ReproError` becomes a failed payload
inside the worker; anything else re-raises in the parent.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from multiprocessing import connection as mp_connection

from repro.common.errors import (
    ConfigurationError,
    SimulationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.resilience import chaos
from repro.sim.parallel import CellTask
from repro.telemetry.registry import StatRegistry
from repro.telemetry.runtime import runtime_registry


#: Kills (deadline or crash) a cell's worker may take before the cell
#: is quarantined.
MAX_WORKER_KILLS = 2


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy for :func:`run_cells_supervised`.

    ``cell_timeout_s`` is the wall-clock deadline per dispatched
    attempt; ``None`` runs attempts unbounded.  ``mp_context`` names the
    start method of the worker processes (default: the platform's).
    """

    cell_timeout_s: Optional[float] = None
    mp_context: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigurationError("cell_timeout_s must be positive")


def _worker_main(conn, execute: Callable[[CellTask], Dict[str, object]]) -> None:
    """Long-lived worker loop: recv task, ``execute`` it, send result.

    Protocol messages back to the parent: ``("ok", payload)`` for a
    completed cell (including isolated-failure payloads), ``("raise",
    exc)`` for exceptions that must propagate in the parent.  The
    worker exits when the parent closes the pipe (or kills it).
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        try:
            chaos.probe(task.index)
            message = ("ok", execute(task))
        except KeyboardInterrupt:
            return
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            message = ("raise", exc)
        try:
            conn.send(message)
        except OSError:  # the parent is gone (e.g. a kill -9'd server)
            return
        except Exception:
            if message[0] == "raise":
                conn.send(
                    ("raise", SimulationError(f"worker error: {message[1]!r}"))
                )
            else:
                raise


class _Slot:
    """One worker process and its duplex pipe."""

    __slots__ = ("proc", "conn", "position", "deadline")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.position: Optional[int] = None  # index into the task list
        self.deadline: Optional[float] = None

    def kill(self) -> None:
        try:
            if self.proc.is_alive():
                self.proc.kill()
            self.proc.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Up to ``jobs`` supervised worker slots that live across calls.

    Slots spawn on first use and stay up between :meth:`run` calls, so
    a long-lived owner (the job server) pays process start-up once;
    :meth:`close` shuts them down.  ``execute`` is the function workers
    run (default: ``repro.sim.parallel.execute_cell`` as named when the
    pool opens).  One :meth:`run` at a time per pool.
    """

    def __init__(
        self,
        jobs: int,
        config: Optional[SupervisorConfig] = None,
        registry: Optional[StatRegistry] = None,
        execute: Optional[Callable[[CellTask], Dict[str, object]]] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if execute is None:
            from repro.sim import parallel

            execute = parallel.execute_cell
        self.jobs = jobs
        self.config = config or SupervisorConfig()
        self.registry = registry if registry is not None else runtime_registry()
        self.execute = execute
        self._ctx = multiprocessing.get_context(self.config.mp_context)
        self._slots: List[_Slot] = []
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker; a :meth:`run` in progress then raises."""
        self._closed = True
        slots, self._slots = self._slots, []
        for slot in slots:
            slot.kill()

    def _spawn(self) -> _Slot:
        if self._closed:
            raise SimulationError("worker pool is closed")
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, self.execute), daemon=True
        )
        proc.start()
        child_conn.close()
        return _Slot(proc, parent_conn)

    def run(
        self,
        tasks: Sequence[CellTask],
        callback: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> List[Dict[str, object]]:
        """Execute ``tasks`` on the pool; payloads in submission order.

        ``callback`` fires in the caller as each cell completes (in
        completion order).  Supervision follows the module docstring.
        """
        config = self.config
        registry = self.registry
        tasks = list(tasks)
        if not tasks:
            return []

        payloads: List[Optional[Dict[str, object]]] = [None] * len(tasks)
        ready: deque = deque(range(len(tasks)))
        kills: Dict[int, int] = {}
        outstanding = len(tasks)
        slots = self._slots

        def record(position: int, payload: Dict[str, object]) -> None:
            nonlocal outstanding
            payloads[position] = payload
            outstanding -= 1
            if callback is not None:
                callback(payload)

        def respawn(slot: _Slot) -> None:
            slots[slots.index(slot)] = self._spawn()
            registry.add("supervisor.pool_rebuilds")

        def strike(slot: _Slot, cause: str) -> None:
            """Handle one dead-or-killed worker: retry or quarantine."""
            position = slot.position
            slot.position = None
            slot.deadline = None
            slot.kill()
            registry.add(f"supervisor.{'timeouts' if cause == 'timeout' else 'crashes'}")
            if position is not None:
                task = tasks[position]
                count = kills.get(position, 0) + 1
                kills[position] = count
                if count > MAX_WORKER_KILLS:
                    registry.add("supervisor.quarantined")
                    if cause == "timeout":
                        error: Exception = WorkerTimeoutError(
                            task.index, config.cell_timeout_s or 0.0, count
                        )
                    else:
                        error = WorkerCrashError(task.index, count)
                    if not task.isolate_errors:
                        raise error
                    record(
                        position,
                        {
                            "index": task.index,
                            "outcome": {
                                "status": "failed",
                                "attempts": count,
                                "error": str(error),
                                "error_type": type(error).__name__,
                            },
                            "result": None,
                        },
                    )
                else:
                    registry.add("supervisor.retries")
                    ready.append(position)

        try:
            while len(slots) < min(self.jobs, len(tasks)):
                slots.append(self._spawn())
            while outstanding:
                if self._closed:
                    raise SimulationError("worker pool closed mid-run")

                # Dispatch ready cells onto idle workers.
                for slot in list(slots):
                    if slot.position is None and ready:
                        position = ready.popleft()
                        try:
                            slot.conn.send(tasks[position])
                        except (OSError, ValueError):
                            # Worker died while idle; respawn and retry
                            # the dispatch next iteration.
                            ready.appendleft(position)
                            strike(slot, "crash")
                            respawn(slot)
                            continue
                        slot.position = position
                        timeout = config.cell_timeout_s
                        slot.deadline = (
                            None if timeout is None else time.monotonic() + timeout
                        )

                busy = [slot for slot in slots if slot.position is not None]
                if not busy:
                    continue

                horizons = [s.deadline for s in busy if s.deadline is not None]
                wait_timeout = (
                    None
                    if not horizons
                    else max(0.0, min(horizons) - time.monotonic()) + 0.005
                )
                ready_conns = mp_connection.wait(
                    [slot.conn for slot in busy], timeout=wait_timeout
                )
                for conn in ready_conns:
                    slot = next(s for s in slots if s.conn is conn)
                    try:
                        kind, value = conn.recv()
                    except (EOFError, OSError):
                        strike(slot, "crash")
                        respawn(slot)
                        continue
                    if kind == "ok":
                        position = slot.position
                        slot.position = None
                        slot.deadline = None
                        kills.pop(position, None)
                        record(position, value)  # type: ignore[arg-type]
                    else:
                        raise value
                now = time.monotonic()
                for slot in list(slots):
                    if (
                        slot.position is not None
                        and slot.deadline is not None
                        and now >= slot.deadline
                    ):
                        strike(slot, "timeout")
                        respawn(slot)
        finally:
            # Only idle, live workers carry over to the next run: a slot
            # still holding a cell was interrupted mid-attempt.
            for slot in list(slots):
                if self._closed or slot.position is not None or not slot.proc.is_alive():
                    slot.kill()
                    slots.remove(slot)
        return payloads  # type: ignore[return-value]


def run_cells_supervised(
    tasks: Sequence[CellTask],
    jobs: int,
    config: Optional[SupervisorConfig] = None,
    callback: Optional[Callable[[Dict[str, object]], None]] = None,
    registry: Optional[StatRegistry] = None,
) -> List[Dict[str, object]]:
    """Run ``tasks`` on a :class:`WorkerPool` opened for this call.

    The pooled path of :func:`~repro.sim.parallel.run_cells`: payloads
    in submission order, ``callback`` fired in completion order, plus
    the supervision semantics described in the module docstring.
    ``jobs=1`` still runs the cells in a (single) worker process so
    deadlines stay enforceable.
    """
    with WorkerPool(jobs, config, registry) as pool:
        return pool.run(tasks, callback)
