"""Spans recorded around the program's public entry points.

The traced run patches module attributes that callers look up at call
time (``repro.sim.driver.make_system`` and friends) and the instance
methods ``access``/``fill`` of every lower level a wrapped
``make_system`` builds.  Nothing inside the program changes: telemetry
stays disarmed, and the L2-vector tier's eligibility test looks at the
cache's type, which an instance attribute does not change.

Spans live in memory; :meth:`Tracer.summary` folds them into per-name
totals and self times (a span's duration minus the time its direct
children cover).

Pool workers are other processes, so their spans are not collected.
Their runtime-counter deltas are: :func:`count_workers` makes the pool
run :func:`counted_execute_cell`, which appends each cell's deltas to a
file that :func:`worker_counters` sums in the parent.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: (module, attribute, span name) wrapped in every traced process.
ENTRY_POINTS = (
    ("repro.sim.driver", "make_system", "make_system"),
    ("repro.sim.driver", "generate_trace", "generate_trace"),
    ("repro.experiments.common", "generate_trace", "generate_trace"),
    ("repro.workloads.tracegen", "generate_trace", "generate_trace"),
    ("repro.sim.vectorized", "replay", "vectorized.replay"),
    ("repro.sim.parallel", "run_cells", "run_cells"),
    ("repro.service.server", "ensure_decoded", "trace_io"),
)
#: Class methods wrapped the same way (looked up on the instance).
CLASS_METHODS = (
    ("repro.workloads.tracegen", "TraceCache", "ensure", "trace_io"),
)


#: Directory counted workers write to; inherited by forked and spawned workers.
WORKER_COUNTERS_ENV = "PERFBENCH_WORKER_COUNTERS"
#: The program's own ``execute_cell`` (set in the parent; forked workers
#: inherit it, spawned workers import the unpatched module).
_execute_cell = None


def counted_execute_cell(task):
    """``repro.sim.parallel.execute_cell`` plus a record of the worker's
    runtime-counter deltas for the cell."""
    from repro.sim import parallel
    from repro.telemetry.runtime import runtime_counters

    execute = _execute_cell or parallel.execute_cell
    before = runtime_counters()
    try:
        return execute(task)
    finally:
        after = runtime_counters()
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        path = os.path.join(os.environ[WORKER_COUNTERS_ENV], f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(delta) + "\n")


def count_workers(module_name: str, directory: str) -> None:
    """Make ``module_name``'s pool run :func:`counted_execute_cell`."""
    global _execute_cell
    from repro.sim import parallel

    _execute_cell = parallel.execute_cell
    os.makedirs(directory, exist_ok=True)
    os.environ[WORKER_COUNTERS_ENV] = directory
    setattr(importlib.import_module(module_name), "execute_cell", counted_execute_cell)


def worker_counters(directory: str) -> Dict[str, float]:
    """Sum and remove the deltas counted workers wrote to ``directory``."""
    total: Dict[str, float] = defaultdict(float)
    for path in glob.glob(os.path.join(directory, "*.jsonl")):
        with open(path) as handle:
            for line in handle:
                for key, value in json.loads(line).items():
                    total[key] += value
        os.remove(path)
    return dict(total)


def lower_layer(level) -> str:
    """Span prefix for a lower level: ``nurapid``, ``nuca`` or ``lower``."""
    module = type(level).__module__
    if module.startswith("repro.nurapid"):
        return "nurapid"
    if module.startswith("repro.nuca"):
        return "nuca"
    return "lower"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in start order.
        self.spans: List[List[object]] = []
        self.systems: List[object] = []
        self.cells = 0
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
        self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch the entry points; :meth:`uninstall` puts them back."""
        for module_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if attr == "make_system":
                wrapped = self._wrap_make_system(original)
            elif attr == "run_cells":
                wrapped = self._wrap_run_cells(original)
            else:
                wrapped = self.wrap(name, original)
            self._restore.append((module, attr, original))
            setattr(module, attr, wrapped)
        for module_name, cls_name, attr, name in CLASS_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_make_system(self, original: Callable) -> Callable:
        inner = self.wrap("make_system", original)

        def make_system(*args, **kwargs):
            system = inner(*args, **kwargs)
            for level in system.lower:
                prefix = lower_layer(level)
                level.access = self.wrap(f"{prefix}.access", level.access)
                level.fill = self.wrap(f"{prefix}.fill", level.fill)
            self.systems.append(system)
            return system

        return make_system

    def _wrap_run_cells(self, original: Callable) -> Callable:
        inner = self.wrap("run_cells", original)

        def run_cells(tasks, *args, **kwargs):
            tasks = list(tasks)
            self.cells += len(tasks)
            return inner(tasks, *args, **kwargs)

        return run_cells

    def memory_accesses(self) -> int:
        """Main-memory reads + writes of every system built so far."""
        return sum(s.memory.reads + s.memory.writes for s in self.systems)

    def summary(self) -> Dict[str, float]:
        """Per-name totals: ``<name>.calls``, ``<name>.s``, ``<name>.self_s``,
        plus ``replay.warmup_s`` / ``replay.measure_s`` (first and second
        replay under one parent) and ``replay.lower_self_s`` (self time of
        lower-level spans nested in a replay)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        replay_order: Dict[int, int] = defaultdict(int)
        in_replay = set()
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += duration
            out[f"{name}.self_s"] += duration - child_time[index]
            if name == "vectorized.replay":
                in_replay.add(index)
                phase = "warmup" if replay_order[parent] == 0 else "measure"
                replay_order[parent] += 1
                out[f"replay.{phase}_s"] += duration
            elif parent in in_replay:
                in_replay.add(index)
                out["replay.lower_self_s"] += duration - child_time[index]
        return dict(out)
