"""Trace transport to workers: parity, reuse, and recovery.

A pool cell reaches its trace through one path: the parent ensures the
benchmark's trace-cache entry (one checksummed ``.npy``), and the
worker memory-maps it (:mod:`repro.workloads.transport`).  A worker
that maps the entry must produce the exact payload bytes of one that
generates the trace itself, the parent must write each entry exactly
once (including across worker SIGKILLs), a worker process must decode
each trace at most once no matter how many cells it executes, and a
corrupted or deleted entry must make the worker regenerate the trace
— all proven here through the ``transport.*`` runtime counters.
"""

import json
import os

import pytest

from repro.resilience import chaos
from repro.resilience.supervisor import SupervisorConfig, run_cells_supervised
from repro.sim.config import nurapid_config, snuca_config
from repro.sim.parallel import CellTask, execute_cell, run_cells
from repro.telemetry import reset_runtime_registry, runtime_counters
from repro.workloads import transport
from repro.workloads.tracegen import TraceCache

REFS = 3_000


@pytest.fixture(autouse=True)
def _fresh_transport_state():
    reset_runtime_registry()
    transport.reset_for_tests()
    yield
    reset_runtime_registry()
    transport.reset_for_tests()


@pytest.fixture
def cache(tmp_path):
    return TraceCache(str(tmp_path / "traces"))


@pytest.fixture
def trace_paths(cache):
    return {
        benchmark: cache.ensure(benchmark, REFS, seed=7)
        for benchmark in ("twolf", "wupwise")
    }


def make_tasks(trace_paths):
    cells = [
        (config, benchmark)
        for config in (nurapid_config(), snuca_config())
        for benchmark in ("twolf", "wupwise")
    ]
    return [
        CellTask(
            index=i,
            config=config,
            benchmark=benchmark,
            n_references=REFS,
            seed=7,
            warmup_fraction=0.3,
            trace_path=None if trace_paths is None else trace_paths[benchmark],
        )
        for i, (config, benchmark) in enumerate(cells)
    ]


def payload_bytes(payloads):
    return json.dumps(payloads, sort_keys=True)


class TestSegmentLifecycle:
    def test_build_once_then_reuse(self, cache, trace_paths):
        path = trace_paths["twolf"]
        assert path.endswith("twolf-r3000-s7-c1.npy")
        assert os.path.exists(path) and os.path.exists(path + ".sha256")
        assert runtime_counters()["transport.segment_builds"] == 2
        # Same cache: found and verified, not rewritten.
        assert cache.ensure("twolf", REFS, seed=7) == path
        assert runtime_counters()["transport.segment_builds"] == 2
        # Fresh process (simulated): the entry is found on disk.
        transport.reset_for_tests()
        other = TraceCache(cache.directory)
        assert other.ensure("twolf", REFS, seed=7) == path
        assert (other.hits, other.misses) == (1, 0)
        assert runtime_counters()["transport.segment_builds"] == 2

    def test_missing_trace_yields_none(self, tmp_path):
        absent = str(tmp_path / "absent.npy")
        assert transport.load_mmap_trace(absent, "twolf", REFS) is None
        assert runtime_counters()["transport.mmap_unusable"] == 1

    def test_corrupt_segment_falls_back(self, trace_paths):
        path = trace_paths["twolf"]
        with open(path, "r+b") as handle:
            handle.seek(200)
            handle.write(b"\xff\xff\xff\xff")
        assert transport.load_mmap_trace(path, "twolf", REFS) is None
        assert runtime_counters()["transport.mmap_unusable"] == 1

    def test_wrong_shape_falls_back(self, trace_paths):
        path = trace_paths["twolf"]
        assert transport.load_mmap_trace(path, "twolf", REFS + 1) is None
        assert runtime_counters()["transport.mmap_unusable"] == 1


class TestWorkerReuse:
    def test_one_decode_per_process(self, trace_paths):
        path = trace_paths["twolf"]
        first = transport.load_mmap_trace(path, "twolf", REFS)
        second = transport.load_mmap_trace(path, "twolf", REFS)
        assert first is second
        assert not first.gaps.flags.writeable
        counters = runtime_counters()
        assert counters["transport.trace_loads"] == 1
        assert counters["transport.trace_reuses"] == 1

    def test_cells_share_one_decode(self, trace_paths):
        # Four cells over two traces through the worker entrypoint:
        # exactly one load per trace, every later cell a pure reuse —
        # the "zero per-cell re-decodes" property.
        tasks = make_tasks(trace_paths)
        payloads = [execute_cell(task) for task in tasks]
        assert all(p["outcome"]["status"] == "ok" for p in payloads)
        counters = runtime_counters()
        assert counters["transport.trace_loads"] == 2
        assert counters["transport.trace_reuses"] == 2
        assert "transport.mmap_unusable" not in counters


class TestResultParity:
    def test_mapped_entry_matches_worker_generated(self, trace_paths):
        mapped = [execute_cell(t) for t in make_tasks(trace_paths)]
        generated = [execute_cell(t) for t in make_tasks(None)]
        assert runtime_counters()["transport.trace_loads"] == 2
        assert payload_bytes(mapped) == payload_bytes(generated)

    def test_jobs2_identical_to_serial(self, trace_paths):
        tasks = make_tasks(trace_paths)
        serial = run_cells(tasks, jobs=1)
        parallel = run_cells(tasks, jobs=2)
        assert parallel == serial


class TestWorkerFallback:
    """A worker whose entry is unusable regenerates the trace."""

    def clean_and_task(self, trace_paths):
        task = make_tasks(trace_paths)[0]
        clean = payload_bytes(execute_cell(task))
        reset_runtime_registry()
        transport.reset_for_tests()
        return clean, task

    def test_corrupted_entry_regenerates(self, trace_paths):
        clean, task = self.clean_and_task(trace_paths)
        with open(task.trace_path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"PK\x03\x04 not a trace entry")
        assert payload_bytes(execute_cell(task)) == clean
        assert runtime_counters()["transport.mmap_unusable"] == 1

    def test_deleted_entry_regenerates(self, cache, trace_paths):
        clean, task = self.clean_and_task(trace_paths)
        assert cache.prune(0) == 2  # e.g. a concurrent prune
        assert not os.path.exists(task.trace_path)
        assert payload_bytes(execute_cell(task)) == clean
        assert runtime_counters()["transport.mmap_unusable"] == 1


class TestKillRecovery:
    @pytest.fixture
    def chaos_dir(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "chaos")
        monkeypatch.setenv(chaos.CHAOS_ENV, directory)
        monkeypatch.setenv(chaos.HANG_ENV, "60")
        return directory

    def test_sigkill_restart_rebuilds_nothing(self, trace_paths, chaos_dir):
        # A killed worker is respawned and its cell retried; the retry
        # maps the same parent-written entry.  Results stay identical
        # and the parent never rewrites an entry.
        tasks = make_tasks(trace_paths)
        expected = run_cells(tasks, jobs=1)
        builds_after_setup = runtime_counters()["transport.segment_builds"]
        assert builds_after_setup == 2

        chaos.inject_kill(chaos_dir, index=1)
        recovered = run_cells_supervised(
            tasks,
            jobs=2,
            config=SupervisorConfig(backoff_base_s=0.01, backoff_cap_s=0.05),
        )
        assert recovered == expected
        counters = runtime_counters()
        assert counters["supervisor.crashes"] == 1
        assert counters["transport.segment_builds"] == builds_after_setup
