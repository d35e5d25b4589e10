"""Chaos suite for the supervised execution layer.

Every recovery scenario here asserts the same property the plain
parallel engine is held to: faults in the *harness* (killed workers,
hangs, torn store entries, corrupted cache entries) must never change
the *results*.  Recovered runs are compared on exact
``run_result_to_dict`` payloads — and, where telemetry is enabled, on
rendered report bytes — against uninterrupted runs.

Workloads are kept tiny (a few thousand references) so spawning real
worker processes and really SIGKILLing them stays within unit-test
time; chaos is injected through :mod:`repro.resilience.chaos` flag
files, which are deterministic (a flag fires an exact number of
times) and cross every multiprocessing start method.
"""

import warnings

import pytest

from repro.common.errors import (
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.resilience import chaos, locks
from repro.resilience.integrity import verify_sidecar
from repro.resilience.locks import FileLock, LockTimeout
from repro.resilience.supervisor import SupervisorConfig, run_cells_supervised
from repro.service.store import ResultStore
from repro.sim.config import nurapid_config, snuca_config
from repro.sim.parallel import CellTask, run_cells
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.telemetry import TelemetryConfig, reset_runtime_registry, runtime_counters
from repro.telemetry.registry import StatRegistry
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.tracegen import TraceCache

REFS = 3_000


@pytest.fixture(autouse=True)
def _fresh_runtime_registry():
    reset_runtime_registry()
    yield
    reset_runtime_registry()


def make_tasks(isolate_errors=True, telemetry=None):
    """Four small deterministic cells (2 configs x 2 benchmarks)."""
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
            isolate_errors=isolate_errors,
            telemetry=telemetry,
        )
        for i, (config, benchmark) in enumerate(cells)
    ]


@pytest.fixture
def chaos_dir(tmp_path, monkeypatch):
    directory = str(tmp_path / "chaos")
    monkeypatch.setenv(chaos.CHAOS_ENV, directory)
    # Real hangs sleep for an hour; tests cap them well past any
    # deadline used here but within the suite's patience.
    monkeypatch.setenv(chaos.HANG_ENV, "60")
    return directory


class TestSupervisedNoFaults:
    def test_bit_identical_to_plain_pool_and_serial(self):
        tasks = make_tasks()
        serial = run_cells(tasks, jobs=1)
        supervised = run_cells_supervised(tasks, jobs=2, config=SupervisorConfig())
        assert supervised == serial

    def test_callback_fires_per_cell(self):
        seen = []
        run_cells_supervised(
            make_tasks(), jobs=2, config=SupervisorConfig(), callback=seen.append
        )
        assert sorted(p["index"] for p in seen) == [0, 1, 2, 3]

    def test_jobs1_still_supervised(self):
        # jobs=1 keeps the worker subprocess (deadlines must stay
        # enforceable), and stays bit-identical to in-process serial.
        tasks = make_tasks()
        assert run_cells_supervised(tasks, 1, config=SupervisorConfig()) == run_cells(
            tasks, 1
        )

    def test_empty_task_list(self):
        assert run_cells_supervised([], jobs=2) == []

    def test_telemetry_report_bytes_identical(self):
        tasks = make_tasks(telemetry=TelemetryConfig())
        serial = run_cells(tasks, jobs=1)
        supervised = run_cells_supervised(tasks, jobs=2, config=SupervisorConfig())

        def report(payloads):
            return render_report(
                merge_payloads(
                    (f"cell{p['index']}", p["result"]["telemetry"])
                    for p in payloads
                )
            )

        assert report(supervised) == report(serial)
        assert supervised == serial


class TestWorkerKillRecovery:
    def test_killed_worker_cell_is_retried_bit_identically(self, chaos_dir):
        tasks = make_tasks()
        expected = run_cells(tasks, jobs=1)

        chaos.inject_kill(chaos_dir, index=1)
        recovered = run_cells_supervised(tasks, jobs=2, config=SupervisorConfig())

        assert recovered == expected
        counters = runtime_counters()
        assert counters["supervisor.crashes"] == 1
        assert counters["supervisor.retries"] == 1
        assert counters.get("supervisor.quarantined", 0) == 0

    def test_multiple_cells_killed_once_each(self, chaos_dir):
        # Crashes spread over several cells each respawn a worker and
        # retry the cell; none of them ends the pool.
        tasks = make_tasks()
        expected = run_cells(tasks, jobs=1)
        for index in (0, 1, 2):
            chaos.inject_kill(chaos_dir, index=index)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recovered = run_cells_supervised(tasks, jobs=2, config=SupervisorConfig())
        assert recovered == expected
        counters = runtime_counters()
        assert counters["supervisor.crashes"] == 3
        assert counters["supervisor.pool_rebuilds"] == 3


class TestHangRecovery:
    def test_hung_worker_is_deadline_killed_and_retried(self, chaos_dir):
        tasks = make_tasks()
        expected = run_cells(tasks, jobs=1)

        chaos.inject_hang(chaos_dir, index=2)
        recovered = run_cells_supervised(
            tasks, jobs=2, config=SupervisorConfig(cell_timeout_s=3.0)
        )

        assert recovered == expected
        counters = runtime_counters()
        assert counters["supervisor.timeouts"] == 1
        assert counters["supervisor.retries"] == 1


class TestQuarantine:
    def test_repeat_offender_isolated_becomes_failed_outcome(self, chaos_dir):
        tasks = make_tasks()
        chaos.inject_kill(chaos_dir, index=3, times=3)
        payloads = run_cells_supervised(tasks, jobs=2, config=SupervisorConfig())
        quarantined = payloads[3]
        assert quarantined["outcome"]["status"] == "failed"
        assert quarantined["outcome"]["error_type"] == "WorkerCrashError"
        assert quarantined["result"] is None
        # The healthy cells still completed normally.
        assert all(p["outcome"]["status"] == "ok" for p in payloads[:3])
        assert runtime_counters()["supervisor.quarantined"] == 1

    def test_repeat_offender_raises_when_not_isolated(self, chaos_dir):
        tasks = make_tasks(isolate_errors=False)
        chaos.inject_kill(chaos_dir, index=0, times=3)
        with pytest.raises(WorkerCrashError):
            run_cells_supervised(tasks, jobs=2, config=SupervisorConfig())

    def test_hang_quarantine_reports_timeout_error(self, chaos_dir):
        tasks = make_tasks()
        chaos.inject_hang(chaos_dir, index=1, times=3)
        payloads = run_cells_supervised(
            tasks, jobs=2, config=SupervisorConfig(cell_timeout_s=2.0)
        )
        assert payloads[1]["outcome"]["error_type"] == "WorkerTimeoutError"

    def test_supervision_errors_pickle_cleanly(self):
        # They cross process boundaries, so __reduce__ must round-trip.
        import pickle

        for error in (WorkerTimeoutError(3, 2.5, 2), WorkerCrashError(1, 4)):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert str(clone) == str(error)


def point_dicts(points):
    """Exact-comparable form of a sweep's results."""
    return [
        {
            "coords": {k: str(v) for k, v in p.coordinates.items()},
            "outcomes": {b: o.to_dict() for b, o in p.outcomes.items()},
            "runs": {b: run_result_to_dict(r) for b, r in p.runs.items()},
        }
        for p in points
    ]


class TestSupervisedSweep:
    def make_sweep(self, **kw):
        defaults = dict(
            axes=[SweepAxis("n_dgroups", (2, 4))],
            build=lambda n_dgroups: nurapid_config(n_dgroups=n_dgroups),
            benchmarks=["twolf"],
            n_references=REFS,
        )
        defaults.update(kw)
        return Sweep(**defaults)

    def test_supervised_sweep_bit_identical_to_serial(self, tmp_path):
        serial = self.make_sweep().run()
        supervised = self.make_sweep(
            supervisor=SupervisorConfig(),
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run()
        assert point_dicts(supervised) == point_dicts(serial)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_deadline_kills_a_hung_cell(self, tmp_path, chaos_dir, jobs):
        # cell_timeout_s is a sweep's one per-attempt deadline, at any
        # worker count.
        serial = self.make_sweep().run()
        chaos.inject_hang(chaos_dir, index=1)
        recovered = self.make_sweep(
            supervisor=SupervisorConfig(cell_timeout_s=3.0),
            jobs=jobs,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run()
        assert point_dicts(recovered) == point_dicts(serial)
        assert runtime_counters()["supervisor.timeouts"] == 1

    def test_supervised_sweep_recovers_from_worker_kill(
        self, tmp_path, chaos_dir, monkeypatch
    ):
        serial = self.make_sweep().run()
        chaos.inject_kill(chaos_dir, index=0)
        store = ResultStore(str(tmp_path / "store"))
        recovered = self.make_sweep(
            supervisor=SupervisorConfig(),
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
            result_store=store,
        ).run()
        assert point_dicts(recovered) == point_dicts(serial)
        assert runtime_counters()["supervisor.crashes"] == 1
        # The recovered run stored every cell: a later run resumes
        # from the store without re-running any.
        import repro.sim.parallel as parallel_mod

        def never_called(*args, **kwargs):  # pragma: no cover
            raise AssertionError("resume re-ran a stored cell")

        monkeypatch.setattr(parallel_mod, "run_benchmark", never_called)
        resumed = self.make_sweep(result_store=store).run()
        assert point_dicts(resumed) == point_dicts(serial)

    def test_keyboard_interrupt_keeps_finished_cells_serial(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(str(tmp_path / "store"))
        sweep = self.make_sweep(result_store=store)
        calls = {"n": 0}
        import repro.sim.parallel as parallel_mod

        original = parallel_mod.run_benchmark

        def interrupt_after_one(*args, **kwargs):
            if calls["n"] >= 1:
                raise KeyboardInterrupt
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_benchmark", interrupt_after_one)
        with pytest.raises(KeyboardInterrupt):
            sweep.run()
        assert store.entries() == 1

        monkeypatch.setattr(parallel_mod, "run_benchmark", original)
        calls_before = calls["n"]
        resumed = self.make_sweep(result_store=store).run()
        assert calls["n"] == calls_before
        assert point_dicts(resumed) == point_dicts(self.make_sweep().run())

    def test_keyboard_interrupt_keeps_finished_cells_parallel(
        self, tmp_path, monkeypatch
    ):
        import repro.sim.parallel as parallel_mod

        original = parallel_mod.run_cells

        def interrupt_after_two(tasks, jobs, callback=None, supervisor=None):
            done = []

            def counting(payload):
                callback(payload)
                done.append(payload)
                if len(done) == 2:
                    raise KeyboardInterrupt

            return original(tasks, jobs, callback=counting, supervisor=supervisor)

        store = ResultStore(str(tmp_path / "store"))
        sweep = self.make_sweep(
            axes=[SweepAxis("n_dgroups", (2, 4, 8))],
            result_store=store,
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        )
        monkeypatch.setattr(parallel_mod, "run_cells", interrupt_after_two)
        with pytest.raises(KeyboardInterrupt):
            sweep.run()
        # Both cells finished before the interrupt are stored.
        assert store.entries() == 2

        monkeypatch.setattr(parallel_mod, "run_cells", original)
        registry = StatRegistry()
        resumed = self.make_sweep(
            axes=[SweepAxis("n_dgroups", (2, 4, 8))],
            result_store=ResultStore(str(tmp_path / "store"), registry=registry),
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run()
        counters = registry.counters("result_store.")
        assert counters["result_store.hits"] == 2
        assert counters["result_store.writes"] == 1  # only the unfinished cell ran
        uninterrupted = self.make_sweep(axes=[SweepAxis("n_dgroups", (2, 4, 8))]).run()
        assert point_dicts(resumed) == point_dicts(uninterrupted)


def shared_store_sweep(values, store=None):
    """The sweep both processes of the shared-store test run."""
    return Sweep(
        axes=[SweepAxis("n_dgroups", tuple(values))],
        build=lambda n_dgroups: nurapid_config(n_dgroups=n_dgroups),
        benchmarks=["twolf", "wupwise"],
        n_references=REFS,
        result_store=store,
    )


class TestSharedStore:
    def test_two_processes_overlapping_grids_lose_nothing(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, tests, env.get("PYTHONPATH")))
        )
        store_dir = str(tmp_path / "store")
        code = (
            "import sys; "
            "from repro.service.store import ResultStore; "
            "from test_resilience import shared_store_sweep; "
            "values = [int(v) for v in sys.argv[2].split(',')]; "
            "points = shared_store_sweep(values, ResultStore(sys.argv[1])).run(); "
            "print(sum(len(p.runs) for p in points))"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, store_dir, grid],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for grid in ("2,4", "4,8")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert out.strip() == "4"
        # 3 configs x 2 benchmarks: one entry per cell, each verified.
        entries = sorted((tmp_path / "store").glob("*.json"))
        assert len(entries) == 6
        assert all(verify_sidecar(str(entry)) is True for entry in entries)
        assert not list((tmp_path / "store").glob("*.tmp"))
        # Every cell of the union restores from the store unchanged.
        registry = StatRegistry()
        union = shared_store_sweep(
            (2, 4, 8), ResultStore(store_dir, registry=registry)
        ).run()
        assert registry.counters("result_store.")["result_store.hits"] == 6
        assert "result_store.writes" not in registry.counters("result_store.")
        plain = shared_store_sweep((2, 4, 8)).run()
        assert point_dicts(union) == point_dicts(plain)


class TestFileLock:
    def test_mutual_exclusion(self, tmp_path, monkeypatch):
        monkeypatch.setattr(locks, "TIMEOUT_S", 0.2)
        path = str(tmp_path / "x.lock")
        with FileLock(path):
            with pytest.raises(LockTimeout):
                with FileLock(path):
                    pass


class TestTraceCacheIntegrity:
    def test_writes_leave_verified_sidecar(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        path = cache.ensure("twolf", 2_000, seed=3)
        assert verify_sidecar(path) is True

    def test_corrupt_entry_warns_and_counts(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        path = cache.ensure("twolf", 2_000, seed=3)
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff\xff\xff")
        with pytest.warns(RuntimeWarning, match="regenerating"):
            cache.get("twolf", 2_000, seed=3)
        assert runtime_counters()["trace_cache.corrupt_recovered"] == 1
        assert cache.misses == 2
        # The repaired entry carries a fresh, matching sidecar.
        assert verify_sidecar(path) is True

    def test_entry_without_sidecar_is_regenerated(self, tmp_path):
        import os

        cache = TraceCache(str(tmp_path))
        path = cache.ensure("twolf", 2_000, seed=3)
        os.remove(path + ".sha256")
        other = TraceCache(str(tmp_path))
        other.get("twolf", 2_000, seed=3)
        assert (other.hits, other.misses) == (0, 1)
        # A write cut short before its sidecar is not corruption.
        assert "trace_cache.corrupt_recovered" not in runtime_counters()
        assert verify_sidecar(path) is True
