"""Chaos suite for the supervised execution layer.

Every recovery scenario here asserts the same property the plain
parallel engine is held to: faults in the *harness* (killed workers,
hangs, torn checkpoints, corrupted cache entries) must never change
the *results*.  Recovered runs are compared on exact
``run_result_to_dict`` payloads — and, where telemetry is enabled, on
rendered report bytes — against uninterrupted runs.

Workloads are kept tiny (a few thousand references) so spawning real
worker processes and really SIGKILLing them stays within unit-test
time; chaos is injected through :mod:`repro.resilience.chaos` flag
files, which are deterministic (a flag fires an exact number of
times) and cross every multiprocessing start method.
"""

import json

import pytest

from repro.common.errors import (
    ConfigurationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.resilience import chaos
from repro.resilience.checkpoint import (
    CHECKPOINT_FILE_FORMAT,
    read_checkpoint,
    write_checkpoint,
)
from repro.resilience.integrity import (
    seal_record,
    strip_record,
    verify_record,
    verify_sidecar,
    write_sidecar,
)
from repro.resilience.locks import FileLock, LockTimeout
from repro.resilience.supervisor import (
    SupervisorConfig,
    backoff_s,
    run_cells_supervised,
)
from repro.sim.config import nurapid_config, snuca_config
from repro.sim.parallel import CellTask, run_cells
from repro.sim.sweep import Sweep, SweepAxis
from repro.telemetry import TelemetryConfig, reset_runtime_registry, runtime_counters
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.tracegen import TraceCache

REFS = 3_000


@pytest.fixture(autouse=True)
def _fresh_runtime_registry():
    reset_runtime_registry()
    yield
    reset_runtime_registry()


def make_tasks(isolate_errors=True, telemetry=None, budget_s=None):
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
            budget_s=budget_s,
        )
        for i, (config, benchmark) in enumerate(cells)
    ]


def fast_chaos(**kw):
    """A SupervisorConfig tuned for test turnaround, not production."""
    defaults = dict(backoff_base_s=0.01, backoff_cap_s=0.05)
    defaults.update(kw)
    return SupervisorConfig(**defaults)


@pytest.fixture
def chaos_dir(tmp_path, monkeypatch):
    directory = str(tmp_path / "chaos")
    monkeypatch.setenv(chaos.CHAOS_ENV, directory)
    # Real hangs sleep for an hour; tests cap them well past any
    # deadline used here but within the suite's patience.
    monkeypatch.setenv(chaos.HANG_ENV, "60")
    return directory


class TestBackoffDeterminism:
    def test_same_inputs_same_delay(self):
        config = SupervisorConfig()
        task = make_tasks()[0]
        assert backoff_s(config, task, 1) == backoff_s(config, task, 1)

    def test_exponential_growth_and_cap(self):
        config = SupervisorConfig(
            backoff_base_s=0.1, backoff_cap_s=0.4, backoff_jitter=0.0
        )
        task = make_tasks()[0]
        assert backoff_s(config, task, 1) == pytest.approx(0.1)
        assert backoff_s(config, task, 2) == pytest.approx(0.2)
        assert backoff_s(config, task, 3) == pytest.approx(0.4)
        assert backoff_s(config, task, 9) == pytest.approx(0.4)  # capped

    def test_jitter_varies_by_cell_but_stays_bounded(self):
        config = SupervisorConfig(backoff_base_s=0.1, backoff_jitter=0.5)
        tasks = make_tasks()
        delays = {backoff_s(config, task, 1) for task in tasks}
        assert len(delays) > 1  # different cells desynchronize
        assert all(0.1 <= d <= 0.15 + 1e-9 for d in delays)


class TestSupervisedNoFaults:
    def test_bit_identical_to_plain_pool_and_serial(self):
        tasks = make_tasks()
        serial = run_cells(tasks, jobs=1)
        supervised = run_cells_supervised(tasks, jobs=2, config=fast_chaos())
        assert supervised == serial

    def test_callback_fires_per_cell(self):
        seen = []
        run_cells_supervised(
            make_tasks(), jobs=2, config=fast_chaos(), callback=seen.append
        )
        assert sorted(p["index"] for p in seen) == [0, 1, 2, 3]

    def test_jobs1_still_supervised(self):
        # jobs=1 keeps the worker subprocess (deadlines must stay
        # enforceable), and stays bit-identical to in-process serial.
        tasks = make_tasks()
        assert run_cells_supervised(tasks, 1, config=fast_chaos()) == run_cells(
            tasks, 1
        )

    def test_empty_task_list(self):
        assert run_cells_supervised([], jobs=2) == []

    def test_telemetry_report_bytes_identical(self):
        tasks = make_tasks(telemetry=TelemetryConfig())
        serial = run_cells(tasks, jobs=1)
        supervised = run_cells_supervised(tasks, jobs=2, config=fast_chaos())

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
        recovered = run_cells_supervised(tasks, jobs=2, config=fast_chaos())

        assert recovered == expected
        counters = runtime_counters()
        assert counters["supervisor.crashes"] == 1
        assert counters["supervisor.retries"] == 1
        assert counters.get("supervisor.quarantined", 0) == 0

    def test_multiple_cells_killed_once_each(self, chaos_dir):
        tasks = make_tasks()
        expected = run_cells(tasks, jobs=1)
        chaos.inject_kill(chaos_dir, index=0)
        chaos.inject_kill(chaos_dir, index=2)
        recovered = run_cells_supervised(
            tasks, jobs=2, config=fast_chaos(max_pool_breaks=10)
        )
        assert recovered == expected
        assert runtime_counters()["supervisor.crashes"] == 2


class TestHangRecovery:
    def test_hung_worker_is_deadline_killed_and_retried(self, chaos_dir):
        tasks = make_tasks()
        expected = run_cells(tasks, jobs=1)

        chaos.inject_hang(chaos_dir, index=2)
        recovered = run_cells_supervised(
            tasks, jobs=2, config=fast_chaos(cell_timeout_s=3.0)
        )

        assert recovered == expected
        counters = runtime_counters()
        assert counters["supervisor.timeouts"] == 1
        assert counters["supervisor.retries"] == 1

    def test_budget_s_is_the_default_deadline(self, chaos_dir):
        # Without cell_timeout_s, the task's own budget_s becomes a
        # true wall-clock deadline under supervision (the serial path
        # can only honor it between attempts).
        tasks = make_tasks(budget_s=3.0)
        expected = run_cells(tasks, jobs=1)
        chaos.inject_hang(chaos_dir, index=0)
        recovered = run_cells_supervised(tasks, jobs=2, config=fast_chaos())
        assert recovered == expected
        assert runtime_counters()["supervisor.timeouts"] == 1


class TestQuarantine:
    def test_repeat_offender_isolated_becomes_failed_outcome(self, chaos_dir):
        tasks = make_tasks()
        chaos.inject_kill(chaos_dir, index=3, times=2)
        payloads = run_cells_supervised(
            tasks,
            jobs=2,
            config=fast_chaos(max_worker_kills=1, max_pool_breaks=10),
        )
        quarantined = payloads[3]
        assert quarantined["outcome"]["status"] == "failed"
        assert quarantined["outcome"]["error_type"] == "WorkerCrashError"
        assert quarantined["result"] is None
        # The healthy cells still completed normally.
        assert all(p["outcome"]["status"] == "ok" for p in payloads[:3])
        assert runtime_counters()["supervisor.quarantined"] == 1

    def test_repeat_offender_raises_when_not_isolated(self, chaos_dir):
        tasks = make_tasks(isolate_errors=False)
        chaos.inject_kill(chaos_dir, index=0, times=2)
        with pytest.raises(WorkerCrashError):
            run_cells_supervised(
                tasks,
                jobs=2,
                config=fast_chaos(max_worker_kills=1, max_pool_breaks=10),
            )

    def test_hang_quarantine_reports_timeout_error(self, chaos_dir):
        tasks = make_tasks()
        chaos.inject_hang(chaos_dir, index=1, times=2)
        payloads = run_cells_supervised(
            tasks,
            jobs=2,
            config=fast_chaos(
                cell_timeout_s=2.0, max_worker_kills=1, max_pool_breaks=10
            ),
        )
        assert payloads[1]["outcome"]["error_type"] == "WorkerTimeoutError"

    def test_supervision_errors_pickle_cleanly(self):
        # They cross process boundaries, so __reduce__ must round-trip.
        import pickle

        for error in (WorkerTimeoutError(3, 2.5, 2), WorkerCrashError(1, 4)):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert str(clone) == str(error)


class TestPoolDegradation:
    def test_repeated_breaks_degrade_to_serial_with_identical_results(
        self, chaos_dir
    ):
        tasks = make_tasks()
        expected = run_cells(tasks, jobs=1)
        # Two crashes hit max_pool_breaks before any quarantine
        # threshold; the drain runs in-process, where chaos probes
        # never fire.
        chaos.inject_kill(chaos_dir, index=0, times=2)
        with pytest.warns(RuntimeWarning, match="degrading"):
            recovered = run_cells_supervised(
                tasks,
                jobs=2,
                config=fast_chaos(max_pool_breaks=2, max_worker_kills=10),
            )
        assert recovered == expected
        counters = runtime_counters()
        assert counters["supervisor.degraded"] == 1
        assert counters["supervisor.crashes"] == 2


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

    def point_dicts(self, points):
        from repro.sim.results import run_result_to_dict

        return [
            {
                "coords": {k: str(v) for k, v in p.coordinates.items()},
                "outcomes": {b: o.to_dict() for b, o in p.outcomes.items()},
                "runs": {b: run_result_to_dict(r) for b, r in p.runs.items()},
            }
            for p in points
        ]

    def test_supervised_sweep_bit_identical_to_serial(self, tmp_path):
        serial = self.make_sweep().run(resume=False)
        supervised = self.make_sweep(
            supervisor=fast_chaos(),
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run(resume=False)
        assert self.point_dicts(supervised) == self.point_dicts(serial)

    def test_supervised_sweep_recovers_from_worker_kill(
        self, tmp_path, chaos_dir
    ):
        serial = self.make_sweep().run(resume=False)
        chaos.inject_kill(chaos_dir, index=0)
        recovered = self.make_sweep(
            supervisor=fast_chaos(),
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
            checkpoint_path=str(tmp_path / "ckpt.json"),
        ).run(resume=False)
        assert self.point_dicts(recovered) == self.point_dicts(serial)
        assert runtime_counters()["supervisor.crashes"] == 1
        # The checkpoint the recovered run left behind is a clean v2
        # file that a later run resumes from without re-running.
        payload = json.load(open(tmp_path / "ckpt.json"))
        assert payload["format"] == CHECKPOINT_FILE_FORMAT

    def test_keyboard_interrupt_flushes_checkpoint_serial(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "ckpt.json")
        sweep = self.make_sweep(checkpoint_path=path, checkpoint_every=100)
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
            sweep.run(resume=False)
        # checkpoint_every=100 means no interval flush happened; the
        # finally-guard is the only reason this file has the cell.
        cells = json.load(open(path))["cells"]
        assert sum(len(benches) for benches in cells.values()) == 1

    def test_keyboard_interrupt_flushes_checkpoint_parallel(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        sweep = self.make_sweep(
            checkpoint_path=path,
            checkpoint_every=100,
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        )
        recorded = {"n": 0}
        original_record = sweep._record_cell

        def interrupt_after_one(*args, **kwargs):
            original_record(*args, **kwargs)
            recorded["n"] += 1
            # Interrupt while the first cell is dirty but unflushed
            # (checkpoint_every=100): only the finally-guard saves it.
            if recorded["n"] == 2:
                raise KeyboardInterrupt

        sweep._record_cell = interrupt_after_one
        with pytest.raises(KeyboardInterrupt):
            sweep.run(resume=False)
        cells = json.load(open(path))["cells"]
        assert sum(len(benches) for benches in cells.values()) >= 1


class TestCheckpointIntegrity:
    SIGNATURE = "ab" * 32
    OTHER_SIGNATURE = "cd" * 32

    def cells(self, n=3):
        return {
            f"point{i}": {
                "twolf": {
                    "outcome": {
                        "status": "ok",
                        "attempts": 1,
                        "error": None,
                        "error_type": None,
                    },
                    "result": {"value": i},
                }
            }
            for i in range(n)
        }

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        cells = self.cells()
        write_checkpoint(path, self.SIGNATURE, cells)
        assert read_checkpoint(path, self.SIGNATURE) == cells
        payload = json.load(open(path))
        assert payload["format"] == CHECKPOINT_FILE_FORMAT
        assert "checksum" in payload
        assert all(
            "crc" in record
            for benches in payload["cells"].values()
            for record in benches.values()
        )

    def test_missing_file_is_empty(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "nope.json"), self.SIGNATURE) == {}

    def test_v1_layout_cells_rejected_for_rerun(self, tmp_path):
        # The retired v1 layout ({"signature", "cells"}, no checksum or
        # record seals) fails the checksum, so none of its cells is
        # trusted: the read warns and the sweep re-runs them.
        path = str(tmp_path / "ckpt.json")
        cells = self.cells()
        with open(path, "w") as handle:
            json.dump({"signature": self.SIGNATURE, "cells": cells}, handle)
        with pytest.warns(RuntimeWarning, match="salvaged 0"):
            salvaged = read_checkpoint(path, self.SIGNATURE)
        assert salvaged == {key: {} for key in cells}
        counters = runtime_counters()
        assert counters["checkpoint.checksum_mismatch"] == 1
        assert counters["checkpoint.record_rejected"] == len(cells)
        assert "checkpoint.v1_migrated" not in counters

    def test_foreign_signature_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        write_checkpoint(path, self.OTHER_SIGNATURE, self.cells())
        with pytest.raises(ConfigurationError, match="signature"):
            read_checkpoint(path, self.SIGNATURE)

    def test_garbage_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as handle:
            handle.write("not json{")
        with pytest.raises(ConfigurationError, match="unreadable"):
            read_checkpoint(path, self.SIGNATURE)

    def test_truncated_file_salvages_prefix(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        cells = self.cells(n=5)
        write_checkpoint(path, self.SIGNATURE, cells)
        text = open(path).read()
        with open(path, "w") as handle:
            handle.write(text[: int(len(text) * 0.7)])
        with pytest.warns(RuntimeWarning, match="salvaged"):
            salvaged = read_checkpoint(path, self.SIGNATURE)
        # Whatever survived is verbatim original data, and the tail of
        # a 70%-truncated file must have lost at least one record.
        recovered = sum(len(b) for b in salvaged.values())
        assert 0 < recovered < 5
        for point_key, benches in salvaged.items():
            for benchmark, record in benches.items():
                assert record == cells[point_key][benchmark]
        counters = runtime_counters()
        assert counters["checkpoint.salvaged"] == 1
        assert counters["checkpoint.salvaged_cells"] == recovered

    def test_bitflip_in_record_is_rejected_by_seal(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        cells = self.cells(n=3)
        write_checkpoint(path, self.SIGNATURE, cells)
        payload = json.load(open(path))
        # Tamper with one record's result but keep the file valid JSON
        # and its seal untouched: the file checksum catches the edit,
        # the per-record seals decide which cells are still trustworthy.
        payload["cells"]["point1"]["twolf"]["result"]["value"] = 999
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.warns(RuntimeWarning, match="salvaged"):
            salvaged = read_checkpoint(path, self.SIGNATURE)
        assert "twolf" not in salvaged.get("point1", {})
        assert salvaged["point0"] == cells["point0"]
        assert salvaged["point2"] == cells["point2"]
        assert runtime_counters()["checkpoint.record_rejected"] == 1

    def test_merge_on_write_keeps_other_writers_cells(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        first = {"point0": self.cells()["point0"]}
        second = {"point1": self.cells()["point1"]}
        write_checkpoint(path, self.SIGNATURE, first)
        write_checkpoint(path, self.SIGNATURE, second)
        merged = read_checkpoint(path, self.SIGNATURE)
        assert set(merged) == {"point0", "point1"}


class TestFileLock:
    def test_mutual_exclusion(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with FileLock(path):
            with pytest.raises(LockTimeout):
                with FileLock(path, timeout_s=0.2):
                    pass

    def test_reentrant_per_instance(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        with lock:
            with lock:
                pass
        # Fully released: a fresh instance can take it immediately.
        with FileLock(str(tmp_path / "x.lock"), timeout_s=0.2):
            pass


class TestRecordSeals:
    def test_seal_verify_strip(self):
        record = {"outcome": {"status": "ok", "attempts": 1}, "result": {"a": 1}}
        sealed = seal_record(record)
        assert verify_record(sealed)
        assert strip_record(sealed) == record

    def test_tamper_detected(self):
        sealed = seal_record({"outcome": {"status": "ok", "attempts": 1}})
        sealed["outcome"]["attempts"] = 2
        assert not verify_record(sealed)

    def test_legacy_record_without_seal_passes(self):
        assert verify_record({"outcome": {"status": "ok", "attempts": 1}})


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
