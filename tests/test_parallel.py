"""The parallel cell executor, trace cache, and checkpoint batching.

The engine's one non-negotiable property is that ``jobs=N`` is
bit-identical to ``jobs=1`` — every test here that compares results
does so on exact ``run_result_to_dict`` dictionaries, not tolerances.
Grids are kept tiny (a few thousand references) so forking a real
worker pool stays within unit-test time.
"""

import json
import pickle

import pytest

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    UncorrectableDataError,
)
from repro.nurapid.config import PromotionPolicy
from repro.sim.config import nurapid_config, snuca_config
from repro.sim.driver import run_suite
from repro.sim.parallel import CellTask, execute_cell, run_cells
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.workloads.tracegen import TraceCache, generate_trace
from repro.workloads.spec2k import get_benchmark

REFS = 4_000


def build(n_dgroups, promotion):
    return nurapid_config(n_dgroups=n_dgroups, promotion=promotion)


def make_sweep(**kw):
    defaults = dict(
        axes=[
            SweepAxis("n_dgroups", (2, 4)),
            SweepAxis(
                "promotion",
                (PromotionPolicy.NEXT_FASTEST, PromotionPolicy.DEMOTION_ONLY),
            ),
        ],
        build=build,
        benchmarks=["wupwise", "twolf"],
        n_references=REFS,
    )
    defaults.update(kw)
    return Sweep(**defaults)


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


class TestSweepParallel:
    def test_jobs4_bit_identical_to_serial(self, tmp_path):
        serial = make_sweep().run(resume=False)
        parallel = make_sweep(
            jobs=4, trace_cache_dir=str(tmp_path / "traces")
        ).run(resume=False)
        assert point_dicts(serial) == point_dicts(parallel)

    def test_run_jobs_argument_overrides_constructor(self, tmp_path):
        sweep = make_sweep(trace_cache_dir=str(tmp_path / "traces"))
        assert point_dicts(sweep.run(jobs=2)) == point_dicts(make_sweep().run())

    def test_parallel_writes_resumable_checkpoint(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        first = make_sweep(
            checkpoint_path=path,
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run()
        assert json.load(open(path))["cells"]

        # A later serial run restores the parallel run's cells verbatim.
        calls = []
        resumed_sweep = make_sweep(checkpoint_path=path)
        resumed_sweep._run_cell = lambda *a, **kw: calls.append(a)  # noqa: E731
        resumed = resumed_sweep.run()
        assert not calls
        assert point_dicts(resumed) == point_dicts(first)

    def test_resume_after_kill_under_parallel(self, tmp_path):
        """A partially-written checkpoint (as a kill -9 would leave)
        resumes under jobs=2 to the exact uninterrupted results."""
        path = str(tmp_path / "ckpt.json")
        uninterrupted = make_sweep(checkpoint_path=path).run()

        payload = json.load(open(path))
        dropped = 0
        for key in list(payload["cells"]):
            if dropped < 3 and payload["cells"][key]:
                benchmark = sorted(payload["cells"][key])[0]
                del payload["cells"][key][benchmark]
                dropped += 1
        assert dropped == 3
        with open(path, "w") as handle:
            json.dump(payload, handle)

        resumed = make_sweep(
            checkpoint_path=path,
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run()
        assert point_dicts(resumed) == point_dicts(uninterrupted)
        # The re-run cells were flushed back into the checkpoint.
        assert all(
            len(cells) == 2 for cells in json.load(open(path))["cells"].values()
        )

    def test_resume_after_kill_serial(self, tmp_path):
        """The same kill-resume contract must hold at jobs=1 — the
        degenerate serial path shares the checkpoint machinery."""
        path = str(tmp_path / "ckpt.json")
        uninterrupted = make_sweep(checkpoint_path=path).run()

        payload = json.load(open(path))
        key = sorted(payload["cells"])[0]
        benchmark = sorted(payload["cells"][key])[0]
        del payload["cells"][key][benchmark]
        with open(path, "w") as handle:
            json.dump(payload, handle)

        resumed = make_sweep(checkpoint_path=path).run()
        assert point_dicts(resumed) == point_dicts(uninterrupted)
        assert all(
            len(cells) == 2 for cells in json.load(open(path))["cells"].values()
        )

    def test_v1_checkpoint_resumes_and_upgrades_to_v2(self, tmp_path):
        """A format-v1 file ({"signature", "cells"}, no checksums)
        resumes under v2 without re-running its cells, and the next
        flush rewrites it as a checksummed, record-sealed v2 file."""
        path = str(tmp_path / "ckpt.json")
        uninterrupted = make_sweep(checkpoint_path=path).run()

        # Downgrade the file to v1: strip the envelope and the
        # per-record seals, and drop one cell so the resume must both
        # migrate and re-run.
        payload = json.load(open(path))
        cells = {
            key: {
                bench: {k: v for k, v in record.items() if k != "crc"}
                for bench, record in benches.items()
            }
            for key, benches in payload["cells"].items()
        }
        key = sorted(cells)[0]
        del cells[key][sorted(cells[key])[0]]
        with open(path, "w") as handle:
            json.dump({"signature": payload["signature"], "cells": cells}, handle)

        calls = []
        sweep = make_sweep(checkpoint_path=path)
        original = sweep._run_cell

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        sweep._run_cell = counting
        resumed = sweep.run()
        assert point_dicts(resumed) == point_dicts(uninterrupted)
        assert len(calls) == 1  # only the dropped cell re-ran

        upgraded = json.load(open(path))
        assert upgraded["format"] == 2
        assert "checksum" in upgraded
        assert all(
            "crc" in record
            for benches in upgraded["cells"].values()
            for record in benches.values()
        )


class TestCheckpointBatching:
    def _count_saves(self, sweep):
        saves = []
        original = sweep._save_checkpoint

        def counting(signature, cells):
            saves.append(len(json.dumps(cells)))
            original(signature, cells)

        sweep._save_checkpoint = counting
        return saves

    def test_serial_flushes_once_per_point(self, tmp_path):
        # 4 points x 2 benchmarks: 4 flushes, not 8 (the old
        # once-per-cell behavior whose rewrite I/O grew as cells^2).
        sweep = make_sweep(checkpoint_path=str(tmp_path / "c.json"))
        saves = self._count_saves(sweep)
        sweep.run()
        assert len(saves) == 4

    def test_checkpoint_every_one_restores_per_cell_flushes(self, tmp_path):
        sweep = make_sweep(
            checkpoint_path=str(tmp_path / "c.json"), checkpoint_every=1
        )
        saves = self._count_saves(sweep)
        sweep.run()
        assert len(saves) == 8

    def test_parallel_batches_flushes_too(self, tmp_path):
        sweep = make_sweep(
            checkpoint_path=str(tmp_path / "c.json"),
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        )
        saves = self._count_saves(sweep)
        sweep.run()
        assert len(saves) == 4

    def test_final_partial_batch_still_flushed(self, tmp_path):
        # 8 cells with checkpoint_every=3: flushes at 3, 6, and the
        # 2-cell remainder on the way out.
        sweep = make_sweep(
            checkpoint_path=str(tmp_path / "c.json"), checkpoint_every=3
        )
        saves = self._count_saves(sweep)
        sweep.run()
        assert len(saves) == 3
        assert all(
            len(cells) == 2
            for cells in json.load(open(tmp_path / "c.json"))["cells"].values()
        )


class TestTraceCache:
    def test_hit_miss_counters(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        first, path = cache.fetch("twolf", 2_000, seed=3)
        assert (cache.hits, cache.misses) == (0, 1)
        again = cache.get("twolf", 2_000, seed=3)
        assert (cache.hits, cache.misses) == (1, 1)
        assert run_trace_dict(first) == run_trace_dict(again)

        # A second cache over the same directory hits the disk copy.
        other = TraceCache(str(tmp_path))
        other.get("twolf", 2_000, seed=3)
        assert (other.hits, other.misses) == (1, 0)
        assert path.endswith("twolf-r2000-s3-c1.npz")

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        a = cache.get("twolf", 2_000, seed=3)
        b = cache.get("twolf", 2_000, seed=4)
        c = cache.get("twolf", 2_000, seed=3, warm_set_conflict=4)
        assert cache.misses == 3
        assert run_trace_dict(a) != run_trace_dict(b)
        assert run_trace_dict(a) != run_trace_dict(c)

    def test_corrupted_file_regenerated(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        path = cache.ensure("twolf", 2_000, seed=3)
        with open(path, "wb") as handle:
            handle.write(b"this is not an npz archive")

        recovered = cache.get("twolf", 2_000, seed=3)
        assert cache.misses == 2  # the corrupted copy did not count as a hit
        expected = generate_trace(get_benchmark("twolf"), 2_000, seed=3)
        assert run_trace_dict(recovered) == run_trace_dict(expected)
        # ...and the disk copy was repaired in place.
        assert (cache.hits, cache.misses) == (0, 2)
        cache.get("twolf", 2_000, seed=3)
        assert cache.hits == 1

    def test_stale_content_rejected(self, tmp_path):
        # A file whose content disagrees with its key (e.g. after a
        # benchmark-profile edit changed generation) is regenerated.
        cache = TraceCache(str(tmp_path))
        wrong = generate_trace(get_benchmark("twolf"), 1_000, seed=3)
        wrong.save(cache.path_for("twolf", 2_000, seed=3))
        fixed = cache.get("twolf", 2_000, seed=3)
        assert cache.misses == 1
        assert len(fixed) == 2_000

    def test_prune_evicts_oldest_first(self, tmp_path):
        import os
        import time

        cache = TraceCache(str(tmp_path))
        paths = [cache.ensure("twolf", 1_000, seed=s) for s in (1, 2, 3)]
        for age, path in zip((300, 200, 100), paths):
            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
        sizes = [os.path.getsize(p) for p in paths]
        removed = cache.prune(max_bytes=sizes[1] + sizes[2])
        assert removed == 1
        assert not os.path.exists(paths[0])
        assert os.path.exists(paths[1]) and os.path.exists(paths[2])
        assert cache.prune(max_bytes=0) == 2


def run_trace_dict(trace):
    return {
        "benchmark": trace.benchmark,
        "gaps": trace.gaps.tolist(),
        "addresses": trace.addresses.tolist(),
        "writes": trace.writes.tolist(),
    }


class TestRunCells:
    def _task(self, index=0, **kw):
        defaults = dict(
            index=index,
            config=nurapid_config(),
            benchmark="twolf",
            n_references=REFS,
            seed=1,
            warmup_fraction=0.4,
        )
        defaults.update(kw)
        return CellTask(**defaults)

    def test_payload_order_follows_submission(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        path = cache.ensure("twolf", REFS, seed=1)
        tasks = [self._task(index=i, trace_path=path) for i in (7, 3, 5)]
        payloads = run_cells(tasks, jobs=2)
        assert [p["index"] for p in payloads] == [7, 3, 5]
        assert all(p["outcome"]["status"] == "ok" for p in payloads)

    def test_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            run_cells([self._task()], jobs=0)

    def test_isolated_error_becomes_failed_payload(self):
        bad = self._task(benchmark="no-such-benchmark")
        payload = execute_cell(bad)
        assert payload["outcome"]["status"] == "failed"
        assert payload["outcome"]["error_type"] == "ConfigurationError"
        assert payload["result"] is None

    def test_unisolated_error_raises_in_parent_pool(self):
        tasks = [
            self._task(index=0, n_references=1_000),
            self._task(index=1, n_references=1_000, benchmark="no-such",
                       isolate_errors=False),
        ]
        with pytest.raises(ReproError):
            run_cells(tasks, jobs=2)

    def test_errors_pickle_across_process_boundary(self):
        # UncorrectableDataError's init signature doesn't match args;
        # without __reduce__ the pool's result pickling would explode.
        exc = UncorrectableDataError(level="L2", address=0x1234, access_index=99)
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, UncorrectableDataError)
        assert clone.address == 0x1234 and clone.access_index == 99


class TestRunSuite:
    def test_parallel_suite_matches_serial(self, tmp_path):
        kw = dict(n_references=REFS, seed=1, warmup_fraction=0.4)
        serial = run_suite(snuca_config(), ["twolf", "wupwise"], **kw)
        parallel = run_suite(
            snuca_config(),
            ["twolf", "wupwise"],
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
            **kw,
        )
        assert {b: run_result_to_dict(r) for b, r in serial.runs.items()} == {
            b: run_result_to_dict(r) for b, r in parallel.runs.items()
        }

    def test_suite_forwards_run_knobs(self, monkeypatch):
        # Regression: run_suite used to silently drop energy_model,
        # prewarm, and warm_set_conflict on the floor.
        import repro.sim.driver as driver
        from repro.cpu.wattch import ProcessorEnergyModel

        captured = []
        real = driver.run_benchmark

        def fake_run_benchmark(config, benchmark, **kw):
            captured.append((benchmark, kw))
            return real(config, benchmark, n_references=1_000, warmup_fraction=0.4)

        monkeypatch.setattr(driver, "run_benchmark", fake_run_benchmark)
        model = ProcessorEnergyModel(core_nj_per_instruction=99.0)
        driver.run_suite(
            snuca_config(),
            ["twolf"],
            n_references=2_000,
            energy_model=model,
            warm_set_conflict=4,
            prewarm=False,
        )
        assert len(captured) == 1
        _, kw = captured[0]
        assert kw["energy_model"] is model
        assert kw["warm_set_conflict"] == 4
        assert kw["prewarm"] is False


class TestRunMatrix:
    def test_parallel_matrix_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        from repro.experiments.common import Scale, clear_caches, run_matrix

        scale = Scale(name="tiny", n_references=REFS, warmup_fraction=0.4)
        configs = [nurapid_config(), snuca_config()]
        benchmarks = ["twolf", "wupwise"]

        clear_caches()
        serial = run_matrix(configs, benchmarks, scale, jobs=1)
        clear_caches()
        parallel = run_matrix(configs, benchmarks, scale, jobs=2)
        clear_caches()

        assert {
            c: {b: run_result_to_dict(r) for b, r in row.items()}
            for c, row in serial.items()
        } == {
            c: {b: run_result_to_dict(r) for b, r in row.items()}
            for c, row in parallel.items()
        }

    def test_default_jobs_respects_env_and_setter(self, monkeypatch):
        from repro.experiments.common import default_jobs, set_default_jobs

        set_default_jobs(None)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        set_default_jobs(6)
        assert default_jobs() == 6
        set_default_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ConfigurationError):
            default_jobs()
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    @pytest.mark.parametrize("value", ["abc", "0"])
    @pytest.mark.parametrize(
        "cli, argv",
        [
            ("repro.sim.__main__", ["nurapid", "twolf", "--refs", "1000"]),
            ("repro.experiments.__main__", ["table4", "--scale", "smoke"]),
        ],
    )
    def test_clis_reject_bad_repro_jobs(self, monkeypatch, capsys, cli, argv, value):
        import importlib

        from repro.experiments.common import set_default_jobs

        set_default_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(SystemExit) as exit_info:
            importlib.import_module(cli).main(argv)
        assert exit_info.value.code == 2
        assert "REPRO_JOBS" in capsys.readouterr().err
