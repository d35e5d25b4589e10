"""The parallel cell executor, trace cache, and store-backed resume.

The engine's one non-negotiable property is that ``jobs=N`` is
bit-identical to ``jobs=1`` — every test here that compares results
does so on exact ``run_result_to_dict`` dictionaries, not tolerances.
Grids are kept tiny (a few thousand references) so forking a real
worker pool stays within unit-test time.
"""

import os
import pickle

import pytest

from repro.common.errors import (
    ConfigurationError,
    ReproError,
    UncorrectableDataError,
)
from repro.nurapid.config import PromotionPolicy
from repro.service.store import ResultStore
from repro.sim.config import nurapid_config, snuca_config
from repro.sim.driver import run_suite
from repro.sim.parallel import CellTask, execute_cell, run_cells
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.telemetry.registry import StatRegistry
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


def count_executed_cells(monkeypatch):
    """The tasks of every cell ``execute_cell`` runs in this process."""
    import repro.sim.parallel as parallel

    calls = []
    original = parallel.execute_cell

    def counting(task):
        calls.append(task)
        return original(task)

    monkeypatch.setattr(parallel, "execute_cell", counting)
    return calls


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
        serial = make_sweep().run()
        parallel = make_sweep(
            jobs=4, trace_cache_dir=str(tmp_path / "traces")
        ).run()
        assert point_dicts(serial) == point_dicts(parallel)

    def test_run_jobs_argument_overrides_constructor(self, tmp_path):
        sweep = make_sweep(trace_cache_dir=str(tmp_path / "traces"))
        assert point_dicts(sweep.run(jobs=2)) == point_dicts(make_sweep().run())

    def test_parallel_writes_resumable_checkpoint(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        first = make_sweep(
            result_store=store,
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run()
        assert store.entries() == 8

        # A later serial run restores the parallel run's cells verbatim.
        calls = count_executed_cells(monkeypatch)
        resumed = make_sweep(result_store=store).run()
        assert not calls
        assert point_dicts(resumed) == point_dicts(first)

    def test_resume_after_kill_under_parallel(self, tmp_path):
        """A store missing some cells (as a kill -9 would leave it)
        resumes under jobs=2 to the exact uninterrupted results."""
        registry = StatRegistry()
        store = ResultStore(str(tmp_path / "store"), registry=registry)
        uninterrupted = make_sweep(result_store=store).run()
        entries = sorted((tmp_path / "store").glob("*.json"))
        for entry in entries[:3]:
            entry.unlink()

        resumed = make_sweep(
            result_store=store,
            jobs=2,
            trace_cache_dir=str(tmp_path / "traces"),
        ).run()
        assert point_dicts(resumed) == point_dicts(uninterrupted)
        # Only the three missing cells ran, and they were stored again.
        assert registry.counters("result_store.")["result_store.writes"] == 8 + 3
        assert store.entries() == 8

    def test_resume_after_kill_serial(self, tmp_path, monkeypatch):
        """The same kill-resume contract must hold at jobs=1, where the
        cells run in this process."""
        store = ResultStore(str(tmp_path / "store"))
        uninterrupted = make_sweep(result_store=store).run()
        sorted((tmp_path / "store").glob("*.json"))[0].unlink()

        calls = count_executed_cells(monkeypatch)
        resumed = make_sweep(result_store=store).run()
        assert point_dicts(resumed) == point_dicts(uninterrupted)
        assert len(calls) == 1
        assert store.entries() == 8


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
        assert path.endswith("twolf-r2000-s3-c1.npy")

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        a = cache.get("twolf", 2_000, seed=3)
        b = cache.get("twolf", 2_000, seed=4)
        assert cache.misses == 2
        assert run_trace_dict(a) != run_trace_dict(b)

    def test_corrupted_file_regenerated(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        path = cache.ensure("twolf", 2_000, seed=3)
        with open(path, "wb") as handle:
            handle.write(b"this is not a trace entry")

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
        # benchmark-profile edit changed generation) is regenerated,
        # even when its sidecar vouches for its bytes.
        from repro.resilience.integrity import write_sidecar

        cache = TraceCache(str(tmp_path))
        wrong = generate_trace(get_benchmark("twolf"), 1_000, seed=3)
        path = cache.path_for("twolf", 2_000, seed=3)
        wrong.save(path)
        write_sidecar(path)
        with pytest.warns(RuntimeWarning, match="does not match its key"):
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
        sizes = [entry_bytes(p) for p in paths]
        removed = cache.prune(max_bytes=sizes[1] + sizes[2])
        assert removed == 1
        assert not os.path.exists(paths[0])
        assert os.path.exists(paths[1]) and os.path.exists(paths[2])
        assert cache.prune(max_bytes=0) == 2

    def test_prune_removes_sidecars_within_budget(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        paths = [cache.ensure("twolf", 1_000, seed=s) for s in (1, 2, 3)]
        budget = entry_bytes(paths[0]) + entry_bytes(paths[1]) // 2
        assert cache.prune(max_bytes=budget) == 2
        names = os.listdir(tmp_path)
        kept = [n for n in names if n.endswith((".npy", ".npy.sha256"))]
        assert sum(os.path.getsize(tmp_path / n) for n in kept) <= budget
        for name in names:
            if name.endswith(".sha256"):
                assert name[: -len(".sha256")] in names, f"orphan {name}"
        assert cache.prune(max_bytes=0) == 1
        assert not [n for n in os.listdir(tmp_path) if not n.endswith(".lock")]


def entry_bytes(path):
    """An entry's on-disk size: the ``.npy`` plus its sidecar."""
    return os.path.getsize(path) + os.path.getsize(path + ".sha256")


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

    @pytest.mark.parametrize(
        "cli, argv",
        [
            ("repro.sim.__main__", ["nurapid", "twolf", "--refs", "1000"]),
            ("repro.experiments.__main__", ["table4", "--scale", "smoke"]),
        ],
    )
    def test_clis_reject_bad_repro_engine(self, monkeypatch, capsys, cli, argv):
        import importlib

        monkeypatch.setenv("REPRO_ENGINE", "approx")
        with pytest.raises(SystemExit) as exit_info:
            importlib.import_module(cli).main(argv)
        assert exit_info.value.code == 2
        assert "'approx' in REPRO_ENGINE" in capsys.readouterr().err
