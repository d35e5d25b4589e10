"""Parameter-sweep utility and its crash-tolerant hardening."""

import os
import subprocess
import sys

import pytest

import repro
from repro.common.errors import ConfigurationError, UncorrectableDataError
from repro.nurapid.config import PromotionPolicy
from repro.resilience.integrity import verify_sidecar
from repro.service.store import ResultStore
from repro.sim.config import nurapid_config
from repro.sim.parallel import CellTask, cell_fingerprint
from repro.sim.results import RunResult, run_result_to_dict
from repro.sim.sweep import RunOutcome, Sweep, SweepAxis, SweepPoint, tabulate
from repro.telemetry import (
    TelemetryConfig,
    reset_runtime_registry,
    runtime_counters,
)
from repro.telemetry.registry import StatRegistry


def build(n_dgroups, promotion):
    return nurapid_config(n_dgroups=n_dgroups, promotion=promotion)


def make_sweep(**kw):
    defaults = dict(
        axes=[
            SweepAxis("n_dgroups", (2, 4)),
            SweepAxis("promotion", (PromotionPolicy.NEXT_FASTEST,)),
        ],
        build=build,
        benchmarks=["wupwise"],
        n_references=25_000,
    )
    defaults.update(kw)
    return Sweep(**defaults)


class TestSweepConstruction:
    def test_points_cross_product(self):
        sweep = make_sweep(
            axes=[
                SweepAxis("n_dgroups", (2, 4, 8)),
                SweepAxis(
                    "promotion",
                    (PromotionPolicy.NEXT_FASTEST, PromotionPolicy.DEMOTION_ONLY),
                ),
            ]
        )
        points = sweep.points()
        assert len(points) == 6
        coords = {(p.coordinates["n_dgroups"], p.coordinates["promotion"]) for p in points}
        assert len(coords) == 6

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepAxis("x", ())

    def test_no_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sweep(axes=[])

    def test_no_benchmarks_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sweep(benchmarks=[])

    def test_bad_builder_rejected(self):
        sweep = make_sweep(build=lambda **kw: "not a config")
        with pytest.raises(ConfigurationError):
            sweep.points()


class TestSweepExecution:
    def test_run_fills_results(self):
        points = make_sweep().run()
        assert len(points) == 2
        for point in points:
            assert "wupwise" in point.runs
            assert point.mean_ipc() > 0

    def test_relative_metric(self):
        points = make_sweep().run()
        base = points[0]
        rel = points[1].mean_relative(base)
        assert rel > 0

    def test_traces_shared_across_points(self):
        reset_runtime_registry()
        make_sweep().run()
        # one benchmark, mapped once
        assert runtime_counters()["transport.trace_loads"] == 1

    def test_tabulate(self):
        points = make_sweep().run()
        text = tabulate(points, lambda p: p.mean_ipc())
        assert "n_dgroups" in text
        assert len(text.splitlines()) == 3

    def test_tabulate_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            tabulate([], lambda p: 0.0)

    def test_point_without_runs_rejects_metrics(self):
        point = SweepPoint(coordinates={}, config=nurapid_config())
        with pytest.raises(ConfigurationError):
            point.mean_ipc()


def fake_result(config, benchmark, **kw):
    return RunResult(
        benchmark=benchmark,
        config_name=config.name,
        instructions=1000,
        cycles=500.0,
        l2_accesses=10,
        l2_hits=5,
        l2_misses=5,
        dgroup_fractions={0: 0.5, 1: 0.25},
        l1_energy_nj=1.0,
        lower_energy_nj=2.0,
        core_energy_nj=3.0,
        stats={"x": 1.0},
    )


def fast_sweep(**kw):
    defaults = dict(
        axes=[SweepAxis("n_dgroups", (2, 4))],
        build=lambda n_dgroups: nurapid_config(n_dgroups=n_dgroups),
        benchmarks=["wupwise"],
        n_references=2_000,
    )
    defaults.update(kw)
    return Sweep(**defaults)


class TestSweepValidation:
    def test_eager_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            fast_sweep(n_references=0)
        with pytest.raises(ConfigurationError):
            fast_sweep(warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            fast_sweep(warmup_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            fast_sweep(max_retries=-1)

    def test_unknown_benchmark_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            fast_sweep(benchmarks=["wupwise", "nosuchbench"])

    def test_multi_core_spec_checked_per_part(self, tmp_path):
        """A "+" spec names one app per core: each part is checked at
        construction, the part count per cell, where the core count is
        known, and the 2-core cell is the one run_suite runs."""
        from repro.cmp.scenarios import cmp_nurapid_config
        from repro.sim.driver import run_suite

        def build(cores):
            return cmp_nurapid_config(cores=cores)

        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            Sweep([SweepAxis("cores", (2,))], build, ["twolf+nosuchbench"])
        sweep = Sweep(
            [SweepAxis("cores", (1, 2))], build, ["twolf+mcf"],
            n_references=4_000, max_retries=0, trace_cache_dir=str(tmp_path),
        )
        one, two = sweep.run()
        assert not one.outcomes["twolf+mcf"].ok
        assert "names 2 apps" in one.outcomes["twolf+mcf"].error
        assert two.outcomes["twolf+mcf"].ok
        suite = run_suite(
            build(2), ["twolf+mcf"], n_references=4_000, seed=sweep.seed,
            warmup_fraction=sweep.warmup_fraction,
        )
        assert run_result_to_dict(two.runs["twolf+mcf"]) == run_result_to_dict(
            suite.runs["twolf+mcf"]
        )


class TestSweepHardening:
    def test_fault_errors_isolated_and_recorded(self, monkeypatch):
        def doomed(config, benchmark, **kw):
            if "4dg" in config.name:
                raise UncorrectableDataError("L2", 0x40, 7)
            return fake_result(config, benchmark)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", doomed)
        points = fast_sweep(max_retries=1).run()
        ok = [p for p in points if p.coordinates["n_dgroups"] == 2][0]
        bad = [p for p in points if p.coordinates["n_dgroups"] == 4][0]
        assert ok.outcomes["wupwise"].ok
        assert "wupwise" in ok.runs
        assert bad.failed_benchmarks() == ["wupwise"]
        assert "wupwise" not in bad.runs
        outcome = bad.outcomes["wupwise"]
        assert outcome.error_type == "UncorrectableDataError"
        assert outcome.attempts == 2  # first try + one reseeded retry

    def test_retry_reseeds_trace_and_fault_plan(self, monkeypatch):
        from repro.faults.models import FaultPlan

        seen = []

        def flaky(config, benchmark, seed=0, **kw):
            seen.append((seed, config.faults.seed))
            if len(seen) == 1:
                raise UncorrectableDataError("L2", 0, 1)
            return fake_result(config, benchmark)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", flaky)
        sweep = fast_sweep(
            axes=[SweepAxis("rate", (1e-3,))],
            build=lambda rate: nurapid_config(
                faults=FaultPlan(transient_per_access=rate, seed=5)
            ),
            max_retries=1,
        )
        points = sweep.run()
        assert points[0].outcomes["wupwise"].ok
        assert seen == [(1, 5), (1001, 1005)]

    def test_python_bugs_propagate(self, monkeypatch):
        def broken(config, benchmark, **kw):
            raise ValueError("a genuine bug")

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", broken)
        with pytest.raises(ValueError):
            fast_sweep().run()

    def test_tabulate_renders_failed_points(self, monkeypatch):
        def doomed(config, benchmark, **kw):
            raise UncorrectableDataError("L2", 0, 1)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", doomed)
        points = fast_sweep(max_retries=0).run()
        text = tabulate(points, lambda p: p.mean_ipc())
        assert text.count("failed") == 2


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


class TestSweepCheckpointing:
    """A sweep persists and resumes through its result store."""

    def test_completed_cells_restored_not_rerun(self, tmp_path, monkeypatch):
        calls = []

        def counting(config, benchmark, **kw):
            calls.append(config.name)
            return fake_result(config, benchmark)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", counting)
        store = ResultStore(str(tmp_path))
        first = fast_sweep(result_store=store).run()
        assert len(calls) == 2
        second = fast_sweep(result_store=store).run()
        assert len(calls) == 2  # nothing re-ran
        for a, b in zip(first, second):
            assert a.runs["wupwise"].ipc == b.runs["wupwise"].ipc
            assert a.runs["wupwise"].dgroup_fractions == {0: 0.5, 1: 0.25}
            assert b.runs["wupwise"].dgroup_fractions == {0: 0.5, 1: 0.25}
            assert a.outcomes["wupwise"].ok and b.outcomes["wupwise"].ok

    def test_kill_mid_grid_then_resume_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(str(tmp_path))
        calls = []

        def dies_on_second(config, benchmark, **kw):
            calls.append(config.name)
            if len(calls) == 2:
                raise KeyboardInterrupt  # simulated mid-grid kill
            return fake_result(config, benchmark)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", dies_on_second)
        with pytest.raises(KeyboardInterrupt):
            fast_sweep(result_store=store).run()
        assert len(calls) == 2
        # The cell that finished before the interrupt is stored.
        assert store.entries() == 1

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", fake_result)
        resumed = fast_sweep(result_store=store).run()
        uninterrupted = fast_sweep().run()
        assert len(calls) == 2  # the first cell came from the store
        assert point_dicts(resumed) == point_dicts(uninterrupted)

    def test_every_finished_cell_is_a_verified_entry(self, tmp_path):
        store = ResultStore(str(tmp_path))
        points = fast_sweep(result_store=store).run()
        assert store.entries() == 2
        for point in points:
            key = cell_fingerprint(
                CellTask(
                    index=0,
                    config=point.config,
                    benchmark="wupwise",
                    n_references=2_000,
                    seed=1,
                    warmup_fraction=0.4,
                )
            )
            assert verify_sidecar(store.path_for(key)) is True
            stored = store.get(key)
            assert stored["result"] == run_result_to_dict(point.runs["wupwise"])

    @pytest.mark.parametrize("damage", ["torn", "bitflip"])
    def test_corrupt_entry_recomputed_on_resume(self, tmp_path, damage):
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        uninterrupted = fast_sweep(result_store=store).run()
        entry = sorted(tmp_path.glob("*.json"))[0]
        data = entry.read_bytes()
        if damage == "torn":
            data = data[: len(data) // 2]
        else:
            middle = len(data) // 2
            data = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1 :]
        entry.write_bytes(data)

        resumed = fast_sweep(result_store=store).run()
        counters = registry.counters("result_store.")
        assert counters["result_store.corrupt_recovered"] == 1
        assert counters["result_store.hits"] == 1
        assert counters["result_store.writes"] == 3  # 2 first, 1 recomputed
        assert point_dicts(resumed) == point_dicts(uninterrupted)
        assert verify_sidecar(str(entry)) is True

    def test_failed_cells_rerun_identically(self, tmp_path, monkeypatch):
        calls = []

        def doomed(config, benchmark, **kw):
            calls.append(config.name)
            raise UncorrectableDataError("L2", 0, 1)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", doomed)
        store = ResultStore(str(tmp_path))
        first = fast_sweep(result_store=store, max_retries=0).run()
        # A failed outcome is not the content address's answer.
        assert store.entries() == 0
        second = fast_sweep(result_store=store, max_retries=0).run()
        assert len(calls) == 4  # both cells re-ran on resume
        assert point_dicts(second) == point_dicts(first)
        for point in second:
            assert point.failed_benchmarks() == ["wupwise"]
            assert point.outcomes["wupwise"].error_type == "UncorrectableDataError"

    @pytest.mark.parametrize(
        "change",
        [{"seed": 99}, {"telemetry": TelemetryConfig()}],
        ids=["seed", "telemetry"],
    )
    def test_other_grid_gets_no_hits(self, tmp_path, monkeypatch, change):
        monkeypatch.setattr("repro.sim.parallel.run_benchmark", fake_result)
        registry = StatRegistry()
        store = ResultStore(str(tmp_path), registry=registry)
        fast_sweep(result_store=store).run()
        fast_sweep(result_store=store, **change).run()
        counters = registry.counters("result_store.")
        assert counters.get("result_store.hits", 0) == 0
        assert counters["result_store.writes"] == 4

    def test_outcome_roundtrip(self):
        outcome = RunOutcome(
            status="failed", attempts=3, error="boom", error_type="FaultError"
        )
        assert RunOutcome.from_dict(outcome.to_dict()) == outcome
        with pytest.raises(ConfigurationError):
            RunOutcome.from_dict({"status": "ok"})


def test_sim_import_leaves_service_unloaded():
    # Sweep takes its store as an argument: importing repro.service
    # would start with the asyncio server, a cost every cold grid
    # would pay.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    code = (
        "import sys, repro.sim; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.service') "
        "or m == 'repro.resilience.checkpoint'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
