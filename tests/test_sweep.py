"""Parameter-sweep utility and its crash-tolerant hardening."""

import json
import time

import pytest

from repro.common.errors import ConfigurationError, UncorrectableDataError
from repro.nurapid.config import PromotionPolicy
from repro.sim.config import nurapid_config
from repro.sim.results import RunResult
from repro.sim.sweep import RunOutcome, Sweep, SweepAxis, SweepPoint, tabulate
from repro.telemetry import reset_runtime_registry, runtime_counters


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
        with pytest.raises(ConfigurationError):
            fast_sweep(reseed_step=0)
        with pytest.raises(ConfigurationError):
            fast_sweep(point_budget_s=0.0)

    def test_unknown_benchmark_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            fast_sweep(benchmarks=["wupwise", "nosuchbench"])


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
            reseed_step=1000,
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

    def test_point_budget_stops_retries_per_cell(self, monkeypatch):
        def slow_doomed(config, benchmark, **kw):
            time.sleep(0.05)
            raise UncorrectableDataError("L2", 0, 1)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", slow_doomed)

        def outcomes(budget):
            return fast_sweep(
                axes=[SweepAxis("n_dgroups", (2,))],
                benchmarks=["wupwise", "art"],
                max_retries=2,
                point_budget_s=budget,
            ).run()[0].outcomes

        # Every cell gets its own budget and its first attempt; an
        # attempt that outlasts the budget is not retried.
        for outcome in outcomes(0.01).values():
            assert outcome.attempts == 1
            assert outcome.error_type == "UncorrectableDataError"
        for outcome in outcomes(None).values():
            assert outcome.attempts == 3

    def test_tabulate_renders_failed_points(self, monkeypatch):
        def doomed(config, benchmark, **kw):
            raise UncorrectableDataError("L2", 0, 1)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", doomed)
        points = fast_sweep(max_retries=0).run()
        text = tabulate(points, lambda p: p.mean_ipc())
        assert text.count("failed") == 2


class TestSweepCheckpointing:
    def test_completed_cells_restored_not_rerun(self, tmp_path, monkeypatch):
        calls = []

        def counting(config, benchmark, **kw):
            calls.append(config.name)
            return fake_result(config, benchmark)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", counting)
        path = str(tmp_path / "ckpt.json")
        first = fast_sweep(checkpoint_path=path).run()
        assert len(calls) == 2
        second = fast_sweep(checkpoint_path=path).run()
        assert len(calls) == 2  # nothing re-ran
        for a, b in zip(first, second):
            assert a.runs["wupwise"].ipc == b.runs["wupwise"].ipc
            assert a.runs["wupwise"].dgroup_fractions == {0: 0.5, 1: 0.25}
            assert b.runs["wupwise"].dgroup_fractions == {0: 0.5, 1: 0.25}
            assert a.outcomes["wupwise"].ok and b.outcomes["wupwise"].ok

    def test_kill_mid_grid_then_resume_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "ckpt.json")
        calls = []

        def dies_on_second(config, benchmark, **kw):
            calls.append(config.name)
            if len(calls) == 2:
                raise KeyboardInterrupt  # simulated mid-grid kill
            return fake_result(config, benchmark)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", dies_on_second)
        with pytest.raises(KeyboardInterrupt):
            fast_sweep(checkpoint_path=path).run()
        assert len(calls) == 2

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", fake_result)
        resumed = fast_sweep(checkpoint_path=path).run()
        uninterrupted = fast_sweep().run()
        assert len(calls) == 2  # the first cell came from the checkpoint
        for a, b in zip(resumed, uninterrupted):
            assert a.runs["wupwise"].ipc == b.runs["wupwise"].ipc
            assert a.runs["wupwise"].stats == b.runs["wupwise"].stats

    def test_failed_cells_checkpoint_too(self, tmp_path, monkeypatch):
        def doomed(config, benchmark, **kw):
            raise UncorrectableDataError("L2", 0, 1)

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", doomed)
        path = str(tmp_path / "ckpt.json")
        fast_sweep(checkpoint_path=path, max_retries=0).run()

        def never_called(config, benchmark, **kw):
            raise AssertionError("resume must not re-run recorded failures")

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", never_called)
        points = fast_sweep(checkpoint_path=path, max_retries=0).run()
        for point in points:
            assert point.failed_benchmarks() == ["wupwise"]
            assert point.outcomes["wupwise"].error_type == "UncorrectableDataError"

    def test_foreign_checkpoint_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sim.parallel.run_benchmark", fake_result)
        path = str(tmp_path / "ckpt.json")
        fast_sweep(checkpoint_path=path).run()
        other = fast_sweep(checkpoint_path=path, seed=99)
        with pytest.raises(ConfigurationError, match="signature"):
            other.run()

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("not json{", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="unreadable"):
            fast_sweep(checkpoint_path=str(path)).run()

    def test_checkpoint_is_valid_json_with_signature(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.sim.parallel.run_benchmark", fake_result)
        path = tmp_path / "ckpt.json"
        sweep = fast_sweep(checkpoint_path=str(path))
        sweep.run()
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["signature"] == sweep.signature()
        assert len(payload["cells"]) == 2

    def test_outcome_roundtrip(self):
        outcome = RunOutcome(
            status="failed", attempts=3, error="boom", error_type="FaultError"
        )
        assert RunOutcome.from_dict(outcome.to_dict()) == outcome
        with pytest.raises(ConfigurationError):
            RunOutcome.from_dict({"status": "ok"})
