"""Experiment harness: registry, reports, and shrunk behavioral runs.

Behavioral experiments are monkeypatched down to two benchmarks at
smoke scale so the whole file stays fast while still exercising every
experiment's code path end to end.
"""

import json

import pytest

import repro.experiments as exp
from repro.common.errors import ConfigurationError
from repro.experiments.common import (
    SMOKE,
    ExperimentReport,
    Scale,
    cached_run,
    clear_caches,
    pct,
    run_matrix,
    scale_by_name,
)
from repro.sim.config import base_config, nurapid_config
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict

TWO_BENCHMARKS = ["art", "wupwise"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def shrunk(monkeypatch):
    """Patch every experiment module to a 2-benchmark suite."""
    import repro.experiments.ablations as ab
    import repro.experiments.energy_delay as ed
    import repro.experiments.figure4 as f4
    import repro.experiments.figure5 as f5
    import repro.experiments.figure6 as f6
    import repro.experiments.figure7 as f7
    import repro.experiments.figure8 as f8
    import repro.experiments.figure9 as f9
    import repro.experiments.figure10 as f10
    import repro.experiments.lru_random as lr
    import repro.experiments.table3 as t3

    def names():
        return list(TWO_BENCHMARKS)

    for module in (f4, f5, f7, f9, f10, lr, ed, t3):
        monkeypatch.setattr(module, "suite_names", names, raising=False)
    for module in (f6, f8):
        monkeypatch.setattr(module, "suite_names", names)
        monkeypatch.setattr(module, "high_load_names", lambda: ["art"])
        monkeypatch.setattr(module, "low_load_names", lambda: ["wupwise"])
    monkeypatch.setattr(ab, "SUBSET", TWO_BENCHMARKS)
    return SMOKE


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        names = exp.experiment_names()
        for required in (
            "table2",
            "table3",
            "table4",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "lru_random",
            "energy_delay",
        ):
            assert required in names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            exp.run_experiment("figure99")

    def test_scale_by_name(self):
        assert scale_by_name("smoke") is SMOKE
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            scale_by_name("galactic")


class TestReportRendering:
    def test_text_and_json(self):
        report = ExperimentReport(
            experiment="x",
            title="T",
            paper_expectation="E",
            rows=[{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}],
            summary={"mean": 0.375},
            notes="n",
        )
        text = report.to_text()
        assert "== x: T ==" in text
        assert "paper: E" in text
        assert "mean" in text
        data = json.loads(report.to_json())
        assert data["rows"][1]["a"] == 2

    def test_column_order_preserves_first_seen(self):
        report = ExperimentReport("x", "t", "e", rows=[{"b": 1, "a": 2}, {"c": 3}])
        assert report.column_order() == ["b", "a", "c"]

    def test_pct(self):
        assert pct(1.059) == "+5.9%"
        assert pct(0.997) == "-0.3%"


class TestCaching:
    def test_cached_run_is_cached(self):
        r1 = cached_run(base_config(), "wupwise", SMOKE)
        r2 = cached_run(base_config(), "wupwise", SMOKE)
        assert r1 is r2

    def test_distinct_scales_not_conflated(self):
        other = Scale(name="other", n_references=SMOKE.n_references // 2,
                      warmup_fraction=SMOKE.warmup_fraction)
        r1 = cached_run(base_config(), "wupwise", SMOKE)
        r2 = cached_run(base_config(), "wupwise", other)
        assert r1 is not r2

    def test_resolved_engine_keys_the_cache(self, monkeypatch):
        scale = Scale(name="tiny", n_references=4_000, warmup_fraction=0.3)
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        first = cached_run(base_config(), "gcc", scale)
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        second = cached_run(base_config(), "gcc", scale)
        assert second is not first
        assert run_result_to_dict(second) == run_result_to_dict(first)

    def test_same_name_configs_cached_apart(self):
        scale = Scale(name="tiny", n_references=8_000, warmup_fraction=0.3)
        plain = nurapid_config()
        knobbed = nurapid_config(seed=5, restricted_frames=256)
        assert plain.name == knobbed.name
        first = run_matrix([plain], ["mcf"], scale)[plain.name]["mcf"]
        second = run_matrix([knobbed], ["mcf"], scale)[knobbed.name]["mcf"]
        assert second != first
        assert second == run_benchmark(
            knobbed, "mcf", n_references=8_000, seed=1, warmup_fraction=0.3
        )
        with pytest.raises(ConfigurationError, match=plain.name):
            run_matrix([plain, knobbed], ["mcf"], scale)


class TestTechnologyExperiments:
    def test_table2_rows(self):
        report = exp.run_experiment("table2", SMOKE)
        assert len(report.rows) == 8
        measured = {r["operation (tag + access)"]: r["measured nJ"] for r in report.rows}
        assert measured["closest of 4 2MB d-groups"] < measured["farthest of 4 2MB d-groups"]

    def test_table4_matches_paper_column(self):
        report = exp.run_experiment("table4", SMOKE)
        col = [r["4 d-groups"] for r in report.rows]
        paper = [r["4 d-groups (paper)"] for r in report.rows]
        assert col == paper

    def test_ablation_seqtag(self):
        report = exp.run_experiment("ablation_seqtag", SMOKE)
        assert report.summary["parallel/sequential energy"] > 1.5


class TestBehavioralExperiments:
    """End-to-end runs at smoke scale on two benchmarks."""

    def test_table3(self, shrunk):
        report = exp.run_experiment("table3", shrunk)
        assert len(report.rows) == 2
        assert all(r["IPC"] > 0 for r in report.rows)

    def test_figure4(self, shrunk):
        report = exp.run_experiment("figure4", shrunk)
        assert report.summary["dist-assoc first-group"] > 0
        assert len(report.rows) == 4  # 2 benchmarks x 2 placements

    def test_figure5(self, shrunk):
        report = exp.run_experiment("figure5", shrunk)
        # Distance replacement never evicts: miss rates must agree.
        assert report.summary["max miss-rate spread across policies"] == pytest.approx(0.0)

    def test_figure6(self, shrunk):
        report = exp.run_experiment("figure6", shrunk)
        assert "next-fastest overall" in report.summary
        assert report.summary["ideal overall"] >= report.summary["next-fastest overall"] - 0.02

    def test_figure7(self, shrunk):
        report = exp.run_experiment("figure7", shrunk)
        assert report.summary["max miss-rate spread across d-group counts"] == pytest.approx(0.0)

    def test_figure8(self, shrunk):
        report = exp.run_experiment("figure8", shrunk)
        assert "4-d-group overall" in report.summary

    def test_figure9(self, shrunk):
        report = exp.run_experiment("figure9", shrunk)
        assert "NuRAPID 4dg vs D-NUCA mean" in report.summary

    def test_figure10(self, shrunk):
        report = exp.run_experiment("figure10", shrunk)
        assert 0.0 < report.summary["nurapid energy / dnuca energy"] < 1.0

    def test_energy_delay(self, shrunk):
        report = exp.run_experiment("energy_delay", shrunk)
        assert "nurapid mean ED vs base" in report.summary

    def test_lru_random(self, shrunk):
        report = exp.run_experiment("lru_random", shrunk)
        assert len(report.rows) == 2 * 6  # 2 benchmarks x 6 variants

    def test_ablation_policies(self, shrunk):
        report = exp.run_experiment("ablation_policies", shrunk)
        assert len(report.rows) == 9

    def test_ablation_pointers(self, shrunk):
        report = exp.run_experiment("ablation_pointers", shrunk)
        bits = [r["fwd pointer bits"] for r in report.rows]
        assert bits == sorted(bits, reverse=True)

    def test_ablation_dnuca_insert(self, shrunk):
        report = exp.run_experiment("ablation_dnuca_insert", shrunk)
        assert len(report.rows) == 2

    def test_ablation_faults(self, shrunk):
        report = exp.run_experiment("ablation_faults", shrunk)
        assert len(report.rows) == 7  # 2 archs x 3 rates + hard-fault row
        nurapid_rows = [r for r in report.rows if r["arch"] == "nurapid"]
        # Wide interleaving: every strike corrected, no cell ever fails.
        assert all(r["data loss"] == 0 for r in nurapid_rows)
        assert all(r["failed cells"] == 0 for r in nurapid_rows)
        # Hard faults beyond spares shrank d-group 0 without a crash.
        assert report.summary["dg0 frames retired (hard-fault row)"] > 0


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure9" in out

    def test_run_and_write(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["table4", "--scale", "smoke", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table4.txt").exists()
        assert (tmp_path / "table4.json").exists()
        assert "table4" in capsys.readouterr().out

    def test_unknown_name_errors(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure99"])


class TestTraceDiskCache:
    def test_roundtrip_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        first = cached_run(base_config(), "wupwise", SMOKE)
        entries = {p: p.stat().st_mtime_ns for p in tmp_path.glob("*.npy")}
        assert entries
        clear_caches()
        second = cached_run(base_config(), "wupwise", SMOKE)
        # The second run maps the same entry instead of regenerating it.
        assert {p: p.stat().st_mtime_ns for p in tmp_path.glob("*.npy")} == entries
        assert run_result_to_dict(first) == run_result_to_dict(second)

    def test_no_env_no_files(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cached_run(base_config(), "wupwise", SMOKE)
        # The run's scratch trace directory is gone with its entries.
        assert not list(tmp_path.iterdir())


class TestLayoutAndExtensionAblations:
    def test_ablation_spares_shape(self):
        report = exp.run_experiment("ablation_spares", SMOKE)
        for row in report.rows:
            assert row["NuRAPID yield (4 domains)"] >= row["D-NUCA yield (128 domains)"]

    def test_ablation_ecc_shape(self):
        report = exp.run_experiment("ablation_ecc", SMOKE)
        spreads = [r["max bits/word in one subarray"] for r in report.rows]
        assert spreads == sorted(spreads, reverse=True)
        assert report.rows[-1]["survives whole-subarray loss"] is True

    def test_ablation_leakage(self, monkeypatch):
        import repro.experiments.ablation_leakage as al

        monkeypatch.setattr(al, "SUBSET", ["wupwise"])
        report = exp.run_experiment("ablation_leakage", SMOKE)
        saved = [row["leakage saved"] for row in report.rows]
        assert saved[0] == 0.0  # nothing gated
        assert saved == sorted(saved)  # gating more saves more

    def test_ablation_hysteresis(self, monkeypatch):
        import repro.experiments.ablation_hysteresis as ah

        monkeypatch.setattr(ah, "SUBSET", ["wupwise"])
        report = exp.run_experiment("ablation_hysteresis", SMOKE)
        moves = [row["moves per 1k L2 accesses"] for row in report.rows]
        assert moves == sorted(moves, reverse=True)  # hysteresis cuts moves

    def test_ablation_prefetch(self, monkeypatch):
        import repro.experiments.ablation_prefetch as ap

        monkeypatch.setattr(ap, "SUBSET", ["swim"])
        report = exp.run_experiment("ablation_prefetch", SMOKE)
        assert report.rows[0]["pf issued"] > 0

    def test_ablation_snuca(self, monkeypatch):
        import repro.experiments.ablation_snuca as asn

        monkeypatch.setattr(asn, "SUBSET", ["wupwise"])
        report = exp.run_experiment("ablation_snuca", SMOKE)
        assert len(report.rows) == 1
        assert "s-nuca (static)" in report.rows[0]
