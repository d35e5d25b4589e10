"""Simulation layer: configs, driver, results."""

import pytest

from repro.common.errors import ConfigurationError
from repro.nuca.config import SearchPolicy
from repro.nurapid.config import PromotionPolicy
from repro.sim.config import (
    SystemConfig,
    base_config,
    build_system,
    dnuca_config,
    nurapid_config,
    sa_nuca_config,
)
from repro.sim.driver import make_system, run_benchmark, run_suite
from repro.sim.results import RunResult, SuiteResult, relative_performance
from repro.workloads.tracegen import generate_trace
from repro.workloads.spec2k import get_benchmark

REFS = 20_000


class TestConfigs:
    def test_factories_produce_distinct_names(self):
        names = {
            base_config().name,
            nurapid_config().name,
            nurapid_config(n_dgroups=8).name,
            nurapid_config(promotion=PromotionPolicy.FASTEST).name,
            nurapid_config(ideal_uniform=True).name,
            dnuca_config().name,
            dnuca_config(policy=SearchPolicy.SS_ENERGY).name,
            sa_nuca_config().name,
        }
        assert len(names) == 8

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(name="x", l2_kind="l4-cache")

    def test_nurapid_kind_requires_config(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(name="x", l2_kind="nurapid")

    def test_build_base_has_two_lower_levels(self):
        hierarchy, l1d, lower, memory = build_system(base_config())
        assert [lvl.name for lvl in lower] == ["L2", "L3"]
        assert lower[0].spec.latency_cycles == 11
        assert lower[1].spec.latency_cycles == 43

    def test_build_nurapid(self):
        _, _, lower, _ = build_system(nurapid_config())
        assert lower[0].name.startswith("NuRAPID")
        assert lower[0].config.n_dgroups == 4

    def test_build_dnuca(self):
        _, _, lower, _ = build_system(dnuca_config())
        assert lower[0].geometry.n_banks == 128

    def test_build_sa_nuca(self):
        _, _, lower, _ = build_system(sa_nuca_config())
        assert lower[0].ways_per_dgroup == 2


class TestDriver:
    def test_run_produces_consistent_result(self):
        r = run_benchmark(base_config(), "twolf", n_references=REFS, seed=2)
        assert r.instructions > 0
        assert r.cycles > 0
        assert 0 < r.ipc < 8
        assert r.l2_hits + r.l2_misses <= r.l2_accesses  # writebacks also count
        assert r.l1_energy_nj > 0
        assert r.lower_energy_nj > 0

    def test_invalid_reference_count_rejected_eagerly(self):
        for bad in (0, -5):
            with pytest.raises(ConfigurationError, match="n_references"):
                run_benchmark(base_config(), "twolf", n_references=bad)

    def test_invalid_warmup_fraction_rejected_eagerly(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError, match="warmup_fraction"):
                run_benchmark(
                    base_config(), "twolf", n_references=REFS, warmup_fraction=bad
                )
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            run_suite(
                base_config(), ["twolf"], n_references=REFS, warmup_fraction=2.0
            )

    def test_determinism(self):
        a = run_benchmark(base_config(), "twolf", n_references=REFS, seed=2)
        b = run_benchmark(base_config(), "twolf", n_references=REFS, seed=2)
        assert a.cycles == b.cycles
        assert a.l2_accesses == b.l2_accesses
        assert a.lower_energy_nj == pytest.approx(b.lower_energy_nj)

    def test_seed_matters(self):
        a = run_benchmark(base_config(), "twolf", n_references=REFS, seed=2)
        b = run_benchmark(base_config(), "twolf", n_references=REFS, seed=3)
        assert a.cycles != b.cycles

    def test_warmup_excluded_from_stats(self):
        trace = generate_trace(get_benchmark("twolf"), REFS, seed=2)
        full = run_benchmark(
            base_config(), "twolf", trace=trace, warmup_fraction=0.0
        )
        warmed = run_benchmark(
            base_config(), "twolf", trace=trace, warmup_fraction=0.5
        )
        assert warmed.instructions < full.instructions
        assert warmed.l2_accesses < full.l2_accesses

    def test_nurapid_run_reports_dgroups(self):
        r = run_benchmark(nurapid_config(), "twolf", n_references=REFS, seed=2)
        assert r.dgroup_fractions
        assert all(0.0 <= v <= 1.0 for v in r.dgroup_fractions.values())

    def test_dnuca_run_reports_levels(self):
        r = run_benchmark(dnuca_config(), "twolf", n_references=REFS, seed=2)
        assert r.dgroup_fractions

    def test_run_suite(self):
        suite = run_suite(base_config(), ["twolf", "wupwise"], n_references=REFS)
        assert set(suite.runs) == {"twolf", "wupwise"}

    def test_make_system_reset(self):
        system = make_system(nurapid_config())
        system.l2.fill(0x1000)
        system.l2.access(0x1000)
        system.reset_stats()
        assert system.l2.stats.get("accesses") == 0
        assert system.l2.contains(0x1000)


def make_result(benchmark="b", config="c", ipc_cycles=(1000, 1000.0), **kw):
    instructions, cycles = ipc_cycles
    defaults = dict(
        benchmark=benchmark,
        config_name=config,
        instructions=instructions,
        cycles=cycles,
        l2_accesses=100,
        l2_hits=90,
        l2_misses=10,
        dgroup_fractions={0: 0.8, 1: 0.1},
        l1_energy_nj=10.0,
        lower_energy_nj=20.0,
        core_energy_nj=100.0,
    )
    defaults.update(kw)
    return RunResult(**defaults)


class TestResults:
    def test_dict_roundtrip_restores_int_dgroup_keys(self):
        import json

        from repro.sim.results import run_result_from_dict, run_result_to_dict

        r = make_result(dgroup_fractions={0: 0.5, 3: 0.1}, stats={"hits": 9.0})
        payload = json.loads(json.dumps(run_result_to_dict(r)))
        restored = run_result_from_dict(payload)
        assert restored == r
        assert all(isinstance(k, int) for k in restored.dgroup_fractions)

    @pytest.mark.parametrize(
        "config", [nurapid_config(), dnuca_config()], ids=["nurapid", "dnuca"]
    )
    def test_computed_stats_read_as_restored(self, config):
        """A computed result lists its stats in the order a result
        restored from sorted JSON (the result store's form) does."""
        import json

        from repro.sim.results import run_result_from_dict, run_result_to_dict

        r = run_benchmark(config, "mcf", n_references=6_000, seed=2)
        payload = json.loads(json.dumps(run_result_to_dict(r), sort_keys=True))
        assert list(r.stats) == list(run_result_from_dict(payload).stats)

    def test_malformed_payload_rejected(self):
        from repro.sim.results import run_result_from_dict

        with pytest.raises(ConfigurationError):
            run_result_from_dict({"benchmark": "x"})

    def test_derived_properties(self):
        r = make_result()
        assert r.ipc == 1.0
        assert r.l2_miss_fraction == pytest.approx(0.1)
        assert r.l2_apki == pytest.approx(100.0)
        assert r.total_energy_nj == pytest.approx(130.0)
        assert r.energy_delay == pytest.approx(130000.0)

    def test_relative_performance(self):
        base = make_result(ipc_cycles=(1000, 2000.0))
        fast = make_result(ipc_cycles=(1000, 1000.0))
        assert relative_performance(fast, base) == pytest.approx(2.0)

    def test_relative_performance_benchmark_mismatch(self):
        with pytest.raises(ConfigurationError):
            relative_performance(make_result("a"), make_result("b"))

    def test_suite_relative_and_means(self):
        base = SuiteResult(
            "base",
            {
                "a": make_result("a", ipc_cycles=(1000, 2000.0)),
                "b": make_result("b", ipc_cycles=(1000, 1000.0)),
            },
        )
        new = SuiteResult(
            "new",
            {
                "a": make_result("a", ipc_cycles=(1000, 1000.0)),
                "b": make_result("b", ipc_cycles=(1000, 1000.0)),
            },
        )
        rel = new.relative_to(base)
        assert rel["a"] == pytest.approx(2.0)
        assert new.mean_relative(base) == pytest.approx(1.5)
        assert new.mean_relative(base, benchmarks=["a"]) == pytest.approx(2.0)

    def test_suite_no_shared_benchmarks(self):
        a = SuiteResult("a", {"x": make_result("x")})
        b = SuiteResult("b", {"y": make_result("y")})
        with pytest.raises(ConfigurationError):
            a.relative_to(b)

    def test_empty_run_properties(self):
        r = make_result(ipc_cycles=(0, 0.0), l2_accesses=0, l2_hits=0, l2_misses=0)
        assert r.ipc == 0.0
        assert r.l2_miss_fraction == 0.0
        assert r.l2_apki == 0.0
