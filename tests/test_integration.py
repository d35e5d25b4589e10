"""End-to-end integration: whole systems on real (small) workloads.

These check cross-cutting invariants and the headline *orderings* the
paper rests on, at scales small enough for CI.  Magnitude checks live
in the experiment harness at full scale (see EXPERIMENTS.md).
"""

import pytest

from repro.experiments.common import Scale
from repro.nuca.config import SearchPolicy
from repro.nurapid.config import PromotionPolicy
from repro.sim import (
    base_config,
    dnuca_config,
    nurapid_config,
    run_benchmark,
    sa_nuca_config,
)
from repro.sim.driver import make_system, _replay
from repro.cpu.core import CoreModel
from repro.workloads import generate_trace, get_benchmark

SCALE = Scale(name="itest", n_references=120_000, warmup_fraction=0.4, seed=3)


def run(config, benchmark="galgel", trace=None):
    return run_benchmark(
        config,
        benchmark,
        n_references=SCALE.n_references,
        seed=SCALE.seed,
        warmup_fraction=SCALE.warmup_fraction,
        trace=trace,
    )


@pytest.fixture(scope="module")
def galgel_trace():
    return generate_trace(get_benchmark("galgel"), SCALE.n_references, seed=SCALE.seed)


@pytest.fixture(scope="module")
def results(galgel_trace):
    configs = {
        "base": base_config(),
        "nurapid": nurapid_config(),
        "demotion": nurapid_config(promotion=PromotionPolicy.DEMOTION_ONLY),
        "ideal": nurapid_config(ideal_uniform=True),
        "dnuca": dnuca_config(policy=SearchPolicy.SS_PERFORMANCE),
        "dnuca-energy": dnuca_config(policy=SearchPolicy.SS_ENERGY),
        "sa": sa_nuca_config(),
    }
    return {name: run(cfg, trace=galgel_trace) for name, cfg in configs.items()}


class TestOrderings:
    def test_ideal_bounds_real_nurapid(self, results):
        assert results["ideal"].ipc >= results["nurapid"].ipc * 0.999

    def test_next_fastest_keeps_more_in_dgroup0_than_demotion(self, results):
        assert (
            results["nurapid"].dgroup_fractions.get(0, 0)
            > results["demotion"].dgroup_fractions.get(0, 0)
        )

    def test_da_placement_beats_sa_placement_on_dgroup0(self, results):
        assert (
            results["nurapid"].dgroup_fractions.get(0, 0)
            > results["sa"].dgroup_fractions.get(0, 0)
        )

    def test_miss_counts_match_across_nurapid_policies(self, results):
        """Distance replacement never evicts: same misses either way."""
        assert results["nurapid"].l2_misses == results["demotion"].l2_misses

    def test_nurapid_uses_less_l2_energy_than_dnuca(self, results):
        assert results["nurapid"].lower_energy_nj < results["dnuca"].lower_energy_nj

    def test_ss_energy_uses_less_energy_than_ss_performance(self, results):
        assert (
            results["dnuca-energy"].lower_energy_nj
            < results["dnuca"].lower_energy_nj
        )

    def test_nurapid_fewer_dgroup_accesses_than_dnuca(self, results):
        assert (
            results["nurapid"].stats["dgroup_accesses"]
            < results["dnuca"].stats["dgroup_accesses"]
        )


class TestConsistency:
    def test_same_trace_same_misses_for_same_capacity(self, results):
        """8 MB NuRAPID and 8 MB D-NUCA see the same workload; their
        miss counts are close (replacement policies differ)."""
        a = results["nurapid"].l2_misses
        b = results["dnuca"].l2_misses
        assert abs(a - b) / max(a, b) < 0.35

    def test_instruction_counts_identical_across_configs(self, results):
        counts = {r.instructions for r in results.values()}
        assert len(counts) == 1

    def test_energy_positive_everywhere(self, results):
        for r in results.values():
            assert r.lower_energy_nj > 0
            assert r.l1_energy_nj > 0

    def test_l2_invariants_hold_after_full_runs(self, galgel_trace):
        for config in (nurapid_config(), dnuca_config(), sa_nuca_config()):
            system = make_system(config)
            profile = get_benchmark("galgel")
            core = CoreModel(
                config.core, profile.core_ipc, profile.exposure,
                profile.branch_fraction, profile.mispredict_rate,
            )
            _replay([system], [core], galgel_trace.head(40_000))
            system.l2.check_invariants()

    def test_determinism_across_processline(self, galgel_trace):
        a = run(nurapid_config(), trace=galgel_trace)
        b = run(nurapid_config(), trace=galgel_trace)
        assert a.cycles == b.cycles
        assert a.dgroup_fractions == b.dgroup_fractions
        assert a.lower_energy_nj == pytest.approx(b.lower_energy_nj)
