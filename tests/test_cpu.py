"""Processor substrate: branch predictors, core timing, energy model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import AccessResult
from repro.cpu.branch import BimodalPredictor, GSharePredictor, HybridPredictor
from repro.cpu.core import CoreModel, CoreParams
from repro.cpu.wattch import ProcessorEnergyModel


class TestBimodal:
    def test_learns_strongly_biased_branch(self):
        p = BimodalPredictor(1024)
        for _ in range(100):
            p.update(0x40, True)
        assert p.predict(0x40)
        assert p.mispredict_rate < 0.1

    def test_distinguishes_pcs(self):
        p = BimodalPredictor(1024)
        for _ in range(10):
            p.update(0x40, True)
            p.update(0x44, False)
        assert p.predict(0x40)
        assert not p.predict(0x44)

    def test_alternating_branch_confounds_bimodal(self):
        p = BimodalPredictor(1024)
        for i in range(200):
            p.update(0x40, i % 2 == 0)
        assert p.mispredict_rate > 0.3


class TestGShare:
    def test_learns_history_correlated_pattern(self):
        """A period-4 pattern is invisible to bimodal but easy for gshare."""
        p = GSharePredictor(4096, history_bits=8)
        pattern = [True, True, False, False]
        for i in range(2000):
            p.update(0x40, pattern[i % 4])
        # Measure on the trained tail.
        before = p.mispredictions
        for i in range(2000, 2400):
            p.update(0x40, pattern[i % 4])
        tail_rate = (p.mispredictions - before) / 400
        assert tail_rate < 0.05

    def test_invalid_history_rejected(self):
        with pytest.raises(ConfigurationError):
            GSharePredictor(1024, history_bits=0)


class TestHybrid:
    def test_tracks_better_component(self):
        p = HybridPredictor(4096, history_bits=8)
        pattern = [True, True, False, False]
        for i in range(3000):
            p.update(0x40, pattern[i % 4])  # gshare-friendly
            p.update(0x80, True)  # bimodal-friendly
        before = p.mispredictions
        count = p.predictions
        for i in range(3000, 3400):
            p.update(0x40, pattern[i % 4])
            p.update(0x80, True)
        tail_rate = (p.mispredictions - before) / (p.predictions - count)
        assert tail_rate < 0.05

    def test_rate_bounded(self):
        p = HybridPredictor()
        for i in range(100):
            p.update(i * 4, i % 3 == 0)
        assert 0.0 <= p.mispredict_rate <= 1.0


def l2_result(latency, hit=True):
    return AccessResult(hit=hit, latency=latency, level="L2")


class TestCoreModel:
    def make(self, **kw):
        args = dict(core_ipc=2.0, exposure=0.5)
        args.update(kw)
        return CoreModel(CoreParams(), **args)

    def test_pipeline_time(self):
        core = self.make()
        core.advance_instructions(100)
        assert core.cycle == pytest.approx(50.0)
        assert core.instructions == 100

    def test_branch_penalty(self):
        core = self.make(branch_fraction=0.2, mispredict_rate=0.1)
        core.advance_instructions(1000)
        # 1000/2 pipeline + 1000*0.2*0.1*9 penalty
        assert core.cycle == pytest.approx(500 + 180)

    def test_l1_hits_are_free(self):
        core = self.make()
        core.note_memory_result(0x1000, l2_result(3))
        assert core.stall_cycles == 0.0

    def test_l2_hit_charges_exposed_latency(self):
        core = self.make(exposure=0.5)
        core.note_memory_result(0x1000, l2_result(17))
        # (17 - 3) * 0.5
        assert core.stall_cycles == pytest.approx(7.0)

    def test_full_exposure(self):
        core = self.make(exposure=1.0)
        core.note_memory_result(0x1000, l2_result(103))
        assert core.cycle == pytest.approx(100.0)

    def test_mshr_full_stalls(self):
        core = self.make(exposure=0.1)
        # 8 MSHRs: the 9th outstanding miss must wait.
        for i in range(9):
            core.note_memory_result(0x10000 + i * 64, l2_result(1003, hit=False))
        assert core.mshr_full_stalls >= 1
        assert core.mshr_stall_cycles > 0

    def test_same_block_merges_not_reallocates(self):
        core = self.make(exposure=0.1)
        core.note_memory_result(0x1000, l2_result(203, hit=False))
        core.note_memory_result(0x1001, l2_result(203, hit=False))  # same L1 block
        assert core.memory_accesses == 2
        assert core.mshr_full_stalls == 0

    def test_ipc(self):
        core = self.make(core_ipc=2.0)
        core.advance_instructions(200)
        assert core.ipc == pytest.approx(2.0)
        assert self.make().ipc == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make(core_ipc=0.0)
        with pytest.raises(ConfigurationError):
            self.make(exposure=1.5)
        core = self.make()
        with pytest.raises(ConfigurationError):
            core.advance_instructions(-1)


class TestWattch:
    def test_core_energy(self):
        m = ProcessorEnergyModel(core_nj_per_instruction=0.2, core_nj_per_cycle=0.1)
        assert m.core_energy_nj(100, 50) == pytest.approx(25.0)

    def test_report_totals_and_ed(self):
        # A run charges its core energy through the default model, and
        # its energy-delay product is the §5.4.2 metric.
        from repro.sim.config import base_config
        from repro.sim.driver import run_benchmark

        r = run_benchmark(base_config(), "twolf", n_references=2_000, seed=1)
        assert r.core_energy_nj == pytest.approx(
            ProcessorEnergyModel().core_energy_nj(r.instructions, r.cycles)
        )
        assert r.total_energy_nj == pytest.approx(
            r.core_energy_nj + r.l1_energy_nj + r.lower_energy_nj
        )
        assert r.energy_delay == pytest.approx(r.total_energy_nj * r.cycles)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProcessorEnergyModel(core_nj_per_instruction=-1.0)
        with pytest.raises(ConfigurationError):
            ProcessorEnergyModel().core_energy_nj(-1, 0)
