"""Spare-subarray management, yield model, and leakage model."""

import math

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import DeterministicRNG
from repro.floorplan.spares import (
    RepairDomain,
    SpareManager,
    domain_survival_probability,
    yield_model,
)
from repro.tech.leakage import (
    LeakageModel,
    LeakageParams,
    gating_savings,
    nurapid_leakage_model,
)


class TestRepairDomain:
    def test_remap_uses_spares(self):
        d = RepairDomain("d", data_subarrays=8, spare_subarrays=2)
        assert d.fail_subarray(3)
        assert d.healthy
        assert d.physical_subarray(3) == 8  # first spare
        assert d.physical_subarray(0) == 0

    def test_spares_exhaust(self):
        d = RepairDomain("d", 8, 1)
        assert d.fail_subarray(0)
        assert not d.fail_subarray(1)
        assert not d.healthy
        with pytest.raises(SimulationError):
            d.physical_subarray(1)

    def test_refail_is_idempotent(self):
        d = RepairDomain("d", 8, 1)
        d.fail_subarray(0)
        assert d.fail_subarray(0)
        assert d.spares_used == 1

    def test_bounds(self):
        d = RepairDomain("d", 8, 1)
        with pytest.raises(ConfigurationError):
            d.fail_subarray(8)

    def test_validation_messages_are_precise(self):
        with pytest.raises(ConfigurationError, match="data_subarrays must be positive"):
            RepairDomain("d", 0, 1)
        with pytest.raises(
            ConfigurationError, match="spare_subarrays must be non-negative"
        ):
            RepairDomain("d", 8, -1)


class TestSpareManager:
    def test_defect_injection_counts_unrepaired(self):
        mgr = SpareManager()
        mgr.add_domain("big", 100, 3)
        rng = DeterministicRNG(3, "defects")
        unrepaired = mgr.inject_defects(rng, 0.10)
        summary = mgr.summary()["big"]
        assert summary["failed"] >= summary["repaired"]
        assert unrepaired == summary["failed"] - summary["repaired"]

    def test_zero_defect_rate_keeps_healthy(self):
        mgr = SpareManager()
        mgr.add_domain("d", 50, 0)
        assert mgr.inject_defects(DeterministicRNG(1, "x"), 0.0) == 0
        assert mgr.healthy

    def test_exhaustion_takes_the_die_path_deterministically(self):
        # More defects than spares: the first two failures remap, the
        # remaining six are permanently unrepaired, and any access to
        # them raises — the documented die path, same result every run.
        mgr = SpareManager()
        mgr.add_domain("d", 8, 2)
        unrepaired = mgr.inject_defects(DeterministicRNG(5, "d"), 1.0)
        assert unrepaired == 6
        assert not mgr.healthy
        summary = mgr.summary()["d"]
        assert summary["failed"] == 8
        assert summary["repaired"] == 2
        assert mgr.domain("d").physical_subarray(0) == 8
        with pytest.raises(SimulationError):
            mgr.domain("d").physical_subarray(7)

    def test_duplicate_domain_rejected(self):
        mgr = SpareManager()
        mgr.add_domain("d", 8, 1)
        with pytest.raises(ConfigurationError):
            mgr.add_domain("d", 8, 1)


class TestYieldModel:
    def test_survival_with_no_defects(self):
        assert domain_survival_probability(64, 1, 0.0) == pytest.approx(1.0)

    def test_spares_improve_survival(self):
        p0 = domain_survival_probability(64, 0, 0.01)
        p2 = domain_survival_probability(64, 2, 0.01)
        assert p2 > p0

    def test_yield_multiplies_domains(self):
        one = yield_model(1, 64, 1, 0.005)
        four = yield_model(4, 64, 1, 0.005)
        assert four == pytest.approx(one**4)

    def test_few_large_beats_many_small(self):
        """The §3.2 argument: shared spares win at equal budget."""
        # 512 subarrays and 8 spares as 4 domains of 128 + 2 spares,
        # or as 128 domains of 4 with every spare stranded.
        few_large = yield_model(4, 128, 2, 0.005)
        many_small = yield_model(128, 4, 8 // 128, 0.005)
        assert few_large > many_small


class TestLeakage:
    def test_power_scales_with_bits(self):
        m = LeakageModel()
        m.add_array("a", 1000)
        p1 = m.power_nw()
        m.add_array("b", 1000)
        assert m.power_nw() == pytest.approx(2 * p1)

    def test_temperature_monotone(self):
        params = LeakageParams()
        scales = [params.scale_for_temperature(t) for t in (300.0, 330.0, 360.0, 390.0)]
        assert all(a < b for a, b in zip(scales, scales[1:]))
        assert math.isfinite(scales[-1])

    def test_gating_reduces_power(self):
        m = LeakageModel()
        m.add_array("x", 1000)
        full = m.power_nw()
        m.set_gated("x", True)
        assert m.power_nw() == pytest.approx(full * LeakageParams().gated_fraction)

    def test_energy_scales_with_cycles(self):
        m = LeakageModel()
        m.add_array("x", 10_000)
        assert m.energy_nj(2000.0) == pytest.approx(2 * m.energy_nj(1000.0))

    def test_nurapid_model_has_tag_and_dgroups(self):
        m = nurapid_leakage_model()
        assert set(m.arrays()) == {"dgroup0", "dgroup1", "dgroup2", "dgroup3", "tag"}

    def test_gating_savings_grow_with_gated_groups(self):
        m = nurapid_leakage_model()
        s2 = gating_savings(m, 2, 4)
        s1 = gating_savings(m, 1, 4)
        assert 0 < s2 < s1 < 1

    def test_validation(self):
        m = LeakageModel()
        with pytest.raises(ConfigurationError):
            m.add_array("x", 0)
        m.add_array("x", 10)
        with pytest.raises(ConfigurationError):
            m.add_array("x", 10)
        with pytest.raises(ConfigurationError):
            m.set_gated("ghost", True)
        with pytest.raises(ConfigurationError):
            LeakageParams().scale_for_temperature(-1.0)
