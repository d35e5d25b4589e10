"""Technology substrate: parameters, wires, subarrays, mini-Cacti."""

import pytest

from repro.common.errors import ConfigurationError
from repro.tech.cacti import MiniCacti
from repro.tech.energy import EnergyBook
from repro.tech.params import TECH_70NM, TechnologyParams
from repro.tech.subarray import SubarrayModel
from repro.tech.wires import WireModel

MB = 1024 * 1024


class TestTechnologyParams:
    def test_cycle_period_at_5ghz(self):
        assert TECH_70NM.cycle_ps == pytest.approx(200.0)

    def test_ps_to_cycles_rounds_up(self):
        assert TECH_70NM.ps_to_cycles(0.0) == 1
        assert TECH_70NM.ps_to_cycles(200.0) == 1
        assert TECH_70NM.ps_to_cycles(200.1) == 2
        assert TECH_70NM.ps_to_cycles(1000.0) == 5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TECH_70NM.ps_to_cycles(-1.0)

    def test_invalid_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            TechnologyParams(
                **{**TECH_70NM.__dict__, "clock_ghz": 0.0}
            )


class TestWireModel:
    def test_delay_linear_in_distance(self):
        w = WireModel(TECH_70NM)
        assert w.delay_ps(2.0) == pytest.approx(2 * w.delay_ps(1.0))

    def test_round_trip_doubles(self):
        w = WireModel(TECH_70NM)
        assert w.round_trip_ps(3.0) == pytest.approx(2 * w.delay_ps(3.0))

    def test_energy_scales_with_bits_and_distance(self):
        w = WireModel(TECH_70NM)
        assert w.energy_pj(2.0, 100) == pytest.approx(2 * w.energy_pj(1.0, 100))
        assert w.energy_pj(1.0, 200) == pytest.approx(2 * w.energy_pj(1.0, 100))

    def test_negative_inputs_rejected(self):
        w = WireModel(TECH_70NM)
        with pytest.raises(ConfigurationError):
            w.delay_ps(-1.0)
        with pytest.raises(ConfigurationError):
            w.energy_pj(1.0, -1)


class TestSubarrayModel:
    def test_power_of_two_dimensions_required(self):
        with pytest.raises(ConfigurationError):
            SubarrayModel(TECH_70NM, 100, 128)
        with pytest.raises(ConfigurationError):
            SubarrayModel(TECH_70NM, 128, 1)

    def test_bigger_tiles_are_slower(self):
        small = SubarrayModel(TECH_70NM, 128, 128)
        big = SubarrayModel(TECH_70NM, 1024, 1024)
        assert big.access_delay_ps > small.access_delay_ps

    def test_area_includes_peripheral_strips(self):
        tile = SubarrayModel(TECH_70NM, 256, 256)
        cell_only = (256 * 256) * TECH_70NM.sram_cell_um2 / 1e6
        assert tile.area_mm2 > cell_only

    def test_read_energy_grows_with_output(self):
        tile = SubarrayModel(TECH_70NM, 256, 512)
        assert tile.read_energy_pj(512) > tile.read_energy_pj(64)

    def test_read_energy_validates_bits(self):
        tile = SubarrayModel(TECH_70NM, 256, 256)
        with pytest.raises(ConfigurationError):
            tile.read_energy_pj(512)


class TestMiniCacti:
    def test_latency_monotonic_in_capacity(self):
        mc = MiniCacti()
        delays = [mc.data_array(c, 128).access_time_ps for c in (64 * 1024, MB, 4 * MB)]
        assert delays == sorted(delays)

    def test_energy_monotonic_in_capacity(self):
        mc = MiniCacti()
        energies = [mc.data_array(c, 128).read_energy_pj for c in (64 * 1024, MB, 4 * MB)]
        assert energies == sorted(energies)

    def test_area_roughly_proportional(self):
        mc = MiniCacti()
        a1 = mc.data_array(MB, 128).area_mm2
        a4 = mc.data_array(4 * MB, 128).area_mm2
        assert 3.0 < a4 / a1 < 5.5

    def test_extra_bits_widen_array(self):
        mc = MiniCacti()
        plain = mc.data_array(MB, 128)
        wide = mc.data_array(MB, 128, extra_bits_per_block=16)
        assert wide.capacity_bits > plain.capacity_bits
        assert wide.output_bits == plain.output_bits + 16

    def test_tag_array_reads_whole_set(self):
        mc = MiniCacti()
        tag = mc.tag_array(1024, 8, 50)
        assert tag.output_bits == 8 * 50
        assert tag.compare_bits == 8 * 50

    def test_write_energy_premium(self):
        mc = MiniCacti()
        m = mc.data_array(MB, 128)
        assert m.write_energy_pj() > m.read_energy_pj

    def test_invalid_inputs_rejected(self):
        mc = MiniCacti()
        with pytest.raises(ConfigurationError):
            mc.data_array(0, 128)
        with pytest.raises(ConfigurationError):
            mc.data_array(1000, 128)  # not a whole number of blocks
        with pytest.raises(ConfigurationError):
            mc.data_array(MB, 128, extra_bits_per_block=-1)
        with pytest.raises(ConfigurationError):
            mc.tag_array(0, 8, 50)

    def test_large_array_penalty_kicks_in(self):
        """Beyond 2 MB the Cacti-3-style superlinear knee applies."""
        mc = MiniCacti()
        d2 = mc.data_array(2 * MB, 128).access_time_ps
        d4 = mc.data_array(4 * MB, 128).access_time_ps
        d8 = mc.data_array(8 * MB, 128).access_time_ps
        assert (d8 - d4) > (d4 - d2)


class TestEnergyBook:
    def test_register_and_charge(self):
        book = EnergyBook()
        book.register("op", 0.5)
        assert book.charge("op", 3) == pytest.approx(1.5)
        assert book.count("op") == 3
        assert book.total_nj() == pytest.approx(1.5)

    def test_total_adds_left_to_right(self):
        # (1e16 + 1) + 1 rounds to 1e16 twice; compensated summation
        # would return 1e16 + 2.
        book = EnergyBook()
        for op, cost in (("big", 1e16), ("one", 1.0), ("two", 1.0)):
            book.register(op, cost)
            book.charge(op)
        assert book.total_nj() == 1e16

    def test_breakdown_only_lists_used(self):
        book = EnergyBook()
        book.register("used", 1.0)
        book.register("unused", 1.0)
        book.charge("used")
        assert set(book.breakdown_nj()) == {"used"}

    def test_table_lists_all(self):
        book = EnergyBook()
        book.register("b", 2.0)
        book.register("a", 1.0)
        assert book.table() == [("a", 1.0), ("b", 2.0)]

    def test_reset_counts_keeps_costs(self):
        book = EnergyBook()
        book.register("op", 0.5)
        book.charge("op")
        book.reset_counts()
        assert book.total_nj() == 0.0
        assert book.cost("op") == 0.5

    def test_unregistered_charge_rejected(self):
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            EnergyBook().charge("ghost")

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyBook().register("op", -1.0)

    def test_negative_count_rejected(self):
        from repro.common.errors import SimulationError

        book = EnergyBook()
        book.register("op", 1.0)
        with pytest.raises(SimulationError):
            book.charge("op", -1)
