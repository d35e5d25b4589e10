"""Floorplans: geometry primitives, placements, and derived tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.floorplan.geometry import Point, Rect, manhattan_distance
from repro.floorplan.layout import DNUCAFloorplan, NuRAPIDFloorplan
from repro.floorplan.dgroups import (
    build_dnuca_geometry,
    build_nurapid_geometry,
    build_uniform_cache_spec,
)

MB = 1024 * 1024

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestGeometry:
    def test_manhattan(self):
        assert manhattan_distance(Point(0, 0), Point(3, 4)) == 7

    @settings(max_examples=50, deadline=None)
    @given(finite, finite, finite, finite)
    def test_manhattan_symmetric(self, ax, ay, bx, by):
        a, b = Point(ax, ay), Point(bx, by)
        assert manhattan_distance(a, b) == pytest.approx(manhattan_distance(b, a))

    @settings(max_examples=50, deadline=None)
    @given(finite, finite, finite, finite, finite, finite)
    def test_manhattan_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
        assert manhattan_distance(a, c) <= (
            manhattan_distance(a, b) + manhattan_distance(b, c) + 1e-9
        )

    def test_rect_properties(self):
        r = Rect(1, 2, 3, 4)
        assert r.area == 12
        assert r.right == 4 and r.top == 6

    def test_rect_contains(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains(Point(1, 1))
        assert r.contains(Point(0, 0))
        assert not r.contains(Point(3, 1))

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ConfigurationError):
            Rect(0, 0, 0, 1)


class TestNuRAPIDFloorplan:
    def test_routes_monotonically_increase(self):
        fp = NuRAPIDFloorplan([16.0] * 4)
        routes = [p.route_mm for p in fp.placed]
        assert routes == sorted(routes)
        assert routes[0] < routes[-1]

    def test_first_dgroup_is_near_the_core(self):
        fp = NuRAPIDFloorplan([16.0] * 4)
        assert fp.placed[0].route_mm < 2.0

    def test_total_area_preserved(self):
        areas = [10.0, 12.0, 14.0]
        fp = NuRAPIDFloorplan(areas)
        assert sum(p.rect.area for p in fp.placed) == pytest.approx(sum(areas))

    def test_rects_do_not_overlap(self):
        fp = NuRAPIDFloorplan([16.0] * 4)
        rects = [p.rect for p in fp.placed]
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                a, b = rects[i], rects[j]
                # Interiors are disjoint; a shared edge is allowed.
                assert (
                    a.right <= b.x or b.right <= a.x or a.top <= b.y or b.top <= a.y
                )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NuRAPIDFloorplan([])
        with pytest.raises(ConfigurationError):
            NuRAPIDFloorplan([-1.0])
        with pytest.raises(ConfigurationError):
            NuRAPIDFloorplan([1.0], detour_factor=0.5)


class TestDNUCAFloorplan:
    def _fp(self):
        return DNUCAFloorplan(rows=8, cols=16, bank_width_mm=0.7, bank_height_mm=0.7)

    def test_bank_count(self):
        assert self._fp().n_banks == 128

    def test_hops_grow_with_row(self):
        fp = self._fp()
        center = 8
        assert fp.hops(center) < fp.hops(center + fp.cols)

    def test_network_cycles_monotone_in_hops(self):
        fp = self._fp()
        pairs = sorted((fp.hops(b), fp.network_cycles(b)) for b in range(fp.n_banks))
        cycles = [c for _, c in pairs]
        assert cycles == sorted(cycles)

    def test_hop_energy_scales_with_payload(self):
        fp = self._fp()
        assert fp.hop_energy_nj(1024) == pytest.approx(16 * fp.hop_energy_nj(64))

    def test_invalid_bank_rejected(self):
        with pytest.raises(ConfigurationError):
            self._fp().hops(9999)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DNUCAFloorplan(0, 8, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            DNUCAFloorplan(8, 8, -1.0, 1.0)


class TestNuRAPIDGeometry:
    def test_table4_matches_paper_4dg(self):
        """The calibrated 4-d-group column is the paper's, exactly."""
        geo = build_nurapid_geometry(n_dgroups=4)
        assert geo.table4_column() == [14, 14, 18, 18, 22, 22, 26, 26]

    def test_tag_cycles_match_paper(self):
        assert build_nurapid_geometry(n_dgroups=4).tag_cycles == 8

    def test_fastest_latency_ordering_across_counts(self):
        fastest = {
            n: build_nurapid_geometry(n_dgroups=n).hit_latency(0) for n in (2, 4, 8)
        }
        assert fastest[8] < fastest[4] < fastest[2]

    def test_latencies_monotone_across_dgroups(self):
        geo = build_nurapid_geometry(n_dgroups=8)
        lat = [geo.hit_latency(g) for g in range(8)]
        assert lat == sorted(lat)

    def test_energies_monotone_across_dgroups(self):
        geo = build_nurapid_geometry(n_dgroups=4)
        energies = [d.read_energy_nj for d in geo.dgroups]
        assert energies == sorted(energies)

    def test_paper_energy_bands(self):
        """Table 2 values within a generous band of the paper's."""
        four = build_nurapid_geometry(n_dgroups=4)
        closest = four.dgroups[0].read_energy_nj + four.tag_energy_nj
        farthest = four.dgroups[-1].read_energy_nj + four.tag_energy_nj
        assert 0.25 <= closest <= 0.65  # paper: 0.42
        assert 2.3 <= farthest <= 4.6  # paper: 3.3

    def test_swap_energy_grows_with_distance(self):
        geo = build_nurapid_geometry(n_dgroups=4)
        assert geo.swap_energy_nj(0, 3) > geo.swap_energy_nj(0, 1)

    def test_swap_occupancy_symmetric(self):
        geo = build_nurapid_geometry(n_dgroups=4)
        assert geo.swap_occupancy(0, 2) == geo.swap_occupancy(2, 0)

    def test_miss_latency_is_tag_only(self):
        geo = build_nurapid_geometry(n_dgroups=4)
        assert geo.miss_latency() == geo.tag_cycles

    def test_restricted_frames_shrink_forward_pointer(self):
        full = build_nurapid_geometry(n_dgroups=4)
        restricted = build_nurapid_geometry(n_dgroups=4, restricted_frames=256)
        assert restricted.forward_pointer_bits < full.forward_pointer_bits
        # 4 d-groups (2 bits) + 256 frames (8 bits) = 10 bits, as §2.4.3 says.
        assert restricted.forward_pointer_bits == 10

    def test_full_pointer_matches_paper_example(self):
        """8 MB / 128 B blocks: 16-bit pointers for full flexibility."""
        geo = build_nurapid_geometry(n_dgroups=4)
        assert geo.forward_pointer_bits == 16
        assert geo.reverse_pointer_bits == 16

    def test_pointer_overhead_matches_paper(self):
        """§2.4.3: 256 KB of pointers for the fully flexible 8 MB cache."""
        geo = build_nurapid_geometry(n_dgroups=4)
        assert geo.pointer_overhead_bits() == 65536 * 32

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_nurapid_geometry(n_dgroups=0)
        with pytest.raises(ConfigurationError):
            build_nurapid_geometry(n_dgroups=4, restricted_frames=100000)
        geo = build_nurapid_geometry(n_dgroups=2)
        with pytest.raises(ConfigurationError):
            geo.hit_latency(5)


class TestDNUCAGeometry:
    def test_bank_count_and_chains(self):
        geo = build_dnuca_geometry()
        assert geo.n_banks == 128
        assert geo.n_chains == 16
        assert geo.ways_per_bank == 2

    def test_chain_banks_get_slower_with_level(self):
        geo = build_dnuca_geometry()
        lat = [geo.chain_bank(0, level).latency_cycles for level in range(8)]
        assert lat == sorted(lat)

    def test_table4_column_spans_capacity(self):
        geo = build_dnuca_geometry()
        col = geo.table4_column()
        assert len(col) == 8
        means = [row[2] for row in col]
        assert means == sorted(means)
        assert 4 <= means[0] <= 11  # paper: 7
        assert 24 <= means[-1] <= 34  # paper: 29

    def test_probe_cheaper_than_read(self):
        geo = build_dnuca_geometry()
        for bank in geo.banks[:8]:
            assert bank.probe_energy_nj < bank.read_energy_nj

    def test_ss_array_matches_paper_band(self):
        geo = build_dnuca_geometry()
        assert 0.1 <= geo.ss_energy_nj <= 0.3  # paper: 0.19

    def test_chain_bank_validation(self):
        geo = build_dnuca_geometry()
        with pytest.raises(ConfigurationError):
            geo.chain_bank(99, 0)
        with pytest.raises(ConfigurationError):
            geo.chain_bank(0, 99)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_dnuca_geometry(capacity_bytes=MB + 1)
        with pytest.raises(ConfigurationError):
            build_dnuca_geometry(associativity=10)


class TestUniformCacheSpec:
    def test_pinned_latency(self):
        spec = build_uniform_cache_spec("L2", MB, 128, 8, latency_cycles=11)
        assert spec.latency_cycles == 11

    def test_derived_latency_when_unpinned(self):
        spec = build_uniform_cache_spec("L2", MB, 128, 8)
        assert spec.latency_cycles > 0

    def test_parallel_access_burns_more_energy(self):
        seq = build_uniform_cache_spec("a", MB, 128, 8, sequential_tag_data=True)
        par = build_uniform_cache_spec("b", MB, 128, 8, sequential_tag_data=False)
        assert par.read_energy_nj > seq.read_energy_nj

    def test_sequential_access_is_slower(self):
        seq = build_uniform_cache_spec("a", MB, 128, 8, sequential_tag_data=True)
        par = build_uniform_cache_spec("b", MB, 128, 8, sequential_tag_data=False)
        assert seq.latency_cycles >= par.latency_cycles

    def test_ports_and_energy_factor_multiply(self):
        one = build_uniform_cache_spec("a", 64 * 1024, 32, 2)
        two = build_uniform_cache_spec("b", 64 * 1024, 32, 2, ports=2)
        fat = build_uniform_cache_spec("c", 64 * 1024, 32, 2, energy_factor=3.0)
        assert two.read_energy_nj == pytest.approx(2 * one.read_energy_nj)
        assert fat.read_energy_nj == pytest.approx(3 * one.read_energy_nj)


class TestMemoisedCharacterisation:
    """Spec and geometry builders are memoised pure functions."""

    def test_builds_share_specs_and_geometry(self):
        from repro.sim.config import (
            base_config,
            build_system,
            dnuca_config,
            nurapid_config,
        )

        for config in (base_config(), nurapid_config(), dnuca_config()):
            first, second = build_system(config), build_system(config)
            assert first[1] is not second[1]  # fresh caches ...
            assert first[1].spec is second[1].spec  # ... one L1 spec
            assert first[0].l1i.spec is second[0].l1i.spec
            for a, b in zip(first[2], second[2]):
                assert a is not b
                if hasattr(a, "spec"):
                    assert a.spec is b.spec
                else:
                    assert a.geometry is b.geometry

    def test_tables_byte_unchanged(self):
        """Table 2 and Table 4 text digests from before memoisation."""
        import hashlib

        from repro.experiments import run_experiment
        from repro.experiments.common import SMOKE

        digests = {
            name: hashlib.sha256(
                run_experiment(name, SMOKE).to_text().encode()
            ).hexdigest()
            for name in ("table2", "table4")
        }
        assert digests == {
            "table2": "df12ed127ee3c8511042178dcb23cd45b277ea1c7ef7e08e8f40f3646d618d09",
            "table4": "c5321ed9db2b0e96d0c3b7103c39c894e0631d760bb6c1cd0b99a1325027d143",
        }
