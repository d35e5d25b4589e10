"""Coverage for smaller corners: distance replacer, hierarchy
writeback edge cases, cacti organization geometry."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.config import DistanceReplacementKind, NuRAPIDConfig
from repro.tech.cacti import MiniCacti

KB = 1024


def tiny(**overrides):
    defaults = dict(
        capacity_bytes=64 * KB, block_bytes=64, associativity=4, n_dgroups=4,
        seed=7, name="tiny",
    )
    defaults.update(overrides)
    return NuRAPIDCache(NuRAPIDConfig(**defaults))


def addr(set_index, tag):
    return (tag * 256 + set_index) * 64


def fill_dgroup0(c):
    """One block per set until d-group 0 is full; returns the blocks in
    fill order (block ``k`` takes frame ``255 - k``)."""
    blocks = [addr(i, 0) for i in range(c.config.frames_per_dgroup)]
    for block in blocks:
        c.fill(block)
    return blocks


class TestDistanceReplacer:
    """Victim order within a d-group, per replacement kind, on a tiny
    64 KB, 4-way, 4-d-group cache (256 sets, 256 frames per d-group)."""

    def test_random_kind_selects_members(self):
        """Random draws from a swap-remove list of the region's frames."""
        c = tiny()
        blocks = fill_dgroup0(c)
        # Reference: frames in tracking order, removed by swapping in
        # the last entry, drawn with the region's own stream.
        keys = [255 - k for k in range(256)]
        occupant = {255 - k: block for k, block in enumerate(blocks)}
        draw = DeterministicRNG(7, "tiny/distance").spawn("dg0/r0").randint
        for tag in range(1, 41):
            incoming = addr(tag, 1)
            frame = keys[draw(0, len(keys) - 1)]
            c.fill(incoming)
            assert c.dgroup_of(occupant[frame]) == 1
            assert c.lookup(incoming).frame == frame
            occupant[frame] = incoming
            at, last = keys.index(frame), keys.pop()
            if last != frame:
                keys[at] = last
            keys.append(frame)
        c.check_invariants()

    def test_approx_lru_clock_gives_touched_blocks_a_second_chance(self):
        c = tiny(distance_replacement=DistanceReplacementKind.APPROX_LRU)
        blocks = fill_dgroup0(c)
        # Every reference bit is set: the first sweep clears them all
        # and wraps to the first frame tracked (block 0's).
        c.fill(addr(0, 1))
        assert c.dgroup_of(blocks[0]) == 1
        # Swap-remove moved the last-tracked frame (block 255's) under
        # the hand; its bit is clear, so it goes next.
        c.fill(addr(1, 1))
        assert c.dgroup_of(blocks[255]) == 1
        # The hand now sits on the first fill's frame (bit set again),
        # then block 1's frame: a hit sets its bit, so it is spared.
        c.access(blocks[1])
        c.fill(addr(2, 1))
        assert c.dgroup_of(blocks[1]) == 0
        assert c.dgroup_of(blocks[2]) == 1
        c.check_invariants()

    def test_selection_does_not_remove(self):
        """A distance victim moves outward; nothing leaves the cache."""
        c = tiny()
        blocks = fill_dgroup0(c)
        c.fill(addr(0, 1))
        assert c.resident_blocks() == len(blocks) + 1
        assert all(c.contains(block) for block in blocks)
        assert [occupied for occupied, _ in c.dgroup_occupancy()] == [256, 1, 0, 0]

    def test_tracks_per_dgroup_and_region(self):
        """A full region demotes its own blocks; other regions keep
        taking free frames."""
        c = tiny(restricted_frames=64)  # 4 regions of 64 frames
        region0 = [addr(index, 0) for index in range(0, 256, 4)]
        for block in region0:
            c.fill(block)
        c.fill(addr(0, 1))  # region 0 is full in d-group 0
        c.fill(addr(1, 0))  # region 1 is not
        demoted = [block for block in region0 if c.dgroup_of(block) == 1]
        assert len(demoted) == 1
        assert c.lookup(demoted[0]).frame // 64 == 0
        assert c.lookup(addr(1, 0)).frame == 127
        c.check_invariants()

    def test_bounds_checked(self):
        """A packed tag entry names one of at most 15 d-groups."""
        with pytest.raises(ConfigurationError):
            tiny(n_dgroups=0)
        with pytest.raises(ConfigurationError):
            tiny(capacity_bytes=16 * 4 * 64, n_dgroups=16)

    def test_lru_victim_order(self):
        c = tiny(distance_replacement=DistanceReplacementKind.LRU)
        blocks = fill_dgroup0(c)
        c.access(blocks[0])
        c.fill(addr(0, 1))
        assert c.dgroup_of(blocks[0]) == 0
        assert c.dgroup_of(blocks[1]) == 1
        c.check_invariants()


class TestHierarchyEdgeCases:
    def _system(self):
        from repro.caches.hierarchy import CacheHierarchy
        from repro.caches.memory import MainMemory
        from repro.caches.simple import SetAssociativeCache
        from repro.floorplan.dgroups import build_uniform_cache_spec

        l1 = SetAssociativeCache(
            build_uniform_cache_spec("L1", 2 * KB, 32, 2, latency_cycles=3)
        )
        l2 = SetAssociativeCache(
            build_uniform_cache_spec("L2", 8 * KB, 128, 2, latency_cycles=11)
        )
        memory = MainMemory()
        return (
            CacheHierarchy(l1d=l1, lower=[l2], memory=memory),
            l1,
            l2,
            memory,
        )

    def test_l1_writeback_missing_in_l2_goes_to_memory(self):
        from repro.common.types import Access, AccessType

        hierarchy, l1, l2, memory = self._system()
        base = 0x10000
        hierarchy.access(Access(base, AccessType.WRITE))
        # Evict the dirty line from the L2 so the L1 writeback misses.
        l2.invalidate(base)
        writes_before = memory.writes
        hierarchy._writeback_from_l1(base, now=100.0)
        assert memory.writes == writes_before + 1
        assert hierarchy.stats.get("l1_writebacks_to_memory") == 1

    def test_writeback_hit_stays_in_l2(self):
        from repro.common.types import Access, AccessType

        hierarchy, l1, l2, memory = self._system()
        base = 0x10000
        hierarchy.access(Access(base, AccessType.WRITE))
        writes_before = memory.writes
        hierarchy._writeback_from_l1(base, now=100.0)
        assert memory.writes == writes_before


class TestCactiOrganizations:
    def test_grid_covers_count(self):
        mc = MiniCacti()
        model = mc.data_array(1024 * KB, 128)
        org = model.organization
        assert org.grid_width * org.grid_height >= org.count

    def test_routing_distance_positive(self):
        mc = MiniCacti()
        org = mc.data_array(256 * KB, 128).organization
        assert org.routing_distance_mm > 0
        assert org.htree_levels >= 1

    def test_dimensions_scale_with_grid(self):
        mc = MiniCacti()
        small = mc.data_array(128 * KB, 128).organization
        large = mc.data_array(4096 * KB, 128).organization
        assert large.width_mm * large.height_mm > small.width_mm * small.height_mm

    def test_access_cycles_property(self):
        mc = MiniCacti()
        model = mc.data_array(256 * KB, 128)
        assert model.access_cycles == model.tech.ps_to_cycles(model.access_time_ps)
        assert model.read_energy_nj == pytest.approx(model.read_energy_pj / 1000.0)
