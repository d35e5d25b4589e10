"""Set-associative-placement non-uniform cache (Figure 4 baseline)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.floorplan.dgroups import build_nurapid_geometry

KB = 1024


def tiny(**overrides):
    defaults = dict(
        capacity_bytes=64 * KB,
        block_bytes=64,
        associativity=4,
        n_dgroups=4,
        geometry=build_nurapid_geometry(
            n_dgroups=4, capacity_bytes=64 * KB, block_bytes=64, associativity=4
        ),
        name="tiny-sa",
    )
    defaults.update(overrides)
    return SetAssociativePlacementCache(**defaults)


def addr(set_index, tag, block=64, sets=256):
    return (tag * sets + set_index) * block


class TestCoupling:
    def test_ways_bind_to_dgroups(self):
        c = tiny()
        assert c.ways_per_dgroup == 1
        assert [c.dgroup_of_way(w) for w in range(4)] == [0, 1, 2, 3]

    def test_fill_places_in_fastest_way(self):
        c = tiny()
        c.fill(0x1000)
        assert c.dgroup_of(0x1000) == 0

    def test_fill_demotes_previous_occupant(self):
        """Coupled placement's curse: every fill demotes a same-set block."""
        c = tiny()
        a, b = addr(3, 0), addr(3, 1)
        c.fill(a)
        c.fill(b)
        assert c.dgroup_of(b) == 0
        assert c.dgroup_of(a) == 1  # pushed out by the new arrival
        assert c.stats.get("demotions") == 1

    def test_at_most_one_way_per_dgroup_is_fast(self):
        """Only ways_per_dgroup blocks of a set can ever be in d-group 0."""
        c = tiny()
        for tag in range(4):
            c.fill(addr(5, tag))
        groups = [c.dgroup_of(addr(5, t)) for t in range(4)]
        assert sorted(groups) == [0, 1, 2, 3]

    def test_eviction_from_slowest_group(self):
        c = tiny()
        for tag in range(5):
            c.fill(addr(5, tag))
        # tag 0 was pushed to the slowest way and then evicted.
        assert not c.contains(addr(5, 0))
        assert c.stats.get("evictions") == 1

    def test_promotion_swaps_within_set(self):
        c = tiny()
        a, b = addr(3, 0), addr(3, 1)
        c.fill(a)
        c.fill(b)  # a at group 1, b at group 0
        c.access(a)  # promote a back to group 0, demoting b
        assert c.dgroup_of(a) == 0
        assert c.dgroup_of(b) == 1
        c.check_invariants()

    def test_promotion_disabled(self):
        c = tiny(promote=False)
        a, b = addr(3, 0), addr(3, 1)
        c.fill(a)
        c.fill(b)
        c.access(a)
        assert c.dgroup_of(a) == 1


class TestAccessPath:
    def test_miss_then_hit(self):
        c = tiny()
        assert not c.access(0x1000).hit
        c.fill(0x1000)
        assert c.dgroup_of(0x1000) == 0
        r = c.access(0x1000)
        assert r.hit
        assert r.latency == c.geometry.hit_latency(0)

    def test_miss_latency_is_tag_only(self):
        c = tiny()
        assert c.access(0x9000).latency == c.geometry.tag_cycles

    def test_dirty_eviction_reports_writeback(self):
        c = tiny()
        c.fill(addr(5, 0), dirty=True)
        for tag in range(1, 4):
            c.fill(addr(5, tag))
        assert c.fill(addr(5, 9)) == 1

    def test_hot_set_bounces_between_groups(self):
        """More hot blocks than fast ways: accesses split across groups."""
        c = tiny()
        hot = [addr(7, t) for t in range(3)]
        for a in hot:
            c.fill(a)
        for _ in range(30):
            for a in hot:
                c.access(a)
        fr = c.dgroup_hits.fractions()
        assert fr.get(0, 0.0) < 0.75  # cannot serve all three fast
        c.check_invariants()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativePlacementCache(associativity=6, n_dgroups=4)

    def test_reset_stats(self):
        c = tiny()
        c.fill(0x1000)
        c.access(0x1000)
        c.reset_stats()
        assert c.stats.get("accesses") == 0
        assert c.contains(0x1000)
