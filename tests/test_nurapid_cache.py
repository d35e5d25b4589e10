"""NuRAPID cache: placement, distance replacement, promotion, timing.

Uses a tiny 64 KB / 4-d-group / 4-way configuration (256 frames per
d-group) so structural behaviours are exhaustively reachable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.config import (
    DistanceReplacementKind,
    NuRAPIDConfig,
    PromotionPolicy,
)

KB = 1024


def tiny(promotion=PromotionPolicy.NEXT_FASTEST, **overrides):
    defaults = dict(
        capacity_bytes=64 * KB,
        block_bytes=64,
        associativity=4,
        n_dgroups=4,
        promotion=promotion,
        distance_replacement=DistanceReplacementKind.RANDOM,
        seed=7,
        name="tiny",
    )
    defaults.update(overrides)
    return NuRAPIDCache(NuRAPIDConfig(**defaults))


def addr(set_index, tag, block=64, sets=256):
    return (tag * sets + set_index) * block


class TestPlacement:
    def test_fill_places_in_fastest_dgroup(self):
        c = tiny()
        c.fill(0x1000)
        assert c.dgroup_of(0x1000) == 0

    def test_all_ways_of_a_set_can_be_fast(self):
        """The headline flexibility: a whole hot set in d-group 0."""
        c = tiny()
        for tag in range(4):
            c.fill(addr(5, tag))
        assert all(c.dgroup_of(addr(5, t)) == 0 for t in range(4))

    def test_demotion_chain_when_dgroup0_full(self):
        c = tiny()
        frames = c.config.frames_per_dgroup  # 256
        for i in range(frames + 1):
            c.fill(i * 64)
        occupancy = c.dgroup_occupancy()
        assert occupancy[0][0] == frames  # d-group 0 stays full
        assert occupancy[1][0] == 1  # one block was demoted
        assert c.stats.get("demotions") == 1
        c.check_invariants()

    def test_demotion_never_evicts(self):
        c = tiny()
        n = c.config.frames_per_dgroup + 50
        for i in range(n):
            c.fill(i * 64)
        assert c.resident_blocks() == n
        assert c.stats.get("evictions") == 0

    def test_set_conflict_evicts_lru(self):
        c = tiny()
        for tag in range(5):
            c.fill(addr(3, tag))
        assert not c.contains(addr(3, 0))
        assert c.resident_blocks() == 4
        assert c.stats.get("evictions") == 1

    def test_eviction_frees_frame_for_chain(self):
        """After an eviction the demotion chain ends at the freed frame."""
        c = tiny()
        # Fill d-group 0 completely with conflicting + spread blocks.
        for i in range(c.config.frames_per_dgroup):
            c.fill(i * 64)
        before = c.resident_blocks()
        # A fill into a full set: evict one, place one; occupancy steady.
        set_of_first = 0
        c.fill(addr(set_of_first, 9))
        c.check_invariants()
        assert c.resident_blocks() <= before + 1

    def test_duplicate_fill_is_noop(self):
        c = tiny()
        c.fill(0x1000)
        assert c.fill(0x1000) == 0
        assert c.resident_blocks() == 1

    def test_dirty_eviction_reports_writeback(self):
        c = tiny()
        for tag in range(4):
            c.fill(addr(3, tag))
        c.access(addr(3, 0), is_write=True)
        # Make tag 0 LRU again, then overflow the set.
        for tag in range(1, 4):
            c.access(addr(3, tag))
        writebacks = c.fill(addr(3, 9))
        assert writebacks == 1
        assert c.stats.get("writebacks") == 1


class TestAccess:
    def test_miss_latency_is_tag_only(self):
        c = tiny()
        r = c.access(0x9999)
        assert not r.hit
        assert r.latency == c.geometry.tag_cycles

    def test_hit_latency_matches_dgroup(self):
        c = tiny()
        c.fill(0x1000)
        assert c.dgroup_of(0x1000) == 0
        r = c.access(0x1000, now=1000.0)
        assert r.hit
        assert r.latency == c.geometry.hit_latency(0)

    def test_write_hit_sets_dirty(self):
        c = tiny()
        c.fill(0x1000)
        c.access(0x1000, is_write=True)
        assert c.lookup(0x1000).dirty

    def test_port_contention_delays_back_to_back_hits(self):
        c = tiny()
        c.fill(0x1000)
        c.fill(0x2000)
        first = c.access(0x1000, now=10_000.0)
        second = c.access(0x2000, now=10_000.0)
        assert second.latency > first.latency

    def test_hits_counted_per_dgroup(self):
        c = tiny(promotion=PromotionPolicy.DEMOTION_ONLY)
        c.fill(0x1000)
        c.access(0x1000)
        c.access(0x1000)
        assert c.dgroup_hits.counts[0] == 2


class TestPromotion:
    def _with_block_in_dgroup1(self, promotion):
        """Build a cache with a known block demoted to d-group 1."""
        c = tiny(promotion=promotion, distance_replacement=DistanceReplacementKind.LRU)
        target = 0x100 * 64
        c.fill(target)
        # Fill d-group 0 with other blocks; LRU distance replacement
        # demotes the oldest (our target) first.
        for i in range(1, c.config.frames_per_dgroup + 1):
            c.fill((0x100 + i) * 64)
        assert c.dgroup_of(target) == 1
        return c, target

    def test_demotion_only_never_promotes(self):
        c, target = self._with_block_in_dgroup1(PromotionPolicy.DEMOTION_ONLY)
        c.access(target)
        assert c.dgroup_of(target) == 1
        assert c.stats.get("promotions") == 0

    def test_next_fastest_promotes_one_group(self):
        c, target = self._with_block_in_dgroup1(PromotionPolicy.NEXT_FASTEST)
        c.access(target)
        assert c.dgroup_of(target) == 0
        assert c.stats.get("promotions") == 1
        c.check_invariants()

    def test_promotion_swap_demotes_a_victim(self):
        c, target = self._with_block_in_dgroup1(PromotionPolicy.NEXT_FASTEST)
        occupancy_before = c.dgroup_occupancy()
        c.access(target)
        assert c.dgroup_occupancy() == occupancy_before  # pure swap
        assert c.stats.get("demotions") >= 1

    def test_fastest_promotes_straight_to_dgroup0(self):
        c = tiny(
            promotion=PromotionPolicy.FASTEST,
            distance_replacement=DistanceReplacementKind.LRU,
        )
        target = 0x100 * 64
        c.fill(target)
        # Push the target out two groups.
        for i in range(1, 2 * c.config.frames_per_dgroup + 1):
            c.fill((0x100 + i) * 64)
        assert c.dgroup_of(target) == 2
        c.access(target)
        assert c.dgroup_of(target) == 0
        c.check_invariants()

    def test_latency_reflects_old_dgroup_on_promoting_hit(self):
        c, target = self._with_block_in_dgroup1(PromotionPolicy.NEXT_FASTEST)
        assert c.dgroup_of(target) == 1
        r = c.access(target, now=50_000.0)
        assert c.dgroup_hits.counts == {1: 1}
        assert r.latency >= c.geometry.hit_latency(1)


class TestIdealMode:
    def test_constant_hit_latency(self):
        c = tiny(ideal_uniform=True, distance_replacement=DistanceReplacementKind.LRU)
        target = 0x100 * 64
        c.fill(target)
        for i in range(1, c.config.frames_per_dgroup + 1):
            c.fill((0x100 + i) * 64)
        r = c.access(target)
        assert r.latency == c.geometry.hit_latency(0)

    def test_no_port_queueing(self):
        c = tiny(ideal_uniform=True)
        c.fill(0x1000)
        c.fill(0x2000)
        a = c.access(0x1000, now=0.0)
        b = c.access(0x2000, now=0.0)
        assert a.latency == b.latency

    def test_miss_behaviour_unchanged(self):
        ideal = tiny(ideal_uniform=True)
        real = tiny(ideal_uniform=False)
        for i in range(600):
            a = (i * 37) % 2048 * 64
            ri = ideal.access(a)
            rr = real.access(a)
            assert ri.hit == rr.hit
            if not ri.hit:
                ideal.fill(a)
                real.fill(a)


class TestRestrictedPlacement:
    def test_blocks_stay_in_their_region(self):
        c = tiny(restricted_frames=64)  # 4 regions of 64 frames
        for i in range(1200):
            a = (i * 97) % 4096 * 64
            r = c.access(a)
            if not r.hit:
                c.fill(a)
        c.check_invariants()  # region membership checked inside

    def test_region_count(self):
        c = tiny(restricted_frames=64)
        assert c.config.n_regions == 4


class TestConfigValidation:
    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            NuRAPIDConfig(capacity_bytes=1000, block_bytes=64)

    def test_bad_dgroup_split(self):
        with pytest.raises(ConfigurationError):
            NuRAPIDConfig(
                capacity_bytes=64 * KB, block_bytes=64, associativity=4, n_dgroups=3
            )

    def test_bad_restriction(self):
        with pytest.raises(ConfigurationError):
            NuRAPIDConfig(
                capacity_bytes=64 * KB,
                block_bytes=64,
                associativity=4,
                n_dgroups=4,
                restricted_frames=1000,
            )

    def test_region_set_balance_enforced(self):
        # More regions than sets can never be balanced: must be rejected.
        with pytest.raises(ConfigurationError):
            NuRAPIDConfig(
                capacity_bytes=64 * KB,
                block_bytes=64,
                associativity=8,
                n_dgroups=2,
                restricted_frames=1,
            )


class TestInvariantsUnderStress:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        promotion=st.sampled_from(list(PromotionPolicy)),
        kind=st.sampled_from(list(DistanceReplacementKind)),
    )
    def test_random_traffic_preserves_invariants(self, seed, promotion, kind):
        import random

        c = tiny(promotion=promotion, distance_replacement=kind, seed=seed)
        rng = random.Random(seed)
        now = 0.0
        for _ in range(800):
            a = rng.randrange(0, 4 * 64 * KB) & ~63
            r = c.access(a, is_write=rng.random() < 0.3, now=now)
            now += 7
            if not r.hit:
                c.fill(a, now=now)
        c.check_invariants()
        # Conservation: hits + misses == accesses.
        assert c.stats.get("hits") + c.stats.get("misses") == c.stats.get("accesses")


class TestEnergyAccounting:
    def test_tag_probe_charged_every_access(self):
        c = tiny()
        c.access(0x1000)
        c.fill(0x1000)
        c.access(0x1000)
        assert c.energy.count("tiny.tag_probe") == 2

    def test_fill_charges_dgroup0_write(self):
        c = tiny()
        c.fill(0x1000)
        assert c.energy.count("tiny.dg0.write") == 1

    def test_swap_charges_moves_both_ways(self):
        c = tiny(distance_replacement=DistanceReplacementKind.LRU)
        target = 0x100 * 64
        c.fill(target)
        for i in range(1, c.config.frames_per_dgroup + 1):
            c.fill((0x100 + i) * 64)
        c.access(target)  # promotes: moves 1->0 and 0->1
        assert c.energy.count("tiny.move.1->0") == 1
        assert c.energy.count("tiny.move.0->1") >= 1
