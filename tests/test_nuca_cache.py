"""D-NUCA: search policies, bubble promotion, tail insertion, ss-array."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.floorplan.dgroups import build_dnuca_geometry
from repro.nuca.cache import DNUCACache
from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.nuca.smart_search import SmartSearchArray

KB = 1024


def tiny(policy=SearchPolicy.SS_PERFORMANCE, **overrides):
    defaults = dict(
        capacity_bytes=512 * KB,
        block_bytes=128,
        associativity=16,
        bank_bytes=64 * KB,
        chain_length=8,
        policy=policy,
        seed=7,
        name="tiny-nuca",
    )
    defaults.update(overrides)
    return DNUCACache(DNUCAConfig(**defaults))


def addr(set_index, tag, block=128, sets=256):
    return (tag * sets + set_index) * block


class TestInsertion:
    def test_tail_insertion_places_in_slowest_bank(self):
        c = tiny()
        c.fill(0x10000)
        assert c.level_of(0x10000) == c.config.chain_length - 1

    def test_head_insertion_places_in_fastest_bank(self):
        c = tiny(tail_insertion=False)
        c.fill(0x10000)
        assert c.level_of(0x10000) == 0

    def test_eviction_takes_slowest_way(self):
        c = tiny()
        # 2 ways per bank: fill 3 blocks into one set's tail.
        for tag in range(3):
            c.fill(addr(9, tag))
        # tag 0 was the tail's LRU and must have been evicted.
        assert not c.contains(addr(9, 0))
        assert c.contains(addr(9, 1)) and c.contains(addr(9, 2))
        assert c.stats.get("evictions") == 1

    def test_eviction_is_not_global_lru(self):
        """The bubble victim may not be the set's LRU block (paper §2.2)."""
        c = tiny()
        hot = addr(9, 0)
        c.fill(hot)
        c.access(hot)  # promote it one level away from the tail
        assert c.level_of(hot) == 6
        cold = addr(9, 1)
        c.fill(cold)
        # Set LRU is arguably `cold` after hot's touch, but tail
        # eviction targets the tail bank where only `cold` lives.
        c.fill(addr(9, 2))
        c.fill(addr(9, 3))
        assert c.contains(hot)
        assert not c.contains(cold)

    def test_dirty_tail_eviction_reports_writeback(self):
        c = tiny()
        victim = addr(9, 0)
        c.fill(victim, dirty=True)
        c.fill(addr(9, 1))
        writebacks = c.fill(addr(9, 2))
        assert writebacks == 1


class TestPromotion:
    def test_hit_promotes_one_level(self):
        c = tiny()
        a = 0x10000
        c.fill(a)
        start = c.level_of(a)
        c.access(a)
        assert c.level_of(a) == start - 1
        c.check_invariants()

    def test_repeated_hits_bubble_to_fastest(self):
        c = tiny()
        a = 0x10000
        c.fill(a)
        for _ in range(c.config.chain_length - 1):
            c.access(a)
        assert c.level_of(a) == 0
        c.access(a)
        assert c.level_of(a) == 0  # already fastest; no further move

    def test_promotion_swaps_with_occupied_way(self):
        """With both level-0 ways full, a promotion displaces the LRU one."""
        c = tiny()
        a1, a2, b = addr(3, 0), addr(3, 1), addr(3, 2)
        for block in (a1, a2):
            c.fill(block)
            for _ in range(7):
                c.access(block)
        assert c.level_of(a1) == 0 and c.level_of(a2) == 0
        c.fill(b)
        for _ in range(6):
            c.access(b)  # b at level 1
        c.access(a2)  # make a1 the level-0 LRU
        c.access(b)  # b swaps into level 0, displacing a1 to level 1
        assert c.level_of(b) == 0
        assert c.level_of(a1) == 1
        assert c.level_of(a2) == 0
        assert c.stats.get("demotions") >= 1
        c.check_invariants()

    def test_promotion_disabled(self):
        c = tiny(promote_on_hit=False)
        a = 0x10000
        c.fill(a)
        c.access(a)
        assert c.level_of(a) == c.config.chain_length - 1


class TestSearchPolicies:
    def test_ss_performance_early_miss_latency(self):
        c = tiny(policy=SearchPolicy.SS_PERFORMANCE)
        r = c.access(0x77000)
        assert not r.hit
        assert r.latency == c.geometry.ss_latency_cycles
        assert c.stats.get("early_misses") == 1

    def test_ss_performance_probes_every_bank(self):
        c = tiny(policy=SearchPolicy.SS_PERFORMANCE)
        c.fill(0x10000)
        c.access(0x10000)
        # 7 probes + 1 data read on the hit access; the fill itself
        # does not probe.
        assert c.stats.get("bank_probes") == 7

    def test_ss_energy_skips_banks_on_clean_miss(self):
        c = tiny(policy=SearchPolicy.SS_ENERGY)
        r = c.access(0x77000)
        assert not r.hit
        assert c.stats.get("bank_probes", ) == 0
        assert r.latency == c.geometry.ss_latency_cycles

    def test_ss_energy_hit_probes_up_to_the_block(self):
        c = tiny(policy=SearchPolicy.SS_ENERGY)
        c.fill(0x10000)
        r = c.access(0x10000)
        assert r.hit
        # Only the one candidate bank is touched (no false hits here).
        assert c.stats.get("dgroup_accesses") >= 1

    def test_incremental_searches_without_ss_array(self):
        c = tiny(policy=SearchPolicy.INCREMENTAL)
        c.fill(0x10000)
        r = c.access(0x10000)
        assert r.hit
        # Probed all 7 closer banks before finding it at the tail.
        assert c.stats.get("bank_probes") == 7

    def test_hit_latency_reflects_bank(self):
        c = tiny(policy=SearchPolicy.SS_PERFORMANCE)
        a = 0x10000
        c.fill(a)
        tail_bank = c._bank_of(c._set_of(a), c.config.chain_length - 1)
        r = c.access(a, now=10_000.0)
        assert r.latency >= tail_bank.latency_cycles

    def test_promoted_block_hits_faster(self):
        c = tiny(policy=SearchPolicy.SS_PERFORMANCE)
        a = 0x10000
        c.fill(a)
        slow = c.access(a, now=10_000.0).latency
        for _ in range(7):
            c.access(a, now=20_000.0)
        fast = c.access(a, now=50_000.0).latency
        assert fast < slow


def ss_slot(set_index, level, position=0, assoc=16, ways_per_bank=2):
    """Flat slot of way ``position`` of ``level`` in ``set_index``."""
    return set_index * assoc + level * ways_per_bank + position


class TestSmartSearchArray:
    def _array(self):
        return SmartSearchArray(256, 16, 8, 7, 128)

    def test_candidates_track_residency(self):
        ss = self._array()
        ss.insert(ss_slot(3, 5), addr(3, 1))
        assert ss.candidate_levels(3, addr(3, 1)) == [5]
        ss.move(ss_slot(3, 5), ss_slot(3, 2, position=1))
        assert ss.candidate_levels(3, addr(3, 1)) == [2]
        # A swap: the block at level 4 and the one at level 2 trade places.
        ss.insert(ss_slot(3, 4), addr(3, 2))
        ss.move(ss_slot(3, 4), ss_slot(3, 2, position=1))
        assert ss.candidate_levels(3, addr(3, 1)) == [4]
        assert ss.candidate_levels(3, addr(3, 2)) == [2]
        ss.remove(ss_slot(3, 4))
        assert ss.candidate_levels(3, addr(3, 1)) == []
        # Other sets never see this set's partial tags.
        ss.insert(ss_slot(4, 6), addr(4, 2))
        assert ss.candidate_levels(3, addr(3, 2)) == [2]

    def test_partial_tags_can_alias(self):
        ss = self._array()
        a = addr(3, 1)
        b = addr(3, 1 + 128)  # tags differ by exactly 2^7: same partial
        assert ss.partial_tag(a) == ss.partial_tag(b)
        ss.insert(ss_slot(3, 4), a)
        assert ss.candidate_levels(3, b) == [4]  # a false candidate
        # Two matching ways of one level report the level once.
        ss.insert(ss_slot(3, 4, position=1), b)
        ss.insert(ss_slot(3, 7), addr(3, 1 + 256))
        assert ss.candidate_levels(3, a) == [4, 7]

    def test_distinct_partials_do_not_match(self):
        ss = self._array()
        a, b = addr(3, 1), addr(3, 2)
        ss.insert(ss_slot(3, 4), a)
        assert ss.candidate_levels(3, b) == []

    def test_mirror_errors(self):
        from repro.common.errors import SimulationError

        ss = self._array()
        with pytest.raises(SimulationError):
            ss.remove(0)
        with pytest.raises(SimulationError):
            ss.move(0, 2)
        ss.insert(0, addr(0, 1))
        with pytest.raises(SimulationError):
            ss.insert(0, addr(0, 2))
        with pytest.raises(SimulationError):
            ss.remove(256 * 16)


class TestInvariantsAndConfig:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 500),
        policy=st.sampled_from(list(SearchPolicy)),
    )
    def test_random_traffic_preserves_invariants(self, seed, policy):
        import random

        c = tiny(policy=policy, seed=seed)
        rng = random.Random(seed)
        now = 0.0
        for _ in range(600):
            a = rng.randrange(0, 2 * 512 * KB) & ~127
            r = c.access(a, is_write=rng.random() < 0.3, now=now)
            now += 9
            if not r.hit:
                c.fill(a, now=now)
        c.check_invariants()
        assert c.stats.get("hits") + c.stats.get("misses") == c.stats.get("accesses")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DNUCAConfig(capacity_bytes=512 * KB, associativity=10, chain_length=8)
        with pytest.raises(ConfigurationError):
            DNUCAConfig(capacity_bytes=512 * KB + 1)
        with pytest.raises(ConfigurationError):
            DNUCAConfig(ss_partial_bits=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("chain_length", 4),
            ("sets", 128),
            ("block_bytes", 64),
            ("associativity", 8),
            ("ways_per_bank", 1),
            ("ss_partial_bits", 9),
        ],
    )
    def test_geometry_mismatch_names_the_field(self, field, value):
        config = DNUCAConfig(capacity_bytes=512 * KB, bank_bytes=64 * KB, name="g")
        geometry = build_dnuca_geometry(capacity_bytes=512 * KB, bank_bytes=64 * KB)
        DNUCACache(config, geometry=geometry)  # the matching geometry is accepted
        with pytest.raises(ConfigurationError, match=f"disagree on {field}:"):
            DNUCACache(config, geometry=replace(geometry, **{field: value}))

    def test_check_invariants_detects_each_corruption(self):
        from repro.common.errors import SimulationError

        def cache_with_block():
            c = tiny()
            c.fill(0x10000)
            c.check_invariants()
            return c, c._where[0x10000]

        c, slot = cache_with_block()
        c._where[0x10000] = slot + 1  # map disagrees with the slot
        with pytest.raises(SimulationError, match="map says"):
            c.check_invariants()
        c, slot = cache_with_block()
        c.smart_search._partial[slot] ^= 1  # stale partial tag
        with pytest.raises(SimulationError, match="ss-array stale"):
            c.check_invariants()
        c, slot = cache_with_block()
        c._where[0x20000] = slot  # a mapped block no slot holds
        with pytest.raises(SimulationError, match="occupied slots"):
            c.check_invariants()

    def test_reset_stats_keeps_contents(self):
        c = tiny()
        c.fill(0x10000)
        c.access(0x10000)
        c.reset_stats()
        assert c.contains(0x10000)
        assert c.stats.get("accesses") == 0
        assert c.energy.total_nj() == 0.0
