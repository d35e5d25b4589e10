"""Conventional set-associative cache behaviour."""

import pytest

from repro.caches.simple import SetAssociativeCache
from repro.floorplan.dgroups import UniformCacheSpec

KB = 1024


def make_cache(capacity=8 * KB, block=64, assoc=2, latency=11):
    spec = UniformCacheSpec(
        name="test",
        capacity_bytes=capacity,
        block_bytes=block,
        associativity=assoc,
        latency_cycles=latency,
        read_energy_nj=0.1,
        write_energy_nj=0.12,
        tag_energy_nj=0.01,
    )
    return SetAssociativeCache(spec)


class TestAccessPath:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        r = c.access(0x1000)
        assert not r.hit
        assert r.latency == 11
        c.fill(0x1000)
        r = c.access(0x1000)
        assert r.hit
        assert c.hits == 1 and c.misses == 1

    def test_same_block_offsets_hit(self):
        c = make_cache(block=64)
        c.fill(0x1000)
        assert c.access(0x1001).hit
        assert c.access(0x103F).hit
        assert not c.access(0x1040).hit

    def test_write_hit_sets_dirty(self):
        c = make_cache()
        c.fill(0x1000)
        c.access(0x1000, is_write=True)
        c.fill(0x2000)  # same set of the 64 64-byte sets
        writebacks, _, victim = c.fill_outcome(0x3000)
        assert victim == 0x1000 and writebacks == 1

    def test_energy_charged_per_access(self):
        c = make_cache()
        c.access(0x1000)
        c.fill(0x1000)  # fill charges a write
        c.access(0x1000)
        assert c.energy.count("test.read") == 2
        assert c.energy.count("test.write") == 1


class TestReplacement:
    def test_lru_eviction_within_set(self):
        c = make_cache(capacity=4 * KB, block=64, assoc=2)  # 32 sets
        sets = c.n_sets
        a, b, d = (tag * sets * 64 for tag in (1, 2, 3))  # all map to set 0
        c.fill(a)
        c.fill(b)
        c.access(a)  # a is MRU
        writebacks, _, victim = c.fill_outcome(d)
        assert victim == b and writebacks == 0
        assert c.contains(a) and c.contains(d) and not c.contains(b)

    def test_dirty_eviction_counts_writeback(self):
        c = make_cache(capacity=4 * KB, block=64, assoc=2)
        sets = c.n_sets
        a, b, d = (tag * sets * 64 for tag in (1, 2, 3))
        c.fill(a, dirty=True)
        c.fill(b)
        c.fill(d)  # evicts a (LRU, dirty)
        assert c.writebacks == 1

    def test_duplicate_fill_is_noop(self):
        c = make_cache()
        c.fill(0x1000)
        writes = c.energy.count("test.write")
        assert c.fill_outcome(0x1000) == (0, None, -1)
        assert c.energy.count("test.write") == writes
        assert c.occupancy() == 1

    def test_occupancy_bounded_by_capacity(self):
        c = make_cache(capacity=2 * KB, block=64, assoc=2)
        for i in range(200):
            c.fill(i * 64)
        assert c.occupancy() <= 2 * KB // 64


class TestInvalidate:
    def test_invalidate_removes(self):
        c = make_cache()
        c.fill(0x1000)
        assert c.invalidate(0x1000) is True
        assert not c.contains(0x1000)

    def test_invalidate_absent_returns_false(self):
        assert make_cache().invalidate(0x1000) is False


class TestStats:
    def test_miss_rate(self):
        c = make_cache()
        assert c.miss_rate == 0.0
        c.access(0)
        c.fill(0)
        c.access(0)
        assert c.miss_rate == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        c = make_cache()
        c.access(0x1000)
        c.fill(0x1000)
        c.reset_stats()
        assert c.hits == 0 and c.misses == 0
        assert c.contains(0x1000)
        assert c.energy.total_nj() == 0.0
