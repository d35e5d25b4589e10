"""S-NUCA: static mapping, no search, no movement."""

import pytest

from repro.common.errors import ConfigurationError
from repro.nuca.snuca import SNUCACache

KB = 1024


def tiny():
    return SNUCACache(
        capacity_bytes=512 * KB, block_bytes=128, associativity=16, name="tiny-snuca"
    )


def addr(set_index, tag, sets=256):
    return (tag * sets + set_index) * 128


class TestStaticMapping:
    def test_bank_fixed_by_set(self):
        c = tiny()
        bank_a = c.bank_of_set(3)
        assert c.bank_of_set(3) is bank_a  # deterministic
        assert c.bank_of_set(3 + c.geometry.n_banks).index == bank_a.index

    def test_block_never_moves(self):
        c = tiny()
        a = addr(3, 1)
        c.fill(a)
        for _ in range(11):
            assert c.access(a).hit
        # Every hit is served by the same bank row.
        assert list(c.dgroup_hits.counts.values()) == [11]

    def test_hit_latency_is_the_banks(self):
        c = tiny()
        a = addr(3, 1)
        c.fill(a)
        bank = c.bank_of_set(c._set_of(a))
        assert c.access(a, now=10_000.0).latency == bank.latency_cycles

    def test_miss_pays_the_same_bank(self):
        c = tiny()
        a = addr(3, 1)
        bank = c.bank_of_set(c._set_of(a))
        assert c.access(a, now=10_000.0).latency == bank.latency_cycles

    def test_different_sets_see_different_latencies(self):
        c = tiny()
        latencies = set()
        for index in range(0, c.n_sets, 13):
            latencies.add(c.bank_of_set(index).latency_cycles)
        assert len(latencies) > 3  # genuinely non-uniform


class TestReplacement:
    def test_lru_within_set(self):
        c = tiny()
        for tag in range(16):
            c.fill(addr(5, tag))
        c.access(addr(5, 0))
        c.fill(addr(5, 99))
        assert c.contains(addr(5, 0))
        assert not c.contains(addr(5, 1))

    def test_dirty_writeback(self):
        c = tiny()
        for tag in range(16):
            c.fill(addr(5, tag))
        c.access(addr(5, 0), is_write=True)
        for tag in range(1, 16):
            c.access(addr(5, tag))
        assert c.fill(addr(5, 99)) == 1

    def test_prewarm_and_reset(self):
        c = tiny()
        c.prewarm()
        assert sum(b >= 0 for b in c.resident_block_addrs()) == 512 * KB // 128
        c.access(addr(0, 0))
        c.reset_stats()
        assert c.stats.get("accesses") == 0
        c.check_invariants()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SNUCACache(capacity_bytes=512 * KB, block_bytes=128, associativity=7)


class TestSystemIntegration:
    def test_runs_through_driver(self):
        from repro.sim import run_benchmark, snuca_config

        r = run_benchmark(snuca_config(), "wupwise", n_references=25_000, seed=2)
        assert r.ipc > 0
        assert r.dgroup_fractions  # per-row latency tiers reported
