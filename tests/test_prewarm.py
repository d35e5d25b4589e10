"""Prewarm: the steady-state initial condition for all cache models."""

import random

import pytest

from repro.common import prewarm_cache
from repro.common.errors import SimulationError
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.caches.simple import SetAssociativeCache
from repro.floorplan.dgroups import build_nurapid_geometry, build_uniform_cache_spec
from repro.nuca.cache import DNUCACache
from repro.cmp.config import CompressionConfig
from repro.nuca.config import DNUCAConfig
from repro.nuca.snuca import SNUCACache
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.compression import CompressedNuRAPIDCache
from repro.nurapid.config import NuRAPIDConfig

KB = 1024


class TestNuRAPIDPrewarm:
    def _cache(self):
        return NuRAPIDCache(
            NuRAPIDConfig(
                capacity_bytes=64 * KB, block_bytes=64, associativity=4,
                n_dgroups=4, name="pw",
            )
        )

    def test_fills_every_frame(self):
        c = self._cache()
        c.prewarm()
        assert c.resident_blocks() == c.config.n_blocks
        for occupied, total in c.dgroup_occupancy():
            assert occupied == total
        c.check_invariants()

    def test_dummies_spread_over_dgroups(self):
        c = self._cache()
        c.prewarm()
        # Every set has one dummy way in each d-group (assoc 4 / 4 groups).
        for way in range(4):
            addr = c.PREWARM_BASE + (way * c.config.n_sets + 0) * 64
            assert c.dgroup_of(addr) == way

    def test_fill_after_prewarm_triggers_demotion_chain(self):
        c = self._cache()
        c.prewarm()
        # First fill evicts the set's LRU dummy (the d-group-0 one),
        # whose freed frame absorbs the new block directly.
        c.fill(0x1000)
        assert c.dgroup_of(0x1000) == 0
        assert c.stats.get("evictions") == 1
        assert c.stats.get("demotions") == 0
        # Second fill to the same set evicts the d-group-1 dummy, so
        # placing in the (full) d-group 0 must run a demotion chain.
        sets = c.config.n_sets
        c.fill(0x1000 + sets * 64)
        assert c.stats.get("evictions") == 2
        assert c.stats.get("demotions") == 1
        c.check_invariants()

    def test_dummy_evictions_are_clean(self):
        c = self._cache()
        c.prewarm()
        assert c.fill(0x1000) == 0  # no writeback from the dummy

    def test_prewarm_twice_rejected(self):
        c = self._cache()
        c.prewarm()
        with pytest.raises(SimulationError):
            c.prewarm()

    def test_prewarm_requires_divisible_assoc(self):
        c = NuRAPIDCache(
            NuRAPIDConfig(
                capacity_bytes=64 * KB, block_bytes=64, associativity=4,
                n_dgroups=8, name="pw8",
            )
        )
        with pytest.raises(SimulationError):
            c.prewarm()


def _ordered(state):
    """Containers with their order made visible to ``==``."""
    if isinstance(state, dict):
        return [(k, _ordered(v)) for k, v in state.items()]
    if isinstance(state, (list, tuple)):
        return [_ordered(v) for v in state]
    return state


def _containers(cache):
    """Everything a prewarm writes, in comparable form."""
    if isinstance(cache, SNUCACache):
        return _ordered([cache._sets, [p.state_copy() for p in cache._lru]])
    return _ordered([
        cache._tags,
        [(s._resident, s._free) for s in cache._stores],
        [[p.state_copy() for p in row] for row in cache._replacer._policies],
        [p.state_copy() for p in cache._data_lru],
    ])


def _nurapid(n_dgroups):
    return NuRAPIDCache(
        NuRAPIDConfig(
            capacity_bytes=256 * KB, associativity=8, n_dgroups=n_dgroups,
            name=f"proto{n_dgroups}",
        )
    )


def _compressed():
    return CompressedNuRAPIDCache(
        NuRAPIDConfig(capacity_bytes=256 * KB, associativity=8, n_dgroups=4),
        CompressionConfig(ratio=2, compressible_share=0.5),
    )


def _snuca():
    return SNUCACache(capacity_bytes=512 * KB, block_bytes=128, associativity=16)


class TestPrototypeRestore:
    """A prewarm restored from the prototype registry equals a fresh fill."""

    @pytest.mark.parametrize(
        "build",
        [lambda: _nurapid(4), lambda: _nurapid(8), _compressed, _snuca],
        ids=["nurapid-4dg", "nurapid-8dg", "compressed", "snuca"],
    )
    def test_restore_equals_fresh_fill(self, build):
        prewarm_cache.clear()
        fresh, restored = build(), build()
        fresh.prewarm()
        assert len(prewarm_cache._snapshots) == 1
        restored.prewarm()
        assert _containers(restored) == _containers(fresh)

        rng = random.Random(7)
        span = 4 * fresh.block_bytes * 4096
        for step in range(20_000):
            address = rng.randrange(span) & ~(fresh.block_bytes - 1)
            is_write = rng.random() < 0.3
            outcomes = []
            for cache in (fresh, restored):
                result = cache.access(address, is_write, now=float(step))
                writebacks = None
                if not result.hit:
                    writebacks = cache.fill(address, now=float(step), dirty=is_write)
                outcomes.append((result.hit, result.latency, result.dgroup, writebacks))
            assert outcomes[0] == outcomes[1], step
        assert restored.stats.as_dict() == fresh.stats.as_dict()
        assert _containers(restored) == _containers(fresh)
        restored.check_invariants()


class TestDNUCAPrewarm:
    def _cache(self):
        return DNUCACache(
            DNUCAConfig(capacity_bytes=512 * KB, bank_bytes=64 * KB, name="pwn")
        )

    def test_fills_every_way(self):
        c = self._cache()
        c.prewarm()
        assert c.resident_blocks() == 512 * KB // 128
        c.check_invariants()

    def test_prewarmed_layout(self):
        c = self._cache()
        c.prewarm()
        cfg = c.config
        for index in range(c.n_sets):
            for position in range(cfg.associativity):
                slot = index * cfg.associativity + position
                baddr = c.PREWARM_BASE + (position * c.n_sets + index) * cfg.block_bytes
                assert c._baddr[slot] == baddr
                assert c._dirty[slot] == 0
                assert c._touch[slot] == 0
                assert c.level_of(baddr) == position // cfg.ways_per_bank

    def test_first_fill_evicts_first_tail_way(self):
        """All tail dummies tie on last touch: the first way loses."""
        c = self._cache()
        c.prewarm()
        tail_first = (c.config.chain_length - 1) * c.config.ways_per_bank
        victim = c.PREWARM_BASE + (tail_first * c.n_sets + 0) * c.block_bytes
        assert c.contains(victim)
        c.fill(0)
        assert not c.contains(victim)
        assert c.contains(victim + c.n_sets * c.block_bytes)

    def test_not_in_prototype_registry(self):
        """D-NUCA prewarm is fast by construction, not by reuse."""
        before = list(prewarm_cache._snapshots)
        self._cache().prewarm()
        assert list(prewarm_cache._snapshots) == before

    def test_fill_after_prewarm_evicts_tail(self):
        c = self._cache()
        c.prewarm()
        c.fill(0x10000)
        assert c.stats.get("evictions") == 1
        assert c.level_of(0x10000) == c.config.chain_length - 1

    def test_prewarm_twice_rejected(self):
        c = self._cache()
        c.prewarm()
        with pytest.raises(SimulationError):
            c.prewarm()


class TestUniformPrewarm:
    def test_fills_all_ways(self):
        spec = build_uniform_cache_spec("u", 8 * KB, 64, 2, latency_cycles=5)
        c = SetAssociativeCache(spec)
        c.prewarm()
        assert c.occupancy() == 8 * KB // 64

    def test_prewarm_is_idempotent(self):
        spec = build_uniform_cache_spec("u", 8 * KB, 64, 2, latency_cycles=5)
        c = SetAssociativeCache(spec)
        c.prewarm()
        c.prewarm()  # skips resident dummies
        assert c.occupancy() == 8 * KB // 64


class TestSAPlacementPrewarm:
    def test_fills_all_ways(self):
        c = SetAssociativePlacementCache(
            capacity_bytes=64 * KB, block_bytes=64, associativity=4, n_dgroups=4,
            geometry=build_nurapid_geometry(
                n_dgroups=4, capacity_bytes=64 * KB, block_bytes=64, associativity=4
            ),
            name="pwsa",
        )
        c.prewarm()
        c.check_invariants()
        # Every way of set 0 is occupied.
        assert len(c._where[0]) == 4
