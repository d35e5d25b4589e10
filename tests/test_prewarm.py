"""Prewarm: the steady-state initial condition for all cache models."""

import hashlib
import random

import pytest

from repro.caches import block
from repro.caches.block import EMPTY, PREWARM_BASE
from repro.common.errors import SimulationError
from repro.caches.setassoc_nonuniform import SetAssociativePlacementCache
from repro.caches.simple import SetAssociativeCache
from repro.floorplan.dgroups import build_nurapid_geometry, build_uniform_cache_spec
from repro.nuca.cache import DNUCACache
from repro.cmp.config import CompressionConfig
from repro.nuca.config import DNUCAConfig
from repro.nuca.smart_search import prewarm_partials
from repro.nuca.snuca import SNUCACache
from repro.faults.models import FaultPlan, HardFaultEvent
from repro.nurapid import cache as nurapid_cache
from repro.nurapid.cache import RETIRED, NuRAPIDCache
from repro.nurapid.compression import CompressedNuRAPIDCache
from repro.nurapid.config import DistanceReplacementKind, NuRAPIDConfig
from repro.sim.config import base_config, build_lower_level, nurapid_config
from repro.sim.driver import make_system

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
            addr = PREWARM_BASE + (way * c.config.n_sets + 0) * 64
            assert c.dgroup_of(addr) == way

    @pytest.mark.parametrize("restricted_frames", [None, 64])
    def test_prewarmed_layout(self, restricted_frames):
        c = NuRAPIDCache(
            NuRAPIDConfig(
                capacity_bytes=64 * KB, block_bytes=64, associativity=4,
                n_dgroups=2, restricted_frames=restricted_frames, name="pwl",
            )
        )
        c.prewarm()
        state = _state(c)
        cfg = c.config
        n_regions = cfg.n_regions
        ways_per_group = cfg.associativity // cfg.n_dgroups
        per_region = cfg.frames_per_dgroup // n_regions
        for index in range(cfg.n_sets):
            region = index % n_regions
            row = [
                PREWARM_BASE + (way * cfg.n_sets + index) * cfg.block_bytes
                for way in range(cfg.associativity)
            ]
            assert list(state[0][index]) == row
            assert list(state[3][index]) == row
            for way, baddr in enumerate(row):
                entry = c.lookup(baddr)
                group = way // ways_per_group
                # Each (group, region) takes frames off its free-list
                # tail, set-ascending then way-ascending.
                rank = (index // n_regions) * ways_per_group + way % ways_per_group
                frame = (region + 1) * per_region - 1 - rank
                assert (entry.block_addr, entry.dgroup, entry.frame) == (
                    baddr, group, frame
                )
                assert not entry.dirty and entry.pending_hits == 0
                assert state[1][group][0][frame] == baddr
        for group in range(cfg.n_dgroups):
            for region in range(n_regions):
                tracked, _, _ = state[2][group][region]
                top = (region + 1) * per_region - 1
                assert tracked == list(range(top, top - per_region, -1))
        c.check_invariants()

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

    def test_prewarm_with_retired_frame_rejected(self):
        """Prewarm fills every frame, so a retired one cannot take part."""
        c = self._cache()
        c.attach_faults(
            FaultPlan(
                hard_faults=(HardFaultEvent(at_access=1, dgroup=2, subarray=0),),
                spare_subarrays_per_dgroup=0,
            )
        )
        c.access(0)
        c.access(0)  # the hard fault is due from the second access on
        assert c.retired_frames()[2] > 0
        with pytest.raises(SimulationError, match="retired"):
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


def _state(cache):
    """Every container a prewarm writes, in order (``repr`` keeps it)."""
    if isinstance(cache, SetAssociativeCache):
        return [cache._tags, cache._dirty, cache._stamps, cache._clock]
    if isinstance(cache, SetAssociativePlacementCache):
        # The slot scan replaced per-set address -> way maps filled in
        # way order; the digests were first taken with those maps.
        return [
            cache._addrs, cache._dirty, cache._touch,
            _way_maps(cache._addrs, cache.associativity), cache._clock,
        ]
    if isinstance(cache, SNUCACache):
        # The digests were first taken over per-set address -> dirty
        # dicts in way order and each set's LRU-to-MRU order.
        assoc, blocks, stamps = cache.associativity, cache._blocks, cache._stamps
        sets, lru = [], []
        for base in range(0, len(blocks), assoc):
            ways = [s for s in range(base, base + assoc) if blocks[s] != EMPTY]
            sets.append({blocks[s]: bool(cache._dirty[s]) for s in ways})
            recency = sorted(ways, key=lambda s: (stamps[s], s))
            lru.append(dict.fromkeys(blocks[s] for s in recency))
        return [sets, lru]
    if isinstance(cache, DNUCACache):
        # The slot scan replaced an address -> slot map filled in slot
        # order; the digests were first taken with that map.
        where = {b: s for s, b in enumerate(cache._baddr) if b != EMPTY}
        return [
            cache._baddr, cache._dirty, cache._touch, where,
            cache.smart_search._partial, cache._clock,
        ]
    return _nurapid_state(cache)


def _way_maps(blocks, assoc):
    """Per set, each resident block's way, in way order."""
    return [
        {b: w for w, b in enumerate(blocks[base : base + assoc]) if b != EMPTY}
        for base in range(0, len(blocks), assoc)
    ]


def _nurapid_state(cache):
    """NuRAPID's flat arrays, projected onto the ordered containers the
    golden digests were first taken over: per-set tag dicts in way
    order, per-d-group (occupants, free lists, retired frames), each
    distance-replacement region's tracked order, and per-set data-LRU
    order (ascending stamp, first way first)."""
    assoc = cache._assoc_limit
    baddrs, entries, stamps = (
        cache._slot_baddr, cache._slot_entry, cache._slot_stamp
    )
    tags, data_lru = [], []
    for base in range(0, len(baddrs), assoc):
        ways = [s for s in range(base, base + assoc) if baddrs[s] != EMPTY]
        tags.append({baddrs[s]: entries[s] for s in ways})
        recency = sorted(ways, key=lambda s: (stamps[s], s))
        data_lru.append(dict.fromkeys(baddrs[s] for s in recency))
    stores = [
        (
            [None if s < 0 else baddrs[s] for s in frames],
            cache._free[group],
            [f for f, s in enumerate(frames) if s == RETIRED],
        )
        for group, frames in enumerate(cache._frame_slot)
    ]
    policies = []
    for group in range(cache.config.n_dgroups):
        row = []
        for region in range(cache._n_regions):
            if cache._lru_dr:
                row.append(dict(cache._dlru[group][region]))
                continue
            keys = cache._dkeys[group][region]
            index = {k: p for p, k in enumerate(keys)}
            if cache._approx_dr:
                ref = {k: bool(cache._dref[group][k]) for k in keys}
                row.append((keys, index, ref, cache._dhand[group][region]))
            else:
                # None: the random policy's peeked victim, which every
                # operation cleared before it returned.
                row.append((keys, index, None))
        policies.append(row)
    return [tags, stores, policies, data_lru]


def _digest(cache):
    return hashlib.sha256(repr(_state(cache)).encode()).hexdigest()


def _snuca():
    return SNUCACache(capacity_bytes=512 * KB, block_bytes=128, associativity=16)


def _mutable_ids(root):
    """ids of every mutable object reachable from ``root``'s attributes.

    Frozen dataclasses (configs, geometry) and the other immutable
    values are skipped: sharing those between caches is harmless.
    """
    seen, stack, found = set(), list(vars(root).values()), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, float, str, bytes, type(None))):
            continue
        seen.add(id(obj))
        params = getattr(obj, "__dataclass_params__", None)
        if params is not None and params.frozen:
            continue
        if isinstance(obj, tuple):
            stack.extend(obj)
            continue
        found.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, set)):
            stack.extend(obj)
        elif hasattr(obj, "__self__"):  # a bound method: its instance
            stack.append(obj.__self__)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def _drive(cache, steps):
    """Random accesses and fills over four blocks per set, so fills
    reach past the fastest ways' dummies."""
    n_sets = getattr(cache, "n_sets", None) or cache.config.n_sets
    span = 4 * cache.block_bytes * n_sets
    rng = random.Random(7)
    for step in range(steps):
        address = rng.randrange(span) & ~(cache.block_bytes - 1)
        is_write = rng.random() < 0.3
        if not cache.access(address, is_write, now=float(step)).hit:
            cache.fill(address, now=float(step), dirty=is_write)


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
                baddr = PREWARM_BASE + (position * c.n_sets + index) * cfg.block_bytes
                assert c._baddr[slot] == baddr
                assert c._dirty[slot] == 0
                assert c._touch[slot] == 0
                assert c.level_of(baddr) == position // cfg.ways_per_bank

    def test_first_fill_evicts_first_tail_way(self):
        """All tail dummies tie on last touch: the first way loses."""
        c = self._cache()
        c.prewarm()
        tail_first = (c.config.chain_length - 1) * c.config.ways_per_bank
        victim = PREWARM_BASE + (tail_first * c.n_sets + 0) * c.block_bytes
        assert c.contains(victim)
        c.fill(0)
        assert not c.contains(victim)
        assert c.contains(victim + c.n_sets * c.block_bytes)

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

    def test_prewarmed_layout(self):
        spec = build_uniform_cache_spec("u", 8 * KB, 64, 2, latency_cycles=5)
        c = SetAssociativeCache(spec)
        c.prewarm()
        for index in range(c.n_sets):
            for way in range(2):
                frame = index * 2 + way
                assert c._tags[frame] == PREWARM_BASE + (way * c.n_sets + index) * 64
                assert c._dirty[frame] == 0
                # Stamped in fill order from the initial clock of 1, so
                # way 0 is every set's LRU block.
                assert c._stamps[frame] == 1 + frame
        assert c._clock == 1 + 2 * c.n_sets

    def test_prewarm_twice_rejected(self):
        spec = build_uniform_cache_spec("u", 8 * KB, 64, 2, latency_cycles=5)
        c = SetAssociativeCache(spec)
        c.prewarm()
        with pytest.raises(SimulationError):
            c.prewarm()


class TestSAPlacementPrewarm:
    def _cache(self):
        return SetAssociativePlacementCache(
            capacity_bytes=64 * KB, block_bytes=64, associativity=4, n_dgroups=4,
            geometry=build_nurapid_geometry(
                n_dgroups=4, capacity_bytes=64 * KB, block_bytes=64, associativity=4
            ),
            name="pwsa",
        )

    def test_fills_all_ways(self):
        c = self._cache()
        c.prewarm()
        c.check_invariants()
        # Every way is occupied.
        assert EMPTY not in c._addrs

    def test_prewarmed_layout(self):
        c = self._cache()
        c.prewarm()
        for index in range(c.n_sets):
            row = [
                PREWARM_BASE + (way * c.n_sets + index) * 64
                for way in range(c.associativity)
            ]
            for way, baddr in enumerate(row):
                frame = index * c.associativity + way
                assert c._addrs[frame] == baddr
                assert c._dirty[frame] == 0
                assert c._touch[frame] == 0
                assert c.dgroup_of(baddr) == way // c.ways_per_dgroup
        assert c._clock == 0

    def test_prewarm_twice_rejected(self):
        c = self._cache()
        c.prewarm()
        with pytest.raises(SimulationError):
            c.prewarm()


class TestSNUCAPrewarm:
    def test_prewarmed_layout(self):
        c = _snuca()
        c.prewarm()
        for index in range(c.n_sets):
            row = [
                PREWARM_BASE + (way * c.n_sets + index) * c.block_bytes
                for way in range(c.associativity)
            ]
            for way, baddr in enumerate(row):
                frame = index * c.associativity + way
                assert c._blocks[frame] == baddr
                assert c._dirty[frame] == 0
                # Every dummy ties on stamp 0: way 0 is the first victim.
                assert c._stamps[frame] == 0
        assert c._clock == 0
        c.check_invariants()

    def test_prewarm_twice_rejected(self):
        c = _snuca()
        c.prewarm()
        with pytest.raises(SimulationError):
            c.prewarm()


def _base_level(index):
    return build_lower_level(base_config())[index]


def _full_nurapid(n_dgroups, kind, restricted_frames=None):
    return NuRAPIDCache(
        NuRAPIDConfig(
            n_dgroups=n_dgroups,
            distance_replacement=kind,
            restricted_frames=restricted_frames,
        )
    )


SHAPES = {
    "base-l2": lambda: _base_level(0),
    "base-l3": lambda: _base_level(1),
    "sa-placement": SetAssociativePlacementCache,
    "snuca": SNUCACache,
    "nurapid-4dg-random": lambda: _full_nurapid(4, DistanceReplacementKind.RANDOM),
    "nurapid-4dg-lru": lambda: _full_nurapid(4, DistanceReplacementKind.LRU),
    "nurapid-4dg-approx-lru": (
        lambda: _full_nurapid(4, DistanceReplacementKind.APPROX_LRU)
    ),
    "nurapid-8dg-random": lambda: _full_nurapid(8, DistanceReplacementKind.RANDOM),
    "nurapid-8dg-lru": lambda: _full_nurapid(8, DistanceReplacementKind.LRU),
    "nurapid-8dg-approx-lru": (
        lambda: _full_nurapid(8, DistanceReplacementKind.APPROX_LRU)
    ),
    "nurapid-4dg-restricted": (
        lambda: _full_nurapid(4, DistanceReplacementKind.RANDOM, 4096)
    ),
    "compressed": lambda: CompressedNuRAPIDCache(NuRAPIDConfig(), CompressionConfig()),
    "dnuca": lambda: DNUCACache(DNUCAConfig()),
}

#: sha256 of ``repr(_state(cache))`` after a cold prewarm of each
#: full-size shape.  Both replay engines share prewarm, so engine
#: parity cannot see a change to it; these digests pin it instead.
GOLDEN_DIGESTS = {
    "base-l2": (
        "aab4cad673820f701dd852bc3bffce55ebfd3c52c5dcdf068f8853c3b513beca"
    ),
    "base-l3": (
        "91edc3bdd1396066eb12aed03b0a62c9181e48ead8cb44ae7f276a9c1605e3f5"
    ),
    "sa-placement": (
        "bef5cc5a26c9e770784e993961053b31a42ee56af2c1d296d567ef2d1da4cfd1"
    ),
    "snuca": (
        "1b501215e87d25fe8b1eae37cf438f244d223b431f9f118dfda8b236002a3406"
    ),
    "nurapid-4dg-random": (
        "0fdb7e48634dcf12872c44b0565e3ca999eb3630c78fb15e021c2fac6a56c138"
    ),
    "nurapid-4dg-lru": (
        "5f3565012b552766381acdd63de69d8f9ae108c727f778c120312dec2e76d0bd"
    ),
    "nurapid-4dg-approx-lru": (
        "c5ccf60ffd9e76d84009e5f7db03134fa6647f65e6e5bd1dfd524f5b5e950a7b"
    ),
    "nurapid-8dg-random": (
        "7d547f4436ab286b014706c256df03a48b235317e2df1677721842c8ae65cef8"
    ),
    "nurapid-8dg-lru": (
        "41f3cff776efa11314e43bfb1847b5a5e358fc0e18df73c2b74c7117ce6d94b8"
    ),
    "nurapid-8dg-approx-lru": (
        "554ef258f5c75fd61b59f06e50956682b0f96e2603df4a304ddeb68636b1d49c"
    ),
    "nurapid-4dg-restricted": (
        "146115071d93293c3d75d0de6d1ebcde989a4e555e445fbbb8d64c1d1e053aab"
    ),
    "compressed": (
        "61095a265e05529bd2e0baf2901bab0be0311f8208318871adc1c2a26dfb1b0b"
    ),
    "dnuca": (
        "58b3936eae797460a177693e7d439edea68d85626096059108756599a2f3d854"
    ),
}


class TestFreshState:
    """Builds share only immutable prewarm layouts: two caches never
    share mutable state."""

    def test_builds_share_no_mutable_container(self):
        config = nurapid_config()
        used, spare = make_system(config).l2, make_system(config).l2
        assert not _mutable_ids(used) & _mutable_ids(spare)

        _drive(used, 20_000)
        used.check_invariants()
        assert used.stats.get("promotions") and used.stats.get("demotions")
        assert _digest(spare) == GOLDEN_DIGESTS["nurapid-4dg-random"]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_prewarmed_caches_share_no_mutable_container(self, shape):
        build = SHAPES[shape]
        used, spare = build(), build()
        used.prewarm()
        spare.prewarm()
        assert not _mutable_ids(used) & _mutable_ids(spare)


#: Every prewarm layout memo.
MEMOS = (
    block._dummies,
    block.prewarm_slots,
    nurapid_cache._prewarm_layout,
    prewarm_partials,
)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_golden_prewarm_state(shape):
    """A cold prewarm: every layout is computed afresh."""
    for memo in MEMOS:
        memo.cache_clear()
    cache = SHAPES[shape]()
    cache.prewarm()
    assert _digest(cache) == GOLDEN_DIGESTS[shape]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_golden_prewarm_state_from_the_memo(shape):
    """A repeat prewarm copies the memoized layouts, which a first
    cache of that shape, driven since, has not changed."""
    first = SHAPES[shape]()
    first.prewarm()
    misses = [memo.cache_info().misses for memo in MEMOS]
    _drive(first, 2_000)
    cache = SHAPES[shape]()
    cache.prewarm()
    assert [memo.cache_info().misses for memo in MEMOS] == misses
    assert _digest(cache) == GOLDEN_DIGESTS[shape]


def test_memos_stay_within_their_bounds():
    for shape in sorted(SHAPES):
        SHAPES[shape]().prewarm()
    # Ten block counts: more than either block memo holds.
    for ways in range(1, 11):
        spec = build_uniform_cache_spec("u", 4 * KB * ways, 64, ways, latency_cycles=1)
        SetAssociativeCache(spec).prewarm()
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
