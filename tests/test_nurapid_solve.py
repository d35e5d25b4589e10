"""NuRAPID's slice walk against the per-operation steps it fuses.

:meth:`repro.nurapid.cache.NuRAPIDCache.solve_outcomes` must reproduce,
from any reachable state, exactly what the vectorized kernel's outcome
walk does operation by operation: per L1 miss a demand
``access_outcome``, ``fill_outcome`` when it missed, then the dirty
victim's write access.  The outcome tuples, the slots, packed entries,
stamps and clock, the frame maps and free lists, the
distance-replacement state (position lists, reference bits and hand,
recency dicts, RNG streams) and the stats, ``dgroup_hits`` and energy
counts must all match, under every distance-replacement kind and
promotion policy, hysteresis 1-3, restricted placement regions,
ideal-uniform timing, and 4 or 8 d-groups.

The kernel takes the walk only for a lone NuRAPID level with no
prefetcher, no event tracer and no fault injector; every other system
keeps the per-operation steps.
"""

import copy
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp.scenarios import cmp_nurapid_config
from repro.faults import FaultPlan
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.compression import CompressedNuRAPIDCache
from repro.nurapid.config import DistanceReplacementKind, NuRAPIDConfig, PromotionPolicy
from repro.sim.config import base_config, nurapid_config
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

BLOCK = 64
SETS = 8

#: (associativity, d-groups, restricted frames): one, two or four
#: placement regions over the 8 sets.
SHAPES = [
    (8, 4, None),
    (8, 4, 8),
    (4, 4, 2),
    (8, 8, None),
    (8, 8, 4),
    (8, 8, 2),
    (4, 2, None),
]
KINDS = list(DistanceReplacementKind)
PROMOTIONS = list(PromotionPolicy)


def make_cache(shape, kind, promotion, hysteresis=1, ideal=False, seed=0):
    assoc, n_dgroups, restricted = shape
    return NuRAPIDCache(
        NuRAPIDConfig(
            capacity_bytes=SETS * assoc * BLOCK,
            block_bytes=BLOCK,
            associativity=assoc,
            n_dgroups=n_dgroups,
            promotion=promotion,
            distance_replacement=kind,
            restricted_frames=restricted,
            ideal_uniform=ideal,
            promotion_hysteresis=hysteresis,
            seed=seed,
            name="small",
        )
    )


def address_in(rng, s, n_tags):
    return (rng.randrange(n_tags) * SETS + s) * BLOCK + rng.randrange(BLOCK)


def random_stream(rng, n, n_tags, sets):
    """``n`` L1 misses in a few sets: addresses, victims, dirty flags."""
    addresses, victims, dirty = [], [], []
    for _ in range(n):
        addresses.append(address_in(rng, rng.choice(sets), n_tags))
        if rng.random() < 0.2:
            victims.append(-1)
            dirty.append(False)
        else:
            victims.append(address_in(rng, rng.choice(sets), n_tags))
            dirty.append(rng.random() < 0.5)
    return addresses, victims, dirty


def random_steps(cache, rng, n, n_tags, sets):
    """``n`` per-operation steps of any kind: reads and writes, clean
    and dirty fills (of resident blocks too), and now and then the
    drop of a resident block, as a refetching DUE does, which leaves a
    free frame in any d-group."""
    for _ in range(n):
        address = address_in(rng, rng.choice(sets), n_tags)
        draw = rng.random()
        if draw < 0.05:
            entry = cache.lookup(address)
            if entry is not None:
                cache._invalidate_frame(entry.dgroup, entry.frame)
        elif draw < 0.5:
            cache.access_outcome(address, rng.random() < 0.4)
        else:
            cache.fill_outcome(address, rng.random() < 0.4)


def scramble(cache, rng):
    """Any reachable distance-replacement order: approx-LRU reference
    bits and clock hands anywhere, LRU recency in any order."""
    for group in range(cache.config.n_dgroups):
        for region in range(cache._n_regions):
            if cache._lru_dr:
                order = cache._dlru[group][region]
                frames = list(order)
                rng.shuffle(frames)
                order.clear()
                order.update(dict.fromkeys(frames))
            elif cache._approx_dr:
                keys = cache._dkeys[group][region]
                cache._dhand[group][region] = rng.randrange(max(1, len(keys)))
                for frame in keys:
                    cache._dref[group][frame] = rng.random() < 0.5


def walk(cache, addresses, victims, dirty):
    """The kernel's outcome walk for a lone lower level."""
    out = []
    for address, victim, vdirty in zip(addresses, victims, dirty):
        o = cache.access_outcome(address, False)
        out.append(o)
        if not o[0]:
            out.append(cache.fill_outcome(address, False))
        if vdirty:
            out.append(cache.access_outcome(victim, True))
    return out


def state_of(cache):
    if cache._lru_dr:
        replacement = [[list(order) for order in group] for group in cache._dlru]
    else:
        replacement = [cache._dkeys, cache._dpos]
        if cache._approx_dr:
            replacement += [[bytes(ref) for ref in cache._dref], cache._dhand]
        else:
            replacement.append(
                [[draw.__self__.getstate() for draw in group] for group in cache._draw]
            )
    return (
        list(cache._slot_baddr),
        list(cache._slot_entry),
        list(cache._slot_stamp),
        cache._clock,
        [list(frames) for frames in cache._frame_slot],
        cache._free,
        replacement,
        cache.stats.as_dict(),
        cache.dgroup_hits.items(),
        list(cache.energy._count.items()),
    )


def solve(cache, addresses, victims, dirty):
    return cache.solve_outcomes(
        np.array(addresses, dtype=np.int64),
        np.array(victims, dtype=np.int64),
        np.array(dirty, dtype=bool),
    )


def check(cache, rng, n, n_tags, sets):
    """Walk a copy, solve the original, compare everything."""
    stream = random_stream(rng, n, n_tags, sets)
    walked = copy.deepcopy(cache)
    expected = walk(walked, *stream)
    assert solve(cache, *stream) == expected
    cache.check_invariants()
    assert state_of(cache) == state_of(walked)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(SHAPES),
        kind=st.sampled_from(KINDS),
        promotion=st.sampled_from(PROMOTIONS),
        hysteresis=st.integers(1, 3),
        ideal=st.booleans(),
        prewarm=st.booleans(),
        prefix=st.sampled_from([0, 5, 40, 200]),
        n=st.sampled_from([1, 2, 9, 60, 250]),
    )
    def test_matches_steps(self, seed, shape, kind, promotion, hysteresis, ideal,
                           prewarm, prefix, n):
        rng = random.Random(seed)
        cache = make_cache(shape, kind, promotion, hysteresis, ideal, seed % 5)
        if prewarm:
            cache.prewarm()
        # Few tags keep hits, promotions and dirty blocks common; many
        # keep evictions and demotion chains common.
        n_tags = rng.choice([3, 10, 40])
        sets = rng.sample(range(SETS), rng.choice([1, 3, SETS]))
        random_steps(cache, rng, prefix, n_tags, sets)
        if rng.random() < 0.5:
            scramble(cache, rng)
        if rng.random() < 0.3:
            # As after warmup: the slice adds every counter key afresh.
            cache.reset_stats()
        check(cache, rng, n, n_tags, sets)
        # Steps between two slices, then a slice from the solved state.
        random_steps(cache, rng, rng.randrange(4), n_tags, sets)
        check(cache, rng, n, n_tags, sets)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("prewarm", [False, True])
    def test_every_branch_exercised(self, kind, prewarm):
        """Hits in every d-group, promotions, evictions, demotion
        chains and dirty writebacks all occur."""
        rng = random.Random(5)
        cache = make_cache((8, 4, 8), kind, PromotionPolicy.NEXT_FASTEST)
        if prewarm:
            cache.prewarm()
        for _ in range(4):
            random_steps(cache, rng, 60, 14, list(range(SETS)))
            check(cache, rng, 150, 14, list(range(SETS)))
        counts = cache.stats._counts
        for name in ("hits", "misses", "promotions", "demotions", "evictions",
                     "writebacks", "moves"):
            assert counts.get(name, 0) > 0, name
        assert len(cache.dgroup_hits.counts) == 4

    @pytest.mark.parametrize("kind", KINDS)
    def test_fill_evicting_a_slow_block(self, kind):
        """A full set whose LRU block sits in the slowest d-group: the
        fill releases that frame, and the chain demotes one victim per
        faster d-group outward to reach it."""
        cache = make_cache((8, 4, None), kind, PromotionPolicy.FASTEST)
        cache.prewarm()
        # Touch every way of set 0 but the last, which prewarm put in
        # the slowest d-group: it becomes the set's LRU block.  Then
        # zero the counters, as after warmup.
        blocks = cache._slot_baddr[:8]
        for block in blocks[:7]:
            cache.access_outcome(block)
        cache.reset_stats()
        walked = copy.deepcopy(cache)
        stream = ([(50 * SETS) * BLOCK, blocks[6]], [-1, -1], [False, False])
        assert cache.dgroup_of(blocks[7]) == 3
        assert solve(cache, *stream) == walk(walked, *stream)
        assert state_of(cache) == state_of(walked)
        assert not cache.contains(blocks[7])
        assert cache.stats._counts["demotions"] == 3
        cache.check_invariants()

    def test_clock_hand_wraps_on_a_reused_frame(self):
        """A fill that reuses an evicted d-group-0 block's frame moves it
        to the end of the clock list; a hand on the last entry wraps to
        0, as ``_retrack`` does."""
        cache = make_cache((8, 4, None), DistanceReplacementKind.APPROX_LRU,
                           PromotionPolicy.NEXT_FASTEST)
        cache.prewarm()
        cache._dhand[0][0] = len(cache._dkeys[0][0]) - 1
        walked = copy.deepcopy(cache)
        stream = ([(50 * SETS) * BLOCK], [-1], [False])
        assert solve(cache, *stream) == walk(walked, *stream)
        assert cache._dhand[0][0] == 0
        assert state_of(cache) == state_of(walked)

    @pytest.mark.parametrize("kind", KINDS)
    def test_promotion_into_a_free_frame(self, kind):
        """A dropped d-group-0 block leaves a free frame there; a hit in
        d-group 1 then promotes into it, with no swap."""
        cache = make_cache((8, 4, None), kind, PromotionPolicy.NEXT_FASTEST)
        cache.prewarm()
        dropped = cache.lookup(cache._slot_baddr[0])
        cache._invalidate_frame(dropped.dgroup, dropped.frame)
        slow = cache._slot_baddr[SETS + 8 + 2]  # set 1+, way 2: d-group 1
        assert dropped.dgroup == 0 and cache.dgroup_of(slow) == 1
        walked = copy.deepcopy(cache)
        stream = ([slow, slow], [-1, -1], [False, False])
        assert solve(cache, *stream) == walk(walked, *stream)
        assert state_of(cache) == state_of(walked)
        assert cache.dgroup_of(slow) == 0
        assert cache.stats._counts["promotions"] == 1
        assert "demotions" not in cache.stats._counts
        cache.check_invariants()

    def test_empty_slice(self):
        cache = make_cache((8, 4, None), KINDS[0], PROMOTIONS[0])
        cache.prewarm()
        before = state_of(cache)
        empty = np.zeros(0, dtype=np.int64)
        assert cache.solve_outcomes(empty, empty, empty.astype(bool)) == []
        assert state_of(cache) == before


#: A short mcf cell: NuRAPID's highest-load trace.
REFS = 8_000
SEED = 1


@pytest.fixture(scope="module")
def mcf():
    return generate_trace(get_benchmark("mcf"), REFS, seed=SEED)


def _payload(config, spec="mcf", trace=None, telemetry=None):
    return run_result_to_dict(
        run_benchmark(
            config, spec, n_references=REFS, seed=SEED, trace=trace,
            warmup_fraction=0.4, telemetry=telemetry,
        )
    )


def _both_engines(config, spec="mcf", trace=None):
    vectorized = _payload(replace(config, engine="vectorized"), spec, trace)
    return vectorized, _payload(replace(config, engine="legacy"), spec, trace)


@pytest.fixture
def steps(monkeypatch):
    """Counts the calls of NuRAPID's per-operation access step."""
    calls = []
    real = NuRAPIDCache.access_outcome

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(NuRAPIDCache, "access_outcome", counting)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """Records the number of misses of each slice the walk takes."""
    calls = []
    real = NuRAPIDCache.solve_outcomes

    def counting(self, addresses, *args):
        calls.append(len(addresses))
        return real(self, addresses, *args)

    monkeypatch.setattr(NuRAPIDCache, "solve_outcomes", counting)
    return calls


class TestKernelDispatch:
    def test_lone_nurapid_takes_the_walk(self, mcf, steps, solves):
        """Both slices walked in one call each, the per-operation
        access step never called, and the legacy result."""
        config = nurapid_config()
        vectorized = _payload(replace(config, engine="vectorized"), trace=mcf)
        assert len(solves) == 2 and min(solves) > 0
        assert steps == []
        assert vectorized == _payload(replace(config, engine="legacy"), trace=mcf)
        assert steps

    def test_counters_only_run_takes_the_walk(self, mcf, steps, solves):
        """A counters-only client has no tracer: both slices are walked
        in one call each, and the result and telemetry report are
        legacy's."""
        config = nurapid_config()
        telemetry = TelemetryConfig()
        armed = _payload(
            replace(config, engine="vectorized"), trace=mcf, telemetry=telemetry
        )
        assert len(solves) == 2 and steps == []
        assert armed == _payload(
            replace(config, engine="legacy"), trace=mcf, telemetry=telemetry
        )

    def test_telemetry_armed_slice_steps(self, mcf, steps, solves):
        """Telemetry attaches after warmup: the warmup slice is walked
        in one call, the measured slice, with events armed, steps; the
        result and telemetry report are legacy's."""
        config = nurapid_config()
        telemetry = TelemetryConfig(events=True)
        armed = _payload(
            replace(config, engine="vectorized"), trace=mcf, telemetry=telemetry
        )
        assert len(solves) == 1 and steps
        assert armed == _payload(
            replace(config, engine="legacy"), trace=mcf, telemetry=telemetry
        )

    @pytest.mark.parametrize(
        "config, spec",
        [
            (nurapid_config(faults=FaultPlan(transient_per_access=0.01, seed=3)), "mcf"),
            (replace(nurapid_config(), name="nurapid-pf", prefetch=True), "mcf"),
            (cmp_nurapid_config(cores=2, contention=False, compression=True), "mcf+twolf"),
            (cmp_nurapid_config(cores=2), "mcf+twolf"),
            (base_config(), "mcf"),
        ],
        ids=["fault-injector", "prefetcher", "compressed", "contended", "base-l2-l3"],
    )
    def test_other_systems_step(self, config, spec, solves):
        """None of these takes the walk, and each matches legacy."""
        vectorized, legacy = _both_engines(config, spec)
        assert solves == []
        assert vectorized == legacy

    def test_compressed_variant_opts_out(self):
        assert CompressedNuRAPIDCache.solve_outcomes is None
