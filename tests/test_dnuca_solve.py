"""D-NUCA's whole-slice outcome solve against the walk it replaces.

:meth:`repro.nuca.cache.DNUCACache.solve_outcomes` must reproduce, from
any reachable state, exactly what the vectorized kernel's outcome walk
does operation by operation: per L1 miss a demand ``access_outcome``,
``fill_outcome`` when it missed, then the dirty victim's write access.
The outcome tuples, the ways, dirty bits, stamps and clock, the
smart-search partial tags and counters, the stats and ``dgroup_hits``
dicts (key order included) and the energy counts must all match, under
every search policy, tail or head insertion, with promotion on or off.

The kernel takes the solve only for a lone D-NUCA level with no
prefetcher and no telemetry client; every other system keeps the walk.
"""

import copy
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp.config import CmpConfig, ContentionConfig
from repro.nuca.cache import DNUCACache
from repro.nuca.config import DNUCAConfig, SearchPolicy
from repro.sim.config import dnuca_config
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

BLOCK = 64

#: (associativity, chain length, bank bytes): 4 sets each, one or two
#: chains, one to three ways per bank.
SHAPES = [(8, 4, 256), (4, 4, 256), (6, 3, 256), (4, 1, 1024), (8, 2, 512)]


def make_cache(shape, policy, tail, promote, partial_bits):
    assoc, chain, bank = shape
    config = DNUCAConfig(
        capacity_bytes=4 * assoc * BLOCK,
        block_bytes=BLOCK,
        associativity=assoc,
        bank_bytes=bank,
        chain_length=chain,
        policy=policy,
        promote_on_hit=promote,
        tail_insertion=tail,
        ss_partial_bits=partial_bits,
    )
    return DNUCACache(config)


def block_in_set(rng, cache, s, n_tags):
    return (rng.randrange(n_tags) * cache.n_sets + s) * BLOCK


def seed_state(cache, rng, n_tags):
    """An arbitrary reachable state: per set some resident blocks (in
    any ways, the rest EMPTY), random dirty bits, and stamps below the
    clock in scrambled order, ties included."""
    assoc = cache.associativity
    clock = rng.randrange(1, 60)
    for s in range(cache.n_sets):
        blocks = rng.sample(range(n_tags), min(n_tags, assoc))
        for way in range(assoc):
            if not blocks or rng.random() < 0.3:
                continue
            baddr = (blocks.pop() * cache.n_sets + s) * BLOCK
            slot = s * assoc + way
            cache._baddr[slot] = baddr
            cache._dirty[slot] = rng.random() < 0.5
            cache._touch[slot] = rng.randrange(clock + 1)
            cache.smart_search.insert(slot, baddr)
    cache._clock = clock
    cache.check_invariants()


def random_stream(rng, cache, n, n_tags, sets):
    """``n`` L1 misses in a few sets: addresses, victims, dirty flags."""
    addresses, victims, dirty = [], [], []
    for _ in range(n):
        s = rng.choice(sets)
        addresses.append(block_in_set(rng, cache, s, n_tags) + rng.randrange(BLOCK))
        if rng.random() < 0.2:
            victims.append(-1)
            dirty.append(False)
        else:
            v = rng.choice(sets)
            victims.append(block_in_set(rng, cache, v, n_tags) + rng.randrange(BLOCK))
            dirty.append(rng.random() < 0.5)
    return addresses, victims, dirty


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
    ss = cache.smart_search
    return (
        list(cache._baddr),
        bytes(cache._dirty),
        list(cache._touch),
        cache._clock,
        list(ss._partial),
        (ss.lookups, ss.false_hits),
        list(cache.stats._counts.items()),
        list(cache.dgroup_hits.counts.items()),
        list(cache.energy._count.items()),
    )


def check(cache, rng, n, n_tags, sets):
    """Walk a copy, solve the original, compare everything."""
    addresses, victims, dirty = random_stream(rng, cache, n, n_tags, sets)
    walked = copy.deepcopy(cache)
    expected = walk(walked, addresses, victims, dirty)
    got = cache.solve_outcomes(
        np.array(addresses, dtype=np.int64),
        np.array(victims, dtype=np.int64),
        np.array(dirty, dtype=bool),
    )
    assert got == expected
    cache.check_invariants()
    assert state_of(cache) == state_of(walked)


POLICIES = list(SearchPolicy)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(SHAPES),
        policy=st.sampled_from(POLICIES),
        tail=st.booleans(),
        promote=st.booleans(),
        start=st.sampled_from(["empty", "prewarm", "random"]),
        partial_bits=st.sampled_from([1, 2, 7]),
        n=st.sampled_from([1, 2, 9, 60, 250]),
    )
    def test_matches_walk(self, seed, shape, policy, tail, promote, start,
                          partial_bits, n):
        rng = random.Random(seed)
        cache = make_cache(shape, policy, tail, promote, partial_bits)
        n_tags = rng.choice([2, 5, 12])
        if start == "prewarm":
            cache.prewarm()
        elif start == "random":
            seed_state(cache, rng, n_tags)
        sets = rng.sample(range(cache.n_sets), rng.choice([1, 2, 4]))
        if rng.random() < 0.5:
            # Some counter keys already present, from walked operations.
            walk(cache, *random_stream(rng, cache, rng.randrange(1, 6), n_tags, sets))
        check(cache, rng, n, n_tags, sets)
        # A second slice continues from the solved state.
        check(cache, rng, n, n_tags, sets)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_exercised(self, policy):
        """Early misses, false hits, promotions with and without a
        displaced block, evictions and dirty writebacks all occur."""
        rng = random.Random(3)
        cache = make_cache((8, 4, 256), policy, True, True, 1)
        check(cache, rng, 400, 12, [0, 1, 2, 3])
        keys = dict(cache.stats._counts)
        for name in ("hits", "misses", "promotions", "demotions", "evictions",
                     "writebacks"):
            assert keys.get(name, 0) > 0, name
        if policy is not SearchPolicy.INCREMENTAL:
            assert cache.smart_search.false_hits > 0
        if policy is SearchPolicy.SS_PERFORMANCE:
            assert keys["early_misses"] > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_walked_steps_between_solves(self, policy):
        """A walked hit (touch, dirty bit, promotion) or fill between two
        solves must reach the next solve: the solve keeps a numpy copy
        of the lists, which every walked step that writes them drops."""
        rng = random.Random(11)
        cache = make_cache((8, 4, 256), policy, True, True, 2)
        cache.prewarm()
        walked = copy.deepcopy(cache)
        for step in range(6):
            if step % 2 == 0:
                addresses, victims, dirty = random_stream(rng, cache, 40, 12, [0, 1, 2, 3])
                assert cache.solve_outcomes(
                    np.array(addresses, dtype=np.int64),
                    np.array(victims, dtype=np.int64),
                    np.array(dirty, dtype=bool),
                ) == walk(walked, addresses, victims, dirty)
            elif step == 1:
                # Write hits on resident blocks only, deepest level
                # first, so some promote.
                deep = sorted(range(len(cache._baddr)), key=lambda s: -(s % 8))[:12]
                for address in [cache._baddr[slot] for slot in deep]:
                    for target in (cache, walked):
                        assert target.access_outcome(address, True)[0]
            else:
                for target in (cache, walked):
                    target.fill_outcome((99 * cache.n_sets + step) * BLOCK, True)
            assert state_of(cache) == state_of(walked)
        cache.check_invariants()

    def test_empty_slice(self):
        cache = make_cache((8, 4, 256), SearchPolicy.SS_PERFORMANCE, True, True, 7)
        before = state_of(cache)
        empty = np.zeros(0, dtype=np.int64)
        assert cache.solve_outcomes(empty, empty, empty.astype(bool)) == []
        assert state_of(cache) == before


#: perfbench's replay-l2 D-NUCA cell: mcf, 20k references, 40% warmup,
#: at the perf gate's seed.
REFS = 20_000
SEED = 501


@pytest.fixture(scope="module")
def mcf():
    return generate_trace(get_benchmark("mcf"), REFS, seed=SEED)


def _payload(config, trace, telemetry=None):
    return run_result_to_dict(
        run_benchmark(
            config, "mcf", n_references=REFS, seed=SEED, trace=trace,
            warmup_fraction=0.4, telemetry=telemetry,
        )
    )


@pytest.fixture
def walks(monkeypatch):
    """Counts the calls of D-NUCA's per-operation access step."""
    calls = []
    real = DNUCACache.access_outcome

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(DNUCACache, "access_outcome", counting)
    return calls


@pytest.fixture
def solves(monkeypatch):
    """Records the number of misses of each slice the solve takes."""
    calls = []
    real = DNUCACache.solve_outcomes

    def counting(self, addresses, *args):
        calls.append(len(addresses))
        return real(self, addresses, *args)

    monkeypatch.setattr(DNUCACache, "solve_outcomes", counting)
    return calls


class TestKernelDispatch:
    def test_replay_l2_cell_takes_the_solve(self, mcf, walks, solves):
        """perfbench's replay-l2 D-NUCA cell: both slices solved, the
        walk's access step never called, and the legacy result."""
        vectorized = _payload(replace(dnuca_config(), engine="vectorized"), mcf)
        assert len(solves) == 2 and min(solves) > 0
        assert walks == []
        legacy = _payload(replace(dnuca_config(), engine="legacy"), mcf)
        assert walks
        assert vectorized == legacy

    def test_telemetry_armed_run_walks(self, mcf, walks, solves):
        """Telemetry attaches after warmup: the warmup slice is solved,
        the measured slice, with a client armed, is walked."""
        config = dnuca_config()
        armed = _payload(config, mcf, TelemetryConfig())
        assert len(solves) == 1 and walks
        armed.pop("telemetry")
        assert armed == _payload(config, mcf)

    def test_shared_uncontended_level_is_solved(self, walks, solves):
        """Two cores over one plain D-NUCA: the merged miss stream of
        both cores' L1s is one slice for the solve, and matches legacy."""
        config = replace(dnuca_config(), name="dnuca-cmp2", cmp=CmpConfig(cores=2))

        def payload(engine):
            return run_result_to_dict(
                run_benchmark(
                    replace(config, engine=engine), "mcf+twolf", n_references=12_000,
                    seed=1, warmup_fraction=0.4,
                )
            )

        vectorized = payload("vectorized")
        assert len(solves) == 2 and walks == []
        assert vectorized == payload("legacy")

    def test_contended_level_walks(self, mcf, walks, solves):
        """A ContendedLLC forwards unknown attributes to its D-NUCA, but
        its outcomes are (hit, inner, bank) triples: the kernel must
        walk it, and match legacy."""
        config = replace(
            dnuca_config(),
            name="dnuca-contended",
            cmp=CmpConfig(cores=1, contention=ContentionConfig()),
        )
        vectorized = _payload(replace(config, engine="vectorized"), mcf)
        assert solves == [] and walks
        assert vectorized == _payload(replace(config, engine="legacy"), mcf)
