"""The exact 2-way L1 solve against the cache model it replaces.

:func:`repro.sim.l1solve.solve` must reproduce, from any reachable
initial state, exactly what :meth:`SetAssociativeCache.access` and
:meth:`~SetAssociativeCache.fill` do reference by reference: the hit
mask, each miss's victim and dirty bit, and the final tags, dirty
bits, stamps and clock.  The replay kernel memoises solves per trace
slice and initial state; the memo must be reused only for the same
state and must stay legacy-identical across lower-level configs.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.caches.simple import SetAssociativeCache
from repro.cpu.core import CoreModel
from repro.floorplan.dgroups import UniformCacheSpec
from repro.sim import l1solve, vectorized
from repro.sim.config import dnuca_config, nurapid_config
from repro.sim.driver import _replay, make_system
from repro.workloads.spec2k import get_benchmark
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_trace

BLOCK = 32


def make_l1(n_sets):
    spec = UniformCacheSpec(
        name="L1d",
        capacity_bytes=n_sets * 2 * BLOCK,
        block_bytes=BLOCK,
        associativity=2,
        latency_cycles=3,
        read_energy_nj=0.1,
        write_energy_nj=0.12,
        tag_energy_nj=0.01,
    )
    return SetAssociativeCache(spec)


def block_in_set(rng, s, n_sets, n_tags):
    return (rng.randrange(n_tags) * n_sets + s) * BLOCK


def seed_state(cache, rng, n_tags):
    """An arbitrary reachable state: per set empty, one resident in
    way 0 or way 1, or two; random dirty bits; stamps a random
    permutation below the clock, so their order across and within
    sets is scrambled."""
    n_sets = cache.n_sets
    stamps = rng.sample(range(1, 8 * n_sets + 1), 2 * n_sets)
    for s in range(n_sets):
        kind = rng.choice(["empty", "way0", "way1", "both", "both"])
        ways = {"empty": [], "way0": [0], "way1": [1], "both": [0, 1]}[kind]
        resident = set()
        for way in ways:
            while True:
                baddr = block_in_set(rng, s, n_sets, n_tags)
                if baddr not in resident:
                    break
            resident.add(baddr)
            frame = 2 * s + way
            cache._tags[frame] = baddr
            cache._dirty[frame] = rng.random() < 0.5
            cache._stamps[frame] = stamps[frame]
    cache._clock = 8 * n_sets + 1 + rng.randrange(5)


def random_refs(rng, n, n_sets, n_tags):
    sets = [rng.randrange(n_sets) for _ in range(n)]
    addresses = [
        block_in_set(rng, s, n_sets, n_tags) + rng.randrange(BLOCK) for s in sets
    ]
    writes = [rng.random() < 0.3 for _ in range(n)]
    return addresses, writes


def oracle(cache, addresses, writes):
    hits, victims = [], []
    for address, is_write in zip(addresses, writes):
        r = cache.access(address, is_write=is_write)
        hits.append(r.hit)
        if not r.hit:
            v = cache.fill(address, dirty=is_write)
            victims.append((-1, False) if v is None else (v.block_addr, v.dirty))
    return hits, victims


def state_of(cache):
    return list(cache._tags), bytes(cache._dirty), list(cache._stamps), cache._clock


def columns(addresses, writes, n_sets):
    a = np.asarray(addresses, dtype=np.int64)
    sets = ((a >> (BLOCK.bit_length() - 1)) & (n_sets - 1)).astype(np.uint16)
    return sets, a & ~np.int64(BLOCK - 1), np.asarray(writes, dtype=bool)


CASES = [
    (seed, n_sets, n_tags)
    for seed in range(12)
    for n_sets, n_tags in [(1, 3), (4, 3), (8, 6), (16, 40)]
]


class TestOracle:
    @pytest.mark.parametrize("seed,n_sets,n_tags", CASES)
    def test_matches_cache_model(self, seed, n_sets, n_tags):
        rng = random.Random(seed * 1000 + n_sets)
        live = make_l1(n_sets)
        if seed % 4:
            seed_state(live, rng, n_tags)
        before = make_l1(n_sets)
        before._tags[:], before._stamps[:] = live._tags, live._stamps
        before._dirty[:] = live._dirty
        before._clock = live._clock
        state = l1solve.cache_state(live)

        n = rng.choice([1, 2, 7, 50, 400])
        addresses, writes = random_refs(rng, n, n_sets, n_tags)
        hits, victims = oracle(live, addresses, writes)

        sol = l1solve.solve(*columns(addresses, writes, n_sets), n_sets, state)
        assert sol.miss_pos.tolist() == [k for k, h in enumerate(hits) if not h]
        assert list(zip(sol.victim.tolist(), sol.victim_dirty.tolist())) == victims

        l1solve.commit(before, sol, before._clock, n)
        assert state_of(before) == state_of(live)

    def test_empty_state_is_the_default(self):
        rng = random.Random(5)
        addresses, writes = random_refs(rng, 300, 8, 5)
        cols = columns(addresses, writes, 8)
        a = l1solve.solve(*cols, 8)
        b = l1solve.solve(*cols, 8, l1solve.cache_state(make_l1(8)))
        for field in ("miss_pos", "victim", "victim_dirty", "frames", "tags",
                      "dirty", "touch"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()

    def test_state_key_distinguishes_recency(self):
        cache = make_l1(2)
        cache.fill(0)
        cache.fill(2 * BLOCK)
        key = l1solve.state_key(*l1solve.cache_state(cache))
        assert cache.access(0).hit  # way 0 becomes most recent
        assert l1solve.state_key(*l1solve.cache_state(cache)) != key


def core_for(config, benchmark):
    profile = get_benchmark(benchmark)
    return CoreModel(
        params=config.core,
        core_ipc=profile.core_ipc,
        exposure=profile.exposure,
        branch_fraction=profile.branch_fraction,
        mispredict_rate=profile.mispredict_rate,
    )


def replay_state(config, trace, engine, warm=None):
    system = make_system(replace(config, engine=engine))
    core = core_for(config, "gcc")
    if warm is not None:
        _replay([system], [core_for(config, "gcc")], warm, engine=engine)
    _replay([system], [core], trace, engine=engine)
    l1 = system.l1d
    return (
        state_of(l1),
        (l1.hits, l1.misses, l1.writebacks),
        (core.cycle, core.instructions, core.branch_penalty_cycles, core.stall_cycles),
        system.hierarchy.stats.as_dict(),
        (system.memory.reads, system.memory.writes),
    )


class TestMemo:
    def fresh_trace(self, n=4000, seed=11):
        base = generate_trace(get_benchmark("gcc"), n, seed=seed)
        # A fresh Trace object: its decoded batch and memo start empty.
        return Trace(base.benchmark, base.gaps, base.addresses, base.writes)

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = l1solve.solve

        def counting(sets, *args):
            calls.append(len(sets))
            return real(sets, *args)

        monkeypatch.setattr(l1solve, "solve", counting)
        return calls

    def test_reused_for_same_state_across_lower_configs(self, solves):
        trace = self.fresh_trace()
        first = replay_state(nurapid_config(), trace, "vectorized")
        memo = next(iter(trace._batch_cache.values())).l1_solves
        assert len(memo) == 1 and solves == [len(trace)]
        entry = next(iter(memo.values()))
        second = replay_state(dnuca_config(), trace, "vectorized")
        assert len(memo) == 1 and next(iter(memo.values())) is entry
        assert solves == [len(trace)]
        assert first == replay_state(nurapid_config(), trace, "legacy")
        assert second == replay_state(dnuca_config(), trace, "legacy")

    def test_not_reused_for_a_different_state(self, solves):
        trace = self.fresh_trace()
        warm = self.fresh_trace(n=1500, seed=12)
        replay_state(nurapid_config(), trace, "vectorized")
        warmed = replay_state(nurapid_config(), trace, "vectorized", warm=warm)
        memo = next(iter(trace._batch_cache.values())).l1_solves
        assert len(memo) == 2
        assert solves == [len(trace), len(warm), len(trace)]
        assert warmed == replay_state(nurapid_config(), trace, "legacy", warm=warm)

    def test_memo_is_bounded(self):
        trace = self.fresh_trace(n=500)
        for n_warm in range(1, vectorized.SOLVE_MEMO_ENTRIES + 3):
            warm = self.fresh_trace(n=100 * n_warm, seed=20 + n_warm)
            replay_state(nurapid_config(), trace, "vectorized", warm=warm)
        memo = next(iter(trace._batch_cache.values())).l1_solves
        assert len(memo) == vectorized.SOLVE_MEMO_ENTRIES
