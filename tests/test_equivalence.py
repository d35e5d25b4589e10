"""Cross-model equivalence properties.

The strongest correctness checks available: configured to degenerate
points, the sophisticated models must reproduce simpler ones exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.simple import SetAssociativeCache
from repro.floorplan.dgroups import build_uniform_cache_spec
from repro.nurapid.cache import NuRAPIDCache
from repro.nurapid.config import (
    DistanceReplacementKind,
    NuRAPIDConfig,
    PromotionPolicy,
)

KB = 1024


def reference_cache():
    spec = build_uniform_cache_spec(
        "ref", 64 * KB, 64, 4, latency_cycles=10, sequential_tag_data=True
    )
    return SetAssociativeCache(spec)


def one_dgroup_nurapid():
    """With one d-group there is no distance dimension left: placement
    is trivial and data replacement is plain per-set LRU."""
    return NuRAPIDCache(
        NuRAPIDConfig(
            capacity_bytes=64 * KB,
            block_bytes=64,
            associativity=4,
            n_dgroups=1,
            promotion=PromotionPolicy.DEMOTION_ONLY,
            distance_replacement=DistanceReplacementKind.LRU,
            name="degenerate",
        )
    )


class TestNuRAPIDDegeneratesToLRU:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hit_miss_stream_matches_reference(self, seed):
        nurapid = one_dgroup_nurapid()
        reference = reference_cache()
        rng = random.Random(seed)
        for _ in range(600):
            address = rng.randrange(0, 4 * 64 * KB) & ~63
            write = rng.random() < 0.3
            a = nurapid.access(address, is_write=write)
            b = reference.access(address, is_write=write)
            assert a.hit == b.hit, f"divergence at {address:#x}"
            if not a.hit:
                wb_a = nurapid.fill(address, dirty=write)
                wb_b = reference.fill_outcome(address, dirty=write)[0]
                assert wb_a == wb_b
        nurapid.check_invariants()
        assert nurapid.stats.get("hits") == reference.hits
        assert nurapid.stats.get("misses") == reference.misses

    def test_single_dgroup_never_demotes(self):
        c = one_dgroup_nurapid()
        rng = random.Random(1)
        for _ in range(800):
            address = rng.randrange(0, 4 * 64 * KB) & ~63
            if not c.access(address).hit:
                c.fill(address)
        assert c.stats.get("demotions") == 0
        assert c.stats.get("promotions") == 0


class TestPromotionPoliciesAgreeOnContents:
    """Promotion moves data between d-groups but never changes *what*
    is resident: any two policies replay a trace with identical
    hit/miss streams (data replacement is LRU in both)."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_policies_share_residency(self, seed):
        caches = [
            NuRAPIDCache(
                NuRAPIDConfig(
                    capacity_bytes=64 * KB,
                    block_bytes=64,
                    associativity=4,
                    n_dgroups=4,
                    promotion=policy,
                    distance_replacement=DistanceReplacementKind.LRU,
                    seed=3,
                    name=f"p-{policy.value}",
                )
            )
            for policy in PromotionPolicy
        ]
        rng = random.Random(seed)
        for _ in range(500):
            address = rng.randrange(0, 4 * 64 * KB) & ~63
            results = [c.access(address) for c in caches]
            hits = {r.hit for r in results}
            assert len(hits) == 1
            if not results[0].hit:
                for c in caches:
                    c.fill(address)
        for c in caches:
            c.check_invariants()
        base = caches[0]
        for other in caches[1:]:
            assert other.stats.get("hits") == base.stats.get("hits")
            assert other.stats.get("misses") == base.stats.get("misses")


class TestIdealMatchesRealResidency:
    def test_ideal_flag_changes_latency_not_contents(self):
        real = NuRAPIDCache(
            NuRAPIDConfig(capacity_bytes=64 * KB, block_bytes=64,
                          associativity=4, n_dgroups=4, seed=5, name="r")
        )
        ideal = NuRAPIDCache(
            NuRAPIDConfig(capacity_bytes=64 * KB, block_bytes=64,
                          associativity=4, n_dgroups=4, seed=5,
                          ideal_uniform=True, name="i")
        )
        rng = random.Random(9)
        latency_diffs = 0
        for _ in range(600):
            address = rng.randrange(0, 3 * 64 * KB) & ~63
            a = real.access(address, now=0.0)
            b = ideal.access(address, now=0.0)
            assert a.hit == b.hit
            if a.hit and a.latency != b.latency:
                latency_diffs += 1
            if not a.hit:
                real.fill(address)
                ideal.fill(address)
        assert latency_diffs > 0  # latencies differ...
        assert real.stats.get("misses") == ideal.stats.get("misses")  # ...contents don't
