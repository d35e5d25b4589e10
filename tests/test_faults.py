"""Runtime fault injection and graceful d-group degradation."""

import dataclasses

import pytest

from repro.common.errors import (
    ConfigurationError,
    FaultError,
    UncorrectableDataError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    HardFaultEvent,
    TransientOutcome,
    transient_rate_from_fit,
)
from repro.nurapid.cache import NuRAPIDCache


def tiny_plan(**kw):
    defaults = dict(seed=3)
    defaults.update(kw)
    return FaultPlan(**defaults)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_per_access=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(transient_at_accesses=(0,))
        with pytest.raises(ConfigurationError):
            FaultPlan(max_upset_bits=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(interleave_subarrays=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(spare_subarrays_per_dgroup=-1)

    def test_hard_fault_event_validation(self):
        with pytest.raises(ConfigurationError):
            HardFaultEvent(at_access=0, dgroup=0, subarray=0)
        with pytest.raises(ConfigurationError):
            HardFaultEvent(at_access=5, dgroup=-1, subarray=0)

    def test_label_distinguishes_campaigns(self):
        a = FaultPlan(transient_per_access=1e-4)
        b = FaultPlan(transient_per_access=1e-4, seed=9)
        c = FaultPlan(hard_faults=(HardFaultEvent(10, 0, 0),))
        assert len({a.label(), b.label(), c.label()}) == 3

    def test_fit_conversion(self):
        # 1000 FIT/Mbit over 64 Mbit = 64000 upsets per 1e9 hours;
        # at 1e9 accesses/s the per-access probability is tiny but
        # positive, and scales linearly in the FIT rate.
        r1 = transient_rate_from_fit(1000.0, 64 * 2**20, 1e9)
        r2 = transient_rate_from_fit(2000.0, 64 * 2**20, 1e9)
        assert 0 < r1 < 1e-15
        assert r2 == pytest.approx(2 * r1)
        assert transient_rate_from_fit(1e30, 64 * 2**20, 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            transient_rate_from_fit(-1.0, 1, 1.0)


class TestInjectorTransients:
    def test_no_fault_plan_draws_nothing(self):
        injector = FaultInjector(tiny_plan(), "c")
        for i in range(50):
            assert injector.on_access(True, True) is None
        assert injector.summary()["fault_accesses_observed"] == 50.0
        assert injector.stats.as_dict() == {}

    def test_misses_never_struck(self):
        injector = FaultInjector(
            tiny_plan(transient_at_accesses=tuple(range(1, 20))), "c"
        )
        for _ in range(19):
            assert injector.on_access(False, False) is None
        assert injector.stats.as_dict() == {}

    def test_single_bit_upsets_always_corrected(self):
        injector = FaultInjector(
            tiny_plan(transient_at_accesses=tuple(range(1, 101)), max_upset_bits=1),
            "c",
        )
        for _ in range(100):
            assert injector.on_access(True, True) is TransientOutcome.CORRECTED
        stats = injector.stats.as_dict()
        assert stats["upsets"] == 100
        assert stats["corrected"] == 100

    def test_wide_interleaving_corrects_every_multibit_strike(self):
        # The §3.1 guarantee at runtime: with >= codeword_bits (72)
        # subarrays, each word keeps one bit per subarray, so even a
        # 32-cell adjacent strike decodes corrected, every time.
        injector = FaultInjector(
            tiny_plan(
                transient_at_accesses=tuple(range(1, 201)),
                max_upset_bits=32,
                interleave_subarrays=128,
            ),
            "c",
        )
        for _ in range(200):
            assert injector.on_access(True, True) is TransientOutcome.CORRECTED
        assert injector.stats.as_dict()["corrected"] == 200

    def test_narrow_interleaving_produces_uncorrectables(self):
        plan = tiny_plan(
            transient_at_accesses=tuple(range(1, 201)),
            max_upset_bits=32,
            interleave_subarrays=8,
        )
        injector = FaultInjector(plan, "c")
        outcomes = [injector.on_access(True, False) for _ in range(200)]
        stats = injector.stats.as_dict()
        assert stats["upsets"] == 200
        assert stats.get("corrected", 0) > 0
        assert stats.get("detected_uncorrectable", 0) > 0
        assert outcomes.count(TransientOutcome.REFETCH) == stats[
            "clean_refetches"
        ]

    def test_dirty_uncorrectable_raises_typed_error(self):
        plan = tiny_plan(
            transient_at_accesses=tuple(range(1, 201)),
            max_upset_bits=32,
            interleave_subarrays=8,
        )
        injector = FaultInjector(plan, "L2tiny")
        calls = 0
        with pytest.raises(UncorrectableDataError) as info:
            for _ in range(200):
                calls += 1
                injector.on_access(True, True, address=0xCAFE40)
        err = info.value
        assert isinstance(err, FaultError)
        assert err.level == "L2tiny"
        assert err.address == 0xCAFE40
        assert err.access_index == calls
        assert injector.stats.as_dict()["dirty_data_loss"] == 1

    def test_campaigns_replay_bit_for_bit(self):
        def campaign():
            injector = FaultInjector(
                tiny_plan(transient_per_access=0.2, max_upset_bits=32,
                          interleave_subarrays=8),
                "c",
            )
            outcomes = []
            for _ in range(300):
                try:
                    outcomes.append(injector.on_access(True, False))
                except UncorrectableDataError:
                    outcomes.append("raised")
            return outcomes, injector.stats.as_dict()

        assert campaign() == campaign()

    def test_different_seeds_differ(self):
        def outcomes(seed):
            injector = FaultInjector(
                tiny_plan(transient_per_access=0.2, seed=seed), "c"
            )
            return [injector.on_access(True, False) is not None for _ in range(200)]

        assert outcomes(1) != outcomes(2)


class TestInjectorHardFaults:
    def test_due_faults_pop_in_order(self):
        events = (
            HardFaultEvent(at_access=5, dgroup=1, subarray=2),
            HardFaultEvent(at_access=2, dgroup=0, subarray=1),
        )
        injector = FaultInjector(tiny_plan(hard_faults=events), "c", n_dgroups=2)
        assert injector.take_due_hard_faults() == []
        for _ in range(3):
            injector.on_access(False, False)
        assert injector.take_due_hard_faults() == [events[1]]
        for _ in range(3):
            injector.on_access(False, False)
        assert injector.take_due_hard_faults() == [events[0]]
        assert injector.take_due_hard_faults() == []

    def test_repair_then_retire_when_spares_run_out(self):
        events = tuple(
            HardFaultEvent(at_access=i + 1, dgroup=0, subarray=i) for i in range(3)
        )
        injector = FaultInjector(
            tiny_plan(hard_faults=events, spare_subarrays_per_dgroup=1), "c"
        )
        assert injector.repair_or_retire(events[0])
        assert not injector.repair_or_retire(events[1])
        assert not injector.repair_or_retire(events[2])
        stats = injector.stats.as_dict()
        assert stats["hard_faults_repaired"] == 1
        assert stats["hard_faults_unrepaired"] == 2

    def test_out_of_range_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(
                tiny_plan(hard_faults=(HardFaultEvent(1, 4, 0),)), "c", n_dgroups=4
            )
        with pytest.raises(ConfigurationError):
            FaultInjector(
                tiny_plan(hard_faults=(HardFaultEvent(1, 0, 64),)), "c", n_dgroups=1
            )


def drive(cache, n, base=0, write_every=0):
    """Access+fill a stream of distinct blocks; returns last result."""
    result = None
    for i in range(n):
        addr = base + i * cache.block_bytes
        is_write = bool(write_every) and i % write_every == 0
        result = cache.access(addr, is_write=is_write)
        if not result.hit:
            cache.fill(addr, dirty=is_write)
    return result


class TestNuRAPIDDegradation:
    def attach(self, cache, **kw):
        defaults = dict(data_subarrays_per_dgroup=4, spare_subarrays_per_dgroup=0)
        defaults.update(kw)
        return cache.attach_faults(tiny_plan(**defaults))

    def test_attach_twice_rejected(self, small_nurapid):
        self.attach(small_nurapid)
        with pytest.raises(ConfigurationError):
            small_nurapid.attach_faults(tiny_plan())

    def test_spare_absorbs_failure_without_capacity_loss(self, small_nurapid):
        self.attach(
            small_nurapid,
            hard_faults=(HardFaultEvent(at_access=10, dgroup=0, subarray=1),),
            spare_subarrays_per_dgroup=1,
        )
        small_nurapid.prewarm()
        drive(small_nurapid, 50)
        assert small_nurapid.retired_frames() == [0, 0, 0, 0]
        assert small_nurapid.stats.get("fault_frames_retired") == 0
        assert small_nurapid.fault_injector.stats.get("hard_faults_repaired") == 1
        small_nurapid.check_invariants()

    def test_retirement_shrinks_fastest_dgroup(self, small_nurapid):
        # 256 frames per d-group over 4 subarrays: one dead subarray
        # with no spares retires 64 frames of d-group 0.
        self.attach(
            small_nurapid,
            hard_faults=(HardFaultEvent(at_access=10, dgroup=0, subarray=2),),
        )
        small_nurapid.prewarm()
        drive(small_nurapid, 400)
        assert small_nurapid.retired_frames() == [64, 0, 0, 0]
        occupied, total = small_nurapid.dgroup_occupancy()[0]
        assert total == 256 and occupied <= 192
        small_nurapid.check_invariants()

    def test_dirty_lines_lost_are_counted_not_raised(self, small_nurapid):
        self.attach(
            small_nurapid,
            hard_faults=(HardFaultEvent(at_access=300, dgroup=0, subarray=0),),
        )
        small_nurapid.prewarm()
        drive(small_nurapid, 290, write_every=1)
        drive(small_nurapid, 20, base=1 << 30)
        stats = small_nurapid.stats.as_dict()
        assert stats["fault_frames_retired"] == 64
        assert stats.get("fault_lines_lost", 0) > 0
        assert stats.get("fault_dirty_lines_lost", 0) > 0
        small_nurapid.check_invariants()

    def test_whole_fastest_group_retired_keeps_running(self, small_nurapid):
        # The extreme degradation: every d-group-0 subarray dies with
        # no spares.  Fills route to d-group 1, promotions into the
        # dead group are blocked, and the run completes with valid
        # (degraded) results instead of crashing.
        self.attach(
            small_nurapid,
            hard_faults=tuple(
                HardFaultEvent(at_access=10 + i, dgroup=0, subarray=i)
                for i in range(4)
            ),
        )
        small_nurapid.prewarm()
        drive(small_nurapid, 1500)
        # Revisit a slice to exercise hits and promotion attempts.
        drive(small_nurapid, 200, base=500 * small_nurapid.block_bytes)
        assert small_nurapid.retired_frames()[0] == 256
        assert small_nurapid.dgroup_occupancy()[0] == (0, 256)
        stats = small_nurapid.stats.as_dict()
        assert stats.get("hits", 0) > 0
        assert small_nurapid.dgroup_hits.items()
        assert all(group != 0 for group, _ in small_nurapid.dgroup_hits.items())
        small_nurapid.check_invariants()

    def test_capacity_eviction_when_frames_outnumbered(self, small_nurapid):
        # After retirement the cache holds fewer frames (960) than the
        # tag side admits (1024): a fill into a non-full set must evict
        # for space instead of running the demotion chain off the end.
        self.attach(
            small_nurapid,
            hard_faults=(HardFaultEvent(at_access=5, dgroup=0, subarray=0),),
        )
        small_nurapid.prewarm()
        drive(small_nurapid, 2000)
        stats = small_nurapid.stats.as_dict()
        assert stats.get("fault_capacity_evictions", 0) > 0
        small_nurapid.check_invariants()

    def test_refetch_outcome_invalidates_and_misses(self, small_nurapid):
        self.attach(small_nurapid)
        small_nurapid.prewarm()
        drive(small_nurapid, 10)
        addr = 3 * small_nurapid.block_bytes
        assert small_nurapid.contains(addr)
        small_nurapid.fault_injector.on_access = (
            lambda hit, dirty, address=0: TransientOutcome.REFETCH
        )
        result = small_nurapid.access(addr)
        assert not result.hit
        assert not small_nurapid.contains(addr)
        assert small_nurapid.stats.get("fault_refetches") == 1
        small_nurapid.check_invariants()
        # The refetched fill reinstalls the block cleanly.
        small_nurapid.fill(addr)
        assert small_nurapid.contains(addr)

    def test_zero_plan_matches_no_plan_exactly(self, small_nurapid_config):
        def trajectory(with_plan):
            cache = NuRAPIDCache(small_nurapid_config)
            if with_plan:
                cache.attach_faults(tiny_plan())
            cache.prewarm()
            results = []
            now = 0.0
            for i in range(600):
                addr = (i % 400) * cache.block_bytes
                r = cache.access(addr, is_write=i % 7 == 0, now=now)
                if not r.hit:
                    cache.fill(addr, now=now, dirty=i % 7 == 0)
                now += 3.0
                results.append((r.hit, r.latency, cache.energy.total_nj()))
            stats = {
                k: v
                for k, v in cache.stats.as_dict().items()
                if not k.startswith("fault_")
            }
            return results, stats, cache.energy.total_nj()

        assert trajectory(False) == trajectory(True)


class TestSimpleCacheFaults:
    def make(self):
        from repro.caches.simple import SetAssociativeCache
        from repro.floorplan.dgroups import build_uniform_cache_spec

        return SetAssociativeCache(
            build_uniform_cache_spec(
                name="u",
                capacity_bytes=16 * 1024,
                block_bytes=64,
                associativity=4,
                latency_cycles=5,
            )
        )

    def test_hard_fault_plans_rejected(self):
        cache = self.make()
        with pytest.raises(ConfigurationError):
            cache.attach_faults(tiny_plan(hard_faults=(HardFaultEvent(1, 0, 0),)))

    def test_refetch_drops_clean_line(self):
        cache = self.make()
        cache.attach_faults(tiny_plan())
        cache.fill(0)
        assert cache.contains(0)
        cache.fault_injector.on_access = (
            lambda hit, dirty, address=0: TransientOutcome.REFETCH
        )
        result = cache.access(0)
        assert not result.hit
        assert not cache.contains(0)
        assert cache.fault_refetches == 1
        assert cache.misses == 1

    def test_dirty_uncorrectable_raises(self):
        cache = self.make()
        cache.attach_faults(
            tiny_plan(
                transient_at_accesses=tuple(range(1, 201)),
                max_upset_bits=32,
                interleave_subarrays=8,
            )
        )
        cache.fill(0, dirty=True)
        with pytest.raises(UncorrectableDataError):
            for _ in range(200):
                cache.access(0)

    def test_zero_plan_matches_no_plan_exactly(self):
        def trajectory(with_plan):
            cache = self.make()
            if with_plan:
                cache.attach_faults(tiny_plan())
            results = []
            for i in range(500):
                addr = (i % 300) * 64
                r = cache.access(addr, is_write=i % 5 == 0)
                if not r.hit:
                    cache.fill(addr, dirty=i % 5 == 0)
                results.append((r.hit, r.latency, cache.energy.total_nj()))
            return results, cache.hits, cache.misses, cache.writebacks

        assert trajectory(False) == trajectory(True)


class TestSystemIntegration:
    def test_fault_config_names_encode_the_campaign(self):
        from repro.sim.config import base_config, nurapid_config

        plan = tiny_plan(transient_per_access=1e-4)
        assert base_config(plan).name != base_config().name
        assert nurapid_config(faults=plan).name != nurapid_config().name

    def test_faults_rejected_for_unmodeled_kinds(self):
        from repro.sim.config import SystemConfig

        with pytest.raises(ConfigurationError):
            SystemConfig(name="x", l2_kind="sa-nuca", faults=tiny_plan())
        with pytest.raises(ConfigurationError):
            SystemConfig(
                name="x",
                l2_kind="base",
                faults=tiny_plan(hard_faults=(HardFaultEvent(1, 0, 0),)),
            )

    def test_degraded_run_completes_with_valid_result(self):
        from repro.sim.config import nurapid_config
        from repro.sim.driver import run_benchmark

        plan = tiny_plan(
            hard_faults=tuple(
                HardFaultEvent(at_access=(i + 1) * 20, dgroup=0, subarray=i)
                for i in range(4)
            ),
            data_subarrays_per_dgroup=8,
            spare_subarrays_per_dgroup=1,
        )
        result = run_benchmark(
            nurapid_config(faults=plan), "twolf", n_references=20_000
        )
        assert result.ipc > 0
        assert result.stats["fault_hard_faults_unrepaired"] == 3.0
        assert result.stats["fault_frames_retired_total"] == 3 * 16384 / 8

    def test_no_fault_run_is_bit_identical_to_seed_behavior(self):
        from repro.sim.config import nurapid_config
        from repro.sim.driver import run_benchmark

        plain = run_benchmark(nurapid_config(), "art", n_references=15_000)
        zero = dataclasses.replace(
            nurapid_config(faults=tiny_plan()), name=nurapid_config().name
        )
        armed = run_benchmark(zero, "art", n_references=15_000)
        assert armed.cycles == plain.cycles
        assert armed.instructions == plain.instructions
        assert armed.l2_hits == plain.l2_hits
        assert armed.l2_misses == plain.l2_misses
        assert armed.lower_energy_nj == plain.lower_energy_nj
        assert armed.dgroup_fractions == plain.dgroup_fractions
        for key, value in plain.stats.items():
            assert armed.stats[key] == value
