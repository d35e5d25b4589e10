"""Stream prefetcher: training, issuing, accounting, integration."""

from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.caches.prefetch import StreamPrefetcher
from repro.telemetry import reset_runtime_registry, runtime_counters

KB = 1024


def blocks(base, count, step=128):
    return [base + i * step for i in range(count)]


class TestTraining:
    def test_untrained_stream_issues_nothing(self):
        pf = StreamPrefetcher()
        assert pf.observe_miss(0x1000) == []
        assert pf.observe_miss(0x1080) == []  # confidence 1 < threshold 2

    def test_ascending_stream_trains_and_issues(self):
        pf = StreamPrefetcher(degree=2)
        issued = []
        for address in blocks(0x1000, 4):
            issued = pf.observe_miss(address)
        assert issued == [0x1000 + 4 * 128, 0x1000 + 5 * 128]

    def test_descending_stream(self):
        pf = StreamPrefetcher(degree=1)
        issued = []
        for address in reversed(blocks(0x10000, 4)):
            issued = pf.observe_miss(address)
        assert issued == [0x10000 - 128]

    def test_random_pattern_never_trains(self):
        pf = StreamPrefetcher()
        addresses = [0x1000, 0x1E00, 0x1200, 0x1A80, 0x1011]
        assert all(pf.observe_miss(a) == [] for a in addresses)

    def test_direction_flip_resets_confidence(self):
        pf = StreamPrefetcher(degree=1, train_threshold=2)
        for address in blocks(0x2000, 3):
            pf.observe_miss(address)
        # Reverse direction: first reversed miss must not prefetch.
        assert pf.observe_miss(0x2000 + 1 * 128) == []

    def test_streams_tracked_per_region(self):
        pf = StreamPrefetcher(degree=1)
        a = blocks(0x10000, 4)
        b = blocks(0x80000, 4)
        out_a = out_b = []
        for x, y in zip(a, b):  # interleaved streams
            out_a = pf.observe_miss(x)
            out_b = pf.observe_miss(y)
        assert out_a and out_b

    def test_stream_table_evicts_lru(self):
        pf = StreamPrefetcher(streams=2)
        pf.observe_miss(0x10000)
        pf.observe_miss(0x20000)
        pf.observe_miss(0x30000)  # evicts the 0x10000 region entry
        assert pf.stats.streams_allocated == 3
        assert len(pf._table) == 2

    def test_negative_prefetches_clamped(self):
        pf = StreamPrefetcher(degree=4)
        for address in reversed(blocks(0, 4)):
            out = pf.observe_miss(address)
        assert all(p >= 0 for p in out)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamPrefetcher(block_bytes=100)
        with pytest.raises(ConfigurationError):
            StreamPrefetcher(streams=0)


class TestAccounting:
    def test_accuracy(self):
        pf = StreamPrefetcher()
        pf.note_issued(0x1000)
        pf.note_issued(0x2000)
        pf.note_demand(0x1000)
        assert pf.stats.issued == 2
        assert pf.stats.useful == 1
        assert pf.stats.accuracy == pytest.approx(0.5)

    def test_demand_without_prefetch_is_ignored(self):
        pf = StreamPrefetcher()
        pf.note_demand(0x5000)
        assert pf.stats.useful == 0

    def test_useful_counted_once(self):
        pf = StreamPrefetcher()
        pf.note_issued(0x1000)
        pf.note_demand(0x1000)
        pf.note_demand(0x1000)
        assert pf.stats.useful == 1

    def test_empty_accuracy(self):
        assert StreamPrefetcher().stats.accuracy == 0.0


class TestHierarchyIntegration:
    def test_prefetch_fills_reach_the_l2(self):
        from repro.sim.config import nurapid_config
        from repro.sim.driver import make_system

        system = make_system(replace(nurapid_config(), prefetch=True), prewarm=False)
        hierarchy = system.hierarchy
        base = 0x40_0000
        for i in range(6):
            hierarchy.access_data(base + i * 128, False, float(i * 50))
        # The stream trained; blocks ahead of the stream are resident
        # without ever being demanded.
        assert hierarchy.prefetcher.stats.issued > 0
        ahead = base + 7 * 128
        assert system.l2.contains(ahead)

    def test_hierarchy_carries_the_prefetcher(self):
        from repro.sim.config import base_config
        from repro.sim.driver import make_system

        assert make_system(base_config(), prewarm=False).hierarchy.prefetcher is None
        system = make_system(replace(base_config(), prefetch=True), prewarm=False)
        prefetcher = system.hierarchy.prefetcher
        # It tracks the first lower level's blocks.
        assert prefetcher.block_bytes == system.l2.block_bytes


def _replay_both(config, addresses, writes=None):
    """Replay a hand-made trace (one instruction per reference) under
    each exact engine; returns {engine: (system, core)}."""
    import numpy as np

    from repro.cpu.core import CoreModel
    from repro.sim.config import ENGINES
    from repro.sim.driver import _replay, make_system
    from repro.workloads.trace import Trace

    n = len(addresses)
    trace = Trace(
        benchmark="hand",
        gaps=np.ones(n, dtype=np.int64),
        addresses=np.array(addresses, dtype=np.int64),
        writes=np.array(writes or [False] * n, dtype=bool),
    )
    out = {}
    for engine in ENGINES:
        system = make_system(replace(config, engine=engine), prewarm=False)
        core = CoreModel(config.core, core_ipc=1.0, exposure=0.5)
        _replay([system], [core], trace, engine=engine)
        out[engine] = (system, core)
    return out


def _books(system, core):
    prefetcher = system.hierarchy.prefetcher
    return {
        "prefetch": (prefetcher.stats.issued, prefetcher.stats.useful),
        "hierarchy": system.hierarchy.stats.as_dict(),
        "memory": (system.memory.reads, system.memory.writes),
        "l1": (system.l1d.hits, system.l1d.misses),
        "core": (core.cycle, core.stall_cycles, core.memory_accesses),
    }


class TestHierarchyHook:
    @pytest.mark.parametrize("then_miss", [True, False], ids=["between", "tail"])
    def test_useful_credit_on_an_l1_hit(self, then_miss):
        """A prefetched block whose 32 B line is still in the L1 is
        credited by an L1 hit, between two misses or after the last
        one; the kernel must not skip it."""
        from repro.sim.config import base_config

        block = 0x40_0800
        # The L2 loses ``block`` to eight set conflicts that use another
        # L1 set, so its first line stays in the L1; a stream then
        # prefetches it back into the L2; the next reference hits the
        # L1, and one more may miss after it.
        conflicts = [block + k * 128 * KB + 32 for k in range(1, 9)]
        stream = [block - 384, block - 256, block - 128]
        after = [0x80_0000] if then_miss else []
        runs = _replay_both(
            replace(base_config(), prefetch=True),
            [block, *conflicts, *stream, block, *after],
        )
        books = {engine: _books(*run) for engine, run in runs.items()}
        assert books["legacy"] == books["vectorized"]
        assert books["legacy"]["l1"] == (1, 12 + len(after))
        assert books["legacy"]["prefetch"] == (2, 1)

    def test_prefetch_fill_writes_back_its_dirty_victim(self):
        """A prefetch fill that evicts a dirty L2 block writes it to
        memory and counts an L2 writeback, like a demand fill."""
        from repro.sim.config import base_config

        # Eight written blocks fill one L2 set; the L1 evicts each
        # dirty line back into it (the last two by two reads of other
        # L2 sets through the same L1 set).
        dirty = [k * 128 * KB for k in range(8)]
        evict = [32 * KB, 96 * KB]
        # A stream below 1 MB prefetches 1 MB, into that full set.
        target = 1024 * KB
        stream = [target - 384, target - 256, target - 128]
        runs = _replay_both(
            replace(base_config(), prefetch=True),
            [*dirty, *evict, *stream],
            [True] * 8 + [False] * 5,
        )
        books = {engine: _books(*run) for engine, run in runs.items()}
        assert books["legacy"] == books["vectorized"]
        assert books["legacy"]["hierarchy"]["L2_writebacks"] == 1
        assert books["legacy"]["memory"][1] == 1
        system, _ = runs["legacy"]
        assert system.l2.contains(target)

    def test_reset_stats_forgets_warmup_prefetches(self):
        from repro.sim.config import nurapid_config
        from repro.sim.driver import make_system

        system = make_system(replace(nurapid_config(), prefetch=True), prewarm=False)
        hierarchy = system.hierarchy
        for i in range(6):
            hierarchy.access_data(0x40_0000 + i * 128, False, float(i * 50))
        prefetcher = hierarchy.prefetcher
        assert prefetcher.stats.issued and prefetcher.outstanding()
        table = dict(prefetcher._table)
        system.reset_stats()
        assert (prefetcher.stats.issued, prefetcher.stats.useful) == (0, 0)
        assert prefetcher.outstanding() == 0
        assert prefetcher._table == table  # the stream table is state

    @pytest.mark.parametrize("config", ["base", "nurapid", "nurapid-contended"])
    def test_engines_agree_on_a_stream_benchmark(self, config, tmp_path):
        """Results, telemetry reports and event traces (whose stamps and
        bank charges show when each prefetch fill is timed) match."""
        import json

        from repro.cmp.config import CmpConfig, ContentionConfig
        from repro.sim.config import base_config, nurapid_config
        from repro.sim.driver import run_benchmark
        from repro.sim.results import run_result_to_dict
        from repro.telemetry import TelemetryConfig
        from repro.telemetry.report import merge_payloads, render_report

        build = {
            "base": base_config,
            "nurapid": nurapid_config,
            "nurapid-contended": lambda: replace(
                nurapid_config(),
                cmp=CmpConfig(cores=1, contention=ContentionConfig(n_banks=2)),
            ),
        }[config]
        reset_runtime_registry()
        outputs = {}
        for engine in ("legacy", "vectorized"):
            result = run_benchmark(
                replace(build(), prefetch=True, engine=engine),
                "swim",
                n_references=20_000,
                seed=1,
                warmup_fraction=0.3,
                telemetry=TelemetryConfig(
                    events=True, trace_dir=str(tmp_path / engine), trace_limit=None
                ),
            )
            assert result.stats["prefetch_issued"] > 0
            payload = run_result_to_dict(result)
            telem = payload.pop("telemetry")
            with open(telem["trace"].pop("path"), "rb") as handle:
                events = handle.read()
            report = render_report(merge_payloads([("cell", telem)]))
            outputs[engine] = (json.dumps(payload, sort_keys=True), report, events)
        assert outputs["legacy"] == outputs["vectorized"]
        assert runtime_counters().get("vectorized.fallbacks", 0) == 0
        assert runtime_counters().get("vectorized.refs", 0) == 20_000


class TestConfigField:
    def test_fingerprint_unchanged_while_off(self):
        from repro.sim.config import base_config, config_fingerprint, nurapid_config

        # Fingerprints from before the field existed: stored results
        # of configs without the prefetcher stay reachable.
        assert config_fingerprint(base_config()) == (
            "e328090e83af3231fca00f54907e0c2fa4e4f9856d2b9fdaf4648ee86bed4cd5"
        )
        assert config_fingerprint(nurapid_config()) == (
            "46f7949170c6161b13f6d9ea05b15d60e77d55b3cfea72488e9fc86d6619182f"
        )
        assert config_fingerprint(
            replace(base_config(), prefetch=True)
        ) != config_fingerprint(base_config())

    def test_rejects_multi_core(self):
        from repro.cmp.scenarios import cmp_nurapid_config

        with pytest.raises(ConfigurationError, match="prefetch"):
            replace(cmp_nurapid_config(cores=2), prefetch=True)

    def test_ablation_names_carry_pf(self):
        from repro.experiments.ablation_prefetch import with_prefetch
        from repro.sim.config import base_config

        config = with_prefetch(base_config())
        assert config.prefetch and config.name == "base-pf"

