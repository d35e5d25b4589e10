"""CMP subsystem: interleaving, contention, compression, bit-identity.

The load-bearing property is the cores=1 contract: a config carrying
``CmpConfig(cores=1)`` must be *byte-identical* — summary JSON and
telemetry report bytes — to the same config without a ``cmp`` block,
on every exact engine.  Everything else (interleaver determinism,
queueing behavior, compressed placement invariants) defends the new
model's own guarantees.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.caches.port import PortScheduler
from repro.cmp.config import CmpConfig, CompressionConfig, ContentionConfig
from repro.cmp.contention import ContendedLLC
from repro.cmp.engine import generate_cmp_trace, jain_fairness, run_cmp
from repro.cmp.scenarios import cmp_nurapid_config, cmp_snuca_config, per_core_ipcs
from repro.common.errors import ConfigurationError
from repro.nurapid.compression import CompressedNuRAPIDCache
from repro.nurapid.config import NuRAPIDConfig
from repro.sim.config import (
    EXACT_ENGINES,
    SystemConfig,
    base_config,
    nurapid_config,
    snuca_config,
)
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.interleave import (
    CORE_ADDR_SHIFT,
    MAX_CORES,
    core_of_address,
    interleave_traces,
    parse_cmp_benchmark,
)
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

REFS = 6_000
WARMUP = 0.25


def _summary(config: SystemConfig, benchmark: str, seed: int, engine: str,
             telemetry=None) -> dict:
    result = run_benchmark(
        replace(config, engine=engine),
        benchmark,
        n_references=REFS,
        seed=seed,
        warmup_fraction=WARMUP,
        telemetry=telemetry,
    )
    return run_result_to_dict(result)


# --- the cores=1 bit-identity contract ---


class TestSingleCoreParity:
    @pytest.mark.parametrize(
        "config",
        [nurapid_config(), snuca_config(), base_config()],
        ids=lambda c: c.name,
    )
    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_summary_byte_identical(self, config, engine):
        tagged = replace(config, cmp=CmpConfig(cores=1))
        plain = _summary(config, "twolf", 1, engine)
        routed = _summary(tagged, "twolf", 1, engine)
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            routed, sort_keys=True
        )

    @pytest.mark.parametrize(
        "config", [nurapid_config(), snuca_config()], ids=lambda c: c.name
    )
    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_telemetry_report_byte_identical(self, config, engine):
        reports = []
        for cfg in (config, replace(config, cmp=CmpConfig(cores=1))):
            payload = _summary(
                cfg, "galgel", 1, engine, telemetry=TelemetryConfig()
            )
            telem = payload.pop("telemetry")
            reports.append(render_report(merge_payloads([("cell", telem)])))
        assert reports[0] == reports[1]

    def test_multi_core_engines_agree(self):
        config = cmp_nurapid_config(cores=2)
        outputs = {
            engine: json.dumps(
                _summary(config, "twolf", 1, engine), sort_keys=True
            )
            for engine in EXACT_ENGINES
        }
        assert outputs["legacy"] == outputs["vectorized"]


# --- deterministic interleaving ---


class TestInterleaver:
    def _traces(self, seeds=(0, 1)):
        return [
            generate_trace(get_benchmark("twolf"), 2000, seed=seed)
            for seed in seeds
        ]

    def test_deterministic(self):
        a = interleave_traces(self._traces(), [1.0, 1.0])
        b = interleave_traces(self._traces(), [1.0, 1.0])
        assert np.array_equal(a.trace.addresses, b.trace.addresses)
        assert np.array_equal(a.cores, b.cores)

    def test_single_core_identity(self):
        trace = generate_trace(get_benchmark("twolf"), 2000, seed=0)
        merged = interleave_traces([trace], [1.0])
        assert np.array_equal(merged.trace.addresses, trace.addresses)
        assert np.array_equal(merged.trace.gaps, trace.gaps)
        assert not merged.cores.any()

    def test_provenance_recovers_streams(self):
        traces = self._traces()
        merged = interleave_traces(traces, [1.0, 1.0])
        assert len(merged) == sum(len(t) for t in traces)
        for core, trace in enumerate(traces):
            mask = merged.cores == core
            assert mask.sum() == len(trace)
            own = merged.trace.addresses[mask]
            # Core streams keep their order; addresses carry the offset.
            assert np.array_equal(
                own - (core << CORE_ADDR_SHIFT), trace.addresses
            )
            assert (core_of_address(int(own[0]))) == core

    def test_faster_core_issues_more_early_references(self):
        traces = self._traces()
        merged = interleave_traces(traces, [2.0, 1.0])
        head = merged.cores[: len(merged) // 4]
        # The 2-ipc core advances virtual time half as fast per gap, so
        # it crowds the front of the merged stream.
        assert (head == 0).sum() > (head == 1).sum()

    def test_parse_cmp_benchmark(self):
        assert list(parse_cmp_benchmark("twolf", 2)) == ["twolf", "twolf"]
        assert list(parse_cmp_benchmark("twolf+mcf", 2)) == ["twolf", "mcf"]
        with pytest.raises(ConfigurationError):
            parse_cmp_benchmark("twolf+mcf", 3)

    def test_generate_cmp_trace_seeds_differ_per_core(self):
        config = cmp_nurapid_config(cores=2)
        merged = generate_cmp_trace(config, "twolf", 4000, seed=0)
        assert merged.n_cores == 2
        own0 = merged.trace.addresses[merged.cores == 0]
        own1 = merged.trace.addresses[merged.cores == 1] - (
            1 << CORE_ADDR_SHIFT
        )
        assert not np.array_equal(own0, own1)


# --- queueing contention ---


class _StubCache:
    name = "stub"
    block_bytes = 128
    telemetry = None

    def __init__(self):
        from repro.common.types import AccessResult

        self._result = AccessResult(hit=True, latency=10, level="stub")

    def access(self, address, is_write=False, now=0.0):
        from repro.common.types import AccessResult

        return AccessResult(hit=True, latency=10, level="stub")

    def fill(self, address, now=0.0, dirty=False):
        return 0


class TestContention:
    def test_unloaded_bank_adds_no_latency(self):
        wrapped = ContendedLLC(_StubCache(), ContentionConfig(n_banks=2))
        result = wrapped.access(0, now=0.0)
        assert result.latency == 10

    def test_back_to_back_same_bank_queues(self):
        contention = ContentionConfig(n_banks=2, bytes_per_cycle=16.0)
        wrapped = ContendedLLC(_StubCache(), contention)
        first = wrapped.access(0, now=0.0)
        second = wrapped.access(0, now=0.0)  # same bank, same instant
        service = 128 / 16.0
        assert first.latency == 10
        assert second.latency == 10 + service
        # Different bank is still free at the same instant.
        other = wrapped.access(128, now=0.0)
        assert other.latency == 10

    def test_wait_cycles_accounted(self):
        wrapped = ContendedLLC(_StubCache(), ContentionConfig(n_banks=1))
        for _ in range(4):
            wrapped.access(0, now=0.0)
        assert wrapped.bank_grants() == 4
        assert wrapped.bank_wait_cycles() == pytest.approx(8 * (1 + 2 + 3))

    def test_driver_unwrap_protected(self):
        wrapped = ContendedLLC(_StubCache(), ContentionConfig())
        with pytest.raises(AttributeError):
            wrapped.cache  # noqa: B018

    def test_pending_depth(self):
        port = PortScheduler("p")
        assert port.pending_depth(0.0, 8.0) == 0
        port.request(0.0, 8.0)
        assert port.pending_depth(0.0, 8.0) == 1
        port.request(0.0, 8.0)
        assert port.pending_depth(0.0, 8.0) == 2


# --- compressed NuRAPID ---


def _compressed(ratio=2, share=0.7):
    config = NuRAPIDConfig(
        capacity_bytes=256 * 1024, associativity=8, n_dgroups=4
    )
    return CompressedNuRAPIDCache(
        config,
        CompressionConfig(ratio=ratio, compressible_share=share),
    )


class TestCompression:
    def test_assoc_limit_and_frames_grow(self):
        cache = _compressed(ratio=2)
        base_frames = cache.config.frames_per_dgroup
        assert cache._stores[0].n_frames == 2 * base_frames
        assert cache._stores[1].n_frames == base_frames
        ways_per_group = cache.config.associativity // cache.config.n_dgroups
        assert cache._assoc_limit == cache.config.associativity + ways_per_group

    def test_prewarm_fills_expanded_group(self):
        cache = _compressed()
        cache.prewarm()
        cache.check_invariants()
        store = cache._stores[0]
        assert store.occupied_count == store.n_frames

    def test_incompressible_lines_stay_out_of_compressed_groups(self):
        cache = _compressed(share=0.5)
        filled = 0
        addr = 0
        while filled < 4000:
            cache.fill(addr)
            cache.access(addr)
            addr += cache.block_bytes
            filled += 1
        cache.check_invariants()  # asserts placement exclusion too
        assert cache.stats.get("incompressible_fills") > 0
        assert cache.stats.get("compressible_fills") > 0

    def test_compressibility_draw_deterministic_and_share_shaped(self):
        cache = _compressed(share=0.7)
        draws = [
            cache.is_compressible(baddr * 128) for baddr in range(20_000)
        ]
        assert draws == [
            cache.is_compressible(baddr * 128) for baddr in range(20_000)
        ]
        assert 0.65 < sum(draws) / len(draws) < 0.75

    def test_per_core_shares(self):
        cache = _compressed()
        cache.set_core_shares((1.0, 0.0))
        core1 = 1 << CORE_ADDR_SHIFT
        assert all(
            cache.is_compressible(core0_addr * 128)
            for core0_addr in range(1, 1000)
        )
        assert not any(
            cache.is_compressible(core1 + offset * 128)
            for offset in range(1, 1000)
        )

    def test_compressed_run_end_to_end(self):
        config = cmp_nurapid_config(
            cores=2, compression=True, capacity_kb=1024
        )
        result = run_benchmark(
            config, "twolf+mcf", n_references=REFS, seed=0,
            warmup_fraction=WARMUP,
        )
        assert result.stats["cmp.cores"] == 2.0
        assert jain_fairness(per_core_ipcs(result)) > 0.5


# --- configuration validation ---


class TestConfigValidation:
    def test_cores_bounds(self):
        with pytest.raises(ConfigurationError):
            CmpConfig(cores=0)
        with pytest.raises(ConfigurationError):
            CmpConfig(cores=MAX_CORES + 1)

    def test_compression_requires_nurapid(self):
        with pytest.raises(ConfigurationError):
            replace(
                snuca_config(),
                cmp=CmpConfig(cores=2, compression=CompressionConfig()),
            )

    def test_contention_rejected_for_base(self):
        with pytest.raises(ConfigurationError):
            replace(
                base_config(),
                cmp=CmpConfig(cores=2, contention=ContentionConfig()),
            )

    def test_multi_core_rejects_approx_engine(self):
        with pytest.raises(ConfigurationError):
            replace(cmp_nurapid_config(cores=2), engine="approx")

    def test_multi_core_rejects_inline_trace(self):
        config = cmp_nurapid_config(cores=2)
        trace = generate_trace(get_benchmark("twolf"), 1000, seed=0)
        with pytest.raises(ConfigurationError):
            run_benchmark(config, "twolf", trace=trace)

    def test_run_cmp_rejects_single_core(self):
        with pytest.raises(ConfigurationError):
            run_cmp(
                nurapid_config(),
                "twolf",
                n_references=1000,
                seed=0,
                warmup_fraction=0.25,
            )

    def test_snuca_scenario_runs(self):
        config = cmp_snuca_config(cores=2)
        result = run_benchmark(
            config, "twolf", n_references=REFS, seed=0, warmup_fraction=WARMUP
        )
        assert result.stats["cmp.cores"] == 2.0
        assert result.stats["bankq.banks"] > 0
