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
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.caches.port import PortArray
from repro.cmp.config import CmpConfig, CompressionConfig, ContentionConfig
from repro.cmp.contention import ContendedLLC
from repro.cmp.engine import generate_cmp_trace, jain_fairness
from repro.cmp.scenarios import cmp_nurapid_config, cmp_snuca_config, per_core_ipcs
from repro.common.errors import ConfigurationError
from repro.nurapid.compression import CompressedNuRAPIDCache
from repro.nurapid.config import NuRAPIDConfig
from repro.sim.config import (
    ENGINES,
    SystemConfig,
    base_config,
    dnuca_config,
    nurapid_config,
    sa_nuca_config,
    snuca_config,
)
from repro.sim.driver import run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig, reset_runtime_registry, runtime_counters
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
    @pytest.mark.parametrize("engine", ENGINES)
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
    @pytest.mark.parametrize("engine", ENGINES)
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
        reset_runtime_registry()
        outputs = {
            engine: json.dumps(
                _summary(config, "twolf", 1, engine), sort_keys=True
            )
            for engine in ENGINES
        }
        assert outputs["legacy"] == outputs["vectorized"]
        # The vectorized run took the kernel, not the legacy loop.
        counters = runtime_counters()
        assert counters.get("vectorized.fallbacks", 0) == 0
        assert counters.get("vectorized.refs", 0) == REFS


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
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.gaps, b.gaps)

    def test_single_core_identity(self):
        trace = generate_trace(get_benchmark("twolf"), 2000, seed=0)
        merged = interleave_traces([trace], [1.0])
        assert np.array_equal(merged.addresses, trace.addresses)
        assert np.array_equal(merged.gaps, trace.gaps)
        assert not core_of_address(merged.addresses).any()

    def test_provenance_recovers_streams(self):
        traces = self._traces()
        merged = interleave_traces(traces, [1.0, 1.0])
        assert len(merged) == sum(len(t) for t in traces)
        owners = core_of_address(merged.addresses)
        for core, trace in enumerate(traces):
            mask = owners == core
            assert mask.sum() == len(trace)
            own = merged.addresses[mask]
            # Core streams keep their order; addresses carry the offset.
            assert np.array_equal(
                own - (core << CORE_ADDR_SHIFT), trace.addresses
            )
            assert (core_of_address(int(own[0]))) == core
            at, sub = merged.by_core(2)[core]
            assert np.array_equal(at, np.flatnonzero(mask))
            assert np.array_equal(sub.addresses, own)
        assert merged.by_core(2) is merged.by_core(2)

    def test_faster_core_issues_more_early_references(self):
        traces = self._traces()
        merged = interleave_traces(traces, [2.0, 1.0])
        head = core_of_address(merged.addresses[: len(merged) // 4])
        # The 2-ipc core advances virtual time half as fast per gap, so
        # it crowds the front of the merged stream.
        assert (head == 0).sum() > (head == 1).sum()

    def test_address_at_core_offset_rejected(self):
        low, high = self._traces()
        addresses = high.addresses.copy()
        addresses[7] = 1 << CORE_ADDR_SHIFT
        high = replace(high, addresses=addresses)
        with pytest.raises(ConfigurationError, match=r"core 1 .*0x4000000000"):
            interleave_traces([low, high], [1.0, 1.0])

    def test_parse_cmp_benchmark(self):
        assert list(parse_cmp_benchmark("twolf", 2)) == ["twolf", "twolf"]
        assert list(parse_cmp_benchmark("twolf+mcf", 2)) == ["twolf", "mcf"]
        with pytest.raises(ConfigurationError):
            parse_cmp_benchmark("twolf+mcf", 3)

    def test_generate_cmp_trace_seeds_differ_per_core(self):
        config = cmp_nurapid_config(cores=2)
        merged = generate_cmp_trace(config, "twolf", 4000, seed=0)
        assert merged.benchmark == "twolf+twolf"
        owners = core_of_address(merged.addresses)
        assert np.bincount(owners).tolist() == [2000, 2000]
        own0 = merged.addresses[owners == 0]
        own1 = merged.addresses[owners == 1] - (1 << CORE_ADDR_SHIFT)
        assert not np.array_equal(own0, own1)


# --- queueing contention ---


class _StubCache:
    """A lower level whose every access hits after 10 cycles."""

    name = "stub"
    block_bytes = 128
    telemetry = None

    def access_outcome(self, address, is_write=False):
        return (True,)

    def access_timing(self, outcome, now):
        return 10


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

    def test_contended_dnuca_walks_like_legacy(self, monkeypatch):
        """ContendedLLC forwards unknown attributes to the cache it
        wraps, D-NUCA's whole-slice solve included, whose tuples are
        not its (hit, inner, bank) triples.  A contended D-NUCA must
        replay on the walk under vectorized, and its result, telemetry
        report and bank totals must equal legacy's."""
        from repro.nuca.cache import DNUCACache

        solved = []
        real = DNUCACache.solve_outcomes

        def counting(self, *args):
            solved.append(1)
            return real(self, *args)

        monkeypatch.setattr(DNUCACache, "solve_outcomes", counting)
        config = replace(
            dnuca_config(),
            name="dnuca-cmp2-b8",
            cmp=CmpConfig(cores=2, contention=ContentionConfig()),
        )
        payloads, reports = {}, {}
        for engine in ENGINES:
            reset_runtime_registry()
            payloads[engine] = _summary(config, "twolf", 1, engine)
            armed = _summary(config, "twolf", 1, engine, telemetry=TelemetryConfig())
            reports[engine] = render_report(
                merge_payloads([("cell", armed.pop("telemetry"))])
            )
        counters = runtime_counters()
        assert counters.get("vectorized.refs", 0) == 2 * REFS
        assert counters.get("vectorized.fallbacks", 0) == 0
        assert solved == []
        stats = payloads["legacy"]["stats"]
        assert stats["bankq.grants"] > 0 and stats["bankq.busy_cycles"] > 0
        assert payloads["vectorized"] == payloads["legacy"]
        assert reports["vectorized"] == reports["legacy"]

    def test_pending_depth(self):
        ports = PortArray("p")
        assert ports.pending_depth(0, 0.0, 8.0) == 0
        ports.request(0, 0.0, 8.0)
        assert ports.pending_depth(0, 0.0, 8.0) == 1
        ports.request(0, 0.0, 8.0)
        assert ports.pending_depth(0, 0.0, 8.0) == 2


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
        totals = [total for _, total in cache.dgroup_occupancy()]
        assert totals == [2 * base_frames] + [base_frames] * 3
        ways_per_group = cache.config.associativity // cache.config.n_dgroups
        assert cache._assoc_limit == cache.config.associativity + ways_per_group

    def test_prewarm_fills_expanded_group(self):
        cache = _compressed()
        cache.prewarm()
        cache.check_invariants()
        occupied, total = cache.dgroup_occupancy()[0]
        assert occupied == total

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

    def test_multi_core_rejects_inline_trace(self):
        config = cmp_nurapid_config(cores=2)
        trace = generate_trace(get_benchmark("twolf"), 1000, seed=0)
        with pytest.raises(ConfigurationError):
            run_benchmark(config, "twolf", trace=trace)

    def test_snuca_scenario_runs(self):
        config = cmp_snuca_config(cores=2)
        result = run_benchmark(
            config, "twolf", n_references=REFS, seed=0, warmup_fraction=WARMUP
        )
        assert result.stats["cmp.cores"] == 2.0
        assert result.stats["bankq.banks"] > 0


def test_driver_import_leaves_cmp_engine_unloaded():
    # Single-core runs must not pay for (or depend on) the CMP engine.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    code = (
        "import sys, repro.sim.driver; "
        "print('repro.cmp.engine' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# --- the shared-LLC occupancy census ---

#: Per-core resident blocks after ``twolf``, 4000 references, seed 1.
#: Prewarm dummies and free frames count for no core.
CENSUS = {
    "base": (base_config, (283.0, 296.0)),
    "dnuca": (dnuca_config, (283.0, 295.0)),
    "nurapid": (nurapid_config, (283.0, 296.0)),
    "snuca": (snuca_config, (283.0, 296.0)),
    "sa-nuca": (sa_nuca_config, (283.0, 296.0)),
}


@pytest.mark.parametrize(
    "kind,contention",
    [(kind, False) for kind in sorted(CENSUS)]
    + [(kind, True) for kind in sorted(CENSUS) if kind != "base"],
)
def test_occupancy_census_every_organization(kind, contention):
    build, expected = CENSUS[kind]
    cmp = CmpConfig(
        cores=2, contention=ContentionConfig() if contention else None
    )
    result = run_benchmark(
        replace(build(), cmp=cmp), "twolf", n_references=4000, seed=1
    )
    assert (result.stats["c0.l2_blocks"], result.stats["c1.l2_blocks"]) == expected


# --- one trace path: CMP traces are trace-cache entries ---


def test_cmp_suite_reuses_cached_trace_and_l1_solves(tmp_path, monkeypatch):
    """A 2-core cell maps its interleaved trace from the trace cache,
    so a rerun in the same process generates no trace and replays every
    slice from the memoised L1 solves of its per-core sub-streams."""
    from repro.sim import l1solve
    from repro.sim.driver import run_suite
    from repro.workloads import tracegen, transport

    config = cmp_nurapid_config(cores=2)
    inline = generate_cmp_trace(config, "gcc+mesa", REFS, seed=1)
    expected = json.dumps(
        run_result_to_dict(
            run_suite(
                config, ["gcc+mesa"], n_references=REFS, seed=1,
                warmup_fraction=WARMUP, traces={"gcc+mesa": inline},
            ).runs["gcc+mesa"]
        ),
        sort_keys=True,
    )
    calls = {"solve": 0, "generate": 0}
    real_solve = l1solve.solve
    real_generate = tracegen.generate_trace

    def counting_solve(*args, **kwargs):
        calls["solve"] += 1
        return real_solve(*args, **kwargs)

    def counting_generate(*args, **kwargs):
        calls["generate"] += 1
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(l1solve, "solve", counting_solve)
    monkeypatch.setattr(tracegen, "generate_trace", counting_generate)
    transport.reset_for_tests()
    outputs = []
    for _ in range(2):
        calls.update(solve=0, generate=0)
        reset_runtime_registry()
        suite = run_suite(
            config, ["gcc+mesa"], n_references=REFS, seed=1,
            warmup_fraction=WARMUP, trace_cache_dir=str(tmp_path),
        )
        outputs.append(
            json.dumps(run_result_to_dict(suite.runs["gcc+mesa"]), sort_keys=True)
        )
        counters = runtime_counters()
    # The first run built the entry; the second reused its mapping and
    # every L1 solve (two cores x warmup and measured slices).
    assert calls == {"solve": 0, "generate": 0}
    assert counters.get("transport.segment_builds", 0) == 0
    assert counters.get("transport.trace_reuses", 0) == 1
    assert sorted(p.name for p in tmp_path.glob("*.npy")) == [
        f"gcc+mesa-r{REFS}-s1-c1.npy"
    ]
    assert outputs == [expected, expected]


def test_multi_core_accepts_inline_trace_from_its_cores():
    config = cmp_nurapid_config(cores=2)
    trace = generate_cmp_trace(config, "twolf", REFS, seed=0)
    inline = run_benchmark(
        config, "twolf", n_references=REFS, seed=0, warmup_fraction=WARMUP,
        trace=trace,
    )
    generated = run_benchmark(
        config, "twolf", n_references=REFS, seed=0, warmup_fraction=WARMUP
    )
    assert run_result_to_dict(inline) == run_result_to_dict(generated)
    with pytest.raises(ConfigurationError, match=r"cores \[0, 1\]"):
        run_benchmark(cmp_nurapid_config(cores=4), "twolf", trace=trace)


@pytest.mark.parametrize("engine", ENGINES)
def test_one_core_replay_never_decodes_cores(engine, monkeypatch):
    import repro.sim.driver as driver
    import repro.workloads.interleave as interleave

    def refuse(address):
        raise AssertionError("a one-core replay decoded issuing cores")

    monkeypatch.setattr(interleave, "core_of_address", refuse)
    monkeypatch.setattr(driver, "core_of_address", refuse)
    trace = generate_trace(get_benchmark("twolf"), REFS, seed=0)
    run_benchmark(
        replace(nurapid_config(), engine=engine), "twolf",
        n_references=REFS, warmup_fraction=WARMUP, trace=trace,
    )
