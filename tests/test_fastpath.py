"""Engine parity: the vectorized replay kernel against the legacy loop.

The vectorized engine (:mod:`repro.sim.vectorized`) promises
bit-identity, not statistical agreement: for every shipped
configuration it must produce the same result summary, the same
telemetry report and event-trace bytes, and the same fault-injection
outcomes as the legacy loop.  These tests hold it to that across the
config matrix and multiple seeds, randomized traces, and store-resumed
parallel sweeps, and pin which systems the kernel takes.
"""

import random
import traceback
from dataclasses import replace

import pytest

from repro.cmp.config import CmpConfig, CompressionConfig
from repro.common.errors import ConfigurationError, UncorrectableDataError
from repro.cpu.core import CoreModel, CoreParams
from repro.faults.models import FaultPlan, HardFaultEvent
from repro.nurapid.config import DistanceReplacementKind, PromotionPolicy
from repro.service.store import ResultStore
from repro.sim import vectorized
from repro.sim.config import (
    ENGINES,
    SystemConfig,
    base_config,
    dnuca_config,
    nurapid_config,
    resolve_engine,
    sa_nuca_config,
    snuca_config,
)
from repro.sim.driver import _replay, make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.telemetry import (
    TelemetryConfig,
    reset_runtime_registry,
    runtime_counters,
)
from repro.telemetry.report import merge_payloads, render_report
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

REFS = 6_000
WARMUP = 0.25


def shipped_configs():
    return [
        base_config(),
        nurapid_config(),
        nurapid_config(
            n_dgroups=2,
            promotion=PromotionPolicy.DEMOTION_ONLY,
            distance_replacement=DistanceReplacementKind.LRU,
        ),
        nurapid_config(promotion_hysteresis=2),
        dnuca_config(),
        sa_nuca_config(),
        snuca_config(),
    ]


_TRACES = {}


def trace_for(benchmark, seed):
    key = (benchmark, seed)
    if key not in _TRACES:
        _TRACES[key] = generate_trace(get_benchmark(benchmark), REFS, seed=seed)
    return _TRACES[key]


def run_dict(config, benchmark, seed, engine, telemetry=None):
    result = run_benchmark(
        replace(config, engine=engine),
        benchmark,
        n_references=REFS,
        seed=seed,
        warmup_fraction=WARMUP,
        trace=trace_for(benchmark, seed),
        telemetry=telemetry,
    )
    return run_result_to_dict(result)


class TestEngineSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(None) == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert resolve_engine(None) == "legacy"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert resolve_engine("vectorized") == "vectorized"

    def test_unknown_engine_rejected(self, monkeypatch):
        # "fast" and "approx" name deleted engines.
        for name in ("turbo", "fast", "approx"):
            with pytest.raises(ConfigurationError, match="legacy, vectorized"):
                resolve_engine(name)
            with pytest.raises(ConfigurationError, match="legacy, vectorized"):
                SystemConfig(name="x", l2_kind="base", engine=name)
            monkeypatch.setenv("REPRO_ENGINE", name)
            with pytest.raises(ConfigurationError, match="in REPRO_ENGINE"):
                resolve_engine(None)

    def test_config_engine_field(self):
        config = replace(snuca_config(), engine="legacy")
        assert resolve_engine(config.engine) == "legacy"


class TestResultParity:
    @pytest.mark.parametrize(
        "config", shipped_configs(), ids=lambda c: c.name
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_summary_identical(self, config, seed):
        legacy = run_dict(config, "twolf", seed, "legacy")
        for engine in ENGINES[1:]:
            assert legacy == run_dict(config, "twolf", seed, engine), engine

    @pytest.mark.parametrize(
        "config",
        [nurapid_config(), snuca_config()],
        ids=lambda c: c.name,
    )
    def test_telemetry_report_byte_identical(self, config):
        reports = {}
        for engine in ENGINES:
            payload = run_dict(
                config, "galgel", 1, engine, telemetry=TelemetryConfig()
            )
            telem = payload.pop("telemetry")
            reports[engine] = render_report(merge_payloads([("cell", telem)]))
        assert reports["legacy"] == reports["vectorized"]
        assert reports["vectorized"].startswith("== telemetry report ==")


class TestFaultParity:
    def transient_config(self):
        return nurapid_config(
            faults=FaultPlan(
                transient_per_access=2e-4,
                seed=9,
                hard_faults=(
                    HardFaultEvent(at_access=1000, dgroup=0, subarray=1),
                    HardFaultEvent(at_access=2000, dgroup=1, subarray=2),
                ),
            )
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fault_outcomes_identical(self, seed):
        config = self.transient_config()
        outcomes = {}
        for engine in ENGINES:
            try:
                outcomes[engine] = ("ok", run_dict(config, "galgel", seed, engine))
            except UncorrectableDataError as exc:
                outcomes[engine] = ("due", str(exc))
        assert outcomes["legacy"] == outcomes["vectorized"]

    def test_uncorrectable_raises_in_both_engines(self):
        # Wide upsets over a 2-word interleave defeat SEC-DED, so a
        # dirty-line strike kills the run — identically, with the same
        # message, under either engine.
        config = nurapid_config(
            faults=FaultPlan(
                transient_per_access=5e-2,
                max_upset_bits=4,
                words_per_block=2,
                interleave_subarrays=1,
                seed=3,
            )
        )
        errors = {}
        for engine in ENGINES:
            with pytest.raises(UncorrectableDataError) as info:
                run_dict(config, "twolf", 3, engine)
            errors[engine] = str(info.value)
        assert errors["legacy"] == errors["vectorized"]


    @staticmethod
    def _dirty_l2_hits(trace, benchmark="mcf"):
        """1-based L2 access counts in the measured slice at which a
        fault-free legacy replay hits a dirty L2 line, split into L1
        writebacks and demand reads; and the demand reads among them
        that end a stretch of more than ``FOLD_NUMPY_TERMS`` cycle
        terms (two per reference) since the slice's previous L1 miss,
        which the kernel folds through numpy."""
        config = replace(nurapid_config(), engine="legacy")
        system = make_system(config)
        l2 = system.l2
        log = []
        refs = [0]
        real_access = l2.access
        real_access_data = system.hierarchy.access_data

        def access(address, is_write=False, now=0.0):
            entry = l2.lookup(address)
            log.append((is_write, entry is not None and entry.dirty, refs[0]))
            return real_access(address, is_write=is_write, now=now)

        def access_data(*args):
            refs[0] += 1
            return real_access_data(*args)

        l2.access = access
        system.hierarchy.access_data = access_data
        warm, measured = trace.split(WARMUP)
        core = _core_for(config, benchmark)
        _replay([system], [core], warm, engine="legacy")
        n_warm = len(log)
        last_miss = refs[0]
        _replay([system], [core], measured, engine="legacy")
        hits = {"writeback": [], "demand": [], "demand-after-long-stretch": []}
        for k, (is_write, dirty, ref) in enumerate(log[n_warm:], n_warm + 1):
            if dirty:
                hits["writeback" if is_write else "demand"].append(k)
            if not is_write:
                if dirty and 2 * (ref - last_miss) > vectorized.FOLD_NUMPY_TERMS:
                    hits["demand-after-long-stretch"].append(k)
                last_miss = ref
        return hits

    @pytest.mark.parametrize(
        "kind", ["demand", "writeback", "demand-after-long-stretch"]
    )
    def test_state_identical_after_uncorrectable(self, kind):
        """A mid-replay DUE leaves the same machine state in both
        engines, whether the lower access of an L1 miss raised (the
        miss's fill never happened) or its L1 writeback did (the fill
        did).  Upsets are forced only where the L2 line is dirty, so
        an undetectable-width strike there is a DUE.  The low-load gcc
        trace puts the DUE on the first miss after a long run of L1
        hits, whose cycle terms the kernel folds through numpy."""
        benchmark, refs = ("mcf", 12_000)
        if kind == "demand-after-long-stretch":
            benchmark, refs = ("gcc", 30_000)
        trace = generate_trace(get_benchmark(benchmark), refs, seed=3)
        strikes = self._dirty_l2_hits(trace, benchmark)[kind]
        assert strikes, kind
        config = nurapid_config(
            faults=FaultPlan(
                transient_at_accesses=tuple(strikes),
                max_upset_bits=4,
                words_per_block=2,
                interleave_subarrays=1,
                seed=1,
            )
        )
        warm, measured = trace.split(WARMUP)
        states = {}
        for engine in ENGINES:
            system = make_system(replace(config, engine=engine))
            core = _core_for(config, benchmark)
            _replay([system], [core], warm, engine=engine)
            with pytest.raises(UncorrectableDataError) as info:
                _replay([system], [core], measured, engine=engine)
            frames = {f.name for f in traceback.extract_tb(info.value.__traceback__)}
            l1 = system.l1d
            states[engine] = (
                str(info.value),
                list(l1._tags),
                bytes(l1._dirty),
                list(l1._stamps),
                l1._clock,
                (l1.hits, l1.misses, l1.writebacks),
                (
                    core.cycle,
                    core.instructions,
                    core.branch_penalty_cycles,
                    core.stall_cycles,
                    core.mshr_stall_cycles,
                    core.memory_accesses,
                ),
                system.hierarchy.stats.as_dict(),
                (system.memory.reads, system.memory.writes),
            )
            if engine == "legacy":
                assert ("_writeback_from_l1" in frames) == (kind == "writeback")
        assert states["legacy"] == states["vectorized"]


def _core_for(config, benchmark):
    profile = get_benchmark(benchmark)
    return CoreModel(
        params=config.core,
        core_ipc=profile.core_ipc,
        exposure=profile.exposure,
        branch_fraction=profile.branch_fraction,
        mispredict_rate=profile.mispredict_rate,
    )


def _port_arrays(system):
    """Every lower level's busy-time lists, by level and resource kind
    (a contended LLC's bank queues and its wrapped cache's own)."""
    state = {}
    for level in system.lower:
        for owner in (level, getattr(level, "_inner", None)):
            for kind in ("ports", "bank_ports"):
                ports = getattr(owner, kind, None) if owner is not None else None
                if ports is not None and f"{ports.name}.{kind}" not in state:
                    state[f"{ports.name}.{kind}"] = (
                        list(ports.busy_until),
                        list(ports.total_busy),
                        list(ports.total_wait),
                        list(ports.grants),
                    )
    return state


def _contended_configs():
    from repro.cmp.config import ContentionConfig

    return [
        replace(
            config,
            name=f"{config.name}-contended",
            cmp=CmpConfig(cores=1, contention=ContentionConfig(n_banks=2)),
        )
        for config in (nurapid_config(), dnuca_config())
    ]


class TestPortTotalsParity:
    """The kernel's timing fold claims every port and bank exactly as
    the legacy loop's model calls do."""

    @pytest.mark.parametrize(
        "config",
        shipped_configs() + _contended_configs(),
        ids=lambda c: c.name,
    )
    def test_port_totals_identical(self, config):
        trace = trace_for("mcf", 0)
        warm, measured = trace.split(WARMUP)
        state = {}
        for engine in ENGINES:
            system = make_system(replace(config, engine=engine))
            _replay([system], [_core_for(config, "mcf")], warm, engine=engine)
            system.reset_stats()
            _replay([system], [_core_for(config, "mcf")], measured, engine=engine)
            state[engine] = _port_arrays(system)
        if config.l2_kind != "base":
            assert state["legacy"], "no port or bank state found"
            assert any(sum(grants) for *_, grants in state["legacy"].values())
        assert state["legacy"] == state["vectorized"]

    @pytest.mark.parametrize(
        "config", [nurapid_config(), dnuca_config()] + _contended_configs()[:1],
        ids=lambda c: c.name,
    )
    def test_kernel_builds_no_access_result(self, config, monkeypatch):
        """The miss walk folds outcome tuples: no AccessResult and no
        checked port request per access."""
        from repro.caches.port import PortArray
        from repro.common.types import AccessResult

        made = {"results": 0, "requests": 0}
        result_init = AccessResult.__init__
        request = PortArray.request

        def counting_init(self, *args, **kwargs):
            made["results"] += 1
            result_init(self, *args, **kwargs)

        def counting_request(self, *args, **kwargs):
            made["requests"] += 1
            return request(self, *args, **kwargs)

        monkeypatch.setattr(AccessResult, "__init__", counting_init)
        monkeypatch.setattr(PortArray, "request", counting_request)
        trace = trace_for("mcf", 0)
        for engine in ENGINES:
            made.update(results=0, requests=0)
            system = make_system(replace(config, engine=engine))
            _replay([system], [_core_for(config, "mcf")], trace, engine=engine)
            if engine == "legacy":
                assert made["results"] > len(trace)  # the oracle's per-access path
            else:
                assert made["results"] == 0
            assert made["requests"] == 0


class TestFallback:
    def test_l1_fault_injector_falls_back(self, monkeypatch):
        """An armed L1 must reroute to the legacy loop, same results."""
        calls = []
        real_replay = vectorized.replay

        def counting(systems, cores, trace, owners):
            calls.append("kernel")
            return real_replay(systems, cores, trace, owners)

        monkeypatch.setattr(vectorized, "replay", counting)
        reset_runtime_registry()
        config = base_config()
        trace = trace_for("twolf", 0)
        profile = get_benchmark("twolf")

        def run(arm):
            system = make_system(config)
            if arm:
                system.l1d.attach_faults(FaultPlan(transient_per_access=0.0))
            core = CoreModel(
                params=config.core,
                core_ipc=profile.core_ipc,
                exposure=profile.exposure,
                branch_fraction=profile.branch_fraction,
                mispredict_rate=profile.mispredict_rate,
            )
            _replay([system], [core], trace, engine="vectorized")
            return core.cycle, core.instructions, system.l1d.hits

        armed = run(arm=True)
        assert calls == []
        assert runtime_counters().get("vectorized.fallbacks", 0) == 1
        fused = run(arm=False)
        assert calls == ["kernel"]  # the clean system took the kernel
        assert runtime_counters().get("vectorized.fallbacks", 0) == 1
        # A zero-rate plan is behaviourally inert: both paths agree.
        assert armed == fused


class TestL1Constants:
    @pytest.mark.parametrize(
        "params",
        [CoreParams(l1_hit_cycles=2), CoreParams(l1_block_bytes=64)],
        ids=["hit2", "block64"],
    )
    def test_custom_l1_constants_stay_on_kernel(self, params):
        """The L1 takes its latency and block size from the core, so a
        custom CoreParams neither leaves the kernel nor mis-models."""
        config = replace(nurapid_config(), core=params)
        system = make_system(config, prewarm=False)
        assert system.l1d.spec.latency_cycles == params.l1_hit_cycles
        assert system.l1d.spec.block_bytes == params.l1_block_bytes
        reset_runtime_registry()
        payloads = {
            engine: run_dict(config, "gcc", 0, engine) for engine in ENGINES
        }
        assert runtime_counters().get("vectorized.fallbacks", 0) == 0
        assert payloads["legacy"] == payloads["vectorized"]


class TestSweepParity:
    def sweep_results(self, engine, monkeypatch, **kw):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        points = Sweep(
            axes=[SweepAxis("n_dgroups", (2, 4))],
            build=lambda n_dgroups: nurapid_config(n_dgroups=n_dgroups),
            benchmarks=["twolf"],
            n_references=4_000,
            **kw,
        ).run()
        return [
            {b: run_result_to_dict(r) for b, r in point.runs.items()}
            for point in points
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # jobs=2 on 1 CPU
    def test_checkpoint_resume_jobs2_matches_legacy_serial(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(str(tmp_path / "store"))
        legacy = self.sweep_results("legacy", monkeypatch)
        kernel = self.sweep_results(
            "vectorized", monkeypatch, jobs=2, result_store=store
        )
        assert legacy == kernel
        # Resume from the filled store: cells load, nothing re-runs,
        # results still match.
        def boom(*a, **kw):
            raise AssertionError("resume re-ran a stored cell")

        monkeypatch.setattr("repro.sim.parallel.run_benchmark", boom)
        resumed = self.sweep_results(
            "vectorized", monkeypatch, jobs=2, result_store=store
        )
        assert resumed == legacy




def compressed_config(**kw):
    return replace(
        nurapid_config(**kw),
        cmp=CmpConfig(cores=1, compression=CompressionConfig()),
    )


def conflict_profile(benchmark, conflict):
    """The benchmark's profile with its warm region concentrated into
    every ``conflict``-th L2 set; 1 keeps the profile as it is."""
    profile = get_benchmark(benchmark)
    if conflict == 1:
        return profile
    return replace(profile, warm_set_conflict=conflict)


def _l1_cases():
    """L1 hit/miss/dirty/LRU state under varying set-conflict pressure."""
    rng = random.Random(0xC0FFEE)
    names = ["twolf", "art", "mcf", "mesa", "galgel"]
    for _ in range(8):
        yield {
            "benchmark": rng.choice(names),
            "seed": rng.randrange(1 << 16),
            "conflict": rng.choice([1, 2, 4, 8, 16]),
            "prewarm": rng.random() < 0.5,
            "refs": rng.choice([1500, 3000, 5000]),
            "config": rng.choice([base_config, nurapid_config, snuca_config])(),
        }


def _nurapid_cases():
    """NuRAPID variants, fault injection, and compression.

    Fault injection and compression are mutually exclusive by config
    validation.
    """
    rng = random.Random(0x12C0DE)
    names = ["twolf", "art", "mcf", "galgel", "wupwise"]
    variants = [
        lambda: nurapid_config(),
        lambda: nurapid_config(
            n_dgroups=2,
            promotion=PromotionPolicy.DEMOTION_ONLY,
            distance_replacement=DistanceReplacementKind.LRU,
        ),
        lambda: nurapid_config(promotion_hysteresis=4),
        compressed_config,
    ]
    for _ in range(10):
        config = rng.choice(variants)()
        if config.cmp is None and rng.random() < 0.3:
            config = replace(
                config,
                faults=FaultPlan(
                    transient_per_access=1e-4,
                    seed=rng.randrange(1 << 8),
                ),
            )
        yield {
            "benchmark": rng.choice(names),
            "seed": rng.randrange(1 << 16),
            "conflict": rng.choice([1, 2, 4, 8]),
            "prewarm": rng.random() < 0.7,
            "refs": rng.choice([2000, 4000, 6000]),
            "config": config,
        }


def _telemetry_cases():
    """Telemetry-armed runs: report bytes must match too."""
    for config in (nurapid_config(), compressed_config()):
        yield {
            "benchmark": "galgel",
            "seed": 1,
            "conflict": 1,
            "prewarm": True,
            "refs": 6000,
            "config": config,
            "telemetry": TelemetryConfig(),
        }


RANDOM_CASES = [*_l1_cases(), *_nurapid_cases(), *_telemetry_cases()]


class TestRandomizedVectorizedParity:
    """Property-style: the vectorized kernel equals the legacy loop.

    Seeded, reproducible cases exercise the L1 state machine, the
    NuRAPID lower levels under fault injection and compression, and
    telemetry-armed runs, with and without lower-level prewarm; every
    case must replay bit-identically under both exact engines.
    """

    @pytest.mark.parametrize("case_index", range(len(RANDOM_CASES)))
    def test_random_trace_parity(self, case_index):
        case = RANDOM_CASES[case_index]
        trace = generate_trace(
            conflict_profile(case["benchmark"], case["conflict"]),
            case["refs"],
            seed=case["seed"],
        )
        payloads = {}
        for engine in ENGINES:
            result = run_benchmark(
                replace(case["config"], engine=engine),
                case["benchmark"],
                n_references=case["refs"],
                seed=case["seed"],
                warmup_fraction=WARMUP,
                trace=trace,
                prewarm=case["prewarm"],
                telemetry=case.get("telemetry"),
            )
            payloads[engine] = run_result_to_dict(result)
            telem = payloads[engine].pop("telemetry", None)
            if telem is not None:
                report = render_report(merge_payloads([("cell", telem)]))
                assert report.startswith("== telemetry report ==")
                payloads[engine]["report"] = report
        assert payloads["legacy"] == payloads["vectorized"], case


class TestTelemetryOnKernel:
    def test_events_armed_nurapid_stays_on_kernel(self, tmp_path):
        """Arming telemetry with events keeps the run on the kernel."""
        trace = trace_for("gcc", 0)
        outputs = {}
        for engine in ENGINES:
            reset_runtime_registry()
            telemetry = TelemetryConfig(
                events=True, trace_dir=str(tmp_path / engine), trace_limit=None
            )
            payload = run_dict(nurapid_config(), "gcc", 0, engine, telemetry)
            telem = payload.pop("telemetry")
            with open(telem["trace"].pop("path"), "rb") as handle:
                events = handle.read()
            report = render_report(merge_payloads([("cell", telem)]))
            outputs[engine] = (payload, report, events)
        counters = runtime_counters()
        assert counters.get("vectorized.fallbacks", 0) == 0
        assert counters.get("vectorized.refs_vector", 0) > 0
        assert outputs["legacy"][0] == outputs["vectorized"][0]
        assert outputs["legacy"][1] == outputs["vectorized"][1]
        assert outputs["legacy"][2] == outputs["vectorized"][2]
        assert b'"kind": "placement"' in outputs["vectorized"][2]
