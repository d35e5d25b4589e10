"""The analytical fast-forward tier (``engine="approx"``).

The approx engine is not held to bit-identity — that is the exact
engines' contract — but it must produce the same result schema,
deterministically, for every shipped configuration, refuse the
features it cannot synthesize (telemetry, fault injection), and track
the exact engine closely enough on the calibration workload that the
``repro.bench --approx-accuracy`` gate is meaningful.
"""

from dataclasses import replace

import pytest

from repro.bench import (
    APPROX_TOLERANCES,
    accuracy_matrix_configs,
    approx_accuracy,
)
from repro.common.errors import ConfigurationError
from repro.faults.models import FaultPlan
from repro.sim.config import base_config, nurapid_config, resolve_engine
from repro.sim.driver import _replay, make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

from test_fastpath import shipped_configs

REFS = 20_000
WARMUP = 0.4

_TRACES = {}


def trace_for(seed):
    if seed not in _TRACES:
        _TRACES[seed] = generate_trace(get_benchmark("twolf"), REFS, seed=seed)
    return _TRACES[seed]


def run_approx(config, seed=0, **kwargs):
    return run_benchmark(
        replace(config, engine="approx"),
        "twolf",
        n_references=REFS,
        seed=seed,
        warmup_fraction=WARMUP,
        trace=trace_for(seed),
        **kwargs,
    )


class TestSchema:
    @pytest.mark.parametrize(
        "config", shipped_configs(), ids=lambda c: c.name
    )
    def test_every_shipped_config_runs(self, config):
        result = run_approx(config)
        assert result.benchmark == "twolf"
        assert result.config_name == config.name
        assert result.instructions > 0
        assert result.cycles > 0
        assert 0 < result.ipc < get_benchmark("twolf").core_ipc
        assert 0 < result.l2_accesses
        assert result.l2_hits + result.l2_misses == result.l2_accesses
        assert result.total_energy_nj > 0
        # Same payload surface as the exact engines (minus telemetry).
        payload = run_result_to_dict(result)
        exact = run_result_to_dict(
            run_benchmark(
                config,
                "twolf",
                n_references=REFS,
                seed=0,
                warmup_fraction=WARMUP,
                trace=trace_for(0),
            )
        )
        assert set(payload) == set(exact)
        # Exact-engine counters are sparse (only events that occurred
        # appear), so require the always-present core instead of strict
        # key equality.
        core_keys = {
            "accesses",
            "hits",
            "misses",
            "stall_cycles",
            "branch_penalty_cycles",
            "memory_accesses",
            "mshr_full_stalls",
        }
        assert core_keys <= set(payload["stats"])
        assert core_keys <= set(exact["stats"])

    def test_dgroup_fractions_form_a_distribution(self):
        result = run_approx(nurapid_config())
        assert result.dgroup_fractions
        total = sum(result.dgroup_fractions.values())
        assert 0 < total <= 1.0 + 1e-9
        assert all(f > 0 for f in result.dgroup_fractions.values())

    def test_deterministic(self):
        first = run_result_to_dict(run_approx(nurapid_config(), seed=1))
        second = run_result_to_dict(run_approx(nurapid_config(), seed=1))
        assert first == second


class TestRejections:
    def test_telemetry_rejected(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            run_approx(nurapid_config(), telemetry=TelemetryConfig())

    def test_faults_rejected(self):
        faulty = nurapid_config(faults=FaultPlan(transient_per_access=1e-4))
        with pytest.raises(ConfigurationError, match="fault"):
            run_approx(faulty)

    def test_no_per_reference_replay(self):
        config = base_config()
        system = make_system(config)
        with pytest.raises(ConfigurationError, match="approx"):
            _replay([system], [None], trace_for(0), engine="approx")

    def test_engine_name_resolves(self):
        assert resolve_engine("approx") == "approx"


class TestAccuracy:
    """Spot accuracy on the calibration workload at test-sized refs.

    The authoritative gate is ``repro.bench --approx-accuracy`` on
    120k-reference traces; this keeps a coarse version in the tier-1
    suite so a badly broken model fails fast.  Bounds are 2x the
    documented ledger tolerances to absorb short-trace noise.
    """

    @pytest.mark.parametrize(
        "config", shipped_configs(), ids=lambda c: c.name
    )
    def test_tracks_exact_engine(self, config):
        exact = run_benchmark(
            config,
            "twolf",
            n_references=REFS,
            seed=0,
            warmup_fraction=WARMUP,
            trace=trace_for(0),
        )
        estimate = run_approx(config)
        assert estimate.ipc == pytest.approx(
            exact.ipc, rel=2 * APPROX_TOLERANCES["ipc_rel"]
        )
        assert abs(
            estimate.l2_miss_fraction - exact.l2_miss_fraction
        ) <= 2 * APPROX_TOLERANCES["miss_ratio_abs"]
        assert estimate.total_energy_nj == pytest.approx(
            exact.total_energy_nj, rel=2 * APPROX_TOLERANCES["energy_rel"]
        )


class TestBenchGate:
    def test_matrix_matches_shipped_configs(self):
        ours = [c.name for c in accuracy_matrix_configs()]
        shipped = [c.name for c in shipped_configs()]
        assert ours == shipped

    def test_tolerance_keys(self):
        assert set(APPROX_TOLERANCES) == {
            "ipc_rel",
            "miss_ratio_abs",
            "fastest_dgroup_abs",
            "energy_rel",
        }
        assert all(0 < v < 0.05 for v in APPROX_TOLERANCES.values())

    def test_gate_runs_small(self, tmp_path):
        from repro.workloads.tracegen import TraceCache

        cache = TraceCache(str(tmp_path))
        report = approx_accuracy(cache, refs=6000, warmup=WARMUP)
        assert report["cells"] == 21
        assert report["tolerances"] == APPROX_TOLERANCES
        assert set(report["worst_errors"]) == set(APPROX_TOLERANCES)
        assert report["approx_s"] > 0
