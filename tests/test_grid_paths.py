"""Every grid runner reaches its cells through one path.

``run_suite``, ``run_matrix`` and ``Sweep`` hand their cells to
:func:`repro.sim.parallel.run_cells`, serial or pooled.  The golden
digests pin what those runners return at one job: each is the sha256
of the canonical JSON of the runner's ``run_result_to_dict`` payloads
(plus outcomes, for sweeps), so any change to the cells a runner
builds, the traces it shares, or its retry and reseed schedule changes
a digest.  The remaining tests pin a contract that follows from one
path: a serial grid releases the scratch traces it mapped.
"""

import gc
import hashlib
import json
import os

import pytest

from repro.experiments.common import (
    Scale,
    clear_caches,
    reset_default_telemetry,
    run_matrix,
)
from repro.faults import FaultPlan
from repro.service.store import ResultStore
from repro.sim.config import base_config, dnuca_config, nurapid_config
from repro.sim.driver import run_suite
from repro.sim.results import run_result_to_dict
from repro.sim.sweep import Sweep, SweepAxis
from repro.workloads import transport
from repro.workloads.tracegen import trace_entries

REFS = 8_000
SEED = 3
WARMUP = 0.4
BENCHMARKS = ["gcc", "mcf"]


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    for name in ("REPRO_TRACE_CACHE", "REPRO_TELEMETRY", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)
    reset_default_telemetry()
    clear_caches()
    yield
    clear_caches()


def _digest(payload):
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _configs():
    return [base_config(), nurapid_config(n_dgroups=4), dnuca_config()]


def _points(points):
    return [
        {
            "coords": {k: str(v) for k, v in p.coordinates.items()},
            "outcomes": {b: o.to_dict() for b, o in p.outcomes.items()},
            "runs": {b: run_result_to_dict(r) for b, r in p.runs.items()},
        }
        for p in points
    ]


def _fault_build(rate):
    # Narrow ECC interleaving makes multi-bit upsets uncorrectable, so
    # mcf's cells fail and retry under reseeded fault plans.
    return base_config(
        faults=FaultPlan(
            transient_per_access=rate,
            max_upset_bits=32,
            interleave_subarrays=8,
            data_subarrays_per_dgroup=64,
            seed=7,
        )
    )


def _fault_sweep(**kw):
    return Sweep(
        axes=[SweepAxis("rate", (1e-2, 3e-2))],
        build=_fault_build,
        benchmarks=["twolf", "mcf"],
        n_references=6_000,
        seed=1,
        warmup_fraction=WARMUP,
        max_retries=1,
        **kw,
    )


def suite_digest():
    return _digest(
        {
            config.name: {
                b: run_result_to_dict(r)
                for b, r in run_suite(
                    config,
                    BENCHMARKS,
                    n_references=REFS,
                    seed=SEED,
                    warmup_fraction=WARMUP,
                ).runs.items()
            }
            for config in _configs()
        }
    )


def matrix_digest():
    scale = Scale(name="golden", n_references=REFS, warmup_fraction=WARMUP, seed=SEED)
    grid = run_matrix(_configs(), BENCHMARKS, scale, jobs=1)
    return _digest(
        {
            name: {b: run_result_to_dict(r) for b, r in runs.items()}
            for name, runs in grid.items()
        }
    )


def sweep_digest():
    sweep = Sweep(
        axes=[SweepAxis("n_dgroups", (2, 4))],
        build=lambda n_dgroups: nurapid_config(n_dgroups=n_dgroups),
        benchmarks=BENCHMARKS,
        n_references=REFS,
        seed=SEED,
        warmup_fraction=WARMUP,
    )
    return _digest(_points(sweep.run()))


def fault_sweep_digest(jobs=1):
    return _digest(_points(_fault_sweep(jobs=jobs).run()))


GOLDEN = {
    "run_suite": "40171fb6f47ce3af7bc6316a240d9cc46c4c8cf4c77e79ddf28dc92a699bc430",
    "run_matrix": "40171fb6f47ce3af7bc6316a240d9cc46c4c8cf4c77e79ddf28dc92a699bc430",
    "sweep": "8e150ff43ce7048e5e332060a3b17e3fee7b902b608334762db4a00d9c11bcd9",
    "fault_sweep": "d16aaf455fb6558ec1f65a93c4440ac63bd4cebf02e7562a935745e0e4f8f98b",
}


class TestGoldenDigests:
    def test_serial_run_suite(self):
        assert suite_digest() == GOLDEN["run_suite"]

    def test_run_matrix_one_job(self):
        assert matrix_digest() == GOLDEN["run_matrix"]

    def test_sweep_one_job(self):
        assert sweep_digest() == GOLDEN["sweep"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # jobs=2 on 1 CPU
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fault_sweep_retries(self, jobs):
        assert fault_sweep_digest(jobs) == GOLDEN["fault_sweep"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # jobs=2 on 1 CPU
    def test_fault_sweep_resumed_from_store(self, tmp_path, monkeypatch):
        # Interrupted after its first cell, then resumed on two workers:
        # the stored cell is restored, and the failed and retried cells
        # are not stored, so they re-run to the same bytes.
        import repro.sim.parallel as parallel

        original = parallel.run_benchmark
        calls = []

        def interrupt_at_second(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 2:
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        store = ResultStore(str(tmp_path))
        monkeypatch.setattr(parallel, "run_benchmark", interrupt_at_second)
        with pytest.raises(KeyboardInterrupt):
            _fault_sweep(result_store=store).run()
        monkeypatch.setattr(parallel, "run_benchmark", original)
        assert store.entries() == 1
        resumed = _fault_sweep(result_store=store, jobs=2).run()
        assert _digest(_points(resumed)) == GOLDEN["fault_sweep"]

    def test_fault_sweep_really_retries(self):
        outcomes = [
            o for p in _fault_sweep().run() for o in p.outcomes.values()
        ]
        assert any(o.ok and o.attempts > 1 for o in outcomes)
        assert any(not o.ok and o.attempts == 2 for o in outcomes)


def _deleted_npy_mappings():
    with open("/proc/self/maps", encoding="utf-8") as handle:
        return sum(
            1
            for line in handle
            if ".npy" in line and line.rstrip().endswith("(deleted)")
        )


class TestScratchTraceRelease:
    def test_trace_entries_forgets_scratch_entries(self):
        with trace_entries(["twolf"], 2_000, SEED) as paths:
            path = paths["twolf"]
            assert transport.load_mmap_trace(path, "twolf", 2_000) is not None
            assert path in transport._LOADED
        assert not os.path.exists(path)
        assert path not in transport._LOADED

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
    )
    def test_serial_suites_unmap_scratch_traces(self, tmp_path):
        # Collect earlier tests' cyclic garbage first, so the baseline
        # does not depend on when the collector next runs.
        gc.collect()
        before = _deleted_npy_mappings()
        store = ResultStore(str(tmp_path / "store"))
        for config in _configs():
            run_suite(
                config,
                ["twolf", "art"],
                n_references=2_000,
                seed=SEED,
                result_store=store,
            )
        gc.collect()
        assert _deleted_npy_mappings() == before
