"""The replay kernel's per-slice cycle-term memo.

A slice's per-reference cycle terms (``gap/ipc`` and the branch
penalty), its short-stretch stream and its instruction, write and
branch-penalty totals depend only on the slice and the core profile,
so :mod:`repro.sim.vectorized` makes them once per decoded slice
(``BatchDecodedTrace.cycle_terms``) and every later config or cell that
replays it reuses them.  A replay that reuses them must give the bytes
of one that made them, and both the bytes of the ``legacy`` loop: for
each lower-level family on one shared trace, for a CMP cell, for a
counters-armed cell, and for a fault campaign whose DUE stops a slice
partway.  The decoded set-index column is ``uint16``; the L1 solve
must read it as it reads int64.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cmp.engine import generate_cmp_trace
from repro.cmp.scenarios import cmp_nurapid_config
from repro.common.errors import UncorrectableDataError
from repro.cpu.core import CoreModel
from repro.faults.models import FaultPlan
from repro.sim import l1solve, vectorized
from repro.sim.config import base_config, dnuca_config, nurapid_config
from repro.sim.driver import _replay, make_system, run_benchmark
from repro.sim.results import run_result_to_dict
from repro.telemetry import TelemetryConfig, reset_runtime_registry, runtime_counters
from repro.workloads.spec2k import get_benchmark
from repro.workloads.trace import Trace
from repro.workloads.tracegen import generate_trace

REFS = 6_000
WARMUP = 0.25


def fresh(trace):
    """A new Trace over ``trace``'s columns: its decode and memos start
    empty."""
    return Trace(trace.benchmark, trace.gaps, trace.addresses, trace.writes)


def digest(config, benchmark, trace, engine, telemetry=None, profile=None):
    """One cell's result bytes; ``profile`` names the benchmark whose
    core profile replays ``trace`` (default: ``benchmark``)."""
    result = run_benchmark(
        replace(config, engine=engine),
        profile or benchmark,
        n_references=len(trace),
        seed=1,
        warmup_fraction=WARMUP,
        trace=trace,
        telemetry=telemetry,
    )
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def reuses(run):
    """``run()`` and the cycle-term memo hits it made."""
    reset_runtime_registry()
    out = run()
    return out, runtime_counters()["vectorized.term_reuses"]


def measured_terms(trace, config=None):
    """The cycle-term memo of ``trace``'s measured slice."""
    l1 = make_system(config or nurapid_config()).l1d
    _, measured = trace.split(WARMUP)
    return measured.decoded_batch(l1.spec.block_bytes, l1.n_sets).cycle_terms


def test_one_shared_trace_across_lower_levels():
    """Each family's first replay of the shared trace makes its terms
    or reuses the previous family's; every one matches legacy and a
    replay of a fresh trace (a memo miss)."""
    shared = fresh(generate_trace(get_benchmark("gcc"), REFS, seed=4))
    for made, config in enumerate((nurapid_config(), dnuca_config(), base_config())):
        hit, n_hit = reuses(lambda: digest(config, "gcc", shared, "vectorized"))
        miss, n_miss = reuses(lambda: digest(config, "gcc", fresh(shared), "vectorized"))
        # Two slices, warmup and measured.
        assert (n_hit, n_miss) == (2 if made else 0, 0)
        assert hit == miss == digest(config, "gcc", fresh(shared), "legacy")
    assert len(measured_terms(shared)) == 1


def test_cmp_cell():
    config = cmp_nurapid_config(cores=2)
    trace = generate_cmp_trace(config, "gcc+mesa", REFS, seed=1)
    miss, n_miss = reuses(lambda: digest(config, "gcc+mesa", trace, "vectorized"))
    hit, n_hit = reuses(lambda: digest(config, "gcc+mesa", trace, "vectorized"))
    # Two cores, two slices each.
    assert (n_miss, n_hit) == (0, 4)
    assert hit == miss == digest(config, "gcc+mesa", fresh(trace), "legacy")


def test_counters_armed_cell():
    trace = generate_trace(get_benchmark("mcf"), REFS, seed=4)
    config = nurapid_config()
    armed = TelemetryConfig()
    miss, n_miss = reuses(lambda: digest(config, "mcf", trace, "vectorized", armed))
    hit, n_hit = reuses(lambda: digest(config, "mcf", trace, "vectorized", armed))
    assert (n_miss, n_hit) == (0, 2)
    assert hit == miss == digest(config, "mcf", trace, "legacy", armed)


def _core_for(config, benchmark):
    profile = get_benchmark(benchmark)
    return CoreModel(
        params=config.core,
        core_ipc=profile.core_ipc,
        exposure=profile.exposure,
        branch_fraction=profile.branch_fraction,
        mispredict_rate=profile.mispredict_rate,
    )


def _one_core_state(config, trace, engine):
    """The machine state ``trace`` leaves when it replays, warmup then
    measured slice, on one core (whose branch penalty therefore starts
    the measured slice above 0.0), and the DUE that stopped it."""
    system = make_system(replace(config, engine=engine))
    core = _core_for(config, trace.benchmark)
    warm, measured = trace.split(WARMUP)
    error = None
    try:
        _replay([system], [core], warm, engine=engine)
        _replay([system], [core], measured, engine=engine)
    except UncorrectableDataError as exc:
        error = str(exc)
    l1 = system.l1d
    return (
        error,
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


def test_due_cut_slice_folds_its_prefix():
    """A fault-free run fills the memo; a campaign whose DUE stops a
    slice partway then reuses the slice's terms and must commit only
    the stopped prefix's totals, as legacy does."""
    trace = generate_trace(get_benchmark("twolf"), REFS, seed=3)
    digest(nurapid_config(), "twolf", trace, "vectorized")
    config = nurapid_config(
        faults=FaultPlan(
            transient_per_access=5e-2,
            max_upset_bits=4,
            words_per_block=2,
            interleave_subarrays=1,
            seed=3,
        )
    )
    vector, n_hit = reuses(lambda: _one_core_state(config, trace, "vectorized"))
    assert n_hit >= 1 and vector[0] is not None
    instructions = vector[6][1]
    assert 0 < instructions < int(trace.gaps.sum())
    assert vector == _one_core_state(config, trace, "legacy")


def test_slice_run_from_a_nonzero_branch_penalty():
    """A whole slice whose core's branch penalty did not start at 0.0
    folds its terms onto that penalty, not the memoised fold from 0.0."""
    trace = generate_trace(get_benchmark("gcc"), REFS, seed=4)
    digest(nurapid_config(), "gcc", trace, "vectorized")
    vector, n_hit = reuses(lambda: _one_core_state(nurapid_config(), trace, "vectorized"))
    assert n_hit == 2 and vector[0] is None and vector[6][2] > 0.0
    assert vector == _one_core_state(nurapid_config(), trace, "legacy")


def test_two_profiles_on_one_slice_get_two_entries():
    trace = fresh(generate_trace(get_benchmark("gcc"), REFS, seed=4))
    config = nurapid_config()
    for profile in ("gcc", "mesa"):
        assert digest(config, "gcc", trace, "vectorized", profile=profile) == digest(
            config, "gcc", fresh(trace), "legacy", profile=profile
        )
    memo = measured_terms(trace)
    assert len(memo) == 2
    gcc, mesa = get_benchmark("gcc"), get_benchmark("mesa")
    assert {key[0] for key in memo} == {gcc.core_ipc, mesa.core_ipc}


def test_memo_is_bounded():
    trace = fresh(generate_trace(get_benchmark("gcc"), 2_000, seed=4))
    config = nurapid_config()
    profiles = ("gcc", "mesa", "mcf", "twolf")
    assert len({get_benchmark(p).core_ipc for p in profiles}) == len(profiles)
    assert len(profiles) > vectorized.TERM_MEMO_ENTRIES
    for profile in profiles:
        digest(config, "gcc", trace, "vectorized", profile=profile)
    assert len(measured_terms(trace)) == vectorized.TERM_MEMO_ENTRIES
    l1 = make_system(config).l1d
    _, measured = trace.split(WARMUP)
    solves = measured.decoded_batch(l1.spec.block_bytes, l1.n_sets).l1_solves
    assert all(len(entry.short) <= vectorized.TERM_MEMO_ENTRIES for entry in solves.values())


def test_uint16_and_int64_set_columns_solve_alike():
    trace = fresh(generate_trace(get_benchmark("gcc"), REFS, seed=4))
    l1 = make_system(nurapid_config()).l1d
    decoded = trace.decoded_batch(l1.spec.block_bytes, l1.n_sets)
    assert decoded.sets.dtype == np.uint16
    assert trace.decoded_batch(l1.spec.block_bytes, 1 << 17).sets.dtype == np.int64
    # From an empty L1 and from the one the first half leaves.
    half = len(trace) // 2
    first = l1solve.solve(
        decoded.sets[:half], decoded.block_addrs[:half], decoded.writes[:half], l1.n_sets
    )
    l1solve.commit(l1, first, 0, half)
    for state in (None, l1solve.cache_state(l1)):
        solves = [
            l1solve.solve(sets, decoded.block_addrs, decoded.writes, l1.n_sets, state)
            for sets in (decoded.sets, decoded.sets.astype(np.int64))
        ]
        a, b = (vars(s) for s in solves)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)
