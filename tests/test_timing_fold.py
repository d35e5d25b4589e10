"""The replay kernel's cycle fold and its phase counters.

:func:`repro.sim.vectorized.fold_terms` adds a stretch of per-reference
cycle terms to the running cycle: through ``np.add.accumulate`` when
the stretch is longer than ``FOLD_NUMPY_TERMS``, over Python floats
otherwise.  Either way it must return the bits of the legacy loop's
left fold, ``reduce(add, terms, start)``; a reassociating sum (fsum,
numpy's pairwise ``sum``) would not.  The kernel's wall-clock phase
counters must each see their phase and together fit in its wall.
"""

import math
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import vectorized
from repro.sim.config import nurapid_config
from repro.sim.driver import run_benchmark
from repro.telemetry import reset_runtime_registry, runtime_counters
from repro.workloads.spec2k import get_benchmark
from repro.workloads.tracegen import generate_trace

T = vectorized.FOLD_NUMPY_TERMS

#: Ordinary cycle terms mixed with magnitudes whose left fold loses
#: the small ones: 1e16 + 1.0 rounds back to 1e16.
values = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([1e16, -1e16, 1e300, 1.0, 0.5, 1e-16, 3.0 / 7.0]),
)
lengths = st.one_of(st.sampled_from([0, 1, T - 1, T, T + 1]), st.integers(0, 3 * T))


def fold(start, terms):
    """``fold_terms`` over all of ``terms``, as one stretch."""
    z = np.array(terms, dtype=np.float64)
    short = iter(vectorized.short_terms(z, []))
    return vectorized.fold_terms(start, z, short, 0, len(z))


@settings(max_examples=300, deadline=None)
@given(start=values, n=lengths, data=st.data())
def test_one_stretch_is_the_left_fold(start, n, data):
    terms = data.draw(st.lists(values, min_size=n, max_size=n))
    assert fold(start, terms).hex() == reduce(add, terms, start).hex()


@settings(max_examples=150, deadline=None)
@given(
    start=values,
    n_refs=st.integers(0, 2 * T),
    data=st.data(),
)
def test_stretches_between_misses_chain_to_the_left_fold(start, n_refs, data):
    """The kernel's use: one stretch per miss, then the rest; long and
    short stretches share one Python stream of short terms."""
    terms = data.draw(st.lists(values, min_size=2 * n_refs, max_size=2 * n_refs))
    misses = sorted(
        data.draw(st.sets(st.integers(0, max(n_refs - 1, 0)), max_size=n_refs))
    )
    z = np.array(terms, dtype=np.float64)
    short = iter(vectorized.short_terms(z, misses))
    cycle, a = start, 0
    for pos in misses:
        cycle = vectorized.fold_terms(cycle, z, short, a, 2 * pos + 2)
        a = 2 * pos + 2
    cycle = vectorized.fold_terms(cycle, z, short, a, len(z))
    assert cycle.hex() == reduce(add, terms, start).hex()
    assert next(short, None) is None


def test_long_stretch_is_not_reassociated():
    """1e16 absorbs every 1.0 added to it one at a time, so the left
    fold stays 1e16; an exact or pairwise sum keeps the ones."""
    start, terms = 1e16, [1.0] * (3 * T)
    left = reduce(add, terms, start)
    assert left == 1e16
    assert math.fsum([start, *terms]) != left
    assert float(np.sum(np.array([start, *terms]))) != left
    assert fold(start, terms).hex() == left.hex()


def test_phase_counters_fit_in_the_kernel_wall():
    """A replay with misses: each phase counter sees its phase, and the
    disjoint phases sum to no more than the kernel's wall."""
    config = replace(nurapid_config(), engine="vectorized")
    trace = generate_trace(get_benchmark("gcc"), 20_000, seed=2)
    reset_runtime_registry()
    run_benchmark(config, "gcc", n_references=20_000, seed=2, trace=trace)
    counters = runtime_counters()
    assert counters["vectorized.refs_scalar"] > 0
    assert counters.get("vectorized.fallbacks", 0) == 0
    phases = [
        counters[f"vectorized.{name}_wall_s"]
        for name in ("probe", "outcome", "fold", "l1_apply", "setup")
    ]
    assert all(wall > 0 for wall in phases), phases
    assert sum(phases) <= counters["vectorized.wall_s"]
