"""Deterministic multi-core trace interleaving for shared-LLC runs.

A chip-multiprocessor scenario replays N independent per-core
reference streams against one shared L2.  Each core's stream comes
from the usual seeded generator; this module merges them into a single
plain :class:`~repro.workloads.trace.Trace` ordered by *virtual time*
(the cycle each reference would issue at if its core ran alone at its
profile IPC), and the issuing core of every record lives in its
address bits.

Two properties matter downstream:

* **Determinism** — the merge is a stable sort over exact float64
  cumulative-gap arrays derived from seeded traces, so the same seeds
  always produce the same interleaving, on any worker process.
* **Address isolation** — each core's addresses are offset by
  ``core_id << CORE_ADDR_SHIFT`` so streams never alias in the shared
  cache (cores only *compete for capacity*, they do not share data),
  and :func:`core_of_address` is the one decoder of that offset.
  Core 0's addresses are untouched, so a one-core merge is the plain
  single-core trace.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.workloads.trace import Trace

#: Bit position of the per-core address-space offset.  The workload
#: generators emit byte addresses well below 2**38, and the prewarm
#: dummy region every cache model shares
#: (:data:`repro.caches.block.PREWARM_BASE`) starts at 2**45, so 16
#: cores fit between the two without any stream aliasing another
#: core's (or the dummies).
CORE_ADDR_SHIFT = 38

#: Most cores one LLC can be shared by (core id must fit in address
#: bits CORE_ADDR_SHIFT .. CORE_ADDR_SHIFT+3).
MAX_CORES = 16


def core_of_address(address):
    """The issuing core of an offset byte address: an ``int`` for an
    ``int``, an int64 array for an int64 array of addresses."""
    return (address >> CORE_ADDR_SHIFT) & (MAX_CORES - 1)


def parse_cmp_benchmark(benchmark: str, cores: int) -> List[str]:
    """Expand a CMP benchmark spec into one app name per core.

    ``"twolf"`` runs the same app on every core (rate mode);
    ``"twolf+mcf"`` pins one named app per core and must list exactly
    ``cores`` parts.  Names are validated by the caller's
    :func:`~repro.workloads.spec2k.get_benchmark` lookups.
    """
    parts = [part.strip() for part in benchmark.split("+")]
    if any(not part for part in parts):
        raise ConfigurationError(f"empty app name in CMP spec {benchmark!r}")
    if len(parts) == 1:
        return parts * cores
    if len(parts) != cores:
        raise ConfigurationError(
            f"CMP spec {benchmark!r} names {len(parts)} apps "
            f"but the config has {cores} cores"
        )
    return parts


def spec_records(spec: str, n_references: int) -> int:
    """Records in the trace of a per-core spec (``"a+b"``, one app per
    core): each of its ``k`` cores issues ``n_references // k``."""
    k = spec.count("+") + 1
    return n_references // k * k


def interleave_traces(
    traces: Sequence[Trace],
    core_ipcs: Sequence[float],
    benchmark: str = "",
) -> Trace:
    """Merge per-core traces into one shared-L2 stream.

    Each core's references are placed at their standalone virtual
    issue time ``cumsum(gaps) / core_ipc`` and the streams are merged
    by a stable sort, so equal-time references keep core order.  Gaps
    stay per-core: during replay each record advances only its own
    core by its own gap, so per-core instruction counts are exact.
    Core ``i``'s addresses are offset by ``i << CORE_ADDR_SHIFT``, so
    each stream must stay below that offset.
    """
    if not traces:
        raise ConfigurationError("need at least one per-core trace")
    if len(traces) > MAX_CORES:
        raise ConfigurationError(
            f"at most {MAX_CORES} cores per LLC, got {len(traces)}"
        )
    if len(core_ipcs) != len(traces):
        raise ConfigurationError(
            f"{len(core_ipcs)} IPCs for {len(traces)} traces"
        )
    times: List[np.ndarray] = []
    offset_addrs: List[np.ndarray] = []
    for core, (trace, ipc) in enumerate(zip(traces, core_ipcs)):
        if ipc <= 0:
            raise ConfigurationError(f"core {core} IPC must be positive, got {ipc}")
        if not len(trace):
            raise ConfigurationError(f"core {core} trace is empty")
        top = int(trace.addresses.max())
        if top >= 1 << CORE_ADDR_SHIFT:
            raise ConfigurationError(
                f"core {core} trace holds address {top:#x}, at or above "
                f"1 << {CORE_ADDR_SHIFT}, where the per-core offsets start: "
                "it would alias another core's addresses"
            )
        times.append(np.cumsum(trace.gaps, dtype=np.float64) / float(ipc))
        offset_addrs.append(
            trace.addresses.astype(np.int64) + (core << CORE_ADDR_SHIFT)
        )
    order = np.argsort(np.concatenate(times), kind="stable")
    return Trace(
        benchmark=benchmark or "+".join(t.benchmark for t in traces),
        gaps=np.concatenate([t.gaps for t in traces])[order],
        addresses=np.concatenate(offset_addrs)[order],
        writes=np.concatenate([t.writes for t in traces])[order],
    )
